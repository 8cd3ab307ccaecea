"""Transcendence certificates for real solutions of x^x = q, rational q > 1.

A certificate is decidable evidence: an exact integer scan showing q is not of
the form n^n, and an exact isolating interval around the unique real x > 1
with x^x = q.  Since a positive rational x with rational x^x must be an
integer, the scan makes x irrational; the Gelfond-Schneider theorem, cited as
an external axiom, upgrades irrational to transcendental.  Every comparison
behind the certificate is exact.

The scan is the solver's own `solver.integer_scan` on the rational target q,
the d = 1 case of its scan, so it stops after N <= max(3, 1 + ceil(ln q))
steps and raises when a comparator would take it past that bound.

The interval is the cell of the dyadic grid 1 + j*(H - 1)/2^k, H =
max(2, ceil(q)), that holds x, with k the fewest halvings of [1, H] that
reach the width: the bracket a bisection of [1, H] would end on.  The scan
stopped at the first n with n^n > q, so (n - 1)^(n - 1) < q < n^n, and x^x
increases on [1, inf): x lies between the grid points next to n - 1 and n,
and a binary search on j compares only grid points inside (n - 1, n) with q
exactly.  A probe at depth i of that search lies within about 2^-i of the
root, so its comparison starts its log2 enclosures at about i + log2(n)
bits, worked out from the bracket left, instead of climbing to that
precision from 64 bits; the answers are the same, since every enclosure
that separates the two sides proves the same order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arith import Ordering, compare_self_power_to_rational
from .errors import DomainError, ResourceError, UnsupportedInputError, number_text
from .solver import AlgebraicTarget, integer_scan

#: Width of the isolating interval classify_preimage returns by default.
DEFAULT_WIDTH = Fraction(1, 10**9)
#: Probes, one exact comparison each, that a certificate's cell search may
#: make; a width that needs more is refused up front.
_MAX_PROBES = 10_000


class Certificate(namedtuple("Certificate", "q integer_scan_trace interval statement")):
    """Exact evidence that the real solution of x^x = q is transcendental."""

    __slots__ = ()

    def __new__(
        cls,
        q: Fraction,
        integer_scan_trace: tuple[tuple[int, Ordering], ...],
        interval: tuple[Fraction, Fraction],
        statement: str,
    ):
        if q <= 1:
            raise DomainError("certificates cover q > 1 only")
        lo, hi = interval
        if not lo < hi:
            raise DomainError("certificate interval must be nonempty")
        return super().__new__(cls, q, integer_scan_trace, interval, statement)


def _bisect(q: Fraction, width: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """The cell 1 + j*(H - 1)/2^k, j to j + 1, that holds the preimage of q,
    where H = max(2, ceil(q)) and k is the fewest halvings of [1, H] that
    reach width, given the integer scan's stop n: (n - 1)^(n - 1) < q < n^n.

    Each probe is one exact comparison whose log2 enclosures start at the
    precision the bracket left needs; no state passes between probes."""
    top = max(2, -(-q.numerator // q.denominator))
    span = top - 1
    # k halvings leave cells of width span / 2^k, so the fewest that reach
    # width are the least k with 2^k >= m, where m = ceil(span / width), and
    # that k is the bit length of m - 1
    cells = 1 << (-(-span // width) - 1).bit_length()
    # grid point j is 1 + j*span/cells; the scan puts the last one at or
    # below n - 1 under the root and the first one at or above n over it
    lo = (n - 2) * cells // span
    hi = -(-(n - 1) * cells // span)
    # each probe leaves at most half of hi - lo, rounded up, so the search
    # below ends within ceil(log2(hi - lo)) probes; the grid's halvings that
    # fall outside (n - 1, n) cost none
    probes = (hi - lo - 1).bit_length()
    if probes > _MAX_PROBES:
        raise ResourceError(
            f"bisection to width {number_text(width)} needs {number_text(probes)} "
            f"probes, past the cap of {number_text(_MAX_PROBES)} probes"
        )
    # x^x is strictly increasing on [1, inf); these endpoints straddle q
    if (
        compare_self_power_to_rational(Fraction(1), q) is not Ordering.LESS
        or compare_self_power_to_rational(Fraction(top), q) is not Ordering.GREATER
    ):
        raise AssertionError(
            f"[1, {number_text(top)}] does not bracket the preimage of {number_text(q)}"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = Fraction(cells + mid * span, cells)
        # the probe lies within the bracket's width of the root, and for
        # x = a/b the comparator weighs b times the log2s of x^x and q: they
        # differ by up to about b times that width, while enclosures at p
        # bits err by about (a + b)/2^p, so no p much below log2(1/width) +
        # log2(x) can decide, with x < n; a probe closer to the root than
        # the width climbs on from there
        need = (cells // ((hi - lo) * span)).bit_length() + n.bit_length()
        c = compare_self_power_to_rational(x, q, prec=need)
        # Equal cannot happen: a rational x with rational x^x is an integer,
        # and the scan has excluded the integers
        if c is Ordering.EQUAL:
            raise AssertionError(
                f"{number_text(x)}^{number_text(x)} = {number_text(q)} "
                "contradicts the integer scan"
            )
        if c is Ordering.LESS:
            lo = mid
        else:
            hi = mid
    return Fraction(cells + lo * span, cells), Fraction(cells + hi * span, cells)


def _statement(q: Fraction, scanned: int, lo: Fraction, hi: Fraction) -> str:
    q, lo, hi = number_text(q), number_text(lo), number_text(hi)
    return (
        f"The equation x^x = {q} has a unique real solution x > 1, isolated by "
        f"the exact bracket ({lo}, {hi}). Any positive rational x with x^x "
        f"rational must be an integer, and the scan over n = 1..{scanned} shows "
        f"n^n = {q} has no integer solution, so x is irrational. By the "
        f"Gelfond-Schneider theorem (assumed as an external axiom), an "
        f"irrational x > 1 with x^x rational is transcendental."
    )


def classify_preimage(q, width=DEFAULT_WIDTH) -> int | Certificate:
    """The integer n with n^n = q when one exists; otherwise a transcendence
    certificate for the unique real x > 1 with x^x = q, whose interval is an
    exact isolating bracket of width at most width.  Requires width > 0 and
    q > 1; a width whose cell search needs more than _MAX_PROBES probes is
    refused."""
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    q = Fraction(q)
    if q <= 1:
        raise UnsupportedInputError(
            f"classification covers q > 1 only, got {number_text(q)}"
        )
    found, scanned = integer_scan(AlgebraicTarget.from_rational(q))
    if found is not None:
        return found
    lo, hi = _bisect(q, width, scanned)
    # the scan stopped at the first n with n^n > q
    trace = [(n, Ordering.LESS) for n in range(1, scanned)]
    trace.append((scanned, Ordering.GREATER))
    return Certificate(
        q=q,
        integer_scan_trace=tuple(trace),
        interval=(lo, hi),
        statement=_statement(q, scanned, lo, hi),
    )
