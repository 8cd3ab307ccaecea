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

The bisection halves [1, max(2, ceil(q))] a fixed number of times.  The scan
stopped at the first n with n^n > q, so (n - 1)^(n - 1) < q < n^n, and x^x
increases on [1, inf): a midpoint outside (n - 1, n) is decided without a
comparison, and only midpoints inside it are compared with q exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arith import Ordering, compare_self_power_to_rational
from .errors import DomainError, ResourceError, UnsupportedInputError, number_text
from .solver import AlgebraicTarget, integer_scan

#: Width of the isolating interval classify_preimage returns by default.
DEFAULT_WIDTH = Fraction(1, 10**9)
#: Halvings one bisection may take; a narrower width is refused up front.
_MAX_HALVINGS = 10_000


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
    """Bisect [1, max(2, ceil(q))] to width around the preimage of q, given the
    integer scan's stop n: (n - 1)^(n - 1) < q < n^n."""
    if width <= 0:
        raise DomainError("width must be positive")
    lo = Fraction(1)
    hi = Fraction(max(2, -(-q.numerator // q.denominator)))
    # halvings are exact: j of them leave a bracket of width (hi - lo) / 2^j,
    # so the fewest that reach width are the least j with 2^j >= m, where
    # m = ceil((hi - lo) / width), and that j is the bit length of m - 1
    halvings = (-((lo - hi) // width) - 1).bit_length()
    if halvings > _MAX_HALVINGS:
        raise ResourceError(
            f"bisection to width {number_text(width)} needs {number_text(halvings)} "
            f"halvings, past the cap of {number_text(_MAX_HALVINGS)} halvings"
        )
    # x^x is strictly increasing on [1, inf); these endpoints straddle q
    if (
        compare_self_power_to_rational(lo, q) is not Ordering.LESS
        or compare_self_power_to_rational(hi, q) is not Ordering.GREATER
    ):
        raise AssertionError(
            f"[{number_text(lo)}, {number_text(hi)}] does not bracket the "
            f"preimage of {number_text(q)}"
        )
    for _ in range(halvings):
        mid = (lo + hi) / 2
        # the scan decides every midpoint outside (n - 1, n)
        if mid <= n - 1:
            c = Ordering.LESS
        elif mid >= n:
            c = Ordering.GREATER
        else:
            c = compare_self_power_to_rational(mid, q)
        # Equal cannot happen: a rational x with rational x^x is an integer,
        # and the scan has excluded the integers
        if c is Ordering.EQUAL:
            raise AssertionError(
                f"{number_text(mid)}^{number_text(mid)} = {number_text(q)} "
                "contradicts the integer scan"
            )
        if c is Ordering.LESS:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _scan(q, noun: str) -> tuple[Fraction, int | None, int]:
    """Fraction(q) after refusing q <= 1, and the integer scan of x^x = q."""
    q = Fraction(q)
    if q <= 1:
        raise UnsupportedInputError(f"{noun} covers q > 1 only, got {number_text(q)}")
    return (q, *integer_scan(AlgebraicTarget.from_rational(q)))


def bisect_preimage(q, width) -> tuple[Fraction, Fraction]:
    """Exact isolating interval for the real x > 1 with x^x = q.

    Returns rationals lo < hi with hi - lo <= width, lo^lo < q and hi^hi > q,
    every comparison exact; midpoints stay dyadic to control denominator
    growth.  Refused when q = n^n has an exact integer solution, and when
    width needs more than _MAX_HALVINGS halvings.
    """
    q, found, scanned = _scan(q, "bisection")
    if found is not None:
        raise DomainError(
            f"x^x = {number_text(q)} has the exact solution x = {found}; "
            "bisection refused"
        )
    return _bisect(q, Fraction(width), scanned)


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
    certificate for the unique real x > 1 with x^x = q.  Requires q > 1."""
    q, found, scanned = _scan(q, "classification")
    if found is not None:
        return found
    lo, hi = _bisect(q, Fraction(width), scanned)
    # the scan stopped at the first n with n^n > q
    trace = [(n, Ordering.LESS) for n in range(1, scanned)]
    trace.append((scanned, Ordering.GREATER))
    return Certificate(
        q=q,
        integer_scan_trace=tuple(trace),
        interval=(lo, hi),
        statement=_statement(q, scanned, lo, hi),
    )
