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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Ordering, compare_self_power_to_rational
from .config import DEFAULT_CONFIG, Config
from .errors import DomainError, ResourceError, UnsupportedInputError, number_text
from .solver import AlgebraicTarget, integer_scan


@dataclass(frozen=True)
class Certificate:
    """Exact evidence that the real solution of x^x = q is transcendental."""

    q: Fraction
    integer_scan_trace: tuple[tuple[int, Ordering], ...]
    interval: tuple[Fraction, Fraction]
    statement: str

    def __post_init__(self):
        if self.q <= 1:
            raise DomainError("certificates cover q > 1 only")
        lo, hi = self.interval
        if not lo < hi:
            raise DomainError("certificate interval must be nonempty")


def _bisect(q: Fraction, width: Fraction, config: Config) -> tuple[Fraction, Fraction]:
    lo = Fraction(1)
    hi = Fraction(max(2, -(-q.numerator // q.denominator)))
    # x^x is strictly increasing on [1, inf); these endpoints straddle q
    if (
        compare_self_power_to_rational(lo, q, config) is not Ordering.LESS
        or compare_self_power_to_rational(hi, q, config) is not Ordering.GREATER
    ):
        raise AssertionError(
            f"[{number_text(lo)}, {number_text(hi)}] does not bracket the "
            f"preimage of {number_text(q)}"
        )
    steps = 0
    while hi - lo > width:
        if steps >= config.max_bisect_steps:
            raise ResourceError("bisection iteration cap exceeded")
        mid = (lo + hi) / 2
        c = compare_self_power_to_rational(mid, q, config)
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
        steps += 1
    return lo, hi


def bisect_preimage(
    q, width, config: Config = DEFAULT_CONFIG
) -> tuple[Fraction, Fraction]:
    """Exact isolating interval for the real x > 1 with x^x = q.

    Returns rationals lo < hi with hi - lo <= width, lo^lo < q and hi^hi > q,
    every comparison exact; midpoints stay dyadic to control denominator
    growth.  Refused when q = n^n has an exact integer solution.
    """
    q = Fraction(q)
    width = Fraction(width)
    if q <= 1:
        raise UnsupportedInputError(
            f"bisection covers q > 1 only, got {number_text(q)}"
        )
    if width <= 0:
        raise DomainError("width must be positive")
    found, _ = integer_scan(AlgebraicTarget.from_rational(q), config)
    if found is not None:
        raise DomainError(
            f"x^x = {number_text(q)} has the exact solution x = {found}; "
            "bisection refused"
        )
    return _bisect(q, width, config)


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


def classify_preimage(
    q, width=None, config: Config = DEFAULT_CONFIG
) -> int | Certificate:
    """The integer n with n^n = q when one exists; otherwise a transcendence
    certificate for the unique real x > 1 with x^x = q.  Requires q > 1."""
    q = Fraction(q)
    if q <= 1:
        raise UnsupportedInputError(
            f"classification covers q > 1 only, got {number_text(q)}"
        )
    found, scanned = integer_scan(AlgebraicTarget.from_rational(q), config)
    if found is not None:
        return found
    width = config.bisect_width if width is None else Fraction(width)
    lo, hi = _bisect(q, width, config)
    # the scan stopped at the first n with n^n > q
    trace = [(n, Ordering.LESS) for n in range(1, scanned)]
    trace.append((scanned, Ordering.GREATER))
    return Certificate(
        q=q,
        integer_scan_trace=tuple(trace),
        interval=(lo, hi),
        statement=_statement(q, scanned, lo, hi),
    )
