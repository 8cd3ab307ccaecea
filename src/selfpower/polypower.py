"""Rationality of x^P(x) for rational x and integer polynomials P.

For reduced x = a/b and exponent P(x) = p/q in lowest terms, x^P(x) is
rational exactly when a and b are both perfect q-th powers; when it is, the
denominator b is bounded in terms of the leading coefficient A of P alone:
b = 1 for |A| = 1 and b < 3|A|log2|A| otherwise (b <= |A| in the special case
P(x) = 0).  The bounded sweep makes the bound observable.  P is held as its
nonzero terms, and evaluation steps from one term to the next.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .arith import check_bit_cap, integer_kth_root, log2_interval
from .errors import DomainError, ResourceError, number_text
from .minpoly import IntPolynomial


class RationalityVerdict(namedtuple("RationalityVerdict", "exponent rational")):
    """Outcome of the rationality analysis of x^P(x).

    exponent is the reduced value P(x); rational is the exact value of
    x^P(x) when that value is rational, None otherwise.
    """

    __slots__ = ()


def eval_polynomial(poly: IntPolynomial, x: Fraction) -> Fraction:
    """Exact value P(x); the denominator always divides den(x)^deg(P).

    A value estimated past the bit cap, at deg(P) times the bits of x's
    numerator or denominator plus those of P's largest coefficient, is
    refused with ResourceError before it is computed.
    """
    a, b = x.numerator, x.denominator
    bits = poly.degree * max(a.bit_length(), b.bit_length())
    check_bit_cap(bits + max(c.bit_length() for _, c in poly.terms), "P({}) needs", x)
    # integer Horner on b^deg(P) * P(a/b) = sum of c_k a^k b^(deg(P) - k),
    # from one term to the next: acc is the sum of c_m a^(m - k) b^(deg(P) - m)
    # over the terms m >= k, and b_power is b^(deg(P) - k)
    (k, acc), b_power = poly.terms[0], 1
    for i, c in poly.terms[1:]:
        step = k - i
        b_power *= b**step
        acc = acc * a**step + c * b_power
        k = i
    if k:
        b_power *= b**k
        acc *= a**k
    return Fraction(acc, b_power)


def rational_power(base: Fraction, exponent: Fraction) -> Fraction | None:
    """base**exponent when that value is rational, None otherwise.

    base = u/v must be positive and reduced; for exponent p/q in lowest terms
    the value is rational iff u and v are both perfect q-th powers.  Negative
    p reciprocates.  Exponent 0 has q = 1 and gives (u/v)^0 = 1; base 1 has
    both roots 1.
    """
    if base <= 0:
        raise DomainError(f"base must be positive, got {number_text(base)}")
    p, q = exponent.numerator, exponent.denominator
    u, v = base.numerator, base.denominator
    root_u = integer_kth_root(u, q)
    if root_u is None:
        return None
    root_v = integer_kth_root(v, q)
    if root_v is None:
        return None
    # the larger of root_u^|p| and root_v^|p| has floor(|p| log2 root) + 1
    # bits; the enclosure's upper end errs by at most 2 units of 2^-prec, so
    # the estimate is exact or one bit over while |p| < 2^62
    prec = min(abs(p).bit_length(), 62) + 2
    log2_hi = log2_interval(max(root_u, root_v), prec)[1]
    bits = (abs(p) * log2_hi >> prec) + 1
    check_bit_cap(bits, "{}**{} needs", base, exponent)
    return Fraction(root_u, root_v) ** p


def analyze_poly_power(poly: IntPolynomial, x: Fraction) -> RationalityVerdict:
    """Exact rationality verdict for x^P(x); requires x > 0 and deg P >= 1."""
    if poly.degree < 1:
        raise DomainError("polynomial must be non-constant")
    if x <= 0:
        raise DomainError(f"x must be positive, got {number_text(x)}")
    exponent = eval_polynomial(poly, x)
    return RationalityVerdict(exponent=exponent, rational=rational_power(x, exponent))


def leading_denominator_bound(leading: int) -> int:
    """Largest admissible denominator of x with x^P(x) rational and P(x) != 0.

    1 when |A| = 1; otherwise the largest integer strictly below
    3|A|*log2|A|, with the logarithm rounded outward so that no admissible
    denominator is ever excluded.
    """
    if leading == 0:
        raise DomainError("leading coefficient must be nonzero")
    a = abs(leading)
    if a == 1:
        return 1
    prec = 96
    lo, hi = log2_interval(a, prec)
    v_lo, v_hi = 3 * a * lo, 3 * a * hi
    if v_lo == v_hi and v_lo % (1 << prec) == 0:
        # |A| is a power of two, so 3|A|log2|A| is an exact integer
        return (v_lo >> prec) - 1
    return v_hi >> prec


def zero_exponent_denominator_bound(leading: int) -> int:
    """Denominator bound in the special case P(x) = 0: b <= |A|."""
    if leading == 0:
        raise DomainError("leading coefficient must be nonzero")
    return abs(leading)


#: A sweep over more points x = a/b than this, counted as a_max * (b_hi - 1),
#: is refused before any point is analyzed.
_MAX_SWEEP_POINTS = 1 << 20


def enumerate_rational_powers(
    poly: IntPolynomial,
    a_max: int,
    b_max: int | None = None,
) -> list[tuple[Fraction, Fraction]]:
    """All (x, x^P(x)) with rational value, x = a/b reduced, 1 <= a <= a_max
    and 2 <= b <= leading_denominator_bound.

    b_max widens the sweep past the bound (useful to observe its soundness);
    a hit beyond the bound would falsify it and raises AssertionError.
    Results are ordered by (b, a).  A sweep of more than _MAX_SWEEP_POINTS
    points raises ResourceError before it starts.
    """
    if a_max < 1:
        raise DomainError("a_max must be >= 1")
    if b_max is not None and b_max < 2:
        raise DomainError("b_max must be >= 2")
    if poly.degree < 1:
        raise DomainError("polynomial must be non-constant")
    bound = leading_denominator_bound(poly.leading_coefficient)
    b_hi = bound if b_max is None else b_max
    points = a_max * (b_hi - 1)
    if points > _MAX_SWEEP_POINTS:
        raise ResourceError(
            f"sweep of a <= {number_text(a_max)}, 2 <= b <= {number_text(b_hi)} "
            f"has {number_text(points)} points, past the cap of "
            f"{number_text(_MAX_SWEEP_POINTS)} points"
        )
    hits: list[tuple[Fraction, Fraction]] = []
    for b in range(2, b_hi + 1):
        for a in range(1, a_max + 1):
            if gcd(a, b) != 1:
                continue
            verdict = analyze_poly_power(poly, Fraction(a, b))
            if verdict.rational is not None:
                if b > bound:
                    raise AssertionError(
                        f"rational value at denominator {b} contradicts the "
                        f"bound {bound} for leading coefficient "
                        f"{poly.leading_coefficient}"
                    )
                hits.append((Fraction(a, b), verdict.rational))
    return hits
