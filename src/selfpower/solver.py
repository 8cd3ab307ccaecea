"""Positive rational solutions of x^x = alpha, by two independent procedures.

The enumerative procedure scans integers until n^n >= alpha, then tests every
reduced fraction a/b with denominator up to the degree-driven bound.  The
divisor procedure works backwards from the binomial minimal polynomial
s*x^d - r: any solution a/b forces s = lam^a and b^d = lam^b for a common base
lam dividing s.  With s = base^k, k the gcd of the prime exponents of s, that
leaves a | k and b = base^j, a handful of candidates.  Both return the same
set; `solve` can cross-check them.

The module also generates and verifies the classical two-parameter families:
the pairs x = (m/(m+1))^m, y = (m/(m+1))^(m+1) solving x^x = y^y, and their
reciprocals solving x^y = y^x.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .arith import (
    Ordering,
    check_bit_cap,
    compare_self_power_to_root,
    factorize,
    integer_kth_root,
    ln_interval,
    floor_of_multiple_ln,
    powers_equal,
)
from .errors import DomainError, TargetShapeError, number_text
from .minpoly import (
    BinomialMinPoly,
    IntPolynomial,
    as_binomial,
    minimal_polynomial_of_self_power,
    power_gcd,
)


class AlgebraicTarget(BinomialMinPoly):
    """The right-hand side alpha of x^x = alpha, as its minimal polynomial:
    the irreducible binomial s*x^d - r, whose unique positive real root is
    alpha = (r/s)^(1/d).  A rational alpha = r/s is the case d = 1.  A
    reducible binomial becomes s^(1/g)*x^(d/g) - r^(1/g), g = power_gcd(r, s, d),
    with the same root: AlgebraicTarget(1, 2, 4) == (1, 1, 2)."""

    __slots__ = ()

    def __new__(cls, s: int, d: int, r: int):
        super().__new__(cls, s, d, r)  # checks s, d, r >= 1 and gcd(r, s) = 1
        g = power_gcd(r, s, d)
        # roots of the coprime r and s are coprime, so _make skips the check
        return cls._make((integer_kth_root(s, g), d // g, integer_kth_root(r, g)))

    @classmethod
    def from_rational(cls, q) -> "AlgebraicTarget":
        q = Fraction(q)
        if q <= 0:
            raise DomainError(f"alpha must be positive, got {number_text(q)}")
        # a reduced fraction is already a valid binomial s*x - r
        return cls._make((q.denominator, 1, q.numerator))

    @classmethod
    def from_binomial(cls, binomial: BinomialMinPoly) -> "AlgebraicTarget":
        return cls(*binomial)

    @classmethod
    def from_polynomial(cls, poly: IntPolynomial) -> "AlgebraicTarget":
        # c*P and P share their roots: divide out the content, as the text of
        # a rational is reduced; a constant P has no root at all
        content = gcd(*(c for _, c in poly.terms))
        if content > 1:
            poly = IntPolynomial(tuple((k, c // content) for k, c in poly.terms))
        binomial = as_binomial(poly) if poly.degree else None
        if binomial is None:
            raise TargetShapeError(
                "alpha must be the positive root of a binomial s*x^d - r with "
                "r, s >= 1; other polynomial shapes are not supported"
            )
        return cls.from_binomial(binomial)


class SolutionSet(namedtuple("SolutionSet", "solutions scan_count")):
    """All positive rational solutions (at most two), plus the test count."""

    __slots__ = ()

    def __new__(cls, solutions: tuple[Fraction, ...], scan_count: int):
        if len(solutions) > 2:
            raise AssertionError(
                "x -> x^x has at most two preimages; got "
                f"{[str(x) for x in solutions]}"
            )
        if list(solutions) != sorted(set(solutions)):
            raise AssertionError("solutions must be sorted and distinct")
        return super().__new__(cls, solutions, scan_count)


def integer_scan(target: AlgebraicTarget) -> tuple[int | None, int]:
    """Scan n = 1, 2, ... until n^n >= alpha, each step an exact comparison.

    Returns (n, N) when n^n = alpha exactly, else (None, N), with N the number
    of integers tested; N never exceeds max(3, 1 + ceil(ln alpha)).
    """
    s, d, r = target
    n = 1
    while True:
        c = compare_self_power_to_root(Fraction(n), d, r, s)
        if c is Ordering.EQUAL:
            found, count = n, n
            break
        if c is Ordering.GREATER:
            found, count = None, n
            break
        n += 1
    if count > max(3, 1 + _ceil_ln_alpha_upper(d, r, s)):
        raise AssertionError(f"integer scan ran {count} steps, past its proven bound")
    return found, count


def _ceil_ln_alpha_upper(d: int, r: int, s: int) -> int:
    # rigorous upper bound for ceil(ln alpha), alpha = (r/s)^(1/d)
    prec = 96
    _, r_hi = ln_interval(r, prec)
    s_lo, _ = ln_interval(s, prec)
    return -((s_lo - r_hi) // (d << prec))


def denominator_bound(d: int) -> int:
    """Denominator bound for solutions when alpha has degree d.

    1 when d = 1 (rational alpha admits only integer solutions); otherwise
    floor(4*d*ln d) with the logarithm rounded upward, so the bound is never
    undercounted.
    """
    if d < 1:
        raise DomainError("degree must be >= 1")
    if d == 1:
        return 1
    return floor_of_multiple_ln(4 * d, d)


def solve_enumerative(target: AlgebraicTarget) -> SolutionSet:
    """All solutions by exhaustive exact testing.

    Integer scan first; when alpha has degree d > 1, every reduced a/b with
    2 <= b <= denominator_bound(d) and 1 <= a <= N*b is tested exactly.
    """
    found, count = integer_scan(target)
    solutions = [] if found is None else [Fraction(found)]
    s, d, r = target
    if d > 1:
        bound = denominator_bound(d)
        hits, tested = _scan_denominators(d, count, bound, r, s)
        count += tested
        for a, b in hits:
            x = Fraction(a, b)
            if compare_self_power_to_root(x, d, r, s) is not Ordering.EQUAL:
                raise AssertionError(f"scan hit {x} fails the exact recheck")
            solutions.append(x)
    return SolutionSet(tuple(sorted(solutions)), count)


def _scan_denominators(
    d: int, n_mult: int, b_hi: int, r: int, s: int
) -> tuple[list[tuple[int, int]], int]:
    """Every reduced a/b with 2 <= b <= b_hi, 1 <= a <= n_mult*b and
    (a/b)^(a/b) = (r/s)^(1/d), i.e. a^(a*d) = r^b and b^(a*d) = s^b.

    Returns (hits, tested): the solutions (a, b) in scan order and the number
    of candidates covered, n_mult * (phi(2) + ... + phi(b_hi)).  Both equations
    need the bit-length windows of their sides to overlap; for fixed b each
    window is monotone in a, so only the a inside both windows are visited.
    Those get the gcd check and the exact power tests.
    """
    hits: list[tuple[int, int]] = []
    bl_r = r.bit_length()
    bl_s = s.bit_length()
    _gcd = gcd
    _powers_equal = powers_equal
    for b in range(2, b_hi + 1):
        bl_b = b.bit_length()
        # b^(a*d) vs s^b: a*d*(bl_b - 1) < b*bl_s and b*(bl_s - 1) < a*d*bl_b
        lo = b * (bl_s - 1) // (d * bl_b) + 1
        hi = min(n_mult * b, (b * bl_s - 1) // (d * (bl_b - 1)))
        # a^(a*d) vs r^b, for the a of bit length k:
        # a*d*(k - 1) < b*bl_r and b*(bl_r - 1) < a*d*k
        for k in range(lo.bit_length(), hi.bit_length() + 1):
            a_lo = max(lo, 1 << (k - 1), b * (bl_r - 1) // (k * d) + 1)
            a_hi = min(hi, (1 << k) - 1)
            if k > 1:
                a_hi = min(a_hi, (b * bl_r - 1) // ((k - 1) * d))
            for a in range(a_lo, a_hi + 1):
                if _gcd(a, b) != 1:
                    continue
                e = a * d
                if _powers_equal(a, e, r, b) and _powers_equal(b, e, s, b):
                    hits.append((a, b))
    tested = n_mult * (_totient_sum(b_hi) - 1) if b_hi > 1 else 0
    return hits, tested


def _totient_sum(n: int) -> int:
    """phi(1) + ... + phi(n), from sum over k <= n of Phi(n // k) = n(n+1)/2.

    n // k takes O(sqrt n) distinct values; grouping equal quotients and
    memoising them costs O(n^(3/4)) steps and no table of phi.
    """

    @cache
    def phi_sum(m: int) -> int:
        total = m * (m + 1) // 2
        k = 2
        while k <= m:
            k_next = m // (m // k) + 1
            total -= (k_next - k) * phi_sum(m // k)
            k = k_next
        return total

    return phi_sum(n)


def solve_by_divisors(binomial: BinomialMinPoly) -> SolutionSet:
    """All solutions of x^x = (r/s)^(1/d), working backwards from s*x^d - r.

    A solution a/b forces a common base lam | s with lam^a = s and b^d = lam^b.
    Write s = base^k with k the gcd of the prime exponents of s; base is then
    not a perfect power, so lam^a = s holds exactly for a | k, lam =
    base^(k/a).  With m = k/a, b^d = base^(m*b) forces b = base^j with
    j*d = m*b, so the candidate denominators are the powers of base up to
    denominator_bound(d).  Each candidate is confirmed against the
    reconstructed minimal polynomial.

    scan_count is the number of candidates covered: the divisors lam > 1 of s,
    plus every 2 <= b <= bound for each of the tau(k) exponents a.  A binomial
    that is no AlgebraicTarget is reduced to one first.
    """
    if not isinstance(binomial, AlgebraicTarget):
        binomial = AlgebraicTarget.from_binomial(binomial)
    s, d, r = binomial
    if s == 1:
        if d == 1:
            # alpha = r is a positive integer; only integer solutions exist
            return solve_enumerative(AlgebraicTarget.from_rational(r))
        # alpha is an algebraic integer of degree >= 2: solutions would be
        # integers, whose self-powers have degree 1
        return SolutionSet((), 0)
    s_factors = factorize(s)
    k = 0
    n_divisors = 1
    for _, e in s_factors:
        k = gcd(k, e)
        n_divisors *= e + 1
    base = 1
    for p, e in s_factors:
        base *= p ** (e // k)
    bound = denominator_bound(d)
    exponents = _divisors(k)
    found: list[Fraction] = []
    for a in exponents:
        m = k // a
        b, j = base, 1
        while b <= bound:
            if (
                j * d == m * b
                and gcd(a, b) == 1
                and minimal_polynomial_of_self_power(a, b) == binomial
            ):
                found.append(Fraction(a, b))
            b *= base
            j += 1
    tested = (n_divisors - 1) + len(exponents) * (bound - 1)
    return SolutionSet(tuple(sorted(found)), tested)


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, in O(sqrt n) trial divisions."""
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def solve(target: AlgebraicTarget, cross_check: bool = False) -> SolutionSet:
    """Solve x^x = alpha: enumeration when alpha is rational (d = 1), the
    divisor procedure otherwise; cross_check runs both and insists they agree."""
    if target.d == 1:
        return solve_enumerative(target)
    result = solve_by_divisors(target)
    if cross_check:
        other = solve_enumerative(target)
        if other.solutions != result.solutions:
            raise AssertionError(
                f"solution procedures disagree: divisors {result.solutions} "
                f"vs enumeration {other.solutions}"
            )
    return result


# ---------------------------------------------------------------------------
# the x^x = y^y and x^y = y^x families
# ---------------------------------------------------------------------------


def equal_self_power_pair(m: int) -> tuple[Fraction, Fraction]:
    """The m-th pair x = (m/(m+1))^m, y = (m/(m+1))^(m+1) with x^x = y^y."""
    if m < 1:
        raise DomainError("m must be >= 1")
    bits = (m + 1) * (m + 1).bit_length()
    check_bit_cap(bits, "pair components for m = {} need", m)
    base = Fraction(m, m + 1)
    return base**m, base ** (m + 1)


def commuting_pair(m: int) -> tuple[Fraction, Fraction]:
    """The m-th pair with x^y = y^x: the reciprocals of equal_self_power_pair."""
    x, y = equal_self_power_pair(m)
    return 1 / x, 1 / y


def _pair_exponents(x: Fraction, y: Fraction) -> tuple[int, int]:
    """(a*d, c*b) divided by their gcd, for positive x = a/b and y = c/d in
    lowest terms, without forming either product.

    With g = gcd(a, c) and h = gcd(b, d), a*d = g*h * (a/g)*(d/h) and
    c*b = g*h * (c/g)*(b/h).  The two cofactors are coprime: a/g and c/g by
    the choice of g, d/h and b/h by that of h, and a/g and b/h, c/g and d/h
    because x and y are reduced.
    """
    if x <= 0 or y <= 0:
        raise DomainError("x and y must be positive")
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    g, h = gcd(a, c), gcd(b, d)
    return a // g * (d // h), c // g * (b // h)


def verify_equal_self_powers(x: Fraction, y: Fraction) -> bool:
    """Exact truth of x^x = y^y: both sides raised to den(x)*den(y)."""
    p, q = _pair_exponents(x, y)
    return powers_equal(x.numerator, p, y.numerator, q) and powers_equal(
        x.denominator, p, y.denominator, q
    )


def verify_commuting(x: Fraction, y: Fraction) -> bool:
    """Exact truth of x^y = y^x: both sides raised to den(x)*den(y)."""
    p, q = _pair_exponents(x, y)
    return powers_equal(x.numerator, q, y.numerator, p) and powers_equal(
        x.denominator, q, y.denominator, p
    )
