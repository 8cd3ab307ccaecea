"""Minimal polynomials of self-powers (a/b)^(a/b), and the one record of alpha.

The minimal polynomial over the integers of (a/b)^(a/b), for coprime positive
a and b, is always a binomial s*x^d - r, constructed here in closed form.
BinomialMinPoly, also named AlgebraicTarget, holds it and reduces any positive
binomial v*x^q - u it is built from to the minimal polynomial
v^(1/g)*x^(q/g) - u^(1/g) of its positive root (Capelli's criterion).  Both
use g = power_gcd(u, v, q), read off perfect-power exponents, no factoring.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .arith import _as_perfect_power, check_bit_cap, factorize, integer_kth_root
from .errors import DomainError, TargetShapeError, number_text


def _checked_make(cls, fields):
    """A record's _make, and so _replace, through its constructor's checks."""
    return cls(*fields)


class IntPolynomial(namedtuple("IntPolynomial", "terms")):
    """Sparse integer polynomial: its nonzero terms (degree, coefficient),
    degrees strictly decreasing, so terms[0] is the leading term."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, terms: tuple[tuple[int, int], ...]):
        if not terms:
            raise DomainError("empty polynomial")
        above = terms[0][0] + 1
        for k, c in terms:
            if k >= above:
                raise DomainError("degrees must strictly decrease")
            if not c:
                raise DomainError(f"zero coefficient at degree {number_text(k)}")
            above = k
        if above < 0:
            raise DomainError("degrees must be nonnegative")
        return super().__new__(cls, terms)

    @property
    def degree(self) -> int:
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> int:
        return self.terms[0][1]

    @staticmethod
    def from_coefficients(coeffs) -> "IntPolynomial":
        """Build from dense coefficients, coeffs[k] that of x^k, dropping zeros."""
        terms = [(k, c) for k, c in enumerate(coeffs) if c]
        return IntPolynomial(tuple(reversed(terms)))


class BinomialMinPoly(namedtuple("BinomialMinPoly", "s d r")):
    """The minimal polynomial s*x^d - r, s, d, r >= 1 and gcd(r, s) = 1, of
    alpha = (r/s)^(1/d), the only shape that admits rational solutions of
    x^x = alpha; d = 1 is a rational alpha.  A reducible binomial is built as
    s^(1/g)*x^(d/g) - r^(1/g), g = power_gcd(r, s, d), which has the same
    positive root: BinomialMinPoly(4, 2, 9) == (2, 1, 3)."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, s: int, d: int, r: int):
        if s < 1 or d < 1 or r < 1:
            raise DomainError("binomial needs s, d, r >= 1")
        if gcd(r, s) != 1:
            raise DomainError(
                f"gcd(r, s) must be 1, got gcd({number_text(r)}, "
                f"{number_text(s)})"
            )
        g = power_gcd(r, s, d)
        # g-th roots of the coprime r and s are coprime and reduce no further
        s, r = integer_kth_root(s, g), integer_kth_root(r, g)
        return tuple.__new__(cls, (s, d // g, r))

    @classmethod
    def from_rational(cls, q) -> "BinomialMinPoly":
        q = Fraction(q)
        if q <= 0:
            raise DomainError(f"alpha must be positive, got {number_text(q)}")
        # a reduced fraction is already the minimal polynomial s*x - r
        return tuple.__new__(cls, (q.denominator, 1, q.numerator))

    @classmethod
    def from_binomial(cls, binomial: tuple[int, int, int]) -> "BinomialMinPoly":
        return binomial if isinstance(binomial, cls) else cls._make(binomial)

    @classmethod
    def from_polynomial(cls, poly: IntPolynomial) -> "BinomialMinPoly":
        # c*(s*x^d - r) for an integer c != 0 has the roots of s*x^d - r, as
        # the text of a rational is reduced; a constant has no root at all
        if len(poly.terms) == 2:
            (d, s), (k, c) = poly.terms
            if not k and (s > 0) != (c > 0):  # outer terms of opposite signs
                content = gcd(s, c)
                return cls(abs(s) // content, d, abs(c) // content)
        raise TargetShapeError(
            "alpha must be the positive root of a binomial s*x^d - r with "
            "r, s >= 1; other polynomial shapes are not supported"
        )


#: The right-hand side alpha of x^x = alpha is its minimal polynomial.
AlgebraicTarget = BinomialMinPoly


def power_gcd(u: int, v: int, q: int) -> int:
    """gcd(q, k_u, k_v) for u, v, q >= 1, k_n the largest k with n a perfect
    k-th power (k_1 = 0): the largest g | q with u and v g-th powers.  The
    smaller operand goes first; the larger is tried only at primes p | g, and
    only while g fits 64 bits, where g % p is cheap for every trial prime p."""
    for n in sorted((u, v)):  # q shrinks to g; 1 is a g-th power for every g
        if n > 1 and q > 1:
            q = gcd(q, _as_perfect_power(n, 1, 0 if q >> 64 else q)[1])
    return q


def minimal_polynomial_of_self_power(a: int, b: int) -> BinomialMinPoly:
    """Minimal polynomial of (a/b)^(a/b) over the integers, for coprime a, b >= 1.

    With k_n the largest k for which n is a perfect k-th power (the gcd of
    n's prime exponents) and g = gcd(b, k_a, k_b) = power_gcd(a, b, b), it
    is s = (b^(1/g))^a, d = b/g, r = (a^(1/g))^a.  g divides k_a and k_b, so
    both roots are integers; no prime factorization is needed.
    """
    if a < 1 or b < 1:
        raise DomainError("need a, b >= 1")
    if gcd(a, b) != 1:
        raise DomainError(
            f"a and b must be coprime, got gcd({number_text(a)}, {number_text(b)}) != 1"
        )
    g = power_gcd(a, b, b)
    bits = (a // g + 1) * (b.bit_length() + a.bit_length())
    check_bit_cap(bits, "minimal polynomial of ({0}/{1})^({0}/{1}) needs", a, b)
    s = integer_kth_root(b, g) ** a
    r = integer_kth_root(a, g) ** a
    # r and s are powers of the coprime a and b, so gcd(r, s) = 1 holds
    # already, and g leaves no reduction: the record skips the constructor,
    # whose gcd of the two powers costs more than computing them
    return tuple.__new__(BinomialMinPoly, (s, b // g, r))


def is_irreducible_binomial(binomial: tuple[int, int, int]) -> bool:
    """Irreducibility of s*x^d - r over the rationals, for any positive
    (s, d, r); every BinomialMinPoly is.  It stays only because the
    benchmark's tracer wraps it (ROADMAP item 1a).

    The classical criterion for x^d - c: reducible exactly when c is a p-th
    power for some prime p dividing d, or when 4 | d and c = -4*h^4.  Here
    c = r/s > 0, so the second case cannot arise, and c is a p-th power
    exactly when both r and s are.
    """
    s, d, r = binomial
    for p, _ in factorize(d):
        if integer_kth_root(r, p) is not None and integer_kth_root(s, p) is not None:
            return False
    return True
