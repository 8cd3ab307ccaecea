"""Minimal polynomials of self-powers (a/b)^(a/b), and binomial shape checks.

The minimal polynomial over the integers of (a/b)^(a/b), for coprime positive
a and b, is always a binomial s*x^d - r; this module constructs it in closed
form, and reduces any positive binomial v*x^q - u to the minimal polynomial
v^(1/g)*x^(q/g) - u^(1/g) of its positive root (Capelli's criterion), both
with g = power_gcd(u, v, q), read off perfect-power exponents, no factoring.
It recognises the binomial shape in an integer polynomial, held as its
nonzero terms so that x^65536 - 3 is two of them, and keeps the prime-power
irreducibility test, which factors the degree d, as a reference.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .arith import _as_perfect_power, check_bit_cap, factorize, integer_kth_root
from .errors import DomainError, number_text


class IntPolynomial(namedtuple("IntPolynomial", "terms")):
    """Sparse integer polynomial: its nonzero terms (degree, coefficient),
    degrees strictly decreasing, so terms[0] is the leading term."""

    __slots__ = ()

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
    """The binomial s*x^d - r with s, d, r >= 1 and gcd(r, s) = 1.

    This is the only minimal-polynomial shape that admits rational solutions
    of x^x = alpha; its unique positive real root is (r/s)^(1/d).
    """

    __slots__ = ()

    def __new__(cls, s: int, d: int, r: int):
        if s < 1 or d < 1 or r < 1:
            raise DomainError("binomial needs s, d, r >= 1")
        if gcd(r, s) != 1:
            raise DomainError(
                f"gcd(r, s) must be 1, got gcd({number_text(r)}, "
                f"{number_text(s)})"
            )
        return super().__new__(cls, s, d, r)


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
    # already; _make skips the constructor's check, whose gcd of the two
    # powers costs more than computing them
    return BinomialMinPoly._make((s, b // g, r))


def as_binomial(poly: IntPolynomial) -> BinomialMinPoly | None:
    """Recognise s*x^d - r in a non-constant integer polynomial.

    The sign is normalised so the leading coefficient is positive; the content
    must be 1 (a non-primitive polynomial is never minimal) and P must have
    exactly two terms, the lower at degree 0.  Returns None when the shape
    does not match.
    """
    if poly.degree < 1:
        raise DomainError("as_binomial requires a non-constant polynomial")
    if len(poly.terms) != 2:
        return None
    (d, s), (k, c) = poly.terms
    # with no middle term the content is that of the two outer ones; s*x^d - r
    # with s, r >= 1 has outer coefficients of opposite signs
    if k or gcd(s, c) != 1 or (s > 0) == (c > 0):
        return None
    return BinomialMinPoly(s=abs(s), d=d, r=abs(c))


def is_irreducible_binomial(binomial: BinomialMinPoly) -> bool:
    """Irreducibility of s*x^d - r over the rationals.

    The classical criterion for x^d - c: reducible exactly when c is a p-th
    power for some prime p dividing d, or when 4 | d and c = -4*h^4.  Here
    c = r/s > 0, so the second case cannot arise, and c is a p-th power
    exactly when both r and s are.
    """
    for p, _ in factorize(binomial.d):
        if (
            integer_kth_root(binomial.r, p) is not None
            and integer_kth_root(binomial.s, p) is not None
        ):
            return False
    return True
