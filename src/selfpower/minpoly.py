"""Minimal polynomials of self-powers (a/b)^(a/b), and binomial shape checks.

The minimal polynomial over the integers of (a/b)^(a/b), for coprime positive
a and b, is always a binomial s*x^d - r; this module constructs it in closed
form from the perfect-power exponents of a and b (the largest k with
n = root^k, the gcd of n's prime exponents, found without factoring n),
recognises the binomial shape in a general integer polynomial, and decides
irreducibility of positive binomials by the classical prime-power criterion,
which factors only the degree d.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .arith import _as_perfect_power, check_bit_cap, factorize, integer_kth_root
from .errors import DomainError, number_text


class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """Dense integer polynomial; coeffs[k] is the coefficient of x^k."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if not coeffs:
            raise DomainError("empty polynomial")
        if coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1]

    @staticmethod
    def from_coefficients(coeffs) -> "IntPolynomial":
        """Build from an iterable, stripping trailing zero coefficients."""
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))


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


def minimal_polynomial_of_self_power(a: int, b: int) -> BinomialMinPoly:
    """Minimal polynomial of (a/b)^(a/b) over the integers, for coprime a, b >= 1.

    With k_n the largest k for which n is a perfect k-th power (the gcd of
    n's prime exponents) and g = gcd(b, k_a, k_b), the result is
    s = (b^(1/g))^a, d = b/g, r = (a^(1/g))^a.  g divides k_a and k_b, so
    both roots are integers; no prime factorization is needed.
    """
    if a < 1 or b < 1:
        raise DomainError("need a, b >= 1")
    if gcd(a, b) != 1:
        raise DomainError(
            f"a and b must be coprime, got gcd({number_text(a)}, {number_text(b)}) != 1"
        )
    g = b
    for n in (a, b):  # the input 1 contributes nothing
        if n > 1 and g > 1:
            g = gcd(g, _as_perfect_power(n, 1)[1])
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
    must be 1 (a non-primitive polynomial is never minimal) and every middle
    coefficient zero.  Returns None when the shape does not match.
    """
    if poly.degree < 1:
        raise DomainError("as_binomial requires a non-constant polynomial")
    coeffs = poly.coeffs
    # with no middle term the content is that of the two outer ones
    if any(coeffs[1:-1]) or gcd(coeffs[0], coeffs[-1]) != 1:
        return None
    s, r = coeffs[-1], -coeffs[0]
    if s < 0:
        s, r = -s, -r
    if r <= 0:
        return None
    return BinomialMinPoly(s=s, d=len(coeffs) - 1, r=r)


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
