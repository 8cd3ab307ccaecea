"""Minimal polynomials of self-powers: closed form, shape recognition,
irreducibility, and the denominator bounds they satisfy."""

from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from selfpower import (
    BinomialMinPoly,
    DomainError,
    IntPolynomial,
    Ordering,
    ResourceError,
    as_binomial,
    compare_self_power_to_root,
    degree_of_self_power,
    factorize,
    is_irreducible_binomial,
    minimal_polynomial_of_self_power,
)


class TestMinimalPolynomial:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (1, 2, (2, 2, 1)),
            (1, 1, (1, 1, 1)),
            (2, 3, (9, 3, 4)),
            (8, 27, (6561, 9, 256)),  # g = gcd(27, 3, 3) = 3
            (5, 1, (1, 1, 3125)),
            (4, 9, (6561, 9, 256)),  # shares its polynomial with (8, 27)
        ],
    )
    def test_examples(self, a, b, expected):
        binomial = minimal_polynomial_of_self_power(a, b)
        assert (binomial.s, binomial.d, binomial.r) == expected

    def test_requires_coprime(self):
        with pytest.raises(DomainError):
            minimal_polynomial_of_self_power(2, 4)

    def test_bit_cap_refusal_names_the_cap(self):
        with pytest.raises(ResourceError) as exc:
            minimal_polynomial_of_self_power(1_000_001, 1000)
        assert str(exc.value) == (
            "minimal polynomial of (1000001/1000)^(1000001/1000) needs about "
            "30000060 bits, past the bit cap of 1048576 bits"
        )

    def test_root_check_numeric_oracle(self):
        mp.mp.dps = 50
        for a in range(1, 13):
            for b in range(1, 13):
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
                x = mp.mpf(a) / b
                y = x**x
                residual = binomial.s * y**binomial.d - binomial.r
                scale = max(binomial.r, binomial.s)
                assert abs(residual) < mp.mpf("1e-30") * scale, (a, b)

    def test_root_check_exact(self):
        for a in range(1, 21):
            for b in range(1, 21):
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
                order = compare_self_power_to_root(
                    Fraction(a, b), binomial.d, binomial.r, binomial.s
                )
                assert order is Ordering.EQUAL, (a, b)

    def test_structure_properties(self):
        for a in range(1, 26):
            for b in range(1, 26):
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
                d = degree_of_self_power(a, b)
                assert d == binomial.d
                assert b % d == 0
                g = b // d
                for _, e in factorize(a) + factorize(b):
                    assert e % g == 0
                assert is_irreducible_binomial(binomial), (a, b)

    def test_degree_examples(self):
        assert degree_of_self_power(1, 2) == 2
        assert degree_of_self_power(5, 1) == 1
        assert degree_of_self_power(8, 27) == 9


class TestDenominatorBoundsSoundness:
    def test_degree_vs_denominator(self):
        # b ln 2 <= d ln b, i.e. 2^b <= b^d, for every coprime pair; strict
        # b < 4 d ln d as well (subset here, the full grid in acceptance)
        mp.mp.dps = 40
        for b in range(2, 60):
            for a in range(1, 21):
                if gcd(a, b) != 1:
                    continue
                d = degree_of_self_power(a, b)
                assert 2**b <= b**d, (a, b, d)
                assert b < 4 * d * mp.ln(d), (a, b, d)

    def test_equality_attained_at_one_half(self):
        d = degree_of_self_power(1, 2)
        assert d == 2
        assert 2**2 == 2**d  # b ln 2 = d ln b exactly at (a, b) = (1, 2)


class TestAsBinomial:
    def test_examples(self):
        p = IntPolynomial((-1, 0, 2))
        assert as_binomial(p) == BinomialMinPoly(s=2, d=2, r=1)
        assert as_binomial(IntPolynomial((1, 0, 1))) is None  # x^2 + 1
        assert as_binomial(IntPolynomial((-2, 0, 4))) is None  # content 2

    def test_sign_normalisation(self):
        assert as_binomial(IntPolynomial((1, 0, -2))) == BinomialMinPoly(2, 2, 1)

    def test_middle_coefficients(self):
        assert as_binomial(IntPolynomial((-1, 1, 2))) is None

    def test_zero_constant(self):
        assert as_binomial(IntPolynomial((0, 2))) is None

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            as_binomial(IntPolynomial((5,)))

    def test_round_trip_with_minpoly(self):
        binomial = minimal_polynomial_of_self_power(3, 4)
        assert as_binomial(binomial.as_polynomial()) == binomial


class TestIrreducibility:
    @pytest.mark.parametrize(
        "s, d, r, expected",
        [
            (2, 2, 1, True),
            (1, 2, 4, False),  # x^2 - 4 = (x - 2)(x + 2)
            (6561, 9, 256, True),  # 256 is not a cube
            (1, 4, 16, False),  # x^4 - 16
            (8, 2, 27, True),  # neither 8 nor 27 is a square
        ],
    )
    def test_examples(self, s, d, r, expected):
        assert is_irreducible_binomial(BinomialMinPoly(s, d, r)) is expected

    def test_both_sides_must_be_powers(self):
        # 4x^2 - 9 has rational root 3/2: both 4 and 9 are squares
        assert is_irreducible_binomial(BinomialMinPoly(4, 2, 9)) is False
        # 4x^2 - 5: 5 is not a square
        assert is_irreducible_binomial(BinomialMinPoly(4, 2, 5)) is True

    def test_degree_one_always_irreducible(self):
        assert is_irreducible_binomial(BinomialMinPoly(7, 1, 3)) is True


class TestBinomialValidation:
    def test_gcd_requirement(self):
        with pytest.raises(DomainError):
            BinomialMinPoly(s=4, d=2, r=2)

    def test_positivity(self):
        with pytest.raises(DomainError):
            BinomialMinPoly(s=0, d=1, r=1)

    def test_as_polynomial(self):
        assert BinomialMinPoly(9, 3, 4).as_polynomial() == IntPolynomial((-4, 0, 0, 9))

    def test_rational_root_view(self):
        assert BinomialMinPoly(2, 1, 3).root_as_rational() == Fraction(3, 2)
        assert BinomialMinPoly(2, 2, 1).root_as_rational() is None
