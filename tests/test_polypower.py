"""Rationality analysis of x^P(x): exact evaluation, power extraction,
the leading-coefficient denominator bound, and the bounded sweep."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpower import arith, polypower
from selfpower import (
    DomainError,
    IntPolynomial,
    ResourceError,
    analyze_poly_power,
    enumerate_rational_powers,
    equal_self_power_pair,
    eval_polynomial,
    leading_denominator_bound,
    minimal_polynomial_of_self_power,
    rational_power,
    zero_exponent_denominator_bound,
)

P_2X = IntPolynomial.from_coefficients((0, 2))
P_X = IntPolynomial.from_coefficients((0, 1))
P_X2_PLUS_1 = IntPolynomial.from_coefficients((1, 0, 1))
P_4X2 = IntPolynomial.from_coefficients((0, 0, 4))


def reference_eval_polynomial(poly, x):
    """Integer Horner one degree at a step over P's dense coefficients, zeros
    included: the evaluation eval_polynomial replaced, kept to check it
    against."""
    coeffs = [0] * (poly.degree + 1)
    for k, c in poly.terms:
        coeffs[k] = c
    a, b = x.numerator, x.denominator
    acc, b_power = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        b_power *= b
        acc = acc * a + c * b_power
    return Fraction(acc, b_power)


_COEFFICIENTS = st.integers(-(10**30), 10**30)
_POINTS = st.fractions(max_denominator=10**12).filter(lambda x: abs(x) < 10**12)
_DENSE = (
    st.lists(_COEFFICIENTS, min_size=1, max_size=40)
    .filter(lambda cs: cs[-1])
    .map(IntPolynomial.from_coefficients)
)
# a few nonzero terms at scattered degrees: long runs of zeros, at the
# constant end too
_SPARSE = st.dictionaries(
    st.integers(0, 400), _COEFFICIENTS.filter(bool), min_size=1, max_size=5
).map(lambda terms: IntPolynomial(tuple(sorted(terms.items(), reverse=True))))


class TestEvalPolynomial:
    def test_examples(self):
        assert eval_polynomial(P_2X, Fraction(1, 4)) == Fraction(1, 2)
        assert eval_polynomial(P_X2_PLUS_1, Fraction(2, 3)) == Fraction(13, 9)
        assert eval_polynomial(P_4X2, Fraction(3, 2)) == 9

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(
            lambda cs: cs[-1] != 0
        ),
        st.fractions(),
    )
    @settings(max_examples=200)
    def test_denominator_divides_power(self, coeffs, x):
        poly = IntPolynomial.from_coefficients(coeffs)
        value = eval_polynomial(poly, Fraction(x))
        b = Fraction(x).denominator
        assert b**poly.degree % value.denominator == 0
        # Horner over Fractions, the evaluation the integer one replaced
        reference = Fraction(0)
        for c in reversed(coeffs):
            reference = reference * x + c
        assert value == reference

    @given(st.one_of(_DENSE, _SPARSE), _POINTS)
    @settings(max_examples=300)
    def test_equals_the_one_step_horner_loop(self, poly, x):
        assert eval_polynomial(poly, x) == reference_eval_polynomial(poly, x)

    def test_value_past_the_bit_cap_is_refused_before_it_is_formed(self):
        # 65536 * 17 + 1 bits, refused before the first multiplication
        poly = IntPolynomial(((65536, 1), (0, 1)))
        with pytest.raises(ResourceError) as exc:
            eval_polynomial(poly, Fraction(99999, 99998))
        assert str(exc.value) == (
            "P(99999/99998) needs about 1114113 bits, past the bit cap of "
            "1048576 bits"
        )
        assert eval_polynomial(poly, Fraction(3, 2)) == Fraction(3, 2) ** 65536 + 1

    def test_the_one_bit_cap_reaches_every_refusal(self, monkeypatch):
        monkeypatch.setattr(arith, "BIT_CAP", 8)
        with pytest.raises(ResourceError, match="past the bit cap of 8 bits"):
            eval_polynomial(P_X2_PLUS_1, Fraction(17))
        with pytest.raises(ResourceError, match="past the bit cap of 8 bits"):
            rational_power(Fraction(4, 9), Fraction(9, 2))
        with pytest.raises(ResourceError, match="past the bit cap of 8 bits"):
            equal_self_power_pair(3)
        with pytest.raises(ResourceError, match="past the bit cap of 8 bits"):
            minimal_polynomial_of_self_power(5, 3)


class TestRationalPower:
    def test_examples(self):
        assert rational_power(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
        assert rational_power(Fraction(2), Fraction(1, 2)) is None
        assert rational_power(Fraction(8, 27), Fraction(-2, 3)) == Fraction(9, 4)
        assert rational_power(Fraction(5, 3), Fraction(0)) == 1

    def test_base_one_is_one_at_any_exponent(self):
        # 1^p = 1 whatever the size of p, so no bit-cap estimate applies
        assert rational_power(Fraction(1), Fraction(2000001)) == 1
        assert rational_power(Fraction(1), Fraction(-(2**40), 3)) == 1

    def test_rejects_nonpositive_base(self):
        with pytest.raises(DomainError):
            rational_power(Fraction(-4, 9), Fraction(1, 2))

    def test_bit_cap_refusal_names_the_cap(self):
        with pytest.raises(ResourceError) as exc:
            rational_power(Fraction(2), Fraction(2**21))
        assert str(exc.value) == (
            "2**2097152 needs about 2097153 bits, past the bit cap of 1048576 bits"
        )

    def test_powers_of_two_up_to_the_cap_are_answered(self):
        # 2^p has p + 1 bits, so p = 2^20 - 1 is the last exponent inside
        assert rational_power(Fraction(2), Fraction(600000)) == 2**600000
        assert rational_power(Fraction(1, 2), Fraction(2**20 - 1)) == Fraction(1, 2 ** (2**20 - 1))
        with pytest.raises(ResourceError, match="about 1048577 bits"):
            rational_power(Fraction(2), Fraction(2**20))

    def test_bit_cap_estimate_is_within_a_bit(self):
        # values past the cap, where |p| times the root's bit length is about
        # 1.5 times it: the estimate in the text is the bit length of the
        # larger of numerator and denominator, or one more
        cases = [(3, 1), (1, 3), (5, 7), (10, 1), (2**61 - 1, 2), (3**40, 5**30), (7, 2**17)]
        for u, v in cases:
            root = max(u, v)
            p = 3 * arith.BIT_CAP // (2 * root.bit_length()) + 1
            with pytest.raises(ResourceError) as exc:
                rational_power(Fraction(u, v), Fraction(p))
            estimate = int(str(exc.value).split(" about ")[1].split(" bits")[0])
            true_bits = (root**p).bit_length()
            assert true_bits <= estimate <= true_bits + 1, (u, v, estimate, true_bits)

    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(-8, 8),
        st.integers(1, 5),
    )
    @settings(max_examples=300)
    def test_value_satisfies_power_identity(self, u, v, p, q):
        base = Fraction(u, v)
        exponent = Fraction(p, q)
        value = rational_power(base, exponent)
        if value is not None:
            assert value > 0
            assert value ** exponent.denominator == base**exponent.numerator

    def test_oracle_agreement(self):
        mp.mp.dps = 50
        cases = [
            (Fraction(4, 9), Fraction(1, 2)),
            (Fraction(8, 27), Fraction(-2, 3)),
            (Fraction(27, 8), Fraction(4, 3)),
            (Fraction(16), Fraction(3, 4)),
        ]
        for base, exponent in cases:
            value = rational_power(base, exponent)
            assert value is not None
            got = mp.mpf(value.numerator) / value.denominator
            expected = mp.power(
                mp.mpf(base.numerator) / base.denominator,
                mp.mpf(exponent.numerator) / exponent.denominator,
            )
            assert abs(got - expected) < mp.mpf("1e-40") * max(1, abs(expected))


class TestAnalyzePolyPower:
    def test_examples(self):
        assert analyze_poly_power(P_2X, Fraction(1, 4)).rational == Fraction(1, 2)
        assert analyze_poly_power(P_X, Fraction(1, 2)).rational is None
        verdict = analyze_poly_power(IntPolynomial.from_coefficients((0, 0, 1)), Fraction(3))
        assert verdict.rational == 19683 and verdict.exponent == 9

    def test_zero_exponent_case(self):
        # P(x) = 0 forces the value 1 and den(x) <= |A|
        poly = IntPolynomial.from_coefficients((-1, 2))  # 2x - 1 vanishes at 1/2
        verdict = analyze_poly_power(poly, Fraction(1, 2))
        assert verdict.exponent == 0 and verdict.rational == 1
        assert Fraction(1, 2).denominator <= abs(poly.leading_coefficient)

    @given(
        st.integers(1, 9),
        st.integers(2, 9),
        st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(
            lambda cs: cs[-1] != 0
        ),
    )
    @settings(max_examples=150)
    def test_zero_exponent_invariant(self, a, b, q_coeffs):
        # plant a root: P = (b*x - a) * Q vanishes at x = a/b, so the verdict
        # is 1 and den(x) <= |leading(P)|
        from math import gcd as _gcd

        if _gcd(a, b) != 1:
            return
        root_factor = [-a, b]
        coeffs = [0] * (len(q_coeffs) + 1)
        for i, c in enumerate(root_factor):
            for j, d in enumerate(q_coeffs):
                coeffs[i + j] += c * d
        poly = IntPolynomial.from_coefficients(coeffs)
        verdict = analyze_poly_power(poly, Fraction(a, b))
        assert verdict.exponent == 0
        assert verdict.rational == 1
        assert b <= abs(poly.leading_coefficient)

    def test_requires_nonconstant(self):
        with pytest.raises(DomainError):
            analyze_poly_power(IntPolynomial.from_coefficients((3,)), Fraction(1, 2))

    def test_requires_positive_x(self):
        with pytest.raises(DomainError):
            analyze_poly_power(P_2X, Fraction(-1, 2))


class TestLeadingDenominatorBound:
    @pytest.mark.parametrize(
        "leading, expected",
        [(1, 1), (-1, 1), (2, 5), (-2, 5), (4, 23), (3, 14)],
    )
    def test_values(self, leading, expected):
        # 3|A|log2|A|: exactly 6 for |A| = 2 (strictly below -> 5) and exactly
        # 24 for |A| = 4 (-> 23); 14.26 for |A| = 3 (-> 14)
        assert leading_denominator_bound(leading) == expected

    def test_numeric_cross_check(self):
        # bound < v <= bound + 1 pins the bound to ceil(v) - 1; it feeds
        # `powsearch`'s JSON, so the enclosure it rounds must never move it
        mp.mp.dps = 50
        for a in range(2, 4097):
            bound = leading_denominator_bound(a)
            v = 3 * a * mp.log(a, 2)
            assert bound < v  # every returned b satisfies the strict inequality
            assert bound + 1 >= v  # and nothing below the bound is excluded

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            leading_denominator_bound(0)

    def test_zero_exponent_accessor(self):
        assert zero_exponent_denominator_bound(-7) == 7
        with pytest.raises(DomainError):
            zero_exponent_denominator_bound(0)


class TestEnumeration:
    def test_example_sweep(self):
        hits = enumerate_rational_powers(P_2X, 9)
        as_pairs = [(str(x), str(v)) for x, v in hits]
        assert ("1/2", "1/2") in as_pairs
        assert ("1/4", "1/2") in as_pairs
        assert ("3/2", "27/8") in as_pairs
        assert ("9/4", "19683/512") in as_pairs
        assert all(x.denominator in (2, 4) for x, _ in hits)

    def test_full_expected_hits(self):
        hits = enumerate_rational_powers(P_2X, 9)
        expected = [
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(3, 2), Fraction(27, 8)),
            (Fraction(5, 2), Fraction(3125, 32)),
            (Fraction(7, 2), Fraction(823543, 128)),
            (Fraction(9, 2), Fraction(387420489, 512)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(9, 4), Fraction(19683, 512)),
        ]
        assert hits == expected  # ordered by (b, a)

    def test_monic_polynomial_has_no_fractional_hits(self):
        assert enumerate_rational_powers(P_X2_PLUS_1, 60) == []

    def test_monic_widened_sweep_still_empty(self):
        assert enumerate_rational_powers(P_X2_PLUS_1, 25, b_max=25) == []

    @pytest.mark.parametrize("b_max", [1, 0, -5])
    def test_sweep_below_denominator_2_refused(self, b_max):
        # the sweep starts at b = 2; a smaller b_max would sweep nothing
        with pytest.raises(DomainError, match=r"^b_max must be >= 2$"):
            enumerate_rational_powers(P_2X, 9, b_max=b_max)
        assert enumerate_rational_powers(P_2X, 9, b_max=2) == [
            (x, v) for x, v in enumerate_rational_powers(P_2X, 9) if x.denominator == 2
        ]

    def test_quartic_example(self):
        hits = enumerate_rational_powers(P_4X2, 3)
        assert (Fraction(3, 2), Fraction(19683, 512)) in hits

    def test_hits_verify_exactly(self):
        for x, value in enumerate_rational_powers(P_2X, 30, b_max=15):
            exponent = eval_polynomial(P_2X, x)
            assert value**exponent.denominator == x**exponent.numerator

    def test_sweep_cap_refused_before_any_point(self, monkeypatch):
        def analyzed(poly, x):
            raise LookupError(f"analyzed {x}")

        monkeypatch.setattr(polypower, "analyze_poly_power", analyzed)
        with pytest.raises(ResourceError) as exc:
            enumerate_rational_powers(P_X, 5, b_max=10**11)
        assert str(exc.value) == (
            "sweep of a <= 5, 2 <= b <= 100000000000 has 499999999995 points, "
            "past the cap of 1048576 points"
        )
        with pytest.raises(ResourceError, match="4000000000000 points"):
            enumerate_rational_powers(P_2X, 10**12)
        # 2^10 * (2^10 + 1 - 1) points is the cap itself: the sweep starts
        with pytest.raises(LookupError):
            enumerate_rational_powers(P_X, 1 << 10, b_max=(1 << 10) + 1)
        with pytest.raises(ResourceError, match="1049600 points"):
            enumerate_rational_powers(P_X, 1 << 10, b_max=(1 << 10) + 2)
        # 997*x^2 + 1 up to a = 20: 20 * 29793 = 595860 points, answered
        with pytest.raises(LookupError):
            enumerate_rational_powers(IntPolynomial.from_coefficients((1, 0, 997)), 20)
