"""Minimal polynomials of self-powers: closed form, shape recognition,
irreducibility, and the denominator bounds they satisfy."""

import random
from fractions import Fraction
from functools import cache
from math import gcd

import mpmath as mp
import pytest

from selfpower import arith, minpoly
from selfpower import (
    BinomialMinPoly,
    DomainError,
    IntPolynomial,
    Ordering,
    ResourceError,
    as_binomial,
    compare_self_power_to_root,
    factorize,
    is_irreducible_binomial,
    minimal_polynomial_of_self_power,
)


#: IntPolynomial from its coefficients, constant first
dense = IntPolynomial.from_coefficients


def reference_exponent_gcd(a, b):
    """g = gcd(b, every prime exponent of a and of b), from factorizations."""
    if a < 1 or b < 1:
        raise DomainError("need a, b >= 1")
    if gcd(a, b) != 1:
        raise DomainError("a and b must be coprime")
    g = b
    for _, e in factorize(a) + factorize(b):
        g = gcd(g, e)
    return g


def reference_minimal_polynomial(a, b):
    """The construction from prime factorizations: s and r as products of
    prime powers q^(e/g * a), refused past the same bit-cap estimate."""
    g = reference_exponent_gcd(a, b)
    est_bits = (a // g + 1) * (b.bit_length() + a.bit_length())
    if est_bits > arith.BIT_CAP:
        ab = f"{a}/{b}"
        raise ResourceError(
            f"minimal polynomial of ({ab})^({ab}) needs about {est_bits} bits, "
            f"past the bit cap of {arith.BIT_CAP} bits"
        )
    s = r = 1
    for q, e in factorize(b):
        s *= q ** (e // g * a)
    for p, e in factorize(a):
        r *= p ** (e // g * a)
    return BinomialMinPoly(s=s, d=b // g, r=r)


def _outcome(construct, a, b):
    """(s, d, r), or the text of the ResourceError the construction raised."""
    try:
        binomial = construct(a, b)
    except ResourceError as exc:
        return str(exc)
    return binomial.s, binomial.d, binomial.r


def _coprime_grid():
    return [(a, b) for a in range(1, 150) for b in range(1, 150) if gcd(a, b) == 1]


@cache
def _seeded_power_pairs():
    """3000 coprime pairs (base_a^i, base_b^j), 0 <= i, j <= 12; the bases
    include perfect powers, so exponents nest."""
    rng = random.Random(2024)
    pairs = []
    while len(pairs) < 3000:
        a = rng.randrange(2, 60) ** rng.randrange(0, 13)
        b = rng.randrange(2, 60) ** rng.randrange(0, 13)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    return tuple(pairs)


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
                d = binomial.d
                assert b % d == 0
                g = b // d
                for _, e in factorize(a) + factorize(b):
                    assert e % g == 0
                assert is_irreducible_binomial(binomial), (a, b)

    def test_result_passes_the_checked_constructor(self):
        # the result skips BinomialMinPoly's gcd(r, s) check; the checked
        # constructor accepts the same fields and builds an equal record
        for a in range(1, 60):
            for b in range(1, 60):
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
                assert type(binomial) is BinomialMinPoly
                checked = BinomialMinPoly(s=binomial.s, d=binomial.d, r=binomial.r)
                assert binomial == checked, (a, b)
                assert repr(binomial) == repr(checked)

    def test_degree_examples(self):
        assert minimal_polynomial_of_self_power(1, 2).d == 2
        assert minimal_polynomial_of_self_power(5, 1).d == 1
        assert minimal_polynomial_of_self_power(8, 27).d == 9


class TestAgainstFactorization:
    """The closed form from perfect-power exponents against the one from
    prime factorizations it replaced."""

    @pytest.fixture
    def small_bit_cap(self, monkeypatch):
        # at the real cap an answer near it costs both constructions ~0.5 s;
        # at 2^16 bits every answer is small and many pairs meet the cap
        monkeypatch.setattr(arith, "BIT_CAP", 1 << 16)

    def test_matches_reference_on_coprime_grid(self):
        for a, b in _coprime_grid():
            expected = _outcome(reference_minimal_polynomial, a, b)
            assert _outcome(minimal_polynomial_of_self_power, a, b) == expected, (a, b)

    def test_matches_reference_on_seeded_powers(self, small_bit_cap):
        refused = 0
        for a, b in _seeded_power_pairs():
            expected = _outcome(reference_minimal_polynomial, a, b)
            assert _outcome(minimal_polynomial_of_self_power, a, b) == expected, (a, b)
            refused += isinstance(expected, str)
        # both outcomes occur often
        assert 300 < refused < 2700

    def test_no_factorization(self, monkeypatch, small_bit_cap):
        def refuse(n):
            raise AssertionError(f"factorize({n}) on the minimal-polynomial path")

        is_prime = arith.is_prime

        def small_is_prime(n):
            # the power-residue moduli q = 1 (mod 2p) are small; a
            # Miller-Rabin test on anything larger would be a cofactor's
            if n >= 1 << 32:
                raise AssertionError(f"is_prime({n}) on the minimal-polynomial path")
            return is_prime(n)

        monkeypatch.setattr(arith, "factorize", refuse)
        monkeypatch.setattr(minpoly, "factorize", refuse)
        monkeypatch.setattr(arith, "is_prime", small_is_prime)
        f7 = 2**128 + 1
        pairs = _coprime_grid() + list(_seeded_power_pairs())
        pairs += [(1, f7), (f7, 2), (2, f7), (1, 10**3999 + 7)]
        for a, b in pairs:
            try:
                minimal_polynomial_of_self_power(a, b)
            except ResourceError as exc:
                assert "past the bit cap" in str(exc), (a, b)
        assert minimal_polynomial_of_self_power(1, f7) == BinomialMinPoly(f7, f7, 1)


class TestDenominatorBoundsSoundness:
    def test_degree_vs_denominator(self):
        # b ln 2 <= d ln b, i.e. 2^b <= b^d, for every coprime pair; strict
        # b < 4 d ln d as well (subset here, the full grid in acceptance)
        mp.mp.dps = 40
        for b in range(2, 60):
            for a in range(1, 21):
                if gcd(a, b) != 1:
                    continue
                d = minimal_polynomial_of_self_power(a, b).d
                assert 2**b <= b**d, (a, b, d)
                assert b < 4 * d * mp.ln(d), (a, b, d)

    def test_equality_attained_at_one_half(self):
        d = minimal_polynomial_of_self_power(1, 2).d
        assert d == 2
        assert 2**2 == 2**d  # b ln 2 = d ln b exactly at (a, b) = (1, 2)


class TestAsBinomial:
    def test_examples(self):
        p = dense((-1, 0, 2))
        assert as_binomial(p) == BinomialMinPoly(s=2, d=2, r=1)
        assert as_binomial(dense((1, 0, 1))) is None  # x^2 + 1
        assert as_binomial(dense((-2, 0, 4))) is None  # content 2

    def test_sign_normalisation(self):
        assert as_binomial(dense((1, 0, -2))) == BinomialMinPoly(2, 2, 1)

    def test_middle_coefficients(self):
        assert as_binomial(dense((-1, 1, 2))) is None

    def test_zero_constant(self):
        assert as_binomial(dense((0, 2))) is None

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            as_binomial(dense((5,)))

    def test_round_trip_with_minpoly(self):
        binomial = minimal_polynomial_of_self_power(3, 4)
        poly = dense((-binomial.r, *[0] * (binomial.d - 1), binomial.s))
        assert as_binomial(poly) == binomial
        assert poly.terms == ((binomial.d, binomial.s), (0, -binomial.r))


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
