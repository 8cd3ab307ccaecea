"""Solver tests: both solution procedures, their agreement, and the
x^x = y^y / x^y = y^x families."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import mpmath as mp
import pytest

from selfpower import (
    AlgebraicTarget,
    BinomialMinPoly,
    DomainError,
    IntPolynomial,
    Ordering,
    ResourceError,
    SolutionSet,
    TargetShapeError,
    classify_preimage,
    commuting_pair,
    compare_self_power_to_root,
    denominator_bound,
    equal_self_power_pair,
    factorize,
    integer_scan,
    is_irreducible_binomial,
    minimal_polynomial_of_self_power,
    powers_equal,
    solve,
    solve_by_divisors,
    solve_enumerative,
    verify_commuting,
    verify_equal_self_powers,
)
from selfpower import arith as arith_module
from selfpower import minpoly
from selfpower import solver as solver_module
from selfpower.cli import _MAX_DEGREE


#: IntPolynomial from its coefficients, constant first
dense = IntPolynomial.from_coefficients


def _divisor_exponent(vec, factors):
    # the a with lam^a = s, where lam has exponent vector vec against s's primes
    a = None
    for v, (_, e) in zip(vec, factors):
        if v == 0 or e % v != 0:
            return None
        if a is None:
            a = e // v
        elif e // v != a:
            return None
    return a


def reference_solve_by_divisors(binomial):
    """The divisor procedure before the closed form: every divisor vector lam of
    s, the exponent a with lam^a = s read off per prime, and b^d = lam^b tested
    exactly for every b up to the bound.  A rational alpha (d = 1) has only
    integer solutions, found by the integer scan; its scan_count is the
    scan's, not the divisor procedure's."""
    s, d, r = binomial.s, binomial.d, binomial.r
    if d == 1:
        return solve_enumerative(binomial)
    s_factors = factorize(s)
    bound = denominator_bound(d)
    tested = 0
    found = []
    for vec in product(*(range(e + 1) for _, e in s_factors)):
        if not any(vec):
            continue
        tested += 1
        a = _divisor_exponent(vec, s_factors)
        if a is None:
            continue
        lam = 1
        for v, (p, _) in zip(vec, s_factors):
            lam *= p**v
        for b in range(2, bound + 1):
            tested += 1
            if not powers_equal(b, d, lam, b):
                continue
            if gcd(a, b) != 1:
                continue
            if minimal_polynomial_of_self_power(a, b) == binomial:
                found.append(Fraction(a, b))
    return SolutionSet(tuple(sorted(found)), tested)


def assert_matches_reference(binomial):
    # the whole SolutionSet for d > 1; for a rational alpha the two counts
    # count different candidates, so only the solutions
    got, expected = solve_by_divisors(binomial), reference_solve_by_divisors(binomial)
    assert got.solutions == expected.solutions, binomial
    assert binomial.d == 1 or got == expected, binomial
    return got


def target_of(s, d, r):
    return AlgebraicTarget.from_binomial(BinomialMinPoly(s=s, d=d, r=r))


class TestTargetConstruction:
    def test_degree_one_becomes_rational(self):
        t = target_of(2, 1, 3)
        assert t == AlgebraicTarget.from_rational(Fraction(3, 2))
        assert type(t) is AlgebraicTarget and t.d == 1

    def test_target_is_its_binomial(self):
        for binomial in (
            BinomialMinPoly(2, 1, 3),
            BinomialMinPoly(2, 2, 1),
            BinomialMinPoly(6561, 9, 256),
        ):
            target = AlgebraicTarget.from_binomial(binomial)
            assert isinstance(target, BinomialMinPoly)
            assert target == binomial
            assert hash(target) == hash(binomial)
        poly = dense((-256, 0, 0, 0, 0, 0, 0, 0, 0, 6561))
        assert AlgebraicTarget.from_polynomial(poly) == (6561, 9, 256)

    def test_reducible_rejected(self):
        # x^2 - 4 is not kept as the target: its positive root is 2
        target = target_of(1, 2, 4)
        assert type(target) is AlgebraicTarget
        assert target == (1, 1, 2) == AlgebraicTarget.from_rational(2)

    @pytest.mark.parametrize(
        "build, reduced",
        [
            (lambda: AlgebraicTarget(1, 2, 4), (1, 1, 2)),
            (lambda: AlgebraicTarget(s=9, d=4, r=4), (3, 2, 2)),
            (lambda: AlgebraicTarget.from_binomial(BinomialMinPoly(8, 3, 27)), (2, 1, 3)),
            (lambda: AlgebraicTarget.from_polynomial(dense((-4, 0, 1))), (1, 1, 2)),
            (lambda: AlgebraicTarget.from_polynomial(dense((4, 0, -9))), (3, 1, 2)),
        ],
        ids=["positional", "keyword", "from_binomial", "from_polynomial", "negated"],
    )
    def test_every_constructor_refuses_reducible_binomials(self, build, reduced):
        # no constructor keeps a reducible binomial: each builds the minimal
        # polynomial of its positive root
        target = build()
        assert type(target) is AlgebraicTarget
        assert target == reduced
        assert is_irreducible_binomial(target)

    def test_reducible_message_skips_huge_decimals(self):
        # s has ~9500 decimal digits, past the interpreter's int-to-str limit;
        # the reduction is decided and taken without writing any of them
        assert target_of(3**20000, 2, 1) == (3**10000, 1, 1)

    def test_reduction_against_the_irreducibility_test(self):
        # seeded binomials whose coefficients are often powers: the target is
        # the binomial itself exactly when is_irreducible_binomial says so,
        # it is always irreducible, and it has the same positive root:
        # d = g*d', r = r'^g and s = s'^g, decided by exact power tests
        rng = random.Random(577215)
        reduced = kept = 0
        for _ in range(6000):
            s = rng.randint(1, 30) ** rng.randint(1, 12)
            r = rng.randint(1, 30) ** rng.randint(1, 12)
            d = rng.randint(1, 36)
            if gcd(r, s) != 1:
                continue
            binomial = (s, d, r)
            target = BinomialMinPoly(s, d, r)
            assert (target == binomial) is is_irreducible_binomial(binomial), binomial
            assert is_irreducible_binomial(target), binomial
            g, remainder = divmod(d, target.d)
            assert remainder == 0, binomial
            assert powers_equal(target.r, g, r, 1), binomial
            assert powers_equal(target.s, g, s, 1), binomial
            reduced += g > 1
            kept += g == 1
        # both outcomes occur often
        assert reduced > 600 and kept > 600, (reduced, kept)

    def test_planted_reducible_targets_keep_their_solutions(self):
        # s^g*x^(g*d) - r^g has the positive root of s*x^d - r, the minimal
        # polynomial of a self-power (a/b)^(a/b): both procedures find a/b,
        # and every solution is exact against the unreduced binomial
        for a in range(1, 25):
            for b in range(1, 25):
                if gcd(a, b) != 1:
                    continue
                s, d, r = minimal_polynomial_of_self_power(a, b)
                for g in (2, 3, 5):
                    target = target_of(s**g, g * d, r**g)
                    assert target == (s, d, r), (a, b, g)
                    result = solve(target, cross_check=True)
                    assert Fraction(a, b) in result.solutions, (a, b, g)
                    for x in result.solutions:
                        order = compare_self_power_to_root(x, g * d, r**g, s**g)
                        assert order is Ordering.EQUAL, (a, b, g, x)

    def test_non_binomial_rejected(self):
        with pytest.raises(TargetShapeError):
            AlgebraicTarget.from_polynomial(dense((1, 1, 1)))

    def test_constant_rejected_as_every_other_shape(self):
        # a constant P has no root; it is refused with the non-binomial text
        with pytest.raises(TargetShapeError) as exc:
            AlgebraicTarget.from_polynomial(dense((1, 1, 1)))
        shape = str(exc.value)
        for poly in (dense((1,)), dense((5,)), dense((-3,)), IntPolynomial(((0, 4),))):
            with pytest.raises(TargetShapeError) as exc:
                AlgebraicTarget.from_polynomial(poly)
            assert str(exc.value) == shape

    def test_nonpositive_rational_rejected(self):
        with pytest.raises(DomainError):
            AlgebraicTarget.from_rational(Fraction(-2))

    def test_domain_texts_write_huge_values_by_bit_length(self):
        # decimal texts of these values pass the interpreter's int-to-str limit
        huge = 10**5000
        with pytest.raises(DomainError, match=r"got -<16610-bit integer>$"):
            AlgebraicTarget.from_rational(-huge)
        with pytest.raises(DomainError, match=r"got gcd\(<16610-bit integer>, 10\)"):
            BinomialMinPoly(s=10, d=2, r=huge)
        with pytest.raises(DomainError, match=r"coprime, got gcd\(<16610-bit integer>, 10\)"):
            compare_self_power_to_root(Fraction(1, 2), 2, huge, 10)
        with pytest.raises(DomainError, match=r"got gcd\(<16610-bit integer>, <16610"):
            minimal_polynomial_of_self_power(huge, huge)

    def test_fields_are_the_binomial(self):
        assert tuple(target_of(2, 2, 1)) == (2, 2, 1)
        s, d, r = AlgebraicTarget.from_rational(Fraction(3, 4))
        assert (s, d, r) == (4, 1, 3)

    def test_irreducibility_is_decided_once_per_target(self, monkeypatch):
        # power_gcd decides the reduction once, when the target is built;
        # solving it asks only for the minimal polynomials of its candidates
        # 4/9 and 8/27, and from_binomial takes a record as it is
        calls = []
        decide = minpoly.power_gcd
        monkeypatch.setattr(
            minpoly,
            "power_gcd",
            lambda u, v, q: calls.append((u, v, q)) or decide(u, v, q),
        )
        target = BinomialMinPoly(6561, 9, 256)
        assert calls == [(256, 6561, 9)]
        assert AlgebraicTarget.from_binomial(target) is target
        solve(target, cross_check=True)
        solve_by_divisors(target)
        assert calls[1:] == [(4, 9, 9), (8, 27, 27)] * 2
        # from_rational asks power_gcd nothing, and x^2 - 4 is reduced once
        del calls[:]
        rational = AlgebraicTarget.from_rational(2)
        assert solve_by_divisors(BinomialMinPoly(1, 2, 4)).solutions == (
            solve(rational).solutions
        )
        assert calls == [(4, 1, 2)]


class TestIntegerScan:
    def test_examples(self):
        assert integer_scan(AlgebraicTarget.from_rational(27)) == (3, 3)
        assert integer_scan(AlgebraicTarget.from_rational(2)) == (None, 2)
        assert integer_scan(AlgebraicTarget.from_rational(1)) == (1, 1)

    def test_scan_count_bound(self):
        # N <= max(3, 1 + ceil(ln alpha)), oracle ceiling from mpmath
        mp.mp.dps = 60
        for value in (Fraction(1, 7), Fraction(2), Fraction(100), Fraction(10**12)):
            _, count = integer_scan(AlgebraicTarget.from_rational(value))
            alpha = mp.mpf(value.numerator) / value.denominator
            assert count <= max(3, 1 + mp.ceil(mp.ln(alpha)))

    def test_root_targets(self):
        found, count = integer_scan(target_of(2, 2, 1))
        assert found is None and count == 1  # alpha < 1, so 1^1 already exceeds

    def test_alphas_coprimality_is_proved_once(self, monkeypatch):
        # the record and the Fraction prove gcd(r, s) = 1 when they are built;
        # no scan step, hit recheck or certificate probe takes that gcd again,
        # which for operands this long was nearly all of a scan's work.  3
        # divides 2^65535 + 1, so both texts reduce to other coprime parts
        q = Fraction(2**65535 + 1, 3**19000)
        rational = AlgebraicTarget.from_rational(q)
        binomial = AlgebraicTarget.from_polynomial(
            IntPolynomial.from_coefficients([-(2**65535 + 1), 0, 3**19000])
        )
        assert binomial.d == 2
        pairs = {frozenset((target.r, target.s)) for target in (rational, binomial)}
        real = arith_module.gcd
        calls = []

        def counting(*args):
            if frozenset(args) in pairs:
                calls.append(len(calls))
            return real(*args)

        monkeypatch.setattr(arith_module, "gcd", counting)
        assert integer_scan(rational) == (None, 3060)
        assert solve(rational, cross_check=True).solutions == ()
        assert solve(binomial, cross_check=True).solutions == ()
        assert not isinstance(classify_preimage(q, Fraction(1, 1000)), int)
        assert calls == []
        # the public comparator still checks a caller's raw r and s
        compare_self_power_to_root(Fraction(1), 1, rational.r, rational.s)
        assert calls == [0]


class TestDenominatorBound:
    def test_examples(self):
        assert denominator_bound(1) == 1
        assert denominator_bound(2) == 5  # floor(8 ln 2) = floor(5.545)
        assert denominator_bound(9) == 79  # floor(36 ln 9) = floor(79.10)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            denominator_bound(0)

    def test_equals_floor_of_4_d_ln_d(self):
        # the bound feeds JSON (`bound`, and `scan_count` through the scan),
        # so the enclosure it rounds must never move it off the exact floor;
        # every degree up to the parser's cap
        mp.mp.dps = 40
        for d in range(2, _MAX_DEGREE + 1):
            assert denominator_bound(d) == int(mp.floor(4 * d * mp.ln(d))), d


class TestSolveEnumerative:
    def test_two_solutions(self):
        result = solve_enumerative(target_of(2, 2, 1))
        assert result.solutions == (Fraction(1, 4), Fraction(1, 2))

    def test_rational_targets(self):
        assert solve_enumerative(AlgebraicTarget.from_rational(4)).solutions == (
            Fraction(2),
        )
        assert solve_enumerative(
            AlgebraicTarget.from_rational(Fraction(1, 2))
        ).solutions == ()

    def test_scan_count_within_paper_budget(self):
        target = target_of(2, 2, 1)
        result = solve_enumerative(target)
        n, scanned = integer_scan(target)
        bound = denominator_bound(target.d)
        assert result.scan_count <= scanned * bound * bound + scanned


class TestSolveByDivisors:
    def test_examples(self):
        assert solve_by_divisors(BinomialMinPoly(2, 2, 1)).solutions == (
            Fraction(1, 4),
            Fraction(1, 2),
        )
        assert solve_by_divisors(BinomialMinPoly(9, 3, 4)).solutions == (
            Fraction(2, 3),
        )
        assert solve_by_divisors(BinomialMinPoly(2, 1, 1)).solutions == ()

    def test_algebraic_integer_of_higher_degree(self):
        # monic binomial of degree >= 2: no rational solutions at all
        assert solve_by_divisors(BinomialMinPoly(1, 3, 2)).solutions == ()

    def test_monic_degree_one_is_read_off_r(self):
        # r = base^k with base no perfect power: n = base^j with j*base^j = k,
        # scan_count the j tested
        assert solve_by_divisors(BinomialMinPoly(1, 1, 27)) == ((Fraction(3),), 1)
        assert solve_by_divisors(BinomialMinPoly(1, 1, 2**64)) == ((Fraction(16),), 4)
        assert solve_by_divisors(BinomialMinPoly(1, 1, 2**63)) == ((), 3)
        assert solve_by_divisors(BinomialMinPoly(1, 1, 1)) == ((Fraction(1),), 1)
        assert solve_by_divisors(BinomialMinPoly(1, 1, 2)) == ((), 0)

    def test_degree_one_targets_are_answered_without_factoring(self, monkeypatch):
        # alpha = 2/F7 is rational with s != 1, so no integer n solves it:
        # neither procedure factors s, where factoring F7 = 2^128 + 1 spends
        # the rho budget and refuses
        def refuse(n):
            raise AssertionError(f"factorize({n}) for a rational target")

        monkeypatch.setattr(solver_module, "factorize", refuse)
        f7 = 2**128 + 1
        target = BinomialMinPoly(f7, 1, 2)
        assert solve_by_divisors(target) == ((), 0)
        assert solve(target, cross_check=True) == solve_enumerative(target)
        assert solve_by_divisors(BinomialMinPoly(9, 1, 4)).solutions == ()
        assert solve_by_divisors(BinomialMinPoly(1, 1, 3125)).solutions == (Fraction(5),)

    def test_degree_one_matches_the_enumeration(self):
        # n^n, its neighbours, its square and odd multiples, and seeded odd r
        # up to 3000 bits, through solve's cross-check
        rng = random.Random(1795)
        values = [rng.getrandbits(rng.randint(1, 3000)) | 1 for _ in range(40)]
        for n in range(1, 60):
            values += [n**n, n**n - 1, n**n + 1, n ** (2 * n), 3 * n**n, 5 * n**n]
        for value in filter(None, values):
            for q in {Fraction(value), Fraction(1, value), Fraction(value, 2)}:
                target = BinomialMinPoly.from_rational(q)
                result = solve(target, cross_check=True)
                assert result == solve_enumerative(target), q
                assert result.solutions == solve_by_divisors(target).solutions

    def test_reducible_rejected(self):
        # a reducible binomial is answered for its positive root: 4x^4 - 1
        # has that of 2x^2 - 1, and x^2 - 4 the root 2
        assert solve_by_divisors(BinomialMinPoly(4, 4, 1)) == solve_by_divisors(
            BinomialMinPoly(2, 2, 1)
        )
        assert solve_by_divisors(BinomialMinPoly(4, 4, 1)).solutions == (
            Fraction(1, 4),
            Fraction(1, 2),
        )
        assert solve_by_divisors(BinomialMinPoly(1, 2, 4)).solutions == ()

    def test_scan_count_in_closed_form(self):
        # s = 6561 = 3^8: 8 divisors lam > 1, tau(8) = 4 exponents, bound 79
        result = solve_by_divisors(BinomialMinPoly(6561, 9, 256))
        assert result.scan_count == 8 + 4 * 78
        # README example: s = 2, one divisor, one exponent, bound 5
        assert solve_by_divisors(BinomialMinPoly(2, 2, 1)).scan_count == 1 + 4

    def test_matches_reference_on_self_power_targets(self):
        for a in range(1, 60):
            for b in range(2, 60):
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
                got = assert_matches_reference(binomial)
                assert Fraction(a, b) in got.solutions

    def test_matches_reference_on_seeded_binomials(self):
        # s smooth or a perfect power, so the gcd k of its exponents is often
        # > 1 and several exponents a | k are live; every third target is the
        # minimal polynomial of a planted a/b with a smooth denominator
        rng = random.Random(271828)
        checked = 0
        while checked < 3000:
            if checked % 3 == 2:
                b = rng.choice((2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36))
                a = rng.randint(1, 120)
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
            else:
                if checked % 3 == 0:
                    s = rng.randint(2, 30) ** rng.randint(2, 12)
                else:
                    i, j, l = rng.randint(0, 8), rng.randint(0, 5), rng.randint(0, 3)
                    s = 2**i * 3**j * 5**l
                d, r = rng.randint(1, 24), rng.randint(1, 10**6)
                if s == 1 or gcd(r, s) != 1 or not is_irreducible_binomial((s, d, r)):
                    continue
                binomial = BinomialMinPoly(s, d, r)
            assert_matches_reference(binomial)
            checked += 1


class TestSolveDispatcher:
    def test_examples(self):
        # (8/27, 4/9) both satisfy x^x = (256/6561)^(1/9): the x^x = y^y pair
        result = solve(target_of(6561, 9, 256), cross_check=True)
        assert result.solutions == (Fraction(8, 27), Fraction(4, 9))
        assert solve(AlgebraicTarget.from_rational(3125)).solutions == (Fraction(5),)
        assert solve(target_of(2, 3, 5), cross_check=True).solutions == ()

    def test_round_trip_sweep_subset(self):
        for a in range(1, 16):
            for b in range(1, 16):
                if gcd(a, b) != 1:
                    continue
                binomial = minimal_polynomial_of_self_power(a, b)
                target = AlgebraicTarget.from_binomial(binomial)
                result = solve(target, cross_check=True)
                assert Fraction(a, b) in result.solutions, (a, b)
                s, d, r = target
                for x in result.solutions:
                    assert (
                        compare_self_power_to_root(x, d, r, s) is Ordering.EQUAL
                    ), (a, b, x)

    def test_two_solution_sets_form_a_pair(self):
        for binomial in (BinomialMinPoly(2, 2, 1), BinomialMinPoly(6561, 9, 256)):
            sols = solve(AlgebraicTarget.from_binomial(binomial)).solutions
            assert len(sols) == 2
            assert verify_equal_self_powers(*sols)

    def test_monic_targets_have_integer_solutions_only(self):
        for r in (1, 27, 3125, 46656):
            sols = solve_by_divisors(BinomialMinPoly(1, 1, r)).solutions
            assert all(x.denominator == 1 for x in sols)

    def test_procedures_agree_on_random_binomials(self):
        # arbitrary irreducible binomials, not just self-power minimal
        # polynomials; almost all have no solutions, and both routes must say so
        rng = random.Random(314159)
        checked = 0
        while checked < 150:
            s, d, r = rng.randint(1, 40), rng.randint(1, 8), rng.randint(1, 40)
            if gcd(r, s) != 1 or not is_irreducible_binomial((s, d, r)):
                continue
            binomial = BinomialMinPoly(s, d, r)
            by_divisors = solve_by_divisors(binomial)
            target = AlgebraicTarget.from_binomial(binomial)
            assert by_divisors.solutions == solve_enumerative(target).solutions
            checked += 1


class TestSolutionSet:
    def test_at_most_two(self):
        with pytest.raises(AssertionError):
            SolutionSet((Fraction(1), Fraction(2), Fraction(3)), 0)

    def test_sorted_and_distinct(self):
        with pytest.raises(AssertionError):
            SolutionSet((Fraction(2), Fraction(1)), 0)
        with pytest.raises(AssertionError):
            SolutionSet((Fraction(1), Fraction(1)), 0)


class TestFamilies:
    @pytest.mark.parametrize(
        "m, x, y",
        [
            (1, Fraction(1, 2), Fraction(1, 4)),
            (2, Fraction(4, 9), Fraction(8, 27)),
            (3, Fraction(27, 64), Fraction(81, 256)),
        ],
    )
    def test_equal_self_power_pairs(self, m, x, y):
        assert equal_self_power_pair(m) == (x, y)

    @pytest.mark.parametrize(
        "m, x, y",
        [
            (1, Fraction(2), Fraction(4)),
            (2, Fraction(9, 4), Fraction(27, 8)),
            (3, Fraction(64, 27), Fraction(256, 81)),
        ],
    )
    def test_commuting_pairs(self, m, x, y):
        assert commuting_pair(m) == (x, y)

    def test_verifiers(self):
        assert verify_equal_self_powers(Fraction(1, 2), Fraction(1, 4))
        assert verify_equal_self_powers(Fraction(4, 9), Fraction(8, 27))
        assert not verify_equal_self_powers(Fraction(1, 2), Fraction(1, 3))
        assert verify_commuting(Fraction(2), Fraction(4))
        assert 2**4 == 4**2
        assert verify_commuting(Fraction(9, 4), Fraction(27, 8))
        assert not verify_commuting(Fraction(2), Fraction(3))

    def test_verifiers_match_the_exponent_products(self):
        # the exponents come reduced from the parts; the products a*d and c*b
        # that both sides are raised to give the same answers
        rng = random.Random(11)
        for _ in range(2000):
            x = Fraction(rng.randint(1, 300), rng.randint(1, 300))
            y = Fraction(rng.randint(1, 300), rng.randint(1, 300))
            if rng.random() < 0.3:
                x, y = equal_self_power_pair(rng.randint(1, 6))
            a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
            p, q = a * d, c * b
            assert verify_equal_self_powers(x, y) == (
                powers_equal(a, p, c, q) and powers_equal(b, p, d, q)
            )
            assert verify_commuting(1 / x, 1 / y) == (
                powers_equal(b, d * a, d, b * c) and powers_equal(a, d * a, c, b * c)
            )

    def test_verifiers_hand_over_short_exponents(self, monkeypatch):
        # at m = 60000 the products a*d and c*b have about 1.9M bits; reduced
        # from the parts the exponents are m and m + 1
        exponents = []

        def recording(x, p, y, q):
            exponents.extend((p, q))
            return True

        monkeypatch.setattr(solver_module, "powers_equal", recording)
        assert verify_equal_self_powers(*equal_self_power_pair(60000))
        assert verify_commuting(*commuting_pair(60000))
        assert len(exponents) == 8
        assert max(e.bit_length() for e in exponents) <= 16

    def test_reciprocity_between_families(self):
        for m in range(1, 6):
            x, y = equal_self_power_pair(m)
            u, v = commuting_pair(m)
            assert (u, v) == (1 / x, 1 / y)
            assert verify_equal_self_powers(x, y)
            assert verify_commuting(u, v)

    def test_pair_solves_its_own_equation(self):
        for m in range(1, 5):
            x, y = equal_self_power_pair(m)
            binomial = minimal_polynomial_of_self_power(x.numerator, x.denominator)
            sols = solve(AlgebraicTarget.from_binomial(binomial)).solutions
            assert sols == tuple(sorted((x, y)))

    def test_resource_cap(self):
        with pytest.raises(ResourceError) as exc:
            equal_self_power_pair(10**7)
        assert str(exc.value) == (
            "pair components for m = 10000000 need about 240000024 bits, past "
            "the bit cap of 1048576 bits"
        )

    def test_rejects_m_zero(self):
        with pytest.raises(DomainError):
            equal_self_power_pair(0)
