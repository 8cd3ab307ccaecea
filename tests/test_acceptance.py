"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Each criterion carries its stated time budget and tolerance; expected values
come from independent oracles (exact integer identities, 50-digit mpmath
evaluation, brute-force enumeration), never from the code paths under test.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

import mpmath as mp

from selfpower import (
    AlgebraicTarget,
    Certificate,
    IntPolynomial,
    Ordering,
    classify_preimage,
    commuting_pair,
    compare_self_power_to_rational,
    enumerate_rational_powers,
    equal_self_power_pair,
    lambda_decompose,
    leading_denominator_bound,
    minimal_polynomial_of_self_power,
    solve_by_divisors,
    solve_enumerative,
    verify_commuting,
    verify_equal_self_powers,
)
from selfpower.arith import ln_interval
from selfpower.cli import main


def _report(number, name, elapsed, budget, detail=""):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    suffix = f" -- {detail}" if detail else ""
    print(f"PASS criterion {number}/8 {name} ({elapsed:.2f}s < {budget}s){suffix}")


def test_criterion_1_two_solution_reproduction(capsys):
    start = time.perf_counter()
    code = main(["solve", "--alpha", "[−1, 0, 2]", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert set(payload["solutions"]) == {"1/2", "1/4"}
    with capsys.disabled():
        _report(1, "two-solution reproduction", elapsed, 1.0,
                f"solutions {payload['solutions']}")


def test_criterion_2_round_trip_sweep():
    start = time.perf_counter()
    checked = 0
    for a in range(1, 41):
        for b in range(1, 41):
            if gcd(a, b) != 1:
                continue
            binomial = minimal_polynomial_of_self_power(a, b)
            target = AlgebraicTarget.from_binomial(binomial)
            by_divisors = solve_by_divisors(binomial)
            by_enumeration = solve_enumerative(target)
            assert by_divisors.solutions == by_enumeration.solutions, (a, b)
            assert Fraction(a, b) in by_divisors.solutions, (a, b)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(2, "round-trip sweep a, b <= 40", elapsed, 120.0, f"{checked} pairs")


def test_criterion_3_common_base_brute_force():
    start = time.perf_counter()
    checked = 0
    for a in range(1, 7):
        for b in range(1, 7):
            if gcd(a, b) != 1:
                continue
            y_powers = {}
            for y in range(1, 257):
                y_powers.setdefault(y**b, y)
            for x in range(1, 257):
                y = y_powers.get(x**a)
                if y is None:
                    continue
                lam = lambda_decompose(x, y, a, b)
                assert lam**b == x and lam**a == y, (x, y, a, b, lam)
                checked += 1
    elapsed = time.perf_counter() - start
    _report(3, "common-base decomposition brute force", elapsed, 60.0,
            f"{checked} instances")


def test_criterion_4_bound_soundness():
    start = time.perf_counter()
    prec = 96
    ln_lo_cache = {}
    checked = 0
    for b in range(2, 201):
        for a in range(1, 51):
            if gcd(a, b) != 1:
                continue
            d = minimal_polynomial_of_self_power(a, b).d
            # b ln 2 <= d ln b is exactly the integer inequality 2^b <= b^d
            assert 2**b <= b**d, (a, b, d)
            if d not in ln_lo_cache:
                ln_lo_cache[d] = ln_interval(d, prec)[0]
            # strict b < 4 d ln d via the rigorous lower bound of ln d
            assert (b << prec) < 4 * d * ln_lo_cache[d], (a, b, d)
            checked += 1
    d = minimal_polynomial_of_self_power(1, 2).d
    assert 2**2 == 2**d  # equality of the first bound is attained at x = 1/2
    elapsed = time.perf_counter() - start
    _report(4, "denominator bound soundness", elapsed, 60.0, f"{checked} pairs")


def test_criterion_5_polynomial_power_sweep():
    start = time.perf_counter()
    doubling = IntPolynomial.from_coefficients((0, 2))
    bound = leading_denominator_bound(2)
    assert bound == 5
    hits = enumerate_rational_powers(doubling, 100, b_max=15)
    denominators = {x.denominator for x, _ in hits}
    assert denominators == {2, 4}
    assert max(denominators) <= bound
    monic = IntPolynomial.from_coefficients((1, 0, 1))
    assert enumerate_rational_powers(monic, 60, b_max=60) == []
    elapsed = time.perf_counter() - start
    _report(5, "polynomial-power denominator sweep", elapsed, 60.0,
            f"{len(hits)} hits at denominators {sorted(denominators)}")


def test_criterion_6_comparator_oracle():
    start = time.perf_counter()
    mp.mp.dps = 50
    rng = random.Random(0x5E1F)
    disagreements = 0
    decided = 0
    for _ in range(1000):
        t = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        q = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        got = compare_self_power_to_rational(t, q)
        tt = mp.mpf(t.numerator) / t.denominator
        gap = tt**tt - mp.mpf(q.numerator) / q.denominator
        if abs(gap) > mp.mpf("1e-30"):
            decided += 1
            expected = Ordering.GREATER if gap > 0 else Ordering.LESS
            if got is not expected:
                disagreements += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - start
    _report(6, "comparator vs 50-digit oracle", elapsed, 60.0,
            f"{decided}/1000 pairs decided, 0 disagreements")


def test_criterion_7_transcendence_certificate():
    start = time.perf_counter()
    cert = classify_preimage(Fraction(2))
    assert isinstance(cert, Certificate)
    lo, hi = cert.interval
    assert hi - lo <= Fraction(1, 10**9)
    mp.mp.dps = 50
    oracle = mp.findroot(lambda x: x * mp.ln(x) - mp.ln(2), mp.mpf("1.5596104694"))
    assert mp.mpf(lo.numerator) / lo.denominator < oracle
    assert mp.mpf(hi.numerator) / hi.denominator > oracle
    assert compare_self_power_to_rational(lo, Fraction(2)) is Ordering.LESS
    assert compare_self_power_to_rational(hi, Fraction(2)) is Ordering.GREATER
    elapsed = time.perf_counter() - start
    _report(7, "transcendence certificate for q = 2", elapsed, 60.0,
            f"width {float(hi - lo):.2e} contains {mp.nstr(oracle, 10)}")


def test_criterion_8_family_verification():
    start = time.perf_counter()
    for m in range(1, 5):
        x, y = equal_self_power_pair(m)
        u, v = commuting_pair(m)
        assert verify_equal_self_powers(x, y), m
        assert verify_commuting(u, v), m
        assert u == 1 / x and v == 1 / y, m
    elapsed = time.perf_counter() - start
    _report(8, "family verification m <= 4", elapsed, 60.0)
