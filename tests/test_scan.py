"""The windowed denominator scan against a per-candidate reference and brute force."""

import random
import time
from math import gcd

from selfpower import BACKEND, denominator_bound, minimal_polynomial_of_self_power
from selfpower.arith import powers_equal
from selfpower.solver import _scan_denominators, _totient_sum


def reference_scan(d, n_mult, b_hi, r, s):
    """The scan before windowing: every reduced a/b visited, windows tested per a."""
    hits = []
    tested = 0
    bl_r = r.bit_length()
    bl_s = s.bit_length()
    for b in range(2, b_hi + 1):
        bl_b = b.bit_length()
        rb = b * bl_r
        rb1 = b * (bl_r - 1)
        sb = b * bl_s
        sb1 = b * (bl_s - 1)
        a_max = n_mult * b
        bla = 1
        next_pow = 2
        for a in range(1, a_max + 1):
            if a == next_pow:
                bla += 1
                next_pow <<= 1
            if gcd(a, b) != 1:
                continue
            tested += 1
            e = a * d
            if e * (bla - 1) >= rb or rb1 >= e * bla:
                continue
            if e * (bl_b - 1) >= sb or sb1 >= e * bl_b:
                continue
            if powers_equal(a, e, r, b) and powers_equal(b, e, s, b):
                hits.append((a, b))
    return hits, tested


def phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_backend_is_pure():
    assert BACKEND == "pure"


def test_known_small_case():
    assert _scan_denominators(2, 1, 5, 1, 2) == ([(1, 2), (1, 4)], 9)


def test_matches_reference_on_seeded_cases():
    rng = random.Random(20240917)
    for case in range(1200):
        d = rng.randint(1, 60)
        n_mult = 0 if case % 10 == 0 else rng.randint(1, 4)
        b_hi = rng.randint(1, 60)
        r = rng.randint(1, 1 << rng.randint(1, 140))
        s = rng.randint(1, 1 << rng.randint(1, 140))
        args = (d, n_mult, b_hi, r, s)
        assert _scan_denominators(*args) == reference_scan(*args), args


def test_matches_reference_on_self_power_targets():
    for a in range(1, 25):
        for b in range(2, 25):
            if gcd(a, b) != 1:
                continue
            binomial = minimal_polynomial_of_self_power(a, b)
            bound = denominator_bound(binomial.d)
            args = (binomial.d, a // b + 1, bound, binomial.r, binomial.s)
            got = _scan_denominators(*args)
            assert got == reference_scan(*args), (a, b)
            assert (a, b) in got[0]


def test_adversarial_targets():
    cases = [
        (2, 1, 5, 1, 2),
        (9, 1, 79, 256, 6561),
        (3, 4, 13, 5, 2),
        (40, 1, 590, 1, 40),
        (2, 10, 5, 7, 3),
    ]
    for args in cases:
        assert _scan_denominators(*args) == reference_scan(*args), args


def test_matches_brute_force_ground_truth():
    # direct cross-multiplied comparison is the independent oracle
    rng = random.Random(31337)
    checked = 0
    while checked < 120:
        d = rng.randint(1, 6)
        n_mult = rng.randint(0, 3)
        b_hi = rng.randint(2, 12)
        r, s = rng.randint(1, 40), rng.randint(1, 40)
        if gcd(r, s) != 1:
            continue
        hits = []
        tested = 0
        for b in range(2, b_hi + 1):
            for a in range(1, n_mult * b + 1):
                if gcd(a, b) != 1:
                    continue
                tested += 1
                if a ** (a * d) * s**b == b ** (a * d) * r**b:
                    hits.append((a, b))
        assert _scan_denominators(d, n_mult, b_hi, r, s) == (hits, tested)
        checked += 1


def test_tested_counts_every_reduced_candidate():
    for b_hi in (0, 1, 2, 3, 17, 100):
        totient_sum = sum(phi(b) for b in range(2, b_hi + 1))
        for n_mult in (0, 1, 3):
            _, tested = _scan_denominators(5, n_mult, b_hi, 7, 3)
            assert tested == n_mult * totient_sum


def test_totient_sum():
    running = 0
    for n in range(0, 400):
        running += phi(n) if n else 0
        assert _totient_sum(n) == running
    # Phi(10^6), a published value
    assert _totient_sum(10**6) == 303963552392


def test_degree_200_target_is_fast():
    binomial = minimal_polynomial_of_self_power(1, 200)
    bound = denominator_bound(binomial.d)
    start = time.perf_counter()
    hits, tested = _scan_denominators(binomial.d, 1, bound, binomial.r, binomial.s)
    elapsed = time.perf_counter() - start
    assert hits == [(1, 200)]
    assert tested == 5460289
    assert elapsed < 1.0
