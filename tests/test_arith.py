"""Integer/rational primitive tests: examples, brute-force oracles, properties."""

import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpower import arith
from selfpower import (
    DomainError,
    Ordering,
    PreconditionError,
    ResourceError,
    classify_preimage,
    compare_power_products,
    compare_self_power_to_rational,
    compare_self_power_to_root,
    factorize,
    integer_kth_root,
    is_prime,
    lambda_decompose,
    powers_equal,
)


def trial_division_factorize(n):
    """Independent factorization oracle for small n."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def padic_valuation_one_at_a_time(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def trial_is_prime(n):
    if n < 2:
        return False
    return all(n % p for p in range(2, isqrt(n) + 1))


@cache
def eager_trial_primes():
    """Every prime up to 1e6, sieved at once (the sieve factorize used to build)."""
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


def _kth_root_floor(n, k):
    """floor(n ** (1/k)) for n >= 1, as integer_kth_root took it before it
    built one candidate root from n's low bits: binary search for a root of
    up to 64 bits, Newton's iteration from above for a longer one."""
    if n == 1 or k >= n.bit_length():
        return 1
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    shift = (n.bit_length() - 1) // k
    if shift >= 64:
        h = shift // 2
        x = (_kth_root_floor(n >> (k * h), k) + 1) << h
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                return x
            x = y
    lo = 1 << shift
    hi = lo << 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def reference_kth_root(n, k):
    """integer_kth_root through the floor root: the same answer, or None."""
    if n in (0, 1):
        return n
    m = _kth_root_floor(n, k)
    return m if m > 1 and m**k == n else None


@cache
def _residue_moduli(p):
    """The three smallest primes q = 1 (mod 2p)."""
    moduli = []
    q = 2 * p + 1
    while len(moduli) < 3:
        if is_prime(q):
            moduli.append(q)
        q += 2 * p
    return tuple(moduli)


def _may_be_power(n, p):
    """False when n is provably no p-th power: the residue filter of
    _as_perfect_power before it asked integer_kth_root alone."""
    for q in _residue_moduli(p):
        r = n % q
        if r == 0:
            n, v = arith._remove_prime(n, q)
            if v % p:
                return False
            r = n % q
        if pow(r, (q - 1) // p, q) != 1:
            return False
    return True


def _as_perfect_power(n, m):
    """arith._as_perfect_power as it was: a root only where the residue
    filter passes, through the floor root."""
    max_exponent = (n.bit_length() - 1) // m
    for p in eager_trial_primes():
        if p > max_exponent:
            break
        if _may_be_power(n, p):
            root = reference_kth_root(n, p)
            if root is not None:
                base, k = _as_perfect_power(root, m)
                return base, k * p
    return n, 1


def reference_as_perfect_power(n):
    for p in eager_trial_primes():
        if p > n.bit_length():
            break
        root = reference_kth_root(n, p)
        if root is not None and root < n:
            base, k = reference_as_perfect_power(root)
            return base, k * p
    return n, 1


def reference_factorize(n):
    """factorize over the eager sieve: trial division, then is_prime, the
    perfect-power search over every prime up to bit_length(n), and rho."""
    found = {}
    for p in eager_trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    if n > 1:
        if n <= 10**12 or is_prime(n):
            found[n] = found.get(n, 0) + 1
        else:
            rng = random.Random(0x5E1F)
            budget = [500_000]
            stack = [(n, 1)]
            while stack:
                m, mult = stack.pop()
                if is_prime(m):
                    found[m] = found.get(m, 0) + mult
                    continue
                base, k = reference_as_perfect_power(m)
                if k > 1:
                    stack.append((base, mult * k))
                    continue
                f = None
                while f is None:
                    f = arith._rho_brent(m, rng, budget)
                stack.append((f, mult))
                stack.append((m // f, mult))
    return tuple(sorted(found.items()))


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert 3**8 == 6561  # oracle by repeated squaring
        assert factorize(6561) == ((3, 8),)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            factorize(0)

    @given(st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert factorize(n) == trial_division_factorize(n)

    @given(st.integers(1, 2**64))
    @settings(max_examples=60, deadline=None)
    def test_reconstructs_and_is_prime(self, n):
        factors = factorize(n)
        value = 1
        for p, e in factors:
            assert e >= 1
            assert is_prime(p)
            value *= p**e
        assert value == n
        assert [p for p, _ in factors] == sorted(p for p, _ in factors)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_budget_exhaustion(self):
        # two 120-bit primes; the rho budget cannot split the product, and
        # the refusal names the budget and the cofactor it ran out on
        p = 1_225_940_852_714_443_485_428_456_866_477_129_349
        q = 947_243_141_625_855_928_478_791_872_949_100_783
        assert is_prime(p) and is_prime(q)
        with pytest.raises(ResourceError) as exc:
            factorize(p * q)
        assert str(exc.value) == (
            "factorization budget of 500000 rho iterations exhausted on a "
            f"{(p * q).bit_length()}-bit cofactor {p * q}"
        )

    def test_huge_prime_power_is_fast(self):
        # trial division walks all 78,498 primes over a 59,795-bit n, one gcd
        # per chunk of 256 past the first; the perfect-power reduction then
        # takes square and cube roots only
        start = time.perf_counter()
        assert factorize(1_000_003**3000) == ((1_000_003, 3000),)
        assert time.perf_counter() - start < 20

    def test_large_non_power_cofactor_is_refused(self):
        n = 1_000_003**120 * 1_000_033
        with pytest.raises(ResourceError, match=r"cofactor of 2412 bits .* 1024-bit"):
            factorize(n)
        # the same size is answered when it is a perfect power
        assert factorize(1_000_003**120 * 1_000_033**120) == (
            (1_000_003, 120),
            (1_000_033, 120),
        )
        # 1216 bits: the prime exponent 61 sits near the largest one a root
        # above 1e6 allows, 1215 // 19 = 63
        assert factorize(1_000_003**61) == ((1_000_003, 61),)

    def test_perfect_power_exponent_is_the_exponent_gcd(self):
        # m = 1 holds for every n >= 2: the result is (n^(1/k), k) with k the
        # gcd of n's prime exponents
        rng = random.Random(5)
        inputs = list(range(2, 3000))
        inputs += [rng.randrange(2, 100) ** rng.randrange(1, 60) for _ in range(300)]
        inputs += [2**1000, 3**997, 6**360 * 5**120]
        # smooth inputs: every residue modulus of a small prime exponent
        # divides some of them
        inputs += [lcm(*range(1, m)) for m in (10, 100, 1000, 9000)]
        inputs += [lcm(*range(1, m)) ** k for m in (30, 400) for k in (2, 3, 6, 35)]
        for _ in range(300):
            k = rng.randrange(1, 13)
            exponents = [rng.randrange(0, 6) for _ in range(6)]
            n = prod(p**e for p, e in zip((2, 5, 7, 13, 17, 19), exponents)) ** k
            if n > 1:
                inputs.append(n)
        for n in inputs:
            k = 0
            for _, e in factorize(n):
                k = gcd(k, e)
            assert arith._as_perfect_power(n, 1) == (integer_kth_root(n, k), k), n

    def test_residue_filter_rejects_smooth_non_powers(self):
        # lcm(1..8999) is divisible by a residue modulus q = 1 (mod 2p) of
        # each prime p below 200, to an exponent p does not divide, and the
        # powers m**p divisible by every modulus of p passed the old filter;
        # one candidate root per exponent answers as the filter did
        n = lcm(*range(1, 9000))
        assert arith._as_perfect_power(n, 1) == _as_perfect_power(n, 1) == (n, 1)
        for p in eager_trial_primes()[:46]:
            moduli = _residue_moduli(p)
            m = 6 * prod(q**j for j, q in enumerate(moduli, 1))
            for value in (m**p, m**p * moduli[0]):
                assert arith._as_perfect_power(value, 1) == _as_perfect_power(value, 1), p
            assert arith._as_perfect_power(m**p, 1) == (m, p)

    def test_perfect_powers_match_the_residue_filter(self):
        # p-th powers and their neighbours, odd and even, prime and composite
        # bases: the same (root, k) as the filtered search through floor roots
        rng = random.Random(11)
        inputs = []
        for p in (2, 3, 5, 7, 11, 13, 31, 61, 127):
            for bits in (1, 2, 5, 17, 33, 64, 100):
                base = rng.getrandbits(bits) | (1 << (bits - 1))
                for k in (p, 2 * p, 3 * p):
                    n = base**k
                    inputs += [n - 1, n, n + 1, n << p, n << 1]
        for n in inputs:
            if n >= 2:
                assert arith._as_perfect_power(n, 1) == _as_perfect_power(n, 1), n
        for n in inputs:
            if n > 2**40:
                assert arith._as_perfect_power(n, 19) == _as_perfect_power(n, 19), n

    def test_perfect_power_exponents_stop_at_the_trial_primes(self):
        # exponents up to 1000001 would need primes past the sieved 1e6
        with pytest.raises(ResourceError) as exc:
            arith._as_perfect_power(1 << 1_000_001, 1)
        assert str(exc.value) == (
            "perfect-power test refused: a 1000002-bit integer may have prime "
            "exponents up to 1000001, past 1000000"
        )

    def test_perfect_power_reduction_matches_reference(self):
        rng = random.Random(7)
        primes = [1_000_003, 1_000_033, 1_000_037, 15_485_863, 2**61 - 1]
        for _ in range(60):
            base = 1
            for _ in range(rng.randrange(1, 3)):
                base *= rng.choice(primes)
            n = base ** rng.randrange(1, 13) * rng.randrange(1, 50)
            assert factorize(n) == reference_factorize(n), n


# the limits the trial primes grow through are 2^10, 2^14, 2^18 and 1e6 + 1;
# each pair straddles one of them
_BOUNDARY_PRIMES = (1021, 1031, 16381, 16411, 262139, 262147, 999983, 1000003)
# primes just below and just above 1e12, the largest cofactor taken as prime
# without a test
_NEAR_1E12 = (999_999_999_989, 1_000_000_000_039)


@pytest.fixture
def fresh_trial_primes(monkeypatch):
    """Sets the trial primes back to what a new process holds, the primes
    below 1024, now and on each call of the returned function; the test's
    end restores the grown array."""

    def reset():
        monkeypatch.setattr(arith, "_trial_primes", array("I", eager_trial_primes()[:172]))
        monkeypatch.setattr(arith, "_sieve_end", 1 << 10)

    reset()
    return reset


class TestGrownTrialPrimes:
    def test_first_segment_is_the_primes_below_1024(self):
        primes = eager_trial_primes()
        assert primes[171] == 1021 and primes[172] == 1031
        assert arith._sieve_segment(2, 1 << 10, arith._SMALL_PRIMES).tolist() == primes[:172]

    def test_full_growth_equals_the_eager_sieve(self, fresh_trial_primes):
        arith._sieve_through(10**7)
        assert arith._trial_primes.tolist() == eager_trial_primes()
        assert arith._sieve_end == 10**6 + 1

    def test_full_growth_peaks_below_1_mb(self, fresh_trial_primes):
        # the 78,498 primes take 4 bytes each (0.31 MB), and each 2^16-number
        # window of a segment under 100 KB; as Python ints in a list they
        # alone would take 3.3 MB
        tracemalloc.start()
        try:
            arith._sieve_through(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(arith._trial_primes) == 78498
        assert peak < 10**6, peak

    def test_segments_across_window_edges_match_the_eager_sieve(self):
        # ranges of two to four windows, shifted so that a prime or a prime
        # square lies on, just before or just after a window edge lo + k*2^16
        window = arith._SIEVE_WINDOW
        primes = eager_trial_primes()
        edge_numbers = (257**2, 131071, 262139, 262147, 509**2, 997**2, 999983)
        for q in edge_numbers:
            assert q in primes or isqrt(q) ** 2 == q
            for k in (1, 2, 3):
                for shift in (-1, 0, 1):
                    lo = q + shift - k * window
                    if lo < 2:
                        continue
                    hi = min(lo + (k + 1) * window - 5, 10**6 + 1)
                    expected = primes[bisect_left(primes, lo) : bisect_left(primes, hi)]
                    got = arith._sieve_segment(lo, hi, primes)
                    assert got.tolist() == expected, (lo, hi)

    def test_boundary_products_match_reference(self, fresh_trial_primes):
        inputs = [p * q for i, p in enumerate(_BOUNDARY_PRIMES) for q in _BOUNDARY_PRIMES[i:]]
        inputs += [p * m for p in _NEAR_1E12 for m in (1, 2, 1021, 1031, 999983)]
        inputs += [10**12 - 1, 10**12, 10**12 + 1, 1000003**3, 999983**2 * 1000003]
        for p in _BOUNDARY_PRIMES + _NEAR_1E12:
            assert is_prime(p)
        for n in inputs:
            fresh_trial_primes()
            assert factorize(n) == reference_factorize(n), n
            # and again on the array this factorization grew
            assert factorize(n) == reference_factorize(n), n
        assert arith._trial_primes.tolist() == eager_trial_primes()[: len(arith._trial_primes)]

    def test_chunk_edge_products_match_reference(self, fresh_trial_primes):
        # chunks are 256 trial primes each, and the array grows to 172, 1900,
        # 23000 and 78498 primes: the edges are those of the first gcd chunks,
        # of the last complete chunk and of the partial chunk each length leaves
        primes = eager_trial_primes()
        edges = {255, 256, 511, 512}
        for held in (1900, 23000, len(primes)):
            last_complete = held // 256 * 256
            edges |= {last_complete - 1, last_complete, held - 1}
        edge_primes = [primes[i] for i in sorted(edges)]
        assert edge_primes[-1] == 999983
        inputs = [p * q for p, q in zip(edge_primes, edge_primes[1:])]
        inputs += [p**2 for p in edge_primes]
        inputs += [p * 1_000_003 for p in edge_primes]
        inputs += [p**3 * q * 5 for p, q in zip(edge_primes, edge_primes[2:])]
        # a chunk with many factors of n, one of them to a high power
        inputs.append(prod(primes[256:512]) * primes[300] ** 40 * 1_000_003)
        for n in inputs:
            fresh_trial_primes()
            assert factorize(n) == reference_factorize(n), n
            # and again on the array this factorization grew
            assert factorize(n) == reference_factorize(n), n

    def test_chunk_products_are_the_products_of_their_slices(self, fresh_trial_primes):
        # products cached by earlier factorizations, on shorter lists, included
        arith._sieve_through(10**7)
        primes = eager_trial_primes()
        for i in range(1, len(primes) // 256):
            assert arith._chunk_product(i) == prod(primes[256 * i : 256 * (i + 1)]), i

    def test_growth_stops_where_trial_division_does(self, fresh_trial_primes):
        factorize(1021**2)
        assert arith._sieve_end == 1 << 10
        factorize(1031**2)
        assert arith._sieve_end == 1 << 14
        factorize(262139 * 262147)
        assert arith._sieve_end == 1 << 18
        factorize(999983**2)
        assert arith._sieve_end == 10**6 + 1

    def test_small_command_sieves_only_the_first_segment(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import contextlib, io\n"
            "from selfpower import arith, cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['minpoly', '8/27'])\n"
            "print(len(arith._trial_primes))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 172

    def test_concurrent_growth_matches_reference(self, fresh_trial_primes):
        # more threads than cores exhaust the array at the same time and grow
        # it to 1e6; a segment sieved twice or skipped breaks the equalities
        numbers = (
            999_983 * 1_000_003 * 6,
            1_000_003**2 * 16_411,
            262_147 * 999_983,
            1_000_003 * 1_000_033 * 1021,
        )
        expected = [reference_factorize(n) for n in numbers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fresh_trial_primes()
                barrier = threading.Barrier(len(numbers))
                results = [None] * len(numbers)

                def work(i):
                    barrier.wait()
                    results[i] = factorize(numbers[i])

                threads = [threading.Thread(target=work, args=(i,)) for i in range(len(numbers))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == expected
                assert arith._trial_primes.tolist() == eager_trial_primes()
        finally:
            sys.setswitchinterval(interval)


class TestPrimality:
    @given(st.integers(0, 200_000))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_is_prime(n)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 6601, 8911):
            assert not is_prime(n)


class TestPadicValuation:
    # arith._remove_prime(n, p) is (n / p^v, v) with v the p-adic valuation
    def test_examples(self):
        assert arith._remove_prime(12, 2)[1] == 2
        assert arith._remove_prime(12, 5)[1] == 0
        assert arith._remove_prime(6561, 3)[1] == 8

    @given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 10**9))
    def test_exact_exponent(self, p, n):
        v = arith._remove_prime(n, p)[1]
        assert n % p**v == 0
        assert n % p ** (v + 1) != 0

    @given(
        st.sampled_from([2, 3, 5, 1021, 999983, 2**61 - 1]),
        st.integers(0, 600),
        st.integers(1, 10**30),
    )
    @settings(max_examples=300)
    def test_removes_every_power(self, p, v, m):
        expected = padic_valuation_one_at_a_time(p, m)
        assert arith._remove_prime(m * p**v, p) == (m // p**expected, v + expected)

    def test_large_exponents_are_fast(self):
        # one division per unit of the exponent took 0.4-0.7 s on each; by
        # repeated squaring all three take about 15 ms
        start = time.perf_counter()
        assert arith._remove_prime(3**40000 * 7, 3) == (7, 40000)
        assert factorize(3**40000) == ((3, 40000),)
        assert factorize(2**65536 * 5**3) == ((2, 65536), (5, 3))
        assert time.perf_counter() - start < 0.5


class TestIntegerKthRoot:
    def test_examples(self):
        assert integer_kth_root(4096, 4) == 8
        assert 8**4 == 4096
        assert integer_kth_root(10, 2) is None
        assert integer_kth_root(1, 999) == 1

    @given(st.integers(0, 10**9), st.integers(1, 40))
    def test_round_trip(self, m, k):
        assert integer_kth_root(m**k, k) == m

    @given(st.integers(2**64, 2**900), st.integers(3, 14))
    @settings(max_examples=200, deadline=None)
    def test_long_roots_by_newton(self, m, k):
        # roots past 64 bits, which the floor root took by Newton's iteration
        assert integer_kth_root(m**k, k) == m
        assert integer_kth_root(m**k - 1, k) is None
        assert integer_kth_root(m**k + 1, k) is None

    def test_floor_property_on_long_roots(self):
        # the reference floor root brackets n, and the candidate root answers
        # as it does on n and on the power just below n
        rng = random.Random(3)
        for _ in range(500):
            k = rng.randrange(3, 80)
            n = rng.getrandbits(rng.randrange(64 * k, 64 * k + 3000))
            root = _kth_root_floor(n, k)
            assert root**k <= n < (root + 1) ** k, (n, k)
            assert integer_kth_root(n, k) == reference_kth_root(n, k), (n, k)
            assert integer_kth_root(root**k, k) == root, (n, k)

    # exponents from 2 to 10^4: every one up to 40, odd and even, prime and
    # composite, then powers of two, primes and products of both
    _EXPONENTS = [*range(2, 41), 60, 64, 97, 127, 128, 210, 243, 256, 1000]
    _EXPONENTS += [997, 1024, 1875, 4096, 10000]

    @pytest.mark.parametrize("k", _EXPONENTS)
    def test_matches_reference_at_every_root_length(self, k):
        # m**k and m**k +- 1 for a root m of every bit length from 1 to 128,
        # odd at odd lengths and even at even ones; the reference floor root
        # costs about one k-th power
        # per bit of the root, so past 2^14 bits the answer is the one the
        # construction proves: m**k is the k-th power of m, and m**k +- 1 no
        # k-th power, since (m - 1)**k < m**k - 1 < m**k + 1 < (m + 1)**k
        rng = random.Random(k)
        for length in range(1, 129):
            m = 1 << (length - 1) | rng.getrandbits(length - 1)
            m = m | 1 if length % 2 else m & -2 or 2
            n = m**k
            for value in (n - 1, n, n + 1):
                if value.bit_length() <= 1 << 14:
                    expected = reference_kth_root(value, k)
                else:
                    expected = m if value == n else None
                assert integer_kth_root(value, k) == expected, (m, k, value - n)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12, 15, 16, 30, 64])
    def test_even_n_at_every_two_adic_valuation(self, k):
        # n = 2^v * a: a root needs k | v, and the odd part a must be a k-th
        # power itself
        rng = random.Random(100 + k)
        odd_parts = [1, 3, 3**k, 5**k * 7**k, (rng.getrandbits(40) | 1) ** k]
        odd_parts += [3**k + 2, (rng.getrandbits(40) | 1) ** k + 2]
        for v in range(0, 8 * k + 3):
            for a in odd_parts:
                n = a << v
                assert integer_kth_root(n, k) == reference_kth_root(n, k), (v, a)

    def test_root_of_a_small_base_costs_about_one_power(self):
        # the binary search over full k-th powers that found a root of up to
        # 64 bits took 0.63 s here, 16 times one exact power
        n = 60000**60000
        powers, roots = [], []
        for _ in range(3):
            start = time.perf_counter()
            assert 60000**60000 == n
            powers.append(time.perf_counter() - start)
            start = time.perf_counter()
            assert integer_kth_root(n, 60000) == 60000
            roots.append(time.perf_counter() - start)
        assert min(roots) < 3 * min(powers)

    def test_cube_root_of_a_60000_bit_number_is_fast(self):
        n = 1_000_003**2997 * 1_000_033**3
        start = time.perf_counter()
        assert integer_kth_root(n, 3) == 1_000_003**999 * 1_000_033
        assert integer_kth_root(n + 1, 3) is None
        # binary search on the bit-length bracket takes about 8 s
        assert time.perf_counter() - start < 2

    def test_floor_root_one_is_no_root(self):
        # 2 <= n < 2^k has floor root 1; 1**k would take one squaring per
        # bit of k, 106 ms on 2 cores with Python 3.11
        k = 1 << 10_000_000
        start = time.perf_counter()
        assert integer_kth_root(3, k) is None
        assert integer_kth_root((1 << 64) - 1, 64) is None
        assert time.perf_counter() - start < 0.01

    @given(st.integers(1, 10**12), st.integers(2, 8))
    @settings(max_examples=300, deadline=None)
    def test_absence_is_real(self, n, k):
        root = integer_kth_root(n, k)
        if root is None:
            # bracket the would-be root (float seed, exact integer walk)
            # and confirm neither side hits n
            lo = max(1, int(round(n ** (1.0 / k))) - 2)
            while lo**k > n:
                lo -= 1
            while (lo + 1) ** k <= n:
                lo += 1
            assert lo**k < n < (lo + 1) ** k
        else:
            assert root**k == n


class TestPowersEqual:
    @given(
        st.integers(1, 50),
        st.integers(0, 12),
        st.integers(1, 50),
        st.integers(0, 12),
    )
    def test_matches_direct_computation(self, x, p, y, q):
        assert powers_equal(x, p, y, q) == (x**p == y**q)

    def test_huge_exponents_without_materialising(self):
        assert powers_equal(4, 3 * 10**12, 8, 2 * 10**12)
        assert not powers_equal(4, 3 * 10**12, 8, 2 * 10**12 + 1)


class TestLambdaDecompose:
    def test_examples(self):
        assert lambda_decompose(16, 8, 3, 4) == 2
        assert (2**4, 2**3) == (16, 8) and 16**3 == 8**4 == 4096
        assert lambda_decompose(1, 1, 5, 7) == 1
        assert lambda_decompose(9, 27, 3, 2) == 3
        assert 9**3 == 27**2 == 729

    def test_one_root(self, monkeypatch):
        # lam = x^(1/b) is taken once and then raised to a; checking x^a = y^b
        # first took the same root a second time
        roots = []
        real = arith.integer_kth_root

        def counting(n, k):
            roots.append((n, k))
            return real(n, k)

        monkeypatch.setattr(arith, "integer_kth_root", counting)
        assert lambda_decompose(16, 8, 3, 4) == 2
        assert [k for _, k in roots if k > 1] == [4]

    def test_precondition_violation(self):
        with pytest.raises(PreconditionError, match=r"^4\^2 != 9\^3$"):
            lambda_decompose(4, 9, 2, 3)
        # no root (5 is no square), and a root 2 whose cube misses y by value
        # (9) or by size (1, 2^64)
        for x, y, a, b in ((5, 8, 3, 2), (4, 9, 3, 2), (4, 1, 3, 2), (4, 2**64, 3, 2)):
            with pytest.raises(PreconditionError):
                lambda_decompose(x, y, a, b)

    def test_coprimality_required(self):
        with pytest.raises(DomainError):
            lambda_decompose(4, 4, 2, 2)

    def test_brute_force_small(self):
        # scaled-down version of the exhaustive acceptance sweep
        for a in range(1, 5):
            for b in range(1, 5):
                if gcd(a, b) != 1:
                    continue
                for lam in range(1, 20):
                    x, y = lam**b, lam**a
                    if x > 4000 or y > 4000:
                        break
                    assert lambda_decompose(x, y, a, b) == lam


# (t, d, r, s, order of t^t against (r/s)^(1/d)) at the edges of the size
# test that comes before each exact equality a^(a*d) = r^b, b^(a*d) = s^b:
# x^p has between p*(bits(x) - 1) + 1 and p*bits(x) bits
_ROOT_CASES = [
    # a^(a*d) = r^b holds exactly, with b^(a*d) = s^b too
    (Fraction(9, 4), 2, 3**9, 2**9, Ordering.EQUAL),
    (Fraction(4), 1, 256, 1, Ordering.EQUAL),
    (Fraction(2), 1, 4, 1, Ordering.EQUAL),
    # a^(a*d) = r^b holds exactly and b^(a*d) = s^b does not: 4^18 has 37 to
    # 54 bits, 511^4 33 to 36 (one bit short) and 514^4 37 to 40 (one shared)
    (Fraction(9, 4), 2, 3**9, 511, Ordering.LESS),
    (Fraction(9, 4), 2, 3**9, 514, Ordering.GREATER),
    (Fraction(8, 3), 1, 256, 5, Ordering.LESS),
    (Fraction(8, 3), 1, 256, 1, Ordering.LESS),
    # 2^2 has 3 to 4 bits: r = 16 (5 bits) and r = 3 (2 bits) miss it by one
    # bit, r = 15 (4 bits) shares one
    (Fraction(2), 1, 16, 1, Ordering.LESS),
    (Fraction(2), 1, 3, 1, Ordering.GREATER),
    (Fraction(2), 1, 15, 1, Ordering.LESS),
    # 3^12 has 13 to 24 bits: 7^4 (9 to 12) and 64^4 (25 to 28) miss it by
    # one bit, 8^4 (13 to 16) overlaps it
    (Fraction(3, 4), 4, 7, 1, Ordering.LESS),
    (Fraction(3, 4), 4, 64, 1, Ordering.LESS),
    (Fraction(3, 4), 4, 8, 1, Ordering.LESS),
]


class TestSelfPowerComparators:
    def test_rational_examples(self):
        assert (
            compare_self_power_to_rational(Fraction(1, 2), Fraction(1, 2))
            is Ordering.GREATER
        )
        assert 1**1 * 2**2 == 4 > 2 == 2**1 * 1**2  # the cross form
        assert compare_self_power_to_rational(Fraction(1), Fraction(1)) is Ordering.EQUAL
        assert compare_self_power_to_rational(Fraction(2), Fraction(4)) is Ordering.EQUAL
        for t, d, q, s, expected in _ROOT_CASES:
            if d == 1:
                got = compare_self_power_to_rational(t, Fraction(q, s))
                assert got is expected, (t, q, s)

    def test_root_examples(self):
        assert compare_self_power_to_root(Fraction(1, 2), 2, 1, 2) is Ordering.EQUAL
        assert compare_self_power_to_root(Fraction(1, 4), 2, 1, 2) is Ordering.EQUAL
        assert compare_self_power_to_root(Fraction(2), 1, 3, 1) is Ordering.GREATER
        for t, d, r, s, expected in _ROOT_CASES:
            a, b = t.numerator, t.denominator
            lhs, rhs = a ** (a * d) * s**b, b ** (a * d) * r**b
            assert Ordering.of_sign((lhs > rhs) - (lhs < rhs)) is expected
            assert compare_self_power_to_root(t, d, r, s) is expected, (t, d, r, s)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            compare_self_power_to_rational(Fraction(-1, 2), Fraction(1, 2))
        with pytest.raises(DomainError):
            compare_self_power_to_root(Fraction(1, 2), 2, 2, 4)  # gcd(r, s) != 1

    def test_oracle_agreement_sampled(self):
        # 50-digit numeric oracle; disagreement only tolerated inside 1e-30
        mp.mp.dps = 50
        rng = random.Random(12345)
        for _ in range(400):
            t = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            q = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            got = compare_self_power_to_rational(t, q)
            tt = mp.mpf(t.numerator) / t.denominator
            qq = mp.mpf(q.numerator) / q.denominator
            gap = tt**tt - qq
            if abs(gap) > mp.mpf("1e-30"):
                expected = Ordering.GREATER if gap > 0 else Ordering.LESS
                assert got is expected, (t, q, got, gap)

    def test_consistency_at_degree_one(self):
        rng = random.Random(99)
        for _ in range(200):
            t = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            q = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert compare_self_power_to_rational(t, q) is compare_self_power_to_root(
                t, 1, q.numerator, q.denominator
            )

    def test_huge_dyadic_denominator(self):
        # comparisons far beyond any materialisable power
        t = Fraction(3_351_079_888, 2**31)
        assert compare_self_power_to_rational(t, Fraction(2)) in (
            Ordering.LESS,
            Ordering.GREATER,
        )

    def test_log_path_matches_direct(self, monkeypatch):
        rng = random.Random(5)
        cases = [
            (
                Fraction(rng.randint(1, 40), rng.randint(1, 40)),
                Fraction(rng.randint(1, 40), rng.randint(1, 40)),
            )
            for _ in range(300)
        ]
        direct = [compare_self_power_to_rational(t, q) for t, q in cases]
        monkeypatch.setattr(arith, "BIT_CAP", 1)
        assert [compare_self_power_to_rational(t, q) for t, q in cases] == direct


class TestComparePowerProducts:
    def test_empty_products(self):
        assert compare_power_products([], []) is Ordering.EQUAL
        assert compare_power_products([(2, 1)], [(1, 5)]) is Ordering.GREATER

    def test_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            compare_power_products([(0, 1)], [(2, 1)])

    def test_equal_products_on_the_log_path_name_the_precision_cap(self, monkeypatch):
        # 2^2 = 4^1: equal enclosures at every precision up to the cap
        monkeypatch.setattr(arith, "BIT_CAP", 1)
        with pytest.raises(ResourceError) as exc:
            compare_power_products([(2, 2)], [(4, 1)])
        assert str(exc.value) == (
            "comparison unresolved at the log2 precision cap of 65536 bits; "
            "operands may be equal"
        )

    @given(
        st.lists(st.tuples(st.integers(1, 20), st.integers(0, 10)), max_size=3),
        st.lists(st.tuples(st.integers(1, 20), st.integers(0, 10)), max_size=3),
    )
    @settings(max_examples=300)
    def test_matches_direct_products(self, lhs, rhs):
        lprod = rprod = 1
        for b, e in lhs:
            lprod *= b**e
        for b, e in rhs:
            rprod *= b**e
        expected = Ordering.of_sign((lprod > rprod) - (lprod < rprod))
        assert compare_power_products(lhs, rhs) is expected

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ([(3, 20000)], [(9, 10000)]),
            ([(6, 3000)], [(2, 3000), (3, 3000)]),
        ],
    )
    def test_equal_products_under_the_bit_cap_compare_equal(self, lhs, rhs):
        # past the direct limit the 64-bit enclosure comes first; it cannot
        # separate equal products, which are then materialised, not refined
        bits = max(sum(e * b.bit_length() for b, e in side) for side in (lhs, rhs))
        assert arith._DIRECT_BITS < bits <= arith.BIT_CAP
        start = time.perf_counter()
        assert compare_power_products(lhs, rhs) is Ordering.EQUAL
        assert compare_power_products(rhs, lhs) is Ordering.EQUAL
        assert time.perf_counter() - start < 1.0

    def test_log_first_order_matches_materialised_order(self):
        # products of 10^4 to 10^6 bits: random ones, and the two sides of
        # t^t vs q at adjacent dyadic midpoints t next to the root of x^x = q,
        # where they are closest
        rng = random.Random(31)
        cases = []
        for _ in range(60):
            lhs, rhs = [], []
            for side in (lhs, rhs):
                for _ in range(rng.randint(1, 3)):
                    base = rng.randrange(2, 1 << rng.randint(2, 64))
                    side.append((base, rng.randint(10**4, 3 * 10**5) // base.bit_length()))
            cases.append((lhs, rhs))
        for _ in range(12):
            den = rng.choice((1, 2, 3, 7))
            q = Fraction(rng.randint(den + 1, 10**3), den)
            if q.denominator == 1 and any(j**j == q for j in range(2, 6)):
                continue
            root = classify_preimage(q, Fraction(1, 2**30)).interval[0]
            # the odd numerators keep the denominator at 2^k
            k = rng.randint(11, 13)
            j = int(root * 2 ** (k - 1))
            for t in (Fraction(2 * j + i, 2**k) for i in (-1, 1, 3)):
                a, b = t.numerator, t.denominator
                m, n = q.numerator, q.denominator
                cases.append(([(a, a), (n, b)], [(b, a), (m, b)]))
        for lhs, rhs in cases:
            bits = max(sum(e * b.bit_length() for b, e in side) for side in (lhs, rhs))
            assert 10**4 <= bits <= 10**6, (lhs, rhs)
            lprod, rprod = prod(b**e for b, e in lhs), prod(b**e for b, e in rhs)
            expected = Ordering.of_sign((lprod > rprod) - (lprod < rprod))
            assert compare_power_products(lhs, rhs) is expected, (lhs, rhs)


def _certificate_pairs(rng, ks):
    # the two sides a^a * n^b and b^a * m^b of t^t vs q = m/n, at t = a/2^k
    # with odd a next to the root of x^x = q, where the sides are closest
    pairs = []
    for k in ks:
        den = rng.choice((1, 2, 3, 7))
        q = Fraction(rng.randint(den + 1, 10**3), den)
        if q.denominator == 1 and any(j**j == q for j in range(2, 6)):
            q += 1
        root = classify_preimage(q, Fraction(1, 2 ** (k + 2))).interval[0]
        j = int(root * 2 ** (k - 1))
        for t in (Fraction(2 * j + i, 2**k) for i in (-1, 1, 3)):
            a, b = t.numerator, t.denominator
            m, n = q.numerator, q.denominator
            pairs.append(([(a, a), (n, b)], [(b, a), (m, b)]))
    return pairs


@pytest.fixture
def tried_rungs(monkeypatch):
    """The precision of every log2 order compare_power_products tries."""
    tried = []
    real = arith._log2_order

    def recording(left, right, rung):
        tried.append(rung)
        return real(left, right, rung)

    monkeypatch.setattr(arith, "_log2_order", recording)
    return tried


class TestStartPrecision:
    RUNGS = [arith._LOG_START_PRECISION << j for j in range(11)]

    def test_every_start_rung_gives_the_default_order(self):
        # k = 12 stays under the bit cap, where the default start multiplies
        # out whenever 64 bits cannot decide; k = 16, 100 and 300 give
        # near-equal products past it, where the default climbs the ladder.
        # One enclosure of an odd base takes about 0.3 s at 2^15 bits and
        # 1.4 s at 2^16, so the random pairs stop at 8192 bits and the upper
        # rungs run on bases that are powers of two.
        rng = random.Random(2026)
        for lhs, rhs in _certificate_pairs(rng, (12, 12, 16, 100, 100, 300)):
            default = compare_power_products(lhs, rhs)
            for rung in self.RUNGS[:8]:
                assert compare_power_products(lhs, rhs, prec=rung) is default, (lhs, rhs, rung)
            bits = max(sum(e * b.bit_length() for b, e in side) for side in (lhs, rhs))
            if bits <= arith.BIT_CAP:
                lprod, rprod = prod(b**e for b, e in lhs), prod(b**e for b, e in rhs)
                assert default is Ordering.of_sign((lprod > rprod) - (lprod < rprod))
        lhs, rhs = [(2, 3 * arith.BIT_CAP + 1)], [(8, arith.BIT_CAP)]
        for rung in self.RUNGS + [arith._MAX_LOG_PRECISION << 1]:
            assert compare_power_products(lhs, rhs, prec=rung) is Ordering.GREATER
            assert compare_power_products(rhs, lhs, prec=rung) is Ordering.LESS

    @pytest.mark.parametrize(
        "prec, first",
        [(1, 64), (64, 64), (65, 128), (100, 128), (3000, 4096), (1 << 16, 1 << 16),
         ((1 << 16) + 1, 1 << 16), (1 << 40, 1 << 16)],
    )
    def test_start_is_the_first_rung_at_or_above_prec_clamped_at_the_cap(
        self, monkeypatch, tried_rungs, prec, first
    ):
        # 2^2 = 4^1 past a bit cap of 1: every rung overlaps, so the ladder
        # is climbed from the start to the cap and only then refused
        monkeypatch.setattr(arith, "BIT_CAP", 1)
        with pytest.raises(ResourceError) as exc:
            compare_power_products([(2, 2)], [(4, 1)], prec=prec)
        assert str(exc.value) == (
            "comparison unresolved at the log2 precision cap of 65536 bits; "
            "operands may be equal"
        )
        assert tried_rungs == self.RUNGS[self.RUNGS.index(first) :]

    def test_self_power_comparators_pass_the_start_on(self, tried_rungs):
        t = Fraction(3_351_079_888, 2**31)
        default = compare_self_power_to_rational(t, Fraction(2))
        assert tried_rungs == [64]
        assert compare_self_power_to_rational(t, Fraction(2), prec=200) is default
        assert compare_self_power_to_root(t, 1, 2, 1, prec=1000) is default
        assert tried_rungs == [64, 256, 1024]
