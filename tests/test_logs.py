"""Enclosure properties of the fixed-point logarithm machinery.

mpmath supplies the high-precision oracle; its working precision is scaled
with the enclosure precision so the oracle is never the weaker side.
"""

import os
import random
import subprocess
import sys
import types
from math import isqrt
from pathlib import Path

import mpmath as mp
import pytest

from selfpower import DomainError, denominator_bound, leading_denominator_bound
from selfpower import arith
from selfpower.arith import (
    _atanh_sums,
    _ln2_interval,
    _ln_mantissa,
    integer_below,
    ln_interval,
    log2_interval,
)


def _set_dps(prec_bits):
    mp.mp.dps = int(prec_bits * 0.302) + 30


def _oracle_log2(n, prec):
    # 2**prec * log2(n), with n itself held exactly by the oracle
    _set_dps(prec + n.bit_length())
    return mp.log(n, 2) * (1 << prec)


def reference_log2_interval(n, prec):
    """An independent enclosure: the classical square-and-extract loop, one
    binary digit per squaring, run once rounding down and once rounding up at
    2*prec + 32 working bits, prec more than its error bound needs."""
    k = n.bit_length() - 1
    if n == 1 << k:
        return k << prec, k << prec
    f = 2 * prec + 32
    one, two = 1 << f, 2 << f
    ends = []
    for x, round_up in (((n << f) >> k, False), (((n << f) >> k) + 1, True)):
        acc = 0
        for _ in range(prec):
            x *= x
            x = (x + one - 1) >> f if round_up else x >> f
            acc <<= 1
            if x >= two:
                acc |= 1
                x = (x + 1) >> 1 if round_up else x >> 1
        ends.append((k << prec) + acc)
    return ends[0], ends[1] + 1


def reference_atanh_sums(z_lo, z_hi, w):
    """Two-sided 2^w atanh(z) for z_lo <= 2^w z <= z_hi, 0 <= z <= 1/2: floored
    terms for the lower end; ceiled terms and the tail bound 2P for the upper
    end, P the first ceiled power <= 1."""
    lo = 0
    z2 = z_lo * z_lo >> w
    power, j = z_lo, 1
    while power:
        lo += power // j
        power = power * z2 >> w
        j += 2
    hi = 0
    z2 = -(-z_hi * z_hi >> w)
    power, j = z_hi, 1
    while power > 1:
        hi -= -power // j
        power = -(-power * z2 >> w)
        j += 2
    return lo, hi + 2 * power


def reference_root_chains(n, k, r, w):
    """r square roots of 2^w n / 2^k, floored from below and ceiled from one
    unit above."""
    y_lo = n >> (k - w) if k >= w else n << (w - k)
    y_hi = y_lo + 1
    for _ in range(r):
        y_lo = isqrt(y_lo << w)
        y_hi = isqrt((y_hi << w) - 1) + 1
    return y_lo, y_hi


def reference_ln_mantissa(n, k, r, w):
    """Enclosure of 2^w ln(n / 2^k) from both root chains and both series,
    every step rounded towards its own end."""
    y_lo, y_hi = reference_root_chains(n, k, r, w)
    one = 1 << w
    z_lo = ((y_lo - one) << w) // (y_lo + one)
    z_hi = -((-(y_hi - one) << w) // (y_hi + one))
    lo, hi = reference_atanh_sums(z_lo, z_hi, w)
    return lo << (r + 1), hi << (r + 1)


def _adversarial_n(ks):
    # n just off a power of two, around 2^(k + 1/2), and powers of 3: their
    # logarithms lie close to multiples of 2^-prec, where the two rounding
    # sequences part
    ns = []
    for k in ks:
        root = isqrt(1 << (2 * k + 1))
        ns += [(1 << k) - 1, (1 << k) + 1, root, root + 1, 3**k]
    return [n for n in dict.fromkeys(ns) if n >= 1]


_ADVERSARIAL_KS = (
    list(range(1, 70))
    + [127, 128, 129, 255, 256, 257, 511, 512, 1000, 1023, 1024, 1025]
    + [1500, 2047, 2048, 2049, 2999, 3000]
)


# 1-16 bits: the guard bits are tightest there, with few working bits and roots
_TINY_PRECS = list(range(1, 17))


@pytest.mark.parametrize("prec", _TINY_PRECS + [53, 64, 128, 512, 1024, 2048, 4096])
def test_log2_interval_encloses(prec):
    rng = random.Random(prec)
    for _ in range(200):
        n = rng.getrandbits(rng.randrange(1, 4000)) | 1
        lo, hi = log2_interval(n, prec)
        v = _oracle_log2(n, prec)
        assert lo <= v <= hi, (n, prec)
        assert hi - lo <= 2, (n, prec)


@pytest.mark.parametrize("prec", [4, 64, 256, 1024, 2048, 4096])
def test_log2_interval_encloses_adversarial_n(prec):
    for n in _adversarial_n(_ADVERSARIAL_KS):
        lo, hi = log2_interval(n, prec)
        v = _oracle_log2(n, prec)
        assert lo <= v <= hi, (n.bit_length(), prec)
        assert hi - lo <= 2, (n.bit_length(), prec)


@pytest.mark.parametrize("prec", [4, 16, 64, 256, 1024, 2048, 4096])
def test_log2_interval_within_two_ulps_of_reference(prec):
    # two enclosures of width <= 2 around the same value differ by 2 ulps at
    # most at either end; the reference costs 2*prec squarings, so the large
    # precisions take fewer cases
    rng = random.Random(1000 + prec)
    if prec <= 1024:
        count, ks = 40, [1, 2, 3, 31, 32, 33, 64, 255, 1024, 3000]
    else:
        count, ks = 4, [1, 33, 3000]
    ns = [rng.getrandbits(rng.randrange(1, 4000)) | 1 for _ in range(count)]
    for n in ns + _adversarial_n(ks):
        lo, hi = log2_interval(n, prec)
        ref_lo, ref_hi = reference_log2_interval(n, prec)
        assert abs(lo - ref_lo) <= 2 and abs(hi - ref_hi) <= 2, (n.bit_length(), prec)


def _steps(f):
    return {q for p in range(2, 4097) if f(p) != f(p - 1) for q in (p - 1, p)}


# up to 4096 bits, the first and the last precision of each square-root count,
# and of each half-step isqrt(p) // 2 in between
_ROOT_COUNT_PRECS = sorted(
    {1, 4096} | _steps(arith._root_count) | _steps(lambda p: isqrt(p) // 2)
)


@pytest.mark.parametrize("prec", _ROOT_COUNT_PRECS)
def test_log2_interval_encloses_mantissas_near_one_and_two(prec):
    # n / 2^k just above 1, where the square roots leave y within a few ulps
    # of 1 (or exactly 1 past the working precision), just below 2, where y
    # is largest, and random in between
    rng = random.Random(prec)
    ns = [3]
    for k in (1, 2, 8, 64, prec, prec + 20, prec + 80):
        ns += [(1 << k) + 1, (1 << k) + 3, (2 << k) - 1, (2 << k) - 3]
        ns += [(1 << k) | rng.getrandbits(k) for _ in range(2)]
    r = arith._root_count(prec)
    w = prec + r + arith._LOG_GUARD_BITS + prec.bit_length()
    for n in ns:
        lo, hi = log2_interval(n, prec)
        v = _oracle_log2(n, prec)
        assert lo <= v <= hi, (n.bit_length(), prec)
        assert hi - lo <= 2, (n.bit_length(), prec)
        # the upper end rests on the floored root chain plus 4 and on a bound
        # for the floored series: the ceiled chain must end within that, the
        # lower ends are the same computation, and the upper end is the wider
        k = n.bit_length() - 1
        y_lo, y_hi = reference_root_chains(n, k, r, w)
        assert y_lo < y_hi <= y_lo + 4, (n.bit_length(), prec)
        lo, hi = _ln_mantissa(n, k, r, w)
        ref_lo, ref_hi = reference_ln_mantissa(n, k, r, w)
        assert lo == ref_lo and hi >= ref_hi, (n.bit_length(), prec)


@pytest.mark.parametrize("w", [8, 16, 64, 256, 1024, 4096])
def test_one_sided_atanh_sums_cover_the_ceiled_series(w):
    rng = random.Random(w)
    half = 1 << (w - 1)
    # z up to 1/2, where the series is longest, and z of every magnitude
    zs = [0, 1, 2, half // 3, half - 3] + [rng.randrange(half - 3) for _ in range(12)]
    zs += [rng.randrange(1 << max(1, w - rng.randrange(1, w))) for _ in range(48)]
    for z_lo in zs:
        for spread in range(4):
            lo, hi = _atanh_sums(z_lo, z_lo + spread, w)
            ref_lo, ref_hi = reference_atanh_sums(z_lo, z_lo + spread, w)
            assert lo == ref_lo and hi >= ref_hi, (z_lo, spread, w)


def test_log2_exact_on_powers_of_two():
    for k in range(0, 80):
        lo, hi = log2_interval(1 << k, 64)
        assert lo == hi == k << 64


@pytest.mark.parametrize("prec", _TINY_PRECS + [64, 128, 1024, 2048, 4096])
def test_ln2_interval(prec):
    _set_dps(prec)
    lo, hi = _ln2_interval(prec)
    v = mp.ln(2) * (1 << prec)
    assert lo <= v <= hi
    assert hi - lo <= 2


def test_ln2_interval_at_every_precision():
    for prec in [*range(1, 4097), 1 << 14]:
        _set_dps(prec)
        lo, hi = _ln2_interval(prec)
        v = mp.ln(2) * (1 << prec)
        assert lo <= v <= hi, prec
        assert hi - lo <= 2, prec


def test_ln2_interval_at_the_top_rung_is_fast():
    # a fresh process holds no cached enclosure; 2 atanh(1/3) on integers of
    # the full width took about 31 s (2 cores, Python 3.11)
    code = (
        "import time; from selfpower import arith; t = time.perf_counter(); "
        "arith._ln2_interval(1 << 16); print(time.perf_counter() - t)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 5


@pytest.mark.parametrize("n", [2, 3, 10, 6561, 2**64 + 1, 40**40 + 7])
def test_ln_interval_encloses(n):
    prec = 96
    _set_dps(prec)
    lo, hi = ln_interval(n, prec)
    v = mp.ln(n) * (1 << prec)
    assert lo <= v <= hi, n
    assert hi - lo <= 8


@pytest.mark.parametrize("prec", _TINY_PRECS + [64, 96, 1024, 4096])
def test_ln_interval_encloses_random_and_edge_n(prec):
    rng = random.Random(prec)
    ns = [rng.getrandbits(rng.randrange(1, 4000)) | 1 for _ in range(40)]
    ns += [1 << 4000, (1 << 4000) + 1, (1 << 4001) - 1, 65536, 65537]
    for n in ns:
        lo, hi = ln_interval(n, prec)
        _set_dps(prec + n.bit_length())
        v = mp.ln(n) * (1 << prec)
        assert lo <= v <= hi, (n.bit_length(), prec)
        assert hi - lo <= 2, (n.bit_length(), prec)


class TestIntegerBelow:
    """integer_below(c, n, log_interval): the largest integer strictly below
    c * log(n).  TestDenominatorBounds checks its two callers against mpmath."""

    def test_examples(self):
        # log2 of a power of two and ln 1 are integers, enclosed exactly
        assert integer_below(3, 4, log2_interval) == 5
        assert integer_below(3 * 2**70, 2**70, log2_interval) == 210 * 2**70 - 1
        assert integer_below(5, 1, ln_interval) == -1
        # the other logarithms are irrational
        assert integer_below(8, 2, ln_interval) == 5  # 5.545
        assert integer_below(9, 3, log2_interval) == 14  # 14.26
        assert integer_below(1, 3, ln_interval) == 1  # 1.0986

    def test_first_enclosure_is_64_bits_past_c(self):
        precs = []

        def recording(n, prec):
            precs.append(prec)
            return ln_interval(n, prec)

        assert integer_below(36, 9, recording) == 79
        assert precs == [70]  # c = 36 has 6 bits

    def test_enclosure_straddling_an_integer_is_refined(self):
        # an enclosure whose ends, times c, floor apart decides nothing: the
        # precision doubles until they agree, whatever the first width was
        precs = []

        def wide_at_first(n, prec):
            precs.append(prec)
            lo, hi = ln_interval(n, prec)
            return (lo, hi + (1 << prec)) if len(precs) == 1 else (lo, hi)

        assert integer_below(8, 2, wide_at_first) == 5
        assert precs == [68, 136]


def _bound_test_values(seed):
    """Integers of 2 to 8000 bits: random ones of log-uniform bit length,
    2^k - 1, 2^k and 2^k + 1, and two where a 96-bit logarithm makes the
    bounds 17 and 6.1e31 too large."""
    rng = random.Random(seed)
    values = []
    for _ in range(600):
        bits = min(8000, round(2 ** rng.uniform(1, 13)))
        values.append(rng.getrandbits(bits) | 1 << (bits - 1))
    for k in (2, 3, 8, 31, 32, 63, 64, 65, 96, 127, 1000, 4096, 7999):
        values += [2**k - 1, 2**k, 2**k + 1]
    return values + [2**100 + 3, 2**200 + 1]


def _mp_floor(value, n):
    """floor(value()) by mpmath at 160 bits past n's length, for a value c *
    log(n) with c < 8n, so below 2^(n.bit_length() + 20); the oracle must
    itself decide the floor at that precision."""
    with mp.workprec(n.bit_length() + 160):
        v = value()
        floor = mp.floor(v)
        if not 2**-64 < v - floor < 1 - 2**-64:
            raise AssertionError(f"the oracle cannot decide the floor at {n}")
        return int(floor)


def _expected_denominator_bound(d):
    return _mp_floor(lambda: 4 * d * mp.ln(d), d)


def _expected_leading_bound(a):
    # ceil(3|A| log2|A|) - 1: one below the integer 3|A|k when |A| = 2^k,
    # and otherwise the floor of an irrational number
    k = a.bit_length() - 1
    if a == 1 << k:
        return 3 * a * k - 1
    return _mp_floor(lambda: 3 * a * mp.log(a, 2), a)


class TestDenominatorBounds:
    """floor(4 d ln d) and ceil(3|A| log2|A|) - 1, exactly, at every size up
    to the literal cap."""

    def test_degree_bound_from_2_to_8000_bits(self):
        for d in _bound_test_values(11):
            assert denominator_bound(d) == _expected_denominator_bound(d), d

    def test_leading_bound_from_2_to_8000_bits(self):
        for a in _bound_test_values(13):
            assert leading_denominator_bound(a) == _expected_leading_bound(a), a
            assert leading_denominator_bound(-a) == _expected_leading_bound(a), a

    def test_at_the_literal_cap(self):
        n = 2**65536 - 1
        assert denominator_bound(n) == _expected_denominator_bound(n)
        assert leading_denominator_bound(n) == _expected_leading_bound(n)


def test_ln_of_one_is_exact():
    assert ln_interval(1, 64) == (0, 0)


def test_log_rejects_nonpositive():
    # validated before the cache, which never sees these
    cached = arith._log2_interval.cache_info().currsize
    for n in (0, -1, -(2**70)):
        with pytest.raises(DomainError):
            log2_interval(n, 16)
    assert arith._log2_interval.cache_info().currsize == cached


def test_log2_interval_is_a_plain_function():
    # instrumentation wraps plain functions only; the cache sits behind it
    assert isinstance(log2_interval, types.FunctionType)


def test_cached_enclosures_equal_first_calls():
    rng = random.Random(23)
    cases = [
        (rng.getrandbits(rng.randrange(8, 400)) | 1, prec)
        for prec in (16, 64, 128, 256)
        for _ in range(30)
    ]
    cases = list(dict.fromkeys(cases))
    arith._log2_interval.cache_clear()
    first = [log2_interval(n, prec) for n, prec in cases]
    assert arith._log2_interval.cache_info().hits == 0
    assert [log2_interval(n, prec) for n, prec in cases] == first
    assert arith._log2_interval.cache_info().hits == len(cases)
    uncached = arith._log2_interval.__wrapped__
    assert [uncached(n, prec) for n, prec in cases] == first


def test_log2_cache_is_bounded():
    maxsize = arith._log2_interval.cache_info().maxsize
    assert maxsize is not None and maxsize <= 1024

