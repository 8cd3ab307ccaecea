"""Enclosure properties of the fixed-point logarithm machinery.

mpmath supplies the high-precision oracle; its working precision is scaled
with the enclosure precision so the oracle is never the weaker side.
"""

import random
import types

import mpmath as mp
import pytest

from selfpower import DomainError
from selfpower import arith
from selfpower.arith import (
    _ln2_interval,
    floor_of_multiple_ln,
    ln_interval,
    log2_interval,
)


def _set_dps(prec_bits):
    mp.mp.dps = int(prec_bits * 0.302) + 30


@pytest.mark.parametrize("prec", [4, 8, 16, 53, 64, 128, 512])
def test_log2_interval_encloses(prec):
    _set_dps(prec)
    rng = random.Random(prec)
    for _ in range(200):
        n = rng.getrandbits(rng.randrange(1, 200)) | 1
        lo, hi = log2_interval(n, prec)
        v = mp.log(n, 2) * (1 << prec)
        assert lo <= v <= hi, (n, prec)
        assert hi - lo <= 6


def test_log2_exact_on_powers_of_two():
    for k in range(0, 80):
        lo, hi = log2_interval(1 << k, 64)
        assert lo == hi == k << 64


@pytest.mark.parametrize("prec", [8, 64, 128, 1024])
def test_ln2_interval(prec):
    _set_dps(prec)
    lo, hi = _ln2_interval(prec)
    v = mp.ln(2) * (1 << prec)
    assert lo <= v <= hi
    assert hi - lo <= 4


@pytest.mark.parametrize("n", [2, 3, 10, 6561, 2**64 + 1, 40**40 + 7])
def test_ln_interval_encloses(n):
    prec = 96
    _set_dps(prec)
    lo, hi = ln_interval(n, prec)
    v = mp.ln(n) * (1 << prec)
    assert lo <= v <= hi, n
    assert hi - lo <= 8


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


def test_floor_of_multiple_ln_known_values():
    # floor(4 d ln d) for the spec's bound arguments, cross-checked numerically
    mp.mp.dps = 40
    for d in (2, 3, 9, 40, 137):
        expected = int(mp.floor(4 * d * mp.ln(d)))
        assert floor_of_multiple_ln(4 * d, d) == expected
