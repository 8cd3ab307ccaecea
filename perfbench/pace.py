"""The host's speed, measured beside the program with a fixed reference loop.

The benchmark runs on a shared host whose speed on interpreter-bound code
drifts by 20-40 % over seconds to minutes, while the program's work stays the
same: the same block of operations, repeated for a minute, took from 1.4 s to
2.6 s.  Raw wall times therefore spread between runs more than a regression
the benchmark must catch.

So the end-to-end times are scaled to a reference speed.  ``Pace`` times a
reference loop -- fixed pure-Python work, none of it the program's code --
before and after every chunk of operations (about 100 ms of them), and scales
each operation's wall time by the loop's reference time over its mean time
around the chunk.  A change to the program moves the operations' times but
not the loop's, so it shows in full; a slower or faster host moves both, and
cancels.

The host's drift does not slow every kind of code alike, so each workload is
paced by the loop that does the kind of work its operations do (the
``Workload.pace_loop`` attribute):

- ``SMALL``: small-integer loops, dicts and fractions, like the denominator
  scan, the parser and interpreter start-up;
- ``BIG``: fixed-point squaring of 512-bit integers besides half of the
  above, like the bit-by-bit logarithms of the certificates and Pollard rho;
- ``CHILD``: a fresh interpreter that imports a few standard modules and runs
  a small-integer loop, like a CLI call; timed every 0.5 s of operations, as
  it costs about 0.1 s.

Timed beside the same block of operations repeated for a minute or more,
loops of these two kinds cut the spread of the block's time from 0.22 to 0.07
on solve_scan (SMALL), 0.15 to 0.06 on certify and 0.23 to 0.05 on
solve_divisors (BIG).  The other kind did worse on each of them:
solve_scan's times moved 0.7 times as much as BIG's time, certify's and
solve_divisors' 1.3 times as much as SMALL's.  On cli, whose operations run
in child processes, SMALL in the benchmark's own process tracked the host no
better than nothing (ten runs spread 0.15 scaled, 0.10 unscaled), so cli is
paced by CHILD.

The reference times are about each loop's median time between operations on
the 2-core VM the baseline was measured on (Python 3.11), so scaled times read
close to raw milliseconds there.  Raw times are reported beside the scaled
ones.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable, NamedTuple


def _small_work():
    x = 0
    for i in range(1500):
        x = (x * 31 + i) % 1000003
    m, y = 2**61 - 1, 3
    for _ in range(1000):
        y = (y * y + 1) % m
    d = {}
    for i in range(500):
        d[i % 97] = d.get(i % 97, 0) + i
    q = Fraction(1)
    for i in range(1, 30):
        q += Fraction(1, i)
    return x, y, d, q


def small_loop():
    """Small-integer and object work."""
    return _small_work(), _small_work()


def big_loop():
    """Fixed-point squaring of 512-bit integers, then half of small_loop."""
    f = 512
    two, z = 2 << f, 3 << (f - 1)
    for _ in range(1500):
        z = (z * z) >> f
        if z >= two:
            z >>= 1
    return z, _small_work()


_CHILD_CODE = """
import argparse, json, fractions
x = 0
for i in range(20000):
    x = (x * 31 + i) % 1000003
"""


def child_loop():
    """Start-up, imports and small-integer work in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", _CHILD_CODE], check=True, timeout=60)


class Loop(NamedTuple):
    run: Callable[[], object]
    #: the loop's time at the reference speed
    reference_ns: int
    #: operation time between two timings of the loop
    chunk_ns: int = 100_000_000
    #: runs per timing; 2.5-4 ms of SMALL or BIG, about 3 % of a run
    reps: int = 2


SMALL = Loop(small_loop, 1_300_000)
BIG = Loop(big_loop, 2_000_000)
CHILD = Loop(child_loop, 115_000_000, chunk_ns=500_000_000, reps=1)


def loop_ns(loop: Loop, reps: int | None = None) -> float:
    """Mean time of one run of loop over reps runs (loop.reps by default)."""
    reps = reps or loop.reps
    start = perf_counter_ns()
    for _ in range(reps):
        loop.run()
    return (perf_counter_ns() - start) / reps


class Pace:
    """Scale factors for consecutive chunks of operations."""

    def __init__(self, loop: Loop):
        self.loop = loop
        loop.run()  # the first run pays for warming the interpreter
        self.last = loop_ns(loop)
        #: every scale factor handed out, for the report
        self.factors: list[float] = []

    def factor(self) -> float:
        """The reference time over the loop's mean time before and after the
        chunk that just ended; the timing after it is the one before the next."""
        now = loop_ns(self.loop)
        factor = 2 * self.loop.reference_ns / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor
