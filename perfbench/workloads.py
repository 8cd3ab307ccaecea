"""The benchmark's four workloads: seeded inputs, one operation as a user runs
it, and an oracle known by construction for every output.

A workload turns a seed into a stream of blocks of operations.  Inputs are
stratified: the seed and the block number pick the numbers inside each
stratum, while the strata (degrees, widths, command mix) are the same in
every block, so the cost of a block hardly depends on the seed.  Outputs are
rendered as sorted-key JSON, so a block's outputs can be digested and compared
byte for byte between runs.

Oracles.  A solution x = a/b of x^x = (r/s)^(1/d) must satisfy the integer
identity a^(a*d) * s^b = b^(a*d) * r^b, which the benchmark tests itself.
Planted targets are built here from (a/b)^(a/b) and must report a/b.
Unplanted targets use a prime r, which admits no solution: a^(a*d) = r^b
forces a = r^j with b = j*a*d, so r would divide gcd(a, b) = 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter_ns

import program
from pace import BIG, CHILD, SMALL

sp, spcli = program.load()


@dataclass(frozen=True)
class Op:
    """One operation: its stratum, the program's inputs, and the oracle data."""

    kind: str
    args: tuple
    expect: object = None


class OpFailed(Exception):
    """The program refused an operation: a typed error (exit 2, 3 or 4) or,
    for the CLI, a crash."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class WrongAnswer(Exception):
    """An output disagrees with its oracle."""


_EXIT_KINDS = {2: "parse", 3: "domain", 4: "resource"}

#: Label of a CLI call that ended in an uncaught exception (exit status 1).
#: It is counted as a failure, not as a wrong answer: no answer was printed.
CRASH = "crash"


def error_kind(exc: Exception) -> str:
    """The CLI's label for a typed error: parse, domain or resource."""
    if isinstance(exc, OpFailed):
        return exc.kind
    if isinstance(exc, sp.ParseError):
        return "parse"
    if isinstance(exc, sp.ResourceError):
        return "resource"
    return "domain"


#: Exceptions that count as a typed refusal rather than a crash.
TYPED_ERRORS = (OpFailed, sp.SelfPowerError)


# ---------------------------------------------------------------------------
# number theory the benchmark does on its own, independent of the program
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a base set that is exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn from [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def _small_factors(n: int) -> dict[int, int]:
    found: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        found[n] = found.get(n, 0) + 1
    return found


def self_power_binomial(a: int, b: int) -> tuple[int, int, int]:
    """(s, d, r) of the minimal polynomial s*x^d - r of (a/b)^(a/b), gcd(a, b) = 1.

    With g the gcd of b and every prime exponent of a and b: d = b/g,
    s = b^(a/g), r = a^(a/g).
    """
    fa, fb = _small_factors(a), _small_factors(b)
    g = b
    for e in list(fa.values()) + list(fb.values()):
        g = gcd(g, e)
    s = r = 1
    for q, e in fb.items():
        s *= q ** (e // g * a)
    for p, e in fa.items():
        r *= p ** (e // g * a)
    return s, b // g, r


def is_solution(x: Fraction, d: int, r: int, s: int) -> bool:
    """x^x = (r/s)^(1/d), decided by a^(a*d) * s^b == b^(a*d) * r^b."""
    a, b = x.numerator, x.denominator
    e = a * d
    return a**e * s**b == b**e * r**b


def expression_text(s: int, d: int, r: int) -> str:
    return f"{s}*x^{d} - {r}"


def bracket_text(s: int, d: int, r: int) -> str:
    return "[" + ", ".join([str(-r)] + ["0"] * (d - 1) + [str(s)]) + "]"


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _render_solutions(result) -> str:
    return _render(
        {
            "scan_count": result.scan_count,
            "solutions": [_fmt(x) for x in result.solutions],
        }
    )


def _check_solutions(output: str, planted, s: int, d: int, r: int) -> None:
    solutions = [Fraction(x) for x in json.loads(output)["solutions"]]
    for x in planted:
        if x not in solutions:
            raise WrongAnswer(f"planted solution {x} missing from {output}")
    for x in solutions:
        if not is_solution(x, d, r, s):
            raise WrongAnswer(f"{x} does not solve x^x = ({r}/{s})^(1/{d})")


# ---------------------------------------------------------------------------
# certificates: oracle shared by the certify and cli workloads
# ---------------------------------------------------------------------------


def _check_certificate(q: Fraction, width: Fraction, lo: Fraction, hi: Fraction, scan):
    import mpmath

    if not lo < hi or hi - lo > width:
        raise WrongAnswer(f"interval ({lo}, {hi}) is empty or wider than {width}")
    n, order = scan[-1]
    if order != "greater" or not Fraction(n) ** n > q:
        raise WrongAnswer(f"integer scan for q = {q} does not end above q")
    if n > 1 and not Fraction(n - 1) ** (n - 1) < q:
        raise WrongAnswer(f"integer scan for q = {q} overshoots")
    # precision scaled to the width, as the package's own log tests do
    with mpmath.workdps(len(str(width.denominator)) + 30):
        ln_q = mpmath.log(q.numerator) - mpmath.log(q.denominator)
        lo_m = mpmath.mpf(lo.numerator) / lo.denominator
        hi_m = mpmath.mpf(hi.numerator) / hi.denominator
        root = mpmath.findroot(lambda t: t * mpmath.log(t) - ln_q, (lo_m + hi_m) / 2)
        if not lo_m < root < hi_m:
            raise WrongAnswer(f"root of x^x = {q} lies outside ({lo}, {hi})")


def _check_classification(output: str, q: Fraction, width: Fraction, planted) -> None:
    payload = json.loads(output)
    if planted is not None:
        if payload.get("integer") != planted:
            raise WrongAnswer(f"q = {q} = {planted}^{planted} not classified as {planted}")
        return
    if "integer" in payload:
        raise WrongAnswer(f"q = {q} is not n^n but got integer {payload['integer']}")
    cert = payload["certificate"]
    interval = cert["interval"]
    lo, hi = Fraction(interval["lo"]), Fraction(interval["hi"])
    _check_certificate(q, width, lo, hi, cert["scan"])


def _render_classification(result) -> str:
    if isinstance(result, int):
        return _render({"integer": result})
    lo, hi = result.interval
    return _render(
        {
            "certificate": {
                "interval": {"hi": _fmt(hi), "lo": _fmt(lo)},
                "scan": [[n, order.value] for n, order in result.integer_scan_trace],
                "statement": result.statement,
            },
            "q": _fmt(result.q),
        }
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """Outputs and latencies of one pass over a block of operations."""

    outputs: list[str] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    #: latencies scaled to the reference speed (see pace.py), when paced
    scaled_ns: list[float] = field(default_factory=list)
    #: op index -> kind of the typed error that refused it
    refused: dict[int, str] = field(default_factory=dict)
    wall_ns: int = 0

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()

    def checkable(self) -> list[str | None]:
        return [None if i in self.refused else out for i, out in enumerate(self.outputs)]


def _run_cli_in_process(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            spcli.main(argv)
        except SystemExit as exc:
            if exc.code in _EXIT_KINDS:
                raise OpFailed(_EXIT_KINDS[exc.code]) from exc
            raise
        except Exception as exc:
            # what a subprocess reports as a traceback and exit status 1
            raise OpFailed(CRASH) from exc
    return out.getvalue()


class Workload:
    """A seeded stream of operations, how to run one, and how to check it.

    The stream comes in blocks.  Every block holds the same strata in the
    same order; the seed and the block number pick the numbers inside them.
    """

    name = ""
    why = ""
    #: CLI arguments of a tiny fixed operation that readies the lazy state
    #: this workload's operations use (prime sieve, caches).
    warm_argv: list[str] = []
    #: reference loop that does the kind of work the operations do (pace.py)
    pace_loop = SMALL

    def generate(self, seed: int, block: int) -> list[Op]:
        """The operations of one block, the cheaper strata first."""
        return self._block(random.Random(f"{self.name}:{seed}:{block}"))

    def _block(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> str:
        """Run one operation end to end; typed refusals raise."""
        raise NotImplementedError

    def run_traced(self, op: Op) -> str:
        """Run one operation in this process, so its library layers are visible."""
        return self.run(op)

    def check(self, op: Op, output: str) -> None:
        """Raise WrongAnswer unless output agrees with op's oracle."""
        raise NotImplementedError

    def check_block(self, ops: list[Op], outputs: list[str | None]) -> list[str]:
        """Oracle verdicts for one block; None marks a typed refusal."""
        errors = []
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if output is None:
                continue
            try:
                self.check(op, output)
            except (WrongAnswer, ValueError, KeyError, TypeError) as exc:
                errors.append(f"op {i} ({op.kind}): {exc}")
        return errors

    def warm(self) -> None:
        _run_cli_in_process(self.warm_argv)

    def run_block(self, ops: list[Op], runner, tracer=None, pace=None) -> Block:
        """Run ops one after another (a closed loop with one client), each through
        runner, inside a root span of tracer when one is given.  With a pace,
        the host's speed is timed between chunks of ops, outside their
        latencies, and scaled_ns holds the latencies at the reference speed."""
        block = Block()
        chunk = 0  # index of the first op not yet scaled
        start = perf_counter_ns()
        for i, op in enumerate(ops):
            t0 = perf_counter_ns()
            try:
                out = tracer.run_op(i, runner, op) if tracer else runner(op)
            except TYPED_ERRORS as exc:
                kind = error_kind(exc)
                block.refused[i] = kind
                out = f"refused: {kind}"
            block.latencies_ns.append(perf_counter_ns() - t0)
            block.outputs.append(out)
            last = i == len(ops) - 1
            if pace and (last or sum(block.latencies_ns[chunk:]) >= pace.loop.chunk_ns):
                factor = pace.factor()
                block.scaled_ns += [ns * factor for ns in block.latencies_ns[chunk:]]
                chunk = i + 1
        block.wall_ns = perf_counter_ns() - start
        return block


class SolveScan(Workload):
    name = "solve_scan"
    why = "solve(cross_check=True) on binomials of degree 8-96: the denominator scan does most of the work"
    warm_argv = ["solve", "--alpha", "2*x^2 - 1", "--verify-both", "--json"]

    DEGREES = (8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96)
    #: (a, b) whose minimal polynomials the retired scan-kernel benchmark timed
    ANCHORS = ((1, 40), (1, 37), (8, 27), (3, 32))

    def _block(self, rng):
        ops = []
        for a, b in self.ANCHORS:
            s, d, r = self_power_binomial(a, b)
            ops.append(Op("anchor", (s, d, r), (Fraction(a, b),)))
        for i, d in enumerate(self.DEGREES):
            # odd strata put x^x above 1, which doubles the numerator range
            above = i % 2 == 1
            while True:
                a = rng.randrange(d + 1, 2 * d) if above else rng.randrange(1, d)
                if gcd(a, d) == 1 and self_power_binomial(a, d)[1] == d:
                    break
            ops.append(Op("planted", self_power_binomial(a, d), (Fraction(a, d),)))
            while True:
                s = rng.randrange(3, 500)
                r = random_prime(rng, s + 1, 1000) if above else random_prime(rng, 2, s)
                if s % r:
                    break
            ops.append(Op("unplanted", (s, d, r), ()))
        return ops

    def run(self, op):
        s, d, r = op.args
        target = sp.AlgebraicTarget.from_binomial(sp.BinomialMinPoly(s=s, d=d, r=r))
        return _render_solutions(sp.solve(target, cross_check=True))

    def check(self, op, output):
        s, d, r = op.args
        _check_solutions(output, op.expect, s, d, r)


class SolveDivisors(Workload):
    name = "solve_divisors"
    why = "text targets through parse_polynomial and the divisor procedure: factorize, rho and parsing, never the scan"
    warm_argv = ["solve", "--alpha", "2*x^2 - 1", "--json"]
    # Pollard rho and the power tests work on integers of 100 bits and more
    pace_loop = BIG

    # Stratum sizes put the median inside the semiprimes and the 90th
    # percentile inside the degree-2000 targets, not on a boundary between
    # strata of different cost.
    PLANTED = 6
    SEMIPRIMES = 8
    BIG_DEGREES = (500, 1000, 1500, 1500, 2000, 2000, 2000, 2000)
    #: the Fermat number F7, whose 56-bit smallest factor is beyond the rho budget
    F7 = 2**128 + 1

    def _block(self, rng):
        ops = []
        for i in range(self.PLANTED):
            while True:
                a, b = rng.randrange(1, 60), rng.randrange(2, 60)
                if gcd(a, b) == 1 and self_power_binomial(a, b)[1] >= 2:
                    break
            s, d, r = self_power_binomial(a, b)
            text = (bracket_text if i % 2 else expression_text)(s, d, r)
            ops.append(Op("planted", (text,), ((Fraction(a, b),), s, d, r)))
        for _ in range(self.SEMIPRIMES):
            # a 48-80-bit cofactor p*q is left after trial division; rho splits it
            p = random_prime(rng, 1 << 21, 1 << 24)
            q_bits = rng.randrange(48, 81) - p.bit_length()
            q = random_prime(rng, 1 << (q_bits - 1), 1 << q_bits)
            ops.append(self._unplanted("semiprime", rng, rng.randrange(2, 60) * p * q, rng.randrange(2, 8)))
        for d in self.BIG_DEGREES:
            # a prime s leaves one divisor, so the denominator loop runs once
            ops.append(self._unplanted("big_degree", rng, random_prime(rng, 2, 50), d))
        ops.append(self._unplanted("beyond_budget", rng, self.F7, 2))
        p = random_prime(rng, 1 << 56, 1 << 60)
        q = random_prime(rng, 1 << 56, 1 << 60)
        ops.append(self._unplanted("beyond_budget", rng, p * q, rng.randrange(2, 5)))
        return ops

    @staticmethod
    def _unplanted(kind, rng, s, d):
        while True:
            r = random_prime(rng, 2, 1000)
            if s % r:
                return Op(kind, (expression_text(s, d, r),), ((), s, d, r))

    def run(self, op):
        poly = spcli.parse_polynomial(op.args[0])
        target = sp.AlgebraicTarget.from_polynomial(poly)
        return _render_solutions(sp.solve(target))

    def check(self, op, output):
        planted, s, d, r = op.expect
        _check_solutions(output, planted, s, d, r)


def _not_self_power(rng: random.Random, lo: int, hi: int, den: int = 1) -> Fraction:
    """A rational q = n/den > 1, n drawn from [lo, hi), that is no n^n."""
    while True:
        q = Fraction(rng.randrange(lo, hi), den)
        if q > 1 and (q.denominator > 1 or all(n**n != q for n in range(2, 30))):
            return q


class Certify(Workload):
    name = "certify"
    why = "classify_preimage at widths 1e-9 to 1e-60: log2 enclosures in the comparator and bisection, no factoring"
    warm_argv = ["classify", "--q", "4", "--json"]
    # log2_interval squares integers of a few hundred bits bit by bit
    pace_loop = BIG

    WIDTH_EXPONENTS = (9, 20, 40, 60)

    def _block(self, rng):
        ops = []
        for k in self.WIDTH_EXPONENTS:
            width = Fraction(1, 10**k)
            n = rng.randrange(2, 16)
            ops.append(Op("planted", (Fraction(n**n), width), n))
            den = rng.randrange(2, 50)
            ops.append(Op("fraction", (_not_self_power(rng, den + 1, 101 * den, den), width)))
            # two of each of the cheaper classes thicken the middle of the
            # latency distribution, where the percentiles are read
            for _ in range(2):
                ops.append(Op("integer", (_not_self_power(rng, 2, 10**4), width)))
                ops.append(Op("large", (_not_self_power(rng, 10**12, 10**30), width)))
        return ops

    def run(self, op):
        q, width = op.args
        return _render_classification(sp.classify_preimage(q, width))

    def check(self, op, output):
        q, width = op.args
        _check_classification(output, q, width, op.expect)


class Cli(Workload):
    name = "cli"
    why = "sequential python -m selfpower.cli subprocesses over the README commands: start-up, import and sieve on every call"
    warm_argv = ["minpoly", "8/27", "--json"]
    # each operation is a fresh interpreter, paced by one
    pace_loop = CHILD

    @staticmethod
    def _coprime(rng, hi, b_lo=1):
        while True:
            a, b = rng.randrange(1, hi), rng.randrange(b_lo, hi)
            if gcd(a, b) == 1:
                return a, b

    def _block(self, rng):
        ops = []
        for odd in (False, True):
            ops += self._commands(rng, odd)
        return [Op(op.kind, op.args + ("--json",), op.expect) for op in ops]

    def _commands(self, rng, odd):
        """One call of each README command; odd picks the other variant."""
        ops = []
        while True:
            a, b = self._coprime(rng, 25, 2)
            s, d, r = self_power_binomial(a, b)
            if d >= 2:
                break
        text = (bracket_text if odd else expression_text)(s, d, r)
        argv = ("solve", "--alpha", text) + (("--verify-both",) if odd else ())
        ops.append(Op("solve", argv, ((Fraction(a, b),), s, d, r)))
        a, b = self._coprime(rng, 40)
        ops.append(Op("minpoly", ("minpoly", f"{a}/{b}"), self_power_binomial(a, b)))
        if odd:
            leading = rng.choice([-1, 1]) * rng.randrange(1, 50)
            ops.append(Op("bound", ("bound", "--leading", str(leading))))
        else:
            ops.append(Op("bound", ("bound", "--degree", str(rng.randrange(2, 500)))))
        if odd:
            n = rng.randrange(2, 13)
            ops.append(Op("classify", ("classify", "--q", str(n**n)), n))
        else:
            q = _not_self_power(rng, 5, 10**4, rng.randrange(1, 5))
            ops.append(Op("classify", ("classify", "--q", _fmt(q))))
        poly = f"{rng.randrange(1, 7)}*x^{rng.randrange(1, 4)} - {rng.randrange(0, 9)}"
        u, v = self._coprime(rng, 30)
        ops.append(Op("powcheck", ("powcheck", "--poly", poly, "--x", f"{u}/{v}")))
        poly = f"{rng.randrange(1, 9)}*x + {rng.randrange(0, 9)}"
        ops.append(Op("powsearch", ("powsearch", "--poly", poly, "--a-max", str(rng.randrange(5, 30)))))
        m = rng.randrange(1, 60)
        ops.append(Op("pairs", ("pairs", "--m", str(m)) + (("--commuting",) if odd else ()), m))
        lam = rng.randrange(2, 30)
        a, b = self._coprime(rng, 12)
        argv = ("decompose", "--x", str(lam**b), "--y", str(lam**a), "--a", str(a), "--b", str(b))
        ops.append(Op("decompose", argv, lam))
        return ops

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "selfpower.cli", *op.args],
            capture_output=True,
            text=True,
            cwd=program.ROOT,
            env=program.child_env(),
            timeout=150,
        )
        if proc.returncode != 0:
            raise OpFailed(_EXIT_KINDS.get(proc.returncode, CRASH))
        return proc.stdout

    def run_traced(self, op):
        return _run_cli_in_process(list(op.args))

    def check_block(self, ops, outputs):
        errors = super().check_block(ops, outputs)
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if output is None:
                continue
            try:
                expected = _run_cli_in_process(list(op.args))
            except OpFailed as exc:
                expected = f"refused: {exc.kind}"
            if output != expected:
                errors.append(f"op {i} ({op.kind}): CLI printed {output!r}, in-process {expected!r}")
        return errors

    def check(self, op, output):
        payload = json.loads(output)
        if op.kind == "solve":
            planted, s, d, r = op.expect
            _check_solutions(output, planted, s, d, r)
        elif op.kind == "minpoly":
            s, d, r = op.expect
            if (payload["s"], payload["d"], payload["r"]) != (s, d, r):
                raise WrongAnswer(f"minpoly {payload} differs from {s}*x^{d} - {r}")
        elif op.kind == "classify":
            q = Fraction(op.args[2])
            _check_classification(output, q, Fraction(1, 10**9), op.expect)
        elif op.kind == "pairs":
            m = op.expect
            x, y = Fraction(m, m + 1) ** m, Fraction(m, m + 1) ** (m + 1)
            if "--commuting" in op.args:
                x, y = 1 / x, 1 / y
            if (Fraction(payload["x"]), Fraction(payload["y"])) != (x, y) or not payload["verified"]:
                raise WrongAnswer(f"pair {payload} differs from ({x}, {y})")
        elif op.kind == "decompose":
            if payload["lambda"] != op.expect:
                raise WrongAnswer(f"lambda {payload['lambda']} differs from {op.expect}")


WORKLOADS = {w.name: w for w in (SolveScan(), SolveDivisors(), Certify(), Cli())}
