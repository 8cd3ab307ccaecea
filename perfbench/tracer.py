"""Outside-in tracing of selfpower's layers, from the benchmark's own files.

``Tracer.installed()`` swaps each measured public function for a wrapper and
puts every original back on exit.  Functions are found by identity in every
loaded ``selfpower.*`` namespace (the package, the defining module and each
module that imported the name), so a caller that moves to another module keeps
its span.  A wrapper either records a span -- layer, start, end, parent span
and op id -- or only counts calls, for functions too hot or too small to time.
Spans stay in memory until the run writes them out.

A layer's self time is the duration of its spans minus the time their direct
child spans cover.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Point:
    """A measured function: where it is defined, and what its wrapper records."""

    module: str
    name: str
    #: layer of the span recorded around each call; None only counts calls
    layer: str | None
    #: call counter whose growth during the call is handed to the hook
    watch: str | None = None
    #: hook(tracer, args, result, error, watched_growth), run after the call
    hook: Callable | None = None


def _factorize(t, args, result, error, _):
    t.peak("factorize_max_bits", args[0].bit_length())
    if error is not None:
        t.counts["factorize_failed"] += 1


def _log2(t, args, result, error, _):
    t.peak("log2_peak_prec", args[1])


def _compare(t, args, result, error, log2_calls):
    if log2_calls:
        t.counts["compare_log_calls"] += 1


def _integer_scan(t, args, result, error, _):
    if error is None:
        t.counts["integer_scan_steps"] += result[1]


def _solve_enumerative(t, args, result, error, integer_steps):
    if error is None:
        t.counts["scan_candidates"] += result.scan_count - integer_steps
        t.counts["scan_hits"] += sum(1 for x in result.solutions if x.denominator > 1)


def _solve_by_divisors(t, args, result, error, _):
    if error is None:
        t.counts["divisors_tested"] += result.scan_count


def _classify(t, args, result, error, comparisons):
    if error is None:
        steps = result if isinstance(result, int) else len(result.integer_scan_trace)
        t.counts["certify_scan_steps"] += steps
        t.counts["certify_bisect_steps"] += comparisons - steps


POINTS = (
    Point("selfpower.cli", "parse_polynomial", "cli.parse"),
    Point("selfpower.cli", "parse_rational", "cli.parse"),
    Point("selfpower.solver", "solve_enumerative", "solver.scan", "integer_scan_steps", _solve_enumerative),
    Point("selfpower.solver", "solve_by_divisors", "solver.divisors", None, _solve_by_divisors),
    Point("selfpower.solver", "integer_scan", "solver.integer_scan", None, _integer_scan),
    Point("selfpower.arith", "factorize", "arith.factorize", None, _factorize),
    Point("selfpower.arith", "compare_power_products", "arith.compare", "log2_interval", _compare),
    Point("selfpower.arith", "log2_interval", "arith.log2", None, _log2),
    Point("selfpower.arith", "powers_equal", None),
    Point("selfpower.arith", "integer_kth_root", None),
    Point("selfpower.arith", "compare_self_power_to_rational", None),
    Point("selfpower.minpoly", "is_irreducible_binomial", "minpoly.irreducible"),
    Point("selfpower.minpoly", "minimal_polynomial_of_self_power", "minpoly.minpoly"),
    Point("selfpower.certify", "classify_preimage", "certify.self", "compare_self_power_to_rational", _classify),
    Point("selfpower.polypower", "enumerate_rational_powers", "polypower.sweep"),
    Point("selfpower.polypower", "analyze_poly_power", "polypower.sweep"),
)

#: Layer of the span around one whole benchmark operation.
OP_LAYER = "op"


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self, points=POINTS):
        self.points = points
        #: [layer, start_ns, end_ns, parent index or -1, op id]
        self.spans: list[list] = []
        #: calls per function name, calls per (function, innermost layer), hook counts
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        #: points whose function the loaded program does not define
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def innermost(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "-"

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, perf_counter_ns(), 0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id, inside a root span."""
        self._op = op_id
        index = self._open(OP_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, point: Point, fn):
        tracer, name = self, point.name
        if point.layer is None:

            @wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                tracer.counts[(name, tracer.innermost())] += 1
                return fn(*args, **kwargs)

            return counted

        layer, watch, hook = point.layer, point.watch, point.hook

        @wraps(fn)
        def spanned(*args, **kwargs):
            tracer.counts[name] += 1
            before = tracer.counts[watch] if watch else 0
            index = tracer._open(layer)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # recorded for the hook, then re-raised
                error = exc
                raise
            finally:
                tracer._close(index)
                if hook is not None:
                    grown = tracer.counts[watch] - before if watch else 0
                    hook(tracer, args, result, error, grown)

        return spanned

    @contextmanager
    def installed(self):
        """Wrap every measured function for the duration of the block."""
        wrappers = {}
        self.missing = []
        for point in self.points:
            fn = getattr(sys.modules.get(point.module), point.name, None)
            if isinstance(fn, types.FunctionType):
                wrappers[fn] = self._wrap(point, fn)
            else:
                self.missing.append(f"{point.module}.{point.name}")
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "selfpower" and not modname.startswith("selfpower."):
                    continue
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        setattr(module, attr, wrappers[value])
                        self._patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(self._patched):
                setattr(module, attr, value)
            self._patched.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """(self time in ns, span count) per layer."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for (layer, start, end, _, _), child in zip(self.spans, covered):
            self_ns[layer] += end - start - child
            calls[layer] += 1
        return self_ns, calls

    def counters(self) -> dict:
        """Every count and peak; identical for every round of a fixed seed."""
        _, calls = self.self_times()
        out = {f"calls:{k}": v for k, v in calls.items()}
        out.update({f"{k[0]}@{k[1]}" if isinstance(k, tuple) else k: v for k, v in self.counts.items()})
        out.update({f"peak:{k}": v for k, v in self.peaks.items()})
        return dict(sorted(out.items()))
