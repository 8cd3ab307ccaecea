#!/usr/bin/env python3
"""Benchmark of the selfpower package: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client in one process sends the next operation only after the previous
one returned (the cli workload runs one subprocess at a time).  The seed gives
a stream of blocks of operations; every block has the same strata with fresh
numbers.  The timed loop runs whole blocks until --seconds of them have
passed, so every run has the same mix however fast the program is.

--trace 0 reports the end-to-end metrics: completed operations per second,
median and 90th-percentile latency over every attempted operation, the share
of operations that ended without a typed error, the median set-up time of
fresh interpreters and the peak resident memory (for cli, of the largest
child).  Its times are scaled to a reference host speed, timed with a fixed
loop between chunks of operations (pace.py), because the shared host's own
speed drifts more than the bounds; the unscaled figures are printed too.  --trace 1 alternates untraced and traced passes over block 0 and
reports per-layer self times and counts per pass, the fresh-interpreter
import and sieve probes, and the trace overhead; the spans go to .perfbench/.

Every output is checked against an oracle known by construction.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit status is 0 when every output was correct, 1 when one was
not, and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import program
from pace import SMALL, Pace
from tracer import OP_LAYER, Tracer

#: Fresh interpreters started per run to measure set-up (and import, sieve).
PROBES = 9

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def probe(kind: str, argv=()) -> list[dict]:
    """Run PROBES fresh interpreters of perfbench/probe.py, one at a time."""
    script = str(program.ROOT / "perfbench" / "probe.py")
    results = []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, script, kind, *argv],
            capture_output=True,
            text=True,
            cwd=program.ROOT,
            env=program.child_env(),
            timeout=120,
            check=True,
        )
        results.append(json.loads(proc.stdout))
    return results


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced timed loop over fresh blocks: the end-to-end metrics.

    Times are scaled to the reference speed (see pace.py); the raw figures
    are kept in the details."""
    workload.warm()
    pace = Pace(workload.pace_loop)
    runs = []
    busy_ns = 0
    while not runs or busy_ns < seconds * 1e9:
        # inputs are made between blocks, outside the measured time
        ops = workload.generate(seed, len(runs))
        block = workload.run_block(ops, workload.run, pace=pace)
        busy_ns += sum(block.latencies_ns)
        runs.append((ops, block))
    # ru_maxrss is in KiB on Linux; the cli workload's operations are children
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    probes = probe("setup", workload.warm_argv)

    errors = [e for ops, block in runs for e in workload.check_block(ops, block.checkable())]
    latencies = sorted(ns for _, block in runs for ns in block.scaled_ns)
    raw = sorted(ns for _, block in runs for ns in block.latencies_ns)
    kinds = Counter(kind for _, block in runs for kind in block.refused.values())
    attempted, failed = len(latencies), sum(kinds.values())
    metrics = {
        "throughput_ops_s": (attempted - failed) / (sum(latencies) / 1e9),
        "latency_p50_ms": nearest_rank(latencies, 0.5) / 1e6,
        "latency_p90_ms": nearest_rank(latencies, 0.9) / 1e6,
        "ok_share": (attempted - failed) / attempted,
        "setup_s": statistics.median(p["setup_s"] * SMALL.reference_ns / p["loop_ns"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "blocks": len(runs),
        "ops_per_block": len(runs[0][0]),
        "samples": attempted,
        "beyond_p90": attempted - math.ceil(0.9 * attempted),
        "failed_share": failed / attempted,
        "failed_by_kind": dict(sorted(kinds.items())),
        "raw": {
            "throughput_ops_s": (attempted - failed) / (busy_ns / 1e9),
            "latency_p50_ms": nearest_rank(raw, 0.5) / 1e6,
            "latency_p90_ms": nearest_rank(raw, 0.9) / 1e6,
            "setup_s": statistics.median(p["setup_s"] for p in probes),
        },
        "pace_factor": statistics.median(pace.factors),
        "digest": runs[0][1].digest(),
        "block_digests": [block.digest() for _, block in runs],
        "errors": errors,
    }
    return _record(metrics, END_TO_END_UNITS, attempted, failed, errors, details)


def _record(metrics, units, attempted, failed, errors, details) -> dict:
    return {
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "details": details,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "cli.parse_ms": "ms",
    "cli.parse_calls": "count",
    "cli.import_ms": "ms",
    "solver.scan_ms": "ms",
    "solver.scan_candidates": "count",
    "solver.scan_exact_tests": "count",
    "solver.scan_survivor_ratio": "ratio",
    "solver.scan_hits": "count",
    "solver.divisors_ms": "ms",
    "solver.divisors_tested": "count",
    "solver.integer_scan_ms": "ms",
    "solver.integer_scan_steps": "count",
    "arith.factorize_ms": "ms",
    "arith.factorize_calls": "count",
    "arith.factorize_failed": "count",
    "arith.factorize_max_bits": "bits",
    "arith.sieve_ms": "ms",
    "arith.powers_equal_calls": "count",
    "arith.kth_root_calls": "count",
    "arith.compare_ms": "ms",
    "arith.compare_calls": "count",
    "arith.compare_log_calls": "count",
    "arith.log2_ms": "ms",
    "arith.log2_calls": "count",
    "arith.log2_peak_prec": "bits",
    "minpoly.irreducible_ms": "ms",
    "minpoly.irreducible_calls": "count",
    "minpoly.minpoly_ms": "ms",
    "minpoly.minpoly_calls": "count",
    "certify.self_ms": "ms",
    "certify.scan_steps": "count",
    "certify.bisect_steps": "count",
    "polypower.sweep_ms": "ms",
    "polypower.points": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}

#: Layers whose self time a per-layer *_ms metric reports.
TIMED_LAYERS = {
    "cli.parse_ms": "cli.parse",
    "solver.scan_ms": "solver.scan",
    "solver.divisors_ms": "solver.divisors",
    "solver.integer_scan_ms": "solver.integer_scan",
    "arith.factorize_ms": "arith.factorize",
    "arith.compare_ms": "arith.compare",
    "arith.log2_ms": "arith.log2",
    "minpoly.irreducible_ms": "minpoly.irreducible",
    "minpoly.minpoly_ms": "minpoly.minpoly",
    "certify.self_ms": "certify.self",
    "polypower.sweep_ms": "polypower.sweep",
}


def layer_counts(tracer) -> dict:
    """The per-layer counts of one traced pass."""
    _, calls = tracer.self_times()
    c, peaks = tracer.counts, tracer.peaks
    candidates = c["scan_candidates"]
    exact = c[("powers_equal", "solver.scan")]
    return {
        "cli.parse_calls": calls["cli.parse"],
        "solver.scan_candidates": candidates,
        "solver.scan_exact_tests": exact,
        "solver.scan_survivor_ratio": exact / candidates if candidates else 0.0,
        "solver.scan_hits": c["scan_hits"],
        "solver.divisors_tested": c["divisors_tested"],
        "solver.integer_scan_steps": c["integer_scan_steps"],
        "arith.factorize_calls": calls["arith.factorize"],
        "arith.factorize_failed": c["factorize_failed"],
        "arith.factorize_max_bits": peaks["factorize_max_bits"],
        "arith.powers_equal_calls": c["powers_equal"],
        "arith.kth_root_calls": c["integer_kth_root"],
        "arith.compare_calls": calls["arith.compare"],
        "arith.compare_log_calls": c["compare_log_calls"],
        "arith.log2_calls": calls["arith.log2"],
        "arith.log2_peak_prec": peaks["log2_peak_prec"],
        "minpoly.irreducible_calls": calls["minpoly.irreducible"],
        "minpoly.minpoly_calls": calls["minpoly.minpoly"],
        "certify.scan_steps": c["certify_scan_steps"],
        "certify.bisect_steps": c["certify_bisect_steps"],
        "polypower.points": c["analyze_poly_power"],
    }


def measure_traced(workload, seed: int, seconds: float, spans_path) -> dict:
    """Untraced and traced passes over block 0, alternating: per-layer metrics."""
    workload.warm()
    ops = workload.generate(seed, 0)
    untraced, traced, tracers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(workload.run_block(ops, workload.run_traced))
        tracer = Tracer()
        with tracer.installed():
            traced.append(workload.run_block(ops, workload.run_traced, tracer))
        tracers.append(tracer)
    layers = probe("layers")

    errors = workload.check_block(ops, traced[0].checkable())
    if len({block.digest() for block in traced + untraced}) > 1:
        errors.append("outputs differ between passes over the same block")
    counts = [tracer.counters() for tracer in tracers]
    if any(c != counts[0] for c in counts):
        errors.append("per-layer counts differ between traced passes over the same block")
    self_ms = [tracer.self_times()[0] for tracer in tracers]
    metrics = layer_counts(tracers[0])
    for name, layer in TIMED_LAYERS.items():
        metrics[name] = statistics.median(t[layer] for t in self_ms) / 1e6
    metrics["cli.import_ms"] = statistics.median(p["import_s"] for p in layers) * 1e3
    metrics["arith.sieve_ms"] = statistics.median(p["sieve_s"] for p in layers) * 1e3
    plain_ms = statistics.median(r.wall_ns for r in untraced) / 1e6
    traced_ms = statistics.median(r.wall_ns for r in traced) / 1e6
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    metrics["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
    metrics = {name: metrics[name] for name in LAYER_UNITS}

    # per pass: where the time went, for the dominant-layer report
    spent = {layer: statistics.median(t[layer] for t in self_ms) / 1e6 for layer in self_ms[0]}
    if workload.name == "cli":
        # every cli operation is a fresh interpreter that pays the import, and
        # the sieve too when it factors
        factoring = {span[4] for span in tracers[0].spans if span[0] == "arith.factorize"}
        spent["cli.import (per process)"] = metrics["cli.import_ms"] * len(ops)
        spent["arith.sieve (per process)"] = metrics["arith.sieve_ms"] * len(factoring)
    spent.pop(OP_LAYER, None)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps(
            {
                "fields": ["layer", "start_ns", "end_ns", "parent", "op"],
                "passes": [t.spans for t in tracers],
            }
        )
    )
    attempted = sum(len(r.latencies_ns) for r in traced)
    failed = sum(len(r.refused) for r in traced)
    details = {
        "passes": len(traced),
        "ops_per_block": len(ops),
        "digest": traced[0].digest(),
        "untraced_block_ms": plain_ms,
        "traced_block_ms": traced_ms,
        "self_ms_per_block": dict(sorted(spent.items(), key=lambda kv: -kv[1])),
        "spans_per_layer": dict(tracers[0].self_times()[1]),
        "missing": tracers[0].missing,
        "errors": errors,
    }
    return _record(metrics, LAYER_UNITS, attempted, failed, errors, details)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _layer_of(metric: str) -> str | None:
    for ms_name, layer in TIMED_LAYERS.items():
        if metric.startswith(ms_name[: -len("_ms")]):
            return layer
    return {"certify": "certify.self", "polypower": "polypower.sweep"}.get(metric.split(".")[0])


def report(record: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    meta, details = record["meta"], record["details"]
    print(
        f"selfpower benchmark: workload={meta['workload']} seed={meta['seed']} "
        f"trace={record['trace']} commit={meta['commit'][:12]} python={meta['python']} "
        f"nproc={meta['nproc']} backend={meta['backend']}"
    )
    if record["trace"]:
        done = f"{details['passes']} traced passes over block 0"
    else:
        done = f"{details['blocks']} blocks"
    print(f"  {done} of {details['ops_per_block']} ops, block 0 output digest {details['digest'][:16]}")
    spans = details.get("spans_per_layer")
    for name, m in record["result"]["metrics"].items():
        note = ""
        if spans is not None and not name.startswith("trace."):
            layer = _layer_of(name)
            if (spans.get(layer, 0) if layer else m["value"]) == 0:
                note = "  (not called by this workload)"
        print(f"  {name:28} {m['value']:>14.6g} {m['unit']}{note}")
    if record["trace"]:
        print(
            f"  trace overhead: traced pass {details['traced_block_ms']:.1f} ms vs "
            f"untraced {details['untraced_block_ms']:.1f} ms"
        )
        total = sum(details["self_ms_per_block"].values())
        print("  self time per pass over block 0, by layer:")
        for layer, ms in details["self_ms_per_block"].items():
            print(f"    {layer:28} {ms:10.2f} ms  {ms / total:6.1%}")
        for name in details["missing"]:
            print(f"  absent: {name} is not defined by this program")
    else:
        r = record["result"]
        print(
            f"  failed_share {details['failed_share']:.4f} ({r['failed']} of {r['attempted']}"
            f", by kind {details['failed_by_kind']}); {details['beyond_p90']} samples beyond p90"
        )
        raw = ", ".join(f"{k} {v:.6g}" for k, v in details["raw"].items())
        print(f"  unscaled: {raw}; host ran at {details['pace_factor']:.3f} x the reference speed")
    for error in details["errors"]:
        print(f"  WRONG: {error}")


def run_all(args, names) -> int:
    """Every workload in its own interpreter, then one table."""
    results, ok = {}, True
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            cwd=program.ROOT,
            env=program.child_env(),
            timeout=600,
        )
        print(proc.stdout, end="")
        if proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and results[name]["correct"]
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':28} {'unit':6}" + "".join(f"{w:>16}" for w in results))
    for metric in names:
        unit = next(iter(results.values()))["metrics"][metric]["unit"]
        row = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        print(f"{metric:28} {unit:6}{row}")
    summary = {
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="selfpower benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (with metadata) to this file")
    args = parser.parse_args(argv)
    try:
        selfpower, _ = program.load()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads  # only once the program is known to be there

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        spans = program.ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.json"
        record = measure_traced(workload, args.seed, args.seconds, spans)
    else:
        record = measure(workload, args.seed, args.seconds)
    record["meta"] = program.metadata(selfpower, workload.name, args.seed)
    record["trace"] = args.trace
    report(record)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(record["result"], sort_keys=True))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
