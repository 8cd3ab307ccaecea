"""Tests of the benchmark itself: seeded generators, the correctness gate,
the tracer's clean-up and the contract with BENCHMARK.json.

Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import program
import run
import workloads
from pace import Pace
from tracer import Tracer

WORKLOADS = list(workloads.WORKLOADS.values())

#: Blocks list their cheapest strata first; a smoke run takes this many.
SMOKE_OPS = 8


def _smoke_ops(workload, seed=7):
    return workload.generate(seed, 0)[:SMOKE_OPS]


def _budget_op():
    ops = workloads.SolveDivisors().generate(7, 0)
    return next(op for op in ops if op.kind == "beyond_budget")


def _selfpower_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "selfpower" or name.startswith("selfpower.")
    }


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_generator_is_deterministic(workload):
    for block in (0, 1):
        assert workload.generate(11, block) == workload.generate(11, block)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_seeds_and_blocks_give_different_inputs(workload):
    first = workload.generate(1, 0)
    assert workload.generate(2, 0) != first
    assert workload.generate(1, 1) != first


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_blocks_keep_their_strata(workload):
    kinds = [op.kind for op in workload.generate(3, 0)]
    assert [op.kind for op in workload.generate(4, 5)] == kinds


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_smoke_run_passes_the_gate(workload):
    ops = _smoke_ops(workload)
    block = workload.run_block(ops, workload.run)
    assert workload.check_block(ops, block.checkable()) == []
    assert len(block.outputs) == len(ops) and not block.refused


def test_paced_block_scales_every_latency():
    certify = workloads.Certify()
    ops = _smoke_ops(certify)
    pace = Pace(certify.pace_loop)
    block = certify.run_block(ops, certify.run, pace=pace)
    assert len(block.scaled_ns) == len(block.latencies_ns) == len(ops)
    # one factor per chunk, the same for every op of the chunk
    ratios = [s / ns for s, ns in zip(block.scaled_ns, block.latencies_ns)]
    assert 1 <= len(pace.factors) <= len(ops)
    assert set(round(r, 9) for r in ratios) == set(round(f, 9) for f in pace.factors)
    assert all(0 < f < 100 for f in pace.factors)


def test_budget_failure_is_a_typed_refusal():
    divisors = workloads.SolveDivisors()
    block = divisors.run_block([_budget_op()], divisors.run)
    assert block.refused == {0: "resource"}
    assert divisors.check_block([_budget_op()], block.checkable()) == []


def test_gate_rejects_wrong_answers():
    scan = workloads.SolveScan()
    planted = next(op for op in _smoke_ops(scan) if op.kind == "planted")
    assert scan.check_block([planted], ['{"scan_count": 1, "solutions": []}'])
    assert scan.check_block([planted], ['{"scan_count": 1, "solutions": ["1/2"]}'])

    certify = workloads.Certify()
    op = next(op for op in _smoke_ops(certify) if op.kind == "integer")
    good = certify.run(op)
    assert certify.check_block([op], [good]) == []
    payload = json.loads(good)
    interval = payload["certificate"]["interval"]
    lo, hi = Fraction(interval["lo"]), Fraction(interval["hi"])
    # same width, moved off the root
    interval["lo"], interval["hi"] = str(hi), str(2 * hi - lo)
    assert certify.check_block([op], [json.dumps(payload)])


def test_traced_pass_restores_every_function():
    before = _selfpower_namespaces()
    scan = workloads.SolveScan()
    original = sys.modules["selfpower.arith"].factorize
    tracer = Tracer()
    with tracer.installed():
        assert sys.modules["selfpower.arith"].factorize is not original
        assert sys.modules["selfpower.minpoly"].factorize is not original
        scan.run_block(_smoke_ops(scan), scan.run_traced, tracer)
    after = _selfpower_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    assert tracer.spans and not tracer.missing


def test_traced_counts_repeat_exactly():
    divisors = workloads.SolveDivisors()
    ops = _smoke_ops(divisors) + [_budget_op()]
    counters = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            divisors.run_block(ops, divisors.run_traced, tracer)
        counters.append(tracer.counters())
        metrics = run.layer_counts(tracer)
        assert metrics["cli.parse_calls"] == len(ops)
        assert metrics["arith.factorize_failed"] == 1
    assert counters[0] == counters[1]


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["op", 0, 100, -1, 0], ["a", 10, 60, 0, 0], ["b", 20, 30, 1, 0]]
    self_ns, calls = tracer.self_times()
    assert self_ns == {"op": 50, "a": 40, "b": 10}
    assert calls == {"op": 1, "a": 1, "b": 1}


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=program.child_env(),
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
