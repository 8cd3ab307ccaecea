#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json --head b1.json b2.json

For every workload and metric, prints the median of each side, the change of
the head against the base, and whether that change stays within the bound
BENCHMARK.json fixes.  Records of one seed must have equal block 0 output
digests.  Records measured with different scan backends are refused: the
compiled kernel runs the scan about three times faster than the pure one, so
their numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import program


def _load(paths):
    records = [json.loads(Path(path).read_text()) for path in paths]
    by_workload = defaultdict(list)
    for record in records:
        by_workload[record["meta"]["workload"]].append(record)
    return records, by_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, base_by = _load(args.base)
    head, head_by = _load(args.head)
    backends = {r["meta"]["backend"] for r in base + head}
    if len(backends) > 1:
        print(f"refused: records come from different backends {sorted(backends)}", file=sys.stderr)
        return 2

    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in sorted(base_by.keys() & head_by.keys()):
        digests = defaultdict(set)
        for r in base_by[workload] + head_by[workload]:
            digests[r["meta"]["seed"]].add(r["details"]["digest"])
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                ok = False
                print(f"{workload}: seed {seed} outputs differ between records")
        for name, metric in base_by[workload][0]["result"]["metrics"].items():
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in base_by[workload])
            h = statistics.median(r["result"]["metrics"][name]["value"] for r in head_by[workload])
            change = (h - b) / b if b else 0.0
            verdict = ""
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                within = worse <= bounds[name]["bound"]
                ok = ok and within
                verdict = "ok" if within else f"WORSE than bound {bounds[name]['bound']}"
            print(
                f"{workload:15} {name:28} {b:>12.6g} -> {h:>12.6g} {metric['unit']:6}"
                f" {change:+8.1%}  {verdict}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
