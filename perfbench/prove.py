#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread and record a baseline.

    python3 perfbench/prove.py

Run from the root of a teleo source tree.  It makes two sets of untraced
runs, each with one run per workload in BENCHMARK.json and seed 1-10, at
BENCHMARK.json's run_seconds.  The first set goes through the seeds upwards
and the second downwards, so that a slow drift of the host does not fall on
the same seeds in both.  For each end-to-end metric it reports, per set, the
median and the spread across seeds (the distance between the first and third
quartiles as a share of the median), the shift of the second set's median
from the first, and the same-seed spread (the median over seeds of the
difference between a seed's two values as a share of their mean), next to
the metric's bound.  For the timing metrics it also gives the spread of the
raw figures, before the host-speed normalisation (run.py).  One traced run per workload on seed 1 gives the
dominant layer and the tracing overhead.  Everything, with the environment
it was measured in, is written to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def one(command: list[str], workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run: its result object and the lines printed before it."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    if not Path("BENCHMARK.json").is_file():
        print("error: run from the directory holding BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [list(SEEDS), list(reversed(SEEDS))]
    values = {w: [{m: {} for m in metrics} for _ in sets] for w in workloads}
    raw = {w: [{} for _ in sets] for w in workloads}
    ok = True
    for k, order in enumerate(sets):
        for seed in order:
            for w in workloads:
                doc, lines = one(bench["command"], w, seed, seconds, 0)
                for ln in lines:
                    if ln.startswith("raw "):
                        _, m, value, _ = ln.split()
                        raw[w][k].setdefault(m, {})[seed] = float(value)
                ok &= doc["correct"] and not doc["failed"]
                for m in metrics:
                    values[w][k][m][seed] = doc["metrics"][m]["value"]
                print(f"set {k + 1} {w} seed {seed}: " + " ".join(
                    f"{m}={values[w][k][m][seed]:.4f}" for m in metrics), flush=True)
    report: dict = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for w in workloads:
        rows: dict = {}
        for m, spec in metrics.items():
            first, second = ([v[m][s] for s in SEEDS] for v in values[w])
            (med1, spread1), (med2, spread2) = spread(first), spread(second)
            worse = (med2 - med1) / med1 * (1 if spec["better"] == "lower" else -1)
            same = statistics.median(
                abs(a - b) / ((a + b) / 2) if a + b else 0.0 for a, b in zip(first, second)
            )
            rows[m] = {
                "bound": spec["bound"],
                "median": [med1, med2],
                "spread": [spread1, spread2],
                "second_median_worse_by": worse,
                "same_seed_spread": same,
                "values": [first, second],
            }
            if m in raw[w][0]:
                rows[m]["raw_spread"] = [spread([v[m][s] for s in SEEDS])[1] for v in raw[w]]
            steady = "steady" if max(spread1, spread2) < spec["bound"] / 3 else "NOT below bound/3"
            agree = "agree" if worse <= spec["bound"] else "DISAGREE"
            print(f"{w} {m}: median {med1:.6g}/{med2:.6g} spread {spread1:.4f}/{spread2:.4f} "
                  f"raw spread {'/'.join(f'{x:.4f}' for x in rows[m].get('raw_spread', []))} "
                  f"same-seed {same:.4f} second worse by {worse:+.4f} bound {spec['bound']} "
                  f"{steady}, {agree}")
        doc, lines = one(bench["command"], w, SEEDS[0], seconds, 1)
        ok &= doc["correct"] and not doc["failed"]
        info = {k: v for k, v in (ln.split(" ", 1) for ln in lines if " " in ln)}
        rows["dominant_layer"] = info.get("dominant_layer")
        rows["trace_overhead_s"] = doc["metrics"]["trace.overhead_s"]["value"]
        report["environment"] = json.loads(info["environment"])
        report["workloads"][w] = rows
        print(f"{w} dominant {rows['dominant_layer']}; trace overhead "
              f"{rows['trace_overhead_s']:.4f} s")
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
