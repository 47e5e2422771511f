#!/usr/bin/env python3
"""End-to-end benchmark of the `teleo` command line.

    python3 perfbench/run.py --workload finalize_grid --seed 1 --seconds 40 --trace 0

Run from the root of a teleo source tree; the package is imported from
`src/`.  The workload's inputs are generated from the seed (see gen.py) into
`.perfbench_work/` and removed afterwards.  Each timed invocation is a fresh
`teleo --json <command>` process, run one at a time (a closed loop with one
client), because every user command is one process.

With `--trace 0` the run reports end-to-end metrics: set-up time, the median
and tail wall time of one invocation, its median CPU time and peak resident
memory, and the share of invocations that succeeded.  The host this runs
on is shared, and its speed drifts by a fifth and more over minutes, which
no run length averages out; so every invocation is paired with a fixed
reference process that imports no teleo code (probe.py), and the timing
metrics are given in seconds at the reference's nominal speed: the raw
median times REFERENCE_S over the reference's median.  The raw figures are
printed before the result line.  With `--trace 1` it
alternates untraced invocations with traced ones (probe.py) and reports the
per-layer breakdown: calls, rows and self time of each layer's public
functions.

Every answer is checked.  The first invocation's JSON document is graded by
oracle.py, which recomputes it from the generator's model; every later
invocation, traced or not, must then reproduce its exit code and the sha256
of its standard output.  For the seeds in expected.json those must also
equal the committed values.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402

LAUNCH = "import sys; from teleo.cli import main; sys.argv[0] = 'teleo'; sys.exit(main())"
SETUP_REPEATS = 31
# Median wall time of the reference probe on a 2-vCPU KVM guest (Xeon,
# Python 3.11.7).  It only sets the scale of the timing metrics.
REFERENCE_S = 0.12
INVOCATION_LIMIT_S = 60.0
MIN_TRACED = 2
TAIL_BEYOND = 10

PER_LAYER = {
    "model.uniform_independent.calls": "count",
    "model.uniform_independent.self_s": "s",
    "model.enumerate_worlds.calls": "count",
    "model.enumerate_worlds.rows": "count",
    "model.enumerate_worlds.self_s": "s",
    "model.CausalDag.topological_order.calls": "count",
    "model.CausalDag.topological_order.self_s": "s",
    "intervention.enumerate_worlds_star.calls": "count",
    "teleology.compatible_worlds.calls": "count",
    "teleology.compatible_worlds.distinct": "count",
    "teleology.compatible_worlds.reuse_ratio": "ratio",
    "teleology.compatible_worlds.self_s": "s",
    "teleology.enumerate_goal_hypotheses.candidates": "count",
    "teleology.enumerate_goal_hypotheses.self_s": "s",
    "teleology.build_final_model.calls": "count",
    "teleology.build_final_model.failed": "count",
    "teleology.implied_dependencies.self_s": "s",
    "identification.load_dataset.self_s": "s",
    "identification.check_support.calls": "count",
    "identification.check_support.self_s": "s",
    "identification.check_dependence.calls": "count",
    "identification.check_dependence.self_s": "s",
    "identification.rank_hypotheses.self_s": "s",
    "dsep.d_separated.calls": "count",
    "dsep.d_separated.self_s": "s",
    "reduction.build_reduction.self_s": "s",
    "reduction.compare_structures.self_s": "s",
    "reduction.project_reduction.self_s": "s",
    "reduction.reduction_worlds.calls": "count",
    "reduction.reduction_worlds.self_s": "s",
    "speclang.load_model.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    digest: str
    stdout: Path
    traceback: bool


class Bench:
    """One benchmark run: the program under test, its inputs, and a scratch
    directory inside the source tree."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.inputs = gen.GENERATORS[workload](seed)
        self.args = self.inputs.write(self.work)
        self.count = 0

    def spawn(self, argv: list[str]) -> Invocation:
        """Run one child to completion, timed from spawn to exit."""
        self.count += 1
        out = self.work / f"out-{self.count}"
        err = self.work / f"err-{self.count}"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.work)
            killer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        traceback = b"Traceback" in err.read_bytes()
        err.unlink()
        return Invocation(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, digest, out, traceback,
        )

    def command(self) -> Invocation:
        return self.spawn([sys.executable, "-c", LAUNCH, "--json", *self.args])

    def traced(self) -> tuple[Invocation, dict]:
        summary = self.work / f"trace-{self.count + 1}.json"
        inv = self.spawn([sys.executable, str(HERE / "probe.py"), "trace",
                          str(summary), "--", "--json", *self.args])
        return inv, json.loads(summary.read_text()) if summary.exists() else {}

    def setup(self) -> float:
        """Wall time of one fresh process doing every command's set-up."""
        files = [a for a in self.args if a.endswith((".tele", ".csv"))]
        inv = self.spawn([sys.executable, str(HERE / "probe.py"), "setup", *files])
        inv.stdout.unlink()
        if inv.code != 0:
            raise RuntimeError("set-up probe failed")
        return inv.wall_s

    def reference(self) -> float:
        """Wall time of one fresh process doing the fixed reference work."""
        inv = self.spawn([sys.executable, str(HERE / "probe.py"), "reference"])
        inv.stdout.unlink()
        if inv.code != 0:
            raise RuntimeError("reference probe failed")
        return inv.wall_s

    def environment(self) -> dict:
        probe = ("import importlib.util, platform; "
                 "print(platform.python_version(), "
                 "importlib.util.find_spec('teleo._dsep_c') is not None)")
        inv = self.spawn([sys.executable, "-c", probe])
        version, kernel = inv.stdout.read_text().split()
        return {"python": version, "nproc": os.cpu_count(),
                "compiled_dsep_importable": kernel == "True",
                "revision": git_revision(self.root)}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def git_revision(root: Path) -> str:
    """HEAD of the source tree when it is a git checkout, else 'unknown'."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile).  With fewer than 2 * TAIL_BEYOND + 1 samples
    that would fall below the median, so the median is returned instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def expected_for(workload: str, seed: int):
    table = json.loads((HERE / "expected.json").read_text())["digests"]
    entry = table.get(workload, {}).get(str(seed))
    return tuple(entry) if entry else None


def identities(workload: str, inputs: gen.Inputs, doc: dict, trace: dict) -> list[str]:
    """Exact count identities the traced run must satisfy.  An identity
    that names an absent function is not checked."""
    calls = trace.get("calls", {})
    absent = set(trace.get("absent", ()))
    n = len(inputs.model.domains)
    pairs = n * (n - 1) // 2
    problems = []

    def need(names: list[str], want: int):
        if absent.intersection(names):
            return
        got = [calls.get(k, 0) for k in names]
        if any(g != want for g in got):
            problems.append(f"{' == '.join(names)} == {want} fails: {got}")

    if workload == "finalize_grid":
        need(["dsep.d_separated", "model.uniform_independent"], pairs * (n - 1))
    elif workload == "identify_enumerate":
        nonempty = sum(1 for e in doc["result"]["ranking"] if e["compatible_world_count"])
        need(["identification.check_dependence"], pairs * nonempty)
    return problems


def per_layer(traces: list[dict], overhead_s: float) -> dict[str, float]:
    first = traces[0]
    calls, rows = first.get("calls", {}), first.get("rows", {})

    def self_s(name: str) -> float:
        return statistics.median(t.get("self_s", {}).get(name, 0.0) for t in traces)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(name, 0)
        elif stat == "self_s":
            out[metric] = self_s(name)
        elif stat in ("rows", "candidates"):
            out[metric] = rows.get(name, 0)
        elif stat == "failed":
            out[metric] = first.get("failed", {}).get(name, 0)
        elif stat == "distinct":
            out[metric] = first.get("distinct", {}).get(name, 0)
    cw = "teleology.compatible_worlds"
    out[f"{cw}.reuse_ratio"] = (
        out[f"{cw}.distinct"] / out[f"{cw}.calls"] if out[f"{cw}.calls"] else 0.0
    )
    out["trace.overhead_s"] = overhead_s
    return out


def counts_of(trace: dict) -> dict:
    return {k: trace.get(k) for k in ("calls", "rows", "failed", "distinct", "absent")}


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "teleo" / "cli.py").is_file():
        print(f"error: no teleo sources under {root / 'src'}; run from the "
              "root of a teleo source tree", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        return measure(bench, args)
    finally:
        bench.close()


def measure(bench: Bench, args) -> int:
    problems: list[str] = []
    env = bench.environment()

    # Warm-up: fills the page cache, and its answer is graded by the oracle.
    first = bench.command()
    try:
        doc = json.loads(first.stdout.read_text(encoding="utf-8"))
    except ValueError as exc:
        doc = None
        problems.append(f"output is not one JSON document: {exc}")
    if doc is not None:
        try:
            problems += oracle.check(bench.inputs, doc, first.code)
        except Exception as exc:
            problems.append(f"oracle could not grade output: {exc!r}")
    committed = expected_for(args.workload, args.seed)
    reference = (first.code, first.digest)
    if committed is not None and committed != reference:
        problems.append(f"exit code and digest {reference} differ from committed {committed}")
    if problems:
        reference = committed

    def ok(inv: Invocation) -> bool:
        return inv.code != 1 and not inv.traceback and (inv.code, inv.digest) == reference

    attempted, failed = 1, int(not ok(first))
    first.stdout.unlink()
    plain: list[Invocation] = []
    traces: list[tuple[Invocation, dict]] = []
    setups: list[float] = []
    references: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or (
        args.trace and (len(traces) < MIN_TRACED or len(plain) < MIN_TRACED)
    ):
        # Set-up probes are spread over the window, like the invocations, so
        # that both sample the same spells of a busy or an idle host.
        elapsed = (time.perf_counter() - start) / args.seconds
        if not args.trace and len(setups) < 1 + SETUP_REPEATS * elapsed:
            setups.append(bench.setup())
        if not args.trace:
            references.append(bench.reference())
        if args.trace and len(traces) < len(plain):
            inv, summary = bench.traced()
            traces.append((inv, summary))
            if summary.get("exit_code") != inv.code:
                problems.append("traced run's summary disagrees with its exit code")
        else:
            inv = bench.command()
            plain.append(inv)
        inv.stdout.unlink()
        attempted += 1
        failed += int(not ok(inv))
    if failed:
        problems.append(f"{failed} of {attempted} invocations failed")

    walls = [i.wall_s for i in plain]
    print(f"workload {args.workload} seed {args.seed}: teleo --json {' '.join(bench.args[:1])}, "
          f"{len(plain)} timed invocations, {len(traces)} traced, one client, closed loop")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        summaries = [s for _, s in traces]
        for s in summaries[1:]:
            if counts_of(s) != counts_of(summaries[0]):
                problems.append("traced counts differ between runs of one seed")
                break
        if doc is not None:
            for s in summaries:
                problems += identities(args.workload, bench.inputs, doc, s)
        overhead = statistics.median(i.wall_s for i, _ in traces) - statistics.median(walls)
        metrics = per_layer(summaries, overhead)
        units = PER_LAYER
        absent = summaries[0].get("absent", [])
        if absent:
            print(f"absent layers: {', '.join(absent)}")
        layers = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        top = max(layers, key=layers.get)
        print(f"dominant_layer {top.rsplit('.', 1)[0]} "
              f"({layers[top]:.4f} s of {sum(layers.values()):.4f} s traced self time)")
    else:
        cpu = [i.cpu_s for i in plain]
        tail_s, pct = tail(walls)
        raw = {
            "setup_s": statistics.median(setups),
            "cmd_s_p50": statistics.median(walls),
            "cmd_s_tail": tail_s,
            "cmd_cpu_s_p50": statistics.median(cpu),
        }
        host = statistics.median(references)
        metrics = {
            **{k: v * REFERENCE_S / host for k, v in raw.items()},
            "peak_rss_mb": statistics.median(i.rss_mb for i in plain),
            "success_rate": 1.0 - failed / attempted,
        }
        units = {"setup_s": "s", "cmd_s_p50": "s", "cmd_s_tail": "s", "cmd_cpu_s_p50": "s",
                 "peak_rss_mb": "MB", "success_rate": "ratio"}
        print(f"cmd_s_tail is p{pct:.1f} of {len(walls)} samples; "
              f"setup_s is the median of {len(setups)} set-up processes")
        print(f"error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} invocations)")
        print(f"reference median {host:.6f} s of {len(references)} probes; timings below are "
              f"the raw ones times {REFERENCE_S} / {host:.6f}")
        for name, value in raw.items():
            print(f"raw {name} {value} s")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for p in problems[:20]:
        print(f"problem: {p}")
    if len(problems) > 20:
        print(f"problem: ... and {len(problems) - 20} more")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the teleo CLI.")
    ap.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and reaped
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
