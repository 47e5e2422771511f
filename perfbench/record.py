#!/usr/bin/env python3
"""Record the expected exit code and stdout digest of each workload and seed.

    python3 perfbench/record.py

Run from the root of a teleo source tree whose answers are known good: each
recorded answer must first pass the independent checks in oracle.py.  The
result replaces `expected.json`.  Seeds 0-99 are recorded for every
workload, and with them the held-out seed 9001, which is reserved for
confirming a claimed gain on inputs not used while the change was written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, Bench, gen, oracle

SEEDS = range(100)
HELD_OUT = 9001


def main() -> int:
    digests: dict[str, dict[str, list]] = {}
    for workload in sorted(gen.GENERATORS):
        digests[workload] = {}
        for seed in [*SEEDS, HELD_OUT]:
            bench = Bench(Path.cwd(), workload, seed)
            try:
                inv = bench.command()
                doc = json.loads(inv.stdout.read_text(encoding="utf-8"))
                problems = oracle.check(bench.inputs, doc, inv.code)
            finally:
                bench.close()
            if problems or inv.traceback:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = [inv.code, inv.digest]
        print(f"{workload}: {len(digests[workload])} seeds recorded", file=sys.stderr)
    doc = {"held_out": {w: HELD_OUT for w in digests}, "digests": digests}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
