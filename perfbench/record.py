#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

For every refine workload and every input variant, run the job once (without
simulated latency, which does not change outputs) and store the refined
JSONL's sha256 and the Recall@K figures (for ``ablate_warm``, the whole
ablation grid) in ``perfbench/expected.json``. Run from the repository root:

    python3 perfbench/record.py

Only re-record when an output change is intended; the digests are what
tells a speed-up apart from a behaviour change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    expected = {}
    for name, wl in run.WORKLOADS.items():
        if wl["job"] == "gradcheck":
            continue
        expected[name] = {}
        for v in range(run.N_VARIANTS):
            work = os.path.join(run.WORK, f"record-{os.getpid()}")
            try:
                bench = run.Bench(name, work, [v], latency=False)
                bench.prepare()
                expected[name][str(v)] = bench.rep(v)["observed"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} variant {v}: {expected[name][str(v)]['sha256'][:12]}", flush=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
