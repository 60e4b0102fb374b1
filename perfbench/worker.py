#!/usr/bin/env python3
"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py <workload> <work dir> <variant> <trace 0|1>

``run.py`` prepares the inputs in the work directory and starts one worker
per repetition. The worker sets up, runs the job once, checks the output,
repeats the set-up alone to sample ``setup_s``, and prints one JSON line. A
traced worker installs the timing wrappers first, adds its per-layer
figures and writes its spans to ``spans-<pid>.jsonl`` in the work directory.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv: list[str]) -> int:
    name, work, variant, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    run.import_program()
    bench = run.Bench(name, work, [variant], run.load_expected())
    if trace:
        import layertrace

        bench.tracer = layertrace.Tracer()
        layertrace.install(bench.tracer)
        sample = bench.rep(variant)
        bench.tracer.uninstall()
        sample["layers"] = layertrace.layer_metrics(bench.tracer, sample["ctx"])
        with open(os.path.join(work, f"spans-{os.getpid()}.jsonl"), "w", encoding="utf-8") as fh:
            bench.tracer.dump(fh, os.getpid())
        sample["setup_s"] = [sample["setup_s"]]
    else:
        sample = bench.rep(variant)
        sample["setup_s"] = bench.setup_times(variant, sample["setup_s"])
    sample["peak_rss_mb"] = run.peak_rss_mb()
    del sample["ctx"], sample["observed"]
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
