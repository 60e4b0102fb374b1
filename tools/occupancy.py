#!/usr/bin/env python3
"""Each provider's requests in flight over one ``refine``, per time bucket.

    python3 tools/occupancy.py [--workload rt_cold] [--seed 3] [--bucket-ms 50]

Prepares the seed's first input variant with ``perfbench``'s own ``Bench``
in a temporary directory and sets up one repetition. Each provider is then
rebuilt as ``Provider(spec, transport=recording)``, where ``recording``
notes the start and end of every call to the benchmark's mock transport,
retried attempts included, and ``pipeline.refine`` runs once with a fresh
cache, as the benchmark's job does.

One row per bucket gives its start in ms from ``refine``'s start and each
provider's mean requests in flight in it: the time its calls overlap the
bucket, divided by the bucket's length. Then, per provider, its busy time
(the sum of its calls' durations), its floor (busy time divided by its
``max_concurrency``) and its mean requests in flight over the run. The last
line gives ``refine_s`` divided by the largest floor: how far the run is
from the bottleneck provider's floor.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)


def in_flight(intervals: list[tuple[float, float]], end: float, bucket: float) -> list[float]:
    """The mean number of ``intervals``, each (start, end) in seconds, in
    flight in each ``bucket``-second bucket of [0, ``end``), ``end`` > 0:
    the time they overlap it divided by its length. The last bucket may be
    shorter."""
    n = max(1, math.ceil(end / bucket - 1e-9))  # 0.15 / 0.05 is 3.0000000000000004
    edges = np.minimum(np.arange(n + 1) * bucket, end)
    busy = np.zeros(n)
    for start, stop in intervals:
        busy += np.clip(np.minimum(stop, edges[1:]) - np.maximum(start, edges[:-1]), 0.0, None)
    return (busy / np.diff(edges)).tolist()


def measure(workload: str, seed: int, bucket: float) -> None:
    run.import_program()
    from hoirefine import pipeline
    from hoirefine.provider import Provider

    logging.disable(logging.WARNING)  # the mock providers' retry notices
    variant = run.variants(seed, run.WORKLOADS[workload]["pool"])[0]
    with tempfile.TemporaryDirectory(prefix="occupancy-") as work:
        bench = run.Bench(workload, work, [variant])
        bench.prepare()
        state = bench.setup(variant)
        transport, calls = state["transport"], defaultdict(list)

        def recording(spec, req):
            start = time.perf_counter()
            try:
                return transport(spec, req)
            finally:
                calls[spec.id].append((start - origin, time.perf_counter() - origin))

        providers = [Provider(p.spec, transport=recording) for p in state["providers"]]
        cache = os.path.join(work, "cache")
        origin = time.perf_counter()
        pipeline.refine(state["pred"], state["cfg"], cache_dir=cache,
                        transcript_dir=os.path.join(cache, "transcripts"), providers=providers)
        refine_s = time.perf_counter() - origin

    print(f"workload {workload}, seed {seed}, variant {variant}; "
          f"requests in flight per {1e3 * bucket:g} ms")
    ids = [p.id for p in providers]
    print(f"{'from_ms':>8}" + "".join(f"{pid:>10}" for pid in ids))
    columns = [in_flight(calls[pid], refine_s, bucket) for pid in ids]
    for i, row in enumerate(zip(*columns)):
        print(f"{1e3 * i * bucket:>8.0f}" + "".join(f"{v:>10.2f}" for v in row))
    print(f"{'provider':<10}{'calls':>8}{'busy_s':>10}{'slots':>7}{'floor_s':>10}{'mean':>8}")
    floors = {}
    for p in providers:
        busy = sum(stop - start for start, stop in calls[p.id])
        floors[p.id] = busy / p.spec.max_concurrency
        print(f"{p.id:<10}{len(calls[p.id]):>8}{busy:>10.3f}{p.spec.max_concurrency:>7}"
              f"{floors[p.id]:>10.3f}{busy / refine_s:>8.2f}")
    bottleneck = max(floors, key=floors.get)
    print(f"refine_s {refine_s:.3f}; refine_s / {bottleneck}'s floor "
          f"{refine_s / floors[bottleneck]:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="rt_cold",
                        choices=sorted(w for w, wl in run.WORKLOADS.items() if wl.get("latency")))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--bucket-ms", type=float, default=50.0)
    args = parser.parse_args()
    if args.bucket_ms <= 0:
        parser.error("--bucket-ms must be > 0")
    measure(args.workload, args.seed, args.bucket_ms / 1e3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
