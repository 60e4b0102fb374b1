#!/usr/bin/env python3
"""Offline, seeded benchmark of hoirefine.

Run from the repository root:

    python3 perfbench/run.py --workload rt_cold --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Workloads (see README.md for why each exists):

  rt_cold       200 frames, fresh cache, ~20 ms simulated provider latency,
                5% of prompts time out once; job = refine, write, Recall@K
  rt_long       the same with 800 frames
  ablate_warm   400 frames against a filled cache; job = refine plus the
                17-row component ablation grid
  long_offline  1600 frames, no latency, no cache; job = refine, write, Recall@K
  gradcheck     finite-difference check of the embedding loss, K=16

Every run generates its inputs from ``--seed``, then repeats the job, each
time in a fresh worker process (``worker.py``), until ``--seconds`` have
passed and every input variant ran once. A worker drives the library the way
the CLI does (``refine``/``eval``/``ablate``/``gradcheck``) and checks its
output against the digests in ``expected.json``. Human-readable lines
come first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones (from timing wrappers, see ``layertrace.py``) with ``--trace 1``.
``--workload all`` runs every workload in its own process and prints one
table.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKER = os.path.join(HERE, "worker.py")

# inputs are one of N_VARIANTS seeded videos (or batches), so that every
# variant's output digest can be recorded; a run cycles through a workload's
# "pool" of them
N_VARIANTS = 32
# per repetition, set-up is repeated until it adds up to this
SETUP_SECONDS = 0.25
WORKER_TIMEOUT = 170
KS = (10, 20, 50)
GRAD_TOLERANCE = 1e-4
GRAD_STEP = 1e-5

WORKLOADS = {
    "rt_cold": {"frames": 200, "latency": True, "fail_share": 0.05,
                "cache": "fresh", "job": "eval", "pool": 6},
    "rt_long": {"frames": 800, "latency": True, "fail_share": 0.05,
                "cache": "fresh", "job": "eval", "pool": 3},
    "ablate_warm": {"frames": 400, "latency": False, "fail_share": 0.0,
                    "cache": "warm", "job": "ablate", "pool": 3},
    "long_offline": {"frames": 1600, "latency": False, "fail_share": 0.0,
                     "cache": None, "job": "eval", "pool": 3},
    "gradcheck": {"job": "gradcheck", "pool": 2},
}

# (name, unit) of the end-to-end metrics, as the one-command table prints them
E2E = [("setup_s", "s"), ("job_s", "s"), ("refine_s", "s"), ("provider_calls", "count"),
       ("recall_at_20", "%"), ("peak_rss_mb", "MB"), ("failed_share", "ratio")]
# the subset every workload has, reported on the last line
E2E_COMMON = ("setup_s", "job_s", "peak_rss_mb")


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run against
    any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "hoirefine", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/hoirefine not found; run from a checkout of the repository")
    # one BLAS thread, set before numpy loads: on a small shared machine, BLAS
    # thread hand-offs on the gradcheck's tiny matrices add +-20% noise
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [SRC, HERE]
    import hoirefine

    if os.path.dirname(os.path.dirname(os.path.abspath(hoirefine.__file__))) != SRC:
        sys.exit(f"perfbench: imported hoirefine from {hoirefine.__file__}, not {SRC}")


def variants(seed: int, pool: int) -> list[int]:
    return [(pool * seed + j) % N_VARIANTS for j in range(pool)]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def positives_per_frame(frames, fused=None, threshold=0.3) -> dict:
    """Per frame, the (pair_key, relation, score) entries above the
    threshold, from the frames' own scores or from a fused table."""
    from hoirefine.model import pair_key

    out = {}
    for frame in frames:
        positives = []
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r, s in enumerate(pair.scores):
                if fused is not None:
                    s = fused[(frame.frame_index, pk, r)]
                if s > threshold:
                    positives.append((pk, r, s))
        out[frame.frame_index] = positives
    return out


def gt_per_frame(gt_set) -> dict:
    return {fi: frozenset((("id",) + tuple(pid), r) for pid, r in triplets)
            for fi, triplets in gt_set.frames.items()}


def ablation_grid(pred_set, table, cfg, gt_frames) -> list[list]:
    """The rows ``hoirefine ablate`` prints: baseline, then every component
    on/off combination, each re-fused from the one agent run."""
    from hoirefine import evaluation, pipeline

    components = ("cs", "spatial", "temporal", "debate")
    grid = [("baseline", {c: False for c in components})]
    for bits in itertools.product((False, True), repeat=len(components)):
        toggles = dict(zip(components, bits))
        grid.append(("+".join(c for c in components if toggles[c]) or "none", toggles))
    rows = []
    for label, toggles in grid:
        fused = pipeline.fuse_table(pred_set, table, cfg.weights, toggles)
        recalls = evaluation.recall_at_k_dataset(
            positives_per_frame(pred_set.frames, fused, cfg.weights.threshold), gt_frames, KS)
        rows.append([label] + [recalls[k] for k in KS])
    return rows


class Bench:
    """One workload's inputs, repetitions and checks inside a scratch
    directory ``work``. The measuring process prepares the inputs; each
    repetition then runs in a worker process (``worker.py``) of its own."""

    def __init__(self, name: str, work: str, variant_ids: list[int], expected=None,
                 latency=None):
        self.name = name
        self.wl = WORKLOADS[name]
        self.latency = self.wl.get("latency") if latency is None else latency
        self.work = work
        self.expected = (expected or {}).get(name, {})
        self.variants = variant_ids
        self.tracer = None

    def prepare(self):
        """Generate every variant's inputs and the mock LLM's scenario; for
        ``ablate_warm``, fill the variant's cache with an untimed cold run."""
        import gen

        for v in self.variants:
            d = self.dir(v)
            if self.wl["job"] == "gradcheck":
                os.makedirs(d, exist_ok=True)
                gen.make_embedding_batch(os.path.join(d, "batch.jsonl"), v)
                continue
            gen.save_scenario(os.path.join(d, "scenario.json"),
                              gen.make_video(d, v, self.wl["frames"]))
            gen.write_config(os.path.join(d, "config.json"))
            if self.wl["cache"] == "warm":
                state = self.setup(v, latency=False)
                from hoirefine import pipeline

                pipeline.refine(state["pred"], state["cfg"], cache_dir=os.path.join(d, "cache"),
                                providers=state["providers"])

    def dir(self, v: int) -> str:
        return os.path.join(self.work, f"v{v}")

    # -- one repetition ----------------------------------------------------

    def setup(self, v: int, latency=None) -> dict:
        """Everything before the first provider call, timed as setup_s."""
        from hoirefine import config, embedloss, ingest, provider
        import numpy as np
        from transport import Transport
        import gen

        d = self.dir(v)
        if self.wl["job"] == "gradcheck":
            start = time.perf_counter()
            batch, metric = embedloss.load_embedding_batch(os.path.join(d, "batch.jsonl"))
            params = embedloss.random_mlp(np.random.default_rng(v), 3 * batch.feature_dim,
                                          hidden=(16,), d_out=batch.embed_dim)
            return {"setup_s": time.perf_counter() - start, "batch": batch,
                    "metric": metric, "params": params}
        latency = self.latency if latency is None else latency
        scenario = gen.load_scenario(os.path.join(d, "scenario.json"))
        transport = Transport(scenario, gen.SPATIAL_AWARE, latency=latency,
                              fail_share=self.wl["fail_share"] if latency else 0.0)
        start = time.perf_counter()
        cfg = config.load_config(os.path.join(d, "config.json"))
        vocab = ingest.load_vocabulary(os.path.join(d, "vocab.txt"))
        pred = ingest.load_predictions(os.path.join(d, "predictions.jsonl"), vocab)
        gt = ingest.load_ground_truth(os.path.join(d, "gt.jsonl"), pred)
        providers = [provider.Provider(spec, transport=transport) for spec in cfg.providers]
        setup_s = time.perf_counter() - start
        return {"setup_s": setup_s, "cfg": cfg, "vocab": vocab, "pred": pred, "gt": gt,
                "providers": providers, "transport": transport}

    def rep(self, v: int) -> dict:
        """Set up, run the job once, check its output. Returns the
        repetition's figures."""
        if self.wl["job"] == "gradcheck":
            return self._gradcheck_rep(v)
        from hoirefine import evaluation, ingest, pipeline

        state = self.setup(v)
        if self.tracer is not None:
            self.tracer.transport = state["transport"]
        d = self.dir(v)
        cfg, pred = state["cfg"], state["pred"]
        cache_dir, transcripts = None, None
        if self.wl["cache"] == "fresh":
            cache_dir = os.path.join(self.work, f"cache-{os.getpid()}")
            transcripts = os.path.join(cache_dir, "transcripts")
        elif self.wl["cache"] == "warm":
            cache_dir = os.path.join(d, "cache")
        out_path = os.path.join(self.work, f"refined-{os.getpid()}.jsonl")

        start = time.perf_counter()
        outcome = pipeline.refine(pred, cfg, cache_dir=cache_dir, transcript_dir=transcripts,
                                  providers=state["providers"])
        refine_s = time.perf_counter() - start
        grid = None
        if self.wl["job"] == "eval":
            ingest.write_predictions(pred, outcome.fused, out_path)
            refined = ingest.load_predictions(out_path, state["vocab"])
            refined_gt = ingest.load_ground_truth(os.path.join(d, "gt.jsonl"), refined)
            recalls = evaluation.recall_at_k_dataset(
                positives_per_frame(refined.frames, threshold=cfg.weights.threshold),
                gt_per_frame(refined_gt), KS)
        else:
            grid = ablation_grid(pred, outcome.table, cfg, gt_per_frame(state["gt"]))
            recalls = dict(zip(KS, grid[-1][1:]))
        job_s = time.perf_counter() - start
        if self.wl["job"] == "ablate":
            ingest.write_predictions(pred, outcome.fused, out_path)
        if self.wl["cache"] == "fresh":
            shutil.rmtree(cache_dir)

        providers, transport = state["providers"], state["transport"]
        calls = sum(p.call_count for p in providers)
        hits = sum(p.cache_hits for p in providers)
        distinct = len(transport.attempts_by_prompt)
        observed = {"sha256": sha256_file(out_path), "recall": [recalls[k] for k in KS]}
        os.remove(out_path)
        if grid is not None:
            observed["grid"] = grid
        checks = self.check(v, observed)
        checks.append((calls == distinct, f"{calls} billed calls for {distinct} distinct prompts"))
        if self.wl["cache"] == "warm":
            checks.append((calls == 0, f"warm rerun billed {calls} calls"))
        problems = [message for ok, message in checks if not ok]
        records = sum(len(f.pairs) for f in pred.frames)
        tracked = sum(p.pair_id is not None for _, p in pred.iter_pairs())
        return {
            "variant": v, "observed": observed, "problems": problems,
            "setup_s": state["setup_s"], "job_s": job_s, "refine_s": refine_s,
            "provider_calls": calls, "recall_at_20": recalls[20],
            "attempted": calls + hits + len(checks),
            "failed": distinct - transport.answered + len(problems),
            "ctx": {"providers": providers, "transport": transport, "latency": self.latency,
                    "frames": len(pred.frames), "records": records,
                    "tracked_share": tracked / records,
                    "table_entries": len(outcome.table), "job_s": job_s},
        }

    def _gradcheck_rep(self, v: int) -> dict:
        from hoirefine import embedloss

        state = self.setup(v)
        start = time.perf_counter()
        error = embedloss.finite_diff_check(state["params"], state["batch"], state["metric"],
                                            GRAD_STEP)
        job_s = time.perf_counter() - start
        problems = [] if error <= GRAD_TOLERANCE else [
            f"gradient error {error:.3e} > {GRAD_TOLERANCE}"]
        return {"variant": v, "observed": {"error": error}, "problems": problems,
                "setup_s": state["setup_s"], "job_s": job_s, "attempted": 1,
                "failed": len(problems), "ctx": {"job_s": job_s}}

    def check(self, v: int, observed: dict) -> list[tuple[bool, str]]:
        """Compare a refine output with the digests recorded for its
        variant: (passed, message) per check."""
        want = self.expected.get(str(v))
        if want is None:
            return [(False, f"no recorded output for variant {v}")]
        key = "grid" if "grid" in want else "recall"
        return [
            (observed["sha256"] == want["sha256"],
             f"refined output sha256 {observed['sha256'][:12]} != recorded {want['sha256'][:12]}"),
            (observed[key] == want[key], f"{key} {observed[key]} != recorded {want[key]}"),
        ]

    def setup_times(self, v: int, first: float) -> list[float]:
        """``first`` plus set-ups alone until they add up to SETUP_SECONDS."""
        times = [first]
        while sum(times) < SETUP_SECONDS:
            times.append(self.setup(v)["setup_s"])
        return times


def measure(bench: Bench, seconds: float, trace: bool = False) -> list[dict]:
    """Repetitions, each in a fresh worker process, cycling through the
    variants until ``seconds`` have passed and each variant ran once.
    Separate processes average out per-process speed differences (memory
    layout), which on a small shared machine reach 30-40%."""
    samples = []
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= len(bench.variants) and time.perf_counter() >= deadline:
            return samples
        v = bench.variants[i % len(bench.variants)]
        proc = subprocess.run([sys.executable, WORKER, bench.name, bench.work, str(v),
                               str(int(trace))], capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"{bench.name} variant {v}: worker exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_one(args) -> int:
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    traced = []
    try:
        bench = Bench(args.workload, work, variants(args.seed, WORKLOADS[args.workload]["pool"]))
        bench.prepare()
        if args.trace:
            samples = measure(bench, args.seconds / 2)
            traced = measure(bench, args.seconds / 2, trace=True)
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
            with open(trace_path, "w", encoding="utf-8") as out:
                for name in sorted(os.listdir(work)):
                    if name.startswith("spans-"):
                        with open(os.path.join(work, name), encoding="utf-8") as fh:
                            shutil.copyfileobj(fh, out)
        else:
            samples = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for s in samples + traced:
        for problem in s["problems"]:
            print(f"perfbench: {args.workload} variant {s['variant']}: {problem}", file=sys.stderr)
    attempted = sum(s["attempted"] for s in samples + traced)
    failed = sum(s["failed"] for s in samples + traced)

    def med(key):
        return statistics.median(s[key] for s in samples) if key in samples[0] else None

    setups = [t for s in samples for t in s["setup_s"]]
    full = {"setup_s": statistics.median(setups), "job_s": med("job_s"),
            "refine_s": med("refine_s"), "provider_calls": med("provider_calls"),
            "recall_at_20": med("recall_at_20"),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
            "failed_share": failed / attempted}
    print(f"workload {args.workload}, seed {args.seed}, variants {bench.variants}: "
          f"{len(samples)} repetitions, {len(setups)} set-ups, {len(traced)} traced repetitions")
    for name, unit in E2E:
        extra = f"  ({failed}/{attempted})" if name == "failed_share" else ""
        print(f"  {name:<16}{fmt(full[name]):>12} {unit}{extra}")

    if args.trace:
        import layertrace

        layers = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.job_s"] - full["job_s"]
        print("per-layer (median over traced repetitions):")
        for name, unit, _ in layertrace.LAYER_METRICS:
            print(f"  {name:<32}{fmt(layers[name]):>12} {unit}")
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in layertrace.LAYER_METRICS}
    else:
        units = dict(E2E)
        metrics = {name: {"value": full[name], "unit": units[name]} for name in E2E_COMMON}
    print("REPORT " + json.dumps({"workload": args.workload, "metrics": full,
                                  "attempted": attempted, "failed": failed}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one table."""
    results, correct = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        report = next((json.loads(ln[len("REPORT "):]) for ln in lines
                       if ln.startswith("REPORT ")), None)
        if proc.returncode != 0 or report is None:
            print(f"perfbench: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = report
        correct = correct and report["failed"] == 0
    width = max(len(n) for n in WORKLOADS)
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{n:>{width + 2}}" for n in WORKLOADS))
    for metric, unit in E2E:
        cells = []
        for name in WORKLOADS:
            r = results[name]
            cell = fmt(r["metrics"][metric])
            if metric == "failed_share":
                cell = f"{cell} ({r['failed']}/{r['attempted']})"
            cells.append(f"{cell:>{width + 2}}")
        print(f"{metric:<16}{unit:<7}" + "".join(cells))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": {"value": results[name]["metrics"][m], "unit": u}
                    for name in WORKLOADS for m, u in E2E
                    if results[name]["metrics"][m] is not None},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
