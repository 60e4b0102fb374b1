#!/usr/bin/env python3
"""Resident set size at each phase of one benchmark repetition.

    python3 tools/rss_phases.py [--workload rt_long] [--seed 9] [--live N]

Prepares the seed's first input variant with ``perfbench``'s own ``Bench``
in a temporary directory, then runs one repetition in a fresh process as
``perfbench/worker.py`` does: the job, then the set-ups alone. Each library
call that ends a phase is wrapped. When one returns, a row gives its name,
the resident set size then (``/proc/self/statm``) and the largest size a
thread sampling every millisecond saw since the previous row. The last rows
give the sampled maximum, which can miss a short peak, the phase that held
it and its part of the repetition (the set-up, the job with its output
check, or the set-ups run alone after it), and ``ru_maxrss``, which the
benchmark reports as ``peak_rss_mb``. Linux only.

With ``--live N`` the repetition runs once more, in another fresh process
under ``tracemalloc``, and when the job's output check starts
(``run.sha256_file``) prints the N largest live allocation sites: KB, blocks
and file:line, a file of this tree by its relative path. They name what the
job still holds at its peak. A last line gives the KB live at sites under
``src/``, the program's own share. The RSS rows above come from the
untraced run, since tracing inflates the resident set.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
# (module, function) pairs whose return ends a phase, as the job calls them
PHASES = [("pipeline", "run_stage_two"), ("pipeline", "aggregate_provider_tables"),
          ("pipeline", "propagate_scores"), ("pipeline", "fuse_table"), ("pipeline", "refine"),
          ("ingest", "write_predictions"), ("ingest", "load_predictions"),
          ("ingest", "load_ground_truth"), ("evaluation", "recall_at_k_dataset")]
# functions of perfbench/run.py whose return ends a phase: the output check
# hashes the refined file, read whole while the job's data is still held
HARNESS = ["sha256_file"]


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def peak_phase(rows: list[tuple[str, float]], job_end: int) -> str:
    """The phase among ``rows``, each (name, sampled maximum) in the order
    the phases ended, with the largest maximum (the first on a tie), and its
    part: the set-up up to the first ``Bench.setup`` row, the job before row
    ``job_end``, and the set-ups after it."""
    peak = max(range(len(rows)), key=lambda i: (rows[i][1], -i))
    setup_end = next(i for i, (name, _) in enumerate(rows) if name == "Bench.setup")
    part = "set-up" if peak <= setup_end else "job" if peak < job_end else "post-job set-up"
    return f"{rows[peak][0]} ({part})"


def live_sites(snapshot: tracemalloc.Snapshot, n: int) -> list[str]:
    """The ``n`` largest live allocation sites of ``snapshot`` by size,
    ``tracemalloc``'s own left out, one row each: KB, blocks and file:line,
    a file under ``ROOT`` by its path relative to it."""
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    rows = []
    for stat in snapshot.statistics("lineno")[:n]:
        frame = stat.traceback[0]
        path = os.path.relpath(frame.filename, ROOT)
        path = frame.filename if path.startswith(os.pardir) else path
        rows.append(f"{stat.size / 1024:>10.1f}{stat.count:>10}  {path}:{frame.lineno}")
    return rows


def live_kb_under(snapshot: tracemalloc.Snapshot, directory: str) -> float:
    """The KB live in ``snapshot`` at allocation sites in files under
    ``directory``."""
    directory = os.path.join(os.path.abspath(directory), "")
    return sum(stat.size for stat in snapshot.statistics("filename")
               if os.path.abspath(stat.traceback[0].filename).startswith(directory)) / 1024


class Sampler:
    """The largest resident set size seen since the last ``take``, overall in
    ``peak``; each ``take``'s name and largest size in ``rows``."""

    def __init__(self):
        self.lock, self.stop = threading.Lock(), threading.Event()
        self.since = self.peak = rss_mb()
        self.rows = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while not self.stop.wait(0.001):
            self.note(rss_mb())

    def note(self, value: float) -> None:
        with self.lock:
            self.since, self.peak = max(self.since, value), max(self.peak, value)

    def take(self, name: str) -> None:
        now = rss_mb()
        self.note(now)
        with self.lock:
            print(f"{name:<34}{now:>10.2f}{self.since:>10.2f}")
            self.rows.append((name, self.since))
            self.since = now


def measure(workload: str, work: str, variant: int) -> None:
    run.import_program()
    from hoirefine import evaluation, ingest, pipeline

    logging.disable(logging.WARNING)  # the mock providers' retry notices
    modules = {"pipeline": pipeline, "ingest": ingest, "evaluation": evaluation}
    bench = run.Bench(workload, work, [variant], run.load_expected())
    sampler = Sampler()

    def phase(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sampler.take(name)
            return result
        return wrapper

    for module, name in PHASES:
        setattr(modules[module], name, phase(getattr(modules[module], name), f"{module}.{name}"))
    for name in HARNESS:
        setattr(run, name, phase(getattr(run, name), f"run.{name}"))
    bench.setup = phase(bench.setup, "Bench.setup")
    print(f"{'phase ends':<34}{'rss_mb':>10}{'max_mb':>10}")
    sampler.take("start")
    sample = bench.rep(variant)
    job_end = len(sampler.rows)
    bench.setup_times(variant, sample["setup_s"])
    sampler.stop.set()
    sampler.thread.join(timeout=5)
    print(f"{'sampled maximum':<34}{sampler.peak:>10.2f}")
    print(f"{'  held by':<34}{peak_phase(sampler.rows, job_end)}")
    print(f"{'ru_maxrss (peak_rss_mb)':<34}{run.peak_rss_mb():>10.2f}")
    for problem in sample["problems"]:
        print(f"rss_phases: {problem}", file=sys.stderr)


def measure_live(workload: str, work: str, variant: int, n: int) -> None:
    tracemalloc.start()
    run.import_program()
    logging.disable(logging.WARNING)
    bench = run.Bench(workload, work, [variant], run.load_expected())
    sha256_file, rows = run.sha256_file, []

    def check(path):
        if not rows:  # the job's output check, the first call
            snapshot = tracemalloc.take_snapshot()
            rows.extend(live_sites(snapshot, n))
            rows.append(f"{live_kb_under(snapshot, os.path.join(ROOT, 'src')):>10.1f}"
                        f"{'':>10}  in all, at the sites under src/")
        return sha256_file(path)

    run.sha256_file = check
    sample = bench.rep(variant)
    tracemalloc.stop()
    print(f"live at the start of run.sha256_file (job), traced; the {n} largest sites")
    print(f"{'KB':>10}{'blocks':>10}  file:line")
    print("\n".join(rows))
    for problem in sample["problems"]:
        print(f"rss_phases: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="rt_long",
                        choices=sorted(w for w in run.WORKLOADS if w != "gradcheck"))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--live", type=int, default=0, metavar="N",
                        help="also list the N largest live allocation sites at the output check")
    parser.add_argument("--work", help=argparse.SUPPRESS)  # set for the measuring process
    parser.add_argument("--variant", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.live < 0:
        parser.error("--live must be >= 0")
    if args.work:
        if args.live:  # the traced process
            measure_live(args.workload, args.work, args.variant, args.live)
        else:
            measure(args.workload, args.work, args.variant)
        return 0
    variant = run.variants(args.seed, run.WORKLOADS[args.workload]["pool"])[0]
    with tempfile.TemporaryDirectory(prefix="rss-phases-") as work:
        run.import_program()
        run.Bench(args.workload, work, [variant]).prepare()
        print(f"workload {args.workload}, seed {args.seed}, variant {variant}", flush=True)
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--work", work, "--variant", str(variant)]
        status = subprocess.run(command).returncode
        if status or not args.live:
            return status
        return subprocess.run(command + ["--live", str(args.live)]).returncode


if __name__ == "__main__":
    sys.exit(main())
