#!/usr/bin/env python3
"""Paired benchmark runs of HEAD against the working tree.

    python3 tools/pairs.py --workload rt_cold --first-seed 20 --pairs 10 \\
        [--workload rt_long ...] [--out BENCH.json]

The parent is HEAD's tree. The working tree (its tracked files as they
are now, less the deleted ones, plus the untracked files git does not
ignore) is written as a git tree with a temporary index and object
directory, so the repository's own index and object store are left as
they are. Both trees are extracted the same way, with ``git archive``, each
into its own directory under one temporary directory, so that the two sides
differ only in their files, not in how they were made. For each seed
i (``--first-seed`` onwards, ``--pairs`` of them) both sides run
``perfbench/run.py --workload W --seed i --trace 0`` in their own tree, one
after the other, for the run length the benchmark sets: the
parent first on even seeds, the working tree first on odd ones. Every
pair's ``job_s``, ``setup_s``, ``peak_rss_mb`` and failure count are
printed, then each side's median and quartiles, how many pairs the working
tree won, and whether the gain rule holds for each metric: the working tree
wins at least 9 of every 10 pairs, its median is lower than the parent's by
more than the parent's quartile distance, and no more of its operations
failed than the parent's. Each metric is also flagged ``regressed`` when
the working tree's median is above the parent's by more than the metric's
``bound`` in ``BENCHMARK.json``, taken as a share of the parent's median.
Next to the bound it prints the parent's quartile distance as a share of
its median, and flags the metric ``unresolved`` when that spread exceeds
the bound, unless every run of the working tree reads better than every
run of the parent: noise alone can then cross the bound, so a median
within it does not show the metric unchanged. ``--out`` writes the same
summary as JSON. The exit status is 1 when any
metric of any workload regressed or the working tree failed more
operations than the parent on any workload, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT = "HEAD"
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BOUNDS = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
METRICS = tuple(BOUNDS)  # job_s, setup_s, peak_rss_mb: all lower-is-better


def git(env: dict, *args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], env=env, check=True,
                          capture_output=True).stdout


def scratch_store(directory: str) -> dict:
    """An environment in which git keeps its index and new objects under
    ``directory`` and reads the repository's objects as alternates."""
    objects = os.path.join(ROOT, git(os.environ, "rev-parse", "--git-path", "objects")
                           .decode().strip())
    os.mkdir(os.path.join(directory, "objects"))
    return {**os.environ, "GIT_INDEX_FILE": os.path.join(directory, "index"),
            "GIT_OBJECT_DIRECTORY": os.path.join(directory, "objects"),
            "GIT_ALTERNATE_OBJECT_DIRECTORIES": objects}


def worktree_tree(env: dict) -> str:
    """The id of a tree of the working tree, written in ``env``'s store."""
    git(env, "read-tree", "HEAD")
    git(env, "add", "-A")
    return git(env, "write-tree").decode().strip()


def extract(env: dict, tree: str, directory: str) -> None:
    subprocess.run(["tar", "-x", "-C", directory], input=git(env, "archive", tree), check=True)


def run_side(tree: str, workload: str, seed: int) -> dict:
    """The REPORT line of one benchmark run in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
            return {**{m: report["metrics"][m] for m in METRICS},
                    "failed": report["failed"], "attempted": report["attempted"]}
    sys.stderr.write(proc.stderr)
    raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode} "
                       "without a REPORT line")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def failures(pairs: list[dict]) -> dict:
    return {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}


def summarize(pairs: list[dict]) -> dict:
    failed = failures(pairs)
    out = {}
    for metric in METRICS:
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        wins = sum(c < p for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        gap = before["median"] - after["median"]
        noise = (before["q3"] - before["q1"]) / before["median"]
        out[metric] = {"parent": before, "change": after, "wins": wins,
                       "spread": noise,
                       "unresolved": noise > BOUNDS[metric] and max(change) >= min(parent),
                       "gain": (wins * 10 >= 9 * len(pairs)
                                and gap > before["q3"] - before["q1"]
                                and failed["change"] <= failed["parent"]),
                       "regressed": -gap > BOUNDS[metric] * before["median"]}
    return out


def exit_status(workloads: dict) -> int:
    """1 when a metric regressed or failures rose on any workload, else 0."""
    for run in workloads.values():
        failed = failures(run["pairs"])
        if (failed["change"] > failed["parent"]
                or any(r["regressed"] for r in run["summary"].values())):
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    rev = git(os.environ, "rev-parse", PARENT).decode().strip()
    summary = {"parent": rev, "workloads": {}}
    top = tempfile.mkdtemp(prefix="pairs-")
    parent_tree, change_tree = os.path.join(top, "parent"), os.path.join(top, "change")
    try:
        os.mkdir(parent_tree)
        os.mkdir(change_tree)
        env = scratch_store(top)
        extract(env, f"{rev}^{{tree}}", parent_tree)
        extract(env, worktree_tree(env), change_tree)
        for workload in args.workload:
            print(f"{workload}: parent {rev[:12]} vs working tree")
            print(f"  {'seed':>4}  " + "  ".join(f"{m + ' p/c':>21}" for m in METRICS)
                  + "  failed p/c")
            pairs = []
            for seed in range(args.first_seed, args.first_seed + args.pairs):
                order = [("parent", parent_tree), ("change", change_tree)]
                if seed % 2:
                    order.reverse()
                pair = {"seed": seed}
                for side, tree in order:
                    pair[side] = run_side(tree, workload, seed)
                pairs.append(pair)
                cells = "  ".join(f"{pair['parent'][m]:>10.4f}/{pair['change'][m]:<10.4f}"
                                  for m in METRICS)
                print(f"  {seed:>4}  {cells}  {pair['parent']['failed']}/"
                      f"{pair['change']['failed']}", flush=True)
            result = summarize(pairs)
            for metric, r in result.items():
                p, c = r["parent"], r["change"]
                verdict = "holds" if r["gain"] else "fails"
                regressed = "REGRESSED" if r["regressed"] else "no regression"
                unresolved = "  UNRESOLVED" if r["unresolved"] else ""
                print(f"  {metric}: parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                      f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
                      f"  wins {r['wins']}/{len(pairs)}  gain rule {verdict}"
                      f"  {regressed} (bound {BOUNDS[metric]:.0%},"
                      f" parent spread {r['spread']:.0%}){unresolved}")
            summary["workloads"][workload] = {"pairs": pairs, "summary": result}
    finally:
        shutil.rmtree(top, ignore_errors=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return exit_status(summary["workloads"])


if __name__ == "__main__":
    sys.exit(main())
