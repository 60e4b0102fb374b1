"""The verdicts of ``tools/pairs.py``. A metric counts as a gain only when
the change wins at least 9 of every 10 pairs, its median is below the
parent's by more than the parent's quartile distance, and no more of its
operations failed. It counts as regressed when the change's median is
above the parent's by more than the metric's ``BENCHMARK.json`` bound,
and the run then exits 1, as it does when failures rose. It counts as
unresolved when the parent's quartile distance, as a share of its median,
exceeds the bound, unless every change run beats every parent run."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.fixture
def pairs():
    sys.path.insert(0, TOOLS)
    try:
        import pairs
    finally:
        sys.path.remove(TOOLS)
    return pairs


# parent job_s 1.00..1.09: quartiles 1.0225 and 1.0675, an IQR of 0.045
PARENT_JOB_S = [1.00 + 0.01 * i for i in range(10)]


def side(job_s: float, failed: int = 0) -> dict:
    return {"job_s": job_s, "setup_s": 0.05, "peak_rss_mb": 40.0,
            "failed": failed, "attempted": 100}


def make_pairs(change_job_s, parent_failed=0, change_failed=0) -> list[dict]:
    return [{"seed": seed, "parent": side(p, parent_failed), "change": side(c, change_failed)}
            for seed, (p, c) in enumerate(zip(PARENT_JOB_S, change_job_s))]


def test_all_wins_beyond_the_parents_spread_is_a_gain(pairs):
    result = pairs.summarize(make_pairs([p - 0.1 for p in PARENT_JOB_S]))
    assert result["job_s"]["wins"] == 10
    assert result["job_s"]["gain"]
    # a tie on every pair is neither a win nor a gain
    assert result["setup_s"]["wins"] == 0
    assert not result["setup_s"]["gain"]


def test_eight_wins_are_no_gain(pairs):
    change = [p - 0.1 for p in PARENT_JOB_S[:8]] + [p + 0.1 for p in PARENT_JOB_S[8:]]
    result = pairs.summarize(make_pairs(change))
    assert result["job_s"]["wins"] == 8
    assert not result["job_s"]["gain"]


def test_gap_within_the_parents_iqr_is_no_gain(pairs):
    # every pair won, but the medians differ by 0.04, below the IQR of 0.045
    result = pairs.summarize(make_pairs([p - 0.04 for p in PARENT_JOB_S]))
    summary = result["job_s"]
    assert summary["wins"] == 10
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == pytest.approx(0.045)
    assert not summary["gain"]


def test_more_failed_runs_in_the_change_is_no_gain(pairs):
    faster = [p - 0.1 for p in PARENT_JOB_S]
    assert pairs.summarize(make_pairs(faster, parent_failed=1, change_failed=1))["job_s"]["gain"]
    result = pairs.summarize(make_pairs(faster, parent_failed=0, change_failed=1))
    assert result["job_s"]["wins"] == 10
    assert not result["job_s"]["gain"]


def test_bounds_are_read_from_the_benchmark(pairs):
    with open(os.path.join(TOOLS, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    assert pairs.BOUNDS == declared
    assert pairs.METRICS == tuple(declared)


def test_median_worse_beyond_the_bound_is_a_regression(pairs):
    bound = pairs.BOUNDS["job_s"]
    result = pairs.summarize(make_pairs([p * (1 + bound) + 0.01 for p in PARENT_JOB_S]))
    assert result["job_s"]["regressed"]
    assert not result["job_s"]["gain"]
    assert not result["setup_s"]["regressed"]


def test_median_worse_within_the_bound_is_no_regression(pairs):
    bound = pairs.BOUNDS["job_s"]
    result = pairs.summarize(make_pairs([p * (1 + bound) - 0.01 for p in PARENT_JOB_S]))
    assert result["job_s"]["wins"] == 0
    assert not result["job_s"]["regressed"]
    # a gain is never a regression
    assert not pairs.summarize(make_pairs([p - 0.1 for p in PARENT_JOB_S]))["job_s"]["regressed"]


def with_setup_s(pairs_list, parent, change) -> list[dict]:
    """``pairs_list`` with each side's ``setup_s`` taken from ``parent`` and ``change``."""
    for pair, p, c in zip(pairs_list, parent, change):
        pair["parent"]["setup_s"], pair["change"]["setup_s"] = p, c
    return pairs_list


# parent setup_s 0.15..0.33: quartiles 0.195 and 0.285 around a median of 0.24,
# a spread of 37.5% of the median, wider than setup_s's bound
WIDE_SETUP_S = [0.15 + 0.02 * i for i in range(10)]


def test_spread_is_the_parents_quartile_distance_over_its_median(pairs):
    result = pairs.summarize(make_pairs([p - 0.1 for p in PARENT_JOB_S]))
    assert result["job_s"]["spread"] == pytest.approx(0.045 / 1.045)
    assert not result["job_s"]["unresolved"]


def test_spread_wider_than_the_bound_is_unresolved(pairs):
    assert pairs.BOUNDS["setup_s"] < 0.375
    result = pairs.summarize(with_setup_s(make_pairs(PARENT_JOB_S), WIDE_SETUP_S,
                                          WIDE_SETUP_S[::-1]))
    summary = result["setup_s"]
    assert summary["spread"] == pytest.approx(0.375)
    assert summary["unresolved"]
    assert not summary["regressed"]
    assert not result["job_s"]["unresolved"]


def test_wide_spread_is_resolved_when_every_change_run_is_better(pairs):
    result = pairs.summarize(with_setup_s(make_pairs(PARENT_JOB_S), WIDE_SETUP_S,
                                          [0.149 - 0.001 * i for i in range(10)]))
    assert result["setup_s"]["spread"] > pairs.BOUNDS["setup_s"]
    assert not result["setup_s"]["unresolved"]


@pytest.fixture
def run_main(pairs, monkeypatch, tmp_path):
    """``pairs.main`` on two workloads without git or benchmark runs: each
    side's report comes from ``reports[side][workload]``. Returns the exit
    status and the ``--out`` summary."""
    monkeypatch.setattr(pairs, "git", lambda _env, *_args: b"f" * 40 + b"\n")
    monkeypatch.setattr(pairs, "extract", lambda _env, _tree, _directory: None)

    def run(reports):
        monkeypatch.setattr(pairs, "run_side", lambda tree, workload, _seed: reports[
            os.path.basename(tree)][workload])
        out = tmp_path / "bench.json"
        status = pairs.main(["--workload", "a", "--workload", "b", "--first-seed", "0",
                             "--pairs", "3", "--out", str(out)])
        return status, json.loads(out.read_text(encoding="utf-8"))
    return run


def test_no_regression_exits_zero(run_main):
    status, summary = run_main({"parent": {"a": side(1.0), "b": side(2.0)},
                                "change": {"a": side(1.1), "b": side(2.0)}})
    assert status == 0
    assert not summary["workloads"]["a"]["summary"]["job_s"]["regressed"]


def test_regressed_metric_exits_one_after_writing_the_summary(run_main):
    status, summary = run_main({"parent": {"a": side(1.0), "b": side(2.0)},
                                "change": {"a": side(1.0), "b": side(3.0)}})
    assert status == 1
    assert summary["workloads"]["b"]["summary"]["job_s"]["regressed"]


def test_more_failures_exit_one(run_main):
    status, summary = run_main({"parent": {"a": side(1.0), "b": side(2.0)},
                                "change": {"a": side(1.0, failed=1), "b": side(2.0)}})
    assert status == 1
    assert not any(r["regressed"] for run in summary["workloads"].values()
                   for r in run["summary"].values())


def test_unresolved_metric_keeps_the_exit_status(pairs):
    runs = with_setup_s(make_pairs(PARENT_JOB_S), WIDE_SETUP_S, WIDE_SETUP_S[::-1])
    summary = pairs.summarize(runs)
    assert summary["setup_s"]["unresolved"]
    assert pairs.exit_status({"a": {"pairs": runs, "summary": summary}}) == 0


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def store(repo) -> dict:
    """Every file under the repository's ``.git``, with its bytes."""
    return {str(path.relative_to(repo)): path.read_bytes()
            for path in (repo / ".git").rglob("*") if path.is_file()}


def test_both_sides_run_from_extracted_sibling_trees(pairs, monkeypatch, tmp_path):
    """The parent is HEAD and the change the working tree, each extracted by
    ``git archive`` under one temporary directory; an uncommitted edit and a
    new untracked file reach only the change side, a deleted file only the
    parent side, an ignored file neither, and the repository's index and
    object store are left as they were."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("committed\n")
    (repo / "perfbench" / "old.py").write_text("deleted\n")
    (repo / ".gitignore").write_text("*.log\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text("edited\n")
    (repo / "perfbench" / "old.py").unlink()
    (repo / "perfbench" / "new.py").write_text("untracked\n")
    (repo / "perfbench" / "out.log").write_text("ignored\n")
    before = store(repo)
    monkeypatch.setattr(pairs, "ROOT", str(repo))
    trees = {}

    def run_side(tree, _workload, _seed):
        files = {str(path.relative_to(tree)): path.read_text(encoding="utf-8")
                 for path in pathlib.Path(tree).rglob("*") if path.is_file()}
        trees.setdefault(tree, files)
        return side(1.0)
    monkeypatch.setattr(pairs, "run_side", run_side)
    assert pairs.main(["--workload", "a", "--first-seed", "0", "--pairs", "2"]) == 0
    parent, change = sorted(trees, key=lambda tree: os.path.basename(tree) == "change")
    assert os.path.dirname(parent) == os.path.dirname(change)
    assert os.path.realpath(pairs.ROOT) not in {os.path.realpath(parent), os.path.realpath(change)}
    assert trees[parent] == {".gitignore": "*.log\n", "perfbench/run.py": "committed\n",
                             "perfbench/old.py": "deleted\n"}
    assert trees[change] == {".gitignore": "*.log\n", "perfbench/run.py": "edited\n",
                             "perfbench/new.py": "untracked\n"}
    assert store(repo) == before
    # both trees are removed when the run ends
    assert not os.path.exists(os.path.dirname(parent))
