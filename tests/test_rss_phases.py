"""``tools/rss_phases.py`` wraps functions of the package by (module, name),
and of the benchmark harness by name, to mark the end of each phase. The
first two tests fail when a rename would make that tool stop at start-up;
the next check which phase it names as holding the sampled maximum, and
the last how it lists and sums the live allocation sites of ``--live``."""

import importlib
import json
import os
import sys
import tracemalloc

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.fixture
def rss_phases():
    path = list(sys.path)
    sys.path.insert(0, TOOLS)
    try:
        import rss_phases  # puts perfbench on the path too
    finally:
        sys.path[:] = path
    return rss_phases


def test_every_phase_is_a_function_of_the_package(rss_phases):
    assert rss_phases.PHASES
    for module, name in rss_phases.PHASES:
        owner = importlib.import_module(f"hoirefine.{module}")
        assert callable(getattr(owner, name, None)), f"{module}.{name}"


def test_every_harness_phase_is_a_function_of_the_benchmark(rss_phases):
    assert rss_phases.HARNESS
    for name in rss_phases.HARNESS:
        assert callable(getattr(rss_phases.run, name, None)), f"run.{name}"


# the rows of one rt_long repetition: its set-up, the job, then one set-up
# run alone; row 13 (index) is the first row after the job
ROWS = [("start", 35.2), ("ingest.load_predictions", 38.9), ("ingest.load_ground_truth", 40.0),
        ("Bench.setup", 40.0), ("pipeline.run_stage_two", 51.3),
        ("pipeline.aggregate_provider_tables", 54.4), ("pipeline.propagate_scores", 54.3),
        ("pipeline.fuse_table", 55.6), ("pipeline.refine", 55.1),
        ("ingest.write_predictions", 55.1), ("ingest.load_predictions", 55.1),
        ("ingest.load_ground_truth", 54.0), ("evaluation.recall_at_k_dataset", 55.4),
        ("ingest.load_predictions", 57.6), ("ingest.load_ground_truth", 52.2),
        ("Bench.setup", 52.2)]
JOB_END = 13


def with_max(index, value):
    return [(name, value if i == index else mb) for i, (name, mb) in enumerate(ROWS)]


@pytest.mark.parametrize("index, named", [
    (13, "ingest.load_predictions (post-job set-up)"),
    (6, "pipeline.propagate_scores (job)"),
    (1, "ingest.load_predictions (set-up)"),
    (3, "Bench.setup (set-up)"),
    (15, "Bench.setup (post-job set-up)"),
])
def test_names_the_phase_and_part_holding_the_maximum(rss_phases, index, named):
    assert rss_phases.peak_phase(with_max(index, 60.0), JOB_END) == named


def test_a_tie_names_the_earlier_phase(rss_phases):
    rows = with_max(6, 57.6)  # propagation reaches the post-job set-up's maximum
    assert rss_phases.peak_phase(rows, JOB_END) == "pipeline.propagate_scores (job)"


def test_live_sites_lists_the_largest_sites_first(rss_phases):
    tracemalloc.start()
    try:
        small = [bytearray(100) for _ in range(50)]
        large, line = [bytearray(2000) for _ in range(100)], sys._getframe().f_lineno
        rows = rss_phases.live_sites(tracemalloc.take_snapshot(), 2)
    finally:
        tracemalloc.stop()
    assert len(small) == 50 and len(large) == 100
    assert len(rows) == 2
    kb, blocks, site = rows[0].split()
    assert site == f"tests/test_rss_phases.py:{line}"
    assert 100 * 2000 / 1024 <= float(kb) < 1.5 * 100 * 2000 / 1024
    assert int(blocks) >= 100
    assert rows[1].endswith(f"tests/test_rss_phases.py:{line - 1}")
    assert not any("tracemalloc.py" in row for row in rows)


def test_live_sites_names_a_file_outside_the_tree_by_its_own_path(rss_phases):
    tracemalloc.start()
    try:
        held = json.loads("[" + ", ".join(['"' + "x" * 4000 + '"'] * 20) + "]")
        rows = rss_phases.live_sites(tracemalloc.take_snapshot(), 1)
    finally:
        tracemalloc.stop()
    assert len(held) == 20
    assert rows[0].split()[2].startswith(os.path.dirname(json.__file__))


def test_live_kb_under_sums_the_sites_of_a_directory_alone(rss_phases):
    here = os.path.dirname(os.path.abspath(__file__))
    tracemalloc.start()
    try:
        held = [bytearray(1000) for _ in range(200)]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(held) == 200
    sites = {os.path.abspath(stat.traceback[0].filename): stat.size / 1024
             for stat in snapshot.statistics("filename")}
    mine = sum(kb for path, kb in sites.items() if path.startswith(here + os.sep))
    assert rss_phases.live_kb_under(snapshot, here) == pytest.approx(mine)
    assert mine >= 200 * 1000 / 1024
    # a path this directory's name starts with is no directory of its files
    assert rss_phases.live_kb_under(snapshot, here[:-1]) == 0
    assert rss_phases.live_kb_under(snapshot, os.path.dirname(here)) >= mine
