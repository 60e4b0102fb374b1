"""``tools/occupancy.py`` prepares and sets up a benchmark input through
``perfbench/run.py`` and sums each provider's calls into time buckets. The
first test fails when a rename would make that tool stop at start-up; the
others check the bucket arithmetic on synthetic intervals."""

import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.fixture
def occupancy():
    path = list(sys.path)
    sys.path.insert(0, TOOLS)
    try:
        import occupancy  # puts perfbench on the path too
    finally:
        sys.path[:] = path
    return occupancy


def test_the_benchmark_names_it_uses_exist(occupancy):
    run = occupancy.run
    for name in ("import_program", "variants"):
        assert callable(getattr(run, name, None)), f"run.{name}"
    for name in ("prepare", "setup"):
        assert callable(getattr(run.Bench, name, None)), f"run.Bench.{name}"
    assert any(wl.get("latency") for wl in run.WORKLOADS.values())
    assert all("pool" in wl for wl in run.WORKLOADS.values())


def test_an_interval_is_split_at_the_bucket_edges(occupancy):
    # 30-120 ms: 20 ms of the first bucket, all of the second, 20 ms of the third
    assert occupancy.in_flight([(0.03, 0.12)], 0.15, 0.05) == pytest.approx([0.4, 1.0, 0.4])


def test_overlapping_intervals_add_up(occupancy):
    calls = [(0.0, 0.1), (0.0, 0.1), (0.05, 0.1), (0.06, 0.07)]
    assert occupancy.in_flight(calls, 0.1, 0.05) == pytest.approx([2.0, 3.2])


def test_the_last_bucket_is_divided_by_its_own_length(occupancy):
    # the run ends 10 ms into its third bucket, busy all the way
    assert occupancy.in_flight([(0.0, 0.11)], 0.11, 0.05) == pytest.approx([1.0, 1.0, 1.0])


def test_the_buckets_hold_all_the_busy_time(occupancy):
    calls = [(0.013, 0.041), (0.02, 0.33), (0.1, 0.1004), (0.29, 0.35)]
    end, bucket = 0.35, 0.05
    means = occupancy.in_flight(calls, end, bucket)
    assert len(means) == 7
    assert sum(means) * bucket == pytest.approx(sum(b - a for a, b in calls))


def test_no_call_gives_zero_buckets(occupancy):
    assert occupancy.in_flight([], 0.12, 0.05) == [0.0, 0.0, 0.0]
