"""Seeded videos of the benchmark's generator (``perfbench/gen.py``), one
of 200 frames and one of 800, refined offline by the benchmark's own
harness (``perfbench/run.py``), must give the refined bytes and Recall@K
that ``perfbench/expected.json`` records for them. The fixture's pairs are
all tracked; a generated video also has untracked pairs, spatial-aware
boxes and debated transitions, so this pins their output bit for bit too."""

import os

import pytest

from hoirefine import linecheck

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports gen and transport on use
    import run
    return run


# rt_long's 800 frames give a stage-one report that finishes thousands of
# candidates at once, which the 200 frames of rt_cold do not reach
@pytest.mark.parametrize("workload,variant", [("rt_cold", 0), ("rt_long", 0)])
def test_a_generated_video_gives_its_recorded_output(run, tmp_path, monkeypatch, workload,
                                                    variant):
    # the input, its ground truth, the refined output and the ground truth
    # against it all load in blocks: none falls back to the line check
    def fall_back(path, *args):
        raise AssertionError(f"{path} was checked line by line")

    monkeypatch.setattr(linecheck, "check_predictions", fall_back)
    monkeypatch.setattr(linecheck, "check_ground_truth", fall_back)
    bench = run.Bench(workload, str(tmp_path), [variant], run.load_expected(), latency=False)
    bench.prepare()
    sample = bench.rep(variant)
    assert sample["problems"] == []
    assert sample["failed"] == 0 and sample["provider_calls"] > 0
    assert 0 < sample["ctx"]["tracked_share"] < 1
