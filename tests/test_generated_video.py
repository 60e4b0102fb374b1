"""Seeded videos of the benchmark's generator (``perfbench/gen.py``), one
of 200 frames and one of 800, refined offline by the benchmark's own
harness (``perfbench/run.py``), must give the refined bytes and Recall@K
that ``perfbench/expected.json`` records for them. The fixture's pairs are
all tracked; a generated video also has untracked pairs, spatial-aware
boxes and debated transitions, so this pins their output bit for bit too."""

import os

import pytest

from hoirefine import ingest, linecheck
from hoirefine.config import load_config
from hoirefine.evaluation import recall_at_k
from hoirefine.model import FusedScores

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


@pytest.mark.parametrize("workload,variant", [("rt_cold", 0), ("rt_long", 0)])
def test_recall_at_k_of_the_refined_output_is_the_recorded_recall(run, tmp_path, monkeypatch,
                                                                  workload, variant):
    # the harness scores the refined output by its own tuple-key path; the
    # one ranking pass over the same refined set and ground truth agrees
    loaded = []

    def load_ground_truth(path, predictions, _load=ingest.load_ground_truth):
        loaded.append(_load(path, predictions))
        return loaded[-1]

    monkeypatch.setattr(ingest, "load_ground_truth", load_ground_truth)
    bench = run.Bench(workload, str(tmp_path), [variant], run.load_expected(), latency=False)
    bench.prepare()
    assert bench.rep(variant)["problems"] == []
    refined_gt = loaded[-1]  # loaded over the refined output, read back
    refined = refined_gt.pred_set
    assert refined.score_scale == "fused"
    threshold = load_config(os.path.join(bench.dir(variant), "config.json")).weights.threshold
    recalls = recall_at_k(FusedScores(refined, refined.scores.ravel()), refined_gt, threshold,
                          run.KS)
    assert [recalls[k] for k in run.KS] == run.load_expected()[workload][str(variant)]["recall"]
