import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from hoirefine.evaluation import (
    AblationRow,
    NoGroundTruthError,
    format_ablation_table,
    positives_per_frame,
    recall_at_k_dataset,
    recall_at_k_frame,
    write_ablation_report,
)
from hoirefine.model import FusedScores, pair_key

from test_model import prediction_sets


def oracle_recall(positives, gt, k):
    """Counting oracle: an entry makes the top-k iff fewer than k others rank
    strictly ahead of it under (-score, pair_key, relation)."""
    hits = 0
    for pk, r, score in positives:
        ahead = sum(
            1 for opk, orr, os in positives
            if (-os, opk, orr) < (-score, pk, r)
        )
        if ahead < k and (pk, r) in gt:
            hits += 1
    return hits / len(gt)


def random_frame(rng, n_pairs=6, n_rel=5):
    positives = []
    for i in range(n_pairs):
        pk = ("id", 0, i)
        for r in range(n_rel):
            if rng.random() < 0.5:
                score = rng.choice([0.4, 0.6, 0.8, rng.random()])
                positives.append((pk, r, score))
    all_keys = [(("id", 0, i), r) for i in range(n_pairs) for r in range(n_rel)]
    gt = frozenset(rng.sample(all_keys, rng.randint(1, 6)))
    return positives, gt


class TestFrameRecall:
    def test_simple_hit(self):
        positives = [(("id", 0, 1), 0, 0.9), (("id", 0, 2), 1, 0.5)]
        gt = frozenset({(("id", 0, 1), 0)})
        assert recall_at_k_frame(positives, gt, 1) == 1.0

    def test_truncation_drops_low_scores(self):
        positives = [(("id", 0, 1), 0, 0.9), (("id", 0, 2), 1, 0.5)]
        gt = frozenset({(("id", 0, 2), 1)})
        assert recall_at_k_frame(positives, gt, 1) == 0.0
        assert recall_at_k_frame(positives, gt, 2) == 1.0

    def test_tie_breaks_by_pair_then_relation(self):
        positives = [(("id", 0, 2), 0, 0.5), (("id", 0, 1), 3, 0.5), (("id", 0, 1), 1, 0.5)]
        assert recall_at_k_frame(positives, frozenset({(("id", 0, 1), 1)}), 1) == 1.0
        assert recall_at_k_frame(positives, frozenset({(("id", 0, 1), 3)}), 1) == 0.0
        assert recall_at_k_frame(positives, frozenset({(("id", 0, 1), 3)}), 2) == 1.0
        assert recall_at_k_frame(positives, frozenset({(("id", 0, 2), 0)}), 2) == 0.0

    def test_missed_gt_lowers_recall(self):
        positives = [(("id", 0, 1), 0, 0.9)]
        gt = frozenset({(("id", 0, 1), 0), (("id", 0, 2), 1)})
        assert recall_at_k_frame(positives, gt, 10) == 0.5

    def test_empty_gt_rejected(self):
        with pytest.raises(NoGroundTruthError):
            recall_at_k_frame([], frozenset(), 10)

    def test_matches_oracle_on_random_frames(self):
        rng = random.Random(20260824)
        for _ in range(500):
            positives, gt = random_frame(rng)
            for k in (1, 3, 10):
                assert recall_at_k_frame(positives, gt, k) == pytest.approx(
                    oracle_recall(positives, gt, k))

    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, hyp_rng):
        rng = random.Random(7)
        positives, gt = random_frame(rng)
        shuffled = list(positives)
        hyp_rng.shuffle(shuffled)
        for k in (1, 3, 10):
            assert recall_at_k_frame(shuffled, gt, k) == recall_at_k_frame(positives, gt, k)


class TestDatasetRecall:
    def test_mean_over_frames_with_gt(self):
        frame_positives = {
            0: [(("id", 0, 1), 0, 0.9)],
            1: [(("id", 0, 1), 0, 0.9)],
            2: [],
        }
        frame_gt = {
            0: frozenset({(("id", 0, 1), 0)}),
            1: frozenset({(("id", 0, 1), 0), (("id", 0, 2), 1)}),
            2: frozenset(),  # excluded from the mean
        }
        result = recall_at_k_dataset(frame_positives, frame_gt, ks=(10,))
        assert result == {10: 75.0}

    def test_rounding_two_decimals(self):
        frame_positives = {0: [(("id", 0, 1), 0, 0.9)], 1: [], 2: []}
        frame_gt = {i: frozenset({(("id", 0, 1), 0)}) for i in range(3)}
        assert recall_at_k_dataset(frame_positives, frame_gt, ks=(10,)) == {10: 33.33}

    def test_missing_positive_frame_counts_zero(self):
        frame_gt = {0: frozenset({(("id", 0, 1), 0)})}
        assert recall_at_k_dataset({}, frame_gt, ks=(10,)) == {10: 0.0}

    def test_all_frames_without_gt_rejected(self):
        with pytest.raises(NoGroundTruthError):
            recall_at_k_dataset({}, {0: frozenset()}, ks=(10,))


def positives_oracle(pred_set, threshold) -> dict:
    """Per frame, the (pair_key, relation, score) of every base score above
    ``threshold``, by a loop over the set's pairs."""
    oracle = {}
    for frame in pred_set.frames:
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r, s in enumerate(pair.scores):
                if s > threshold:
                    oracle.setdefault(frame.frame_index, []).append((pk, r, s))
    return oracle


class TestPositives:
    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.85])
    def test_matches_loop_oracle(self, fixture_predictions, threshold):
        got = positives_per_frame(
            FusedScores(fixture_predictions, fixture_predictions.scores.ravel()), threshold)
        assert {fi: sorted(v) for fi, v in got.items()} == \
            {fi: sorted(v) for fi, v in positives_oracle(fixture_predictions, threshold).items()}

    @settings(max_examples=200, deadline=None)
    @given(prediction_sets(), st.sampled_from((0.1, 0.3, 0.6)))
    def test_matches_loop_oracle_on_untracked_pairs_and_gaps(self, video, threshold):
        # untracked pairs, whose keys are their positions, gaps in the frame
        # indices and frames without pairs; in slot order, as the oracle's loop
        got = positives_per_frame(FusedScores(video, video.scores.ravel()), threshold)
        assert got == positives_oracle(video, threshold)

    def test_threshold_domain(self, fixture_predictions):
        with pytest.raises(ValueError):
            positives_per_frame(
                FusedScores(fixture_predictions, fixture_predictions.scores.ravel()), 1.5)


class TestAblationReport:
    def rows(self):
        return [
            AblationRow("baseline", {}, {10: 5.0, 20: 5.0}),
            AblationRow("full", {"cs": True, "spatial": True,
                                 "temporal": True, "debate": True},
                        {10: 100.0, 20: 100.0}),
        ]

    def test_table_layout(self):
        text = format_ablation_table(self.rows(), ks=(10, 20))
        lines = text.splitlines()
        assert lines[0].split() == ["configuration", "common", "sense",
                                    "spatial", "temporal", "debate", "R@10", "R@20"]
        assert lines[2].startswith("baseline")
        assert "100.00" in lines[3]
        assert "x" in lines[3] and "x" not in lines[2]
        assert lines[-1].startswith("note:")

    def test_report_file(self, tmp_path):
        import json
        path = tmp_path / "ablation.jsonl"
        write_ablation_report(self.rows(), str(path), ks=(10, 20))
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert records[0]["label"] == "baseline"
        assert records[1]["toggles"]["debate"] is True
        assert records[1]["recall"] == {"10": 100.0, "20": 100.0}

    def test_failed_replace_leaves_no_partial_report(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_ablation_report(self.rows(), str(tmp_path / "ablation.jsonl"), ks=(10, 20))
        assert list(tmp_path.iterdir()) == []
