import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoirefine.evaluation import (
    AblationRow,
    NoGroundTruthError,
    format_ablation_table,
    recall_at_k,
    recall_at_k_dataset,
    recall_at_k_frame,
    write_ablation_report,
)
from hoirefine.ingest import load_ground_truth, load_predictions
from hoirefine.model import FusedScores, GroundTruthSet, pair_key, tracked_pair_key

from conftest import fixture_path, slots_of

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


def positives_oracle(pred_set, threshold, column=None) -> dict:
    """Per frame, the (pair_key, relation, score) of every score above
    ``threshold``, by a loop over the set's pairs: its base scores, or the
    fused ``column``'s, slot by slot in the same order."""
    oracle, slot = {}, 0
    for frame in pred_set.frames:
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r, s in enumerate(pair.scores):
                s = s if column is None else column[slot]
                slot += 1
                if s > threshold:
                    oracle.setdefault(frame.frame_index, []).append((pk, r, s))
    return oracle


def gt_oracle(gt: GroundTruthSet) -> dict:
    """Per frame, the (pair_key, relation) entries ``recall_at_k_dataset``
    reads, from the ground truth's ``frames`` view."""
    return {fi: frozenset((tracked_pair_key(pid), r) for pid, r in triplets)
            for fi, triplets in gt.frames.items()}


# ties, -0.0, a score equal to a threshold and fused scores above 1
FUSED_SCORES = (-0.0, 0.0, 0.2, 0.3, 0.5, 0.9, 1.7)


class TestPositives:
    """``recall_at_k``'s one ranking pass over the positives, against
    ``recall_at_k_dataset`` of the loop oracle's positives."""

    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.85])
    def test_matches_loop_oracle(self, fixture_predictions, fixture_gt, threshold):
        ks = (1, 2, 3, 10, 20, 50)
        got = recall_at_k(FusedScores(fixture_predictions, fixture_predictions.scores.ravel()),
                          fixture_gt, threshold, ks)
        assert got == recall_at_k_dataset(positives_oracle(fixture_predictions, threshold),
                                          gt_oracle(fixture_gt), ks)

    @settings(max_examples=300, deadline=None)
    @given(prediction_sets(), st.data())
    def test_matches_loop_oracle_on_untracked_pairs_and_gaps(self, video, data):
        # untracked pairs, whose keys are their positions, gaps in the frame
        # indices, frames without pairs, positives or ground truth, ground
        # truth below the threshold, and K beyond the positives
        n, size = video.vocabulary.n, video.scores.size
        column = np.array(data.draw(st.lists(st.sampled_from(FUSED_SCORES), min_size=size,
                                             max_size=size)), float)
        slots, frame_gt = [], {}
        for slot, (fi, pk, r) in enumerate(slots_of(video)):
            if pk[0] == "id" and data.draw(st.booleans()):
                slots.append(slot)
                frame_gt.setdefault(fi, set()).add((pk, r))
        gt = GroundTruthSet(video, slots)
        assert gt_oracle(gt) == {fi: frozenset(entries) for fi, entries in frame_gt.items()}
        threshold = data.draw(st.sampled_from((0.05, 0.3, 0.6)))
        ks = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
        fused = FusedScores(video, column)
        if not slots:
            with pytest.raises(NoGroundTruthError, match="^no frame has ground truth$"):
                recall_at_k(fused, gt, threshold, ks)
            return
        assert recall_at_k(fused, gt, threshold, ks) == recall_at_k_dataset(
            positives_oracle(video, threshold, column), gt_oracle(gt), ks)

    def test_threshold_domain(self, fixture_predictions, fixture_gt):
        for threshold in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"threshold must be in \(0,1\)"):
                recall_at_k(FusedScores(fixture_predictions, fixture_predictions.scores.ravel()),
                            fixture_gt, threshold)

    def test_ground_truth_over_another_set_is_refused(self, fixture_vocab, fixture_gt):
        again = load_predictions(fixture_path("predictions.jsonl"), fixture_vocab)
        with pytest.raises(ValueError, match="over another prediction set"):
            recall_at_k(FusedScores(again, again.scores.ravel()), fixture_gt, 0.3)
        gt = load_ground_truth(fixture_path("gt.jsonl"), again)
        assert gt.frames == fixture_gt.frames
        assert recall_at_k(FusedScores(again, again.scores.ravel()), gt, 0.3) == {
            10: 5.0, 20: 5.0, 50: 5.0}


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
