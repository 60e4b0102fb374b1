import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hoirefine
from hoirefine.agents import detect_transitions, keyframe_slots, spatial_item
from hoirefine.evaluation import recall_at_k
from hoirefine.ingest import triplet_to_text, write_predictions
from hoirefine.model import (
    CS,
    SPATIAL,
    AgentScores,
    BoundingBox,
    FramePrediction,
    FusedScores,
    FusionWeights,
    GroundTruthSet,
    PairPrediction,
    RelationVocabulary,
    VideoPredictionSet,
    pair_key,
    row_keys,
    tracked_pair_key,
)
from hoirefine.pipeline import fuse_table, refine

from conftest import FIXTURES, kinds_at, make_pair, pack


class TestVocabulary:
    def test_lookup_positions(self):
        vocab = RelationVocabulary(("a", "b", "c", "d", "ride"))
        assert vocab.names[4] == "ride"
        assert vocab.names[0] == "a"
        assert vocab.n == 5

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(ValueError):
            RelationVocabulary(("a", "a"))
        with pytest.raises(ValueError):
            RelationVocabulary(("a", ""))
        with pytest.raises(ValueError):
            RelationVocabulary(())

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=20, unique=True))
    def test_bijection(self, names):
        vocab = RelationVocabulary(tuple(names))
        assert vocab.n == len(names)
        assert {name: i for i, name in enumerate(vocab.names)} == {
            name: i for i, name in enumerate(names)}


class TestFusionWeights:
    def test_defaults_valid(self):
        FusionWeights()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FusionWeights(lambda_cs=-0.1)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_bounds(self, threshold):
        with pytest.raises(ValueError):
            FusionWeights(threshold=threshold)


def two_frames():
    """Two frames: a tracked and an untracked pair, then one tracked pair."""
    return pack(RelationVocabulary(("a", "b")), (
        (3, 640, 480, (make_pair(), make_pair(pair_id=None))),
        (7, 640, 480, (make_pair(pair_id=(2, 5)),))))


# a foreign pair, relation n and relation -1
FOREIGN_SLOTS = [(7, ("id", 0, 1), 0), (3, ("idx", 1), 2), (3, ("idx", 1), -1)]


class TestFusedScores:
    def column(self, values):
        return FusedScores(two_frames(), np.array(values, float))

    def test_slots_in_order_and_indexed(self):
        fused = self.column([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert list(fused) == [(3, ("id", 0, 1), 0), (3, ("id", 0, 1), 1), (3, ("idx", 1), 0),
                               (3, ("idx", 1), 1), (7, ("id", 2, 5), 0), (7, ("id", 2, 5), 1)]
        assert [fused[slot] for slot in fused] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert type(fused[(7, ("id", 2, 5), 1)]) is float
        assert len(fused) == 6

    @pytest.mark.parametrize("slot", FOREIGN_SLOTS + [
        (3, ("idx", 1)), (3, ("idx", 1), 0, 0), (3, ("id", False, 1), 1), (3, ("idx", 1.0), 0)])
    def test_foreign_slot_is_missing(self, slot):
        fused = self.column([0.5] * 6)
        assert slot not in fused
        with pytest.raises(KeyError):
            fused[slot]

    def test_equal_bit_for_bit(self):
        values = [0.0, np.nan, 0.3, 0.4, 0.5, 0.6]
        assert self.column(values) == self.column(values)
        assert self.column(values) == dict(zip(self.column(values), values))
        assert self.column(values) != self.column([-0.0] + values[1:])
        assert self.column(values) != dict(zip(self.column(values), [-0.0] + values[1:]))
        assert self.column(values) != dict(list(zip(self.column(values), values))[:5])

    def test_values_are_the_scores_in_slot_order(self):
        fused = self.column([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert list(fused.values()) == [fused[slot] for slot in fused]
        assert list(fused.items()) == list(zip(fused, fused.values()))


class TestAgentScores:
    # two_frames' six slots: CS held at slots 1 and 4, SPATIAL at 4
    def scores(self):
        return AgentScores(two_frames(), [([1, 4], [0.25, -0.0]), ([4], [0.5]),
                                          ([], []), ([], [])])

    def test_kinds_at_each_slot(self):
        scores = self.scores()
        kinds = [kinds_at(scores, i) for i in range(6)]
        assert kinds == [{}, {CS: 0.25}, {}, {}, {CS: -0.0, SPATIAL: 0.5}, {}]
        assert str(kinds[4][CS]) == "-0.0"
        assert len(scores) == 2

    @pytest.mark.parametrize("slot", FOREIGN_SLOTS)
    def test_a_foreign_slot_holds_no_kind(self, slot):
        assert kinds_at(self.scores(), *slot) == {}

    @pytest.mark.parametrize("columns", [[([1], [0.5])] * 3, [([1], [0.5])] * 5,
                                         [([1, 2], [0.5])] + [([], [])] * 3])
    def test_one_column_of_equal_lengths_per_kind(self, columns):
        with pytest.raises(ValueError, match="one .index, values. pair of equal lengths"):
            AgentScores(two_frames(), columns)

    @pytest.mark.parametrize("index, name", [
        ([1.5], "float"), ([True], "bool"), ([1, True], "bool"), ([1, 2.0], "float"),
        (np.array([1.5]), "float64"), (np.array([True]), np.bool_.__name__),
        ([np.float64(1)], "float64")])
    def test_a_float_or_bool_index_is_refused(self, index, name):
        # np.asarray would truncate 1.5 onto slot 1, and take True as 1
        empty = ([], [])
        with pytest.raises(TypeError, match=f"^a slot index must be an integer, not '{name}'$"):
            AgentScores(two_frames(), [(index, [0.5] * len(index)), empty, empty, empty])

    @pytest.mark.parametrize("index", [[0, -1, 1], [0, 9, 1], [1, 1], [3, 2]])
    def test_an_index_column_that_does_not_increase_is_refused(self, index):
        # [0, -1, 1] would add a CS term to the set's last slot, and [0, 9, 1]
        # leave fuse_table an IndexError
        empty = ([], [])
        with pytest.raises(ValueError, match="^slot indices must be sorted and distinct$"):
            AgentScores(two_frames(), [empty, (index, [0.5] * len(index)), empty, empty])

    def test_integer_indices_are_taken(self):
        empty = ([], [])
        for index in ([1], [np.int64(1)], np.array([1], np.int32), np.array([], float)):
            scores = AgentScores(two_frames(), [(index, [0.5] * len(index)), empty, empty, empty])
            assert scores.columns[0][0].tolist() == list(map(int, index))


class TestGroundTruthSet:
    def test_holds_sorted_distinct_slots_on_tracked_rows(self):
        video = two_frames()  # slots 2 and 3 are the untracked pair's
        gt = GroundTruthSet(video, [0, 1, 5])
        assert gt.frames == {3: frozenset({((0, 1), 0), ((0, 1), 1)}),
                             7: frozenset({((2, 5), 1)})}
        assert all(pid is video.pair_ids[0] for pid, _ in gt.frames[3])
        assert GroundTruthSet(video).frames == {}
        for slots in ([1, 0], [0, 0], [2], [-1], [6]):
            with pytest.raises(ValueError, match="sorted, distinct and on tracked rows"):
                GroundTruthSet(video, slots)


# the fixture's refine, its output written and read back, the ground
# truth, Recall@K and the table's length, in a fresh interpreter
RUN_PATH = """
import os, sys
from hoirefine.config import load_config
from hoirefine.evaluation import recall_at_k
from hoirefine.ingest import load_ground_truth, load_predictions, load_vocabulary, write_predictions
from hoirefine.pipeline import refine

fixtures, out = sys.argv[1], os.path.join(sys.argv[2], "refined.jsonl")
config = load_config(os.path.join(fixtures, "config.json"))
vocab = load_vocabulary(os.path.join(fixtures, "vocab.txt"))
video = load_predictions(os.path.join(fixtures, "predictions.jsonl"), vocab)
outcome = refine(video, config)
write_predictions(video, outcome.fused, out)
refined = load_predictions(out, vocab)
load_ground_truth(os.path.join(fixtures, "gt.jsonl"), refined)
gt = load_ground_truth(os.path.join(fixtures, "gt.jsonl"), video)
assert recall_at_k(outcome.fused, gt, config.weights.threshold)
assert len(outcome.table)
print("numpy.ma", "imported" if "numpy.ma" in sys.modules else "not imported")
"""


class TestPredictionSet:
    @pytest.mark.parametrize("scores", [(0.5,), (0.5, 0.5, 0.5)])
    def test_scores_of_another_width_are_refused_at_construction(self, scores):
        with pytest.raises(ValueError, match=f"^scores hold {len(scores)} relations per pair "
                                             "for a vocabulary of 2$"):
            pack(RelationVocabulary(("a", "b")), (
                (3, 640, 480, (make_pair(scores=scores), make_pair(scores=scores, pair_id=None))),))

    @pytest.mark.parametrize("change,message", [
        (dict(boxes=np.zeros((2, 8))), "a column of shape"),
        (dict(pair_code=[0, -1]), "a column of shape"),
        (dict(row_start=[0, 2, 2]), "do not span 3 rows"),
        (dict(row_start=[0, 3, 1]), "do not span 3 rows"),
        (dict(pair_code=[0, -2, 1]), "outside pair_ids or labels"),
        (dict(pair_code=[0, -1, 2]), "outside pair_ids or labels"),
        (dict(class_code=[0, 0, 1]), "outside pair_ids or labels"),
        (dict(pair_ids=((0, 1), (0, 1))), "distinct values"),
        (dict(labels=("chair", "chair")), "distinct values"),
    ], ids=["short-boxes", "short-codes", "short-span", "backward-span", "code-below",
            "code-above", "unknown-class", "pair-id-twice", "label-twice"])
    def test_columns_that_disagree_are_refused(self, change, message):
        video = two_frames()
        columns = {name: getattr(video, name) for name in (
            "frame_index", "frame_size", "row_start", "pair_code", "pair_ids", "class_code",
            "labels", "scores", "boxes")}
        VideoPredictionSet("v", video.vocabulary, **columns)  # as they are, they agree
        with pytest.raises(ValueError, match=message):
            VideoPredictionSet("v", video.vocabulary, **{**columns, **change})

    @pytest.mark.parametrize("frames,message", [
        ([(0, (0, 1)), (10, (0, 1)), (4, (0, 1))], "frame 4 follows frame 10"),
        # the first frame, in frame order, that breaks either rule is named
        ([(2, (0, 1), (0, 1)), (5,), (3,)], "frame 2 holds pair key ('id', 0, 1) twice"),
        ([(2,), (1,), (5, (0, 1), (0, 1))], "frame 1 follows frame 2"),
        ([(2,), (2, (0, 1), (0, 1))], "frame 2 appears twice"),
    ], ids=["frame-out-of-order", "pair-key-first", "out-of-order-first", "both-in-one-frame"])
    def test_an_ambiguous_set_is_refused_at_construction(self, frames, message):
        # out of order, every pass that takes a frame's position for its time
        # (the nearest keyframe) would be wrong; TestSlots checks a frame or a
        # pair key twice alone
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pack(RelationVocabulary(("a",)), [
                (fi, 640, 480, [make_pair(pair_id=pid) for pid in ids]) for fi, *ids in frames])

    def test_views_hold_python_numbers_and_the_sets_own_objects(self):
        video = two_frames()
        frame = video.frames[0]
        pair = frame.pairs[0]
        assert (type(frame.frame_index), type(frame.frame_width), type(frame.frame_height)) \
            == (int, float, float)
        assert all(type(v) is float for v in (*pair.scores, *pair.human_box, *pair.object_box))
        assert repr(pair.scores) == "(0.5, 0.5)"
        assert pair.human_box == BoundingBox(10.0, 10.0, 50.0, 100.0)
        assert pair.pair_id is video.pair_ids[0] and pair.object_class is video.labels[0]
        assert frame.pairs is not frame.pairs and frame.pairs == frame.pairs  # built on each read
        assert [p.pair_id for _, p in video.iter_pairs()] == [(0, 1), None, (2, 5)]

    def test_the_run_path_builds_no_record_view(self, fixture_predictions, fixture_gt,
                                                fixture_config, monkeypatch, tmp_path):
        # refine, the writer and Recall@K read the columns alone
        built = []
        for view in (PairPrediction, FramePrediction):
            def init(self, *args, _init=view.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(view, "__init__", init)
        outcome = refine(fixture_predictions, fixture_config, cache_dir=str(tmp_path / "cache"),
                         transcript_dir=str(tmp_path / "transcripts"))
        write_predictions(fixture_predictions, outcome.fused, str(tmp_path / "refined.jsonl"))
        assert recall_at_k(outcome.fused, fixture_gt, fixture_config.weights.threshold)
        assert outcome.stats.debates and os.listdir(tmp_path / "transcripts")
        assert built == []
        fixture_predictions.frames[0].pairs  # the count sees a view that is built
        assert built == ["FramePrediction"] * len(fixture_predictions.frame_index) + [
            "PairPrediction"] * int(fixture_predictions.row_start[1])

    def test_the_run_path_imports_no_numpy_ma(self, tmp_path):
        # a bare np.unique imports numpy.ma on its first call, about 0.5 MB
        # of RSS, which only a fresh interpreter shows
        run = subprocess.run([sys.executable, "-c", RUN_PATH, FIXTURES, str(tmp_path)],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.path.dirname(
                                 os.path.dirname(os.path.abspath(hoirefine.__file__)))})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["numpy.ma", "not", "imported"]

    def test_columns_are_read_only(self):
        video = two_frames()
        with pytest.raises(ValueError, match="read-only"):
            video.scores[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            video.pair_code[0] = 1


class TestSlots:
    """A slot is an index of the set's score column; ``row_keys`` names a
    row by its (frame_index, pair_key)."""

    def test_one_frame_index_per_pair_row(self):
        video = two_frames()
        assert row_keys(video, np.arange(3)) == [(3, ("id", 0, 1)), (3, ("idx", 1)),
                                                 (7, ("id", 2, 5))]
        # the rows asked for only, in the order asked; a frame without pairs holds no row
        gap = pack(video.vocabulary, (video.frames[0], (5, 640, 480, ()), video.frames[1]))
        assert row_keys(gap, np.array([2, 1])) == [(7, ("id", 2, 5)), (3, ("idx", 1))]
        assert row_keys(gap, np.arange(0)) == []

    def test_equal_pair_keys_are_one_object(self):
        # an untracked pair first and a pair tracked as (0, 1), in each of three frames
        video = pack(RelationVocabulary(("a",)), (
            (f, 640, 480, (make_pair(pair_id=None), make_pair(pair_id=(0, 1)))) for f in range(3)))
        keys = [key for _, key in row_keys(video, np.arange(6))]
        assert keys[0] == ("idx", 0) and keys[1] == ("id", 0, 1)
        assert keys[0] is keys[2] is keys[4] and keys[1] is keys[3] is keys[5]

    def test_a_pair_key_twice_in_a_frame_is_refused(self):
        # the later row would shadow the earlier, whose slots could then never
        # be scored, so the set is refused when it is built
        with pytest.raises(ValueError, match=r"^frame 4 holds pair key \('id', 0, 1\) twice$"):
            pack(RelationVocabulary(("a",)), (
                (2, 640, 480, (make_pair(pair_id=(0, 1)),)),
                (4, 640, 480, (make_pair(pair_id=(0, 1)), make_pair(pair_id=None),
                               make_pair(pair_id=(0, 1))))))

    def test_base_scores_are_read_from_the_pairs_in_slot_order(self):
        video = pack(RelationVocabulary(("a", "b")), (
            (3, 640, 480, (make_pair(scores=(0.25, -0.0)),
                           make_pair(scores=(1.0, 0.5), pair_id=None))),
            (7, 640, 480, (make_pair(scores=(0.0, 0.75), pair_id=(2, 5)),))))
        # with no agent score, the fused column is the base scores, copied
        column = fuse_table(video, AgentScores(video, [([], [])] * 4), FusionWeights()).column
        assert column.dtype == np.float64
        assert list(map(float.hex, column.tolist())) == list(map(float.hex, (
            0.25, -0.0, 1.0, 0.5, 0.0, 0.75)))
        assert column.flags.writeable and not np.shares_memory(column, video.scores)

    def test_a_frame_index_twice_is_refused(self):
        with pytest.raises(ValueError, match="^frame 4 appears twice$"):
            pack(RelationVocabulary(("a",)), (
                (4, 640, 480, (make_pair(pair_id=(0, 1)),)),
                (4, 640, 480, (make_pair(pair_id=(0, 2)),))))


@st.composite
def prediction_sets(draw):
    """Sets with gaps in their frame indices, frames without pairs, tracked
    and untracked pairs, pair ids that recur in many frames, and scores on
    either side of 0.3 whose argmax may change from frame to frame."""
    n = draw(st.integers(1, 3))
    indices = sorted(draw(st.sets(st.integers(0, 12), max_size=6)))
    frames = []
    for fi in indices:
        ids = draw(st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 1))),
                            max_size=5))
        ids = [pid for i, pid in enumerate(ids) if pid is None or pid not in ids[:i]]
        frames.append((fi, 640, 480, [
            make_pair(scores=draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 0.9)),
                                           min_size=n, max_size=n)), pair_id=pid)
            for pid in ids]))
    return pack(RelationVocabulary(tuple("abc"[:n])), frames)


class TestFrameOrder:
    @settings(max_examples=200, deadline=None)
    @given(prediction_sets(), st.data())
    def test_a_set_is_built_exactly_when_its_frame_indices_increase(self, video, data):
        frames = video.frames
        positions = range(len(frames))
        picked = data.draw(st.one_of(st.permutations(positions),
                                     st.lists(st.sampled_from(positions), max_size=8))
                           if frames else st.just([]))
        indices = [frames[j].frame_index for j in picked]
        late = [(a, b) for a, b in zip(indices, indices[1:]) if b <= a]
        if not late:
            built = pack(video.vocabulary, [frames[j] for j in picked])
            assert built.frame_indices() == indices
            return
        a, b = late[0]
        message = f"frame {b} appears twice" if a == b else f"frame {b} follows frame {a}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            pack(video.vocabulary, [frames[j] for j in picked])


class TestFind:
    """``FusedScores`` by slot tuple, against a brute-force index of the
    slots built from the set's pairs."""

    @settings(max_examples=200, deadline=None)
    @given(prediction_sets())
    def test_matches_a_brute_force_index(self, video):
        n = video.vocabulary.n
        expected = [(frame.frame_index, pair_key(pair, i), r) for frame in video.frames
                    for i, pair in enumerate(frame.pairs) for r in range(n)]
        fused = FusedScores(video, np.arange(len(expected), dtype=float))  # each slot's index
        assert list(fused) == expected
        index = {slot: i for i, slot in enumerate(expected)}
        assert len(index) == len(expected) == len(fused) == video.scores.size
        for slot, i in index.items():
            fi, pk, r = slot
            assert slot in fused and fused[slot] == i
            assert fused[(fi, tuple(pk), r)] == i  # an equal key, not the set's own
            assert fused[(np.int64(fi), pk, np.int64(r))] == i
            assert fused[(fi, pk[:1] + tuple(map(np.int64, pk[1:])), r)] == i
        rows = np.arange(len(video.scores))[::-2]  # some rows, out of order
        assert row_keys(video, rows) == [expected[row * n][:2] for row in rows.tolist()]
        # a slot shows its pair view's text and boxes, and the keyframe
        # candidates and the transitions land on the slots of their
        # (frame_index, pair_key, relation) tuples
        pairs = [pair for frame in video.frames for pair in frame.pairs]
        assert [spatial_item(video, index[s]) for s in expected] == [
            (triplet_to_text(p, r, video.vocabulary), tuple(round(x) for x in p.human_box),
             tuple(round(x) for x in p.object_box)) for p in pairs for r in range(n)]
        keyframes = set(video.frame_indices()[::2])
        assert keyframe_slots(video, keyframes, 0.3) == [
            index[(frame.frame_index, pair_key(pair, i), r)]
            for frame in video.frames if frame.frame_index in keyframes
            for i, pair in enumerate(frame.pairs) for r, score in enumerate(pair.scores)
            if score >= 0.3]
        for tr in detect_transitions(video, keyframes):
            pair = pairs[tr.slot // n]
            assert tr.slot == index[
                (tr.frame_index, tracked_pair_key(pair.pair_id), tr.new_relation)]
            assert tr.object_class == pair.object_class

    @settings(max_examples=200, deadline=None)
    @given(prediction_sets())
    def test_none_for_every_key_that_is_no_slot(self, video):
        n = video.vocabulary.n
        fused = FusedScores(video, np.zeros(video.scores.size))
        keys = {(frame.frame_index, pair_key(pair, i))
                for frame in video.frames for i, pair in enumerate(frame.pairs)}
        frames = video.frame_indices()
        unknown = max(frames, default=-1) + 1
        for frame in video.frames:
            for i, pair in enumerate(frame.pairs):
                fi, pk = frame.frame_index, pair_key(pair, i)
                bad = [(unknown, pk, 0)]
                for other in frames:
                    if (other, pk) not in keys:  # the key of another frame
                        bad += [(other, pk, 0), (np.int64(other), pk, np.int64(0))]
                # a bool or a float equal to a frame or relation index is none
                bad += [(fi, pk, -1), (fi, pk, n), (fi, pk, np.int64(n)), (fi, pk),
                        (fi, pk, 0, 0), [fi, pk, 0], (fi, list(pk), 0), "slot",
                        (fi, pk, True), (fi, pk, False), (fi, pk, 0.0), (fi, pk, np.float64(0)),
                        (float(fi), pk, 0), (np.float64(fi), pk, 0), (True, pk, 0),
                        (False, pk, 0)]
                # so is one inside the pair key, as ("id", False, 1) or ("idx", 1.0)
                for j in range(1, len(pk)):
                    bad += [(fi, pk[:j] + (float(pk[j]),) + pk[j + 1:], 0),
                            (fi, pk[:j] + (np.float64(pk[j]),) + pk[j + 1:], 0)]
                    if pk[j] in (0, 1):
                        bad.append((fi, pk[:j] + (bool(pk[j]),) + pk[j + 1:], 0))
                for key in bad:
                    assert key not in fused
                    with pytest.raises(KeyError):
                        fused[key]
