import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoirefine.agents import detect_transitions, keyframe_slots
from hoirefine.model import (
    CS,
    SPATIAL,
    AgentScores,
    FusedScores,
    FusionWeights,
    RelationVocabulary,
    SlotLayout,
    VideoPredictionSet,
    pair_key,
    tracked_pair_key,
)

from conftest import kinds_at, make_pair, pack


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
        return FusedScores(SlotLayout(two_frames()), np.array(values, float))

    def test_slots_in_order_and_indexed(self):
        fused = self.column([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert list(fused) == [(3, ("id", 0, 1), 0), (3, ("id", 0, 1), 1), (3, ("idx", 1), 0),
                               (3, ("idx", 1), 1), (7, ("id", 2, 5), 0), (7, ("id", 2, 5), 1)]
        assert [fused[slot] for slot in fused] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert type(fused[(7, ("id", 2, 5), 1)]) is float
        assert len(fused) == 6

    @pytest.mark.parametrize("slot", FOREIGN_SLOTS + [(3, ("idx", 1)), (3, ("idx", 1), 0, 0)])
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


class TestAgentScores:
    # two_frames' six slots: CS held at slots 1 and 4, SPATIAL at 4
    def scores(self):
        return AgentScores(SlotLayout(two_frames()), [([1, 4], [0.25, -0.0]), ([4], [0.5]),
                                                      ([], []), ([], [])])

    def test_kinds_at_each_slot(self):
        scores = self.scores()
        kinds = [kinds_at(scores, *slot) for slot in scores.layout.slots()]
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
            AgentScores(SlotLayout(two_frames()), columns)


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

    def test_views_hold_python_numbers_and_the_sets_own_objects(self):
        video = two_frames()
        frame = video.frames[0]
        pair = frame.pairs[0]
        assert (type(frame.frame_index), type(frame.frame_width), type(frame.frame_height)) \
            == (int, float, float)
        assert all(type(v) is float for v in (*pair.scores, *pair.human_box, *pair.object_box))
        assert repr(pair.scores) == "(0.5, 0.5)"
        assert pair.human_box.as_int_list() == [10, 10, 50, 100]
        assert pair.pair_id is video.pair_ids[0] and pair.object_class is video.labels[0]
        assert frame.pairs is not frame.pairs and frame.pairs == frame.pairs  # built on each read
        assert [p.pair_id for _, p in video.iter_pairs()] == [(0, 1), None, (2, 5)]

    def test_columns_are_read_only(self):
        video = two_frames()
        with pytest.raises(ValueError, match="read-only"):
            video.scores[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            video.pair_code[0] = 1


class TestSlotLayout:
    def test_one_frame_index_per_pair_row(self):
        layout = SlotLayout(two_frames())
        assert layout.frame.tolist() == [3, 3, 7]
        assert layout.pair_keys == [("id", 0, 1), ("idx", 1), ("id", 2, 5)]
        assert layout.spans == {3: (0, 2), 7: (2, 3)}

    def test_equal_pair_keys_are_one_object(self):
        # an untracked pair first and a pair tracked as (0, 1), in each of three frames
        video = pack(RelationVocabulary(("a",)), (
            (f, 640, 480, (make_pair(pair_id=None), make_pair(pair_id=(0, 1)))) for f in range(3)))
        keys = SlotLayout(video).pair_keys
        assert keys[0] == ("idx", 0) and keys[1] == ("id", 0, 1)
        assert keys[0] is keys[2] is keys[4] and keys[1] is keys[3] is keys[5]

    def test_a_pair_key_twice_in_a_frame_is_refused(self):
        # the later row would shadow the earlier, whose slots could then never be scored
        video = pack(RelationVocabulary(("a",)), (
            (2, 640, 480, (make_pair(pair_id=(0, 1)),)),
            (4, 640, 480, (make_pair(pair_id=(0, 1)), make_pair(pair_id=None),
                           make_pair(pair_id=(0, 1))))))
        with pytest.raises(ValueError, match=r"frame 4 holds pair key \('id', 0, 1\) twice"):
            SlotLayout(video)

    def test_base_scores_are_read_from_the_pairs_in_slot_order(self):
        video = pack(RelationVocabulary(("a", "b")), (
            (3, 640, 480, (make_pair(scores=(0.25, -0.0)),
                           make_pair(scores=(1.0, 0.5), pair_id=None))),
            (7, 640, 480, (make_pair(scores=(0.0, 0.75), pair_id=(2, 5)),))))
        layout = SlotLayout(video)
        column = layout.base_scores()
        assert column.dtype == np.float64
        assert list(map(float.hex, column.tolist())) == list(map(float.hex, (
            0.25, -0.0, 1.0, 0.5, 0.0, 0.75)))
        assert layout.base_scores() is not column

    def test_a_frame_index_twice_is_refused(self):
        video = pack(RelationVocabulary(("a",)), (
            (4, 640, 480, (make_pair(pair_id=(0, 1)),)),
            (4, 640, 480, (make_pair(pair_id=(0, 2)),))))
        with pytest.raises(ValueError, match="frame 4 appears twice"):
            SlotLayout(video)


@st.composite
def layout_sets(draw):
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


class TestFind:
    @settings(max_examples=200, deadline=None)
    @given(layout_sets())
    def test_matches_a_brute_force_index(self, video):
        layout = SlotLayout(video)
        expected = [(frame.frame_index, pair_key(pair, i), r) for frame in video.frames
                    for i, pair in enumerate(frame.pairs) for r in range(layout.n)]
        assert list(layout.slots()) == expected
        index = {slot: i for i, slot in enumerate(layout.slots())}
        assert len(index) == len(expected) == len(layout.base_scores())
        for slot, i in index.items():
            fi, pk, r = slot
            assert layout.find(slot) == i
            assert layout.find((fi, tuple(pk), r)) == i  # an equal key, not the layout's own
            assert layout.find((np.int64(fi), pk, np.int64(r))) == i
        # the slot indices of the pair views, the keyframe candidates and the
        # transitions are those of their (frame_index, pair_key, relation) tuples
        pairs = [pair for frame in video.frames for pair in frame.pairs]
        assert [p.slot(r) for p in pairs for r in range(layout.n)] == list(map(layout.find, expected))
        keyframes = set(video.frame_indices()[::2])
        assert list(keyframe_slots(video, keyframes, 0.3)) == [
            (layout.find((frame.frame_index, pair_key(pair, i), r)), pair)
            for frame in video.frames if frame.frame_index in keyframes
            for i, pair in enumerate(frame.pairs) for r, score in enumerate(pair.scores)
            if score >= 0.3]
        for tr in detect_transitions(video, keyframes):
            assert tr.slot == layout.find(
                (tr.frame_index, tracked_pair_key(tr.pair.pair_id), tr.new_relation))

    @settings(max_examples=200, deadline=None)
    @given(layout_sets())
    def test_none_for_every_key_that_is_no_slot(self, video):
        layout = SlotLayout(video)
        keys = {(frame.frame_index, pair_key(pair, i))
                for frame in video.frames for i, pair in enumerate(frame.pairs)}
        unknown = max(layout.spans, default=-1) + 1
        for frame in video.frames:
            for i, pair in enumerate(frame.pairs):
                fi, pk = frame.frame_index, pair_key(pair, i)
                assert layout.find((unknown, pk, 0)) is None
                for other in layout.spans:
                    if (other, pk) not in keys:  # the key of another frame
                        assert layout.find((other, pk, 0)) is None
                        assert layout.find((np.int64(other), pk, np.int64(0))) is None
                for bad in ((fi, pk, -1), (fi, pk, layout.n), (fi, pk, np.int64(layout.n)),
                            (fi, pk), (fi, pk, 0, 0), [fi, pk, 0], (fi, list(pk), 0), "slot"):
                    assert layout.find(bad) is None
