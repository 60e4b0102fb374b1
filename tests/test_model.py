import pytest
from hypothesis import given, strategies as st

from hoirefine.model import (
    BoundingBox,
    FramePrediction,
    FusionWeights,
    PairPrediction,
    RelationVocabulary,
    VideoPredictionSet,
    validate_prediction_set,
)


def make_pair(frame_index=0, scores=(0.5, 0.5, 0.5), pair_id=(0, 1),
              human_box=None, object_box=None, object_class="chair"):
    return PairPrediction(
        frame_index=frame_index,
        pair_id=pair_id,
        object_class=object_class,
        human_box=human_box or BoundingBox(10, 10, 50, 100),
        object_box=object_box or BoundingBox(20, 40, 60, 90),
        scores=tuple(scores),
    )


def make_set(frames):
    return VideoPredictionSet(
        video_id="v",
        vocabulary=RelationVocabulary(("hold", "ride", "sit on")),
        frames=tuple(frames),
    )


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


class TestValidation:
    def test_well_formed_two_frames(self):
        frames = [
            FramePrediction(0, 640, 480, (make_pair(0),)),
            FramePrediction(1, 640, 480, (make_pair(1),)),
        ]
        assert validate_prediction_set(make_set(frames)) == []

    def test_score_out_of_range(self):
        frames = [FramePrediction(0, 640, 480, (make_pair(0, scores=(1.3, 0.5, 0.2)),))]
        violations = validate_prediction_set(make_set(frames))
        assert len(violations) == 1
        assert "score out of [0,1]" in violations[0]

    def test_degenerate_box(self):
        pair = make_pair(0, human_box=BoundingBox(10, 10, 10, 100))
        violations = validate_prediction_set(make_set([FramePrediction(0, 640, 480, (pair,))]))
        assert len(violations) == 1
        assert "degenerate" in violations[0]

    def test_box_outside_frame(self):
        pair = make_pair(0, object_box=BoundingBox(20, 40, 700, 90))
        violations = validate_prediction_set(make_set([FramePrediction(0, 640, 480, (pair,))]))
        assert any("outside frame" in v for v in violations)

    def test_wrong_score_length(self):
        frames = [FramePrediction(0, 640, 480, (make_pair(0, scores=(0.5,)),))]
        violations = validate_prediction_set(make_set(frames))
        assert any("scores length" in v for v in violations)

    def test_duplicate_pair_id_in_frame(self):
        # untracked pairs carry no id, so any number of them may share a frame
        frames = [
            FramePrediction(0, 640, 480, (make_pair(0), make_pair(0, object_class="cup"))),
            FramePrediction(1, 640, 480, (make_pair(1), make_pair(1, pair_id=None),
                                          make_pair(1, pair_id=None))),
        ]
        violations = validate_prediction_set(make_set(frames))
        assert violations == ["frame 0 pair (0, 1): duplicate pair_id"]

    def test_non_increasing_frames(self):
        frames = [
            FramePrediction(1, 640, 480, (make_pair(1),)),
            FramePrediction(0, 640, 480, (make_pair(0),)),
        ]
        violations = validate_prediction_set(make_set(frames))
        assert any("strictly increasing" in v for v in violations)

    def test_fused_scale_relaxes_upper_bound(self):
        frames = [FramePrediction(0, 640, 480, (make_pair(0, scores=(2.3, 0.5, 0.2)),))]
        pred_set = VideoPredictionSet(
            video_id="v",
            vocabulary=RelationVocabulary(("hold", "ride", "sit on")),
            frames=tuple(frames),
            score_scale="fused",
        )
        assert validate_prediction_set(pred_set) == []


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
