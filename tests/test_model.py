import pytest
from hypothesis import given, strategies as st

from hoirefine.model import (
    BoundingBox,
    FusionWeights,
    PairPrediction,
    RelationVocabulary,
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
