import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hoirefine.evaluation import positives_per_frame
from hoirefine.fusion import fuse_scores, sigmoid
from hoirefine.ingest import load_predictions
from hoirefine.model import (
    CS,
    DEBATE,
    SCORE_KINDS,
    SPATIAL,
    TEMPORAL,
    AgentScoreTable,
    FusedScores,
    FusionWeights,
    RelationVocabulary,
    SlotLayout,
    VideoPredictionSet,
    pair_key,
)
from hoirefine.pipeline import aggregate_provider_tables, fuse_table

from conftest import fixture_path
from test_agents import frame, make_video, propagation_cases
from test_model import make_pair


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestWorkedExamples:
    def test_single_term(self):
        weights = FusionWeights(lambda_cs=0.05, lambda_s=0.0, lambda_t=0.0,
                                lambda_debate=0.0)
        fused = fuse_scores(0.20, s_cs=1.0, weights=weights)
        assert fused == pytest.approx(0.23655293, abs=1e-8)

    def test_three_terms(self):
        weights = FusionWeights(lambda_cs=0.05, lambda_s=1.7, lambda_t=1.7,
                                lambda_debate=0.0)
        fused = fuse_scores(0.1, s_cs=0.5, s_spatial=1.0, s_temporal=0.0,
                            weights=weights)
        assert fused == pytest.approx(2.2239226, abs=1e-6)

    def test_not_clipped_above_one(self):
        weights = FusionWeights(lambda_cs=0.05, lambda_s=1.7, lambda_t=1.7,
                                lambda_debate=0.0)
        assert fuse_scores(0.1, s_cs=0.5, s_spatial=1.0, s_temporal=0.0,
                           weights=weights) > 1.0


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
agent = st.one_of(st.none(), unit)
weight = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


class TestProperties:
    @given(unit, agent, agent, agent, agent, weight, weight, weight, weight)
    def test_absent_terms_contribute_zero(self, base, cs, sp, tp, db,
                                          w_cs, w_s, w_t, w_d):
        weights = FusionWeights(lambda_cs=w_cs, lambda_s=w_s, lambda_t=w_t,
                                lambda_debate=w_d)
        expected = base
        for score, w in ((cs, w_cs), (sp, w_s), (tp, w_t), (db, w_d)):
            if score is not None:
                expected += w * logistic(score)
        got = fuse_scores(base, s_cs=cs, s_spatial=sp, s_temporal=tp,
                          s_debate=db, weights=weights)
        assert got == pytest.approx(expected, abs=1e-12)

    @given(unit, unit, unit)
    def test_monotone_in_each_agent_score(self, base, low, high):
        if low > high:
            low, high = high, low
        weights = FusionWeights(lambda_cs=0.3, lambda_s=0.3, lambda_t=0.3,
                                lambda_debate=0.3)
        for slot in ("s_cs", "s_spatial", "s_temporal", "s_debate"):
            a = fuse_scores(base, weights=weights, **{slot: low})
            b = fuse_scores(base, weights=weights, **{slot: high})
            assert b >= a

    @given(unit, unit)
    def test_zero_weight_is_neutral(self, base, score):
        weights = FusionWeights(lambda_cs=0.0, lambda_s=0.0, lambda_t=0.0,
                                lambda_debate=0.0)
        fused = fuse_scores(base, s_cs=score, s_spatial=score,
                            s_temporal=score, s_debate=score, weights=weights)
        assert fused == base

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_sigmoid_bounds_and_symmetry(self, x):
        assert 0.0 < sigmoid(x) < 1.0
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


def one_pair_column(scores):
    """The scores of pair (0, 1), the one pair of frame 0, as a fused column."""
    layout = SlotLayout(make_video([frame(0, [make_pair(scores=scores)])]))
    return FusedScores(layout, layout.base)


class TestThresholdSelect:
    """Fused scores are selected by ``evaluation.positives_per_frame``."""

    def test_strictly_greater(self):
        positives = positives_per_frame(one_pair_column((0.3, 0.3000001, 0.1)), 0.3)
        assert positives == {0: [(("id", 0, 1), 1, 0.3000001)]}

    def test_multiple_relations_per_pair(self):
        positives = positives_per_frame(one_pair_column((0.9, 0.8, 0.2)), 0.3)
        assert positives == {0: [(("id", 0, 1), 0, 0.9), (("id", 0, 1), 1, 0.8)]}

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -1.0])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            positives_per_frame(one_pair_column((0.9, 0.8, 0.2)), threshold)


def fuse_table_oracle(video, table, weights, toggles):
    """One fuse_scores call per (frame, pair, relation) slot, in frame, pair
    and relation order, with each disabled kind's score left out."""
    def enabled(kinds, kind):
        return kinds.get(kind) if toggles is None or toggles.get(kind) else None

    fused = {}
    for frame in video.frames:
        for i, pair in enumerate(frame.pairs):
            for r, base in enumerate(pair.scores):
                kinds = table.kinds_at(frame.frame_index, pair_key(pair, i), r)
                fused[(frame.frame_index, pair_key(pair, i), r)] = fuse_scores(
                    base,
                    s_cs=enabled(kinds, CS),
                    s_spatial=enabled(kinds, SPATIAL),
                    s_temporal=enabled(kinds, TEMPORAL),
                    s_debate=enabled(kinds, DEBATE),
                    weights=weights,
                )
    return fused


TOGGLE_SETS = [None] + [dict(zip(SCORE_KINDS, bits))
                        for bits in itertools.product((False, True), repeat=len(SCORE_KINDS))]


class TestFuseTable:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_slot_oracle(self, data):
        video, _keyframes, table = data.draw(propagation_cases())
        weights = FusionWeights(lambda_cs=data.draw(weight), lambda_s=data.draw(weight),
                                lambda_t=data.draw(weight), lambda_debate=data.draw(weight))
        for toggles in TOGGLE_SETS:
            got = fuse_table(video, table, weights, toggles)
            expected = fuse_table_oracle(video, table, weights, toggles)
            assert got == expected
            assert list(got) == list(expected)

    @pytest.mark.parametrize("other", ["another video", "the same file loaded again"])
    def test_a_table_over_another_set_is_rejected(self, other, fixture_predictions,
                                                  fixture_vocab):
        # by identity, as for the writer: a set loaded again is another set
        video = make_video([frame(0, [make_pair()])]) if other == "another video" else (
            load_predictions(fixture_path("predictions.jsonl"), fixture_vocab))
        with pytest.raises(ValueError, match="^agent scores are over another prediction set$"):
            fuse_table(fixture_predictions, AgentScoreTable(SlotLayout(video)), FusionWeights())

    def test_sigmoid_where_np_exp_differs_in_the_last_ulp(self):
        # found by search: on x86-64 with numpy 2.4, np.exp(-0.6125) is one ulp
        # off math.exp(-0.6125), so 1 / (1 + np.exp(-x)) would move this fused
        # value; fuse_table takes each sigmoid from math.exp instead
        x, weights = 0.6125, FusionWeights()
        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.5))])])
        table = AgentScoreTable(SlotLayout(video))
        for kind in SCORE_KINDS:
            table.set(0, ("id", 0, 1), 1, kind, x)
        fused = fuse_table(video, table, weights)
        assert fused[(0, ("id", 0, 1), 1)] == fuse_scores(0.5, x, x, x, x, weights=weights)
        assert fused[(0, ("id", 0, 1), 0)] == 0.5

    def test_holds_one_column_not_a_slot_dict(self):
        # 400 frames of 8 pairs and 10 relations: the float64 column is
        # 256 kB, a dict of the 32,000 slot tuples would be about 4 MB
        vocab = RelationVocabulary(tuple(f"r{r}" for r in range(10)))
        video = VideoPredictionSet("v", vocab, tuple(
            frame(f, [make_pair(scores=[0.5] * vocab.n, pair_id=(0, p)) for p in range(8)])
            for f in range(400)))
        table = AgentScoreTable(SlotLayout(video))
        table.values[:, ::3] = 0.7
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fused = fuse_table(video, table, FusionWeights())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(fused) == 32_000
        assert held < 1_000_000


class TestAggregate:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mean_in_provider_order_bit_for_bit(self, data):
        """Every slot and kind holds ``sum(values) / len(values)`` over the
        providers that scored it, in provider order, and no other slot does."""
        video, _keyframes, _table = data.draw(propagation_cases())
        layout = SlotLayout(video)
        cells = [(slot, kind) for slot in layout.slots() for kind in SCORE_KINDS]
        # a few cells, each scored or not by each provider
        cells = [cells[i] for i in data.draw(st.lists(st.integers(0, len(cells) - 1),
                                                       min_size=1, max_size=8, unique=True))]
        tables = {}
        for provider in range(data.draw(st.integers(1, 3))):
            table = tables[f"p{provider}"] = AgentScoreTable(layout)
            for slot, kind in cells:
                value = data.draw(st.none() | st.floats(0.0, 1.0))
                if value is not None:
                    table.set(*slot, kind, value)
        got = aggregate_provider_tables(tables)
        assert got.layout is layout
        for slot in layout.slots():
            for kind in SCORE_KINDS:
                values = [t.kinds_at(*slot).get(kind) for t in tables.values()]
                values = [v for v in values if v is not None]
                expected = sum(values) / len(values) if values else None
                value = got.kinds_at(*slot).get(kind)
                assert (value is None and expected is None) or value.hex() == expected.hex()
