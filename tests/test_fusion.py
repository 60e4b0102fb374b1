import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from hoirefine.fusion import fuse_scores, sigmoid, threshold_select
from hoirefine.model import (
    CS,
    DEBATE,
    SCORE_KINDS,
    SPATIAL,
    TEMPORAL,
    FusionWeights,
    pair_key,
)
from hoirefine.pipeline import fuse_table

from test_agents import propagation_cases


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


class TestThresholdSelect:
    def test_strictly_greater(self):
        fused = {("a", 0): 0.3, ("a", 1): 0.3000001, ("b", 0): 0.1}
        assert threshold_select(fused, 0.3) == {("a", 1)}

    def test_multiple_relations_per_pair(self):
        fused = {("a", 0): 0.9, ("a", 1): 0.8, ("a", 2): 0.2}
        assert threshold_select(fused, 0.3) == {("a", 0), ("a", 1)}

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -1.0])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            threshold_select({}, threshold)


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
