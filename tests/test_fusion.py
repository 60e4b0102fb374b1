import itertools
import math
import tracemalloc

import numpy as np
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
    STAGE_ONE_KINDS,
    TEMPORAL,
    FusedScores,
    FusionWeights,
    RelationVocabulary,
    SlotLayout,
    pair_key,
)
from hoirefine.pipeline import aggregate_provider_tables, fuse_table

from conftest import fixture_path, kinds_at, make_pair, pack
from test_agents import agent_scores, frame, make_video, propagation_cases
from test_model import two_frames


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
    return FusedScores(layout, layout.base_scores())


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
                kinds = kinds_at(table, frame.frame_index, pair_key(pair, i), r)
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
            fuse_table(fixture_predictions, agent_scores(video, {}), FusionWeights())

    def test_sigmoid_where_np_exp_differs_in_the_last_ulp(self):
        # found by search: on x86-64 with numpy 2.4, np.exp(-0.6125) is one ulp
        # off math.exp(-0.6125), so 1 / (1 + np.exp(-x)) would move this fused
        # value; fuse_table takes each sigmoid from math.exp instead
        x, weights = 0.6125, FusionWeights()
        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.5))])])
        scores = agent_scores(video, {((0, ("id", 0, 1), 1), kind): x for kind in SCORE_KINDS})
        fused = fuse_table(video, scores, weights)
        assert fused[(0, ("id", 0, 1), 1)] == fuse_scores(0.5, x, x, x, x, weights=weights)
        assert fused[(0, ("id", 0, 1), 0)] == 0.5

    def test_a_slot_without_agent_scores_keeps_a_negative_zero_base(self):
        # -0.0 + 0.0 is 0.0, so a term of zero added to every slot would
        # change the written bytes of such a slot
        video = make_video([frame(0, [make_pair(scores=(-0.0, 0.5, -0.0))])])
        scores = agent_scores(video, {((0, ("id", 0, 1), 2), CS): 0.5})
        for toggles in TOGGLE_SETS:
            fused = fuse_table(video, scores, FusionWeights(), toggles)
            assert fused[(0, ("id", 0, 1), 0)].hex() == (-0.0).hex()

    def test_holds_one_column_not_a_slot_dict(self):
        # 400 frames of 8 pairs and 10 relations: the float64 column is
        # 256 kB, a dict of the 32,000 slot tuples would be about 4 MB
        vocab = RelationVocabulary(tuple(f"r{r}" for r in range(10)))
        video = pack(vocab, (
            frame(f, [make_pair(scores=[0.5] * vocab.n, pair_id=(0, p)) for p in range(8)])
            for f in range(400)))
        scores = agent_scores(video, {(slot, kind): 0.7 for slot in
                                      list(SlotLayout(video).slots())[::3] for kind in SCORE_KINDS})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fused = fuse_table(video, scores, FusionWeights())
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
        n_slots = len(layout.pair_keys) * layout.n
        cells = [(slot, kind) for slot in range(n_slots) for kind in STAGE_ONE_KINDS]
        # a few cells, each scored or not by each provider
        cells = [cells[i] for i in data.draw(st.lists(st.integers(0, len(cells) - 1),
                                                       min_size=1, max_size=8, unique=True))]
        tables = {}
        for provider in range(data.draw(st.integers(1, 3))):
            table = tables[f"p{provider}"] = {kind: {} for kind in STAGE_ONE_KINDS}
            for slot, kind in cells:
                value = data.draw(st.none() | st.floats(0.0, 1.0))
                if value is not None:
                    table[kind][slot] = value
        got = aggregate_provider_tables(layout, tables, {})
        assert got.layout is layout
        for slot in range(n_slots):
            for kind in SCORE_KINDS:
                values = [t.get(kind, {}).get(slot) for t in tables.values()]
                values = [v for v in values if v is not None]
                expected = sum(values) / len(values) if values else None
                value = kinds_at(got, slot).get(kind)
                assert (value is None and expected is None) or value.hex() == expected.hex()

    # one below the first of two_frames' six slots, one past the last, and
    # a slot left as a tuple
    @pytest.mark.parametrize("slot", [-1, 6, (3, ("idx", 1), 0)])
    def test_a_foreign_slot_raises(self, slot):
        layout = SlotLayout(two_frames())
        for kind in SCORE_KINDS:  # a provider's score, or the judge's
            tables = {"p": {k: {slot: 0.5} if k == kind else {} for k in STAGE_ONE_KINDS}}
            judged = {slot: 0.5} if kind == DEBATE else {}
            with pytest.raises((ValueError, TypeError),
                               match="outside the layout's 6 slots|not 'tuple'"):
                aggregate_provider_tables(layout, tables, judged)


drawn_scores = st.sampled_from((-0.0, 0.0, 1.0)) | st.floats(0.0, 1.0)


def as_hex(tables: dict) -> dict:
    """Per-provider stage-1 dicts with each score as its ``float.hex``."""
    return {pid: {kind: {slot: v.hex() for slot, v in scores.items()}
                  for kind, scores in table.items()} for pid, table in tables.items()}


class TestAgentScores:
    """``aggregate_provider_tables``' ``AgentScores`` against brute force
    over the per-provider stage-1 dicts it was built from."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_per_provider_mean_and_holds_only_its_entries(self, data):
        video, _keyframes, _scores = data.draw(propagation_cases())
        layout = SlotLayout(video)
        slots = range(len(layout.pair_keys) * layout.n)
        tables = {}
        for provider in range(data.draw(st.integers(1, 3))):
            table = tables[f"p{provider}"] = {}
            # some slots scored by this provider only, some by several
            for kind in STAGE_ONE_KINDS:
                table[kind] = {slot: data.draw(drawn_scores) for slot in
                               data.draw(st.sets(st.sampled_from(slots), max_size=6))}
        judged = {slot: data.draw(drawn_scores)
                  for slot in data.draw(st.sets(st.sampled_from(slots), max_size=4))}
        inputs = as_hex(tables)

        got = aggregate_provider_tables(layout, tables, judged)

        assert got.layout is layout
        assert as_hex(tables) == inputs  # the inputs are left as they were
        held = 0
        for slot in slots:
            expected = {}
            for kind in STAGE_ONE_KINDS:
                values = [t[kind][slot] for t in tables.values() if slot in t[kind]]
                if values:
                    expected[kind] = sum(values) / len(values)
            if slot in judged:
                expected[DEBATE] = judged[slot]
            kinds = kinds_at(got, slot)
            assert {kind: v.hex() for kind, v in kinds.items()} == \
                {kind: float(v).hex() for kind, v in expected.items()}
            held += len(expected)
        assert len(got) == sum(any(slot in t[kind] for t in tables.values()
                                   for kind in STAGE_ONE_KINDS) or slot in judged
                               for slot in slots)
        for index, values in got.columns:
            assert index.dtype == np.int64 and values.dtype == np.float64
            assert np.all(np.diff(index) > 0)  # sorted, each slot once
        index, values = got.columns[SCORE_KINDS.index(DEBATE)]
        assert list(zip(index.tolist(), map(float.hex, values.tolist()))) == sorted(
            (slot, score.hex()) for slot, score in judged.items())
        # only the entries: an int64 index and a float64 value each
        assert sum(a.nbytes for column in got.columns for a in column) <= 16 * held + 64

    def test_sums_in_provider_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last ulp
        video = make_video([frame(0, [make_pair()])])
        slot = 0
        tables = {pid: {CS: {}, SPATIAL: {slot: value}, TEMPORAL: {}}
                  for pid, value in zip(("a", "b", "c"), (0.1, 0.2, 0.3))}
        got = kinds_at(aggregate_provider_tables(SlotLayout(video), tables, {}), slot)[SPATIAL]
        assert got.hex() == (sum((0.1, 0.2, 0.3)) / 3).hex() != (sum((0.3, 0.2, 0.1)) / 3).hex()

    def test_is_read_only(self):
        video = make_video([frame(0, [make_pair()])])
        tables = {"p": {CS: {1: 0.4}, SPATIAL: {}, TEMPORAL: {}}}
        scores = aggregate_provider_tables(SlotLayout(video), tables, {})
        for array in scores.columns[0]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.9
        assert kinds_at(scores, 1) == {CS: 0.4}

    def test_aggregation_builds_no_dense_table(self):
        # two providers, each scoring a third of the first 32,000 slots of
        # three kinds (400 frames of 8 pairs and 10 relations), in a video of
        # 400 frames and in one of 1600: what aggregation holds and allocates
        # grows with the scores, not with the slots. A dense aggregate of the
        # four kinds over the 32,000 slots alone would be 1 MB, and would take
        # 3 MB more over the 96,000 more slots
        vocab = RelationVocabulary(tuple(f"r{r}" for r in range(10)))

        def aggregate(frames):
            video = pack(vocab, (
                frame(f, [make_pair(scores=[0.5] * vocab.n, pair_id=(0, p)) for p in range(8)])
                for f in range(frames)))
            layout = SlotLayout(video)
            slots = range(32_000)
            tables = {pid: {kind: dict.fromkeys(slots[start::3], 0.25 * (start + 1))
                            for kind in STAGE_ONE_KINDS} for start, pid in enumerate(("a", "b"))}
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                scores = aggregate_provider_tables(layout, tables, {})
                held, peak = (m - before for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert len(scores) == 2 * 32_000 // 3 + 1
            return held, peak - held

        held, transient = aggregate(400)
        assert held <= 16 * 3 * (2 * 32_000 // 3 + 1) + 10_000
        assert transient < 500_000
        long_held, long_transient = aggregate(1600)
        assert long_held < held + 10_000
        assert long_transient < transient + 100_000
