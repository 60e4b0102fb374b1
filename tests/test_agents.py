import math
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from hoirefine.agents import (
    Transition,
    TrackingUnavailableError,
    classify_spatial_awareness,
    detect_transitions,
    fan_out,
    propagate_scores,
    run_common_sense,
    run_spatial,
    run_temporal,
    select_keyframes,
)
from hoirefine.ingest import triplet_to_text
from hoirefine.model import (
    CS,
    SCORE_KINDS,
    SPATIAL,
    TEMPORAL,
    AgentScoreTable,
    FramePrediction,
    RelationVocabulary,
    VideoPredictionSet,
    pair_key,
)
from hoirefine.provider import (
    AuthError,
    MockRule,
    Provider,
    ProviderSpec,
    ProviderTimeout,
    match_rules,
)
from hoirefine.prompt import SPATIAL_AWARENESS_INSTRUCTION, SPATIAL_SCORING_INSTRUCTION

from test_model import make_pair

VOCAB = RelationVocabulary(("hold", "ride", "sit on"))
FLOOR = 0.05


def make_video(frames):
    return VideoPredictionSet(video_id="v", vocabulary=VOCAB, frames=tuple(frames))


def frame(idx, pairs):
    return FramePrediction(idx, 640, 480, tuple(pairs))


def answer_every_test(*scores):
    """Transport answering the k-th test line of a prompt with scores[k];
    records every prompt it is asked."""
    prompts = []

    def transport(_spec, req):
        prompts.append(req.prompt)
        n = sum(line.endswith("Output:") for line in req.prompt.splitlines())
        return "\n".join(f"Output: {scores[k % len(scores)]}" for k in range(n))
    return transport, prompts


def provider(rules=(), transport=None):
    spec = ProviderSpec(id="m", kind="mock", max_retries=0, backoff_base=0.001)
    if transport is None:
        transport = lambda _spec, req: match_rules(rules, req.prompt)
    return Provider(spec, transport=transport)


class TestKeyframes:
    def test_positions_not_values(self):
        assert select_keyframes([10, 11, 12, 13, 14], 2) == {10, 12, 14}

    def test_interval_one_takes_all(self):
        assert select_keyframes([3, 7, 9], 1) == {3, 7, 9}

    def test_first_frame_always_kept(self):
        assert 5 in select_keyframes([5, 6, 7], 100)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            select_keyframes([0], 0)


class TestTransitions:
    def test_argmax_change_detected(self):
        video = make_video([
            frame(0, [make_pair(0, scores=(0.9, 0.1, 0.0))]),
            frame(1, [make_pair(1, scores=(0.1, 0.9, 0.0))]),
        ])
        assert detect_transitions(video) == [Transition(1, (0, 1), 0, 1)]

    def test_stable_argmax_no_transition(self):
        video = make_video([
            frame(0, [make_pair(0, scores=(0.9, 0.1, 0.0))]),
            frame(1, [make_pair(1, scores=(0.8, 0.3, 0.0))]),
        ])
        assert detect_transitions(video) == []

    def test_gap_between_frames_skipped(self):
        video = make_video([
            frame(0, [make_pair(0, scores=(0.9, 0.1, 0.0))]),
            frame(2, [make_pair(2, scores=(0.1, 0.9, 0.0))]),
        ])
        assert detect_transitions(video) == []

    def test_untracked_video_raises(self):
        video = make_video([
            frame(0, [make_pair(0, pair_id=None)]),
            frame(1, [make_pair(1, pair_id=None)]),
        ])
        with pytest.raises(TrackingUnavailableError):
            detect_transitions(video)


class TestCommonSense:
    def rules(self):
        return [
            MockRule("triplet", "<person,hold,chair>", "Output: 0.9"),
            MockRule("triplet", "<person,ride,chair>", "Output: 0.1"),
        ]

    def test_scores_land_on_candidates(self):
        video = make_video([frame(0, [make_pair(0, scores=(0.5, 0.5, 0.02))])])
        table = run_common_sense(provider(self.rules()), video, {0}, VOCAB,
                                 FLOOR, batch_size=1)
        assert table.get(0, ("id", 0, 1), 0, CS) == 0.9
        assert table.get(0, ("id", 0, 1), 1, CS) == 0.1
        # below the candidate floor, never queried
        assert table.get(0, ("id", 0, 1), 2, CS) is None

    def test_distinct_texts_cost_one_call_each(self):
        pairs = [make_pair(f, scores=(0.5, 0.5, 0.02)) for f in range(4)]
        video = make_video([frame(f, [pairs[f]]) for f in range(4)])
        p = provider(self.rules())
        table = run_common_sense(p, video, {0, 1, 2, 3}, VOCAB, FLOOR, batch_size=1)
        assert p.call_count == 2  # 2 distinct triplet texts across 4 keyframes
        for f in range(4):
            assert table.get(f, ("id", 0, 1), 0, CS) == 0.9

    def test_failed_batch_isolated(self):
        def transport(spec, req):
            if "<person,ride,chair>" in req.prompt:
                raise ProviderTimeout("flaky")
            return "Output: 0.9"

        video = make_video([frame(0, [make_pair(0, scores=(0.5, 0.5, 0.02))])])
        table = run_common_sense(provider(transport=transport), video, {0},
                                 VOCAB, FLOOR, batch_size=1)
        assert table.get(0, ("id", 0, 1), 0, CS) == 0.9
        assert table.get(0, ("id", 0, 1), 1, CS) is None

    def test_auth_error_fatal(self):
        def transport(spec, req):
            raise AuthError("bad key")

        video = make_video([frame(0, [make_pair(0)])])
        with pytest.raises(AuthError):
            run_common_sense(provider(transport=transport), video, {0}, VOCAB,
                             FLOOR, batch_size=1)


class TestBatchConcurrency:
    def test_one_agents_batches_overlap(self):
        # every prompt waits until max_concurrency prompts are in flight, so
        # one batch at a time breaks the barrier
        width = 3
        barrier = threading.Barrier(width, timeout=5)

        def transport(_spec, req):
            barrier.wait()
            return "Output: 0.9"

        spec = ProviderSpec(id="m", kind="mock", max_concurrency=width, max_retries=0)
        pairs = [make_pair(0, pair_id=(0, i), object_class=obj)
                 for i, obj in enumerate(("chair", "cup"))]
        video = make_video([frame(0, pairs)])
        table = run_common_sense(Provider(spec, transport=transport), video, {0}, VOCAB,
                                 FLOOR, batch_size=1)
        assert len(table) == 2 * width
        assert not barrier.broken


class TestFanOut:
    def test_results_in_item_order(self):
        # later items finish first
        def slow_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert fan_out(slow_first, list(range(8)), 4) == [i * i for i in range(8)]

    def test_every_item_runs_once_under_frequent_switches(self):
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = fan_out(lambda i: calls.append(i) or -i, list(range(2000)), 16)
        finally:
            sys.setswitchinterval(interval)
        assert results == [-i for i in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_calling_thread_takes_the_first_item(self):
        ran_on = {}

        def record(i):
            ran_on[i] = threading.get_ident()
            time.sleep(0.001)

        fan_out(record, list(range(8)), 4)
        assert sorted(ran_on) == list(range(8))
        assert ran_on[0] == threading.get_ident()

    @pytest.fixture
    def started_threads(self, monkeypatch):
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        return started

    @pytest.mark.parametrize("items,max_workers", [
        (list(range(5)), 1),
        ([7], 4),
        ([], 4),
    ])
    def test_starts_no_thread_when_one_would_do(self, started_threads, items, max_workers):
        assert fan_out(lambda i: -i, items, max_workers) == [-i for i in items]
        assert started_threads == []

    def test_starts_one_helper_less_than_workers(self, started_threads):
        fan_out(lambda i: i, list(range(10)), 3)
        assert len(started_threads) == 2
        assert not any(t.is_alive() for t in started_threads)

    def test_no_item_starts_after_one_has_raised(self):
        # the other items are held until 200 ms after item 0 raises, so every
        # helper can take at most the one item it took before the failure
        started = []
        release = threading.Event()
        timer = threading.Timer(0.2, release.set)

        def fn(i):
            started.append(i)
            if i == 0:
                timer.start()
                raise ValueError("item 0")
            release.wait(5)

        with pytest.raises(ValueError, match="item 0"):
            fan_out(fn, list(range(20)), 4)
        timer.join(5)
        assert release.is_set()
        assert 0 in started
        assert len(started) <= 4
        assert max(started) < 4

    def test_lowest_indexed_exception_propagates(self):
        # item 1 raises first in time, item 0 after it
        one_raised = threading.Event()

        def fn(i):
            if i == 1:
                one_raised.set()
                raise ValueError("item 1")
            if i == 0:
                one_raised.wait(5)
                raise ValueError("item 0")

        with pytest.raises(ValueError, match="item 0"):
            fan_out(fn, [0, 1, 2], 2)


class TestSpatial:
    def rules(self):
        return [
            MockRule("relation", "ride", "yes"),
            MockRule("relation", "hold", "no"),
            MockRule("relation", "sit on", "no"),
            MockRule("contains", "person box", "Output: 0.2"),
        ]

    def test_awareness_classification(self):
        aware = classify_spatial_awareness(provider(self.rules()),
                                           ["hold", "ride", "sit on"])
        assert aware == {"hold": False, "ride": True, "sit on": False}

    def test_unparseable_answer_is_not_aware(self):
        p = provider([MockRule("relation", "ride", "hard to say")])
        assert classify_spatial_awareness(p, ["ride"]) == {"ride": False}

    def test_only_aware_relations_scored(self):
        video = make_video([frame(0, [make_pair(0, scores=(0.5, 0.5, 0.5))])])
        table = run_spatial(provider(self.rules()), video, {0}, VOCAB,
                            FLOOR, batch_size=1)
        assert table.get(0, ("id", 0, 1), 1, SPATIAL) == 0.2
        assert table.get(0, ("id", 0, 1), 0, SPATIAL) is None
        assert table.get(0, ("id", 0, 1), 2, SPATIAL) is None

    def test_failed_batch_isolated(self):
        def transport(spec, req):
            if "<person,ride,chair> person box" in req.prompt:
                raise ProviderTimeout("flaky")
            return match_rules([MockRule("relation", "hold", "yes"),
                                MockRule("relation", "ride", "yes")], req.prompt)

        video = make_video([frame(0, [make_pair(0, scores=(0.5, 0.5, 0.02))])])
        table = run_spatial(provider(transport=transport), video, {0}, VOCAB,
                            FLOOR, batch_size=1)
        assert table.get(0, ("id", 0, 1), 0, SPATIAL) == 0.5
        assert table.get(0, ("id", 0, 1), 1, SPATIAL) is None

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_call_volume(self, fixture_predictions, fixture_vocab, batch_size):
        # one awareness call per relation name in play, then the distinct
        # aware (text, boxes) items, batched
        aware_names = ("hold", "ride", "next to")
        rules = [MockRule("relation", name, "yes") for name in aware_names]
        prompts = []

        def transport(_spec, req):
            prompts.append(req.prompt)
            return match_rules(rules, req.prompt)

        pred_set, vocab = fixture_predictions, fixture_vocab
        keyframes = select_keyframes(pred_set.frame_indices(), 4)
        candidates = [(pair, r) for frame in pred_set.frames if frame.frame_index in keyframes
                      for pair in frame.pairs
                      for r, s in enumerate(pair.scores) if s >= FLOOR]
        names = {vocab.names[r] for _, r in candidates}
        items = {(triplet_to_text(pair, r, vocab), tuple(pair.human_box.as_int_list()),
                  tuple(pair.object_box.as_int_list()))
                 for pair, r in candidates if vocab.names[r] in aware_names}
        assert len(items) > batch_size

        run_spatial(provider(transport=transport), pred_set, keyframes, vocab,
                    FLOOR, batch_size=batch_size)
        asked = [p.split("\n", 1)[0] for p in prompts]
        assert asked.count(SPATIAL_AWARENESS_INSTRUCTION) == len(names)
        assert asked.count(SPATIAL_SCORING_INSTRUCTION) == math.ceil(len(items) / batch_size)
        assert len(asked) == len(names) + math.ceil(len(items) / batch_size)


class TestTemporal:
    def test_score_attaches_to_new_relation(self):
        video = make_video([
            frame(0, [make_pair(0, scores=(0.9, 0.1, 0.0))]),
            frame(1, [make_pair(1, scores=(0.1, 0.9, 0.0))]),
        ])
        transitions = detect_transitions(video)
        p = provider([MockRule("contains", "frame 0:", "Output: 0.7")])
        table = run_temporal(p, video, transitions, VOCAB, batch_size=1)
        assert table.get(1, ("id", 0, 1), 1, TEMPORAL) == 0.7
        assert table.get(1, ("id", 0, 1), 0, TEMPORAL) is None
        assert table.get(0, ("id", 0, 1), 0, TEMPORAL) is None

    def test_same_change_on_two_pairs_is_asked_twice(self):
        # two chairs in one frame both flip hold -> ride: the triplet texts
        # coincide, yet each transition keeps its own test slot
        video = make_video([
            frame(0, [make_pair(0, scores=(0.9, 0.1, 0.0), pair_id=(0, 1)),
                      make_pair(0, scores=(0.9, 0.1, 0.0), pair_id=(0, 2))]),
            frame(1, [make_pair(1, scores=(0.1, 0.9, 0.0), pair_id=(0, 1)),
                      make_pair(1, scores=(0.1, 0.9, 0.0), pair_id=(0, 2))]),
        ])
        transport, prompts = answer_every_test(0.7, 0.4)
        table = run_temporal(provider(transport=transport), video, detect_transitions(video),
                             VOCAB, batch_size=2)
        assert len(prompts) == 1
        assert prompts[0].count("frame 0: <person,hold,chair> frame 1: <person,ride,chair>") == 2
        assert table.get(1, ("id", 0, 1), 1, TEMPORAL) == 0.7
        assert table.get(1, ("id", 0, 2), 1, TEMPORAL) == 0.4

    def test_failed_batch_isolated(self):
        video = make_video([
            frame(0, [make_pair(0, scores=(0.9, 0.1, 0.0), pair_id=(0, 1)),
                      make_pair(0, scores=(0.9, 0.1, 0.0), pair_id=(0, 2))]),
            frame(1, [make_pair(1, scores=(0.1, 0.9, 0.0), pair_id=(0, 1)),
                      make_pair(1, scores=(0.1, 0.0, 0.9), pair_id=(0, 2))]),
        ])

        def transport(spec, req):
            if "<person,sit on,chair>" in req.prompt:
                raise ProviderTimeout("flaky")
            return "Output: 0.7"

        table = run_temporal(provider(transport=transport), video, detect_transitions(video),
                             VOCAB, batch_size=1)
        assert table.get(1, ("id", 0, 1), 1, TEMPORAL) == 0.7
        assert table.get(1, ("id", 0, 2), 2, TEMPORAL) is None

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_call_volume(self, batch_size):
        # four pairs flip hold <-> ride on every frame: 12 transitions
        flips = ((0.9, 0.1, 0.0), (0.1, 0.9, 0.0))
        video = make_video([
            frame(f, [make_pair(f, scores=flips[f % 2], pair_id=(0, k)) for k in range(4)])
            for f in range(4)
        ])
        transitions = detect_transitions(video)
        assert len(transitions) == 12
        transport, prompts = answer_every_test(0.5)
        table = run_temporal(provider(transport=transport), video, transitions, VOCAB,
                             batch_size=batch_size)
        assert len(prompts) == math.ceil(len(transitions) / batch_size)
        assert len(table) == len(transitions)

    def test_no_transitions_no_calls(self):
        video = make_video([frame(0, [make_pair(0)])])
        p = provider([])
        table = run_temporal(p, video, [], VOCAB, batch_size=1)
        assert p.call_count == 0
        assert list(table.items()) == []


class TestPropagation:
    def tracked_video(self, n=5):
        return make_video([frame(f, [make_pair(f)]) for f in range(n)])

    def test_nearest_keyframe_wins(self):
        table = AgentScoreTable()
        table.set(0, ("id", 0, 1), 0, CS, 0.2)
        table.set(4, ("id", 0, 1), 0, CS, 0.8)
        out = propagate_scores(table, self.tracked_video(), {0, 4})
        assert out.get(1, ("id", 0, 1), 0, CS) == 0.2
        assert out.get(3, ("id", 0, 1), 0, CS) == 0.8

    def test_distance_tie_prefers_earlier(self):
        table = AgentScoreTable()
        table.set(0, ("id", 0, 1), 0, CS, 0.2)
        table.set(4, ("id", 0, 1), 0, CS, 0.8)
        out = propagate_scores(table, self.tracked_video(), {0, 4})
        assert out.get(2, ("id", 0, 1), 0, CS) == 0.2

    def test_skips_keyframes_missing_value(self):
        # keyframe 2 never got a score, so frame 3 reaches back to keyframe 0
        table = AgentScoreTable()
        table.set(0, ("id", 0, 1), 0, CS, 0.2)
        out = propagate_scores(table, self.tracked_video(), {0, 2, 4})
        assert out.get(3, ("id", 0, 1), 0, CS) == 0.2

    def test_direct_non_keyframe_entries_kept(self):
        table = AgentScoreTable()
        table.set(0, ("id", 0, 1), 0, TEMPORAL, 0.3)
        table.set(1, ("id", 0, 1), 0, TEMPORAL, 0.9)
        out = propagate_scores(table, self.tracked_video(), {0, 4})
        assert out.get(1, ("id", 0, 1), 0, TEMPORAL) == 0.9

    def test_untracked_pairs_propagate_by_text(self):
        video = make_video([
            frame(0, [make_pair(0, pair_id=None)]),
            frame(1, [make_pair(1, pair_id=None)]),
        ])
        table = AgentScoreTable()
        table.set(0, ("idx", 0), 2, CS, 0.6)
        out = propagate_scores(table, video, {0})
        assert out.get(1, ("idx", 0), 2, CS) == 0.6

    def test_untracked_pairs_only_cs_propagates(self):
        video = make_video([
            frame(0, [make_pair(0, pair_id=None)]),
            frame(1, [make_pair(1, pair_id=None)]),
        ])
        table = AgentScoreTable()
        table.set(0, ("idx", 0), 2, SPATIAL, 0.6)
        out = propagate_scores(table, video, {0})
        assert out.get(1, ("idx", 0), 2, SPATIAL) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_oracle(self, data):
        video, keyframes, table = data.draw(propagation_cases())
        out = propagate_scores(table, video, keyframes)
        assert dict(out.items()) == propagation_oracle(table, video, keyframes)


@st.composite
def propagation_cases(draw):
    """A short video of tracked and untracked pairs whose object classes
    repeat (shared triplet texts), a keyframe set, and a score table that
    holds a value on about half of the slots, keyframe or not. Few relations
    and kinds per case, so keyframes often share a source key and ties occur."""
    gaps = draw(st.sets(st.integers(1, 9), max_size=2))
    indices = [f for f in range(draw(st.integers(1, 10))) if f not in gaps]
    # a keyframe grid, with a few frames toggled in or out of it
    keyframes = set(indices[::draw(st.sampled_from((2, 4, 3, 1)))]) ^ draw(
        st.sets(st.sampled_from(indices), max_size=2))
    relations = draw(st.lists(st.integers(0, VOCAB.n - 1), min_size=1, max_size=2, unique=True))
    kinds = draw(st.lists(st.sampled_from(SCORE_KINDS), min_size=1, max_size=2, unique=True))
    frames, table = [], AgentScoreTable()
    for f in indices:
        ids = [(0, 1)] + [(0, 2)] * draw(st.booleans())
        pids = draw(st.permutations(ids + [None] * draw(st.integers(0, 2))))
        pairs = [make_pair(f, pair_id=pid, object_class=draw(st.sampled_from(("chair", "cup"))))
                 for pid in pids]
        frames.append(frame(f, pairs))
        for i, pair in enumerate(pairs):
            for r in relations:
                for kind in kinds:
                    value = draw(st.none() | st.floats(0.0, 1.0))
                    if value is not None:
                        table.set(f, pair_key(pair, i), r, kind, value)
    return make_video(frames), keyframes, table


def propagation_oracle(table, video, keyframes):
    """Brute force from the propagate_scores docstring: every table entry is
    kept; an empty non-keyframe slot takes the value of the keyframe holding
    its (pair_key, relation, kind) with the smallest (distance, keyframe);
    an untracked pair does the same for common-sense scores only, matched by
    triplet text, where the last matching pair of a keyframe wins."""
    expected = {slot: dict(kinds) for slot, kinds in table.items()}
    key_frames = [fr for fr in video.frames if fr.frame_index in keyframes]
    for fr in video.frames:
        f = fr.frame_index
        if f in keyframes:
            continue
        for i, pair in enumerate(fr.pairs):
            pk = pair_key(pair, i)
            for r in range(VOCAB.n):
                for kind in SCORE_KINDS:
                    if kind in expected.get((f, pk, r), {}):
                        continue
                    held = {}
                    for kf_frame in key_frames:
                        kf = kf_frame.frame_index
                        if pair.pair_id is not None:
                            if table.get(kf, pk, r, kind) is not None:
                                held[kf] = table.get(kf, pk, r, kind)
                        elif kind == CS:
                            text = triplet_to_text(pair, r, VOCAB)
                            for j, other in enumerate(kf_frame.pairs):
                                for r2 in range(VOCAB.n):
                                    value = table.get(kf, pair_key(other, j), r2, CS)
                                    same = triplet_to_text(other, r2, VOCAB) == text
                                    if value is not None and same:
                                        held[kf] = value
                    if held:
                        kf = min(held, key=lambda k: (abs(k - f), k))
                        expected.setdefault((f, pk, r), {})[kind] = held[kf]
    return expected
