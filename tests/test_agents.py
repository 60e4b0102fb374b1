import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoirefine import agents
from hoirefine.agents import (
    Transition,
    classify_spatial_awareness,
    detect_transitions,
    fan_out,
    propagate_scores,
    run_common_sense,
    run_spatial,
    run_temporal,
    select_keyframes,
)
from hoirefine.config import RefinementConfig
from hoirefine.ingest import load_predictions, triplet_to_text
from hoirefine.model import (
    CS,
    SCORE_KINDS,
    SPATIAL,
    STAGE_ONE_KINDS,
    TEMPORAL,
    AgentScores,
    RelationVocabulary,
    SlotLayout,
    pair_key,
)
from hoirefine.pipeline import run_stage_one
from hoirefine.provider import (
    AuthError,
    MockRule,
    Provider,
    ProviderSpec,
    ProviderTimeout,
    match_rules,
)
from hoirefine.prompt import SPATIAL_AWARENESS_INSTRUCTION, SPATIAL_SCORING_INSTRUCTION

from conftest import fixture_path, kinds_at, make_pair, pack, slot_tuples

VOCAB = RelationVocabulary(("hold", "ride", "sit on"))
FLOOR = 0.05


def make_video(frames):
    return pack(VOCAB, frames)


def frame(idx, pairs):
    return idx, 640, 480, tuple(pairs)


def every_frame(video) -> set[int]:
    """Every frame of ``video`` as a keyframe."""
    return set(video.frame_indices())


def answer_every_test(*scores):
    """Transport answering the k-th test line of a prompt with scores[k];
    records every prompt it is asked."""
    prompts = []

    def transport(_spec, req):
        prompts.append(req.prompt)
        n = sum(line.endswith("Output:") for line in req.prompt.splitlines())
        return "\n".join(f"Output: {scores[k % len(scores)]}" for k in range(n))
    return transport, prompts


def scored(agent, provider, *args, video=None, **kwargs) -> dict[str, dict]:
    """Every score ``agent(provider, *args, **kwargs)`` reports, per kind of
    ``STAGE_ONE_KINDS`` a dict from slot to score, as ``run_stage_one``
    keeps them, each slot as its tuple of ``video`` (default ``args[0]``)."""
    tables, lock = {kind: {} for kind in STAGE_ONE_KINDS}, threading.Lock()

    def collect(kind, scored):
        with lock:
            tables[kind].update((slot, value) for slot, value in scored if value is not None)

    agent(provider, *args, on_scored=collect, **kwargs)
    return {kind: slot_tuples(video or args[0], scores) for kind, scores in tables.items()}


def agent_scores(video, entries: dict) -> AgentScores:
    """``AgentScores`` over a layout of ``video`` holding ``entries``, each
    ``(slot, kind): value``, value for value (a ``-0.0`` too)."""
    layout = SlotLayout(video)
    held = [sorted((layout.find(slot), value) for (slot, k), value in entries.items()
                   if k == kind) for kind in SCORE_KINDS]
    return AgentScores(layout, [([i for i, _ in h], [value for _, value in h]) for h in held])


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
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0))]),
            frame(1, [make_pair(scores=(0.1, 0.9, 0.0))]),
        ])
        [transition] = detect_transitions(video, every_frame(video))
        assert transition == Transition(1, video.frames[1].pairs[0], 0, 1)
        assert transition.pair.pair_id is video.pair_ids[0]
        assert transition.slot == SlotLayout(video).find((1, ("id", 0, 1), 1))

    def test_stable_argmax_no_transition(self):
        video = make_video([
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0))]),
            frame(1, [make_pair(scores=(0.8, 0.3, 0.0))]),
        ])
        assert detect_transitions(video, every_frame(video)) == []

    def test_a_tie_of_zeros_takes_the_first_relation(self):
        # as scores.index(max(scores)) has it: -0.0 == 0.0, so the first wins
        video = make_video([
            frame(0, [make_pair(scores=(-0.0, 0.0, 0.0))]),
            frame(1, [make_pair(scores=(0.0, -0.0, 0.0))]),
            frame(2, [make_pair(scores=(0.0, 0.0, 0.5))]),
        ])
        assert [(tr.frame_index, tr.old_relation, tr.new_relation)
                for tr in detect_transitions(video, every_frame(video))] == [(2, 0, 2)]

    def test_gap_between_frames_skipped(self):
        video = make_video([
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0))]),
            frame(2, [make_pair(scores=(0.1, 0.9, 0.0))]),
        ])
        assert detect_transitions(video, every_frame(video)) == []

    def test_untracked_video_has_no_transitions(self):
        video = make_video([
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0), pair_id=None)]),
            frame(1, [make_pair(scores=(0.1, 0.9, 0.0), pair_id=None)]),
        ])
        assert detect_transitions(video, every_frame(video)) == []

    def test_only_changes_at_or_right_after_a_keyframe(self):
        flips = ((0.9, 0.1, 0.0), (0.1, 0.9, 0.0))
        video = make_video([frame(f, [make_pair(scores=flips[f % 2])]) for f in range(6)])
        # frames 0-1 and 1-2 touch keyframe 1, frames 3-4 and 4-5 keyframe 4
        assert [tr.frame_index for tr in detect_transitions(video, {1, 4})] == [1, 2, 4, 5]
        assert detect_transitions(video, set()) == []

    @pytest.mark.parametrize("interval", range(1, 8))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_oracle(self, seed, interval):
        rng = np.random.default_rng(seed)
        levels = (0.0, 0.25, 0.5, 0.75)  # few levels, so argmax ties are common
        indices = sorted(rng.choice(40, size=30, replace=False).tolist())  # with gaps
        frames = []
        for f in indices:
            ids = rng.choice(5, size=int(rng.integers(0, 5)), replace=False)
            pairs = [make_pair(scores=tuple(rng.choice(levels, size=3).tolist()),
                               pair_id=None if k == 4 else (0, int(k))) for k in ids]
            frames.append(frame(f, pairs))
        video = make_video(frames)
        keyframes = select_keyframes(video.frame_indices(), interval)

        def top(scores):
            return min(r for r, s in enumerate(scores) if s == max(scores))

        by_frame = {fr.frame_index: {p.pair_id: p for p in fr.pairs if p.pair_id is not None}
                    for fr in video.frames}
        oracle = [
            Transition(t, pair, top(by_frame[t - 1][pid].scores), top(pair.scores))
            for t in indices if t - 1 in by_frame and (t in keyframes or t - 1 in keyframes)
            for pid, pair in by_frame[t].items()
            if pid in by_frame[t - 1] and top(by_frame[t - 1][pid].scores) != top(pair.scores)
        ]
        transitions = detect_transitions(video, keyframes)
        assert transitions == oracle
        assert all(tr.pair == by_frame[tr.frame_index][tr.pair.pair_id] for tr in transitions)


class TestCommonSense:
    def rules(self):
        return [
            MockRule("triplet", "<person,hold,chair>", "Output: 0.9"),
            MockRule("triplet", "<person,ride,chair>", "Output: 0.1"),
        ]

    def test_scores_land_on_candidates(self):
        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.02))])])
        table = scored(run_common_sense, provider(self.rules()), video, {0}, VOCAB, FLOOR,
                       batch_size=1)
        assert table[CS].get((0, ("id", 0, 1), 0)) == 0.9
        assert table[CS].get((0, ("id", 0, 1), 1)) == 0.1
        # below the candidate floor, never queried
        assert table[CS].get((0, ("id", 0, 1), 2)) is None

    def test_batched_rule_table_answers_land_on_their_own_slots(self):
        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.02))])])
        table = scored(run_common_sense, provider(self.rules()), video, {0}, VOCAB, FLOOR,
                       batch_size=3)
        assert table[CS].get((0, ("id", 0, 1), 0)) == 0.9
        assert table[CS].get((0, ("id", 0, 1), 1)) == 0.1

    def test_unparseable_answer_leaves_the_batchs_other_slots(self):
        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.5))])])
        table = scored(run_common_sense,
                       provider(transport=lambda _spec, _req:
                                "Output: 0.9\nOutput: unsure\nOutput: 0.3"),
                       video, {0}, VOCAB, FLOOR, batch_size=3)
        assert table[CS] == {(0, ("id", 0, 1), 0): 0.9, (0, ("id", 0, 1), 2): 0.3}

    def test_distinct_texts_cost_one_call_each(self):
        video = make_video([frame(f, [make_pair(scores=(0.5, 0.5, 0.02))]) for f in range(4)])
        p = provider(self.rules())
        table = scored(run_common_sense, p, video, {0, 1, 2, 3}, VOCAB, FLOOR, batch_size=1)
        assert p.call_count == 2  # 2 distinct triplet texts across 4 keyframes
        for f in range(4):
            assert table[CS].get((f, ("id", 0, 1), 0)) == 0.9

    def test_failed_batch_isolated(self):
        def transport(spec, req):
            if "<person,ride,chair>" in req.prompt:
                raise ProviderTimeout("flaky")
            return "Output: 0.9"

        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.02))])])
        table = scored(run_common_sense, provider(transport=transport), video, {0}, VOCAB,
                       FLOOR, batch_size=1)
        assert table[CS].get((0, ("id", 0, 1), 0)) == 0.9
        assert table[CS].get((0, ("id", 0, 1), 1)) is None

    def test_auth_error_fatal(self):
        def transport(spec, req):
            raise AuthError("bad key")

        video = make_video([frame(0, [make_pair()])])
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
        pairs = [make_pair(pair_id=(0, i), object_class=obj)
                 for i, obj in enumerate(("chair", "cup"))]
        video = make_video([frame(0, pairs)])
        table = scored(run_common_sense, Provider(spec, transport=transport), video, {0},
                       VOCAB, FLOOR, batch_size=1)
        assert len(table[CS]) == 2 * width
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

    def test_shared_stop_halts_every_fan_out(self):
        # a set stop starts no further item, and leaves None for the items
        # it kept from starting; a raising call sets the stop it shares
        stop = threading.Event()

        def fn(i):
            if i == 2:
                stop.set()
            return -i

        assert fan_out(fn, list(range(5)), 1, stop) == [0, -1, -2, None, None]
        other = threading.Event()
        with pytest.raises(ValueError):
            fan_out(lambda i: int("x"), [0], 1, other)
        assert other.is_set()
        assert fan_out(lambda i: i, [0, 1], 2, other) == [None, None]

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
        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.5))])])
        table = scored(run_spatial, provider(self.rules()), video, {0}, VOCAB, FLOOR,
                       batch_size=1)
        assert table[SPATIAL].get((0, ("id", 0, 1), 1)) == 0.2
        assert table[SPATIAL].get((0, ("id", 0, 1), 0)) is None
        assert table[SPATIAL].get((0, ("id", 0, 1), 2)) is None

    def test_failed_batch_isolated(self):
        def transport(spec, req):
            if "<person,ride,chair> person box" in req.prompt:
                raise ProviderTimeout("flaky")
            return match_rules([MockRule("relation", "hold", "yes"),
                                MockRule("relation", "ride", "yes")], req.prompt)

        video = make_video([frame(0, [make_pair(scores=(0.5, 0.5, 0.02))])])
        table = scored(run_spatial, provider(transport=transport), video, {0}, VOCAB, FLOOR,
                       batch_size=1)
        assert table[SPATIAL].get((0, ("id", 0, 1), 0)) == 0.5
        assert table[SPATIAL].get((0, ("id", 0, 1), 1)) is None

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
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0))]),
            frame(1, [make_pair(scores=(0.1, 0.9, 0.0))]),
        ])
        transitions = detect_transitions(video, every_frame(video))
        p = provider([MockRule("contains", "frame 0:", "Output: 0.7")])
        table = scored(run_temporal, p, VOCAB, transitions, batch_size=1, video=video)
        assert table[TEMPORAL].get((1, ("id", 0, 1), 1)) == 0.7
        assert table[TEMPORAL].get((1, ("id", 0, 1), 0)) is None
        assert table[TEMPORAL].get((0, ("id", 0, 1), 0)) is None

    def test_same_change_on_two_pairs_is_asked_twice(self):
        # two chairs in one frame both flip hold -> ride: the triplet texts
        # coincide, yet each transition keeps its own test slot
        video = make_video([
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0), pair_id=(0, 1)),
                      make_pair(scores=(0.9, 0.1, 0.0), pair_id=(0, 2))]),
            frame(1, [make_pair(scores=(0.1, 0.9, 0.0), pair_id=(0, 1)),
                      make_pair(scores=(0.1, 0.9, 0.0), pair_id=(0, 2))]),
        ])
        transport, prompts = answer_every_test(0.7, 0.4)
        table = scored(run_temporal, provider(transport=transport), VOCAB,
                       detect_transitions(video, every_frame(video)), batch_size=2, video=video)
        assert len(prompts) == 1
        assert prompts[0].count("frame 0: <person,hold,chair> frame 1: <person,ride,chair>") == 2
        assert table[TEMPORAL].get((1, ("id", 0, 1), 1)) == 0.7
        assert table[TEMPORAL].get((1, ("id", 0, 2), 1)) == 0.4

    def test_failed_batch_isolated(self):
        video = make_video([
            frame(0, [make_pair(scores=(0.9, 0.1, 0.0), pair_id=(0, 1)),
                      make_pair(scores=(0.9, 0.1, 0.0), pair_id=(0, 2))]),
            frame(1, [make_pair(scores=(0.1, 0.9, 0.0), pair_id=(0, 1)),
                      make_pair(scores=(0.1, 0.0, 0.9), pair_id=(0, 2))]),
        ])

        def transport(spec, req):
            if "<person,sit on,chair>" in req.prompt:
                raise ProviderTimeout("flaky")
            return "Output: 0.7"

        table = scored(run_temporal, provider(transport=transport), VOCAB,
                       detect_transitions(video, every_frame(video)), batch_size=1, video=video)
        assert table[TEMPORAL].get((1, ("id", 0, 1), 1)) == 0.7
        assert table[TEMPORAL].get((1, ("id", 0, 2), 2)) is None

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_call_volume(self, batch_size):
        # four pairs flip hold <-> ride on every frame: 12 transitions
        flips = ((0.9, 0.1, 0.0), (0.1, 0.9, 0.0))
        video = make_video([
            frame(f, [make_pair(scores=flips[f % 2], pair_id=(0, k)) for k in range(4)])
            for f in range(4)
        ])
        transitions = detect_transitions(video, every_frame(video))
        assert len(transitions) == 12
        transport, prompts = answer_every_test(0.5)
        table = scored(run_temporal, provider(transport=transport), VOCAB, transitions,
                       batch_size=batch_size, video=video)
        # each distinct prompt is asked once: at batch size 1 the four pairs
        # of a frame render one prompt, at 5 the three batches differ
        assert len(prompts) == len(set(prompts)) == 3
        assert len(table[TEMPORAL]) == len(transitions)

    def test_no_transitions_no_calls(self):
        p = provider([])
        table = scored(run_temporal, p, VOCAB, [], batch_size=1, video=make_video([]))
        assert p.call_count == 0
        assert table == {CS: {}, SPATIAL: {}, TEMPORAL: {}}


class TestPropagation:
    def tracked_video(self, n=5):
        return make_video([frame(f, [make_pair()]) for f in range(n)])

    def test_nearest_keyframe_wins(self):
        video = self.tracked_video()
        scores = agent_scores(video, {((0, ("id", 0, 1), 0), CS): 0.2,
                                      ((4, ("id", 0, 1), 0), CS): 0.8})
        out = propagate_scores(scores, video, {0, 4})
        assert kinds_at(out, 1, ("id", 0, 1), 0).get(CS) == 0.2
        assert kinds_at(out, 3, ("id", 0, 1), 0).get(CS) == 0.8

    def test_distance_tie_prefers_earlier(self):
        video = self.tracked_video()
        scores = agent_scores(video, {((0, ("id", 0, 1), 0), CS): 0.2,
                                      ((4, ("id", 0, 1), 0), CS): 0.8})
        out = propagate_scores(scores, video, {0, 4})
        assert kinds_at(out, 2, ("id", 0, 1), 0).get(CS) == 0.2

    def test_skips_keyframes_missing_value(self):
        # keyframe 2 never got a score, so frame 3 reaches back to keyframe 0
        video = self.tracked_video()
        scores = agent_scores(video, {((0, ("id", 0, 1), 0), CS): 0.2})
        out = propagate_scores(scores, video, {0, 2, 4})
        assert kinds_at(out, 3, ("id", 0, 1), 0).get(CS) == 0.2

    def test_direct_non_keyframe_entries_kept(self):
        video = self.tracked_video()
        scores = agent_scores(video, {((0, ("id", 0, 1), 0), TEMPORAL): 0.3,
                                      ((1, ("id", 0, 1), 0), TEMPORAL): 0.9})
        out = propagate_scores(scores, video, {0, 4})
        assert kinds_at(out, 1, ("id", 0, 1), 0).get(TEMPORAL) == 0.9

    def test_untracked_pairs_propagate_by_text(self):
        video = make_video([
            frame(0, [make_pair(pair_id=None)]),
            frame(1, [make_pair(pair_id=None)]),
        ])
        scores = agent_scores(video, {((0, ("idx", 0), 2), CS): 0.6})
        out = propagate_scores(scores, video, {0})
        assert kinds_at(out, 1, ("idx", 0), 2).get(CS) == 0.6

    def test_untracked_pairs_only_cs_propagates(self):
        video = make_video([
            frame(0, [make_pair(pair_id=None)]),
            frame(1, [make_pair(pair_id=None)]),
        ])
        scores = agent_scores(video, {((0, ("idx", 0), 2), SPATIAL): 0.6})
        out = propagate_scores(scores, video, {0})
        assert kinds_at(out, 1, ("idx", 0), 2).get(SPATIAL) is None

    def test_returns_new_scores_and_leaves_its_input(self):
        video = self.tracked_video()
        scores = agent_scores(video, {((0, ("id", 0, 1), 0), CS): 0.2,
                                      ((4, ("id", 0, 1), 0), CS): 0.8})
        out = propagate_scores(scores, video, {0, 4})
        assert isinstance(out, AgentScores) and out is not scores
        assert out.layout is scores.layout
        assert [kinds_at(out, f, ("id", 0, 1), 0).get(CS)
                for f in range(5)] == [0.2, 0.2, 0.2, 0.8, 0.8]
        assert held_entries(scores) == {(0, ("id", 0, 1), 0): {CS: 0.2},
                                        (4, ("id", 0, 1), 0): {CS: 0.8}}
        assert [column.tolist() for column in scores.columns[0]] == [[0, 12], [0.2, 0.8]]

    @pytest.mark.parametrize("other", ["another video", "the same file loaded again"])
    def test_a_table_over_another_set_is_rejected(self, other, fixture_predictions,
                                                  fixture_vocab):
        # by identity, as for the writer: a set loaded again is another set
        video = self.tracked_video() if other == "another video" else load_predictions(
            fixture_path("predictions.jsonl"), fixture_vocab)
        scores = agent_scores(video, {})
        with pytest.raises(ValueError, match="^agent scores are over another prediction set$"):
            propagate_scores(scores, fixture_predictions, {0})
        assert len(scores) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_oracle(self, data):
        video, keyframes, table = data.draw(propagation_cases())
        expected = propagation_oracle(table, video, keyframes)
        out = propagate_scores(table, video, keyframes)
        assert held_entries(out) == expected

    # a drawn case holds at most 30 pairs, inside one default chunk: with
    # chunks of 1 or 2 pairs its targets are filled over several passes
    @pytest.mark.parametrize("chunk", [1, 2])
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_oracle_chunk_by_chunk(self, chunk, data):
        video, keyframes, table = data.draw(propagation_cases())
        expected = propagation_oracle(table, video, keyframes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(agents, "_CHUNK", chunk)
            out = propagate_scores(table, video, keyframes)
        assert held_entries(out) == expected

    def test_matches_the_oracle_over_more_pairs_than_a_chunk(self):
        video, keyframes, table = long_propagation_case()
        assert sum(len(fr.pairs) for fr in video.frames) > agents._CHUNK
        expected = propagation_oracle(table, video, keyframes)
        out = propagate_scores(table, video, keyframes)
        assert held_entries(out) == expected


def long_propagation_case(frames=520, interval=20):
    """Two pairs per frame, one of three tracks and one untracked pair whose
    class repeats, with about half of the slots of each kind held, keyframe
    or not: 1040 pairs, more than one default chunk."""
    rng = np.random.default_rng(7)
    video = make_video([
        frame(f, [make_pair(pair_id=(0, f % 3)),
                  make_pair(pair_id=None, object_class=("chair", "cup")[f % 2])])
        for f in range(frames)])
    slots = list(SlotLayout(video).slots())
    held = rng.random((len(SCORE_KINDS), len(slots))) < 0.5
    values = iter(rng.random(int(held.sum())).tolist())
    return video, set(range(0, frames, interval)), agent_scores(video, {
        (slots[i], kind): next(values)
        for kind, mask in zip(SCORE_KINDS, held) for i in np.flatnonzero(mask).tolist()})


class TestMemory:
    """Guards on the bytes stage 1 holds and propagation allocates beyond
    the scores it returns, by ``tracemalloc``, for 400 frames x 8 pairs over
    10 relations: 6 tracked pairs and 2 untracked, about 3 candidates each,
    a keyframe every 4th frame."""

    def test_stage_one_holds_its_scores_not_its_slots(self):
        # 3 candidate relations of 10 per pair, so 2,400 common-sense scores
        # per provider over 32,000 slots; the awareness answers do not parse,
        # so no relation is spatial-aware, and no pair changes relation
        vocab = RelationVocabulary(tuple(f"r{i}" for i in range(10)))
        video = pack(vocab, (
            (f, 640, 480, [
                make_pair(scores=[0.5 if r % 3 == k % 3 and r < 9 else 0.01 for r in range(10)],
                          pair_id=(0, k) if k < 6 else None,
                          object_class=("chair", "cup", "horse")[k % 3]) for k in range(8)])
            for f in range(400)))
        transport, _ = answer_every_test(0.5)
        specs = [ProviderSpec(id=pid, kind="mock", max_retries=0) for pid in ("a", "b")]
        config = RefinementConfig(providers=tuple(specs), judge_provider="a")
        providers = [Provider(spec, transport=transport) for spec in specs]
        keyframes = select_keyframes(video.frame_indices(), 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = run_stage_one(video, config, providers, keyframes, [], None,
                                   lambda tables, slots: None, threading.Event())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [len(table[CS]) for table in tables.values()] == [2400, 2400]
        assert not any(table[SPATIAL] or table[TEMPORAL] for table in tables.values())
        # about 90 bytes a score (its dict entry, int slot and float):
        # 0.35-0.43 MB here, 0.62-0.81 MB with tuple slots, where a dense
        # (4 kinds x 32,000 slots) float64 table per provider held 2.4 MB
        assert held < 120 * 2 * 2400 + 50_000

    def test_propagation_peak_is_bounded(self):
        vocab = RelationVocabulary(tuple(f"r{i}" for i in range(10)))
        rng = np.random.default_rng(0)
        video = pack(vocab, (
            (f, 640, 480, [
                make_pair(scores=(0.5,) * 10, pair_id=(0, k) if k < 6 else None,
                          object_class=("chair", "cup", "horse")[k % 3]) for k in range(8)])
            for f in range(400)))
        layout, keyframes = SlotLayout(video), set(range(0, 400, 4))
        slots = list(layout.slots())
        candidates = (rng.random(len(slots)) < 0.3) & np.repeat(
            np.isin(layout.frame, list(keyframes)), vocab.n)
        drawn = {}
        for kind in STAGE_ONE_KINDS:  # cs, spatial and temporal scores on the keyframe candidates
            values = rng.random(int(candidates.sum())).tolist()
            drawn.update(((slots[i], kind), value)
                         for i, value in zip(np.flatnonzero(candidates).tolist(), values))
        scores = agent_scores(video, drawn)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = propagate_scores(scores, video, keyframes)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(out.columns[0][0]) > 4 * candidates.sum()
        # the result, 16 bytes per held score: 1.08 MB for its 67,194 scores
        entries = sum(len(index) for index, _ in out.columns)
        assert held <= 16 * entries + 10_000
        # above the result: 2.27 MB with per-slot group, text and frame-rank
        # arrays over all 32,000 slots, 0.72 MB with per-pair groups and
        # chunked fills in place, 0.65 MB with one kind's dense grid at a time
        assert peak - held < 1_000_000


@st.composite
def propagation_cases(draw):
    """A short video of tracked and untracked pairs whose object classes
    repeat (shared triplet texts), a keyframe set, and agent scores that
    hold a value on about half of the slots, keyframe or not. Few relations
    and kinds per case, so keyframes often share a source key and ties occur."""
    gaps = draw(st.sets(st.integers(1, 9), max_size=2))
    indices = [f for f in range(draw(st.integers(1, 10))) if f not in gaps]
    # a keyframe grid, with a few frames toggled in or out of it
    keyframes = set(indices[::draw(st.sampled_from((2, 4, 3, 1)))]) ^ draw(
        st.sets(st.sampled_from(indices), max_size=2))
    relations = draw(st.lists(st.integers(0, VOCAB.n - 1), min_size=1, max_size=2, unique=True))
    kinds = draw(st.lists(st.sampled_from(SCORE_KINDS), min_size=1, max_size=2, unique=True))
    frames, entries = [], {}
    for f in indices:
        ids = [(0, 1)] + [(0, 2)] * draw(st.booleans())
        pids = draw(st.permutations(ids + [None] * draw(st.integers(0, 2))))
        pairs = [make_pair(pair_id=pid, object_class=draw(st.sampled_from(("chair", "cup"))))
                 for pid in pids]
        frames.append(frame(f, pairs))
        for i, pair in enumerate(pairs):
            for r in relations:
                for kind in kinds:
                    value = draw(st.none() | st.floats(0.0, 1.0))
                    if value is not None:
                        entries[(f, pair_key(pair, i), r), kind] = value
    video = make_video(frames)
    return video, keyframes, agent_scores(video, entries)


def held_entries(table):
    """Per slot holding any kind, its scores by kind, in slot order."""
    return {slot: kinds for slot in table.layout.slots() if (kinds := kinds_at(table, *slot))}


def propagation_oracle(table, video, keyframes):
    """Brute force from the propagate_scores docstring: every table entry is
    kept; an empty non-keyframe slot takes the value of the keyframe holding
    its (pair_key, relation, kind) with the smallest (distance, keyframe);
    an untracked pair does the same for common-sense scores only, matched by
    triplet text, where the last matching pair of a keyframe wins."""
    expected = held_entries(table)
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
                            if kinds_at(table, kf, pk, r).get(kind) is not None:
                                held[kf] = kinds_at(table, kf, pk, r).get(kind)
                        elif kind == CS:
                            text = triplet_to_text(pair, r, VOCAB)
                            for j, other in enumerate(kf_frame.pairs):
                                for r2 in range(VOCAB.n):
                                    value = kinds_at(table, kf, pair_key(other, j), r2).get(CS)
                                    same = triplet_to_text(other, r2, VOCAB) == text
                                    if value is not None and same:
                                        held[kf] = value
                    if held:
                        kf = min(held, key=lambda k: (abs(k - f), k))
                        expected.setdefault((f, pk, r), {})[kind] = held[kf]
    return expected
