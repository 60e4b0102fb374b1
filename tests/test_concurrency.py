"""Concurrency in refine: every stage-1 agent asks every provider at once,
one agent's batches per provider are in flight together, and a keyframe
candidate's debate starts as soon as its stage-1 scores are final, while
other stage-1 batches are still in flight. The output must not depend on
how many run at once or on the order in which their answers arrive; the
seeded chaos test in ``test_schedule.py`` checks that over many schedules."""

import dataclasses
import re
import threading
import time
from collections import Counter

import pytest

from hoirefine import pipeline
from hoirefine.ingest import write_predictions
from hoirefine.pipeline import refine
from hoirefine.prompt import (
    COMMON_SENSE_INSTRUCTION,
    DEBATER_PREAMBLE,
    SPATIAL_SCORING_INSTRUCTION,
)
from hoirefine.provider import AuthError, Provider, load_rule_table, match_rules

from conftest import pack


def fixture_providers(config, latency=0.0, reject=(), max_concurrency=None,
                      hold=lambda prompt: None):
    """Providers answering from the fixture rule tables after ``hold(prompt)``
    returns and ``latency`` seconds pass; the providers whose ids are in
    ``reject`` reject every prompt with AuthError, once ``hold`` returns.
    Returns the providers and the (provider id, prompt) of every call their
    transports received."""
    sent = []

    def build(spec):
        if max_concurrency is not None:
            spec = dataclasses.replace(spec, max_concurrency=max_concurrency)
        rules, _ = load_rule_table(spec.rules_path)

        def transport(_spec, req):
            sent.append((spec.id, req.prompt))
            hold(req.prompt)
            if spec.id in reject:
                raise AuthError("bad key")
            time.sleep(latency)
            return match_rules(rules, req.prompt)
        return Provider(spec, transport=transport)

    return [build(spec) for spec in config.providers], sent


def test_output_does_not_depend_on_max_concurrency(fixture_predictions, fixture_config,
                                                   tmp_path):
    fused, written = [], []
    for width in (1, 4):
        providers, _ = fixture_providers(fixture_config, latency=0.001, max_concurrency=width)
        outcome = refine(fixture_predictions, fixture_config, providers=providers)
        out = tmp_path / f"refined-{width}.jsonl"
        write_predictions(fixture_predictions, outcome.fused, str(out))
        fused.append(outcome.fused)
        written.append(out.read_bytes())
    assert fused[0] == fused[1]
    assert written[0] == written[1]


def test_one_agent_asks_every_provider_at_once(fixture_predictions, fixture_config):
    # each provider has one request in flight at a time, and every
    # common-sense prompt waits for the other provider's, so asking one
    # provider after the other breaks the barrier
    barrier = threading.Barrier(2, timeout=5)

    def hold(prompt):
        if prompt.startswith(COMMON_SENSE_INSTRUCTION):
            barrier.wait()

    providers, sent = fixture_providers(fixture_config, max_concurrency=1, hold=hold)
    refine(fixture_predictions, fixture_config, providers=providers)
    assert not barrier.broken
    asked = [pid for pid, prompt in sent if prompt.startswith(COMMON_SENSE_INSTRUCTION)]
    assert asked.count("alpha") == asked.count("beta") > 0


def test_stage_one_auth_error_starts_no_queued_batch(fixture_predictions, fixture_config):
    # the fixture's first agent asks 8 common-sense batches of each provider,
    # both providers at once, on 2 workers each; once a provider's batch hits
    # the AuthError, none of its queued batches may start, so at most the
    # summed max_concurrency (2 + 2) prompts are sent
    for _ in range(5):
        providers, sent = fixture_providers(fixture_config, reject={"alpha", "beta"},
                                            max_concurrency=2)
        with pytest.raises(AuthError):
            refine(fixture_predictions, fixture_config, providers=providers)
        assert 0 < len(sent) <= 2 + 2


def test_one_rejected_key_stops_every_provider(fixture_predictions, fixture_config):
    # beta rejects its key at once while each of alpha's prompts takes
    # 50 ms; from beta's AuthError on, no agent of either provider starts a
    # queued prompt, so alpha sends only the prompts its three agents had
    # started (at most max_concurrency each) and beta those that held its
    # slots
    for _ in range(3):
        providers, sent = fixture_providers(fixture_config, latency=0.05, reject={"beta"},
                                            max_concurrency=2)
        with pytest.raises(AuthError):
            refine(fixture_predictions, fixture_config, providers=providers)
        by_provider = Counter(pid for pid, _ in sent)
        assert 0 < by_provider["beta"] <= 2
        assert by_provider["alpha"] <= 3 * 2


def hold_spatial_batch_until_debate(reject_held=False):
    """A ``hold`` that keeps the first spatial scoring batch in its
    transport call until the first debate prompt arrives, at a barrier that
    breaks after 5 s (and then rejects the held batch with AuthError when
    ``reject_held``). Returns the hold and the barrier."""
    barrier = threading.Barrier(2, timeout=5)
    lock = threading.Lock()
    first = {}

    def hold(prompt):
        kind = ("spatial" if prompt.startswith(SPATIAL_SCORING_INSTRUCTION)
                else "debate" if prompt.startswith(DEBATER_PREAMBLE) else None)
        with lock:
            if kind is None or kind in first:
                return
            first[kind] = prompt
        barrier.wait()
        if kind == "spatial" and reject_held:
            raise AuthError("bad key")

    return hold, barrier


def test_debate_starts_while_a_stage_one_batch_is_in_flight(fixture_predictions,
                                                           fixture_config):
    # the held batch takes one of its provider's two slots, so that
    # provider's other prompts still run; a debate must then start on the
    # candidates whose stage-1 scores are final, or the barrier breaks
    hold, barrier = hold_spatial_batch_until_debate()
    providers, _ = fixture_providers(fixture_config, max_concurrency=2, hold=hold)
    refine(fixture_predictions, fixture_config, providers=providers)
    assert barrier.n_waiting == 0 and not barrier.broken


def test_stage_one_auth_error_while_debates_run(fixture_predictions, fixture_config):
    before = threading.active_count()
    hold, barrier = hold_spatial_batch_until_debate(reject_held=True)
    providers, _ = fixture_providers(fixture_config, max_concurrency=2, hold=hold)
    with pytest.raises(AuthError):
        refine(fixture_predictions, fixture_config, providers=providers)
    assert not barrier.broken
    assert threading.active_count() == before


def test_refine_leaves_no_thread_running(fixture_predictions, fixture_config):
    before = threading.active_count()
    providers, _ = fixture_providers(fixture_config)
    refine(fixture_predictions, fixture_config, providers=providers)
    assert threading.active_count() == before


def test_debate_pool_keeps_every_providers_slots_filled(fixture_predictions, fixture_config,
                                                        monkeypatch):
    # a debate holds its thread while it waits on one provider at a time, so
    # the pool runs 4 debates per request slot. The fixture debates 10
    # distinct questions: at the default 4 slots per provider (32 threads)
    # all 10 are in flight at once, or the barrier breaks; at 1 slot per
    # provider the 8 threads bound them. A debate waits before it asks
    # anything, so it holds no provider slot while it waits
    before = threading.active_count()
    run_debate = pipeline.run_debate
    for max_concurrency, waiting in ((None, 10), (1, 8)):
        lock, barrier = threading.Lock(), threading.Barrier(waiting, timeout=5)
        count = Counter()

        def counted(*args, **kwargs):
            with lock:
                started = count["started"]
                count["started"] += 1
                count["now"] += 1
                count["peak"] = max(count["peak"], count["now"])
            try:
                if started < waiting:
                    barrier.wait()
                return run_debate(*args, **kwargs)
            finally:
                with lock:
                    count["now"] -= 1

        monkeypatch.setattr(pipeline, "run_debate", counted)
        providers, _ = fixture_providers(fixture_config, max_concurrency=max_concurrency)
        refine(fixture_predictions, fixture_config, providers=providers)
        assert count["started"] == 10
        assert count["peak"] == waiting
    assert threading.active_count() == before


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache_dir", "cache_dir"])
def test_billed_calls_equal_distinct_prompts(fixture_predictions, fixture_config, tmp_path,
                                             cached):
    # the fixture's 36 debated candidates ask only 10 distinct questions;
    # each distinct prompt is billed once, with or without a cache directory
    for run in range(5):
        providers, sent = fixture_providers(fixture_config, latency=0.002)
        refine(fixture_predictions, fixture_config, providers=providers,
               cache_dir=str(tmp_path / f"cache-{run}") if cached else None)
        assert sum(p.call_count for p in providers) == len(sent) == len(set(sent)) == 86


def test_the_first_prompts_do_not_wait_for_the_slot_layout(fixture_predictions, fixture_config,
                                                           monkeypatch):
    # stage 1 keeps its scores by slot index; only aggregation, after both
    # stages, builds the run's arrays over every slot
    built, seen = [], []
    aggregate = pipeline.aggregate_provider_tables

    def counted(pred_set, *args):
        built.append(pred_set)
        return aggregate(pred_set, *args)

    monkeypatch.setattr(pipeline, "aggregate_provider_tables", counted)
    providers, sent = fixture_providers(fixture_config, hold=lambda prompt: seen.append(len(built)))
    refine(fixture_predictions, fixture_config, providers=providers)
    assert len(seen) == len(sent) > 0
    assert set(seen) == {0}
    assert built == [fixture_predictions]


def test_refined_set_is_refused_before_any_call(fixture_predictions, fixture_config):
    # a fused-scale set already holds every agent term; refining it again
    # would add them a second time
    refined = pack(fixture_predictions.vocabulary, fixture_predictions.frames,
                   fixture_predictions.video_id, score_scale="fused")
    providers, sent = fixture_providers(fixture_config)
    with pytest.raises(ValueError, match="already refined"):
        refine(refined, fixture_config, providers=providers)
    assert sent == []


def repeat_last_frame(frames):
    return frames + (frames[-1],)


def repeat_a_pair_of_the_last_frame(frames):
    last = frames[-1]
    return frames[:-1] + ((last.frame_index, last.frame_width, last.frame_height,
                           last.pairs + last.pairs[1:2]),)


@pytest.mark.parametrize("repeat,message", [
    (repeat_last_frame, "frame 19 appears twice"),
    (repeat_a_pair_of_the_last_frame, "frame 19 holds pair key ('id', 0, 11) twice"),
], ids=["frame-twice", "pair-key-twice"])
def test_ambiguous_set_is_refused_before_any_call(fixture_predictions, fixture_config,
                                                  repeat, message):
    # a set built in code, not loaded: its slots would be ambiguous, so it is
    # refused when it is built, before refine could send a call
    providers, sent = fixture_providers(fixture_config)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refine(pack(fixture_predictions.vocabulary, repeat(fixture_predictions.frames),
                    fixture_predictions.video_id), fixture_config, providers=providers)
    assert sent == []


@pytest.mark.parametrize("pick,message", [
    (lambda alpha, beta: [alpha, alpha], "provider ids must be unique, not ['alpha', 'alpha']"),
    (lambda alpha, beta: [alpha, beta, beta],
     "provider ids must be unique, not ['alpha', 'beta', 'beta']"),
    (lambda alpha, beta: [beta], "judge_provider 'alpha' is not configured (provider ids ['beta'])"),
], ids=["same-provider-twice", "one-id-twice", "no-judge"])
def test_bad_provider_list_is_refused_before_any_call(fixture_predictions, fixture_config,
                                                      pick, message):
    # one table per provider id: a repeated id would merge two tables and
    # hide the first provider's calls; the fixture's judge is alpha
    providers, sent = fixture_providers(fixture_config)
    with pytest.raises(ValueError, match=re.escape(message)):
        refine(fixture_predictions, fixture_config, providers=pick(*providers))
    assert sent == []
