"""Refine's output does not depend on the schedule.

A seeded chaos transport takes every latency, failure and answer from a hash
of (seed, provider, prompt, attempt), so which slots stay unscored depends
on the prompt, not on the order in which answers arrive. Hypothesis draws
per-provider ``max_concurrency``, ``batch_size``, ``debate_mode``, the
keyframe interval (3 or 4) and the interpreter's thread switch interval; the
oracle is the same run with every ``max_concurrency`` at 1 and no latency. Three providers take part, so a
mean over providers summed in another order than the configured one
changes some agent scores in the refined table. The oracle runs, at keyframe
intervals 1 to 4, also check the reported coverage against a count in
plain loops.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import threading
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hoirefine import pipeline
from hoirefine.agents import detect_transitions, keyframe_slots, select_keyframes
from hoirefine.cli import main
from hoirefine.config import RefinementConfig
from hoirefine.ingest import write_predictions
from hoirefine.model import SCORE_KINDS, pair_key
from hoirefine.pipeline import refine
from hoirefine.prompt import SPATIAL_AWARENESS_INSTRUCTION, SPATIAL_SCORING_INSTRUCTION
from hoirefine.provider import (
    AuthError,
    Provider,
    ProviderError,
    ProviderSpec,
    ProviderTimeout,
)

from conftest import fixture_path, held_entries

SEED = 11
PROVIDER_IDS = ("alpha", "beta", "gamma")


def _hash(*parts) -> int:
    return int.from_bytes(hashlib.sha256(repr(parts).encode("utf-8")).digest()[:8], "big")


class ChaosTransport:
    """For each attempt: a latency of 0-5 ms (when ``latency``), then a
    failure or an answer. About 10% of prompts fail their first attempt
    only, about 5% fail every attempt; ``reject(provider_id, prompt)``
    prompts raise AuthError. An answer depends only on (seed, provider,
    prompt): a yes or no to an awareness prompt, else one score per test
    line."""

    def __init__(self, latency: bool, reject=lambda _pid, _prompt: False):
        self.latency = latency
        self.reject = reject
        self.attempts: Counter = Counter()
        self._lock = threading.Lock()

    def __call__(self, spec: ProviderSpec, req) -> str:
        key = (spec.id, req.prompt)
        with self._lock:
            attempt = self.attempts[key]
            self.attempts[key] += 1
        if self.latency:
            time.sleep(_hash(SEED, spec.id, req.prompt, attempt) % 5001 / 1e6)
        if self.reject(spec.id, req.prompt):
            raise AuthError(f"{spec.id}: bad key")
        fate = _hash(SEED, spec.id, req.prompt) % 100
        if fate < 5 or (fate < 15 and attempt == 0):
            raise ProviderTimeout(f"{spec.id}: chaos timeout")
        if req.prompt.startswith(SPATIAL_AWARENESS_INSTRUCTION):
            return "yes" if _hash(SEED, spec.id, req.prompt, "aware") % 2 else "no"
        tests = [ln for ln in req.prompt.splitlines() if ln.rstrip().endswith("Output:")] or [""]
        return "\n".join(
            f"Output: {_hash(SEED, spec.id, req.prompt, i) % 1001 / 1000}"
            for i in range(len(tests)))


class BilledProvider(Provider):
    """A Provider that counts each billed (provider id, prompt) in
    ``billed``."""

    def __init__(self, spec, transport, billed: Counter):
        super().__init__(spec, transport=transport)
        self.billed = billed

    def complete(self, req):
        with self._lock:
            self.billed[(self.id, req.prompt)] += 1
        return super().complete(req)


def chaos_specs(widths) -> tuple[ProviderSpec, ...]:
    return tuple(ProviderSpec(id=pid, kind="mock", max_concurrency=width, max_retries=2,
                              backoff_base=0.0)
                 for pid, width in zip(PROVIDER_IDS, widths))


def chaos_config(widths, batch_size: int, debate_mode: str,
                 keyframe_interval: int) -> RefinementConfig:
    return RefinementConfig(providers=chaos_specs(widths), judge_provider="alpha",
                            keyframe_interval=keyframe_interval, batch_size=batch_size,
                            debate_mode=debate_mode, disagreement_delta=0.1)


def run_chaos(pred_set, widths, batch_size, debate_mode, keyframe_interval, latency) -> dict:
    """Refine under the chaos transport; everything the run leaves behind."""
    transport, billed = ChaosTransport(latency), Counter()
    config = chaos_config(widths, batch_size, debate_mode, keyframe_interval)
    providers = [BilledProvider(spec, transport, billed) for spec in config.providers]
    with tempfile.TemporaryDirectory() as tmp:
        transcripts = os.path.join(tmp, "transcripts")
        outcome = refine(pred_set, config, transcript_dir=transcripts, providers=providers)
        out = os.path.join(tmp, "refined.jsonl")
        write_predictions(pred_set, outcome.fused, out)
        with open(out, "rb") as fh:
            written = fh.read()
        files = {}
        if os.path.isdir(transcripts):
            for name in os.listdir(transcripts):
                with open(os.path.join(transcripts, name), "rb") as fh:
                    files[name] = fh.read()
    return {"predictions": written, "transcripts": files, "billed": billed,
            "summary": outcome.stats.summary(), "coverage": outcome.stats.coverage,
            "table": held_entries(outcome.table)}


_ORACLES: dict = {}


def oracle(pred_set, batch_size, debate_mode, keyframe_interval) -> dict:
    key = (batch_size, debate_mode, keyframe_interval)
    if key not in _ORACLES:
        _ORACLES[key] = run_chaos(pred_set, (1, 1, 1), batch_size, debate_mode,
                                  keyframe_interval, latency=False)
    return _ORACLES[key]


@contextlib.contextmanager
def switch_interval(seconds):
    before = sys.getswitchinterval()
    if seconds is not None:
        sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


schedules = dict(
    widths=st.tuples(*(st.integers(1, 4) for _ in PROVIDER_IDS)),
    batch_size=st.sampled_from([1, 3, 16]),
    debate_mode=st.sampled_from(["disagreement", "always", "off"]),
    # at 3 the fixture's flip at frame 4 follows keyframe 3, so it is asked
    # about but lands on no keyframe candidate
    keyframe_interval=st.sampled_from([3, 4]),
    interval=st.sampled_from([None, 1e-6]),
)


@settings(max_examples=12, deadline=None)
@given(**schedules)
def test_output_does_not_depend_on_the_schedule(fixture_predictions, widths, batch_size,
                                                debate_mode, keyframe_interval, interval):
    expected = oracle(fixture_predictions, batch_size, debate_mode, keyframe_interval)
    with switch_interval(interval):
        got = run_chaos(fixture_predictions, widths, batch_size, debate_mode, keyframe_interval,
                        latency=True)
    assert got["predictions"] == expected["predictions"]
    assert got["transcripts"] == expected["transcripts"]
    assert got["billed"] == expected["billed"]
    assert got["summary"] == expected["summary"]
    # the agent scores that ablations re-fuse, to the last bit
    assert got["table"] == expected["table"]


def test_chaos_exercises_every_failure_kind(fixture_predictions):
    # the oracle runs see retried, dropped and debated prompts alike
    run = oracle(fixture_predictions, 1, "always", 4)
    fates = Counter(
        "dropped" if _hash(SEED, pid, prompt) % 100 < 5
        else "retried" if _hash(SEED, pid, prompt) % 100 < 15 else "answered"
        for pid, prompt in run["billed"])
    assert len(fates) == 3
    assert run["transcripts"]
    # the auth case below rejects these
    assert any(pid == "beta" and prompt.startswith(SPATIAL_SCORING_INSTRUCTION)
               for pid, prompt in run["billed"])


@settings(max_examples=12, deadline=None)
@given(batch_size=schedules["batch_size"], debate_mode=schedules["debate_mode"],
       keyframe_interval=st.integers(1, 4))
def test_coverage_is_the_share_of_candidates_holding_each_kind(
        fixture_predictions, batch_size, debate_mode, keyframe_interval):
    run = oracle(fixture_predictions, batch_size, debate_mode, keyframe_interval)
    floor = chaos_config((1, 1, 1), batch_size, debate_mode, keyframe_interval).candidate_floor
    frames = sorted(fixture_predictions.frames, key=lambda frame: frame.frame_index)
    candidates = []
    for frame in frames[::keyframe_interval]:
        for i, pair in enumerate(frame.pairs):
            for r, score in enumerate(pair.scores):
                if score >= floor:
                    candidates.append((frame.frame_index, pair_key(pair, i), r))
    expected = {}
    if candidates:
        for kind in SCORE_KINDS:
            held = 0
            for slot in candidates:
                if kind in run["table"].get(slot, {}):
                    held += 1
            expected[kind] = held / len(candidates)
    assert run["coverage"] == expected


@pytest.mark.parametrize("keyframe_interval", [3, 4])
@pytest.mark.parametrize("batch_size", [1, 16])
@pytest.mark.parametrize("answers", ["rules", "chaos"])
def test_stage_one_reports_each_slot_as_often_as_stage_two_waits_for_it(
        fixture_predictions, fixture_config, answers, batch_size, keyframe_interval):
    # run_stage_two takes a candidate's scores as final after 2P reports
    # (common sense, and spatial or its not-aware verdict, per provider),
    # plus P for each transition landing on it; a transition's slot that is
    # no candidate gets P. A failed batch reports its slots too.
    if answers == "rules":
        config = dataclasses.replace(fixture_config, batch_size=batch_size,
                                     keyframe_interval=keyframe_interval)
        providers = pipeline.build_providers(config)
    else:
        config = chaos_config((2, 2, 2), batch_size, "off", keyframe_interval)
        transport = ChaosTransport(latency=False)
        # with no retry, every prompt that fails its first attempt is dropped
        providers = [Provider(dataclasses.replace(spec, max_retries=0), transport=transport)
                     for spec in config.providers]
    keyframes = select_keyframes(fixture_predictions.frame_indices(), keyframe_interval)
    transitions = detect_transitions(fixture_predictions, keyframes)
    candidates = keyframe_slots(fixture_predictions, keyframes, config.candidate_floor)
    reported = Counter()
    pipeline.run_stage_one(fixture_predictions, config, providers, keyframes, transitions, None,
                           lambda _tables, slots: reported.update(slots), threading.Event())
    expected = Counter(dict.fromkeys(candidates, 2 * len(providers)))
    expected.update(tr.slot for tr in transitions for _ in providers)
    assert reported == expected
    # the fixture's one flip lands on a candidate at interval 4, on none at 3
    assert [tr.slot in candidates for tr in transitions] == [keyframe_interval == 4]
    if answers == "chaos":
        assert any(_hash(SEED, pid, prompt) % 100 < 15 for pid, prompt in transport.attempts)


def test_stage_two_selects_once_per_report(fixture_predictions, fixture_config, monkeypatch):
    # the selector is wrapped by name, as the benchmark's trace wraps it
    select, stage_one = pipeline.select_debate_candidates, pipeline.run_stage_one
    inputs, reports = [], []

    def recording_select(fused, *args):
        inputs.append(list(fused))
        return select(fused, *args)

    def counting_stage_one(*args):
        on_scored = args[6]

        def counted(tables, slots):
            reports.append(slots)
            on_scored(tables, slots)
        return stage_one(*args[:6], counted, *args[7:])

    monkeypatch.setattr(pipeline, "select_debate_candidates", recording_select)
    monkeypatch.setattr(pipeline, "run_stage_one", counting_stage_one)
    outcome = refine(fixture_predictions, fixture_config)
    keyframes = select_keyframes(fixture_predictions.frame_indices(),
                                 fixture_config.keyframe_interval)
    candidates = keyframe_slots(fixture_predictions, keyframes, fixture_config.candidate_floor)
    assert 0 < len(inputs) <= len(reports)
    # each candidate goes to the selector exactly once
    assert sorted(slot for fused in inputs for slot in fused) == candidates
    assert outcome.stats.debates > 0


def test_total_outage_raises_before_the_slot_layout(fixture_predictions, monkeypatch):
    def timing_out(_spec, _req):
        raise ProviderTimeout("no answer")

    built, aggregate = [], pipeline.aggregate_provider_tables

    def recording_aggregate(pred_set, *args):
        built.append(pred_set.video_id)
        return aggregate(pred_set, *args)

    monkeypatch.setattr(pipeline, "aggregate_provider_tables", recording_aggregate)
    config = chaos_config((1, 1, 1), 16, "always", 1)
    providers = [Provider(dataclasses.replace(spec, max_retries=0), transport=timing_out)
                 for spec in config.providers]
    with pytest.raises(ProviderError, match="no agent score for any keyframe candidate"):
        refine(fixture_predictions, config, providers=providers)
    assert built == []


@settings(max_examples=4, deadline=None)
@given(**schedules)
def test_auth_error_exits_two_and_writes_nothing(fixture_predictions, widths, batch_size,
                                                debate_mode, keyframe_interval, interval):
    # beta's key is rejected on spatial scoring prompts, which every
    # debate mode asks while debates may already be running
    def reject(pid, prompt):
        return pid == "beta" and prompt.startswith(SPATIAL_SCORING_INSTRUCTION)

    config = chaos_config(widths, batch_size, debate_mode, keyframe_interval)
    transport = ChaosTransport(latency=True, reject=reject)
    with tempfile.TemporaryDirectory() as tmp, switch_interval(interval), \
            mock.patch.object(pipeline, "Provider",
                              lambda spec: Provider(spec, transport=transport)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(config), fh)
        out = os.path.join(tmp, "refined.jsonl")
        code = main(["refine", "--config", config_path,
                     "--predictions", fixture_path("predictions.jsonl"),
                     "--vocab", fixture_path("vocab.txt"), "--out", out])
        assert code == 2, err.getvalue()
        assert not os.path.exists(out)
        assert not [name for name in os.listdir(tmp) if name.startswith("refined")]
