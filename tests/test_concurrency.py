"""Concurrency in refine: each stage-1 agent asks every provider at once,
one agent's batches per provider are in flight together, and distinct
stage-2 debates run concurrently. The output must not depend on how many run
at once or on the order in which their answers arrive."""

import dataclasses
import threading
import time

import pytest

from hoirefine.ingest import write_predictions
from hoirefine.pipeline import refine
from hoirefine.prompt import COMMON_SENSE_INSTRUCTION
from hoirefine.provider import AuthError, Provider, load_rule_table, match_rules


def fixture_providers(config, latency=0.0, reject=False, max_concurrency=None,
                      hold=lambda prompt: None):
    """Providers answering from the fixture rule tables after ``hold(prompt)``
    returns and ``latency`` seconds pass (or rejecting every prompt with
    AuthError). Returns the providers and the (provider id, prompt) of every
    call their transports received."""
    sent = []

    def build(spec):
        if max_concurrency is not None:
            spec = dataclasses.replace(spec, max_concurrency=max_concurrency)
        rules = load_rule_table(spec.rules_path)

        def transport(_spec, req):
            sent.append((spec.id, req.prompt))
            hold(req.prompt)
            time.sleep(latency)
            if reject:
                raise AuthError("bad key")
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
        providers, sent = fixture_providers(fixture_config, reject=True, max_concurrency=2)
        with pytest.raises(AuthError):
            refine(fixture_predictions, fixture_config, providers=providers)
        assert 0 < len(sent) <= 2 + 2


def test_refine_leaves_no_thread_running(fixture_predictions, fixture_config):
    before = threading.active_count()
    providers, _ = fixture_providers(fixture_config)
    refine(fixture_predictions, fixture_config, providers=providers)
    assert threading.active_count() == before


def test_billed_calls_equal_distinct_prompts_with_a_cache_dir(fixture_predictions,
                                                              fixture_config, tmp_path):
    # concurrent debates ask identical debater and judge prompts; with a cache
    # directory each distinct prompt is billed once
    for run in range(5):
        providers, sent = fixture_providers(fixture_config, latency=0.002)
        refine(fixture_predictions, fixture_config, cache_dir=str(tmp_path / f"cache-{run}"),
               providers=providers)
        assert sum(p.call_count for p in providers) == len(sent) == len(set(sent))
