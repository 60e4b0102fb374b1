import json
import sys
import threading
import time

import pytest

from hoirefine.provider import (
    CompletionRequest,
    MockRule,
    Provider,
    ProviderSpec,
    ProviderTimeout,
    RuleTableError,
    cache_key,
    cached_complete,
    load_rule_table,
    match_rules,
)


def req(prompt="Input:<person,sit on,chair> Output:", **kw):
    return CompletionRequest(provider_id="p", prompt=prompt, **kw)


def mock_provider(rules=()):
    return Provider(ProviderSpec(id="p", kind="mock"),
                    transport=lambda _spec, r: match_rules(rules, r.prompt))


class TestMockRules:
    def test_exact_triplet_rule(self):
        rules = [MockRule("triplet", "<person,sit on,chair>", "Output: 1.0")]
        assert match_rules(rules, req().prompt) == "Output: 1.0"

    def test_default_without_match(self):
        assert match_rules([], req().prompt) == "Output: 0.5"

    def test_earlier_rule_wins(self):
        rules = [
            MockRule("triplet", "<person,sit on,chair>", "Output: 0.9"),
            MockRule("triplet", "<person,sit on,chair>", "Output: 0.1"),
        ]
        assert match_rules(rules, req().prompt) == "Output: 0.9"

    def test_hug_table_example(self):
        rules = [MockRule("triplet", "<person,hug,table>", "Output: 0.1")]
        prompt = "score these\nInput:<person,hug,table> Output:"
        assert match_rules(rules, req(prompt).prompt) == "Output: 0.1"

    def test_demonstrations_do_not_trigger_triplet_rules(self):
        # answered demo lines are not test instances
        rules = [MockRule("triplet", "<person,ride,bicycle>", "Output: 1.0"),
                 MockRule("triplet", "<person,hug,person>", "Output: 0.8")]
        prompt = ("Input:<person,ride,bicycle> Output: 1.0\n"
                  "Input:<person,hug,person> Output:")
        assert match_rules(rules, req(prompt).prompt) == "Output: 0.8"

    def test_relation_rule_requires_quotes(self):
        rules = [MockRule("relation", "ride", "yes")]
        assert match_rules(rules, "Input: is the relation 'ride' spatial-aware? Output:") == "yes"
        assert match_rules(rules, "Input:<person,ride,bicycle> Output:") == "Output: 0.5"

    def test_contains_rule_matches_anywhere(self):
        rules = [MockRule("contains", "person box [300", "Output: 0.1")]
        assert match_rules(rules, "judge this: person box [300,1,2,3]") == "Output: 0.1"

    def test_rule_table_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text(json.dumps({"match": "triplet", "key": "<a>", "response": "Output: 1"}) + "\n")
        rules = load_rule_table(str(path))
        assert rules == [MockRule("triplet", "<a>", "Output: 1")]

    def test_malformed_rule_table(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"match": "nope", "key": "x", "response": "y"}\n')
        with pytest.raises(RuleTableError):
            load_rule_table(str(path))


class TestComplete:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(provider_id="p", prompt="")

    def test_retry_contract(self):
        attempts = []

        def transport(spec, request):
            attempts.append(1)
            raise ProviderTimeout("unreachable")

        provider = Provider(
            ProviderSpec(id="p", kind="mock", max_retries=2, backoff_base=0.001),
            transport=transport,
        )
        with pytest.raises(ProviderTimeout):
            provider.complete(req())
        assert len(attempts) == 3

    def test_mock_determinism(self):
        provider = mock_provider([MockRule("triplet", "<person,sit on,chair>", "Output: 1.0")])
        assert provider.complete(req()).text == provider.complete(req()).text

    def test_concurrency_bound(self):
        barrier_sleep = 0.02

        def transport(spec, request):
            time.sleep(barrier_sleep)
            return "Output: 0.5"

        provider = Provider(
            ProviderSpec(id="p", kind="mock", max_concurrency=3), transport=transport
        )
        threads = [
            threading.Thread(target=provider.complete, args=(req(f"prompt {i}"),))
            for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert provider.max_in_flight <= 3
        assert provider.call_count == 12


class TestCache:
    def test_hit_skips_provider(self, tmp_path):
        provider = mock_provider()
        first = cached_complete(provider, req(), str(tmp_path))
        second = cached_complete(provider, req(), str(tmp_path))
        assert not first.cached and second.cached
        assert second.text == first.text
        assert provider.call_count == 1
        assert provider.cache_hits == 1

    def test_prompt_sensitivity(self, tmp_path):
        provider = mock_provider()
        cached_complete(provider, req("prompt a"), str(tmp_path))
        cached_complete(provider, req("prompt b"), str(tmp_path))
        assert provider.call_count == 2

    def test_temperature_in_key(self, tmp_path):
        provider = mock_provider()
        cached_complete(provider, req(temperature=0.0), str(tmp_path))
        cached_complete(provider, req(temperature=0.7), str(tmp_path))
        assert provider.call_count == 2

    def test_call_count_equals_distinct_keys(self, tmp_path):
        provider = mock_provider()
        requests = [req(f"prompt {i % 4}") for i in range(20)]
        for r in requests:
            cached_complete(provider, r, str(tmp_path))
        distinct = {cache_key(provider, r) for r in requests}
        assert provider.call_count == len(distinct) == 4

    def test_removed_entry_is_miss(self, tmp_path):
        provider = mock_provider()
        cached_complete(provider, req(), str(tmp_path))
        next(tmp_path.iterdir()).unlink()
        resp = cached_complete(provider, req(), str(tmp_path))
        assert provider.call_count == 2
        assert resp.text == "Output: 0.5"


class TestSingleFlight:
    @pytest.mark.parametrize("first_fails", [False, True])
    def test_second_request_waits_for_the_first(self, tmp_path, first_fails):
        started, release = threading.Event(), threading.Event()

        def transport(spec, request):
            if not started.is_set():
                started.set()
                release.wait(5)
                if first_fails:
                    raise ProviderTimeout("first request fails")
            return "Output: 0.7"

        provider = Provider(ProviderSpec(id="p", kind="mock", max_retries=0),
                            transport=transport)
        answers = []

        def ask():
            try:
                answers.append(cached_complete(provider, req(), str(tmp_path)))
            except ProviderTimeout:
                answers.append(None)

        first = threading.Thread(target=ask)
        first.start()
        assert started.wait(5)
        second = threading.Thread(target=ask)
        second.start()
        time.sleep(0.05)
        assert provider.call_count == 1  # the second request is waiting
        release.set()
        for t in (first, second):
            t.join(timeout=5)
            assert not t.is_alive()
        if first_fails:
            # the waiter asks again, as it would have after a serial failure
            assert answers[0] is None and not answers[1].cached
            assert provider.call_count == 2
        else:
            assert [a.cached for a in answers] == [False, True]
            assert provider.call_count == 1 and provider.cache_hits == 1
        assert answers[1].text == "Output: 0.7"


    def test_many_threads_bill_each_key_once(self, tmp_path):
        def transport(spec, request):
            time.sleep(0.002)
            return "Output: 0.5"

        provider = Provider(ProviderSpec(id="p", kind="mock", max_concurrency=4),
                            transport=transport)
        start = threading.Barrier(16, timeout=5)

        def ask(i):
            start.wait()
            cached_complete(provider, req(f"prompt {i % 4}"), str(tmp_path))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert provider.call_count == 4
        assert provider.cache_hits == 12


class TestSpecValidation:
    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderSpec(id="p", kind="http")

    def test_bad_concurrency(self):
        with pytest.raises(ValueError):
            ProviderSpec(id="p", kind="mock", max_concurrency=0)
