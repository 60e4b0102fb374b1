import json
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
        distinct = {cache_key(provider.spec, r) for r in requests}
        assert provider.call_count == len(distinct) == 4

    def test_removed_entry_is_miss(self, tmp_path):
        provider = mock_provider()
        cached_complete(provider, req(), str(tmp_path))
        next(tmp_path.iterdir()).unlink()
        resp = cached_complete(provider, req(), str(tmp_path))
        assert provider.call_count == 2
        assert resp.text == "Output: 0.5"


class TestSpecValidation:
    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderSpec(id="p", kind="http")

    def test_bad_concurrency(self):
        with pytest.raises(ValueError):
            ProviderSpec(id="p", kind="mock", max_concurrency=0)
