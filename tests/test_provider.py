import gc
import hashlib
import json
import os
import re
import sys
import threading
import time
import weakref

import pytest
import requests

from hoirefine.config import load_config
from hoirefine.provider import (
    AuthError,
    CompletionRequest,
    MalformedResponseError,
    MockRule,
    Provider,
    ProviderSpec,
    ProviderTimeout,
    RuleTableError,
    cache_key,
    cached_complete,
    load_rule_table,
    match_rules,
    text_or_none,
)

from conftest import fixture_path


def req(prompt="Input:<person,sit on,chair> Output:"):
    return CompletionRequest(prompt=prompt)


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

    def test_batch_answers_each_test_line(self):
        # each test line gets the first rule matching that line, in order;
        # answered demonstration lines match nothing
        rules = [MockRule("triplet", "<person,hug,table>", "Output: 0.1"),
                 MockRule("contains", "person box [300", "Output: 0.9")]
        prompt = ("Input:<person,hug,table> person box [300,1,2,3] Output: 1.0\n"
                  "Input:<person,hold,cup> Output:\n"
                  "Input:<person,hug,table> Output:\n"
                  "Input:<person,sit on,chair> person box [300,1,2,3] Output:")
        assert match_rules(rules, prompt) == "Output: 0.5\nOutput: 0.1\nOutput: 0.9"

    def test_contains_rule_matches_anywhere(self):
        rules = [MockRule("contains", "person box [300", "Output: 0.1")]
        assert match_rules(rules, "judge this: person box [300,1,2,3]") == "Output: 0.1"

    def test_rule_table_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text(json.dumps({"match": "triplet", "key": "<a>", "response": "Output: 1"}) + "\n")
        rules, digest = load_rule_table(str(path))
        assert rules == [MockRule("triplet", "<a>", "Output: 1")]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert Provider(ProviderSpec(id="p", rules_path=str(path))).rules_sha256 == digest

    def test_malformed_rule_table(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"match": "nope", "key": "x", "response": "y"}\n')
        with pytest.raises(RuleTableError):
            load_rule_table(str(path))

    @pytest.mark.parametrize("rule", [
        {"match": "contains", "key": 5, "response": "Output: 0.9"},
        {"match": "contains", "key": "x", "response": None},
        {"match": ["contains"], "key": "x", "response": "y"},
        {"match": "contains", "response": "y"},
        [1, 2],
        '{"match": "contains", "key": "x", "response": "y", "key": "z"}',
        '\u00a0{"match": "contains", "key": "x", "response": "y"}',
        "\f",
    ], ids=["number-key", "null-response", "list-match", "missing-key", "not-an-object",
            "duplicate-key", "no-break-space", "form-feed-line"])
    def test_rule_fields_must_be_strings(self, tmp_path, rule):
        # a rule given as text is written as it is
        path = tmp_path / "rules.jsonl"
        good = {"match": "triplet", "key": "<a>", "response": "Output: 1"}
        rule = rule if isinstance(rule, str) else json.dumps(rule)
        path.write_text(json.dumps(good) + "\n\n" + rule + "\n")
        with pytest.raises(RuleTableError, match=f"^{re.escape(str(path))}:3: "):
            load_rule_table(str(path))

    def test_rule_table_not_utf8(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_bytes(b'{"match": "triplet", "key": "\xff", "response": "y"}\n')
        with pytest.raises(RuleTableError, match="not UTF-8"):
            load_rule_table(str(path))


class TestComplete:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="")

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

    def test_a_retried_request_frees_its_callers_locals(self):
        # the timeout's traceback reaches the caller's frame: held past the
        # retry, in a local or in a log record the test's log capture keeps,
        # it would keep the caller's locals alive, in a cycle that only the
        # cyclic collector frees or for as long as the record lives
        def transport(spec, request):
            if not attempts:
                attempts.append(1)
                raise ProviderTimeout("first attempt times out")
            return "Output: 0.5"

        def caller():
            local = Local()
            assert provider.complete(req()).text == "Output: 0.5"
            return weakref.ref(local)

        class Local:
            pass

        attempts = []
        provider = Provider(ProviderSpec(id="p", kind="mock", backoff_base=0.001),
                            transport=transport)
        gc.disable()
        try:
            local = caller()
            assert attempts == [1] and local() is None
        finally:
            gc.enable()

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

    def test_backoff_leaves_the_slot_to_other_requests(self):
        attempts = []
        failed = threading.Event()

        def transport(spec, request):
            attempts.append(request.prompt)
            if attempts == ["A"]:
                failed.set()
                raise ProviderTimeout("first attempt times out")
            return "Output: 0.5"

        provider = Provider(
            ProviderSpec(id="p", kind="mock", max_concurrency=1, backoff_base=0.2),
            transport=transport,
        )
        first = threading.Thread(target=provider.complete, args=(req("A"),))
        first.start()
        assert failed.wait(5)
        provider.complete(req("B"))
        # B took the only slot while A was backing off
        assert attempts == ["A", "B"]
        first.join(timeout=5)
        assert not first.is_alive()
        assert attempts == ["A", "B", "A"]
        assert provider.call_count == 2

    def test_auth_error_is_sticky(self):
        sent = []

        def transport(spec, request):
            sent.append(request.prompt)
            if request.prompt == "A":
                raise AuthError("bad key")
            return "Output: 0.5"

        provider = Provider(ProviderSpec(id="p", kind="mock"), transport=transport)
        with pytest.raises(AuthError, match="bad key"):
            provider.complete(req("A"))
        # a rejected key stays rejected: B is not sent
        with pytest.raises(AuthError, match="bad key"):
            provider.complete(req("B"))
        assert sent == ["A"]
        assert provider.call_count == 2


class FakeResponse:
    def __init__(self, status_code, headers=None, body=None):
        self.status_code = status_code
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})
        self.body = body
        self.text = json.dumps(body)

    def json(self):
        return self.body


class TestRetryAfter:
    """HTTP 429 answers, with their ``Retry-After`` header, through the real
    HTTP client with ``requests.post`` and ``time.sleep`` replaced."""

    OK = FakeResponse(200, body={"choices": [{"message": {"content": "Output: 0.7"}}]})

    def run(self, monkeypatch, responses, timeout=5.0):
        """Complete one request on a ``max_concurrency=1`` HTTP provider that
        receives ``responses`` in order. Returns the provider, the answer and,
        per backoff sleep, (delay, whether a slot was free meanwhile)."""
        provider = Provider(ProviderSpec(
            id="h", kind="http", endpoint="http://localhost:9/v1/chat/completions",
            api_key_env="HOIREFINE_TEST_KEY", max_concurrency=1, timeout=timeout,
            backoff_base=0.01))
        replies = iter(responses)
        sleeps = []

        def fake_sleep(delay):
            free = provider._semaphore.acquire(blocking=False)
            if free:
                provider._semaphore.release()
            sleeps.append((delay, free))

        monkeypatch.setenv("HOIREFINE_TEST_KEY", "key")
        monkeypatch.setattr(requests, "post", lambda *_a, **_kw: next(replies))
        monkeypatch.setattr(time, "sleep", fake_sleep)
        return provider, provider.complete(req()).text, sleeps

    def test_numeric_retry_after_waits_off_the_slot(self, monkeypatch):
        provider, text, sleeps = self.run(
            monkeypatch, [FakeResponse(429, {"Retry-After": "2"}), self.OK])
        assert text == "Output: 0.7"
        [(delay, free)] = sleeps
        assert delay >= 2
        assert free  # the backing-off request holds no slot
        assert provider.call_count == 1

    @pytest.mark.parametrize("headers", [{}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"},
                                         {"Retry-After": "nan"}, {"Retry-After": "-3"}])
    def test_absent_or_non_numeric_retry_after_keeps_the_backoff(self, monkeypatch, headers):
        _, text, sleeps = self.run(monkeypatch, [FakeResponse(429, headers), self.OK])
        assert text == "Output: 0.7"
        [(delay, _)] = sleeps
        assert 0.008 <= delay <= 0.012  # backoff_base with its +/-20% jitter

    def test_retry_after_is_capped_at_the_timeout(self, monkeypatch):
        _, _, sleeps = self.run(
            monkeypatch, [FakeResponse(429, {"Retry-After": "3600"}), self.OK], timeout=3.0)
        assert [delay for delay, _ in sleeps] == [3.0]


class TestNonTextAnswer:
    """An HTTP 200 whose content is not a string, through the real HTTP
    client with ``requests.post`` replaced."""

    @pytest.mark.parametrize("content", [None, ["Output: 0.7"]], ids=["null", "list"])
    def test_is_malformed_after_one_attempt(self, monkeypatch, content):
        posts = []

        def post(*_a, **_kw):
            posts.append(1)
            return FakeResponse(200, body={"choices": [{"message": {"content": content}}]})

        provider = Provider(ProviderSpec(
            id="h", kind="http", endpoint="http://localhost:9/v1/chat/completions",
            api_key_env="HOIREFINE_TEST_KEY", max_retries=2, backoff_base=0.001))
        monkeypatch.setenv("HOIREFINE_TEST_KEY", "key")
        monkeypatch.setattr(requests, "post", post)
        with pytest.raises(MalformedResponseError, match="^h: "):
            provider.complete(req())
        assert len(posts) == 1


class TestTextOrNone:
    def test_auth_error_propagates(self):
        def ask():
            raise AuthError("bad key")

        with pytest.raises(AuthError, match="bad key"):
            text_or_none(ask, "ask")

    @pytest.mark.parametrize("error", [ProviderTimeout("slow"), MalformedResponseError("null")])
    def test_other_failure_is_logged_once_and_gives_none(self, caplog, error):
        def ask():
            raise error

        assert text_or_none(ask, "p: judge") is None
        assert [r.getMessage() for r in caplog.records] == [f"p: judge failed: {error}"]


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

    def test_key_is_pinned(self):
        # a key that drifted would turn every entry users hold into a miss
        provider = Provider(load_config(fixture_path("config.json")).providers[0])
        assert cache_key(provider, req()) == (
            "1aa7c3278a7ff54ee2bcd15b09a827590b8e5140bf3c7fece51c881a7dcc7278")

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

    def test_undecodable_entry_is_miss_and_rewritten(self, tmp_path, caplog):
        provider = mock_provider()
        cached_complete(provider, req(), str(tmp_path))
        entry = next(tmp_path.iterdir())
        entry.write_bytes(b"\xff\xfe garbage")
        resp = cached_complete(provider, req(), str(tmp_path))
        assert resp.text == "Output: 0.5" and not resp.cached
        assert provider.call_count == 2
        assert "unreadable" in caplog.text
        assert entry.read_text(encoding="utf-8") == "Output: 0.5"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            cached_complete(mock_provider(), req(), str(tmp_path / "cache"))
        assert list((tmp_path / "cache").iterdir()) == []

    def test_concurrent_askers_leave_one_complete_file_per_key(self, tmp_path):
        # askers of one key in flight together may each bill it; each gets
        # its own prompt's answer, and the renames leave one whole file a key
        def transport(spec, request):
            time.sleep(0.002)
            return f"answer to {request.prompt}"

        provider = Provider(ProviderSpec(id="p", kind="mock", max_concurrency=4),
                            transport=transport)
        start = threading.Barrier(16, timeout=5)
        texts = {}

        def ask(i):
            start.wait()
            texts[i] = cached_complete(provider, req(f"prompt {i % 4}"), str(tmp_path)).text

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
        assert texts == {i: f"answer to prompt {i % 4}" for i in range(16)}
        assert provider.call_count + provider.cache_hits == 16
        entries = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
        assert not [name for name in entries if ".tmp." in name]
        assert sorted(entries.values()) == [f"answer to prompt {k}" for k in range(4)]


class TestSpecValidation:
    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderSpec(id="p", kind="http")

    def test_bad_concurrency(self):
        with pytest.raises(ValueError):
            ProviderSpec(id="p", kind="mock", max_concurrency=0)
