"""Chat-completion providers: a generic HTTP client with retries and
bounded concurrency, an offline deterministic mock driven by a rule table,
and a content-addressed response cache.

The cache is one file per key under a directory, so it is process- and
language-agnostic; values are deterministic per key at temperature 0, which
makes last-writer-wins safe under concurrent writers. The key covers what
produces the answer: the provider's id, model, endpoint and mock rule table,
and the request. Within one Provider, concurrent requests for one key are
single-flight: the first asks, the others then read its cached answer.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

log = logging.getLogger(__name__)


class ProviderError(Exception):
    pass


class AuthError(ProviderError):
    pass


class ProviderTimeout(ProviderError):
    pass


class MalformedResponseError(ProviderError):
    pass


class RuleTableError(ProviderError):
    pass


@dataclass(frozen=True)
class ProviderSpec:
    id: str
    kind: str = "mock"  # "http" | "mock"
    endpoint: Optional[str] = None
    model_name: str = ""
    api_key_env: Optional[str] = None
    max_concurrency: int = 4
    timeout: float = 30.0
    max_retries: int = 2
    backoff_base: float = 1.0
    rules_path: Optional[str] = None  # mock only
    auth_header: str = "Authorization"
    auth_scheme: str = "Bearer"

    def __post_init__(self):
        if self.kind not in ("http", "mock"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == "http" and (not self.endpoint or not self.api_key_env):
            raise ValueError("http provider requires endpoint and api_key_env")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class CompletionRequest:
    provider_id: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass
class CompletionResponse:
    text: str
    cached: bool = False
    latency: float = 0.0


@dataclass(frozen=True)
class MockRule:
    kind: str  # "triplet" | "relation" | "contains"
    key: str
    response: str


_TEST_LINE_RE = re.compile(r"Output:\s*$")


def _test_region(prompt: str) -> list[str]:
    """Lines of the prompt that are unanswered test instances (they end with
    a bare ``Output:``). When none exist the whole prompt is the region."""
    lines = [ln for ln in prompt.splitlines() if _TEST_LINE_RE.search(ln)]
    return lines if lines else [prompt]


def load_rule_table(path: str) -> list[MockRule]:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_rule_table(fh, path)


def _parse_rule_table(lines: Iterable[str], path: str) -> list[MockRule]:
    """Rules of a JSON-lines rule table; ``path`` names it in errors."""
    rules = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            rule = MockRule(kind=rec["match"], key=rec["key"], response=rec["response"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise RuleTableError(f"{path}:{lineno}: malformed rule: {exc}") from None
        if rule.kind not in ("triplet", "relation", "contains"):
            raise RuleTableError(f"{path}:{lineno}: unknown matcher {rule.kind!r}")
        rules.append(rule)
    return rules


def match_rules(rules: list[MockRule], prompt: str) -> str:
    """First matching rule's response; no match falls back to 'Output: 0.5'.

    Triplet and relation matchers look only at the test instances of the
    prompt so in-context demonstrations never trigger a rule.
    """
    region = _test_region(prompt)
    for rule in rules:
        if rule.kind == "contains":
            if rule.key in prompt:
                return rule.response
        elif rule.kind == "triplet":
            if any(rule.key in ln for ln in region):
                return rule.response
        elif rule.kind == "relation":
            quoted = f"'{rule.key}'"
            if any(quoted in ln for ln in region):
                return rule.response
    return "Output: 0.5"


class Provider:
    """Runtime wrapper around a ProviderSpec: owns the concurrency semaphore,
    retry loop and call counter.

    A mock spec without a ``transport`` answers from its rule table, read
    once here. ``rules_sha256``, which goes into the cache key, is the
    digest of those bytes, or of no bytes when the rules do not answer."""

    def __init__(self, spec: ProviderSpec,
                 transport: Optional[Callable[[ProviderSpec, CompletionRequest], str]] = None):
        self.spec = spec
        self._semaphore = threading.BoundedSemaphore(spec.max_concurrency)
        self._lock = threading.Lock()
        self._leaders: dict[str, threading.Event] = {}  # cache key -> set when answered
        self.call_count = 0
        self.cache_hits = 0
        self.in_flight = 0
        self.max_in_flight = 0
        data = b""
        if transport is None and spec.kind == "mock":
            rules = []
            if spec.rules_path:
                with open(spec.rules_path, "rb") as fh:
                    data = fh.read()
                try:
                    text = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise RuleTableError(f"{spec.rules_path}: not UTF-8: {exc}") from None
                rules = _parse_rule_table(io.StringIO(text, newline=None), spec.rules_path)
            transport = lambda _s, req: match_rules(rules, req.prompt)
        self.rules_sha256 = hashlib.sha256(data).hexdigest()
        self._transport = transport or _http_complete

    @property
    def id(self) -> str:
        return self.spec.id

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        """One completion, with exponential backoff on transient HTTP failures
        (base 1s, factor 2, jitter +/-20%) and at most ``max_concurrency``
        requests in flight."""
        start = time.monotonic()
        with self._semaphore:
            with self._lock:
                self.call_count += 1
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
            try:
                text = self._retrying(lambda: self._transport(self.spec, req))
            finally:
                with self._lock:
                    self.in_flight -= 1
        return CompletionResponse(text=text, cached=False, latency=time.monotonic() - start)

    def _retrying(self, fn: Callable[[], str]) -> str:
        attempts = self.spec.max_retries + 1
        last: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                return fn()
            except (ProviderTimeout, ConnectionError) as exc:
                last = exc
                if attempt + 1 < attempts:
                    delay = self.spec.backoff_base * (2 ** attempt)
                    delay *= 1.0 + random.uniform(-0.2, 0.2)
                    log.warning("%s: transient failure (%s), retrying in %.2fs",
                                self.spec.id, exc, delay)
                    time.sleep(delay)
        raise ProviderTimeout(
            f"{self.spec.id}: gave up after {attempts} attempts: {last}"
        ) from last


def _http_complete(spec: ProviderSpec, req: CompletionRequest) -> str:
    import requests

    api_key = os.environ.get(spec.api_key_env or "", "")
    if not api_key:
        raise AuthError(f"{spec.id}: environment variable {spec.api_key_env} not set")
    payload = {
        "model": spec.model_name,
        "messages": [{"role": "user", "content": req.prompt}],
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
    }
    headers = {spec.auth_header: f"{spec.auth_scheme} {api_key}".strip()}
    try:
        resp = requests.post(spec.endpoint, json=payload, headers=headers, timeout=spec.timeout)
    except requests.Timeout as exc:
        raise ProviderTimeout(f"{spec.id}: request timed out") from exc
    except requests.ConnectionError as exc:
        raise ConnectionError(f"{spec.id}: connection failed: {exc}") from exc
    if resp.status_code in (401, 403):
        raise AuthError(f"{spec.id}: authentication failed (HTTP {resp.status_code})")
    if resp.status_code == 429 or resp.status_code >= 500:
        raise ConnectionError(f"{spec.id}: transient HTTP {resp.status_code}")
    if resp.status_code != 200:
        raise MalformedResponseError(f"{spec.id}: HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        body = resp.json()
        return body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponseError(f"{spec.id}: unexpected response body") from exc


def cache_key(provider: Provider, req: CompletionRequest) -> str:
    spec = provider.spec
    payload = json.dumps(
        [spec.id, spec.model_name, spec.endpoint, provider.rules_sha256,
         req.prompt, req.temperature, req.max_tokens],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cached_complete(provider: Provider, req: CompletionRequest,
                    cache_dir: Optional[str] = None) -> CompletionResponse:
    """Content-addressed caching wrapper around ``Provider.complete``.

    A hit returns the stored text without a remote call; corrupted entries
    are treated as misses with a warning. A request for a key already in
    flight on this provider waits for it and then reads the cache, so it is
    billed only if the first request failed. Without a cache directory this
    is a plain ``Provider.complete``.
    """
    if not cache_dir:
        return provider.complete(req)
    key = cache_key(provider, req)
    path = os.path.join(cache_dir, key)
    while True:
        with provider._lock:
            leader = provider._leaders.get(key)
            if leader is None:
                done = provider._leaders[key] = threading.Event()
                break
        leader.wait()
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            with provider._lock:
                provider.cache_hits += 1
            return CompletionResponse(text=text, cached=True)
        except FileNotFoundError:
            pass
        except OSError as exc:
            log.warning("cache entry %s unreadable (%s); treating as miss", key, exc)

        resp = provider.complete(req)
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(resp.text)
        os.replace(tmp, path)
        return resp
    finally:
        with provider._lock:
            del provider._leaders[key]
        done.set()
