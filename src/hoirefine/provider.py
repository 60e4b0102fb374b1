"""Chat-completion providers: a generic HTTP client with retries and
bounded concurrency, an offline deterministic mock driven by a rule table,
a content-addressed response cache, and ``text_or_none``, the one failure
policy of the stage-1 agents and the stage-2 debate. An answer is text or
a ProviderError.

The cache is one file per key under a directory, so it is process- and
language-agnostic; values are deterministic per key at temperature 0, which
makes last-writer-wins safe under concurrent writers: each writer renames a
complete file into place. The key covers what produces the answer: the
provider's id, model, endpoint and mock rule table, and the request. The
cache does not de-duplicate requests in flight; the callers ask each
distinct prompt once per run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .ingest import STRING, ParseError, _fields, _records, write_atomic
from .model import require_types

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


class RateLimitError(ConnectionError):
    """Transient HTTP 429. ``retry_after`` is the server's ``Retry-After``
    in seconds, or None when the header is absent or not a number."""

    def __init__(self, message: str, retry_after: Optional[float]):
        super().__init__(message)
        self.retry_after = retry_after


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
        require_types(self)
        if self.kind not in ("http", "mock"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == "http" and (not self.endpoint or not self.api_key_env):
            raise ValueError("http provider requires endpoint and api_key_env")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, not {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(f"backoff_base must be finite and >= 0, not {self.backoff_base}")


# every request is sampled alike; both values go into the HTTP body and the cache key
TEMPERATURE = 0.0
MAX_TOKENS = 256


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")


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


_RULE_SCHEMA = {"match": (STRING, None), "key": (STRING, None), "response": (STRING, None)}


def load_rule_table(path: str) -> tuple[list[MockRule], str]:
    """Rules of a JSON-lines rule table, and the sha256 of its bytes. Each
    rule has the strings ``match`` (a matcher name), ``key`` and
    ``response``, and no other key. An unreadable file raises OSError; a
    file that is not UTF-8 or holds a malformed rule raises RuleTableError
    at ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    rules = []
    try:
        for lineno, rec in _records(path, data):
            kind, key, response = _fields(path, lineno, rec, _RULE_SCHEMA)
            if kind not in ("triplet", "relation", "contains"):
                raise ParseError(path, lineno, f"unknown matcher {kind!r}")
            rules.append(MockRule(kind=kind, key=key, response=response))
    except ParseError as exc:
        raise RuleTableError(str(exc)) from None
    return rules, hashlib.sha256(data).hexdigest()


def match_rules(rules: list[MockRule], prompt: str) -> str:
    """One answer per test instance of the prompt, in order and one per
    line: the response of the first rule matching that instance's line, or
    'Output: 0.5'. A prompt without test instances gets one answer, matched
    against the whole prompt.

    Rules look only at the test lines, so in-context demonstrations never
    trigger a rule; a relation rule matches the quoted relation name.
    """
    def answer(line: str) -> str:
        for rule in rules:
            if (f"'{rule.key}'" if rule.kind == "relation" else rule.key) in line:
                return rule.response
        return "Output: 0.5"

    return "\n".join(answer(line) for line in _test_region(prompt))


class Provider:
    """Runtime wrapper around a ProviderSpec: owns the concurrency semaphore,
    retry loop and call counter. An answer is text: a transport that returns
    anything else raises MalformedResponseError, which is not retried.

    A mock spec without a ``transport`` answers from its rule table, read
    once here. ``rules_sha256``, which goes into the cache key, is the
    digest of those bytes, or of no bytes when the rules do not answer."""

    def __init__(self, spec: ProviderSpec,
                 transport: Optional[Callable[[ProviderSpec, CompletionRequest], str]] = None):
        self.spec = spec
        self._semaphore = threading.BoundedSemaphore(spec.max_concurrency)
        self._lock = threading.Lock()
        self.call_count = 0
        self.cache_hits = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._auth_error: Optional[AuthError] = None
        self.rules_sha256 = hashlib.sha256(b"").hexdigest()
        if transport is None and spec.kind == "mock":
            rules = []
            if spec.rules_path:
                rules, self.rules_sha256 = load_rule_table(spec.rules_path)
            transport = lambda _s, req: match_rules(rules, req.prompt)
        self._transport = transport or _http_complete

    @property
    def id(self) -> str:
        return self.spec.id

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        """One billed completion, retried on transient failures with
        exponential backoff (``backoff_base`` seconds, factor 2, jitter
        +/-20%). An HTTP 429 with a numeric ``Retry-After`` waits at least
        that long, but never longer than ``timeout``.

        Each attempt holds one of the ``max_concurrency`` slots; a request
        backing off holds none, so other requests use its slot meanwhile.
        ``call_count`` counts one per call, ``in_flight`` the attempts
        holding a slot.

        An AuthError is sticky: once the transport has raised one, every
        later attempt takes its slot and raises an AuthError with the same
        message without calling the transport, so requests already started
        elsewhere send nothing more with a rejected key."""
        start = time.monotonic()
        with self._lock:
            self.call_count += 1
        text = self._retrying(req)
        return CompletionResponse(text=text, cached=False, latency=time.monotonic() - start)

    def _attempt(self, req: CompletionRequest) -> str:
        with self._semaphore:
            with self._lock:
                if self._auth_error is not None:
                    raise AuthError(str(self._auth_error))
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
            try:
                text = self._transport(self.spec, req)
            except AuthError as exc:
                with self._lock:
                    self._auth_error = self._auth_error or exc
                raise
            finally:
                with self._lock:
                    self.in_flight -= 1
        if not isinstance(text, str):
            raise MalformedResponseError(
                f"{self.spec.id}: answer is {type(text).__name__}, not text")
        return text

    def _retrying(self, req: CompletionRequest) -> str:
        # no transient failure outlives its except clause, nor goes into a log
        # record that a handler may keep: its traceback holds this frame and,
        # through it, the callers' frames, which a local reference to it would
        # keep in a cycle that only the cyclic collector frees
        attempts = self.spec.max_retries + 1
        for attempt in range(attempts):
            try:
                return self._attempt(req)
            except (ProviderTimeout, ConnectionError) as exc:
                if attempt + 1 == attempts:
                    raise ProviderTimeout(
                        f"{self.spec.id}: gave up after {attempts} attempts: {exc}"
                    ) from exc
                delay = self.spec.backoff_base * (2 ** attempt)
                delay *= 1.0 + random.uniform(-0.2, 0.2)
                if isinstance(exc, RateLimitError) and exc.retry_after is not None:
                    delay = max(delay, min(exc.retry_after, self.spec.timeout))
                log.warning("%s: transient failure (%s), retrying in %.2fs",
                            self.spec.id, str(exc), delay)
            time.sleep(delay)


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """The delay-seconds form of a ``Retry-After`` header; an HTTP-date or
    any other value gives None."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


def _http_complete(spec: ProviderSpec, req: CompletionRequest) -> str:
    import requests

    api_key = os.environ.get(spec.api_key_env or "", "")
    if not api_key:
        raise AuthError(f"{spec.id}: environment variable {spec.api_key_env} not set")
    payload = {
        "model": spec.model_name,
        "messages": [{"role": "user", "content": req.prompt}],
        "temperature": TEMPERATURE,
        "max_tokens": MAX_TOKENS,
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
    if resp.status_code == 429:
        raise RateLimitError(f"{spec.id}: transient HTTP 429",
                             _retry_after_seconds(resp.headers.get("Retry-After")))
    if resp.status_code >= 500:
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
         req.prompt, TEMPERATURE, MAX_TOKENS],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cached_complete(provider: Provider, req: CompletionRequest,
                    cache_dir: Optional[str] = None) -> CompletionResponse:
    """Content-addressed caching wrapper around ``Provider.complete``.

    A hit returns the stored text without a remote call; an entry whose
    file cannot be read (an OSError) or is not UTF-8 is a miss, with a
    warning. A miss asks the provider and writes the answer with
    ``write_atomic``, so concurrent writers of one key each leave a complete
    file. Without a cache directory this is a plain ``Provider.complete``.
    """
    if not cache_dir:
        return provider.complete(req)
    key = cache_key(provider, req)
    path = os.path.join(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with provider._lock:
            provider.cache_hits += 1
        return CompletionResponse(text=text, cached=True)
    except FileNotFoundError:
        pass
    except (OSError, UnicodeDecodeError) as exc:
        log.warning("cache entry %s unreadable (%s); treating as miss", key, exc)

    resp = provider.complete(req)
    os.makedirs(cache_dir, exist_ok=True)
    write_atomic(path, (resp.text,))
    return resp


def text_or_none(ask: Callable[[], str], what: str) -> Optional[str]:
    """``ask()``, under the one failure policy of both stages: an AuthError
    propagates; any other ProviderError is logged as ``what`` failed and
    gives None."""
    try:
        return ask()
    except AuthError:
        raise
    except ProviderError as exc:
        log.warning("%s failed: %s", what, exc)
        return None
