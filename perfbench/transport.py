"""Batch-aware mock LLM, plugged in as ``Provider(spec, transport=...)``.

The shipped rule-table mock (``provider.match_rules``) answers a whole batch
with a single ``Output:``: at ``batch_size`` 16 the prompt
``render_common_sense([carry, hug, ride])`` gets ``'Output: 0.1'`` back,
which parses to ``[0.1, None, None]`` and puts hug's score on carry's slot.
This transport answers every ``Output:`` test line of a batch in order, from
the :class:`gen.Scenario` of the video, with a small per-provider offset so
that the two providers' scores differ; on contested spatial items they
disagree strongly, and those slots get debated. Awareness queries get yes or
no.

Each (provider, prompt) gets a seeded, deterministic latency (about 20 ms
mean, with a slow tail on 10% of prompts), and every 20th new prompt gets a
``ProviderTimeout`` on its first attempt. The transport
counts attempts, answered prompts and its own busy time.
"""

from __future__ import annotations

import hashlib
import re
import struct
import threading
import time
from collections import defaultdict

from hoirefine.provider import ProviderTimeout

_TEST_LINE = re.compile(r"Output:\s*$")
_TRIPLET = re.compile(r"<person,[^>]*>")
_BOX = re.compile(r"\[(-?\d+),(-?\d+),(-?\d+),(-?\d+)\]")
_AWARENESS = re.compile(r"relation '([^']*)' spatial-aware")
_QUESTION = re.compile(r"Question: How rational is the predicted triplet (<person,[^>]*>) "
                       r"given person box (\[[^\]]*\]) and object box (\[[^\]]*\])")


class Transport:
    def __init__(self, scenario, aware: tuple[str, ...], latency: bool = False,
                 fail_share: float = 0.0):
        self.scenario = scenario
        self.aware = frozenset(aware)
        self.latency = latency
        self.fail_every = round(1 / fail_share) if fail_share else 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self.attempts_by_prompt: dict[tuple, int] = defaultdict(int)
        self.attempts = 0
        self.answered = 0
        self.busy_s = 0.0
        self.service_s: list[float] = []

    def _uniforms(self, *parts: str) -> tuple[float, ...]:
        digest = hashlib.sha256("\0".join((str(self.scenario.seed),) + parts).encode()).digest()
        return tuple(v / 2**64 for v in struct.unpack("<4Q", digest))

    def thread_busy_s(self) -> float:
        """Transport time spent so far by the calling thread."""
        return getattr(self._local, "busy", 0.0)

    def __call__(self, spec, req) -> str:
        start = time.perf_counter()
        key = (spec.id, req.prompt)
        with self._lock:
            self.attempts_by_prompt[key] += 1
            first = self.attempts_by_prompt[key] == 1
            # every round(1 / fail_share)-th new prompt fails once, so the
            # failure count is exact rather than binomial
            fail = first and self.fail_every and len(self.attempts_by_prompt) % self.fail_every == 0
            self.attempts += 1
        try:
            u_base, u_tail, u_tail_len, _ = self._uniforms(spec.id, req.prompt)
            if self.latency:
                delay = 0.014 + 0.008 * u_base
                if u_tail < 0.1:
                    delay += 0.02 + 0.02 * u_tail_len
                time.sleep(delay)
            if fail:
                raise ProviderTimeout(f"{spec.id}: simulated first-attempt timeout")
            text = self.answer(spec.id, req.prompt)
            with self._lock:
                self.answered += 1
            return text
        finally:
            spent = time.perf_counter() - start
            self._local.busy = self.thread_busy_s() + spent
            with self._lock:
                self.busy_s += spent
                self.service_s.append(spent)

    def _score(self, provider_id: str, text: str, item: str) -> float:
        base = self.scenario.rationality.get(text)
        if base is None:
            base = self._uniforms("unknown", text)[0]
        offset = 0.1 * self._uniforms(provider_id, item)[0] - 0.05
        return min(1.0, max(0.0, base + offset))

    def answer(self, provider_id: str, prompt: str) -> str:
        tests = [ln for ln in prompt.splitlines() if _TEST_LINE.search(ln)]
        if not tests:
            return self._debate_answer(provider_id, prompt)
        out = []
        for line in tests:
            aware = _AWARENESS.search(line)
            if aware:
                out.append("yes" if aware.group(1) in self.aware else "no")
                continue
            triplets = _TRIPLET.findall(line)
            text = triplets[-1] if triplets else line
            boxes = _BOX.findall(line)
            if len(boxes) == 2:
                item = (text, tuple(map(int, boxes[0])), tuple(map(int, boxes[1])))
                if item in self.scenario.contested:
                    high = self._uniforms("contested", line)[0] < 0.5
                    value = 0.9 if (provider_id == "alpha") == high else 0.1
                    out.append(f"Output: {value:.2f}")
                    continue
            out.append(f"Output: {self._score(provider_id, text, line):.2f}")
        return "\n".join(out)

    def _debate_answer(self, provider_id: str, prompt: str) -> str:
        question = _QUESTION.search(prompt)
        text = question.group(0) if question else prompt
        triplet = question.group(1) if question else prompt
        if "Moderator" in prompt:
            return f"Output: {self._score(provider_id, triplet, text):.2f}"
        # a debater's turn: its view shifts with the history it has seen
        value = self._score(provider_id, triplet, f"{prompt.count(chr(10))}:{text}")
        return f"I would put {triplet} at {value:.2f} given the boxes."
