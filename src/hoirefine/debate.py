"""Stage-2 multi-LLM debate.

One debate is strictly sequential: with debaters D_1..D_N and history H
initialized to the question, each D_i first answers the question, then every
other debater responds to the full history, and finally the judge extracts
the answer from H. A failure-free debate therefore has exactly 1 + N^2
history entries. Distinct debates are independent: ``pipeline.run_stage_two``
runs them concurrently, on as many threads as the providers' summed
``max_concurrency``, and stops starting them once one raises. Judge scores
are recorded in candidate order, whichever debate finishes first.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from typing import Optional

from .prompt import parse_score_output, render_debate_turn
from .provider import AuthError, CompletionRequest, Provider, ProviderError, cached_complete

log = logging.getLogger(__name__)

QUESTION_SPEAKER = "question"


@dataclass(frozen=True)
class DebateTranscript:
    question: str
    entries: tuple[tuple[str, str], ...]  # (speaker id, text); entries[0] is the question
    judge_answer: str
    judge_score: Optional[float]


def select_debate_candidates(
    per_provider_fused: dict,
    mode: str,
    delta: float,
) -> list:
    """Which (frame, pair, relation) slots get debated.

    ``per_provider_fused`` maps (frame_index, pair_key, relation_index) to the
    list of per-provider stage-1 fused scores. 'always' debates every slot,
    'disagreement' only those where the providers' fused scores spread by more
    than delta, 'off' none.
    """
    if mode == "off":
        return []
    if delta < 0:
        raise ValueError("delta must be >= 0")
    keys = sorted(per_provider_fused)
    if mode == "always":
        return keys
    if mode == "disagreement":
        return [
            k for k in keys
            if len(per_provider_fused[k]) > 1
            and max(per_provider_fused[k]) - min(per_provider_fused[k]) > delta
        ]
    raise ValueError(f"unknown debate mode {mode!r}")


def render_debate_question(
    triplet_text: str,
    human_box: list[int],
    object_box: list[int],
    provider_scores: dict[str, float],
) -> str:
    """The debated question: the triplet, its geometry, and each provider's
    stage-1 fused score, asking for one final rationality score."""
    hb = "[" + ",".join(str(v) for v in human_box) + "]"
    ob = "[" + ",".join(str(v) for v in object_box) + "]"
    score_bits = ", ".join(f"{pid}={provider_scores[pid]:.4f}" for pid in sorted(provider_scores))
    return (
        f"How rational is the predicted triplet {triplet_text} given person "
        f"box {hb} and object box {ob}? Current per-model scores: {score_bits}. "
        "Give a final rationality score between 0 and 1."
    )


def run_debate(
    question: str,
    debaters: list[Provider],
    judge: Provider,
    cache_dir: Optional[str] = None,
) -> DebateTranscript:
    """Run one full debate and judge it.

    A debater failure inserts an empty entry and the debate continues; a
    judge failure yields a transcript with judge_score=None. An AuthError
    from any participant is fatal and propagates.
    """
    if not debaters:
        raise ValueError("need at least one debater")
    entries: list[tuple[str, str]] = [(QUESTION_SPEAKER, question)]

    def turn(provider: Provider, history: list[tuple[str, str]]) -> str:
        req = CompletionRequest(provider_id=provider.id,
                                prompt=render_debate_turn("debater", question, history))
        try:
            return cached_complete(provider, req, cache_dir).text
        except AuthError:
            raise
        except ProviderError as exc:
            log.warning("debater %s failed: %s", provider.id, exc)
            return ""

    for d_i in debaters:
        # initial answer to the bare question
        entries.append((d_i.id, turn(d_i, [])))
        for d_j in debaters:
            if d_j is d_i:
                continue
            entries.append((d_j.id, turn(d_j, entries[1:])))

    judge_req = CompletionRequest(provider_id=judge.id,
                                  prompt=render_debate_turn("judge", question, entries[1:]))
    try:
        judge_answer = cached_complete(judge, judge_req, cache_dir).text
    except AuthError:
        raise
    except ProviderError as exc:
        log.warning("judge %s failed: %s", judge.id, exc)
        judge_answer = ""
        judge_score = None
    else:
        judge_score = parse_score_output(judge_answer, 1)[0]
    return DebateTranscript(
        question=question,
        entries=tuple(entries),
        judge_answer=judge_answer,
        judge_score=judge_score,
    )


def transcript_filename(question: str) -> str:
    return hashlib.sha256(question.encode("utf-8")).hexdigest()[:16] + ".jsonl"


def persist_transcript(transcript: DebateTranscript, directory: str) -> str:
    """Audit record: one line per history entry plus the judge's answer."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, transcript_filename(transcript.question))
    with open(path, "w", encoding="utf-8") as fh:
        for speaker, text in transcript.entries:
            fh.write(json.dumps({"speaker": speaker, "text": text}, sort_keys=True) + "\n")
        fh.write(json.dumps(
            {"speaker": "judge", "text": transcript.judge_answer,
             "score": transcript.judge_score},
            sort_keys=True) + "\n")
    return path
