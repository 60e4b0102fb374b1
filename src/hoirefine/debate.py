"""Stage-2 multi-LLM debate.

With debaters D_1..D_N and history H initialized to the question, each D_i
first answers the question, then every other debater responds to the full
history, and finally the judge extracts the answer from H. A failure-free
debate therefore has exactly 1 + N^2 history entries. An opening answer sees
only the bare question, so all N openings are asked at once; the response
turns then run one after another, each on the history it would see if the
openings had been asked in turn, so the critical path is N^2 - N + 2 calls.
Debates are independent, and a debate depends on its question alone:
``pipeline.run_stage_two`` starts one per distinct question as soon as a
candidate whose stage-1 scores are final first asks it, while stage 1 still
runs, on up to as many threads as the providers' summed
``max_concurrency``, and starts no further debate once one of them or
stage 1 raises. Candidates that render the same question share its debate
and its judge score, whichever candidate asked first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .agents import fan_out
from .ingest import write_atomic
from .prompt import box_text, parse_score_output, render_debate_turn
from .provider import CompletionRequest, Provider, cached_complete, text_or_none

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
    """Which (frame, pair, relation) slots get debated, as a sorted list.

    ``per_provider_fused`` maps each slot, an index of the set's score
    column, to the list of per-provider stage-1 fused scores. 'always'
    debates every slot, 'disagreement' only those where the providers' fused
    scores spread by more than delta, 'off' none.
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
    human_box: Sequence[int],
    object_box: Sequence[int],
    provider_scores: dict[str, float],
) -> str:
    """The debated question: the triplet, its geometry, and each provider's
    stage-1 fused score, asking for one final rationality score."""
    score_bits = ", ".join(f"{pid}={provider_scores[pid]:.4f}" for pid in sorted(provider_scores))
    return (
        f"How rational is the predicted triplet {triplet_text} given person "
        f"box {box_text(human_box)} and object box {box_text(object_box)}? "
        f"Current per-model scores: {score_bits}. "
        "Give a final rationality score between 0 and 1."
    )


def run_debate(
    question: str,
    debaters: list[Provider],
    judge: Provider,
    cache_dir: Optional[str] = None,
) -> DebateTranscript:
    """Run one full debate and judge it.

    The openings are asked at once (the calling thread asks the first, a
    helper thread each other) and put in ``entries`` at their turn's
    position; the response turns and the judge follow in order. Every turn
    and the judge are asked under ``text_or_none``, the agents' failure
    policy: an AuthError from any participant is fatal and propagates, and
    any other ProviderError is logged. A failed debater turn inserts an
    empty entry and the debate continues; a failed judge yields a transcript
    with judge_answer="" and judge_score=None.
    """
    if not debaters:
        raise ValueError("need at least one debater")
    entries: list[tuple[str, str]] = [(QUESTION_SPEAKER, question)]

    def ask(role: str, provider: Provider, history: list[tuple[str, str]]) -> Optional[str]:
        req = CompletionRequest(render_debate_turn(role, question, history))
        return text_or_none(lambda: cached_complete(provider, req, cache_dir).text,
                            f"{role} {provider.id}")

    openings = fan_out(lambda d: ask("debater", d, []) or "", debaters, len(debaters))
    for d_i, opening in zip(debaters, openings):
        entries.append((d_i.id, opening))
        for d_j in debaters:
            if d_j is d_i:
                continue
            entries.append((d_j.id, ask("debater", d_j, entries[1:]) or ""))

    judge_answer = ask("judge", judge, entries[1:])
    judge_score = None if judge_answer is None else parse_score_output(judge_answer, 1)[0]
    return DebateTranscript(
        question=question,
        entries=tuple(entries),
        judge_answer=judge_answer or "",
        judge_score=judge_score,
    )


def transcript_filename(question: str) -> str:
    return hashlib.sha256(question.encode("utf-8")).hexdigest()[:16] + ".jsonl"


def persist_transcript(transcript: DebateTranscript, directory: str) -> str:
    """Audit record: one line per history entry plus the judge's answer,
    written with ``write_atomic``, so a failed write leaves no partial file."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, transcript_filename(transcript.question))
    records = [{"speaker": speaker, "text": text} for speaker, text in transcript.entries]
    records.append({"speaker": "judge", "text": transcript.judge_answer,
                    "score": transcript.judge_score})
    write_atomic(path, (json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    return path
