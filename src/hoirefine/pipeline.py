"""End-to-end refinement: keyframe selection, per-provider agent runs,
debate, cross-provider aggregation, propagation and fusion.

Stage-1 scores used by fusion are arithmetic means over the providers that
returned a value, which is order-independent and robust to one provider
failing. The debate judge's score is shared, not per-provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .agents import (
    detect_transitions,
    fan_out,
    keyframe_slots,
    propagate_scores,
    run_common_sense,
    run_spatial,
    run_temporal,
    select_keyframes,
)
from .config import RefinementConfig
from .debate import (
    persist_transcript,
    render_debate_question,
    run_debate,
    select_debate_candidates,
)
from .fusion import fuse_scores
from .ingest import triplet_to_text
from .model import (
    CS,
    DEBATE,
    SCORE_KINDS,
    SPATIAL,
    TEMPORAL,
    AgentScoreTable,
    FusionWeights,
    VideoPredictionSet,
    pair_key,
)
from .provider import Provider, ProviderError


@dataclass
class RunStats:
    provider_calls: dict[str, int] = field(default_factory=dict)
    cache_hits: dict[str, int] = field(default_factory=dict)
    debates: int = 0
    coverage: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        lines = ["run summary:"]
        total_calls = sum(self.provider_calls.values())
        total_hits = sum(self.cache_hits.values())
        for pid in sorted(self.provider_calls):
            lines.append(
                f"  provider {pid}: {self.provider_calls[pid]} calls, "
                f"{self.cache_hits.get(pid, 0)} cache hits"
            )
        seen = total_calls + total_hits
        rate = (total_hits / seen) if seen else 0.0
        lines.append(f"  total: {total_calls} calls, cache hit rate {rate:.1%}")
        lines.append(f"  debates run: {self.debates}")
        for kind in sorted(self.coverage):
            lines.append(f"  {kind} coverage: {self.coverage[kind]:.1%} of candidates")
        return "\n".join(lines)


@dataclass
class RefinementOutcome:
    fused: dict  # (frame_index, pair_key, relation_index) -> fused score
    table: AgentScoreTable  # propagated, aggregated agent scores
    stats: RunStats


def aggregate_provider_tables(tables: dict[str, AgentScoreTable]) -> AgentScoreTable:
    """Per-slot arithmetic mean of cs/spatial/temporal over the providers
    that scored the slot, summed in provider order."""
    merged: dict[tuple, list[float]] = {}
    for table in tables.values():
        for slot, kinds in table.items():
            for kind, value in kinds.items():
                merged.setdefault(slot + (kind,), []).append(value)
    out = AgentScoreTable()
    for (frame_index, pk, r, kind), values in merged.items():
        out.set(frame_index, pk, r, kind, sum(values) / len(values))
    return out


def run_stage_one(
    pred_set: VideoPredictionSet,
    config: RefinementConfig,
    providers: list[Provider],
    keyframes: set[int],
    cache_dir: Optional[str],
) -> dict[str, AgentScoreTable]:
    """Raw per-provider keyframe score tables of the three stage-1 agents.

    The agents run one after another; each runs for every provider at once,
    one provider on the calling thread. Each provider's ``max_concurrency``
    still caps its requests in flight, and the tables merge in provider
    order, so the output does not depend on which provider answers first.
    An AuthError propagates once the other providers' runs of that agent
    have finished, and no later agent starts."""
    vocab = pred_set.vocabulary
    transitions = [
        tr for tr in detect_transitions(pred_set)
        # keyframe-adjacent changes only; others are covered by propagation
        if tr.frame_index in keyframes or tr.frame_index - 1 in keyframes
    ]

    tables = {provider.id: AgentScoreTable() for provider in providers}
    for agent in (
        lambda provider: run_common_sense(
            provider, pred_set, keyframes, vocab,
            floor=config.candidate_floor, batch_size=config.batch_size,
            cache_dir=cache_dir),
        lambda provider: run_spatial(
            provider, pred_set, keyframes, vocab,
            floor=config.candidate_floor, batch_size=config.batch_size,
            cache_dir=cache_dir),
        lambda provider: run_temporal(
            provider, pred_set, transitions, vocab,
            batch_size=config.batch_size, cache_dir=cache_dir),
    ):
        for provider, table in zip(providers, fan_out(agent, providers, len(providers))):
            tables[provider.id].merge(table)
    return tables


def run_stage_two(
    pred_set: VideoPredictionSet,
    config: RefinementConfig,
    providers: list[Provider],
    judge: Provider,
    per_provider: dict[str, AgentScoreTable],
    keyframes: set[int],
    cache_dir: Optional[str],
    transcript_dir: Optional[str],
) -> tuple[AgentScoreTable, int]:
    """Debate the selected keyframe candidates; return their judge scores and
    the number of debates run.

    Every candidate's question is rendered first. One debate runs, and is
    persisted, per distinct question, in the order of the first candidate
    asking it; its judge score goes on every candidate that asked it. The
    debates run concurrently on as many threads as the providers allow
    requests in flight together (the sum of their ``max_concurrency``);
    each provider's own semaphore still bounds its requests. Once a debate
    raises, no queued debate starts and the error propagates."""
    vocab = pred_set.vocabulary
    per_provider_fused: dict[tuple, list[float]] = {}
    slot_pairs = {}
    for frame_index, pk, r, pair in keyframe_slots(pred_set, keyframes,
                                                   config.candidate_floor):
        scores = []
        for provider in providers:
            table = per_provider[provider.id]
            scores.append(fuse_scores(
                pair.scores[r],
                s_cs=table.get(frame_index, pk, r, CS),
                s_spatial=table.get(frame_index, pk, r, SPATIAL),
                s_temporal=table.get(frame_index, pk, r, TEMPORAL),
                weights=config.weights,
            ))
        per_provider_fused[(frame_index, pk, r)] = scores
        slot_pairs[(frame_index, pk, r)] = pair

    candidates = select_debate_candidates(
        per_provider_fused, config.debate_mode, config.disagreement_delta)
    asked = {
        slot: render_debate_question(
            triplet_to_text(slot_pairs[slot], slot[2], vocab),
            slot_pairs[slot].human_box.as_int_list(),
            slot_pairs[slot].object_box.as_int_list(),
            {p.id: score for p, score in zip(providers, per_provider_fused[slot])},
        )
        for slot in candidates
    }
    questions = list(dict.fromkeys(asked.values()))

    def debate(question):
        transcript = run_debate(question, providers, judge, cache_dir=cache_dir)
        if transcript_dir:
            persist_transcript(transcript, transcript_dir)
        return transcript.judge_score

    pool_size = sum(p.spec.max_concurrency for p in providers)
    scores = dict(zip(questions, fan_out(debate, questions, pool_size)))
    table = AgentScoreTable()
    for (frame_index, pk, r), question in asked.items():
        if scores[question] is not None:
            table.set(frame_index, pk, r, DEBATE, scores[question])
    return table, len(questions)


def fuse_table(
    pred_set: VideoPredictionSet,
    table: AgentScoreTable,
    weights: FusionWeights,
    toggles: Optional[dict] = None,
) -> dict:
    """Fused score for every (frame, pair, relation) slot, in frame, pair
    and relation order.

    A slot without a table entry keeps its base score. Each entry adds the
    terms of its kinds that ``toggles`` enables; ``toggles`` maps each of
    ``SCORE_KINDS`` to on or off (None enables all), and a disabled kind's
    term is dropped entirely. Every entry must be a slot of ``pred_set``."""
    fused = {}
    for frame in pred_set.frames:
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r, base in enumerate(pair.scores):
                fused[(frame.frame_index, pk, r)] = base
    enabled = [toggles is None or bool(toggles.get(kind)) for kind in SCORE_KINDS]
    for slot, kinds in table.items():
        fused[slot] = fuse_scores(
            fused[slot],
            *(kinds.get(kind) if on else None for kind, on in zip(SCORE_KINDS, enabled)),
            weights=weights)
    return fused


def _coverage(pred_set, table, keyframes, floor) -> dict[str, float]:
    slots = list(keyframe_slots(pred_set, keyframes, floor))
    if not slots:
        return {}
    coverage = {}
    for kind in SCORE_KINDS:
        scored = sum(
            1 for frame_index, pk, r, _ in slots
            if table.get(frame_index, pk, r, kind) is not None
        )
        coverage[kind] = scored / len(slots)
    return coverage


def build_providers(config: RefinementConfig) -> list[Provider]:
    """One Provider per configured spec. Reads each mock rule table, so an
    unreadable one raises OSError and a malformed one RuleTableError."""
    return [Provider(spec) for spec in config.providers]


def refine(
    pred_set: VideoPredictionSet,
    config: RefinementConfig,
    cache_dir: Optional[str] = None,
    transcript_dir: Optional[str] = None,
    providers: Optional[list[Provider]] = None,
) -> RefinementOutcome:
    """Full pipeline over one prediction set; reusing ``providers`` across
    calls keeps their call counters cumulative. Ablations re-fuse
    ``outcome.table`` with ``fuse_table``.

    Raises ProviderError when keyframe candidates exist but no agent scored
    any of them, so a total provider outage does not pass for base scores."""
    if providers is None:
        providers = build_providers(config)
    judge = next(p for p in providers if p.id == config.judge_provider)

    keyframes = select_keyframes(pred_set.frame_indices(), config.keyframe_interval) \
        if pred_set.frames else set()

    per_provider = run_stage_one(pred_set, config, providers, keyframes, cache_dir)
    table = aggregate_provider_tables(per_provider)

    debates = 0
    if config.debate_mode != "off":
        debate_table, debates = run_stage_two(
            pred_set, config, providers, judge, per_provider, keyframes,
            cache_dir, transcript_dir)
        table.merge(debate_table)

    # propagation fills only non-keyframes, so keyframe coverage is final here
    coverage = _coverage(pred_set, table, keyframes, config.candidate_floor)
    if coverage and not any(coverage.values()):
        raise ProviderError("no agent score for any keyframe candidate")
    table = propagate_scores(table, pred_set, keyframes)
    fused = fuse_table(pred_set, table, config.weights)

    stats = RunStats(
        provider_calls={p.id: p.call_count for p in providers},
        cache_hits={p.id: p.cache_hits for p in providers},
        debates=debates,
        coverage=coverage,
    )
    return RefinementOutcome(fused=fused, table=table, stats=stats)
