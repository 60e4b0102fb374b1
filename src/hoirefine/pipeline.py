"""End-to-end refinement: keyframe selection, per-provider agent runs,
debate, cross-provider aggregation, propagation and fusion.

The two stages form one dataflow. Stage 1 runs every agent for every
provider at once; each keyframe candidate is debated as soon as its stage-1
scores are final, while the rest of stage 1 is still in flight. Stage two
picks the candidates to debate once per stage-1 report, among those the
report finishes.

Stage-1 scores used by fusion are arithmetic means over the providers that
returned a value, summed in provider order, so they do not depend on which
answer arrives first, and one failing provider leaves the others' scores.
The debate judge's score is shared, not per-provider.

A slot is an index of the set's raveled score column, relation ``slot % n``
of row ``slot // n``: the set is its own layout. Stage 1 keeps each
provider's scores as plain ``{slot: score}`` dicts, one per kind, holding
only the slots its agents scored. Stage two, the one home of the keyframe
candidates, also reports each kind's coverage of them. Once some agent has
scored a candidate, ``aggregate_provider_tables`` turns the dicts and the
judge's scores into one ``AgentScores`` over the set, which holds each
kind's scores only at the slots that have one. Propagation and fusion read
and return those compact columns, and read the per-row frame and the base
scores from the set's own columns. ``fuse_table`` returns a
``FusedScores`` column, which ``ingest.write_predictions`` formats row by
row and ``evaluation.recall_at_k`` ranks in one array pass, so no
per-slot object is built.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .agents import (
    Transition,
    detect_transitions,
    fan_out,
    keyframe_slots,
    propagate_scores,
    run_common_sense,
    run_spatial,
    run_temporal,
    select_keyframes,
    spatial_item,
)
from .config import RefinementConfig, check_provider_ids
from .debate import (
    persist_transcript,
    render_debate_question,
    run_debate,
    select_debate_candidates,
)
from .fusion import fuse_scores, sigmoid
from .model import (
    DEBATE,
    SCORE_KINDS,
    STAGE_ONE_KINDS,
    AgentScores,
    FusedScores,
    FusionWeights,
    VideoPredictionSet,
    check_over,
    check_slot_types,
    sorted_distinct,
)
from .provider import Provider, ProviderError

# debate threads per request slot (the providers' summed ``max_concurrency``):
# a debate keeps its thread while it waits on one provider at a time, so this
# many debates in flight keep every provider's slots filled; each provider's
# own semaphore still bounds its requests
DEBATES_PER_SLOT = 4


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
    fused: FusedScores  # (frame_index, pair_key, relation_index) -> fused score
    table: AgentScores  # propagated, aggregated agent scores
    stats: RunStats


def aggregate_provider_tables(pred_set: VideoPredictionSet, tables: dict[str, dict[str, dict]],
                              judged: dict[int, float]) -> AgentScores:
    """The run's agent scores over ``pred_set`` as one ``AgentScores``.

    ``tables`` maps each provider id, in provider order, to its stage-1
    scores as ``run_stage_one`` returns them: per kind of
    ``STAGE_ONE_KINDS``, a dict from slot, an index of the set's score
    column, to score. A stage-1 kind's score at a slot is the mean over the
    providers that scored it, summed from 0.0 in provider order. ``judged``,
    the debate judge's score by slot, is the DEBATE kind's. A slot index
    outside the set raises ValueError (``AgentScores``); a key that is not a
    Python or numpy integer (a bool, a float or a tuple) raises TypeError."""
    def column(scores: list[dict], start: float) -> tuple:
        # the sorted union of the dicts' slots, then each dict's values added
        # at its slots from ``start`` in order; no per-slot object is built
        check_slot_types(set().union(*(map(type, d) for d in scores)))
        at = [np.fromiter(d, np.int64, len(d)) for d in scores]
        index = sorted_distinct(np.concatenate(at))
        totals = np.full(len(index), start)
        counts = np.zeros(len(index), np.min_scalar_type(len(scores)))
        for d, rows in zip(scores, at):
            rows = np.searchsorted(index, rows)
            np.add.at(totals, rows, np.fromiter(d.values(), float, len(d)))
            np.add.at(counts, rows, 1)
        return index, np.divide(totals, counts, out=totals)

    # a mean sums from 0.0, as sum() does; -0.0 + x is x for every x, -0.0
    # too, so the judge's scores pass unchanged
    columns = [column([table[kind] for table in tables.values()], 0.0)
               for kind in STAGE_ONE_KINDS]
    return AgentScores(pred_set, columns + [column([judged], -0.0)])  # DEBATE is the last kind


def run_stage_one(
    pred_set: VideoPredictionSet,
    config: RefinementConfig,
    providers: list[Provider],
    keyframes: set[int],
    transitions: list[Transition],
    cache_dir: Optional[str],
    on_scored: Callable,
    stop: threading.Event,
) -> dict[str, dict[str, dict]]:
    """Raw per-provider keyframe scores of the stage-1 agents: per provider
    id, per kind of ``STAGE_ONE_KINDS``, a dict from each slot the agent
    scored, an index of the set's score column, to its score.

    Every agent runs for every provider at once, in one ``fan_out``, with
    the temporal agent on ``transitions``; each provider's
    ``max_concurrency`` still caps its requests in flight. This is the one
    writer of the dicts: each batch's scores go into their provider's dict
    as the agent reports them; each slot and kind is scored by one batch, so
    the dicts do not depend on which answer arrives first. After each
    report, ``on_scored(tables, slots)`` gets the dicts so far and the slots
    the batch reported, scored or not. Its calls do not overlap, and no
    dict changes while one runs.

    Every agent shares ``stop``: once any of them raises, or ``stop`` is
    set elsewhere, no agent of any provider starts a further prompt. The
    prompts already started finish, then the first error propagates; with
    ``stop`` set and no error here, the dicts are partial.
    ``run_stage_two`` is the one caller; it passes its debate scheduler as
    ``on_scored`` and shares ``stop`` with the debates."""
    vocab = pred_set.vocabulary
    tables = {provider.id: {kind: {} for kind in STAGE_ONE_KINDS} for provider in providers}
    lock = threading.Lock()

    def record(table: dict[str, dict], kind: str, scored: list) -> None:
        with lock:
            table[kind].update((slot, value) for slot, value in scored if value is not None)
            on_scored(tables, [slot for slot, _ in scored])

    floor, batch_size = config.candidate_floor, config.batch_size
    jobs = []
    for provider in providers:
        report = partial(record, tables[provider.id])
        jobs += [
            partial(run_common_sense, provider, pred_set, keyframes, vocab, floor,
                    batch_size, cache_dir, report, stop),
            partial(run_spatial, provider, pred_set, keyframes, vocab, floor,
                    batch_size, cache_dir, report, stop),
            partial(run_temporal, provider, vocab, transitions, batch_size, cache_dir,
                    report, stop),
        ]
    fan_out(lambda job: job(), jobs, len(jobs), stop)
    return tables


def run_stage_two(
    pred_set: VideoPredictionSet,
    config: RefinementConfig,
    providers: list[Provider],
    keyframes: set[int],
    cache_dir: Optional[str],
    transcript_dir: Optional[str],
) -> tuple[dict[str, dict[str, dict]], dict[int, float], int, dict[str, float]]:
    """Run stage one through ``run_stage_one`` and debate the selected
    keyframe candidates while it runs. Returns the per-provider stage-1
    scores, as ``run_stage_one`` does; the judge score of each debated
    candidate whose judge answered, by slot; the number of debates run; and
    the coverage.

    The candidates are the ``keyframe_slots`` at ``config.candidate_floor``,
    the judge is ``config.judge_provider``, and the temporal agent asks
    about ``detect_transitions(pred_set, keyframes)``. The coverage maps
    each of ``SCORE_KINDS`` to the share of candidates some provider scored
    with it (the judge, for DEBATE), and is empty without candidates.

    A candidate waits for two reports per provider (common sense, and
    spatial or its not-aware verdict), plus one per provider for each
    transition that lands on it. After its last report its per-provider
    fused scores are final. Each report makes one
    ``select_debate_candidates`` call over every candidate it finishes, and
    the selected ones ask their questions in slot order. One debate runs,
    and is persisted, per distinct question, as soon as a selected
    candidate first asks it; its judge score goes on every candidate that
    asked it. The debates run on up to ``DEBATES_PER_SLOT`` times as many
    threads as the providers allow requests in flight together (the sum of
    their ``max_concurrency``), started as debates are queued; each
    provider's own semaphore still bounds its requests. With
    ``debate_mode`` "off" no candidate is selected, so no debate runs and
    the pool starts no thread.
    Stage one and the debates share one stop: once either raises, neither
    starts anything further, the running calls finish and the error
    propagates."""
    judge = next(p for p in providers if p.id == config.judge_provider)
    transitions = detect_transitions(pred_set, keyframes)
    candidates = keyframe_slots(pred_set, keyframes, config.candidate_floor)
    waiting = dict.fromkeys(candidates, 2 * len(providers))
    for tr in transitions:
        if tr.slot in waiting:
            waiting[tr.slot] += len(providers)

    stop = threading.Event()

    def debate(question: str) -> Optional[float]:
        if stop.is_set():
            return None
        try:
            transcript = run_debate(question, providers, judge, cache_dir=cache_dir)
            if transcript_dir:
                persist_transcript(transcript, transcript_dir)
        except BaseException:
            stop.set()
            raise
        return transcript.judge_score

    asked: dict[int, str] = {}
    judged: dict[str, Future] = {}
    pool = ThreadPoolExecutor(DEBATES_PER_SLOT * sum(p.spec.max_concurrency for p in providers))

    def on_scored(tables: dict[str, dict[str, dict]], slots: list) -> None:
        final = {}  # the candidates this report finishes, with their fused scores
        for slot in slots:
            if slot not in waiting:
                continue
            waiting[slot] -= 1
            if waiting[slot]:
                continue
            del waiting[slot]
            final[slot] = [fuse_scores(pred_set.scores.item(slot),
                                       *(tables[p.id][kind].get(slot) for kind in STAGE_ONE_KINDS),
                                       weights=config.weights) for p in providers]
        for slot in select_debate_candidates(final, config.debate_mode,
                                             config.disagreement_delta):
            question = render_debate_question(
                *spatial_item(pred_set, slot),
                {p.id: score for p, score in zip(providers, final[slot])},
            )
            asked[slot] = question
            if question not in judged:
                judged[question] = pool.submit(debate, question)

    with pool:
        tables = run_stage_one(pred_set, config, providers, keyframes, transitions,
                               cache_dir, on_scored, stop)

    judge_scores = {slot: score for slot, question in asked.items()
                    if (score := judged[question].result()) is not None}
    coverage = {}
    if candidates:
        for kind in STAGE_ONE_KINDS:
            scored = set().union(*(table[kind] for table in tables.values()))
            coverage[kind] = len(scored.intersection(candidates)) / len(candidates)
        coverage[DEBATE] = len(judge_scores) / len(candidates)
    return tables, judge_scores, len(judged), coverage


def fuse_table(
    pred_set: VideoPredictionSet,
    scores: AgentScores,
    weights: FusionWeights,
    toggles: Optional[dict] = None,
) -> FusedScores:
    """Fused score for every (frame, pair, relation) slot, in frame, pair
    and relation order: ``fuse_scores``' value, bit for bit, in one array pass,
    kept as one column over ``pred_set``, which must be the scores' own set
    (else ValueError).

    The column starts as the set's own base scores; each kind that
    ``toggles`` enables then adds its terms at the slots holding it, so a
    slot without agent scores keeps its base score bit for bit (a ``-0.0``
    too). ``toggles`` maps each of ``SCORE_KINDS`` to on or off (None
    enables all), and a disabled kind's term is dropped entirely."""
    check_over(scores, pred_set, "agent scores")
    fused = pred_set.scores.ravel().copy()
    lambdas = (weights.lambda_cs, weights.lambda_s, weights.lambda_t, weights.lambda_debate)
    # in fuse_scores' order of terms
    for kind, (index, values), lam in zip(SCORE_KINDS, scores.columns, lambdas):
        if toggles is None or toggles.get(kind):
            distinct, inverse = np.unique(values, return_inverse=True)
            # sigmoid (math.exp) per distinct score: np.exp may differ in the last ulp
            fused[index] += lam * np.array([sigmoid(x) for x in distinct.tolist()])[inverse]
    return FusedScores(pred_set, fused)


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
    """Full pipeline over one prediction set: keyframes, both stages through
    ``run_stage_two`` (for every ``debate_mode``), which also reports the
    coverage, then aggregation, propagation and fusion as array passes over
    the set's columns, once the stages have run and the coverage has
    passed, so an outage does not pay for them. The per-provider stage-1
    dicts are dropped once aggregated; ``outcome.table`` holds the run's
    scores as compact ``AgentScores`` columns, which ablations re-fuse.
    Reusing ``providers`` across calls keeps their call counters cumulative.

    Raises ValueError, before any call, on a fused-scale set, whose scores
    hold every agent term already, and ConfigError (a ValueError) on
    ``providers`` that repeat an id or lack ``config.judge_provider``;
    ProviderError, before aggregation, when keyframe candidates exist but
    no agent scored any of them, so a total provider outage does not pass
    for base scores."""
    if pred_set.score_scale == "fused":
        raise ValueError(f"video {pred_set.video_id!r} is already refined (score_scale fused)")
    if providers is None:
        providers = build_providers(config)
    check_provider_ids([p.id for p in providers], config.judge_provider)

    keyframes = select_keyframes(pred_set.frame_indices(), config.keyframe_interval)
    per_provider, judge_scores, debates, coverage = run_stage_two(
        pred_set, config, providers, keyframes, cache_dir, transcript_dir)
    if coverage and not any(coverage.values()):
        raise ProviderError("no agent score for any keyframe candidate")
    scores = aggregate_provider_tables(pred_set, per_provider, judge_scores)
    del per_provider  # the stage-1 dicts are not held past aggregation
    scores = propagate_scores(scores, pred_set, keyframes)
    fused = fuse_table(pred_set, scores, config.weights)

    stats = RunStats(
        provider_calls={p.id: p.call_count for p in providers},
        cache_hits={p.id: p.cache_hits for p in providers},
        debates=debates,
        coverage=coverage,
    )
    return RefinementOutcome(fused=fused, table=scores, stats=stats)
