"""Stage-1 cross-agent reasoning: run the common-sense, spatial and temporal
agents over keyframes for one provider, then spread keyframe scores to the
remaining frames.

Agents only score candidate relations whose base confidence reaches a small
floor; scoring every relation of every pair is exactly the call-volume
explosion keyframe sampling exists to avoid.

Every agent asks its provider through one loop, ``_score_batches``, with one
failure policy, which the stage-2 debate shares: an AuthError is fatal and
propagates to the caller; any other ProviderError is logged and leaves only
the failed batch's slots unscored.

Each agent function asks one provider; ``pipeline.run_stage_one`` runs an
agent for every provider at once and the agents one after another. One
agent's batches are in flight together, up to the provider's
``max_concurrency``. Prompts are rendered before and answers parsed after,
in batch order on the calling thread, so the output does not depend on
which answer arrives first.
"""

from __future__ import annotations

import logging
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .ingest import triplet_to_text
from .model import (
    CS,
    SCORE_KINDS,
    SPATIAL,
    TEMPORAL,
    AgentScoreTable,
    RelationVocabulary,
    VideoPredictionSet,
    pair_key,
)
from .prompt import (
    parse_binary_output,
    parse_score_output,
    render_common_sense,
    render_spatial,
    render_temporal,
)
from .provider import AuthError, CompletionRequest, Provider, ProviderError, cached_complete

log = logging.getLogger(__name__)


class TrackingUnavailableError(RuntimeError):
    """No pair identifiers in the video; temporal reasoning and per-pair
    propagation cannot run."""


@dataclass(frozen=True)
class Transition:
    """A pair whose argmax relation changed between consecutive frames."""

    frame_index: int  # the later frame (t+1)
    pair_id: tuple[int, int]
    old_relation: int
    new_relation: int


def select_keyframes(frame_indices: list[int], interval: int) -> set[int]:
    """Frames at positions 0, interval, 2*interval, ... of the ordered list.
    The first frame is always included."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    return {frame_indices[pos] for pos in range(0, len(frame_indices), interval)}


def _argmax(scores) -> int:
    # ties break toward the lowest relation index
    best, best_score = 0, scores[0]
    for r, s in enumerate(scores):
        if s > best_score:
            best, best_score = r, s
    return best


def detect_transitions(pred_set: VideoPredictionSet) -> list[Transition]:
    """Argmax-relation changes for tracked pairs present in consecutive
    frames. Raises TrackingUnavailableError when no pair carries an id."""
    if not any(p.pair_id is not None for _, p in pred_set.iter_pairs()):
        raise TrackingUnavailableError("no pair identifiers in prediction set")
    transitions = []
    frames = pred_set.frames
    for prev, cur in zip(frames, frames[1:]):
        if cur.frame_index != prev.frame_index + 1:
            continue
        prev_by_id = {p.pair_id: p for p in prev.pairs if p.pair_id is not None}
        for pair in cur.pairs:
            if pair.pair_id is None or pair.pair_id not in prev_by_id:
                continue
            old = _argmax(prev_by_id[pair.pair_id].scores)
            new = _argmax(pair.scores)
            if old != new:
                transitions.append(
                    Transition(cur.frame_index, pair.pair_id, old, new)
                )
    return transitions


def keyframe_slots(pred_set: VideoPredictionSet, keyframes: set[int], floor: float):
    """Yield (frame_index, pair_key, relation_index, pair) for every candidate
    relation (base score >= floor) of every keyframe pair, in frame order."""
    for frame in pred_set.frames:
        if frame.frame_index not in keyframes:
            continue
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r, s in enumerate(pair.scores):
                if s >= floor:
                    yield frame.frame_index, pk, r, pair


def fan_out(fn: Callable, items: list, max_workers: int) -> list:
    """``[fn(item) for item in items]``, run by the calling thread together
    with up to ``max_workers - 1`` helper threads, joined before return.

    The calling thread takes the first item, so at least one item runs in
    the caller's own thread-local context (a profiler's open span, say);
    every thread then takes the next unstarted item. With one worker, one
    item or none, no thread is started. Once a call has raised, no further
    item starts; the calls already running finish, then the first exception
    in item order propagates.
    """
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    unstarted = iter(range(len(items)))

    def take() -> Optional[int]:
        with lock:
            return None if errors else next(unstarted, None)

    def work(i: Optional[int]) -> None:
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return
            i = take()

    first = take()
    helpers = [threading.Thread(target=lambda: work(take()))
               for _ in range(min(max_workers, len(items)) - 1)]
    for helper in helpers:
        helper.start()
    work(first)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _score_batches(provider: Provider, what: str, items: list, batch_size: int,
                   render, parse, cache_dir: Optional[str]) -> dict:
    """Ask ``provider`` about ``items``, ``batch_size`` per prompt, with up to
    ``provider.spec.max_concurrency`` prompts in flight.

    ``render(batch)`` builds the prompt bundle and ``parse(raw, n)`` returns
    one value or None per item; both run on the calling thread, in batch
    order. Returns {item: value} for the items whose answer parsed. An
    AuthError propagates and stops queued batches; any other ProviderError
    drops only its own batch.
    """
    batches = [items[start:start + batch_size] for start in range(0, len(items), batch_size)]
    prompts = [render(batch).render() for batch in batches]

    def ask(prompt: str) -> Optional[str]:
        req = CompletionRequest(provider_id=provider.id, prompt=prompt)
        try:
            return cached_complete(provider, req, cache_dir).text
        except AuthError:
            raise
        except ProviderError as exc:
            log.warning("%s: %s batch failed: %s", provider.id, what, exc)
            return None

    values = {}
    for batch, raw in zip(batches, fan_out(ask, prompts, provider.spec.max_concurrency)):
        if raw is None:
            continue
        for item, value in zip(batch, parse(raw, len(batch))):
            if value is not None:
                values[item] = value
    return values


def _scatter(values: dict, wanted: dict, kind: str) -> AgentScoreTable:
    """Put each item's value on every (frame, pair_key, relation) slot that
    wanted it."""
    table = AgentScoreTable()
    for item, value in values.items():
        for frame_index, pk, r in wanted[item]:
            table.set(frame_index, pk, r, kind, value)
    return table


def run_common_sense(
    provider: Provider,
    pred_set: VideoPredictionSet,
    keyframes: set[int],
    vocab: RelationVocabulary,
    floor: float,
    batch_size: int,
    cache_dir: Optional[str] = None,
) -> AgentScoreTable:
    """Rationality scores for every candidate (keyframe, pair, relation).

    Scores are keyed by triplet text, so each distinct text costs one test
    slot regardless of how many keyframes it appears in.
    """
    wanted: dict[str, list[tuple]] = {}
    for frame_index, pk, r, pair in keyframe_slots(pred_set, keyframes, floor):
        wanted.setdefault(triplet_to_text(pair, r, vocab), []).append((frame_index, pk, r))
    scores = _score_batches(provider, "common-sense", sorted(wanted), batch_size,
                            render_common_sense, parse_score_output, cache_dir)
    return _scatter(scores, wanted, CS)


def classify_spatial_awareness(
    provider: Provider,
    relation_names: list[str],
    cache_dir: Optional[str] = None,
) -> dict[str, bool]:
    """Stage-1 spatial query: one yes/no per relation name, memoized by the
    response cache. A failed or unparseable answer means not spatial-aware."""
    verdicts = _score_batches(provider, "awareness", relation_names, 1,
                              lambda batch: render_spatial("awareness", batch),
                              lambda raw, _n: [parse_binary_output(raw)], cache_dir)
    return {name: verdicts.get(name, False) for name in relation_names}


def run_spatial(
    provider: Provider,
    pred_set: VideoPredictionSet,
    keyframes: set[int],
    vocab: RelationVocabulary,
    floor: float,
    batch_size: int,
    cache_dir: Optional[str] = None,
) -> AgentScoreTable:
    """Two-stage spatial reasoning: classify each relation name once, then
    score only spatial-aware candidates with that frame's boxes."""
    slots = list(keyframe_slots(pred_set, keyframes, floor))
    aware = classify_spatial_awareness(
        provider, sorted({vocab.names[r] for _, _, r, _ in slots}), cache_dir)

    # (text, boxes) -> slots; identical geometry costs one test slot
    wanted: dict[tuple, list[tuple]] = {}
    for frame_index, pk, r, pair in slots:
        if aware[vocab.names[r]]:
            item = (
                triplet_to_text(pair, r, vocab),
                tuple(pair.human_box.as_int_list()),
                tuple(pair.object_box.as_int_list()),
            )
            wanted.setdefault(item, []).append((frame_index, pk, r))
    scores = _score_batches(provider, "spatial", sorted(wanted), batch_size,
                            lambda batch: render_spatial("scoring", batch),
                            parse_score_output, cache_dir)
    return _scatter(scores, wanted, SPATIAL)


def run_temporal(
    provider: Provider,
    pred_set: VideoPredictionSet,
    transitions: list[Transition],
    vocab: RelationVocabulary,
    batch_size: int,
    cache_dir: Optional[str] = None,
) -> AgentScoreTable:
    """Score each transition's change; the score attaches to the new relation
    at the later frame (the old relation is untouched). Each transition is
    its own test slot, even when two pairs show the same change."""
    pair_lookup = {(frame.frame_index, pair.pair_id): pair
                   for frame, pair in pred_set.iter_pairs() if pair.pair_id is not None}
    texts, wanted = {}, {}
    for tr in transitions:
        pair = pair_lookup[(tr.frame_index, tr.pair_id)]
        texts[tr] = (triplet_to_text(pair, tr.old_relation, vocab),
                     triplet_to_text(pair, tr.new_relation, vocab))
        wanted[tr] = [(tr.frame_index, ("id",) + tuple(tr.pair_id), tr.new_relation)]
    scores = _score_batches(
        provider, "temporal", transitions, batch_size,
        lambda batch: render_temporal([texts[tr] for tr in batch],
                                      [(tr.frame_index - 1, tr.frame_index) for tr in batch]),
        parse_score_output, cache_dir)
    return _scatter(scores, wanted, TEMPORAL)


def propagate_scores(
    table: AgentScoreTable,
    pred_set: VideoPredictionSet,
    keyframes: set[int],
) -> AgentScoreTable:
    """Copy keyframe scores to non-keyframes.

    Every table entry is kept, so directly recorded non-keyframe values
    (temporal scores land wherever the transition happened) win. An empty
    non-keyframe slot takes the value of the nearest keyframe holding its
    source key; on a distance tie the earlier keyframe wins. A tracked
    pair's source key is (pair_key, relation, kind). An untracked pair has
    only common-sense sources, keyed (triplet_text, CS); every keyframe
    pair's common-sense score is indexed that way, and when two pairs share
    a text in one keyframe the later pair's score is the source.
    """
    vocab = pred_set.vocabulary
    out = AgentScoreTable().merge(table)

    # source key -> (keyframes, values), parallel and in frame order
    sources: dict[tuple, tuple[list[int], list[float]]] = {}
    for frame in pred_set.frames:
        if frame.frame_index not in keyframes:
            continue
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r in range(vocab.n):
                for kind, value in table.kinds_at(frame.frame_index, pk, r).items():
                    keys = [(pk, r, kind)]
                    if kind == CS:
                        keys.append((triplet_to_text(pair, r, vocab), CS))
                    for key in keys:
                        kfs, values = sources.setdefault(key, ([], []))
                        if kfs and kfs[-1] == frame.frame_index:
                            values[-1] = value
                        else:
                            kfs.append(frame.frame_index)
                            values.append(value)

    for frame in pred_set.frames:
        f = frame.frame_index
        if f in keyframes:
            continue
        for i, pair in enumerate(frame.pairs):
            pk = pair_key(pair, i)
            for r in range(vocab.n):
                if pair.pair_id is not None:
                    keys = [((pk, r, kind), kind) for kind in SCORE_KINDS]
                else:
                    keys = [((triplet_to_text(pair, r, vocab), CS), CS)]
                for key, kind in keys:
                    if key not in sources or out.get(f, pk, r, kind) is not None:
                        continue
                    kfs, values = sources[key]
                    j = bisect_left(kfs, f)  # f is not a keyframe: kfs[j - 1] < f < kfs[j]
                    if j == len(kfs) or (j > 0 and f - kfs[j - 1] <= kfs[j] - f):
                        j -= 1
                    out.set(f, pk, r, kind, values[j])
    return out
