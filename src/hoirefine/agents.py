"""Stage-1 cross-agent reasoning: run the common-sense, spatial and temporal
agents over keyframes for one provider, then spread keyframe scores to the
remaining frames.

Agents only score candidate relations whose base confidence reaches a small
floor; scoring every relation of every pair is exactly the call-volume
explosion keyframe sampling exists to avoid.

Every agent asks its provider through one loop, ``_score_batches``, the
one place that puts an answer's values on slots: an agent hands it an
ordered map from each item it asks about (a triplet text, a text with its
boxes, a transition or a relation name) to the item's slots. It asks each
distinct prompt once, under ``provider.text_or_none``, the one failure
policy of both stages: a failed batch leaves only its slots unscored, and
an AuthError propagates to the caller.

Each agent function asks one provider; ``pipeline.run_stage_one`` runs
every agent for every provider at once. One agent's batches are in flight
together, up to the provider's ``max_concurrency``. Each answer is parsed
as it arrives, and each batch is reported at once to the agent's
``on_scored(kind, scored)``: its score kind and a ``(slot, value)`` for
every slot of the batch's items, the value None where it is unscored, so a
caller knows when a slot's scores are final. A slot is an index of the
set's raveled score column, relation ``slot % n`` of row ``slot // n``, whose
class and boxes the agents read from the set's columns.
Each slot gets each kind from one batch, so the scores do not depend on
which answer arrives first. Agents return nothing; their reports are their
result. Agents given one ``stop`` event start no further prompt once any of
them has raised.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .ingest import label_triplet
from .model import (
    CS,
    SCORE_KINDS,
    SPATIAL,
    TEMPORAL,
    AgentScores,
    RelationVocabulary,
    VideoPredictionSet,
    check_over,
)
from .prompt import (
    parse_binary_output,
    parse_score_output,
    render_common_sense,
    render_spatial,
    render_temporal,
)
from .provider import CompletionRequest, Provider, cached_complete, text_or_none


@dataclass(frozen=True)
class Transition:
    """A tracked pair whose argmax relation changed between consecutive frames."""

    frame_index: int  # the later frame (t+1)
    object_class: str  # of the pair in the later frame
    old_relation: int
    new_relation: int
    slot: int  # where its score lands: the new relation of the pair's row in the later frame


def select_keyframes(frame_indices: list[int], interval: int) -> set[int]:
    """Frames at positions 0, interval, 2*interval, ... of the ordered list.
    The first frame is always included."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    return {frame_indices[pos] for pos in range(0, len(frame_indices), interval)}


def detect_transitions(pred_set: VideoPredictionSet, keyframes: set[int]) -> list[Transition]:
    """Argmax-relation changes (ties toward the lowest relation, as
    ``scores.index(max(scores))`` has them) of tracked pairs between
    consecutive frames of which one is a keyframe; propagation covers the
    others. A video without pair ids has none."""
    fis, start, n = pred_set.frame_indices(), pred_set.row_start.tolist(), pred_set.vocabulary.n
    codes, top = pred_set.pair_code.tolist(), pred_set.scores.argmax(axis=1).tolist()
    transitions = []
    for j in range(1, len(fis)):
        if fis[j] != fis[j - 1] + 1 or not (fis[j - 1] in keyframes or fis[j] in keyframes):
            continue
        prev_top = {codes[row]: top[row] for row in range(start[j - 1], start[j])
                    if codes[row] >= 0}
        for row in range(start[j], start[j + 1]):
            old = prev_top.get(codes[row])
            if old is not None and old != top[row]:
                transitions.append(Transition(fis[j], pred_set.labels[pred_set.class_code[row]],
                                              old, top[row], row * n + top[row]))
    return transitions


def keyframe_slots(pred_set: VideoPredictionSet, keyframes: set[int], floor: float) -> list[int]:
    """The slots of every candidate relation (base score >= floor) of every
    keyframe pair, in slot order, read from the set's columns."""
    keyframe = np.isin(pred_set.frame_index[pred_set.frame_rank()], list(keyframes))
    return np.flatnonzero((pred_set.scores >= floor) & keyframe[:, None]).tolist()


def spatial_item(pred_set: VideoPredictionSet, slot: int) -> tuple[str, tuple, tuple]:
    """A candidate slot as the spatial agent and the debate question show it:
    its triplet text, then its human and object boxes in whole pixels."""
    row, relation = divmod(slot, pred_set.vocabulary.n)
    box = [round(x) for x in pred_set.boxes[row].tolist()]
    return (label_triplet(pred_set.labels[pred_set.class_code[row]], relation,
                          pred_set.vocabulary), tuple(box[:4]), tuple(box[4:]))


def fan_out(fn: Callable, items: list, max_workers: int,
            stop: Optional[threading.Event] = None) -> list:
    """``[fn(item) for item in items]``, run by the calling thread together
    with up to ``max_workers - 1`` helper threads, joined before return.

    The calling thread takes the first item, so at least one item runs in
    the caller's own thread-local context (a profiler's open span, say);
    every thread then takes the next unstarted item. With one worker, one
    item or none, no thread is started. Once a call has raised, or ``stop``
    is set, no further item starts; a call that raises sets ``stop``, so
    fan-outs sharing it stop together. The calls already running finish,
    then the first exception in item order propagates; without one, an item
    left unstarted by ``stop`` has the result None.
    """
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    unstarted = iter(range(len(items)))
    stop = threading.Event() if stop is None else stop

    def take() -> Optional[int]:
        with lock:
            return None if stop.is_set() else next(unstarted, None)

    def work(i: Optional[int]) -> None:
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                    stop.set()
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


def _score_batches(provider: Provider, what: str, wanted: dict, batch_size: int,
                   render, parse, cache_dir: Optional[str], report: Callable,
                   stop: Optional[threading.Event]) -> None:
    """Ask ``provider`` about the items of ``wanted``, an ordered map from
    each item to its slots, ``batch_size`` items per prompt in that order,
    with up to ``provider.spec.max_concurrency`` prompts in flight.

    ``render(batch)`` builds the prompt bundle on the calling thread. Each
    distinct prompt is asked once; as its answer arrives, ``parse(raw, n)``
    turns it into one value or None per item for every batch that rendered
    it, and ``report([(slot, value), ...])`` gets each item's value on every
    slot of the item, on the thread that asked. A batch whose prompt failed
    gets all None. Under ``text_or_none``, an AuthError propagates, sets
    ``stop`` and starts no queued prompt of any fan-out sharing ``stop``;
    its batches are not reported. Any other ProviderError drops only the
    values of its own prompt.
    """
    items = list(wanted)
    batches: dict[str, list] = {}
    for start in range(0, len(items), batch_size):
        batch = items[start:start + batch_size]
        batches.setdefault(render(batch).render(), []).append(batch)

    def ask(prompt: str) -> None:
        raw = text_or_none(
            lambda: cached_complete(provider, CompletionRequest(prompt), cache_dir).text,
            f"{provider.id}: {what} batch")
        for batch in batches[prompt]:
            values = [None] * len(batch) if raw is None else parse(raw, len(batch))
            report([(slot, value) for item, value in zip(batch, values)
                    for slot in wanted[item]])

    fan_out(ask, list(batches), provider.spec.max_concurrency, stop)


def run_common_sense(
    provider: Provider,
    pred_set: VideoPredictionSet,
    keyframes: set[int],
    vocab: RelationVocabulary,
    floor: float,
    batch_size: int,
    cache_dir: Optional[str] = None,
    on_scored: Callable = lambda kind, scored: None,
    stop: Optional[threading.Event] = None,
) -> None:
    """Rationality scores for every candidate (keyframe, pair, relation).

    Scores are keyed by triplet text, so each distinct text costs one test
    slot regardless of how many keyframes it appears in. Each batch is
    reported as ``on_scored(CS, scored)`` when its answer arrives, every
    candidate slot once.
    """
    wanted: dict[str, list[int]] = {}
    n, labels, classes = vocab.n, pred_set.labels, pred_set.class_code.tolist()
    for slot in keyframe_slots(pred_set, keyframes, floor):
        text = label_triplet(labels[classes[slot // n]], slot % n, vocab)
        wanted.setdefault(text, []).append(slot)
    _score_batches(provider, "common-sense", dict(sorted(wanted.items())), batch_size,
                   render_common_sense, parse_score_output, cache_dir,
                   partial(on_scored, CS), stop)


def classify_spatial_awareness(
    provider: Provider,
    relation_names: list[str],
    cache_dir: Optional[str] = None,
    stop: Optional[threading.Event] = None,
) -> dict[str, bool]:
    """Stage-1 spatial query: one yes/no per relation name, memoized by the
    response cache. A failed or unparseable answer means not spatial-aware."""
    verdicts = {}
    _score_batches(provider, "awareness", {name: (name,) for name in relation_names}, 1,
                   lambda batch: render_spatial("awareness", batch),
                   lambda raw, _n: [parse_binary_output(raw)], cache_dir, verdicts.update, stop)
    return {name: verdicts.get(name) is True for name in relation_names}


def run_spatial(
    provider: Provider,
    pred_set: VideoPredictionSet,
    keyframes: set[int],
    vocab: RelationVocabulary,
    floor: float,
    batch_size: int,
    cache_dir: Optional[str] = None,
    on_scored: Callable = lambda kind, scored: None,
    stop: Optional[threading.Event] = None,
) -> None:
    """Two-stage spatial reasoning: classify each relation name once, then
    score only spatial-aware candidates with that frame's boxes.

    Reports like ``run_common_sense``; the candidates of relations that are
    not spatial-aware are reported with the value None as soon as awareness
    is known."""
    slots = keyframe_slots(pred_set, keyframes, floor)
    aware = classify_spatial_awareness(
        provider, sorted({vocab.names[slot % vocab.n] for slot in slots}), cache_dir, stop)

    # (text, boxes) -> slots; identical geometry costs one test slot
    wanted: dict[tuple, list[int]] = {}
    unaware = []
    for slot in slots:
        if not aware[vocab.names[slot % vocab.n]]:
            unaware.append((slot, None))
            continue
        wanted.setdefault(spatial_item(pred_set, slot), []).append(slot)
    on_scored(SPATIAL, unaware)
    _score_batches(provider, "spatial", dict(sorted(wanted.items())), batch_size,
                   lambda batch: render_spatial("scoring", batch),
                   parse_score_output, cache_dir, partial(on_scored, SPATIAL), stop)


def run_temporal(
    provider: Provider,
    vocab: RelationVocabulary,
    transitions: list[Transition],
    batch_size: int,
    cache_dir: Optional[str] = None,
    on_scored: Callable = lambda kind, scored: None,
    stop: Optional[threading.Event] = None,
) -> None:
    """Score each transition's change; the score attaches to the new relation
    at the later frame (the old relation is untouched). Each transition is
    its own test slot, even when two pairs show the same change; a batch
    prompt that such slots repeat is asked once. Reports like
    ``run_common_sense``, each transition's ``slot`` once."""
    _score_batches(
        provider, "temporal", {tr: (tr.slot,) for tr in transitions}, batch_size,
        lambda batch: render_temporal(
            [(label_triplet(tr.object_class, tr.old_relation, vocab),
              label_triplet(tr.object_class, tr.new_relation, vocab)) for tr in batch],
            [(tr.frame_index - 1, tr.frame_index) for tr in batch]),
        parse_score_output, cache_dir, partial(on_scored, TEMPORAL), stop)


# pairs whose targets one pass of ``_fill`` fills, so that its temporaries
# stay a few hundred KB however long the video
_CHUNK = 1024


def propagate_scores(
    scores: AgentScores,
    pred_set: VideoPredictionSet,
    keyframes: set[int],
) -> AgentScores:
    """``scores``, which must be over ``pred_set`` itself (else
    ValueError), with keyframe scores copied to non-keyframes, as new
    ``AgentScores``; ``scores`` itself is left as it is. Each kind is spread
    in turn over a dense grid of one value per slot, then compacted again.

    Every entry is kept, so directly recorded non-keyframe values
    (temporal scores land wherever the transition happened) win. An empty
    non-keyframe slot takes the value of the nearest keyframe holding its
    source key; on a distance tie the earlier keyframe wins. A tracked
    pair's source key is (pair_key, relation, kind). An untracked pair has
    only common-sense sources, keyed (triplet_text, CS); every keyframe
    pair's common-sense score is indexed that way, and when two pairs share
    a text in one keyframe the later pair's score is the source.
    """
    check_over(scores, pred_set, "agent scores")
    vocab, n = pred_set.vocabulary, pred_set.vocabulary.n
    pairs, text_ids = len(pred_set.scores), {}
    # per pair row: its track (its pair code, -1 when untracked), class and
    # frame rank; per class, the text id of each relation
    track, cls = pred_set.pair_code.astype(np.int64), pred_set.class_code
    rank = pred_set.frame_rank()
    class_text = np.array([[text_ids.setdefault(label_triplet(label, r, vocab), len(text_ids))
                            for r in range(n)] for label in pred_set.labels],
                          dtype=np.int64).reshape(-1, n)
    frame = pred_set.frame_index[rank]
    keyframe, tracked = np.isin(frame, list(keyframes)), track >= 0
    tracks, texts = len(pred_set.pair_ids) * n, len(text_ids)

    def by_track(p, r):
        return track[p] * n + r

    def by_text(p, r):
        return class_text[cls[p], r]
    # sources are held slots of keyframe pairs and targets empty slots of
    # the others, so a kind's grid is read and filled in place
    columns = []
    for (index, values), kind in zip(scores.columns, SCORE_KINDS):
        dense = np.full(pairs * n, np.nan)
        dense[index] = values
        grid = dense.reshape(pairs, n)
        _fill(grid, by_track, tracks, keyframe & tracked, ~keyframe & tracked, frame, rank)
        if kind == CS:
            _fill(grid, by_text, texts, keyframe, ~keyframe & ~tracked, frame, rank)
        held = np.flatnonzero(~np.isnan(dense))
        columns.append((held, dense[held]))
    return AgentScores(pred_set, columns)


def _fill(grid: np.ndarray, group: Callable, groups: int, sources: np.ndarray,
          targets: np.ndarray, frame: np.ndarray, rank: np.ndarray) -> None:
    """Set each empty slot of a ``targets`` pair in ``grid``, one kind's
    values with a row per pair, to the value of its group's held slot, among
    the ``sources`` pairs, nearest in ``frame`` index: the earlier on a tie,
    the last in one frame. ``group(p, r)`` gives the groups, each below
    ``groups``, of relations ``r`` of pairs ``p``; ``rank`` is the position
    of each pair's frame. Pairs are in frame order; no source is in a
    target's frame, and no pair is both. The targets are filled ``_CHUNK``
    pairs at a time, and only those whose group holds a source are looked up."""
    src_p, src_r = np.nonzero(~np.isnan(grid) & sources[:, None])
    if not len(src_p):
        return
    scale = int(rank[-1]) + 1
    src_key = group(src_p, src_r) * scale + rank[src_p]  # orders by group, then frame
    src_key, last = np.unique(src_key[::-1], return_index=True)  # a key's last source
    last = len(src_p) - 1 - last
    src_p, src_r = src_p[last], src_r[last]
    src_group, src_frame = src_key // scale, frame[src_p]
    held = np.zeros(groups, dtype=bool)
    held[src_group] = True
    for start in range(0, len(grid), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        p, r = np.nonzero(np.isnan(grid[chunk]) & targets[chunk, None])
        p += start
        g = group(p, r)
        found = held[g]
        p, r, g = p[found], r[found], g[found]
        # the group holds a source, so the one before or the one after is in it
        j = np.searchsorted(src_key, g * scale + rank[p])
        before, after = np.maximum(j - 1, 0), np.minimum(j, len(src_key) - 1)
        has_before = (j > 0) & (src_group[before] == g)
        has_after = (j < len(src_key)) & (src_group[after] == g)
        f = frame[p]
        earlier = has_before & (~has_after | (f - src_frame[before] <= src_frame[after] - f))
        nearest = np.where(earlier, before, after)
        grid[p, r] = grid[src_p[nearest], src_r[nearest]]
