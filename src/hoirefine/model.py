"""Core domain types for per-frame human-object interaction predictions.

All types here are immutable after construction and safe to share across
concurrent pipeline stages. The records of a prediction set (frames, pairs
and boxes) are slotted, so they carry no per-instance ``__dict__``. The
rules a prediction file must follow are checked where it is read, in
``ingest.load_predictions``.

A run's scores over its ``SlotLayout`` are held once, and only where they
exist: the base scores stay in the set's pairs (``SlotLayout.base_scores``
reads them as a column), and ``AgentScores`` keeps, per score kind, the
indices of the slots holding it and their values.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterator, Optional

import numpy as np

# (human_id, object_id); stable across frames when the upstream detector tracks
PairId = tuple[int, int]

CS = "cs"
SPATIAL = "spatial"
TEMPORAL = "temporal"
DEBATE = "debate"
SCORE_KINDS = (CS, SPATIAL, TEMPORAL, DEBATE)  # the order of fusion.fuse_scores' arguments
STAGE_ONE_KINDS = SCORE_KINDS[:3]  # the agents' kinds; the debate judge gives DEBATE


@dataclass(frozen=True)
class RelationVocabulary:
    """Ordered list of relation-class labels; index <-> name is a bijection."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("vocabulary must be non-empty")
        if any(not n for n in self.names):
            raise ValueError("relation names must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("relation names must be unique")

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def as_int_list(self) -> list[int]:
        """Integer pixel serialization used in prompt text."""
        return [round(self.x1), round(self.y1), round(self.x2), round(self.y2)]


@dataclass(frozen=True, slots=True)
class PairPrediction:
    """One human-object pair with its per-relation confidences; its frame is
    the ``FramePrediction`` that holds it."""

    object_class: str
    human_box: BoundingBox
    object_box: BoundingBox
    scores: tuple[float, ...]
    pair_id: Optional[PairId] = None


@dataclass(frozen=True, slots=True)
class FramePrediction:
    frame_index: int
    frame_width: float
    frame_height: float
    pairs: tuple[PairPrediction, ...] = ()


@dataclass(frozen=True)
class VideoPredictionSet:
    video_id: str
    vocabulary: RelationVocabulary
    frames: tuple[FramePrediction, ...] = ()
    # fused-scale sets carry refined scores which may exceed 1
    score_scale: str = "base"

    def frame_indices(self) -> list[int]:
        return [f.frame_index for f in self.frames]

    def iter_pairs(self) -> Iterator[tuple[FramePrediction, PairPrediction]]:
        for frame in self.frames:
            for pair in frame.pairs:
                yield frame, pair


def tracked_pair_key(pair_id: PairId) -> tuple:
    """The pair key of a pair tracked as ``pair_id``."""
    return ("id",) + tuple(pair_id)


def pair_key(pair: PairPrediction, position: int):
    """Total-order identity for a pair: pair_id when tracked, else its
    position within the frame."""
    if pair.pair_id is not None:
        return tracked_pair_key(pair.pair_id)
    return ("idx", position)


def check_slots_distinct(pred_set: VideoPredictionSet) -> None:
    """Raise ValueError when ``pred_set`` repeats a frame index, or a pair
    key within a frame: its slots would be ambiguous. Only tracked pairs can
    share a key, since an untracked pair's key is its position."""
    seen = set()
    for frame in pred_set.frames:
        fi = frame.frame_index
        if fi in seen:
            raise ValueError(f"frame {fi} appears twice")
        seen.add(fi)
        ids = [pair.pair_id for pair in frame.pairs if pair.pair_id is not None]
        if len(set(ids)) < len(ids):
            twice = next(pid for i, pid in enumerate(ids) if pid in ids[:i])
            raise ValueError(f"frame {fi} holds pair key {tracked_pair_key(twice)} twice")


@dataclass(frozen=True)
class GroundTruthSet:
    """Per frame, the set of (pair_id, relation_index) positive triplets."""

    frames: dict[int, frozenset[tuple[PairId, int]]]


class SlotLayout:
    """The (frame_index, pair_key, relation_index) slots of ``pred_set``, in
    frame, pair and relation order: slot ``i`` (see ``find`` and ``slots``) is
    relation ``i % n`` of pair row ``i // n``, whose pair key is
    ``pair_keys[i // n]`` and frame index ``frame[i // n]``; ``base_scores``
    reads the slots' base scores. The rows of frame ``f`` are
    ``range(*spans[f])``. The layout holds each distinct pair key once:
    equal keys, a tracked pair's in every frame, are one object. A set that
    repeats a frame index, or a pair key within a frame, raises ValueError
    (``check_slots_distinct``)."""

    def __init__(self, pred_set: VideoPredictionSet):
        check_slots_distinct(pred_set)
        self.pred_set, self.n = pred_set, pred_set.vocabulary.n
        shared: dict = {}
        self.pair_keys, self.spans, stop = [], {}, 0
        for frame in pred_set.frames:
            fi, start = frame.frame_index, stop
            keys = [shared.setdefault(pk := pair_key(pair, i), pk)
                    for i, pair in enumerate(frame.pairs)]
            self.pair_keys += keys
            stop = start + len(keys)
            self.spans[fi] = (start, stop)
        self.frame = np.repeat(np.array(list(self.spans), dtype=np.int64),
                               [stop - start for start, stop in self.spans.values()])

    def base_scores(self) -> np.ndarray:
        """A new float64 column of every slot's base score, in slot order,
        read from the set's own pairs: the layout holds no copy of them.
        Pairs holding more or fewer scores than the slots raise ValueError."""
        scores = chain.from_iterable(pair.scores for frame in self.pred_set.frames
                                     for pair in frame.pairs)
        column = np.fromiter(scores, float, len(self.pair_keys) * self.n)  # raises when short
        if next(scores, None) is not None:
            raise ValueError("the set's pairs hold more scores than its slots")
        return column

    def slots(self) -> Iterator[tuple]:
        """Every slot, in index order."""
        relations = range(self.n)
        return ((fi, pk, r) for fi, (start, stop) in self.spans.items()
                for pk in self.pair_keys[start:stop] for r in relations)

    def find(self, slot) -> Optional[int]:
        """The index of ``slot``; None for any key that is not a slot of the
        set. The pair key is looked for among its frame's rows only."""
        if not isinstance(slot, tuple) or len(slot) != 3 or slot[2] not in range(self.n):
            return None
        span = self.spans.get(slot[0])
        if span is None:
            return None
        start, stop = span
        try:
            row = self.pair_keys.index(slot[1], start, stop)
        except ValueError:
            return None
        return row * self.n + int(slot[2])

    def require(self, pred_set: VideoPredictionSet, what: str) -> None:
        """Raise ValueError unless this is the layout of ``pred_set`` itself,
        by identity: a set loaded again from the same file is another set."""
        if self.pred_set is not pred_set:
            raise ValueError(f"{what} are over another prediction set")


class FusedScores(Mapping):
    """Fused scores of ``layout``'s slots as one float64 column: ``values[i]``
    is the score of slot ``i``. A read-only mapping from (frame_index,
    pair_key, relation_index) to score, iterated in slot order; two are
    equal when they hold the same slots in the same order and the same
    values bit for bit."""

    def __init__(self, layout: SlotLayout, values: np.ndarray):
        slots = len(layout.pair_keys) * layout.n
        if len(values) != slots:
            raise ValueError(f"fused column holds {len(values)} scores for {slots} slots")
        self.layout, self.values = layout, values

    def __getitem__(self, slot: tuple) -> float:
        i = self.layout.find(slot)
        if i is None:
            raise KeyError(slot)
        return self.values.item(i)

    def __iter__(self) -> Iterator[tuple]:
        return self.layout.slots()

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, FusedScores):
            mine, theirs = self.layout, other.layout
            return (mine.n == theirs.n and np.array_equal(mine.frame, theirs.frame)
                    and mine.pair_keys == theirs.pair_keys
                    and self.values.tobytes() == other.values.tobytes())
        if isinstance(other, Mapping):
            return (len(self) == len(other) and all(slot in other for slot in self) and
                    self.values.tobytes() == np.array([other[s] for s in self], float).tobytes())
        return NotImplemented


class AgentScores:
    """A run's agent scores of ``layout``'s slots, held only where they
    exist: ``columns[k]`` is an ``(index, values)`` pair for ``SCORE_KINDS[k]``,
    the sorted, distinct int64 indices of the slots holding that kind and
    their float64 scores. Read-only; ``len`` counts the slots holding any
    kind."""

    def __init__(self, layout: SlotLayout, columns):
        self.layout = layout
        self.columns = tuple((np.asarray(index, np.int64), np.asarray(values, float))
                             for index, values in columns)
        if len(self.columns) != len(SCORE_KINDS) or any(len(i) != len(v) for i, v in self.columns):
            raise ValueError("need one (index, values) pair of equal lengths per score kind")
        for column in self.columns:
            for array in column:
                array.flags.writeable = False

    def kinds_at(self, frame_index: int, pkey, relation_index: int) -> dict[str, float]:
        i = self.layout.find((frame_index, pkey, relation_index))
        if i is None:
            return {}
        kinds = {}
        for kind, (index, values) in zip(SCORE_KINDS, self.columns):
            j = int(np.searchsorted(index, i))
            if j < len(index) and index[j] == i:
                kinds[kind] = values.item(j)
        return kinds

    def __len__(self) -> int:
        return len(np.unique(np.concatenate([index for index, _ in self.columns])))


# keyed by annotation text: every dataclass module has ``from __future__ import annotations``
_FIELD_TYPES = {
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
    "str": ("a string", str),
    "Optional[str]": ("a string or null", (str, type(None))),
}


def require_types(obj) -> None:
    """Raise ValueError unless each field of the dataclass ``obj`` annotated
    ``int``, ``float``, ``str`` or ``Optional[str]`` holds that type, an int
    passing for a float. A bool is neither, so JSON ``true`` is not 1."""
    for f in fields(obj):
        if f.type in _FIELD_TYPES:
            what, types = _FIELD_TYPES[f.type]
            value = getattr(obj, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{f.name} must be {what}, not {value!r}")


@dataclass(frozen=True)
class FusionWeights:
    """Weights of the score-integration formula plus the positive-prediction
    threshold used under the semi-constraint rule."""

    lambda_cs: float = 0.05
    lambda_s: float = 1.7
    lambda_t: float = 1.7
    lambda_debate: float = 0.2
    threshold: float = 0.3

    def __post_init__(self):
        require_types(self)
        for name in ("lambda_cs", "lambda_s", "lambda_t", "lambda_debate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0,1)")

