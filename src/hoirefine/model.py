"""Core domain types for per-frame human-object interaction predictions.

All types here are immutable after construction and safe to share across
concurrent pipeline stages. A prediction set holds its rows as columns:
float64 arrays of scores and boxes, a pair-id code and a class code per
row, and an index, a size and a row span per frame. Its records (frames,
pairs and boxes) are views, built from the columns when read and held by
no one else. A set's invariants are checked when it is built: its columns
agree, its frames are in strictly increasing index order and a tracked
pair is held once per frame, so each slot is unambiguous. The values a
prediction file must hold are checked where it is read, in
``ingest.load_predictions``.

A slot, one (frame, pair, relation) triplet, is an index of the set's
raveled score column, relation ``i % n`` of row ``i // n``: the set is its
own layout, and a run reads a slot's row from the columns, building no
record. The base scores stay in that column, ``AgentScores`` keeps per score
kind the indices of the slots holding it and their values, ``FusedScores``
one value per slot, and ``GroundTruthSet`` the indices of the positive
slots. Outside code names a slot by its row's ``row_keys`` and relation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Optional

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


class BoundingBox(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class PairPrediction:
    """One human-object pair with its per-relation confidences: a view of
    one row of a ``VideoPredictionSet``. Its ``object_class`` and
    ``pair_id`` (None when untracked) are the set's own objects; ``scores``
    and the boxes are built from the set's columns on each read. Two pairs
    are equal when these five values are."""

    __slots__ = ("object_class", "pair_id", "_set", "_row")

    def __init__(self, pred_set: VideoPredictionSet, row: int, object_class: str,
                 pair_id: Optional[PairId]):
        self._set, self._row = pred_set, row
        self.object_class, self.pair_id = object_class, pair_id

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(self._set.scores[self._row].tolist())

    @property
    def human_box(self) -> BoundingBox:
        return BoundingBox(*self._set.boxes[self._row, :4].tolist())

    @property
    def object_box(self) -> BoundingBox:
        return BoundingBox(*self._set.boxes[self._row, 4:].tolist())

    def _values(self) -> tuple:
        return self.object_class, self.human_box, self.object_box, self.scores, self.pair_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairPrediction):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "PairPrediction({}, {}, {}, {}, pair_id={})".format(*map(repr, self._values()))


class FramePrediction:
    """One frame of a ``VideoPredictionSet``: its index and size, and
    ``pairs``, the pairs of its rows, built on each read."""

    __slots__ = ("frame_index", "frame_width", "frame_height", "_rows", "_set")

    def __init__(self, pred_set: VideoPredictionSet, frame_index: int, frame_width: float,
                 frame_height: float, rows: tuple[int, int]):
        self._set, self._rows, self.frame_index = pred_set, rows, frame_index
        self.frame_width, self.frame_height = frame_width, frame_height

    @property
    def pairs(self) -> tuple[PairPrediction, ...]:
        start, stop = self._rows
        ids, labels = self._set.pair_ids, self._set.labels
        return tuple(PairPrediction(self._set, row, labels[c], None if p < 0 else ids[p])
                     for row, p, c in zip(range(start, stop),
                                          self._set.pair_code[start:stop].tolist(),
                                          self._set.class_code[start:stop].tolist()))


def _column(values, dtype, shape: tuple) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` and ``shape``, -1 where
    any length passes; the caller's own array is left writable."""
    array = np.asarray(values, dtype).view()
    if array.size == 0:
        array = array.reshape([0 if size == -1 else size for size in shape])
    if array.ndim != len(shape) or any(size not in (-1, got)
                                       for size, got in zip(shape, array.shape)):
        raise ValueError(f"a column of shape {array.shape} where {shape} is due")
    array.flags.writeable = False
    return array


class VideoPredictionSet:
    """One video's predictions as columns: ``scores`` (a row per pair, a
    float64 per relation of ``vocabulary``) and ``boxes`` (per row, the
    human box's x1, y1, x2, y2, then the object box's); per row,
    ``pair_code``, the int32 index of its pair id in ``pair_ids`` (-1 for
    an untracked pair), and ``class_code``, the int32 index of its object
    class in ``labels``; per frame, its ``frame_index``, its ``frame_size``
    (width, height) and its rows ``row_start[j]`` to ``row_start[j + 1]``,
    in pair order. The columns are read-only; ``pair_ids`` and ``labels``
    hold distinct values, so a tracked pair's rows share its code. A set
    whose scores are not one per relation, whose columns disagree in length
    or whose codes lie outside ``pair_ids`` or ``labels`` raises ValueError.
    So does a set whose slots would be ambiguous: a frame index not greater
    than the one before it, or a tracked pair twice in one frame (an
    untracked pair's key is its position); the first frame, in frame
    order, that does either is named. Only the loader checks the values
    themselves.

    ``frames``, ``frame.pairs`` and ``iter_pairs`` build record
    views of the columns on each read, with Python numbers, and the set
    keeps none of them. Two sets are equal when their columns, ids, labels
    and other fields are."""

    def __init__(self, video_id: str, vocabulary: RelationVocabulary, *, frame_index=(),
                 frame_size=(), row_start=(0,), pair_code=(), pair_ids=(), class_code=(),
                 labels=(), scores=(), boxes=(), score_scale: str = "base"):
        n = vocabulary.n
        self.video_id, self.vocabulary, self.score_scale = video_id, vocabulary, score_scale
        self.pair_ids, self.labels = tuple(pair_ids), tuple(labels)
        self.frame_index = _column(frame_index, np.int64, (-1,))
        frames = len(self.frame_index)
        self.frame_size = _column(frame_size, np.float64, (frames, 2))
        self.row_start = _column(row_start, np.int64, (frames + 1,))
        scores = np.asarray(scores, np.float64)
        if scores.ndim == 2 and scores.shape[1] != n:
            raise ValueError(f"scores hold {scores.shape[1]} relations per pair "
                             f"for a vocabulary of {n}")
        self.scores = _column(scores, np.float64, (-1, n))
        rows = len(self.scores)
        self.boxes = _column(boxes, np.float64, (rows, 8))
        self.pair_code = _column(pair_code, np.int32, (rows,))
        self.class_code = _column(class_code, np.int32, (rows,))
        start = self.row_start
        if start[0] != 0 or start[-1] != rows or np.any(start[1:] < start[:-1]):
            raise ValueError(f"row starts {start.tolist()} do not span {rows} rows")
        if any(len(set(values)) < len(values) for values in (self.pair_ids, self.labels)):
            raise ValueError("pair_ids and labels must hold distinct values")
        if rows and not (self.pair_code.min() >= -1 and self.pair_code.max() < len(self.pair_ids)
                         and self.class_code.min() >= 0
                         and self.class_code.max() < len(self.labels)):
            raise ValueError("a pair or class code outside pair_ids or labels")
        index, ids = self.frame_index, max(len(self.pair_ids), 1)
        late = np.flatnonzero(index[1:] <= index[:-1])
        first = int(late[0]) + 1 if len(late) else frames  # the first frame out of order
        tracked = np.flatnonzero(self.pair_code >= 0)
        keys = np.sort(self.frame_rank()[tracked] * ids + self.pair_code[tracked])
        twice = keys[1:][keys[1:] == keys[:-1]]  # (frame position, pair code) of each repeat
        if len(twice) and twice[0] // ids < first:
            position, code = divmod(int(twice[0]), ids)
            raise ValueError(f"frame {index[position]} holds pair key "
                             f"{tracked_pair_key(self.pair_ids[code])} twice")
        if first < frames:
            frame, before = index[first], index[first - 1]
            raise ValueError(f"frame {frame} appears twice" if frame == before
                             else f"frame {frame} follows frame {before}")

    @property
    def frames(self) -> tuple[FramePrediction, ...]:
        start = self.row_start.tolist()
        return tuple(FramePrediction(self, fi, w, h, rows) for fi, (w, h), rows in zip(
            self.frame_index.tolist(), self.frame_size.tolist(), zip(start, start[1:])))

    def frame_indices(self) -> list[int]:
        return self.frame_index.tolist()

    def iter_pairs(self) -> Iterator[tuple[FramePrediction, PairPrediction]]:
        for frame in self.frames:
            for pair in frame.pairs:
                yield frame, pair

    def frame_rank(self) -> np.ndarray:
        """Per row, the position of its frame."""
        return np.repeat(np.arange(len(self.frame_index)), np.diff(self.row_start))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoPredictionSet):
            return NotImplemented
        columns = ("frame_index", "frame_size", "row_start", "scores", "boxes")
        return ((self.video_id, self.vocabulary, self.score_scale)
                == (other.video_id, other.vocabulary, other.score_scale)
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)
                and self._row_values() == other._row_values())

    __hash__ = None

    def _row_values(self) -> tuple[list, list]:
        """Per row, its pair id (None if untracked) and its label."""
        return ([None if p < 0 else self.pair_ids[p] for p in self.pair_code.tolist()],
                [self.labels[c] for c in self.class_code.tolist()])


def tracked_pair_key(pair_id: PairId) -> tuple:
    """The pair key of a pair tracked as ``pair_id``."""
    return ("id",) + tuple(pair_id)


def pair_key(pair: PairPrediction, position: int):
    """Total-order identity for a pair: pair_id when tracked, else its
    position within the frame."""
    if pair.pair_id is not None:
        return tracked_pair_key(pair.pair_id)
    return ("idx", position)


def row_keys(pred_set: VideoPredictionSet, rows: np.ndarray) -> list[tuple]:
    """The (frame_index, pair_key) of each of ``rows``, an int array of row
    numbers of ``pred_set``: the key ``pair_key`` gives the row's pair at
    its position in its frame. Only these rows' keys are built, and equal
    keys are one object."""
    start = pred_set.row_start
    rank = np.searchsorted(start, rows, "right") - 1
    position = rows - start[rank]
    tracked = [tracked_pair_key(pair_id) for pair_id in pred_set.pair_ids]
    untracked = [("idx", i) for i in range(int(position.max(initial=-1)) + 1)]
    return [(fi, untracked[i] if c < 0 else tracked[c]) for fi, c, i in zip(
        pred_set.frame_index[rank].tolist(), pred_set.pair_code[rows].tolist(), position.tolist())]


class GroundTruthSet:
    """A video's positive (frame, pair, relation) triplets as ``slots`` of
    ``pred_set``: sorted, distinct, read-only int64 indices of its score
    column on tracked rows, else ValueError. ``frames`` is a view built on
    each read: per frame with ground truth, in the set's frame order, the
    frozenset of its (pair_id, relation_index) triplets, each pair id the
    set's own object, and equal triplets and equal frame sets one object."""

    def __init__(self, pred_set: VideoPredictionSet, slots=()):
        self.pred_set, self.slots = pred_set, _column(slots, np.int64, (-1,))
        rows = self.slots // pred_set.vocabulary.n
        if len(rows) and not (np.all(self.slots[1:] > self.slots[:-1]) and self.slots[0] >= 0
                              and rows[-1] < len(pred_set.scores)
                              and np.all(pred_set.pair_code[rows] >= 0)):
            raise ValueError("ground-truth slots must be sorted, distinct and on tracked rows")

    @property
    def frames(self) -> dict[int, frozenset[tuple[PairId, int]]]:
        pred_set, n = self.pred_set, self.pred_set.vocabulary.n
        rows = self.slots // n
        index = pred_set.frame_index[np.searchsorted(pred_set.row_start, rows, "right") - 1]
        start = np.flatnonzero(np.diff(index, prepend=-1)).tolist()  # each frame's first slot
        key = (pred_set.pair_code[rows] * n + self.slots % n).tolist()  # pair code and relation
        triplets = {t: (pred_set.pair_ids[t // n], t % n) for t in set(key)}
        frames, sets = {}, {}  # each distinct frame set to itself
        for fi, a, b in zip(index[start].tolist(), start, start[1:] + [len(key)]):
            triplet_set = frozenset(map(triplets.__getitem__, key[a:b]))
            frames[fi] = sets.setdefault(triplet_set, triplet_set)
        return frames


def _integer_type(t: type) -> bool:
    """Whether ``t`` is a Python or numpy integer type, bool aside."""
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def check_slot_types(types) -> None:
    """Raise TypeError unless each of ``types`` is a Python or numpy integer
    type, bool aside: as an int64, a float slot would land on another."""
    for t in types:
        if not _integer_type(t):
            raise TypeError(f"a slot index must be an integer, not {t.__name__!r}")


class FusedScores(Mapping):
    """Fused scores of ``pred_set``'s slots as one float64 column:
    ``column[i]`` is the score of slot ``i``. A read-only mapping from
    (frame_index, pair_key, relation_index) to score, iterated in slot
    order; two are equal when they hold the same slots in the same order and
    the same values bit for bit. The rows' keys are indexed on the first
    look-up by tuple. A frame or relation index, or a pair key item after
    its tag, that is no integer (a bool, a float) is no slot."""

    def __init__(self, pred_set: VideoPredictionSet, column: np.ndarray):
        slots = pred_set.scores.size
        if len(column) != slots:
            raise ValueError(f"fused column holds {len(column)} scores for {slots} slots")
        self.pred_set, self.column = pred_set, column
        self._rows: Optional[dict] = None

    def __getitem__(self, slot: tuple) -> float:
        if not isinstance(slot, tuple) or len(slot) != 3:
            raise KeyError(slot)
        frame_index, key, relation = slot
        n = self.pred_set.vocabulary.n
        if not (_integer_type(type(frame_index)) and _integer_type(type(relation))
                and 0 <= relation < n and isinstance(key, tuple)
                and all(_integer_type(type(item)) for item in key[1:])):
            raise KeyError(slot)
        if self._rows is None:
            self._rows = {row_key: row for row, row_key in enumerate(self._row_keys())}
        try:
            row = self._rows.get((frame_index, key))
        except TypeError:  # an unhashable pair key
            row = None
        if row is None:
            raise KeyError(slot)
        return self.column.item(row * n + relation)

    def __iter__(self) -> Iterator[tuple]:
        relations = range(self.pred_set.vocabulary.n)
        return ((fi, pk, r) for fi, pk in self._row_keys() for r in relations)

    def _row_keys(self) -> list[tuple]:
        return row_keys(self.pred_set, np.arange(len(self.pred_set.scores)))

    def __len__(self) -> int:
        return len(self.column)

    def __eq__(self, other) -> bool:
        if isinstance(other, FusedScores):
            return list(self) == list(other) and self.column.tobytes() == other.column.tobytes()
        if isinstance(other, Mapping):
            return (len(self) == len(other) and all(slot in other for slot in self) and
                    self.column.tobytes() == np.array([other[s] for s in self], float).tobytes())
        return NotImplemented


class AgentScores:
    """A run's agent scores of ``pred_set``'s slots, held only where they
    exist: ``columns[k]`` is an ``(index, values)`` pair for ``SCORE_KINDS[k]``,
    the sorted, distinct int64 indices of the slots holding that kind and
    their float64 scores. Read-only; ``len`` counts the slots holding any
    kind. A float or bool index raises TypeError (``check_slot_types``), and
    an index column that is not strictly increasing or that leaves the set's
    slots ValueError."""

    def __init__(self, pred_set: VideoPredictionSet, columns):
        self.pred_set = pred_set
        columns = list(columns)
        for index, _ in columns:
            # an array's dtype, else each index's own type; [] is a float64 array
            check_slot_types([index.dtype.type] if isinstance(index, np.ndarray) and len(index)
                             else map(type, index))
        self.columns = tuple((np.asarray(index, np.int64), np.asarray(values, float))
                             for index, values in columns)
        if len(self.columns) != len(SCORE_KINDS) or any(len(i) != len(v) for i, v in self.columns):
            raise ValueError("need one (index, values) pair of equal lengths per score kind")
        if any(np.any(index[1:] <= index[:-1]) for index, _ in self.columns):
            raise ValueError("slot indices must be sorted and distinct")
        slots = pred_set.scores.size
        if any(len(index) and (index[0] < 0 or index[-1] >= slots) for index, _ in self.columns):
            raise ValueError(f"a slot index outside the set's {slots} slots")
        for column in self.columns:
            for array in column:
                array.flags.writeable = False

    def __len__(self) -> int:
        return len(sorted_distinct(np.concatenate([index for index, _ in self.columns])))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct items of ``values``, in order, after sorting ``values``
    itself in place: pass a fresh array. A bare ``np.unique`` would import
    ``numpy.ma`` on its first call, about 0.5 MB of RSS."""
    values.sort()
    distinct = np.empty(len(values), bool)
    distinct[:1] = True
    np.not_equal(values[1:], values[:-1], out=distinct[1:])
    return values[distinct]


def check_over(scores, pred_set: VideoPredictionSet, what: str) -> None:
    """Raise ValueError unless ``scores``, ``AgentScores`` or ``FusedScores``,
    are over ``pred_set`` itself, by identity: a set loaded again from the
    same file is another set."""
    if scores.pred_set is not pred_set:
        raise ValueError(f"{what} are over another prediction set")


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

