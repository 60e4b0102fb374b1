"""Core domain types for per-frame human-object interaction predictions.

All types here are immutable after construction and safe to share across
concurrent pipeline stages. The rules a prediction file must follow are
checked where it is read, in ``ingest.load_predictions``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Optional

# (human_id, object_id); stable across frames when the upstream detector tracks
PairId = tuple[int, int]

CS = "cs"
SPATIAL = "spatial"
TEMPORAL = "temporal"
DEBATE = "debate"
SCORE_KINDS = (CS, SPATIAL, TEMPORAL, DEBATE)  # the order of fusion.fuse_scores' arguments


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


@dataclass(frozen=True)
class BoundingBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def as_int_list(self) -> list[int]:
        """Integer pixel serialization used in prompt text."""
        return [round(self.x1), round(self.y1), round(self.x2), round(self.y2)]


@dataclass(frozen=True)
class PairPrediction:
    """One human-object pair in one frame with its per-relation confidences."""

    frame_index: int
    object_class: str
    human_box: BoundingBox
    object_box: BoundingBox
    scores: tuple[float, ...]
    pair_id: Optional[PairId] = None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GroundTruthSet:
    """Per frame, the set of (pair_id, relation_index) positive triplets."""

    frames: dict[int, frozenset[tuple[PairId, int]]]


class AgentScoreTable:
    """Sparse map (frame_index, pair_key, relation_index) -> per-kind scores.

    Built by merging partial tables from agent batches; keys are disjoint per
    batch so the merge is associative and commutative.
    """

    def __init__(self):
        self._entries: dict[tuple, dict[str, float]] = {}

    def set(self, frame_index: int, pkey, relation_index: int, kind: str, score: float):
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} out of [0,1]")
        key = (frame_index, pkey, relation_index)
        self._entries.setdefault(key, {})[kind] = score

    def get(self, frame_index: int, pkey, relation_index: int, kind: str) -> Optional[float]:
        return self._entries.get((frame_index, pkey, relation_index), {}).get(kind)

    def kinds_at(self, frame_index: int, pkey, relation_index: int) -> dict[str, float]:
        return dict(self._entries.get((frame_index, pkey, relation_index), {}))

    def merge(self, other: "AgentScoreTable") -> "AgentScoreTable":
        for key, kinds in other._entries.items():
            self._entries.setdefault(key, {}).update(kinds)
        return self

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)


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

