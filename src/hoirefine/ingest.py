"""File I/O for predictions, ground truth and vocabularies, plus the
triplet-to-text serialization shared by every prompt.

Predictions and ground truth are line-delimited JSON, one record per line.
Relation vocabularies are plain text, one relation name per line (index =
line number). Labels are lower-cased at load time so prompt text is stable
across datasets that mix cases.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

from .model import (
    BoundingBox,
    FramePrediction,
    GroundTruthSet,
    PairPrediction,
    RelationVocabulary,
    VideoPredictionSet,
    validate_prediction_set,
)


class IngestError(ValueError):
    pass


class ParseError(IngestError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class ValidationError(IngestError):
    pass


class DanglingReferenceError(IngestError):
    pass


def load_vocabulary(path: str) -> RelationVocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        names = [line.strip().lower() for line in fh if line.strip()]
    return RelationVocabulary(tuple(names))


def triplet_to_text(pair: PairPrediction, relation_index: int, vocab: RelationVocabulary) -> str:
    """Canonical triplet serialization: ``<person,RELATION,OBJECT>`` with
    lowercase labels and no whitespace after commas."""
    if not 0 <= relation_index < vocab.n:
        raise IndexError(f"relation index {relation_index} out of range")
    relation = vocab.names[relation_index].lower()
    obj = pair.object_class.lower()
    return f"<person,{relation},{obj}>"


def _parse_box(raw, path, lineno) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(path, lineno, f"box must be [x1,y1,x2,y2], got {raw!r}")
    try:
        return BoundingBox(*(float(v) for v in raw))
    except (TypeError, ValueError):
        raise ParseError(path, lineno, f"non-numeric box coordinates: {raw!r}") from None


def load_predictions(path: str, vocab: RelationVocabulary) -> VideoPredictionSet:
    """Load a line-delimited prediction file.

    Raises ParseError with a line/field location on malformed input or on
    the first record whose ``video_id`` differs from an earlier record's,
    and ValidationError (carrying the first violation) if the parsed set
    breaks a structural invariant.
    """
    frames: dict[int, dict] = {}
    video_id: Optional[str] = None
    score_scale = "base"
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, lineno, f"invalid JSON: {exc}") from None
            for field in ("frame_index", "frame_w", "frame_h", "object_class",
                          "human_box", "object_box", "scores"):
                if field not in rec:
                    raise ParseError(path, lineno, f"missing field {field!r}")
            vid = rec.get("video_id", video_id)
            if video_id is not None and vid != video_id:
                raise ParseError(path, lineno, f"video_id {vid!r} differs from earlier "
                                               f"{video_id!r}; one video per file")
            video_id = vid
            if rec.get("score_scale") == "fused":
                score_scale = "fused"
            fi = rec["frame_index"]
            if not isinstance(fi, int):
                raise ParseError(path, lineno, f"frame_index must be an integer, got {fi!r}")
            scores = rec["scores"]
            if not isinstance(scores, list) or not all(
                isinstance(s, (int, float)) and not isinstance(s, bool) for s in scores
            ):
                raise ParseError(path, lineno, "field 'scores' must be a list of numbers")
            raw_pid = rec.get("pair_id")
            pid: Optional[tuple[int, int]] = None
            if raw_pid is not None:
                if not (isinstance(raw_pid, (list, tuple)) and len(raw_pid) == 2):
                    raise ParseError(path, lineno, f"pair_id must be [human_id, object_id], got {raw_pid!r}")
                pid = (int(raw_pid[0]), int(raw_pid[1]))
            pair = PairPrediction(
                frame_index=fi,
                pair_id=pid,
                object_class=str(rec["object_class"]).lower(),
                human_box=_parse_box(rec["human_box"], path, lineno),
                object_box=_parse_box(rec["object_box"], path, lineno),
                scores=tuple(float(s) for s in scores),
            )
            slot = frames.setdefault(fi, {"w": float(rec["frame_w"]), "h": float(rec["frame_h"]), "pairs": []})
            slot["pairs"].append(pair)

    frame_objs = tuple(
        FramePrediction(
            frame_index=fi,
            frame_width=frames[fi]["w"],
            frame_height=frames[fi]["h"],
            pairs=tuple(frames[fi]["pairs"]),
        )
        for fi in sorted(frames)
    )
    pred_set = VideoPredictionSet(
        video_id="" if video_id is None else video_id, vocabulary=vocab,
        frames=frame_objs, score_scale=score_scale,
    )
    violations = validate_prediction_set(pred_set)
    if violations:
        raise ValidationError(f"{path}: {violations[0]}")
    return pred_set


def load_ground_truth(path: str, predictions: VideoPredictionSet) -> GroundTruthSet:
    """Load ground truth and cross-check every triplet against the prediction
    set: each GT pair must exist among that frame's predicted pairs."""
    n = predictions.vocabulary.n
    known: dict[int, set] = {}
    for frame, pair in predictions.iter_pairs():
        if pair.pair_id is not None:
            known.setdefault(frame.frame_index, set()).add(pair.pair_id)

    frames: dict[int, set] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, lineno, f"invalid JSON: {exc}") from None
            try:
                fi = int(rec["frame_index"])
                pid = (int(rec["pair_id"][0]), int(rec["pair_id"][1]))
                rel = int(rec["relation_index"])
            except (KeyError, TypeError, ValueError):
                raise ParseError(path, lineno, f"malformed ground-truth record: {line}") from None
            if not 0 <= rel < n:
                raise IngestError(
                    f"{path}:{lineno}: relation_index {rel} out of range (vocabulary size {n})"
                )
            if pid not in known.get(fi, set()):
                raise DanglingReferenceError(
                    f"{path}:{lineno}: pair {pid} not predicted at frame {fi}"
                )
            frames.setdefault(fi, set()).add((pid, rel))
    return GroundTruthSet({fi: frozenset(s) for fi, s in frames.items()})


def write_predictions(pred_set: VideoPredictionSet, fused: dict, path: str) -> None:
    """Write the set with fused scores in place of the base scores.

    ``fused`` maps (frame_index, pair_key, relation_index) -> fused score and
    must cover every slot. Fused scores can exceed 1 (no clipping happens in
    fusion), so the records are tagged ``score_scale: fused`` and the loader
    relaxes the upper bound for them. Scores round-trip bit-exactly through
    JSON's shortest-repr float encoding.
    """
    from .model import pair_key as _pair_key

    lines = []
    for frame in pred_set.frames:
        for i, pair in enumerate(frame.pairs):
            pkey = _pair_key(pair, i)
            scores = []
            for r in range(pred_set.vocabulary.n):
                key = (frame.frame_index, pkey, r)
                if key not in fused:
                    raise KeyError(f"fused table missing entry {key}")
                scores.append(fused[key])
            rec = {
                "video_id": pred_set.video_id,
                "frame_index": frame.frame_index,
                "frame_w": frame.frame_width,
                "frame_h": frame.frame_height,
                "pair_id": list(pair.pair_id) if pair.pair_id is not None else None,
                "object_class": pair.object_class,
                "human_box": [pair.human_box.x1, pair.human_box.y1, pair.human_box.x2, pair.human_box.y2],
                "object_box": [pair.object_box.x1, pair.object_box.y1, pair.object_box.x2, pair.object_box.y2],
                "scores": scores,
                "score_scale": "fused",
            }
            lines.append(json.dumps(rec, sort_keys=True))
    tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    os.replace(tmp, path)
