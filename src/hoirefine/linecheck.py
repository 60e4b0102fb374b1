"""The line-by-line check of a prediction or ground-truth file, which
reports why ``ingest``'s block loaders refused it: each record is decoded
strictly and checked by ``ingest._fields`` and the loader's rules as it is
read, so the first record that breaks a rule raises its error at its line.
The loaders import this module only when they refuse a file.
"""

from __future__ import annotations

import json
from typing import Optional

from .ingest import (
    _FLOAT_MAX,
    INTEGER,
    NUMBER,
    STRING,
    DanglingReferenceError,
    ParseError,
    _fields,
    _records,
    _tracked,
)
from .model import RelationVocabulary, VideoPredictionSet


def check_predictions(path: str, vocab: RelationVocabulary) -> None:
    """Raise the error of the first record of the prediction file ``path``
    that breaks a rule of ``ingest.load_predictions``; return if none does."""
    schema = {"frame_index": (INTEGER, None), "frame_w": (NUMBER, None),
              "frame_h": (NUMBER, None), "object_class": (STRING, None),
              "human_box": (NUMBER, 4), "object_box": (NUMBER, 4), "scores": (NUMBER, vocab.n),
              "pair_id": (INTEGER, 2), "video_id": (STRING, None), "score_scale": (STRING, None)}
    optional = frozenset({"pair_id", "video_id", "score_scale"})
    frames: dict[int, tuple[tuple[float, float], set]] = {}  # size and pair ids per frame
    video_id: Optional[str] = None
    score_scale: Optional[str] = None
    for lineno, rec in _records(path):
        if rec.get("pair_id", 0) is None:  # a null pair_id is an untracked pair
            del rec["pair_id"]
        fi, w, h, _, human_box, object_box, values, pid, vid, scale = _fields(
            path, lineno, rec, schema, optional)
        if vid is not None:
            if video_id is not None and vid != video_id:
                raise ParseError(path, lineno, f"video_id {vid!r} differs from earlier "
                                               f"{video_id!r}; one video per file")
            video_id = vid
        scale = "base" if scale is None else scale
        if scale not in ("base", "fused"):
            raise ParseError(path, lineno, f"score_scale must be \"base\" or \"fused\", "
                                           f"not {json.dumps(scale)}")
        if score_scale is not None and scale != score_scale:
            raise ParseError(path, lineno, f"score_scale {scale!r} differs from earlier "
                                           f"{score_scale!r}; one scale per file")
        score_scale = scale

        if not 0 <= fi < 2**63:
            raise ParseError(path, lineno, f"frame_index {fi} out of [0, 2**63)")
        size = (float(w), float(h))
        if max(size) > _FLOAT_MAX:
            raise ParseError(path, lineno, f"frame size {size} out of float range")
        frame_size, frame_pairs = frames.setdefault(fi, (size, set()))
        if size != frame_size:
            raise ParseError(path, lineno, f"frame size {size} differs from earlier "
                                           f"{frame_size} of frame {fi}")
        if pid is not None:
            if (pid := tuple(pid)) in frame_pairs:
                raise ParseError(path, lineno, f"duplicate pair_id {pid} in frame {fi}")
            frame_pairs.add(pid)
        if min(values) < 0.0 or max(values) > (1.0 if scale == "base" else _FLOAT_MAX):
            raise ParseError(path, lineno, f"scores {values} out of "
                                           f"{'[0,1]' if scale == 'base' else '[0,inf)'}")
        _box(path, lineno, "human_box", human_box, size)
        _box(path, lineno, "object_box", object_box, size)


def _box(path: str, lineno: int, name: str, values: list, size: tuple) -> None:
    """Unless the four numbers ``values`` are x1 < x2 and y1 < y2, inside
    the frame of ``size``, raise ParseError."""
    x1, y1, x2, y2 = map(float, values)
    if not (x1 < x2 and y1 < y2):
        raise ParseError(path, lineno, f"degenerate {name} {[x1, y1, x2, y2]}")
    if x1 < 0 or y1 < 0 or x2 > size[0] or y2 > size[1]:
        raise ParseError(path, lineno, f"{name} {[x1, y1, x2, y2]} outside the frame {size}")


def check_ground_truth(path: str, predictions: VideoPredictionSet) -> None:
    """Raise the error of the first record of the ground-truth file ``path``
    that breaks a rule of ``ingest.load_ground_truth``; return if none does."""
    n, pair_ids = predictions.vocabulary.n, predictions.pair_ids
    codes, position, keys, _ = _tracked(predictions)
    known = set(keys.tolist())
    schema = {"frame_index": (INTEGER, None), "pair_id": (INTEGER, 2),
              "relation_index": (INTEGER, None)}
    for lineno, rec in _records(path):
        fi, pid, rel = _fields(path, lineno, rec, schema)
        if not 0 <= rel < n:
            raise ParseError(path, lineno, f"relation_index {rel} out of range "
                                           f"(vocabulary size {n})")
        code, j = codes.get(pid := tuple(pid)), position.get(fi)
        if code is None or j is None or j * len(pair_ids) + code not in known:
            raise DanglingReferenceError(
                f"{path}:{lineno}: pair {pid} not predicted at frame {fi}"
            )
