"""File I/O for predictions, ground truth and vocabularies, plus the
triplet-to-text serialization shared by every prompt.

Predictions and ground truth are line-delimited JSON, one object per line;
relation vocabularies are plain text, one relation name per line (index =
line number). Every file is read by one reader and every value checked by
one type rule, in the same pass, so each rejected input raises ParseError
at ``path:line``. Labels are lower-cased at load time so prompt text is
stable across datasets that mix cases. A loaded prediction set holds each
distinct label and pair id of its file once, and each of the first
``_SHARED_KEYS`` distinct number texts once; a text first seen after those
is converted at each occurrence. A loaded ground truth shares its
prediction set's pair-id objects and holds each distinct triplet and frame
set once.
Refined predictions are written from the fused-score column, one formatted
line per pair, each the bytes ``json.dumps(record, sort_keys=True)`` gives,
and streamed to the file a frame at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import threading
from typing import Iterable, Iterator, Optional

from .model import (
    BoundingBox,
    FramePrediction,
    FusedScores,
    GroundTruthSet,
    PairPrediction,
    RelationVocabulary,
    VideoPredictionSet,
)


class IngestError(ValueError):
    pass


class ParseError(IngestError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class DanglingReferenceError(IngestError):
    pass


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_FLOAT_MAX = sys.float_info.max


def _in_range(parse):
    """A JSON number hook: ``parse`` of a number's text, which must lie
    within float range: ``1e400`` would be infinity, and a 400-digit
    integer has no float."""
    def hook(text: str):
        value = parse(text)
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return value
        raise ValueError(f"number {text if len(text) <= 24 else text[:20] + '...'} "
                         "is out of float range")
    return hook


def _unique_keys(pairs: list) -> dict:
    """A JSON object hook: the pairs as a dict, refusing a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# keys a ``_Shared`` holds at most: a base input's number texts repeat and
# stay below it (7,454 distinct at 800 frames), while a refined file's fused
# scores are nearly all distinct, so holding each would cost time and memory
# for a value read once
_SHARED_KEYS = 8192


class _Shared(dict):
    """``convert(key)`` for each key, computed on its first lookup and then
    held, so equal keys share one value object, until ``_SHARED_KEYS`` keys
    are held; a key first seen after that is converted on each lookup."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < _SHARED_KEYS:
            self[key] = value
        return value


def _records(path: str, data: Optional[bytes] = None,
             share: bool = True) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each line of the JSON-lines file at ``path``
    that holds more than JSON whitespace (space, tab, LF, CR), streamed from
    the file or from its bytes ``data`` when given, through a decoder of the
    file's own. Its ``_in_range`` hooks parse
    the numbers; with ``share``, equal number texts among the first
    ``_SHARED_KEYS`` distinct ones decode to one object (``-0.0`` and ``0.0``
    are two texts, ``1`` and ``1.0`` too), which pays where records repeat
    their numbers. A line that is not UTF-8 or not JSON
    (a no-break space or form feed is no JSON whitespace), that holds ``NaN``,
    ``Infinity``, a number beyond float range or a key given twice in one
    object, or whose value is not a JSON object, raises ParseError there."""
    parse_float, parse_int = _in_range(float), _in_range(int)
    if share:
        parse_float, parse_int = _Shared(parse_float).__getitem__, _Shared(parse_int).__getitem__
    decode = json.JSONDecoder(parse_float=parse_float, parse_int=parse_int,
                              parse_constant=_no_constant,
                              object_pairs_hook=_unique_keys).raw_decode
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\n\r")  # JSON's whitespace only
            except UnicodeDecodeError as exc:
                raise ParseError(path, lineno, f"not UTF-8: {exc.reason}") from None
            if not line:
                continue
            try:
                rec, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except ValueError as exc:
                raise ParseError(path, lineno, f"invalid JSON: {exc}") from None
            if type(rec) is not dict:
                raise ParseError(path, lineno, f"record must be a JSON object, not {line}")
            yield lineno, rec


# JSON types by exact Python type, so a bool is no integer and no number
INTEGER = ("an integer", frozenset({int}))
NUMBER = ("a number", frozenset({int, float}))
STRING = ("a string", frozenset({str}))
BOOLEAN = ("a boolean", frozenset({bool}))


def _fields(path: str, lineno: int, rec: dict, schema: dict,
            optional: frozenset = frozenset()) -> list:
    """The one type rule, one call per record: ``rec``'s values of the fields
    of ``schema``, which maps each to ``(kind, length)``: a value of JSON type
    ``kind``, or a list of ``length`` of them. None for an absent ``optional``
    field. A key outside ``schema``, then a missing field or a value of another
    type, raises ParseError at ``path:lineno``. Convert after this check."""
    if not rec.keys() <= schema.keys():
        raise ParseError(path, lineno, f"unknown field {min(rec.keys() - schema.keys())!r}")
    values = []
    for name, ((what, types), length) in schema.items():
        value = rec.get(name)
        if name not in rec:
            if name not in optional:
                raise ParseError(path, lineno, f"missing field {name!r}")
        elif type(value) not in types if length is None else not (
                type(value) is list and len(value) == length and types.issuperset(map(type, value))):
            what = what if length is None else f"a list of {length} values, each {what}"
            raise ParseError(path, lineno,
                             f"field {name!r} must be {what}, not {json.dumps(value)}")
        values.append(value)
    return values


def load_vocabulary(path: str) -> RelationVocabulary:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return RelationVocabulary(tuple(ln.strip().lower() for ln in fh if ln.strip()))
    except ValueError as exc:  # not UTF-8, or a relation name twice
        raise IngestError(f"{path}: {exc}") from None


def triplet_to_text(pair: PairPrediction, relation_index: int, vocab: RelationVocabulary) -> str:
    """Canonical triplet serialization: ``<person,RELATION,OBJECT>`` with
    lowercase labels and no whitespace after commas."""
    if not 0 <= relation_index < vocab.n:
        raise IndexError(f"relation index {relation_index} out of range")
    relation = vocab.names[relation_index].lower()
    obj = pair.object_class.lower()
    return f"<person,{relation},{obj}>"


def load_predictions(path: str, vocab: RelationVocabulary) -> VideoPredictionSet:
    """Load a line-delimited prediction file, checking each record in the
    pass that reads it. A record holds ``frame_index`` (an integer in
    [0, 2**63)), the numbers ``frame_w`` and ``frame_h``, the string
    ``object_class``, ``human_box`` and ``object_box`` (four numbers x1 <
    x2, y1 < y2 inside the frame) and ``scores`` (a number in [0,1] per
    relation). Optional are ``pair_id`` (two integers, unique in the frame),
    ``video_id`` (a string) and ``score_scale`` ("base" or "fused"; a fused
    score may exceed 1); these two and each frame's size must agree with
    earlier records. The first record with another key, or that breaks a
    rule, raises ParseError at its line. Frames come out sorted by index,
    each frame's pairs in file order."""
    schema = {"frame_index": (INTEGER, None), "frame_w": (NUMBER, None),
              "frame_h": (NUMBER, None), "object_class": (STRING, None),
              "human_box": (NUMBER, 4), "object_box": (NUMBER, 4), "scores": (NUMBER, vocab.n),
              "pair_id": (INTEGER, 2), "video_id": (STRING, None), "score_scale": (STRING, None)}
    optional = frozenset({"pair_id", "video_id", "score_scale"})
    frames: dict[int, tuple[tuple[float, float], list, set]] = {}
    video_id: Optional[str] = None
    score_scale: Optional[str] = None
    classes, pair_ids = _Shared(str.lower), {}  # one object per distinct label and pair_id
    for lineno, rec in _records(path):
        if rec.get("pair_id", 0) is None:  # a null pair_id is an untracked pair
            del rec["pair_id"]
        fi, w, h, object_class, *boxes, scores, pid, vid, scale = _fields(
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
        frame_size, pairs, frame_ids = frames.setdefault(fi, (size, [], set()))
        if size != frame_size:
            raise ParseError(path, lineno, f"frame size {size} differs from earlier "
                                           f"{frame_size} of frame {fi}")
        if pid is not None:
            pid = pair_ids.setdefault(pid := tuple(pid), pid)
            if pid in frame_ids:
                raise ParseError(path, lineno, f"duplicate pair_id {pid} in frame {fi}")
            frame_ids.add(pid)
        if min(scores) < 0.0 or (scale == "base" and max(scores) > 1.0):
            raise ParseError(path, lineno, f"scores {scores} out of "
                                           f"{'[0,1]' if scale == 'base' else '[0,inf)'}")
        pairs.append(PairPrediction(pair_id=pid, object_class=classes[object_class],
                                    human_box=_box(path, lineno, "human_box", boxes[0], size),
                                    object_box=_box(path, lineno, "object_box", boxes[1], size),
                                    scores=tuple(map(float, scores))))
    return VideoPredictionSet(
        video_id="" if video_id is None else video_id,
        vocabulary=vocab,
        frames=tuple(FramePrediction(fi, *frames[fi][0], tuple(frames[fi][1]))
                     for fi in sorted(frames)),
        score_scale=score_scale or "base",
    )


def _box(path: str, lineno: int, name: str, values: list, size: tuple) -> BoundingBox:
    """The box of the four numbers ``values``, converted once. Unless x1 <
    x2 and y1 < y2, inside the frame of ``size``, it raises ParseError."""
    x1, y1, x2, y2 = map(float, values)
    if not (x1 < x2 and y1 < y2):
        raise ParseError(path, lineno, f"degenerate {name} {[x1, y1, x2, y2]}")
    if x1 < 0 or y1 < 0 or x2 > size[0] or y2 > size[1]:
        raise ParseError(path, lineno, f"{name} {[x1, y1, x2, y2]} outside the frame {size}")
    return BoundingBox(x1, y1, x2, y2)


def load_ground_truth(path: str, predictions: VideoPredictionSet) -> GroundTruthSet:
    """Load ground truth and cross-check every triplet against the prediction
    set. A record holds the integers ``frame_index`` and ``relation_index``
    (< the vocabulary size) and ``pair_id``, two integers. A record with
    another key, or that breaks a rule, raises ParseError at its line, and
    one whose pair is not predicted in that frame DanglingReferenceError.
    Each pair id is the prediction set's own object, and equal triplets,
    and equal frame sets, are one object."""
    n = predictions.vocabulary.n
    known: dict[int, dict] = {}  # per frame, each pair id to itself
    for frame, pair in predictions.iter_pairs():
        if pair.pair_id is not None:
            known.setdefault(frame.frame_index, {})[pair.pair_id] = pair.pair_id

    schema = {"frame_index": (INTEGER, None), "pair_id": (INTEGER, 2),
              "relation_index": (INTEGER, None)}
    frames: dict[int, set] = {}
    triplets: dict = {}
    for lineno, rec in _records(path):
        fi, pid, rel = _fields(path, lineno, rec, schema)
        if not 0 <= rel < n:
            raise ParseError(path, lineno, f"relation_index {rel} out of range "
                                           f"(vocabulary size {n})")
        predicted = known.get(fi, {}).get(pid := tuple(pid))
        if predicted is None:
            raise DanglingReferenceError(
                f"{path}:{lineno}: pair {pid} not predicted at frame {fi}"
            )
        frames.setdefault(fi, set()).add(
            triplets.setdefault(triplet := (predicted, rel), triplet))
    sets: dict = {}  # each distinct frame set to itself
    return GroundTruthSet({fi: sets.setdefault(fs := frozenset(s), fs)
                           for fi, s in frames.items()})


def _number(x) -> str:
    """``x`` as ``JSONEncoder`` writes it: its repr, NaN and infinities by name."""
    return repr(x) if x - x == 0 else json.dumps(x)


def _numbers(values) -> str:
    """The items of the JSON list ``values``, as ``JSONEncoder`` writes them:
    only a NaN's or an infinity's repr holds an "n"."""
    text = ", ".join(map(repr, values))
    return ", ".join(map(_number, values)) if "n" in text else text


def write_predictions(pred_set: VideoPredictionSet, fused: FusedScores, path: str) -> None:
    """Write the set with fused scores in place of the base scores.

    ``fused`` is ``pipeline.fuse_table``'s column over ``pred_set``'s own
    layout (a column over another set raises ValueError); row ``j`` of it
    holds the scores of the set's ``j``-th pair in frame order. Fused scores can exceed 1 (no clipping happens in fusion),
    so the records are tagged ``score_scale: fused`` and the loader relaxes
    the upper bound for them. Each line is formatted from the column's row
    as ``json.dumps(record, sort_keys=True)`` would write it, so scores
    round-trip bit-exactly through JSON's shortest-repr float encoding. The
    file is streamed through ``write_atomic`` one frame at a time, so
    neither the whole text nor every row is held at once.
    """
    fused.layout.require(pred_set, "fused scores")
    write_atomic(path, _frame_lines(pred_set, fused.values))


def _frame_lines(pred_set: VideoPredictionSet, values) -> Iterator[str]:
    """Per frame of ``pred_set``, its lines with the scores of ``values``,
    the fused column, taken from the column frame by frame."""
    n, start, video_id = pred_set.vocabulary.n, 0, json.dumps(pred_set.video_id)
    for frame in pred_set.frames:
        end = start + len(frame.pairs) * n
        rows, start, lines = values[start:end].reshape(-1, n).tolist(), end, []
        head = (f'{{"frame_h": {_number(frame.frame_height)}, '
                f'"frame_index": {frame.frame_index}, "frame_w": {_number(frame.frame_width)}, ')
        for pair, scores in zip(frame.pairs, rows):
            h, o = pair.human_box, pair.object_box
            pair_id = "null" if pair.pair_id is None else f"[{', '.join(map(repr, pair.pair_id))}]"
            lines.append(
                f'{head}"human_box": [{_numbers((h.x1, h.y1, h.x2, h.y2))}], '
                f'"object_box": [{_numbers((o.x1, o.y1, o.x2, o.y2))}], '
                f'"object_class": {json.dumps(pair.object_class)}, "pair_id": {pair_id}, '
                f'"score_scale": "fused", "scores": [{_numbers(scores)}], '
                f'"video_id": {video_id}}}\n')
        yield "".join(lines)


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path``, in order, through a temporary
    file renamed into place, so a reader sees the old file or the whole new
    one, never part; pass one text as ``(text,)``. On any failure, raised
    by a write or by ``chunks`` itself, the temporary file is removed and
    the error re-raised."""
    tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
