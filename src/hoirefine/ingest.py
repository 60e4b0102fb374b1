"""File I/O for predictions, ground truth and vocabularies, plus the
triplet-to-text serialization shared by every prompt.

Predictions and ground truth are line-delimited JSON, one object per line;
relation vocabularies are plain text, one relation name per line (index =
line number). Every file is read by one reader and every value checked by
one type rule, in the same pass, so each rejected input raises ParseError
at ``path:line``. Labels are lower-cased at load time so prompt text is
stable across datasets that mix cases. A prediction file is loaded straight
into its set's columns: each line's numbers are appended to ``array('d')``
buffers, which become the float64 score and box columns, and each label and
pair id is held once, as the code its rows refer to; no per-record object
is built. A loaded ground truth shares its prediction set's pair-id objects
and holds each distinct triplet and frame set once.
Refined predictions are written from the fused-score column and the set's
own columns, one formatted line per pair, each the bytes
``json.dumps(record, sort_keys=True)`` gives, and streamed to the file a
frame at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import threading
from array import array
from typing import Iterable, Iterator, Optional

import numpy as np

from .model import (
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


def _lines(path: str, data: Optional[bytes] = None) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of the file at ``path`` that holds
    more than JSON whitespace (space, tab, LF, CR), stripped of it and
    streamed from the file or from its bytes ``data`` when given. A line
    that is not UTF-8 raises ParseError there."""
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\n\r")  # JSON's whitespace only
            except UnicodeDecodeError as exc:
                raise ParseError(path, lineno, f"not UTF-8: {exc.reason}") from None
            if line:
                yield lineno, line


def _decoder(parse_float=_in_range(float)):
    """A JSON decoder of one's own whose ``_in_range`` hooks parse the
    numbers; ``float`` as ``parse_float`` reads a float beyond float range
    as an infinity, at the JSON scanner's own speed."""
    return json.JSONDecoder(parse_float=parse_float, parse_int=_in_range(int),
                            parse_constant=_no_constant, object_pairs_hook=_unique_keys).raw_decode


def _decode(path: str, lineno: int, line: str, decode) -> dict:
    """The record of ``line``, line ``lineno`` of ``path``, by ``decode``. A
    line that is not JSON (a no-break space or form feed is no JSON
    whitespace), that holds ``NaN``, ``Infinity``, a number beyond float
    range or a key given twice in one object, or whose value is not a JSON
    object, raises ParseError there."""
    try:
        rec, end = decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except ValueError as exc:
        raise ParseError(path, lineno, f"invalid JSON: {exc}") from None
    if type(rec) is not dict:
        raise ParseError(path, lineno, f"record must be a JSON object, not {line}")
    return rec


def _records(path: str, data: Optional[bytes] = None) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each of ``_lines(path, data)``, checked by
    ``_decode``."""
    decode = _decoder()
    for lineno, line in _lines(path, data):
        yield lineno, _decode(path, lineno, line, decode)


# JSON types by exact Python type, so a bool is no integer and no number
INTEGER = ("an integer", frozenset({int}))
NUMBER = ("a number", frozenset({int, float}))
STRING = ("a string", frozenset({str}))
BOOLEAN = ("a boolean", frozenset({bool}))


_ABSENT = object()


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
        value = rec.get(name, _ABSENT)
        if value is _ABSENT:
            if name not in optional:
                raise ParseError(path, lineno, f"missing field {name!r}")
            value = None
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
    return label_triplet(pair.object_class, relation_index, vocab)


def label_triplet(object_class: str, relation_index: int, vocab: RelationVocabulary) -> str:
    """``triplet_to_text`` of any pair whose object class is ``object_class``."""
    if not 0 <= relation_index < vocab.n:
        raise IndexError(f"relation index {relation_index} out of range")
    relation = vocab.names[relation_index].lower()
    return f"<person,{relation},{object_class.lower()}>"


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
    frames: dict[int, tuple[tuple[float, float], set]] = {}  # size and pair codes per frame
    video_id: Optional[str] = None
    score_scale: Optional[str] = None
    # per row, in file order: its scores, boxes, frame index, pair code and class code
    scores, boxes, row_frame = array("d"), array("d"), array("q")
    pair_code, class_code = array("i"), array("i")
    pair_ids: dict = {}  # each distinct pair id to its code
    classes: dict = {}  # each label, as given or lower-cased, to the code of its lower case
    labels: list[str] = []
    strict, fast = _decoder(), _decoder(float)
    for lineno, line in _lines(path):
        try:
            rec = _decode(path, lineno, line, fast)
            if rec.get("pair_id", 0) is None:  # a null pair_id is an untracked pair
                del rec["pair_id"]
            fi, w, h, object_class, human_box, object_box, values, pid, vid, scale = _fields(
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
            frame_size, frame_codes = frames.setdefault(fi, (size, set()))
            if size != frame_size:
                raise ParseError(path, lineno, f"frame size {size} differs from earlier "
                                               f"{frame_size} of frame {fi}")
            code = -1
            if pid is not None:
                code = pair_ids.setdefault(pid := tuple(pid), len(pair_ids))
                if code in frame_codes:
                    raise ParseError(path, lineno, f"duplicate pair_id {pid} in frame {fi}")
                frame_codes.add(code)
            if min(values) < 0.0 or max(values) > (1.0 if scale == "base" else _FLOAT_MAX):
                raise ParseError(path, lineno, f"scores {values} out of "
                                               f"{'[0,1]' if scale == 'base' else '[0,inf)'}")
            boxes.extend(_box(path, lineno, "human_box", human_box, size))
            boxes.extend(_box(path, lineno, "object_box", object_box, size))
            scores.extend(values)
            row_frame.append(fi)
            pair_code.append(code)
            label = classes.get(object_class)
            if label is None:
                lower = object_class.lower()
                if lower not in classes:
                    classes[lower] = len(labels)
                    labels.append(lower)
                label = classes[object_class] = classes[lower]
            class_code.append(label)
        except ParseError:
            # ``fast`` reads a number beyond float range as an infinity, which
            # breaks a rule above; the strict read refuses the number first,
            # as it refuses the line's other JSON errors
            _decode(path, lineno, line, strict)
            raise
    columns = [np.frombuffer(column, dtype) for column, dtype in (
        (scores, np.float64), (boxes, np.float64), (pair_code, np.intc), (class_code, np.intc))]
    row_frame = np.frombuffer(row_frame, np.int64)
    if np.any(row_frame[1:] < row_frame[:-1]):  # frames given out of order: a stable sort
        order = np.argsort(row_frame, kind="stable")
        row_frame = row_frame[order]
        columns = [column.reshape(len(order), -1)[order].ravel() for column in columns]
    index = np.array(sorted(frames), np.int64)
    return VideoPredictionSet(
        "" if video_id is None else video_id, vocab,
        frame_index=index, frame_size=[frames[fi][0] for fi in index.tolist()],
        row_start=np.append(np.searchsorted(row_frame, index), len(row_frame)),
        pair_code=columns[2], pair_ids=pair_ids, class_code=columns[3], labels=labels,
        scores=columns[0].reshape(-1, vocab.n), boxes=columns[1].reshape(-1, 8),
        score_scale=score_scale or "base",
    )


def _box(path: str, lineno: int, name: str, values: list, size: tuple) -> tuple:
    """The four numbers ``values`` as floats, converted once. Unless x1 <
    x2 and y1 < y2, inside the frame of ``size``, it raises ParseError."""
    x1, y1, x2, y2 = box = tuple(map(float, values))
    if not (x1 < x2 and y1 < y2):
        raise ParseError(path, lineno, f"degenerate {name} {[x1, y1, x2, y2]}")
    if x1 < 0 or y1 < 0 or x2 > size[0] or y2 > size[1]:
        raise ParseError(path, lineno, f"{name} {[x1, y1, x2, y2]} outside the frame {size}")
    return box


def load_ground_truth(path: str, predictions: VideoPredictionSet) -> GroundTruthSet:
    """Load ground truth and cross-check every triplet against the prediction
    set. A record holds the integers ``frame_index`` and ``relation_index``
    (< the vocabulary size) and ``pair_id``, two integers. A record with
    another key, or that breaks a rule, raises ParseError at its line, and
    one whose pair is not predicted in that frame DanglingReferenceError.
    Each pair id is the prediction set's own object, and equal triplets,
    and equal frame sets, are one object."""
    n, pair_ids = predictions.vocabulary.n, predictions.pair_ids
    codes = {pair_id: code for code, pair_id in enumerate(pair_ids)}
    position = {fi: j for j, fi in enumerate(predictions.frame_indices())}
    # the (frame position, pair code) of each tracked row, as one integer
    tracked = predictions.pair_code >= 0
    known = set((predictions.frame_rank()[tracked] * len(pair_ids)
                 + predictions.pair_code[tracked]).tolist())

    schema = {"frame_index": (INTEGER, None), "pair_id": (INTEGER, 2),
              "relation_index": (INTEGER, None)}
    frames: dict[int, set] = {}
    triplets: dict = {}
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
        frames.setdefault(fi, set()).add(
            triplets.setdefault(triplet := (pair_ids[code], rel), triplet))
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
    the fused column, taken from the columns frame by frame."""
    n, video_id = pred_set.vocabulary.n, json.dumps(pred_set.video_id)
    # each pair code's text; -1, an untracked pair's code, is the last
    pair_ids = [f"[{', '.join(map(repr, pid))}]" for pid in pred_set.pair_ids] + ["null"]
    labels = [json.dumps(label) for label in pred_set.labels]
    start = pred_set.row_start.tolist()
    for fi, (w, h), begin, end in zip(pred_set.frame_index.tolist(), pred_set.frame_size.tolist(),
                                      start, start[1:]):
        head = f'{{"frame_h": {_number(h)}, "frame_index": {fi}, "frame_w": {_number(w)}, '
        rows = zip(pred_set.pair_code[begin:end].tolist(), pred_set.class_code[begin:end].tolist(),
                   pred_set.boxes[begin:end].tolist(),
                   values[begin * n:end * n].reshape(-1, n).tolist())
        yield "".join(
            f'{head}"human_box": [{_numbers(box[:4])}], '
            f'"object_box": [{_numbers(box[4:])}], '
            f'"object_class": {labels[c]}, "pair_id": {pair_ids[p]}, '
            f'"score_scale": "fused", "scores": [{_numbers(scores)}], '
            f'"video_id": {video_id}}}\n'
            for p, c, box, scores in rows)


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
