"""File I/O for predictions, ground truth and vocabularies, plus the
triplet-to-text serialization shared by every prompt.

Predictions and ground truth are line-delimited JSON, one object per line;
relation vocabularies are plain text, one relation name per line (index =
line number). Labels are lower-cased at load time so prompt text is stable
across datasets that mix cases. Prediction and ground-truth files are read
a block of lines at a time: a block is decoded as one JSON array with no
number or object hook, and its records are checked together, their numbers
as small arrays, before they are appended to the set's buffers. A file that
breaks a rule is then checked line by line (``linecheck``), by one type
rule and a strict decode, which raises ParseError at ``path:line`` for its
first bad line; no set is built that way. A prediction file is loaded straight into its set's
columns: each block's numbers are appended to ``array('d')`` buffers, which
become the float64 score and box columns, and each label and pair id is
held once, as the code its rows refer to; no per-record object is built. A
loaded ground truth is held as the slots of its prediction set that it
names, one int64 array.
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
from collections import Counter
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .model import (
    FusedScores,
    GroundTruthSet,
    PairPrediction,
    RelationVocabulary,
    VideoPredictionSet,
    check_over,
    sorted_distinct,
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


def _decoder():
    """A JSON decoder of one's own whose hooks refuse ``NaN``, the
    infinities, a number beyond float range and a key given twice."""
    return json.JSONDecoder(parse_float=_in_range(float), parse_int=_in_range(int),
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


_PLAIN = json.JSONDecoder().raw_decode  # no hook: the JSON scanner at its own speed
_BLOCK = 64  # lines decoded as one JSON array


def _blocks(path: str) -> Iterator[tuple[list, list, Optional[int]]]:
    """``_lines(path)`` a block of ``_BLOCK`` at a time, with the block's
    records and the count of double quotes in its lines. A block is decoded
    as one JSON array with no hook, so a record may hold ``NaN``, an
    infinity (for ``1e400``), an integer beyond float range or the last
    value of a key given twice; the caller refuses each, the last by
    ``_keys_once``. Where that decode is unsound, each line is decoded by
    ``_decode`` and the count is None: where a quote follows a backslash,
    so it may be no delimiter, where ``true`` or ``false`` appears (numpy
    reads a bool among numbers as a number), where a line does not end in
    ``}``, or where the array holds other than one object per line. As no
    string holds the line break that joins two lines, each line then holds
    one record, unless a record holds an object, which the caller refuses."""
    lines, strict = _lines(path), _decoder()
    while block := list(islice(lines, _BLOCK)):
        texts = [line for _, line in block]
        text, records = ",\n".join(texts), None
        if ({line[-1] for line in texts} == {"}"} and '\\"' not in text
                and "true" not in text and "false" not in text):
            with contextlib.suppress(ValueError):
                records, end = _PLAIN(f"[{text}]")
                if (end, len(records), set(map(type, records))) != (len(text) + 2, len(block), {dict}):
                    records = None
        if records is None:
            yield block, [_decode(path, lineno, line, strict) for lineno, line in block], None
        else:
            yield block, records, text.count('"')


def _keys_once(records: list, quotes: Optional[int], strings: int) -> bool:
    """Whether no record of a block of ``_blocks`` holding ``quotes`` double
    quotes was given a key twice: with no escaped quote, each key and each
    of the ``strings`` string values is two of them, and a key given twice,
    or a string held elsewhere, adds more. A block decoded line by line
    refused a key given twice as it was read."""
    return quotes is None or quotes == 2 * (sum(map(len, records)) + strings)


def _in_float_range(flat: list, types: set) -> bool:
    """Whether each of ``flat`` is of one of ``types`` and none lies beyond
    float range."""
    return types.issuperset(map(type, flat)) and (
        not flat or -_FLOAT_MAX <= min(flat) and max(flat) <= _FLOAT_MAX)


def _floats(values: Iterable, shape: tuple, exact: bool) -> np.ndarray:
    """The JSON numbers ``values`` (or lists of them) as a float64 array of
    ``shape``, or ValueError: for a string, list or object among them, an
    integer beyond float range or, where ``exact``, a bool. ``NaN`` and an
    infinity may pass."""
    numbers = np.array(values)
    if exact or numbers.dtype.kind not in "fiu":  # a bool, or an integer beyond int64
        if not _in_float_range(list(chain.from_iterable(values) if len(shape) > 1 else values),
                               {int, float}):
            raise ValueError("not numbers within float range")
        numbers = np.array(values, float)
    if numbers.shape != shape:
        raise ValueError(f"shape {numbers.shape}, not {shape}")
    return numbers.astype(float, copy=False)


def _check_pair_ids(ids: Iterable) -> None:
    """Unless each of ``ids`` is a list of two integers within float range,
    raise ValueError."""
    if (set(map(type, ids)) - {list} or set(map(len, ids)) - {2}
            or not _in_float_range(list(chain.from_iterable(ids)), {int})):
        raise ValueError("a pair id not of two integers within float range")


def _in_blocks(load: Callable, check: str, path: str, *args):
    """``load(path, *args)``, which reads the file in blocks. Where it
    refuses the file, ``linecheck``'s ``check`` reads it line by line and
    raises the error of its first bad line; that module is compiled only
    then."""
    try:
        return load(path, *args)
    except (ValueError, TypeError, OverflowError) as exc:  # ParseError is a ValueError
        from . import linecheck

        getattr(linecheck, check)(path, *args)
        raise RuntimeError(f"{path}: refused in blocks but not line by line") from exc


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
    """Load a line-delimited prediction file. A record holds
    ``frame_index`` (an integer in [0, 2**63)), the numbers ``frame_w`` and
    ``frame_h``, the string ``object_class``, ``human_box`` and
    ``object_box`` (four numbers x1 < x2, y1 < y2 inside the frame) and
    ``scores`` (a number in [0,1] per relation). Optional are ``pair_id``
    (two integers, unique in the frame), ``video_id`` (a string) and
    ``score_scale`` ("base" or "fused"; a fused score may exceed 1); these
    two and each frame's size must agree with earlier records. The records
    are checked a block at a time (``_blocks``), and a pair id twice in a
    frame by the set itself. A file that breaks a rule is checked line by
    line, which raises ParseError at the first record with another key or
    that breaks a rule. Frames come out sorted by index, each frame's pairs
    in file order."""
    return _in_blocks(_prediction_blocks, "check_predictions", path, vocab)


_PREDICTION_FIELDS = ("frame_index", "frame_w", "frame_h", "object_class",
                      "human_box", "object_box", "scores")
_REQUIRED = frozenset(_PREDICTION_FIELDS)
_TEXTS = frozenset({"video_id", "score_scale"})  # optional string fields, besides pair_id
_prediction_row = itemgetter(*_PREDICTION_FIELDS)


def _prediction_blocks(path: str, vocab: RelationVocabulary) -> VideoPredictionSet:
    """``load_predictions`` a block of records at a time; ValueError,
    TypeError or OverflowError for a file that breaks a rule."""
    n = vocab.n
    sizes: dict = {}  # each frame index to its (width, height)
    video_id: Optional[str] = None
    score_scale: Optional[str] = None
    # per row, in file order: its scores, boxes, frame index, pair code and class code
    scores, boxes, row_frame = array("d"), array("d"), array("q")
    pair_code, class_code = array("i"), array("i")
    pair_ids: dict = {}  # each distinct pair id to its code
    classes: dict = {}  # each label, as given or lower-cased, to the code of its lower case
    labels: list[str] = []
    for _, records, quotes in _blocks(path):
        m = strings = len(records)  # one object_class per record
        for names, count in Counter(map(tuple, records)).items():
            if not _REQUIRED <= frozenset(names) <= _REQUIRED | _TEXTS | {"pair_id"}:
                raise ValueError(f"fields {names}")
            strings += count * len(_TEXTS.intersection(names))
        if not _keys_once(records, quotes, strings):
            raise ValueError("a key given twice")
        fi, w, h, object_class, human, obj, values = zip(*map(_prediction_row, records))
        pid = [rec.get("pair_id") for rec in records]
        (scale,) = {rec.get("score_scale", "base") for rec in records}
        vid = {rec.get("video_id", _ABSENT) for rec in records} - {_ABSENT}
        if vid:
            (vid,) = vid
            if type(vid) is not str or video_id not in (None, vid):
                raise ValueError("video_id")
            video_id = vid
        if scale not in ("base", "fused") or score_scale not in (None, scale):
            raise ValueError("score_scale")
        score_scale = scale
        if (set(map(type, fi)) != {int} or not 0 <= min(fi) <= max(fi) < 2**63
                or set(map(type, object_class)) != {str}):
            raise ValueError("frame_index or object_class")
        _check_pair_ids([p for p in pid if p is not None])

        exact = quotes is None
        size = _floats(w + h, (2 * m,), exact)
        box = np.concatenate((_floats(human, (m, 4), exact), _floats(obj, (m, 4), exact)), 1)
        values = _floats(values, (m, n), exact)
        corners = box.reshape(m, 2, 2, 2)  # per pair and box, its (x1, y1) and (x2, y2)
        low, high = corners[:, :, 0], corners[:, :, 1]
        if not (np.isfinite(size).all() and (low < high).all() and (low >= 0).all()
                and (high <= size.reshape(2, m).T[:, None]).all()
                and values.min() >= 0 and values.max() <= (1.0 if scale == "base" else _FLOAT_MAX)):
            raise ValueError("a frame size, box or score")
        width, height = size.reshape(2, m).tolist()
        frame_sizes = dict(zip(fi, zip(width, height)))
        if len(frame_sizes) != len(set(zip(fi, width, height))) or any(
                sizes.setdefault(f, s) != s for f, s in frame_sizes.items()):
            raise ValueError("a frame of two sizes")

        for label in dict.fromkeys(object_class):
            if label not in classes:
                lower = label.lower()
                if lower not in classes:
                    classes[lower] = len(labels)
                    labels.append(lower)
                classes[label] = classes[lower]
        class_code.extend(map(classes.__getitem__, object_class))
        pair_code.extend([-1 if p is None else pair_ids.setdefault(tuple(p), len(pair_ids))
                          for p in pid])
        row_frame.extend(fi)
        scores.frombytes(values.tobytes())
        boxes.frombytes(box.tobytes())
    columns = [np.frombuffer(column, dtype) for column, dtype in (
        (scores, np.float64), (boxes, np.float64), (pair_code, np.intc), (class_code, np.intc))]
    row_frame = np.frombuffer(row_frame, np.int64)
    if np.any(row_frame[1:] < row_frame[:-1]):  # frames given out of order: a stable sort
        order = np.argsort(row_frame, kind="stable")
        row_frame = row_frame[order]
        columns = [column.reshape(len(order), -1)[order].ravel() for column in columns]
    index = np.array(sorted(sizes), np.int64)
    return VideoPredictionSet(
        "" if video_id is None else video_id, vocab,
        frame_index=index, frame_size=[sizes[fi] for fi in index.tolist()],
        row_start=np.append(np.searchsorted(row_frame, index), len(row_frame)),
        pair_code=columns[2], pair_ids=pair_ids, class_code=columns[3], labels=labels,
        scores=columns[0].reshape(-1, vocab.n), boxes=columns[1].reshape(-1, 8),
        score_scale=score_scale or "base",
    )


def load_ground_truth(path: str, predictions: VideoPredictionSet) -> GroundTruthSet:
    """Load ground truth and cross-check every triplet against the prediction
    set. A record holds the integers ``frame_index`` and ``relation_index``
    (< the vocabulary size) and ``pair_id``, two integers. The records are
    checked a block at a time (``_blocks``). A file that breaks a rule is
    checked line by line: a record with another key, or that breaks a
    rule, raises ParseError at its line, and one whose pair is not
    predicted in that frame DanglingReferenceError. Each triplet is held as
    its slot of ``predictions`` (``GroundTruthSet``), a triplet given twice
    once."""
    return _in_blocks(_ground_truth_blocks, "check_ground_truth", path, predictions)


_GROUND_TRUTH_FIELDS = ("frame_index", "pair_id", "relation_index")
_GROUND_TRUTH_KEYS = frozenset(_GROUND_TRUTH_FIELDS)
_ground_truth_row = itemgetter(*_GROUND_TRUTH_FIELDS)


def _tracked(predictions: VideoPredictionSet) -> tuple[dict, dict, np.ndarray, np.ndarray]:
    """The code of each pair id of ``predictions``, the position of each of
    its frame indices and, for its tracked rows, their (frame position,
    pair code) as one integer, ``position * len(pair_ids) + code``, sorted,
    with the row of each."""
    rows = np.flatnonzero(predictions.pair_code >= 0)
    keys = predictions.frame_rank()[rows] * len(predictions.pair_ids) + predictions.pair_code[rows]
    order = np.argsort(keys, kind="stable")
    return ({pair_id: code for code, pair_id in enumerate(predictions.pair_ids)},
            {fi: j for j, fi in enumerate(predictions.frame_indices())}, keys[order], rows[order])


def _ground_truth_blocks(path: str, predictions: VideoPredictionSet) -> GroundTruthSet:
    """``load_ground_truth`` a block of records at a time; ValueError or
    TypeError for a file that breaks a rule."""
    n = predictions.vocabulary.n
    codes, position, keys, rows = _tracked(predictions)
    # per row: the position of its frame in the set, its pair code and its relation
    columns = array("q"), array("q"), array("q")
    for _, records, quotes in _blocks(path):
        if ({frozenset(names) for names in set(map(tuple, records))} != {_GROUND_TRUTH_KEYS}
                or not _keys_once(records, quotes, 0)):
            raise ValueError("fields, or a key given twice")
        fi, pid, rel = zip(*map(_ground_truth_row, records))
        _check_pair_ids(pid)
        if set(map(type, fi + rel)) != {int} or not 0 <= min(rel) <= max(rel) < n:
            raise ValueError("frame_index or relation_index")
        frame, code = list(map(position.get, fi)), list(map(codes.get, map(tuple, pid)))
        if None in frame or None in code:
            raise ValueError("a frame or pair not predicted")
        for column, values in zip(columns, (frame, code, rel)):
            column.extend(values)
    frame, code, rel = (np.frombuffer(column, np.int64) for column in columns)
    pair = frame * len(predictions.pair_ids) + code
    at = np.searchsorted(keys, pair)
    if np.any(at == len(keys)) or np.any(keys[at] != pair):
        raise ValueError("a pair not predicted in its frame")
    return GroundTruthSet(predictions, sorted_distinct(rows[at] * n + rel))


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

    ``fused`` is ``pipeline.fuse_table``'s column over ``pred_set`` itself
    (a column over another set raises ValueError): a slot is an index of
    the set's score column, so row ``j`` of it holds the scores of the
    set's ``j``-th pair in frame order. Fused scores can exceed 1 (no
    clipping happens in fusion), so the records are tagged ``score_scale:
    fused`` and the loader relaxes the upper bound for them. Each line is
    formatted from the column's row as ``json.dumps(record, sort_keys=True)``
    would write it, so scores round-trip bit-exactly through JSON's
    shortest-repr float encoding. The file is streamed through
    ``write_atomic`` one frame at a time, so neither the whole text nor
    every row is held at once.
    """
    check_over(fused, pred_set, "fused scores")
    write_atomic(path, _frame_lines(pred_set, fused.column))


def _frame_lines(pred_set: VideoPredictionSet, column) -> Iterator[str]:
    """Per frame of ``pred_set``, its lines with the scores of ``column``,
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
                   column[begin * n:end * n].reshape(-1, n).tolist())
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
