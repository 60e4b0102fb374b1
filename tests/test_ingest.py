import json
import math
import os
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hoirefine import ingest, linecheck
from hoirefine.ingest import (
    DanglingReferenceError,
    IngestError,
    ParseError,
    load_ground_truth,
    load_predictions,
    load_vocabulary,
    triplet_to_text,
    write_predictions,
)
from hoirefine.model import FusedScores, RelationVocabulary

from conftest import PairRecord, make_pair, pack, slots_of


def write_lines(path, records):
    """One line per record: a dict as JSON, bytes as they are."""
    path.write_bytes(b"\n".join(r if isinstance(r, bytes) else json.dumps(r).encode()
                                 for r in records) + b"\n")


def record(frame=0, pair_id=(0, 1), obj="chair", scores=(0.5, 0.5, 0.5), **fields):
    return {
        "video_id": "v",
        "frame_index": frame,
        "frame_w": 640.0,
        "frame_h": 480.0,
        "pair_id": list(pair_id) if pair_id else None,
        "object_class": obj,
        "human_box": [10, 10, 50, 100],
        "object_box": [20, 40, 60, 90],
        "scores": list(scores),
        **fields,
    }


@pytest.fixture
def vocab(tmp_path):
    (tmp_path / "vocab.txt").write_text("Hold\nride\nSit On\n")
    return load_vocabulary(tmp_path / "vocab.txt")


def test_vocabulary_lowercased(vocab):
    assert vocab.names == ("hold", "ride", "sit on")


@pytest.mark.parametrize("text,message", [
    (b"hold\nride\nhold\n", "relation names must be unique"),
    (b"hold\nr\xffde\n", "can't decode byte 0xff"),
], ids=["duplicate", "not-utf8"])
def test_vocabulary_error_names_the_file(tmp_path, text, message):
    path = tmp_path / "vocab.txt"
    path.write_bytes(text)
    with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: .*{message}"):
        load_vocabulary(path)


class TestTripletToText:
    def test_sit_on_chair(self, vocab):
        pair = make_pair(object_class="chair")
        assert triplet_to_text(pair, 2, vocab) == "<person,sit on,chair>"

    def test_ride_bicycle(self, vocab):
        pair = make_pair(object_class="bicycle")
        assert triplet_to_text(pair, 1, vocab) == "<person,ride,bicycle>"

    def test_person_object_lowercased(self, vocab):
        pair = make_pair(object_class="Person")
        assert triplet_to_text(pair, 0, vocab) == "<person,hold,person>"

    def test_out_of_range(self, vocab):
        with pytest.raises(IndexError):
            triplet_to_text(make_pair(), 3, vocab)

    def test_injective_over_relation_object(self, vocab):
        texts = {
            triplet_to_text(make_pair(object_class=obj), r, vocab)
            for obj in ("chair", "table", "cup")
            for r in range(vocab.n)
        }
        assert len(texts) == 9


class TestLoadPredictions:
    def test_counts_preserved(self, tmp_path, vocab):
        records = [record(frame=f, pair_id=(0, o)) for f in range(3) for o in (1, 2)]
        write_lines(tmp_path / "p.jsonl", records)
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        assert len(pred_set.frames) == 3
        assert sum(len(f.pairs) for f in pred_set.frames) == 6

    def test_empty_file(self, tmp_path, vocab):
        (tmp_path / "p.jsonl").write_text("")
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        assert pred_set.frames == ()

    def test_malformed_score_field(self, tmp_path, vocab):
        bad = record()
        bad["scores"] = ["high", 0.2, 0.3]
        write_lines(tmp_path / "p.jsonl", [bad])
        with pytest.raises(ParseError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert "scores" in str(exc.value)

    def test_validation_error_names_rule(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(scores=(1.4, 0.2, 0.1))])
        with pytest.raises(ParseError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert "scores [1.4, 0.2, 0.1] out of [0,1]" in str(exc.value)

    def test_duplicate_pair_id_rejected(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(obj="chair"), record(obj="cup")])
        with pytest.raises(ParseError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert exc.value.line == 2
        assert "duplicate pair_id" in str(exc.value)

    def test_well_formed_two_frames(self, tmp_path, vocab):
        # untracked pairs carry no id, so any number of them may share a frame
        write_lines(tmp_path / "p.jsonl", [
            record(frame=0, pair_id=(0, 1)), record(frame=0, pair_id=(0, 2), obj="Cup"),
            record(frame=1, pair_id=(0, 1)), record(frame=1, pair_id=None),
            record(frame=1, pair_id=None)])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        assert pred_set.frame_indices() == [0, 1]
        assert [p.pair_id for p in pred_set.frames[1].pairs] == [(0, 1), None, None]
        assert pred_set.frames[0].pairs[1].object_class == "cup"

    def test_frames_load_sorted(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame=2), record(frame=0),
                                           record(frame=1), record(frame=0, pair_id=None)])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        assert pred_set.frame_indices() == [0, 1, 2]
        assert [p.pair_id for p in pred_set.frames[0].pairs] == [(0, 1), None]

    def test_fused_scale_relaxes_upper_bound(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame=f, scores=(2.3, 0.5, 0.2),
                                                  score_scale="fused") for f in (0, 1)])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        assert pred_set.score_scale == "fused"
        assert pred_set.frames[0].pairs[0].scores == (2.3, 0.5, 0.2)

    def test_crlf_line_ends_load_like_lf(self, tmp_path, vocab):
        records = [record(frame=0), record(frame=1, pair_id=None)]
        write_lines(tmp_path / "lf.jsonl", records)
        (tmp_path / "crlf.jsonl").write_bytes((tmp_path / "lf.jsonl").read_bytes()
                                              .replace(b"\n", b"\r\n"))
        assert (load_predictions(tmp_path / "crlf.jsonl", vocab)
                == load_predictions(tmp_path / "lf.jsonl", vocab))

    def test_json_whitespace_around_records_is_skipped(self, tmp_path, vocab):
        # space, tab, LF and CR are the whitespace JSON allows around a value
        records = [record(frame=0), record(frame=1, pair_id=None)]
        write_lines(tmp_path / "lf.jsonl", records)
        write_lines(tmp_path / "spaced.jsonl", [b" \t" + json.dumps(r).encode() + b"\t \r"
                                                for r in records] + [b" \t\r"])
        assert (load_predictions(tmp_path / "spaced.jsonl", vocab)
                == load_predictions(tmp_path / "lf.jsonl", vocab))

    def test_integers_load_as_floats(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame_w=640, scores=(1, 0, 0.5))])
        frame = load_predictions(tmp_path / "p.jsonl", vocab).frames[0]
        pair = frame.pairs[0]
        assert (frame.frame_width, pair.human_box.x1, pair.scores) == (640.0, 10.0, (1.0, 0.0, 0.5))
        assert all(type(v) is float for v in (frame.frame_width, pair.human_box.x1, *pair.scores))

    @pytest.mark.parametrize("lines,line", [
        # one rule each, at the line that breaks it
        ([record(scores=(1.3, 0.5, 0.2))], 1),
        ([record(scores=(0.5, -0.1, 0.2))], 1),
        ([record(scores=(0.5,))], 1),
        ([record(scores=(True, 0.5, 0.5))], 1),
        ([record(human_box=[10, 10, 10, 100])], 1),
        ([record(object_box=[20, 40, 700, 90])], 1),
        ([record(human_box=[-1, 10, 50, 100])], 1),
        ([record(human_box=[True, 10, 50, 100])], 1),
        ([record(), record(obj="cup")], 2),
        ([record(frame=-1)], 1),
        ([record(pair_id=(0, 1.7))], 1),
        ([record(pair_id=("0", "1"))], 1),
        ([record(pair_id=(True, 1))], 1),
        ([record(pair_id=(0, 1, 2))], 1),
        ([record(frame=True)], 1),
        ([record(frame_w="640")], 1),
        ([record(obj=None)], 1),
        ([record(video_id=5)], 1),
        ([record(frame=0), record(frame=0, pair_id=(0, 2), frame_w=800.0)], 2),
        ([record(frame=0, score_scale="fused"), record(frame=1, scores=(1.4, 0.2, 0.1))], 2),
        ([record(frame=0), record(frame=1, score_scale="fused")], 2),
        ([record(score_scale="raw")], 1),
        ([record(), b"5"], 2),
        ([b"null"], 1),
        ([b"[1, 2]"], 1),
        ([b"not json"], 1),
        ([b'{"scores": [NaN, 0.5, 0.5]}'], 1),
        ([record(frame=0), b"", b'{"video_id": "v\xff"}'], 3),
        ([record(), record(frame=1, pairid=[0, 1])], 2),
        ([record(), json.dumps(record(frame=1)).encode()[:-1] + b', "scores": [0.1, 0.2, 0.3]}'],
         2),
        ([record(), "\u00a0".encode() + json.dumps(record(frame=1)).encode()], 2),
        ([record(), b"\x0c", record(frame=1)], 2),
    ], ids=["score-above-1", "negative-score", "short-scores", "bool-score",
            "degenerate-box", "box-outside-frame", "negative-box", "bool-box",
            "duplicate-pair-id", "negative-frame", "float-pair-id", "string-pair-id",
            "bool-pair-id", "long-pair-id", "bool-frame-index", "string-frame-w",
            "null-object-class", "number-video-id", "frame-size-differs",
            "fused-then-base-above-1", "base-then-fused", "unknown-scale", "bare-number",
            "null-line", "list-line", "not-json", "nan", "not-utf8", "unknown-key",
            "duplicate-key", "no-break-space", "form-feed-line"])
    def test_bad_record_raises_at_its_line(self, tmp_path, vocab, lines, line):
        path = tmp_path / "p.jsonl"
        write_lines(path, lines)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: ") as exc:
            load_predictions(path, vocab)
        assert exc.value.line == line

    @pytest.mark.parametrize("field", ["frame_w", "object_box", "scores"])
    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1" + "0" * 400, "-" + "9" * 400],
                             ids=["1e400", "-1e400", "401-digits", "-400-digits"])
    def test_number_out_of_float_range_fails_at_its_line(self, tmp_path, vocab, field, text):
        # 1e400 loaded as infinity, which the writer spelt Infinity and the
        # loader then refused; a 400-digit integer has no float at all
        fused = {"score_scale": "fused"}
        bad = {"frame_w": record(frame=1, frame_w=1234.5, **fused),
               "object_box": record(frame=1, object_box=[20, 40, 1234.5, 90], **fused),
               "scores": record(frame=1, scores=(0.5, 1234.5, 0.5), **fused)}[field]
        path = tmp_path / "p.jsonl"
        write_lines(path, [record(**fused), json.dumps(bad).replace("1234.5", text).encode()])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: .*out of float range"):
            load_predictions(path, vocab)

    def test_largest_and_smallest_floats_load(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame_w=1.7976931348623157e308,
                                                  scores=(5e-324, 0.0, 1.0))])
        frame = load_predictions(tmp_path / "p.jsonl", vocab).frames[0]
        assert (frame.frame_width, frame.pairs[0].scores[0]) == (1.7976931348623157e308, 5e-324)

    def test_mixed_video_ids_rejected_at_first_change(self, tmp_path, vocab):
        other = record(frame=2)
        other["video_id"] = "w"
        write_lines(tmp_path / "p.jsonl", [record(frame=0), record(frame=1), other,
                                           record(frame=3)])
        with pytest.raises(ParseError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert exc.value.line == 3
        assert "video_id" in str(exc.value)

    def test_video_id_may_be_omitted_after_first(self, tmp_path, vocab):
        later = record(frame=1)
        del later["video_id"]
        write_lines(tmp_path / "p.jsonl", [record(frame=0), later])
        assert load_predictions(tmp_path / "p.jsonl", vocab).video_id == "v"

    def test_misspelt_key_is_named(self, tmp_path, vocab):
        misspelt = record()
        misspelt["pairid"] = misspelt.pop("pair_id")
        write_lines(tmp_path / "p.jsonl", [misspelt])
        with pytest.raises(ParseError, match="unknown field 'pairid'"):
            load_predictions(tmp_path / "p.jsonl", vocab)

    def test_missing_field(self, tmp_path, vocab):
        bad = record()
        del bad["human_box"]
        write_lines(tmp_path / "p.jsonl", [bad])
        with pytest.raises(ParseError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert "human_box" in str(exc.value)


class TestLoadGroundTruth:
    def make_predictions(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame=0), record(frame=1)])
        return load_predictions(tmp_path / "p.jsonl", vocab)

    def test_valid(self, tmp_path, vocab):
        preds = self.make_predictions(tmp_path, vocab)
        write_lines(tmp_path / "gt.jsonl",
                    [{"frame_index": 0, "pair_id": [0, 1], "relation_index": 1}])
        gt = load_ground_truth(tmp_path / "gt.jsonl", preds)
        assert gt.frames == {0: frozenset({((0, 1), 1)})}

    def test_holds_the_sets_pair_ids_and_each_triplet_once(self, tmp_path, vocab):
        preds = self.make_predictions(tmp_path, vocab)
        write_lines(tmp_path / "gt.jsonl", [
            {"frame_index": f, "pair_id": [0, 1], "relation_index": r}
            for f, r in ((0, 1), (1, 1), (1, 2))])
        gt = load_ground_truth(tmp_path / "gt.jsonl", preds)
        pair_id = preds.frames[0].pairs[0].pair_id
        assert all(pid is pair_id for triplets in gt.frames.values() for pid, _ in triplets)
        # each triplet is its slot, row * n + relation, sorted and distinct
        n = vocab.n
        assert gt.slots.dtype == np.int64 and not gt.slots.flags.writeable
        assert gt.slots.tolist() == [0 * n + 1, 1 * n + 1, 1 * n + 2]
        assert set(vars(gt)) == {"pred_set", "slots"} and gt.pred_set is preds
        view = gt.frames  # equal triplets are one object in a view
        (first,) = view[0]
        assert first is next(t for t in view[1] if t[1] == 1)

    def test_holds_each_distinct_frame_set_once(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame=f, pair_id=pid)
                                           for f in range(5) for pid in ((0, 1), (0, 2))])
        preds = load_predictions(tmp_path / "p.jsonl", vocab)
        records = [{"frame_index": f, "pair_id": pid, "relation_index": r}
                   for f, pid, r in ((0, [0, 1], 1), (1, [0, 1], 1), (2, [0, 2], 1),
                                     (3, [0, 1], 1), (3, [0, 2], 0), (4, [0, 2], 0),
                                     (4, [0, 1], 1))]
        write_lines(tmp_path / "gt.jsonl", records)
        gt = load_ground_truth(tmp_path / "gt.jsonl", preds)
        frames: dict = {}  # a set per frame, built record by record
        for rec in records:
            frames.setdefault(rec["frame_index"], set()).add(
                (tuple(rec["pair_id"]), rec["relation_index"]))
        assert gt.frames == {fi: frozenset(s) for fi, s in frames.items()}
        # frame f's pair (0, 1) is row 2 * f and its pair (0, 2) row 2 * f + 1
        slots = {(2 * rec["frame_index"] + rec["pair_id"][1] - 1) * vocab.n
                 + rec["relation_index"] for rec in records}
        assert gt.slots.tolist() == sorted(slots)
        assert gt.frames is not gt.frames  # a view, built on each read
        view = gt.frames  # equal frame sets are one object in a view
        assert view[0] is view[1] and view[3] is view[4]
        assert len({id(s) for s in view.values()}) == 3

    def test_dangling_pair(self, tmp_path, vocab):
        preds = self.make_predictions(tmp_path, vocab)
        write_lines(tmp_path / "gt.jsonl",
                    [{"frame_index": 0, "pair_id": [5, 5], "relation_index": 1}])
        with pytest.raises(DanglingReferenceError) as exc:
            load_ground_truth(tmp_path / "gt.jsonl", preds)
        assert "(5, 5)" in str(exc.value)

    @pytest.mark.parametrize("frame", [0, 2])
    def test_pair_predicted_only_in_another_frame(self, tmp_path, vocab, frame):
        # frame 1 alone holds pair (0, 2); frame 2, the last, holds (0, 1) alone
        write_lines(tmp_path / "p.jsonl", [record(frame=0), record(frame=1),
                                           record(frame=1, pair_id=(0, 2)), record(frame=2)])
        preds = load_predictions(tmp_path / "p.jsonl", vocab)
        write_lines(tmp_path / "gt.jsonl", [
            {"frame_index": 1, "pair_id": [0, 2], "relation_index": 0},
            {"frame_index": frame, "pair_id": [0, 2], "relation_index": 1}])
        with pytest.raises(DanglingReferenceError,
                           match=f":2: pair \\(0, 2\\) not predicted at frame {frame}$"):
            load_ground_truth(tmp_path / "gt.jsonl", preds)

    def test_relation_out_of_range(self, tmp_path, vocab):
        preds = self.make_predictions(tmp_path, vocab)
        write_lines(tmp_path / "gt.jsonl",
                    [{"frame_index": 0, "pair_id": [0, 1], "relation_index": 3}])
        with pytest.raises(IngestError) as exc:
            load_ground_truth(tmp_path / "gt.jsonl", preds)
        assert "out of range" in str(exc.value)

    @pytest.mark.parametrize("bad", [
        {"frame_index": 0, "pair_id": [0, 1], "relation_index": 1.9},
        {"frame_index": 0, "pair_id": [0, 1], "relation_index": "1"},
        {"frame_index": 0, "pair_id": [0, 1], "relation_index": True},
        {"frame_index": 0, "pair_id": [0, 1.0], "relation_index": 1},
        {"frame_index": "0", "pair_id": [0, 1], "relation_index": 1},
        {"frame_index": 0, "relation_index": 1},
        b"5",
        {"frame_index": 0, "pair_id": [0, 1], "relation_index": 1, "relation": "hold"},
        b'{"frame_index": 0, "pair_id": [0, 1], "relation_index": 1, "relation_index": 2}',
        "\u00a0".encode() + b'{"frame_index": 0, "pair_id": [0, 1], "relation_index": 1}',
        b"\x0c",
    ], ids=["float-relation", "string-relation", "bool-relation", "float-pair-id",
            "string-frame", "missing-pair-id", "bare-number", "unknown-key", "duplicate-key",
            "no-break-space", "form-feed-line"])
    def test_bad_record_raises_at_its_line(self, tmp_path, vocab, bad):
        preds = self.make_predictions(tmp_path, vocab)
        path = tmp_path / "gt.jsonl"
        write_lines(path, [{"frame_index": 1, "pair_id": [0, 1], "relation_index": 0}, bad])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: ") as exc:
            load_ground_truth(path, preds)
        assert exc.value.line == 2


def fused_column(pred_set, score):
    """Fused scores over ``pred_set`` holding ``score(slot, base)`` per slot."""
    return FusedScores(pred_set, np.array([score(slot, base) for slot, base in zip(
        slots_of(pred_set), pred_set.scores.ravel().tolist())], float))


# any float JSONEncoder writes, integer-valued, subnormal and huge ones included
json_floats = st.floats() | st.sampled_from([5e-324, -0.0, 3.0, 1e16, 1.7976931348623157e308])
# any UTF-8 text, with quote, backslash, non-ASCII and control characters common
json_text = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\é☃\x00'), max_size=6)


@st.composite
def written_sets(draw):
    """A prediction set built directly, so any value a record can hold
    appears, and a fused column over it."""
    vocab = RelationVocabulary(tuple(f"r{r}" for r in range(draw(st.integers(1, 3)))))
    frames = []
    for fi in sorted(draw(st.sets(st.integers(0, 2**63 - 1), max_size=3))):
        ids = draw(st.lists(st.none() | st.tuples(st.integers(), st.integers()),
                            max_size=3, unique_by=lambda pid: pid or object()))
        pairs = [PairRecord(
            object_class=draw(json_text), pair_id=pid,
            human_box=draw(st.lists(json_floats, min_size=4, max_size=4)),
            object_box=draw(st.lists(json_floats | st.integers(-2**53, 2**53),
                                     min_size=4, max_size=4)),
            scores=(0.0,) * vocab.n) for pid in ids]
        frames.append((fi, draw(json_floats), draw(json_floats), pairs))
    pred_set = pack(vocab, frames, draw(json_text))
    slots = pred_set.scores.size
    values = draw(st.lists(json_floats, min_size=slots, max_size=slots))
    return pred_set, FusedScores(pred_set, np.array(values, float))


class TestWritePredictions:
    @settings(max_examples=200, deadline=None)
    @given(written_sets())
    def test_each_line_is_json_dumps_of_its_record(self, tmp_path_factory, case):
        pred_set, fused = case
        out = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_predictions(pred_set, fused, str(out))
        scores = iter(fused.column.reshape(-1, pred_set.vocabulary.n).tolist())
        expected = [json.dumps({
            "video_id": pred_set.video_id,
            "frame_index": frame.frame_index,
            "frame_w": frame.frame_width,
            "frame_h": frame.frame_height,
            "pair_id": list(pair.pair_id) if pair.pair_id is not None else None,
            "object_class": pair.object_class,
            "human_box": [pair.human_box.x1, pair.human_box.y1,
                          pair.human_box.x2, pair.human_box.y2],
            "object_box": [pair.object_box.x1, pair.object_box.y1,
                           pair.object_box.x2, pair.object_box.y2],
            "scores": next(scores),
            "score_scale": "fused",
        }, sort_keys=True) for frame, pair in pred_set.iter_pairs()]
        assert out.read_text(encoding="utf-8").splitlines() == expected

    def test_round_trip_bit_exact(self, tmp_path, vocab):
        records = [record(frame=f, scores=(0.123456789012345, 0.5, 1 / 3))
                   for f in range(2)]
        write_lines(tmp_path / "p.jsonl", records)
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        fused = fused_column(pred_set, lambda slot, base: base + 0.75)
        out = tmp_path / "out.jsonl"
        write_predictions(pred_set, fused, str(out))
        loaded = load_predictions(str(out), vocab)
        assert loaded.score_scale == "fused"
        for (frame_a, frame_b) in zip(pred_set.frames, loaded.frames):
            for i, (pa, pb) in enumerate(zip(frame_a.pairs, frame_b.pairs)):
                for r in range(vocab.n):
                    assert pb.scores[r] == pa.scores[r] + 0.75  # bit-exact

    def test_concurrent_writers_leave_one_complete_file(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame=f) for f in range(50)])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        out = tmp_path / "out.jsonl"
        tables = [fused_column(pred_set, lambda slot, base, offset=offset: offset + slot[2])
                  for offset in (1.0, 2.0)]
        contents = set()
        for fused in tables:
            write_predictions(pred_set, fused, str(out))
            contents.add(out.read_bytes())
        for _ in range(20):
            barrier = threading.Barrier(2, timeout=5)
            errors = []

            def write(fused):
                try:
                    barrier.wait()
                    write_predictions(pred_set, fused, str(out))
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(fused,)) for fused in tables]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert errors == []
            assert out.read_bytes() in contents
            assert [p.name for p in tmp_path.iterdir() if p.name.startswith("out")] == ["out.jsonl"]

    def test_empty_set(self, tmp_path, vocab):
        (tmp_path / "p.jsonl").write_text("")
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        out = tmp_path / "out.jsonl"
        write_predictions(pred_set, fused_column(pred_set, None), str(out))
        assert load_predictions(str(out), vocab).frames == ()

    def test_unwritable_path(self, tmp_path, vocab):
        (tmp_path / "p.jsonl").write_text("")
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        with pytest.raises(OSError):
            write_predictions(pred_set, fused_column(pred_set, None),
                              str(tmp_path / "missing-dir" / "o.jsonl"))

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, vocab, monkeypatch):
        write_lines(tmp_path / "p.jsonl", [record()])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        fused = fused_column(pred_set, lambda slot, base: 0.5)

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_predictions(pred_set, fused, str(tmp_path / "out.jsonl"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.jsonl", "vocab.txt"]

    def test_column_must_cover_every_slot(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(frame=f) for f in range(2)])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        message = f"fused column holds {vocab.n} scores for {2 * vocab.n} slots"
        with pytest.raises(ValueError, match=f"^{message}$"):
            FusedScores(pred_set, np.zeros(vocab.n))

    def test_scores_over_another_set_rejected(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record()])
        pred_set, other = (load_predictions(tmp_path / "p.jsonl", vocab) for _ in range(2))
        with pytest.raises(ValueError, match="another prediction set"):
            write_predictions(pred_set, fused_column(other, lambda slot, base: base),
                              str(tmp_path / "o.jsonl"))
        assert not (tmp_path / "o.jsonl").exists()


def detector_video(path, frames=400, pairs=8):
    """``frames`` frames of ``pairs`` tracked pairs each, written with
    ``record`` as a detector writes them: whole-pixel boxes, three object
    classes and three-decimal scores, so values repeat across records."""
    rng = np.random.default_rng(0)
    records = []
    for f in range(frames):
        for k in range(pairs):
            x, y = (float(v) for v in rng.integers(0, 300, 2))
            records.append(record(
                frame=f, pair_id=(k, 100 + k), obj=("Chair", "cup", "horse")[k % 3],
                scores=tuple(round(float(v) ** 3, 3) for v in rng.random(3)),
                human_box=[x, y, x + 100.0, y + 150.0], object_box=[y, x, y + 40.0, x + 60.0]))
    write_lines(path, records)


class TestMemory:
    """Guards on the bytes a loaded set holds and on the writer's peak, by
    ``tracemalloc``, for 400 frames x 8 pairs (3200 records)."""

    def test_loaded_set_holds_each_value_once(self, tmp_path, vocab):
        detector_video(tmp_path / "p.jsonl")
        tracemalloc.start()
        try:
            pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(frame.pairs) for frame in pred_set.frames) == 3200
        # 2.67 MB with a float object per value and a __dict__ per record,
        # 1.13 MB with shared values and slotted records, 0.34 MB as columns
        # (0.50 MB when this is the process's first load)
        assert held < 600_000

    def test_writer_streams_frame_by_frame(self, tmp_path, vocab):
        detector_video(tmp_path / "p.jsonl")
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        fused = fused_column(pred_set, lambda slot, base: base + 0.25)
        tracemalloc.start()
        try:
            write_predictions(pred_set, fused, str(tmp_path / "out.jsonl"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.2 MB with the whole text, its lines and every row held at once
        assert peak < 1_000_000


def test_reloading_a_refined_file_holds_few_texts_on_the_way(tmp_path, vocab):
    """A guard on what reloading a fused-scale file allocates beyond what it
    keeps, by ``tracemalloc``, for 1000 frames x 8 pairs, each score distinct."""
    detector_video(tmp_path / "p.jsonl", frames=1000)
    pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
    rng = np.random.default_rng(1)
    write_predictions(pred_set, fused_column(pred_set, lambda slot, base: base + rng.random()),
                      str(tmp_path / "refined.jsonl"))
    del pred_set
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        refined = load_predictions(tmp_path / "refined.jsonl", vocab)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refined.score_scale == "fused" and len(refined.frames) == 1000
    # 3.49 MB with each of the 24,000 distinct score texts held until the
    # load returns, 1.65 MB with at most 8192 of them, 0.94 MB read into
    # columns, whose buffers grow as the lines are read
    assert peak - held < 1_100_000


def test_loading_ground_truth_holds_little_on_the_way(tmp_path, vocab):
    """A guard on what loading ground truth allocates beyond what it keeps,
    by ``tracemalloc``, for about 6000 triplets over 1000 frames x 8 pairs."""
    detector_video(tmp_path / "p.jsonl", frames=1000)
    pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
    rng = np.random.default_rng(2)
    write_lines(tmp_path / "gt.jsonl", [
        {"frame_index": f, "pair_id": [k, 100 + k], "relation_index": int(rng.integers(3))}
        for f in range(1000) for k in range(8) if rng.random() < 0.75])
    tracemalloc.start()
    try:
        gt = load_ground_truth(tmp_path / "gt.jsonl", pred_set)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gt.frames) == 1000
    # 1.60 MB with a set of the set's tracked (frame, pair) integers and a
    # set per frame before its frozenset, 0.58 MB read into columns
    assert peak - held < 800_000


# box corners in increasing order, each pair of them a valid x1 < x2
CORNERS = [-0.0, 5e-324, 1, 1.5, 2.0, 10, 0.1 + 0.2, 639.0, 640]
FRAME_SIZES = [640, 640.0, 1e3, 1.7976931348623157e308]
BASE_SCORES = [0.0, -0.0, 5e-324, 1, 1.0, 0.5, 0.1 + 0.2, 1e-300]
LABELS = ["Cup", "cup", "CUP", "Chair", "horse", "Éclair"]


@st.composite
def prediction_files(draw):
    """The lines of a prediction file and its vocabulary: untracked pairs,
    pair ids beyond int64, frames whose lines are interleaved out of order,
    labels in mixed case, negative zeros, subnormals and integer-valued
    numbers, at base or fused scale."""
    vocab = RelationVocabulary(tuple(f"r{r}" for r in range(draw(st.integers(1, 3)))))
    fused = draw(st.booleans())
    scores = st.sampled_from(BASE_SCORES + ([2.5, 1e300] if fused else []))
    ids = st.none() | st.tuples(st.integers(-2**70, 2**70) | st.just(2**70), st.integers(0, 3))
    video_id = draw(st.none() | st.just("v"))
    records = []
    for fi in draw(st.sets(st.integers(0, 5) | st.just(2**63 - 1), max_size=4)):
        size = draw(st.sampled_from(FRAME_SIZES))
        for pid in draw(st.lists(ids, max_size=3, unique_by=lambda pid: pid or object())):
            x1, x2, y1, y2 = (v for _ in range(2)
                              for v in sorted(draw(st.sets(st.sampled_from(CORNERS),
                                                           min_size=2, max_size=2))))
            records.append({
                "frame_index": fi, "frame_w": size, "frame_h": size,
                "object_class": draw(st.sampled_from(LABELS)),
                "human_box": [x1, y1, x2, y2], "object_box": [y1, x1, y2, x2],
                "scores": draw(st.lists(scores, min_size=vocab.n, max_size=vocab.n)),
                "pair_id": None if pid is None else list(pid),
                **({"video_id": video_id} if video_id else {}),
                **({"score_scale": "fused"} if fused else {})})
    return vocab, [json.dumps(rec) for rec in draw(st.permutations(records))]


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestLoadedSetAgainstJson:
    @settings(max_examples=200, deadline=None)
    @given(prediction_files())
    def test_views_match_a_plain_json_reading(self, tmp_path_factory, case):
        vocab, lines = case
        path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        pred_set = load_predictions(path, vocab)
        records = [json.loads(line) for line in lines]
        frames = sorted({rec["frame_index"] for rec in records})
        assert pred_set.frame_indices() == frames
        for frame in pred_set.frames:
            expected = [rec for rec in records if rec["frame_index"] == frame.frame_index]
            assert bits((frame.frame_width, frame.frame_height)) == bits(
                (expected[0]["frame_w"], expected[0]["frame_h"]))
            assert len(frame.pairs) == len(expected)
            for pair, rec in zip(frame.pairs, expected):  # in file order
                assert pair.object_class == rec["object_class"].lower()
                assert pair.pair_id == (None if rec["pair_id"] is None else tuple(rec["pair_id"]))
                assert bits(pair.scores) == bits(rec["scores"])
                assert bits(pair.human_box) == bits(rec["human_box"])
                assert bits(pair.object_box) == bits(rec["object_box"])
                assert all(type(v) is float for v in (*pair.scores, *pair.human_box))
        first = records[0] if records else {}
        assert (pred_set.video_id, pred_set.score_scale) == (
            first.get("video_id", ""), first.get("score_scale", "base"))

        # write, load, write: the same bytes
        def write(loaded, name):
            write_predictions(loaded, FusedScores(loaded, loaded.scores.ravel()),
                              str(path.with_name(name)))
            return path.with_name(name).read_bytes()

        written = write(pred_set, "first.jsonl")
        assert write(load_predictions(path.with_name("first.jsonl"), vocab),
                     "second.jsonl") == written


# texts of equal numbers that differ in sign, type or spelling, and the
# smallest subnormal: sharing values must not merge any two of them
SIGNED_ZEROS = ["-0.0", "0.0", "0", "-0", "0e0", "-0e0", "5e-324"]
ONES = ["1", "1.0", "1.00", "10", "1e1", "10.0"]


@st.composite
def shared_value_files(draw):
    """Prediction lines whose box corners, frame sizes and scores are texts
    of ``SIGNED_ZEROS`` and ``ONES``, one frame per line."""
    lines = []
    for f in range(draw(st.integers(1, 6))):
        low, high = (draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
                     for pool in (SIGNED_ZEROS, ONES))
        size = draw(st.sampled_from(["640", "640.0", "6.4e2"]))
        box = f"{low[0]}, {low[1]}, {high[0]}, {high[1]}"
        scores = ", ".join(draw(st.lists(st.sampled_from(SIGNED_ZEROS + ONES[:3]),
                                         min_size=3, max_size=3)))
        lines.append(f'{{"frame_index": {f}, "frame_w": {size}, "frame_h": {size}, '
                     f'"object_class": "cup", "pair_id": [0, 1], "human_box": [{box}], '
                     f'"object_box": [{box}], "scores": [{scores}]}}')
    return lines


def loaded_values(pred_set):
    return [v for frame in pred_set.frames for pair in frame.pairs
            for v in (frame.frame_width, frame.frame_height, pair.human_box.x1,
                      pair.human_box.y1, pair.human_box.x2, pair.human_box.y2,
                      pair.object_box.x1, pair.object_box.y1, pair.object_box.x2,
                      pair.object_box.y2, *pair.scores)]


class TestSharedValues:
    @settings(max_examples=150, deadline=None)
    @given(shared_value_files())
    def test_each_value_keeps_its_own_bits(self, tmp_path_factory, lines):
        """Each loaded value is, bit for bit, the float of what ``json.loads``
        gives for its own text, sign of zero included, and load, write, load,
        write is byte-stable."""
        base, vocab = tmp_path_factory.getbasetemp(), RelationVocabulary(("a", "b", "c"))
        (base / "p.jsonl").write_text("\n".join(lines) + "\n")
        pred_set = load_predictions(base / "p.jsonl", vocab)
        expected = []
        for line in lines:
            rec = json.loads(line)
            expected += [rec["frame_w"], rec["frame_h"], *rec["human_box"],
                         *rec["object_box"], *rec["scores"]]
        values = loaded_values(pred_set)
        assert all(type(v) is float for v in values)
        assert [v.hex() for v in values] == [float(v).hex() for v in expected]
        assert [math.copysign(1.0, v) for v in values] == \
            [math.copysign(1.0, float(v)) for v in expected]

        write_predictions(pred_set, FusedScores(pred_set, pred_set.scores.ravel()),
                          str(base / "a.jsonl"))
        again = load_predictions(base / "a.jsonl", vocab)
        assert [v.hex() for v in loaded_values(again)] == [v.hex() for v in values]
        write_predictions(again, FusedScores(again, again.scores.ravel()), str(base / "b.jsonl"))
        assert (base / "b.jsonl").read_bytes() == (base / "a.jsonl").read_bytes()


class TestSharingBound:
    """Each value is the float of its own text, and each check still holds,
    whichever texts came before it."""

    def test_each_value_and_check_holds_past_the_bound(self, tmp_path):
        vocab = RelationVocabulary(("a", "b", "c"))
        lines = []
        for f, (low, high) in enumerate(zip(SIGNED_ZEROS, ONES)):
            box = f"{low}, {SIGNED_ZEROS[-2 - f]}, {high}, {high}"
            lines.append(f'{{"frame_index": {f}, "frame_w": 640, "frame_h": 640.0, '
                         f'"object_class": "cup", "pair_id": [0, 1], "human_box": [{box}], '
                         f'"object_box": [{box}], "scores": [{low}, {SIGNED_ZEROS[f + 1]}, 1]}}')
        (tmp_path / "p.jsonl").write_text("\n".join(lines) + "\n")
        expected = []
        for line in lines:
            rec = json.loads(line)
            expected += [rec["frame_w"], rec["frame_h"], *rec["human_box"],
                         *rec["object_box"], *rec["scores"]]
        values = loaded_values(load_predictions(tmp_path / "p.jsonl", vocab))
        assert [v.hex() for v in values] == [float(v).hex() for v in expected]
        assert [math.copysign(1.0, v) for v in values] == \
            [math.copysign(1.0, float(v)) for v in expected]
        for bad, message in (("1e400", "out of float range"), ("NaN", "NaN is not a JSON number"),
                             ("640, \"frame_w\": 640", "duplicate key")):
            (tmp_path / "bad.jsonl").write_text(
                "\n".join(lines) + "\n" + lines[0].replace('"frame_w": 640', f'"frame_w": {bad}'))
            with pytest.raises(ParseError, match=f":{len(lines) + 1}: .*{message}"):
                load_predictions(tmp_path / "bad.jsonl", vocab)


# -- the block loaders against the line-by-line check ------------------------

FLOAT_MAX_INT = int(sys.float_info.max)


def with_text(rec, field, text, index=None):
    """``rec``'s line with ``text`` as the value of ``field``, or of its
    item ``index``."""
    value = "\0" if index is None else [*rec[field][:index], "\0", *rec[field][index + 1:]]
    return json.dumps({**rec, field: value}).replace('"\\u0000"', text)


def replaced(rec, **fields):
    return json.dumps({**rec, **fields})


def without(rec, name):
    return json.dumps({key: value for key, value in rec.items() if key != name})


def twice(line, name, value):
    """``line`` with ``name`` given again, as ``value``, at its end."""
    return line[:-1] + f", {json.dumps(name)}: {value}}}"


# each a function of a record and its line to the lines that replace it
PREDICTION_HAZARDS = {
    # the same eight numbers, split three and five
    "short-human-long-object-box": lambda rec, line: [replaced(
        rec, human_box=rec["human_box"][:3], object_box=rec["human_box"][3:] + rec["object_box"])],
    "scale-absent": lambda rec, line: [without(rec, "score_scale")],
    "scale-fused": lambda rec, line: [replaced(rec, score_scale="fused")],
    "scale-empty": lambda rec, line: [replaced(rec, score_scale="")],
    "true-score": lambda rec, line: [with_text(rec, "scores", "true", 0)],
    "false-box": lambda rec, line: [with_text(rec, "human_box", "false", 0)],
    "label-holds-true": lambda rec, line: [replaced(rec, object_class="true, false")],
    "nan-score": lambda rec, line: [with_text(rec, "scores", "NaN", 0)],
    "infinite-box": lambda rec, line: [with_text(rec, "object_box", "Infinity", 2)],
    "minus-infinite-box": lambda rec, line: [with_text(rec, "object_box", "-Infinity", 0)],
    "1e400-score": lambda rec, line: [with_text(rec, "scores", "1e400", 0)],
    "1e400-frame-size": lambda rec, line: [with_text(rec, "frame_w", "1e400")],
    "float-max-plus-one-score": lambda rec, line: [with_text(
        rec, "scores", str(FLOAT_MAX_INT + 1), 0)],
    "string-score": lambda rec, line: [with_text(rec, "scores", '"0.5"', 0)],
    "frame-index-2**63": lambda rec, line: [replaced(rec, frame_index=2**63)],
    "frame-index-2**64": lambda rec, line: [replaced(rec, frame_index=2**64)],
    "float-frame-index": lambda rec, line: [with_text(rec, "frame_index", "1.0")],
    "pair-id-beyond-float": lambda rec, line: [replaced(rec, pair_id=[10**400, 1])],
    "pair-id-float-max-plus-one": lambda rec, line: [replaced(rec, pair_id=[FLOAT_MAX_INT + 1, 1])],
    "pair-id-float": lambda rec, line: [with_text(rec, "pair_id", "[0, 1.0]")],
    "pair-id-bool": lambda rec, line: [with_text(rec, "pair_id", "[true, 1]")],
    "pair-id-object": lambda rec, line: [with_text(rec, "pair_id", '{"a": 0, "b": 1}')],
    "pair-id-null": lambda rec, line: [replaced(rec, pair_id=None)],
    "pair-id-twice": lambda rec, line: [line, line],
    "box-beyond-int64": lambda rec, line: [replaced(rec, object_box=[0, 0, 2**64 + 1, 2**70])],
    "key-twice-equal": lambda rec, line: [twice(line, "frame_w", json.dumps(rec["frame_w"]))],
    "key-twice-different": lambda rec, line: [twice(line, "scores", json.dumps(
        [0.0] * len(rec["scores"])))],
    "label-twice": lambda rec, line: [twice(line, "object_class", '"cup"')],
    "escaped-quote-label": lambda rec, line: [replaced(rec, object_class='a"b')],
    "escaped-backslash-label": lambda rec, line: [replaced(rec, object_class='a\\')],
    "escaped-unicode-key": lambda rec, line: [line.replace('"scores"', '"\\u0073cores"')],
    "key-twice-escaped": lambda rec, line: [
        f'{line[:-1]}, "\\u0073cores": {json.dumps(rec["scores"])}}}'],
    "two-objects-on-a-line": lambda rec, line: [f"{line}, {line}"],
    "two-objects-no-comma": lambda rec, line: [f"{line} {line}"],
    "object-label": lambda rec, line: [with_text(rec, "object_class", '{"a": 1}')],
    "object-in-scores": lambda rec, line: [with_text(rec, "scores", '{"x": 0.5}', 0)],
    "line-split": lambda rec, line: [line[:len(line) // 2], f"{line[len(line) // 2:]}, {line}"],
    "line-in-a-list": lambda rec, line: [f"[{line}]"],
    "negative-zero-score": lambda rec, line: [with_text(rec, "scores", "-0.0", 0)],
    "subnormal-score": lambda rec, line: [with_text(rec, "scores", "5e-324", 0)],
    "other-video": lambda rec, line: [replaced(rec, video_id="w")],
    "other-frame-size": lambda rec, line: [replaced(rec, frame_h=2.0 * rec["frame_h"])],
    "unknown-key": lambda rec, line: [replaced(rec, extra=1)],
    "missing-key": lambda rec, line: [without(rec, "scores")],
    "blank-line": lambda rec, line: [" \t", line],
    "form-feed-line": lambda rec, line: ["\x0c", line],
    "empty-object": lambda rec, line: ["{}"],
}


def line_by_line(path, vocab):
    """What loading ``path`` must give where the line check accepts it, as
    ``set_columns`` lists it, read with ``json.loads`` line by line: rows
    stably sorted by frame, pair ids and labels coded in order of first
    appearance."""
    rows, pair_ids, labels, sizes = [], {}, {}, {}
    video_id, scale = "", "base"
    for raw in path.read_bytes().split(b"\n"):
        line = raw.decode("utf-8").strip(" \t\n\r")
        if not line:
            continue
        rec = json.loads(line)
        pid = rec.get("pair_id")
        rows.append((rec["frame_index"],
                     -1 if pid is None else pair_ids.setdefault(tuple(pid), len(pair_ids)),
                     labels.setdefault(rec["object_class"].lower(), len(labels)),
                     [float(v) for v in rec["human_box"] + rec["object_box"]],
                     [float(v) for v in rec["scores"]]))
        sizes.setdefault(rec["frame_index"], (float(rec["frame_w"]), float(rec["frame_h"])))
        video_id, scale = rec.get("video_id", video_id), rec.get("score_scale", scale)
    rows.sort(key=lambda row: row[0])
    frames = sorted(sizes)
    return (frames, np.array([sizes[f] for f in frames], float).reshape(-1, 2).tobytes(),
            [row[0] for row in rows], np.array([row[1] for row in rows], np.intc).tobytes(),
            np.array([row[2] for row in rows], np.intc).tobytes(),
            np.array([row[3] for row in rows], float).reshape(-1, 8).tobytes(),
            np.array([row[4] for row in rows], float).reshape(-1, vocab.n).tobytes(),
            tuple(pair_ids), tuple(labels), video_id, scale)


def set_columns(pred_set):
    rows = np.repeat(pred_set.frame_index, np.diff(pred_set.row_start))
    return (pred_set.frame_indices(), np.asarray(pred_set.frame_size, float).tobytes(),
            rows.tolist(), pred_set.pair_code.tobytes(), pred_set.class_code.tobytes(),
            pred_set.boxes.tobytes(), pred_set.scores.tobytes(), tuple(pred_set.pair_ids),
            tuple(pred_set.labels), pred_set.video_id, pred_set.score_scale)


def outcome(load, *args):
    """``load(*args)``, or the type and message of what it raised."""
    try:
        return load(*args), None
    except Exception as exc:  # compared by the caller
        return None, (type(exc), str(exc))


GROUND_TRUTH_HAZARDS = {
    "key-twice-equal": lambda rec, line: [twice(line, "frame_index", rec["frame_index"])],
    "key-twice-different": lambda rec, line: [twice(line, "relation_index", 0)],
    "float-relation": lambda rec, line: [with_text(rec, "relation_index", "0.0")],
    "bool-relation": lambda rec, line: [with_text(rec, "relation_index", "false")],
    "relation-out-of-range": lambda rec, line: [replaced(rec, relation_index=3)],
    "dangling-pair": lambda rec, line: [replaced(rec, pair_id=[2**70 + 1, 9])],
    "dangling-frame": lambda rec, line: [replaced(rec, frame_index=rec["frame_index"] + 7)],
    "pair-id-float": lambda rec, line: [with_text(rec, "pair_id", f"[{rec['pair_id'][0]}.0, "
                                                                   f"{rec['pair_id'][1]}]")],
    "pair-id-bool": lambda rec, line: [with_text(rec, "pair_id", "[true, 1]")],
    "pair-id-beyond-float": lambda rec, line: [replaced(rec, pair_id=[10**400, 1])],
    "string-frame": lambda rec, line: [replaced(rec, frame_index=str(rec["frame_index"]))],
    "unknown-key": lambda rec, line: [replaced(rec, relation="hold")],
    "two-objects-on-a-line": lambda rec, line: [f"{line}, {line}"],
    "object-value": lambda rec, line: [with_text(rec, "relation_index", '{"a": 1}')],
    "nan-frame": lambda rec, line: [with_text(rec, "frame_index", "NaN")],
    "line-split": lambda rec, line: [line[:len(line) // 2], f"{line[len(line) // 2:]}, {line}"],
    "triplet-twice": lambda rec, line: [line, line],
    "blank-line": lambda rec, line: [" ", line],
}


@st.composite
def mutated_files(draw, hazard):
    """A valid prediction file (``prediction_files``) with one line replaced
    by the lines ``hazard`` gives for it, and a block size to read it with."""
    vocab, lines = draw(prediction_files())
    assume(lines)
    at = draw(st.integers(0, len(lines) - 1))
    lines[at:at + 1] = hazard(json.loads(lines[at]), lines[at])
    return vocab, lines, draw(st.sampled_from([1, 2, 3, 64]))


def test_a_record_across_lines_is_decoded_line_by_line(tmp_path):
    """Three lines that hold three records as one array, the first spread
    over two lines and two on the third, are decoded one line at a time,
    which refuses the first."""
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": [1\n2]}\n{"b": 1}, {"c": 2}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:1: invalid JSON"):
        list(ingest._blocks(path))


def test_escapes_other_than_a_quote_are_decoded_as_a_block(tmp_path):
    """A label ``json.dumps`` escapes (a non-ASCII or control character)
    keeps a block whole; an escaped quote sends it line by line."""
    path = tmp_path / "r.jsonl"
    records = [{"object_class": "Éclair\t"}, {"object_class": "cup"}]
    write_lines(path, records)
    assert [(decoded, quotes) for _, decoded, quotes in ingest._blocks(path)] == [(records, 8)]
    write_lines(path, records + [{"object_class": 'a"b'}])
    assert [quotes for _, _, quotes in ingest._blocks(path)] == [None]


class TestBlocksAgainstLines:
    """Each load gives what a line-by-line reading gives, or raises what the
    line check raises: ``linecheck.check_predictions`` and
    ``check_ground_truth`` are the oracle for a refused file, and a
    plain ``json.loads`` of each line for an accepted one."""

    @pytest.mark.parametrize("hazard", sorted(PREDICTION_HAZARDS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_predictions(self, tmp_path_factory, hazard, data):
        vocab, lines, block = data.draw(mutated_files(PREDICTION_HAZARDS[hazard]))
        path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with mock.patch.object(ingest, "_BLOCK", block):
            loaded, error = outcome(load_predictions, path, vocab)
        _, expected = outcome(linecheck.check_predictions, path, vocab)
        assert error == expected
        if error is None:
            assert set_columns(loaded) == line_by_line(path, vocab)

    @pytest.mark.parametrize("hazard", sorted(GROUND_TRUTH_HAZARDS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_ground_truth(self, tmp_path_factory, hazard, data):
        vocab, lines = data.draw(prediction_files())
        base = tmp_path_factory.getbasetemp()
        (base / "p.jsonl").write_text("".join(line + "\n" for line in lines))
        pred_set = load_predictions(base / "p.jsonl", vocab)
        tracked = [(frame.frame_index, list(pair.pair_id)) for frame, pair in pred_set.iter_pairs()
                   if pair.pair_id is not None]
        assume(tracked)
        records = [{"frame_index": fi, "pair_id": pid, "relation_index": data.draw(
            st.integers(0, vocab.n - 1))} for fi, pid in data.draw(st.permutations(tracked))]
        gt_lines = [json.dumps(rec) for rec in records]
        at = data.draw(st.integers(0, len(gt_lines) - 1))
        gt_lines[at:at + 1] = GROUND_TRUTH_HAZARDS[hazard](records[at], gt_lines[at])
        path = base / "gt.jsonl"
        path.write_text("".join(line + "\n" for line in gt_lines))
        with mock.patch.object(ingest, "_BLOCK", data.draw(st.sampled_from([1, 2, 3, 64]))):
            loaded, error = outcome(load_ground_truth, path, pred_set)
        _, expected = outcome(linecheck.check_ground_truth, path, pred_set)
        assert error == expected
        if error is None:
            frames: dict = {}
            for line in gt_lines:
                if line.strip(" \t\r"):
                    rec = json.loads(line)
                    frames.setdefault(rec["frame_index"], set()).add(
                        (tuple(rec["pair_id"]), rec["relation_index"]))
            assert loaded.frames == {fi: frozenset(s) for fi, s in frames.items()}
            assert list(loaded.frames) == sorted(frames)
