import json
import os
import threading

import pytest

from hoirefine.ingest import (
    DanglingReferenceError,
    IngestError,
    ParseError,
    ValidationError,
    load_ground_truth,
    load_predictions,
    load_vocabulary,
    triplet_to_text,
    write_predictions,
)
from hoirefine.model import pair_key

from test_model import make_pair  # noqa: F401  (shared builders)


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def record(frame=0, pair_id=(0, 1), obj="chair", scores=(0.5, 0.5, 0.5)):
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
    }


@pytest.fixture
def vocab(tmp_path):
    (tmp_path / "vocab.txt").write_text("Hold\nride\nSit On\n")
    return load_vocabulary(tmp_path / "vocab.txt")


def test_vocabulary_lowercased(vocab):
    assert vocab.names == ("hold", "ride", "sit on")


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
        with pytest.raises(ValidationError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert "score out of [0,1]" in str(exc.value)

    def test_duplicate_pair_id_rejected(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record(obj="chair"), record(obj="cup")])
        with pytest.raises(ValidationError) as exc:
            load_predictions(tmp_path / "p.jsonl", vocab)
        assert "duplicate pair_id" in str(exc.value)

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

    def test_dangling_pair(self, tmp_path, vocab):
        preds = self.make_predictions(tmp_path, vocab)
        write_lines(tmp_path / "gt.jsonl",
                    [{"frame_index": 0, "pair_id": [5, 5], "relation_index": 1}])
        with pytest.raises(DanglingReferenceError) as exc:
            load_ground_truth(tmp_path / "gt.jsonl", preds)
        assert "(5, 5)" in str(exc.value)

    def test_relation_out_of_range(self, tmp_path, vocab):
        preds = self.make_predictions(tmp_path, vocab)
        write_lines(tmp_path / "gt.jsonl",
                    [{"frame_index": 0, "pair_id": [0, 1], "relation_index": 3}])
        with pytest.raises(IngestError) as exc:
            load_ground_truth(tmp_path / "gt.jsonl", preds)
        assert "out of range" in str(exc.value)


class TestWritePredictions:
    def test_round_trip_bit_exact(self, tmp_path, vocab):
        records = [record(frame=f, scores=(0.123456789012345, 0.5, 1 / 3))
                   for f in range(2)]
        write_lines(tmp_path / "p.jsonl", records)
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        fused = {
            (frame.frame_index, pair_key(pair, i), r): pair.scores[r] + 0.75
            for frame in pred_set.frames
            for i, pair in enumerate(frame.pairs)
            for r in range(vocab.n)
        }
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
        tables = [{(frame.frame_index, pair_key(pair, i), r): offset + r
                   for frame in pred_set.frames
                   for i, pair in enumerate(frame.pairs)
                   for r in range(vocab.n)} for offset in (1.0, 2.0)]
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
        write_predictions(pred_set, {}, str(out))
        assert load_predictions(str(out), vocab).frames == ()

    def test_unwritable_path(self, tmp_path, vocab):
        (tmp_path / "p.jsonl").write_text("")
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        with pytest.raises(OSError):
            write_predictions(pred_set, {}, str(tmp_path / "missing-dir" / "o.jsonl"))

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, vocab, monkeypatch):
        write_lines(tmp_path / "p.jsonl", [record()])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        fused = {(0, pair_key(pred_set.frames[0].pairs[0], 0), r): 0.5 for r in range(vocab.n)}

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_predictions(pred_set, fused, str(tmp_path / "out.jsonl"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.jsonl", "vocab.txt"]

    def test_missing_fused_entry(self, tmp_path, vocab):
        write_lines(tmp_path / "p.jsonl", [record()])
        pred_set = load_predictions(tmp_path / "p.jsonl", vocab)
        with pytest.raises(KeyError):
            write_predictions(pred_set, {}, str(tmp_path / "o.jsonl"))
