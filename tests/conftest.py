import os
from typing import NamedTuple, Optional

import numpy as np
import pytest

from hoirefine.config import load_config
from hoirefine.ingest import load_ground_truth, load_predictions, load_vocabulary
from hoirefine.model import SCORE_KINDS, FramePrediction, VideoPredictionSet, pair_key

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


class PairRecord(NamedTuple):
    """A pair for ``pack``, with a ``PairPrediction``'s fields; ``scores``
    None for 0.5 per relation of the set it is packed into."""

    object_class: str
    human_box: tuple
    object_box: tuple
    scores: Optional[tuple]
    pair_id: Optional[tuple]


def make_pair(scores=None, pair_id=(0, 1), human_box=None, object_box=None,
              object_class="chair") -> PairRecord:
    return PairRecord(object_class, human_box or (10, 10, 50, 100),
                      object_box or (20, 40, 60, 90), scores, pair_id)


def pack(vocabulary, frames, video_id="v", score_scale="base") -> VideoPredictionSet:
    """A prediction set of ``frames``, in order, packed into the set's
    columns: each frame a ``(frame_index, width, height, pairs)`` tuple or
    a frame of another set, each pair a ``PairRecord`` or a pair of another
    set. Equal pair ids share one code, and equal labels one."""
    index, size, row_start, pair_codes, class_codes, scores, boxes = [], [], [0], [], [], [], []
    pair_ids, labels = {}, {}
    for frame in frames:
        if isinstance(frame, FramePrediction):
            frame = (frame.frame_index, frame.frame_width, frame.frame_height, frame.pairs)
        fi, width, height, pairs = frame
        index.append(fi)
        size.append((width, height))
        for pair in pairs:
            pair_codes.append(-1 if pair.pair_id is None
                              else pair_ids.setdefault(pair.pair_id, len(pair_ids)))
            class_codes.append(labels.setdefault(pair.object_class, len(labels)))
            scores.append((0.5,) * vocabulary.n if pair.scores is None else tuple(pair.scores))
            boxes.append((*pair.human_box, *pair.object_box))
        row_start.append(len(pair_codes))
    return VideoPredictionSet(
        video_id, vocabulary, frame_index=index, frame_size=np.array(size, float).reshape(-1, 2),
        row_start=row_start, pair_code=pair_codes, pair_ids=pair_ids, class_code=class_codes,
        labels=labels, scores=np.array(scores, float).reshape(-1, len(scores[0]) if scores
                                                             else vocabulary.n),
        boxes=np.array(boxes, float).reshape(-1, 8), score_scale=score_scale)


def slots_of(video: VideoPredictionSet) -> list[tuple]:
    """Every (frame_index, pair_key, relation_index) slot tuple of ``video``,
    by brute force over its frames and pairs: slot ``i`` is item ``i``."""
    return [(frame.frame_index, pair_key(pair, i), r) for frame in video.frames
            for i, pair in enumerate(frame.pairs) for r in range(video.vocabulary.n)]


def kinds_at(scores, *slot) -> dict[str, float]:
    """The kinds ``AgentScores`` ``scores`` holds at one slot, each with its
    score, read from its columns. The slot is an index of its set's score
    column or a (frame_index, pair_key, relation_index) tuple; one that is
    no slot holds none."""
    i = slot[0] if len(slot) == 1 else {s: i for i, s in enumerate(
        slots_of(scores.pred_set))}.get(slot)
    if i is None:
        return {}
    return {kind: values.item(j) for kind, (index, values) in zip(SCORE_KINDS, scores.columns)
            for j in [int(np.searchsorted(index, i))] if j < len(index) and index[j] == i}


def held_entries(scores) -> dict:
    """Per slot tuple holding any kind, the kinds ``AgentScores`` ``scores``
    holds there with their scores, in slot order."""
    return {slot: kinds for i, slot in enumerate(slots_of(scores.pred_set))
            if (kinds := kinds_at(scores, i))}


def slot_tuples(video: VideoPredictionSet, scores: dict) -> dict:
    """``scores``, keyed by ``video``'s slot tuples in place of their indices."""
    slots = slots_of(video)
    return {slots[i]: value for i, value in scores.items()}


@pytest.fixture(scope="session")
def fixture_vocab():
    return load_vocabulary(fixture_path("vocab.txt"))


@pytest.fixture(scope="session")
def fixture_predictions(fixture_vocab):
    return load_predictions(fixture_path("predictions.jsonl"), fixture_vocab)


@pytest.fixture(scope="session")
def fixture_gt(fixture_predictions):
    return load_ground_truth(fixture_path("gt.jsonl"), fixture_predictions)


@pytest.fixture(scope="session")
def fixture_config():
    return load_config(fixture_path("config.json"))


# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line("  " + line)
