"""Seeded synthetic inputs for the benchmark.

A video has 8 pairs per frame: 6 tracked pairs (with ``pair_id`` and ground
truth) and 2 untracked ones (position-keyed, so common-sense scores reach them
only through text-keyed propagation). Every pair has a distinct object class
and exactly three candidate relations above the candidate floor. A tracked
pair's true relation is normally its argmax; about 3% of its frames flip the
argmax to a distractor for one frame, which creates a transition into and out
of the flip. Boxes jitter by up to 3 px per frame.

The work a video causes is fixed by construction, not left to chance, so
that runs with different seeds measure the same amount of work: the number of
flips per pair, their phase relative to the keyframe grid, the number of
spatial-aware candidates and the number of contested (debated) slots are all
exact counts. Only positions and values depend on the seed.

Besides the files the program reads, :func:`make_video` returns the
:class:`Scenario` the mock LLM answers from (see ``transport.py``).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

RELATIONS = ["hold", "carry", "hug", "ride", "lean on",
             "next to", "look at", "push", "sit on", "touch"]
OBJECTS = ["fruit", "bicycle", "skateboard", "cup", "chair", "table",
           "bottle", "dog", "horse", "laptop", "umbrella", "ball"]
# relations the mock LLM calls spatial-aware
SPATIAL_AWARE = ("ride", "next to", "lean on", "push")

FRAME_W, FRAME_H = 640.0, 480.0
KEYFRAME_INTERVAL = 4
TRACKED, UNTRACKED = 6, 2
PAIRS = TRACKED + UNTRACKED
# pairs 0..3 have one spatial-aware candidate each, the others none
AWARE_PAIRS = 4
FLIP_SHARE = 0.03
DEBATE_SHARE = 0.03
JITTER = 3


@dataclass(frozen=True)
class Scenario:
    """What the mock LLM knows about one video.

    ``rationality`` maps triplet text to the score a careful model would give;
    ``contested`` holds the spatial test items ``(text, human_box, object_box)``
    on which the two providers disagree strongly, which is what gets them
    debated.
    """

    seed: int
    rationality: dict
    contested: frozenset


def save_scenario(path: str, scenario: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": scenario.seed, "rationality": scenario.rationality,
                   "contested": sorted(scenario.contested)}, fh, sort_keys=True)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    contested = frozenset((text, tuple(hb), tuple(ob)) for text, hb, ob in raw["contested"])
    return Scenario(seed=raw["seed"], rationality=raw["rationality"], contested=contested)


def _candidate_sets(rng: random.Random) -> list[list[str]]:
    """Three distinct candidate relations per pair; pairs below AWARE_PAIRS
    get exactly one spatial-aware relation, the rest none, and every relation
    appears somewhere so that every awareness query is asked."""
    aware = list(SPATIAL_AWARE)
    plain = [r for r in RELATIONS if r not in SPATIAL_AWARE]
    rng.shuffle(aware)
    while True:
        sets = []
        for p in range(PAIRS):
            if p < AWARE_PAIRS:
                sets.append([aware[p]] + rng.sample(plain, 2))
            else:
                sets.append(rng.sample(plain, 3))
        if {r for s in sets for r in s} == set(RELATIONS):
            return sets


def _flip_frames(rng: random.Random, n_frames: int) -> list[set[int]]:
    """Per tracked pair, the frames whose argmax flips. Flip k of a pair
    sits at phase k % 4 of an even keyframe block, so every pair has the same
    number of keyframe-adjacent transitions and no two flips touch."""
    flips_per_pair = round(FLIP_SHARE * n_frames)
    blocks = list(range(2, n_frames // KEYFRAME_INTERVAL - 1, 2))
    out = []
    for _ in range(TRACKED):
        chosen = rng.sample(blocks, flips_per_pair)
        out.append({KEYFRAME_INTERVAL * b + k % KEYFRAME_INTERVAL
                    for k, b in enumerate(chosen)})
    return out


def _base_box(rng: random.Random) -> tuple[list[int], list[int]]:
    hx, hy = rng.randint(10, 400), rng.randint(10, 150)
    human = [hx, hy, hx + rng.randint(80, 200), hy + rng.randint(150, 300)]
    ox, oy = rng.randint(10, 500), rng.randint(10, 350)
    obj = [ox, oy, ox + rng.randint(30, 120), oy + rng.randint(30, 110)]
    return human, obj


def _jittered(rng: random.Random, box: list[int]) -> list[float]:
    return [float(v + rng.randint(-JITTER, JITTER)) for v in box]


def make_video(directory: str, seed: int, n_frames: int) -> Scenario:
    """Write predictions.jsonl, gt.jsonl, vocab.txt and config.json for one
    video under ``directory`` and return its scenario."""
    rng = random.Random(f"video/{seed}")
    os.makedirs(directory, exist_ok=True)
    objects = rng.sample(OBJECTS, PAIRS)
    candidates = _candidate_sets(rng)
    truth = [rng.choice(c) for c in candidates[:TRACKED]]
    distractor = [rng.choice([r for r in c if r != t])
                  for c, t in zip(candidates, truth)]
    flips = _flip_frames(rng, n_frames)
    boxes = [_base_box(rng) for _ in range(PAIRS)]
    idx = {name: i for i, name in enumerate(RELATIONS)}

    rationality = {}
    for p in range(PAIRS):
        for r in candidates[p]:
            text = f"<person,{r},{objects[p]}>"
            if p >= TRACKED:
                rationality[text] = round(rng.uniform(0.1, 0.9), 2)
            elif r == truth[p]:
                rationality[text] = round(rng.uniform(0.75, 0.95), 2)
            else:
                rationality[text] = round(rng.uniform(0.05, 0.35), 2)

    aware_slots = []
    pred_lines, gt_lines = [], []
    for f in range(n_frames):
        for p in range(PAIRS):
            scores = [round(rng.uniform(0.0, 0.045), 4) for _ in RELATIONS]
            for r in candidates[p]:
                scores[idx[r]] = round(rng.uniform(0.06, 0.2), 4)
            if p < TRACKED:
                t, d = idx[truth[p]], idx[distractor[p]]
                # the true relation is the argmax except on flips, but often
                # too weak to pass the 0.3 threshold without an agent's boost
                if f in flips[p]:
                    scores[d] = round(rng.uniform(0.5, 0.8), 4)
                    scores[t] = round(rng.uniform(0.1, 0.28), 4)
                else:
                    scores[t] = round(rng.uniform(0.22, 0.7), 4)
                    scores[d] = round(scores[t] * rng.uniform(0.3, 0.9), 4)
            else:
                for r in candidates[p]:
                    scores[idx[r]] = round(rng.uniform(0.06, 0.7), 4)
            human, obj = (_jittered(rng, b) for b in boxes[p])
            rec = {
                "video_id": f"bench-{seed}",
                "frame_index": f,
                "frame_w": FRAME_W,
                "frame_h": FRAME_H,
                "pair_id": [p, 100 + p] if p < TRACKED else None,
                "object_class": objects[p],
                "human_box": human,
                "object_box": obj,
                "scores": scores,
            }
            pred_lines.append(json.dumps(rec, sort_keys=True))
            if p < TRACKED:
                gt_lines.append(json.dumps(
                    {"frame_index": f, "pair_id": [p, 100 + p],
                     "relation_index": idx[truth[p]]}, sort_keys=True))
            if f % KEYFRAME_INTERVAL == 0 and p < AWARE_PAIRS:
                aware_slots.append((f"<person,{candidates[p][0]},{objects[p]}>",
                                    tuple(int(v) for v in human),
                                    tuple(int(v) for v in obj)))

    n_keyframe_candidates = len(range(0, n_frames, KEYFRAME_INTERVAL)) * PAIRS * 3
    contested = rng.sample(aware_slots, round(DEBATE_SHARE * n_keyframe_candidates))

    _write(os.path.join(directory, "predictions.jsonl"), pred_lines)
    _write(os.path.join(directory, "gt.jsonl"), gt_lines)
    _write(os.path.join(directory, "vocab.txt"), RELATIONS)
    return Scenario(seed=seed, rationality=rationality, contested=frozenset(contested))


def write_config(path: str) -> None:
    """The run configuration shared by every refine workload."""
    provider = {"kind": "mock", "max_concurrency": 4, "backoff_base": 0.05}
    config = {
        "providers": [dict(provider, id="alpha", model_name="mock-alpha"),
                      dict(provider, id="beta", model_name="mock-beta")],
        "judge_provider": "alpha",
        "keyframe_interval": KEYFRAME_INTERVAL,
        "batch_size": 16,
        "candidate_floor": 0.05,
        "debate_mode": "disagreement",
        # per-provider noise moves a fused score by < 0.03; a contested
        # spatial item moves it by ~0.09
        "disagreement_delta": 0.05,
        "weights": {"lambda_cs": 0.1, "lambda_s": 0.5, "lambda_t": 0.5,
                    "lambda_debate": 0.5, "threshold": 0.3},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_embedding_batch(path: str, seed: int, k: int = 16, d_f: int = 16,
                         d_e: int = 16) -> None:
    """An embedding batch in the program's JSONL format with exactly a quarter
    of the off-diagonal cells masked in, so every seed costs the same work."""
    rng = np.random.default_rng(seed)
    off_diagonal = [(i, j) for i in range(k) for j in range(k) if i != j]
    chosen = rng.choice(len(off_diagonal), size=len(off_diagonal) // 4, replace=False)
    mask = np.zeros((k, k), dtype=bool)
    for c in chosen:
        mask[off_diagonal[c]] = True
    f_human, f_inter, f_obj = (rng.normal(size=(k, k, d_f)) for _ in range(3))
    e_text = rng.normal(size=(k, k, d_e))
    lines = [json.dumps({"k": k, "d_f": d_f, "d_e": d_e, "metric": "neg_cosine"},
                        sort_keys=True)]
    for i in range(k):
        for j in range(k):
            lines.append(json.dumps({
                "i": i, "j": j,
                "f_human": f_human[i, j].tolist(),
                "f_inter": f_inter[i, j].tolist(),
                "f_obj": f_obj[i, j].tolist(),
                "e_text": e_text[i, j].tolist(),
                "gt": bool(mask[i, j]),
            }, sort_keys=True))
    _write(path, lines)


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
