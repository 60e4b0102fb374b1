#!/usr/bin/env python3
"""Regenerate the synthetic offline fixture under fixtures/, or under the
directory given as the only argument:

    python3 tools/make_fixture.py [OUT_DIR]

The fixture encodes one correctable error per pair so each reasoning
component fixes a disjoint slice of the ground truth:

  pair 0  person-fruit      wrong 'hug' scored high, true 'carry' low;
                            fixed by common-sense scoring alone
  pair 1  person-bicycle    'ride' predicted but the person is beside the
                            bike; true 'next to' needs the spatial stage
  pair 2  person-skateboard argmax flips ride -> carry at frame 4; the
                            weak true 'carry' needs the transition score
  pair 3  person-cup        absurd 'sit on' on top, true 'hold' too weak
                            for stage 1; only the debate judge rescues it

With the shipped weights each component's boost pushes exactly its target
relation past the 0.3 positive threshold, so recall improves monotonically
as components are enabled.
"""

import argparse
import json
import os
import sys

import numpy as np

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

VOCAB = ["hold", "carry", "hug", "ride", "lean on",
         "next to", "look at", "push", "sit on", "touch"]
IDX = {name: i for i, name in enumerate(VOCAB)}

N_FRAMES = 20
FRAME_W, FRAME_H = 640.0, 480.0

PAIRS = {
    "p0": {"pair_id": [0, 10], "object_class": "fruit",
           "human_box": [200, 100, 320, 380], "object_box": [230, 250, 300, 320]},
    "p1": {"pair_id": [0, 11], "object_class": "bicycle",
           "human_box": [300, 150, 420, 360], "object_box": [80, 220, 240, 340]},
    "p2": {"pair_id": [0, 12], "object_class": "skateboard",
           "human_box": [100, 80, 180, 300], "object_box": [90, 280, 200, 320]},
    "p3": {"pair_id": [0, 13], "object_class": "cup",
           "human_box": [400, 120, 500, 400], "object_box": [430, 200, 460, 240]},
}


def scores_for(pair_name, frame):
    base = [0.02] * len(VOCAB)
    if pair_name == "p0":
        base[IDX["hug"]] = 0.9
        base[IDX["carry"]] = 0.25
    elif pair_name == "p1":
        base[IDX["ride"]] = 0.85
        base[IDX["next to"]] = 0.15
    elif pair_name == "p2":
        if frame < 4:
            base[IDX["ride"]] = 0.9
            base[IDX["carry"]] = 0.05
        else:
            base[IDX["carry"]] = 0.15
    elif pair_name == "p3":
        base[IDX["sit on"]] = 0.8
        base[IDX["hold"]] = 0.18
    return base


def gt_for(pair_name, frame):
    if pair_name == "p0":
        return IDX["carry"]
    if pair_name == "p1":
        return IDX["next to"]
    if pair_name == "p2":
        return IDX["ride"] if frame < 4 else IDX["carry"]
    return IDX["hold"]


def write_predictions(path):
    with open(path, "w") as fh:
        for frame in range(N_FRAMES):
            for name, meta in PAIRS.items():
                rec = {
                    "video_id": "synthetic",
                    "frame_index": frame,
                    "frame_w": FRAME_W,
                    "frame_h": FRAME_H,
                    "pair_id": meta["pair_id"],
                    "object_class": meta["object_class"],
                    "human_box": [float(v) for v in meta["human_box"]],
                    "object_box": [float(v) for v in meta["object_box"]],
                    "scores": scores_for(name, frame),
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_gt(path):
    with open(path, "w") as fh:
        for frame in range(N_FRAMES):
            for name, meta in PAIRS.items():
                rec = {"frame_index": frame, "pair_id": meta["pair_id"],
                       "relation_index": gt_for(name, frame)}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def spatial_key(triplet, pair_name):
    hb = PAIRS[pair_name]["human_box"]
    return f"{triplet} person box [{hb[0]},{hb[1]},{hb[2]},{hb[3]}]"


def rules(hold_cup_score):
    out = []
    # box-specific spatial verdicts first: the person sits beside the bike,
    # so 'ride' is geometrically wrong and 'next to' right
    out.append({"match": "contains", "key": spatial_key("<person,ride,bicycle>", "p1"),
                "response": "Output: 0.1"})
    out.append({"match": "contains", "key": spatial_key("<person,next to,bicycle>", "p1"),
                "response": "Output: 1.0"})
    # spatial-awareness verdicts
    for name in ("ride", "next to"):
        out.append({"match": "relation", "key": name, "response": "yes"})
    for name in ("hold", "carry", "hug", "lean on", "look at", "push", "sit on", "touch"):
        out.append({"match": "relation", "key": name, "response": "no"})
    # rationality scores, shared by the common-sense, temporal and debate roles
    for key, score in [
        ("<person,carry,skateboard>", 0.9),
        ("<person,ride,skateboard>", 1.0),
        ("<person,hug,fruit>", 0.1),
        ("<person,carry,fruit>", 1.0),
        ("<person,ride,bicycle>", 1.0),
        ("<person,next to,bicycle>", 0.8),
        ("<person,sit on,cup>", 0.05),
        ("<person,hold,cup>", hold_cup_score),
    ]:
        out.append({"match": "triplet", "key": key, "response": f"Output: {score}"})
    return out


def write_rules(path, hold_cup_score):
    with open(path, "w") as fh:
        for rule in rules(hold_cup_score):
            fh.write(json.dumps(rule, sort_keys=True) + "\n")


def write_config(path):
    config = {
        "providers": [
            {"id": "alpha", "kind": "mock", "model_name": "mock-alpha",
             "rules_path": "rules_alpha.jsonl"},
            {"id": "beta", "kind": "mock", "model_name": "mock-beta",
             "rules_path": "rules_beta.jsonl"},
        ],
        "judge_provider": "alpha",
        "keyframe_interval": 4,
        "weights": {"lambda_cs": 0.1, "lambda_s": 0.5, "lambda_t": 0.5,
                    "lambda_debate": 0.5, "threshold": 0.3},
        "debate_mode": "always",
        "disagreement_delta": 0.1,
        "candidate_floor": 0.05,
        "batch_size": 1,
    }
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_embedding_batch(path):
    sys.path.insert(0, os.path.join(REPO, "src"))
    from hoirefine import embedloss

    rng = np.random.default_rng(7)
    batch = embedloss.random_batch(rng, k=4, d_f=6, d_e=8, mask_density=0.5)
    embedloss.save_embedding_batch(batch, "neg_cosine", path)


def main():
    parser = argparse.ArgumentParser(description="Write the synthetic offline fixture.")
    parser.add_argument("out_dir", nargs="?", default=os.path.join(REPO, "fixtures"))
    out = parser.parse_args().out_dir
    os.makedirs(out, exist_ok=True)
    write_predictions(os.path.join(out, "predictions.jsonl"))
    write_gt(os.path.join(out, "gt.jsonl"))
    with open(os.path.join(out, "vocab.txt"), "w") as fh:
        fh.write("\n".join(VOCAB) + "\n")
    write_rules(os.path.join(out, "rules_alpha.jsonl"), 0.9)
    write_rules(os.path.join(out, "rules_beta.jsonl"), 0.3)
    write_config(os.path.join(out, "config.json"))
    write_embedding_batch(os.path.join(out, "embedding_batch.jsonl"))
    print(f"fixture written under {os.path.abspath(out)}")


if __name__ == "__main__":
    main()
