"""Command-line entry point.

Subcommands:
  refine     run the full refinement pipeline and write refined predictions
  eval       Recall@K of a (refined) prediction file against ground truth
  ablate     Recall@K over every component on/off combination
  gradcheck  finite-difference verification of the embedding-loss gradients

Exit codes: 0 success, 1 invalid input/configuration (or a failed gradient
check), 2 provider exhaustion.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys

import numpy as np

from .config import load_config
from .evaluation import (
    AblationRow,
    DEFAULT_KS,
    NoGroundTruthError,
    format_ablation_table,
    positives_per_frame,
    recall_at_k_dataset,
    write_ablation_report,
)
from .ingest import load_ground_truth, load_predictions, load_vocabulary, write_predictions
from .model import pair_key
from .pipeline import build_providers, fuse_table, refine
from .provider import ProviderError, RuleTableError
from . import embedloss

log = logging.getLogger("hoirefine")


def _ks(args) -> list[int]:
    ks = args.k or list(DEFAULT_KS)
    if min(ks) < 1:
        raise ValueError("every --k must be >= 1")
    return ks


def _gt_per_frame(gt_set) -> dict[int, frozenset]:
    return {
        fi: frozenset({(("id",) + tuple(pid), r) for pid, r in triplets})
        for fi, triplets in gt_set.frames.items()
    }


def _apply_overrides(config, args):
    from dataclasses import replace

    if getattr(args, "interval", None) is not None:
        config = replace(config, keyframe_interval=args.interval)
    if getattr(args, "debate_mode", None) is not None:
        config = replace(config, debate_mode=args.debate_mode)
    if getattr(args, "threshold", None) is not None:
        config = replace(config, weights=replace(config.weights, threshold=args.threshold))
    return config


def cmd_refine(args) -> int:
    try:
        config = _apply_overrides(load_config(args.config), args)
        vocab = load_vocabulary(args.vocab)
        pred_set = load_predictions(args.predictions, vocab)
        providers = build_providers(config)
    except (ValueError, OSError, RuleTableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    transcript_dir = None
    if args.cache_dir:
        import os

        transcript_dir = os.path.join(args.cache_dir, "transcripts")
    try:
        outcome = refine(pred_set, config, cache_dir=args.cache_dir,
                         transcript_dir=transcript_dir, providers=providers)
    except ProviderError as exc:
        print(f"error: provider exhausted: {exc}", file=sys.stderr)
        return 2
    write_predictions(pred_set, outcome.fused, args.out)
    print(outcome.stats.summary())
    print(f"refined predictions written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    try:
        ks = _ks(args)
        vocab = load_vocabulary(args.vocab)
        pred_set = load_predictions(args.refined, vocab)
        gt = load_ground_truth(args.gt, pred_set)
        scores = {(frame.frame_index, pair_key(pair, i), r): s
                  for frame in pred_set.frames
                  for i, pair in enumerate(frame.pairs)
                  for r, s in enumerate(pair.scores)}
        positives = positives_per_frame(scores, args.threshold)
        recalls = recall_at_k_dataset(positives, _gt_per_frame(gt), ks)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max(len(f"R@{k}") for k in ks)
    for k in ks:
        print(f"{f'R@{k}':<{width}}  {recalls[k]:.2f}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"threshold": args.threshold,
                       "recall": {str(k): recalls[k] for k in ks}},
                      fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0


def cmd_ablate(args) -> int:
    try:
        ks = _ks(args)
        config = _apply_overrides(load_config(args.config), args)
        vocab = load_vocabulary(args.vocab)
        pred_set = load_predictions(args.predictions, vocab)
        gt = load_ground_truth(args.gt, pred_set)
        if not gt.frames:
            raise NoGroundTruthError(f"{args.gt}: no ground-truth records")
        providers = build_providers(config)
    except (ValueError, OSError, RuleTableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    gt_frames = _gt_per_frame(gt)
    threshold = config.weights.threshold

    # one full run computes every agent/debate score; each row just re-fuses
    try:
        outcome = refine(pred_set, config, cache_dir=args.cache_dir,
                         transcript_dir=None, providers=providers)
    except ProviderError as exc:
        print(f"error: provider exhausted: {exc}", file=sys.stderr)
        return 2

    def row_for(label: str, toggles: dict) -> AblationRow:
        fused = fuse_table(pred_set, outcome.table, config.weights, toggles)
        recalls = recall_at_k_dataset(positives_per_frame(fused, threshold), gt_frames, ks)
        return AblationRow(label=label, toggles=toggles, recalls=recalls)

    components = ("cs", "spatial", "temporal", "debate")
    rows = [row_for("baseline", {c: False for c in components})]
    for bits in itertools.product((False, True), repeat=len(components)):
        toggles = dict(zip(components, bits))
        label = "+".join(c for c in components if toggles[c]) or "none"
        rows.append(row_for(label, toggles))

    table_text = format_ablation_table(rows, ks)
    print(table_text)
    if args.out:
        write_ablation_report(rows, args.out, ks)
        with open(args.out + ".txt", "w", encoding="utf-8") as fh:
            fh.write(table_text + "\n")
        print(f"ablation report written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.h <= 0:
        print("error: step h must be > 0", file=sys.stderr)
        return 1
    try:
        batch, file_metric = embedloss.load_embedding_batch(args.batch)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metric = args.metric or file_metric
    rng = np.random.default_rng(args.seed)
    params = embedloss.random_mlp(rng, 3 * batch.feature_dim, hidden=(16,),
                                  d_out=batch.embed_dim)
    error = embedloss.finite_diff_check(params, batch, metric, args.h)
    print(f"max relative gradient error: {error:.3e} (metric={metric}, h={args.h})")
    if error <= 1e-4:
        print("gradient check passed")
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoirefine",
        description="Refine video human-object-interaction predictions with "
                    "collaborating language models and evaluate Recall@K.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="run the refinement pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--interval", type=int, default=None)
    p.add_argument("--debate-mode", choices=("disagreement", "always", "off"), default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="Recall@K of a prediction file")
    p.add_argument("--refined", required=True, help="prediction file to score")
    p.add_argument("--gt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--k", type=int, nargs="+", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="component on/off Recall@K grid")
    p.add_argument("--config", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--interval", type=int, default=None)
    p.add_argument("--debate-mode", choices=("disagreement", "always", "off"), default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--k", type=int, nargs="+", default=None)
    p.add_argument("--out", default=None, help="machine-readable report path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify embedding-loss gradients")
    p.add_argument("--batch", required=True, help="embedding batch file")
    p.add_argument("--metric", choices=("l1", "neg_cosine"), default=None)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
