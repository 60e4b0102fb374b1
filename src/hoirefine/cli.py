"""Command-line entry point.

Subcommands:
  refine     run the full refinement pipeline and write refined predictions
  eval       Recall@K of a (refined) prediction file against ground truth
  ablate     Recall@K over every component on/off combination
  gradcheck  finite-difference verification of the embedding-loss gradients

Exit codes: 0 success; 1 invalid input or configuration, a failed output
write, or a failed gradient check; 2 provider exhaustion. The subcommands
raise; ``main`` alone turns an error into an ``error:`` line and its exit
code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .config import DEBATE_MODES, load_config
from .evaluation import (
    AblationRow,
    DEFAULT_KS,
    NoGroundTruthError,
    format_ablation_table,
    positives_per_frame,
    recall_at_k_dataset,
    write_ablation_report,
)
from .ingest import (
    load_ground_truth,
    load_predictions,
    load_vocabulary,
    write_atomic,
    write_predictions,
)
from .model import SCORE_KINDS, FusedScores, FusionWeights, tracked_pair_key
from .pipeline import build_providers, fuse_table, refine
from .provider import ProviderError, RuleTableError
from . import embedloss


def _ks(args) -> list[int]:
    ks = args.k or list(DEFAULT_KS)
    if min(ks) < 1 or len(set(ks)) < len(ks):
        raise ValueError(f"each --k must be >= 1 and given once, not {' '.join(map(str, ks))}")
    return ks


def _check_out_path(path: Optional[str], flag: str) -> None:
    """Reject an output path given to ``flag`` that is empty, is a directory
    or whose directory does not exist, so the command fails before doing any
    work for it. No path (None) passes."""
    if path is None:
        return
    if not path:
        raise ValueError(f"{flag} is an empty path")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path}: is a directory")


def _gt_per_frame(gt_set) -> dict[int, frozenset]:
    return {
        fi: frozenset({(tracked_pair_key(pid), r) for pid, r in triplets})
        for fi, triplets in gt_set.frames.items()
    }


def _load_run(args):
    """The configuration with the ``--interval`` and ``--debate-mode``
    overrides, the prediction set and the providers of a ``refine`` or
    ``ablate`` run, after checking the ``--out`` path. Building the
    providers reads their rule tables but calls none of them."""
    config = load_config(args.config)
    if args.interval is not None:
        config = replace(config, keyframe_interval=args.interval)
    if args.debate_mode is not None:
        config = replace(config, debate_mode=args.debate_mode)
    pred_set = load_predictions(args.predictions, load_vocabulary(args.vocab))
    _check_out_path(args.out, "--out")
    return config, pred_set, build_providers(config)


def cmd_refine(args) -> int:
    config, pred_set, providers = _load_run(args)
    transcript_dir = os.path.join(args.cache_dir, "transcripts") if args.cache_dir else None
    outcome = refine(pred_set, config, cache_dir=args.cache_dir,
                     transcript_dir=transcript_dir, providers=providers)
    write_predictions(pred_set, outcome.fused, args.out)
    print(outcome.stats.summary())
    print(f"refined predictions written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    ks = _ks(args)
    _check_out_path(args.report, "--report")
    pred_set = load_predictions(args.refined, load_vocabulary(args.vocab))
    gt = load_ground_truth(args.gt, pred_set)
    positives = positives_per_frame(FusedScores(pred_set, pred_set.scores.ravel()), args.threshold)
    recalls = recall_at_k_dataset(positives, _gt_per_frame(gt), ks)
    width = max(len(f"R@{k}") for k in ks)
    for k in ks:
        print(f"{f'R@{k}':<{width}}  {recalls[k]:.2f}")
    if args.report:
        write_atomic(args.report, (json.dumps({"threshold": args.threshold,
                                               "recall": {str(k): recalls[k] for k in ks}},
                                              sort_keys=True, indent=2) + "\n",))
        print(f"report written to {args.report}")
    return 0


def cmd_ablate(args) -> int:
    ks = _ks(args)
    config, pred_set, providers = _load_run(args)
    if args.threshold is not None:
        config = replace(config, weights=replace(config.weights, threshold=args.threshold))
    gt = load_ground_truth(args.gt, pred_set)
    if not gt.frames:
        raise NoGroundTruthError(f"{args.gt}: no ground-truth records")
    gt_frames = _gt_per_frame(gt)
    threshold = config.weights.threshold

    # one full run computes every agent/debate score; each row just re-fuses
    outcome = refine(pred_set, config, cache_dir=args.cache_dir,
                     transcript_dir=None, providers=providers)

    def row_for(label: str, toggles: dict) -> AblationRow:
        fused = fuse_table(pred_set, outcome.table, config.weights, toggles)
        recalls = recall_at_k_dataset(positives_per_frame(fused, threshold), gt_frames, ks)
        return AblationRow(label=label, toggles=toggles, recalls=recalls)

    rows = [row_for("baseline", {c: False for c in SCORE_KINDS})]
    for bits in itertools.product((False, True), repeat=len(SCORE_KINDS)):
        toggles = dict(zip(SCORE_KINDS, bits))
        label = "+".join(c for c in SCORE_KINDS if toggles[c]) or "none"
        rows.append(row_for(label, toggles))

    table_text = format_ablation_table(rows, ks)
    print(table_text)
    if args.out:
        write_ablation_report(rows, args.out, ks)
        write_atomic(args.out + ".txt", (table_text + "\n",))
        print(f"ablation report written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    batch, file_metric = embedloss.load_embedding_batch(args.batch)
    if not batch.gt_mask.any():
        raise ValueError(f"{args.batch}: no ground-truth cell, so no gradient to check")
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
    p.add_argument("--debate-mode", choices=DEBATE_MODES, default=None)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="Recall@K of a prediction file")
    p.add_argument("--refined", required=True, help="prediction file to score")
    p.add_argument("--gt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--threshold", type=float, default=FusionWeights.threshold)
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
    p.add_argument("--debate-mode", choices=DEBATE_MODES, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--k", type=int, nargs="+", default=None)
    p.add_argument("--out", default=None, help="machine-readable report path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify embedding-loss gradients")
    p.add_argument("--batch", required=True, help="embedding batch file")
    p.add_argument("--metric", choices=embedloss.METRICS, default=None)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. An invalid input or
    configuration, or a failed read or write (ValueError, OSError or
    RuleTableError), prints ``error: ...`` and returns 1; any other
    ProviderError prints ``error: provider exhausted: ...`` and returns 2."""
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuleTableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProviderError as exc:
        print(f"error: provider exhausted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
