"""Recall@K under the semi-constraint rule, dataset aggregation, and the
component-ablation report.

Only positive predictions (fused score strictly above the threshold) compete
for the top-K slots; K truncates within that pool. Positives are selected
from a ``model.FusedScores`` column: ``pipeline.fuse_table``'s output, or a
loaded set's own scores wrapped over its ``SlotLayout``. Frames without ground
truth are skipped by the dataset mean, which is the per-frame average used
by the metric lineage this follows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ingest import write_atomic
from .model import SCORE_KINDS, FusedScores

DEFAULT_KS = (10, 20, 50)


class NoGroundTruthError(ValueError):
    pass


def positives_per_frame(fused: FusedScores, threshold: float) -> dict[int, list[tuple]]:
    """Per frame, the (pair_key, relation_index, score) positives competing
    for the top-K slots, in slot order; frames without positives are absent.
    The positives are the semi-constraint selection: every slot whose score
    is strictly above ``threshold``, several relations per pair allowed,
    taken with one array comparison over ``fused``'s column."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0,1)")
    selected = np.flatnonzero(fused.values > threshold)
    layout = fused.layout
    rows, relations = np.divmod(selected, layout.n)
    frames: dict[int, list[tuple]] = {}
    for frame_index, row, r, score in zip(layout.frame[rows].tolist(), rows.tolist(),
                                          relations.tolist(), fused.values[selected].tolist()):
        frames.setdefault(frame_index, []).append((layout.pair_keys[row], r, score))
    return frames


def recall_at_k_frame(
    positives: Iterable[tuple],
    gt: frozenset,
    k: int,
) -> float:
    """Fraction of ground-truth triplets inside the top-k positives.

    ``positives`` yields (pair_key, relation_index, score). The ranking is by
    score descending with a total tie rule: lower pair key first, then lower
    relation index. ``gt`` holds (pair_key, relation_index) entries.
    """
    if not gt:
        raise NoGroundTruthError("frame has no ground-truth triplets")
    ranked = sorted(positives, key=lambda item: (-item[2], item[0], item[1]))
    top = {(pk, r) for pk, r, _ in ranked[:k]}
    return len(top & set(gt)) / len(gt)


def recall_at_k_dataset(
    frame_positives: dict[int, list[tuple]],
    frame_gt: dict[int, frozenset],
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Unweighted mean of per-frame recalls over frames that have ground
    truth, as percentages rounded to 2 decimals."""
    frames = [fi for fi in sorted(frame_gt) if frame_gt[fi]]
    if not frames:
        raise NoGroundTruthError("no frame has ground truth")
    result = {}
    for k in ks:
        recalls = [
            recall_at_k_frame(frame_positives.get(fi, []), frame_gt[fi], k)
            for fi in frames
        ]
        result[k] = round(100.0 * sum(recalls) / len(recalls), 2)
    return result


@dataclass(frozen=True)
class AblationRow:
    label: str
    toggles: dict
    recalls: dict[int, float]


def format_ablation_table(rows: list[AblationRow], ks: Sequence[int] = DEFAULT_KS) -> str:
    """Aligned text table, baseline row first (callers pass it first)."""
    headers = ["configuration", "common sense", "spatial", "temporal", "debate"] + [
        f"R@{k}" for k in ks
    ]
    body = []
    for row in rows:
        cells = [row.label]
        for kind in SCORE_KINDS:
            cells.append("x" if row.toggles.get(kind) else "")
        cells.extend(f"{row.recalls[k]:.2f}" for k in ks)
        body.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for cells in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)))
    lines.append("")
    lines.append("note: frames without ground truth are excluded from the mean")
    return "\n".join(lines)


def write_ablation_report(rows: list[AblationRow], path: str,
                          ks: Sequence[int] = DEFAULT_KS) -> None:
    """Machine-readable companion to the text table: one JSON record per row,
    written with ``write_atomic``."""
    write_atomic(path, (
        json.dumps({
            "label": row.label,
            "toggles": {k: bool(v) for k, v in sorted(row.toggles.items())},
            "recall": {str(k): row.recalls[k] for k in ks},
        }, sort_keys=True) + "\n"
        for row in rows))
