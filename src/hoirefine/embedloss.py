"""Triplet-embedding regularization over precomputed vectors.

The model side fuses the human/interaction/object feature vectors of each
candidate pair through a small MLP; the loss is the summed distance (l1 or
negative cosine) between those fused vectors and the target text embeddings
of an external pipeline, over the cells of a ground-truth mask. The masked
cells pass through the MLP, the loss and back as the rows of one 64-bit
array, so an empty mask gives a zero loss and zero gradients; the analytic
gradients are checked against central differences by ``finite_diff_check``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .ingest import (_FLOAT_MAX, BOOLEAN, INTEGER, NUMBER, STRING, ParseError, _blocks, _fields,
                     _keys_once, _records, write_atomic)

METRICS = ("l1", "neg_cosine")
_VECTORS = ("f_human", "f_inter", "f_obj", "e_text")  # per-cell vectors of an EmbeddingBatch


class DivergenceError(RuntimeError):
    pass


@dataclass
class MlpParams:
    """Affine stack of (weight (out,in), bias (out,)) layers: tanh after
    every layer but the last, whose output is linear."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        prev = None
        for w, b in self.layers:
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("incompatible weight/bias shapes")
            if prev is not None and w.shape[1] != prev:
                raise ValueError("adjacent layer dims incompatible")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            prev = w.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams([(w.copy(), b.copy()) for w, b in self.layers])


def random_mlp(rng: np.random.Generator, d_in: int, hidden: tuple[int, ...],
               d_out: int) -> MlpParams:
    dims = (d_in, *hidden, d_out)
    layers = []
    for i in range(len(dims) - 1):
        scale = 1.0 / np.sqrt(dims[i])
        w = rng.normal(0.0, scale, size=(dims[i + 1], dims[i]))
        b = rng.normal(0.0, 0.01, size=dims[i + 1])
        layers.append((w, b))
    return MlpParams(layers)


def _forward_batch(params: MlpParams, x: np.ndarray):
    cache = []
    cur = x
    last = len(params.layers) - 1
    for depth, (w, b) in enumerate(params.layers):
        pre = cur @ w.T + b
        cache.append((cur, pre))
        cur = pre if depth == last else np.tanh(pre)
    return cur, cache


def _backward_batch(params: MlpParams, cache, d_out: np.ndarray):
    """Gradients of a scalar loss wrt every parameter, given dL/d(output)."""
    grads = []
    cur = d_out
    for (w, _), (inp, pre) in zip(reversed(params.layers), reversed(cache)):
        dpre = cur * (1.0 - np.tanh(pre) ** 2) if grads else cur  # the output layer is linear
        grads.append((dpre.T @ inp, dpre.sum(axis=0)))
        cur = dpre @ w
    return grads[::-1]


def pair_distance(metric: str, f: np.ndarray, e: np.ndarray):
    """Distance between each fused vector and its target along the last
    axis, plus the gradient with respect to ``f``. l1 uses the sign
    subgradient (0 at ties)."""
    f = np.asarray(f, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if f.shape != e.shape:
        raise ValueError("vector dims differ")
    if metric == "l1":
        diff = f - e
        return np.abs(diff).sum(axis=-1), np.sign(diff)
    if metric == "neg_cosine":
        nf = np.linalg.norm(f, axis=-1, keepdims=True)
        ne = np.linalg.norm(e, axis=-1, keepdims=True)
        if not (nf.all() and ne.all()):
            raise ZeroDivisionError("neg_cosine requires nonzero vectors")
        cos = (f * e).sum(axis=-1, keepdims=True) / (nf * ne)
        grad = -e / (nf * ne) + cos * f / (nf * nf)
        return -cos[..., 0], grad
    raise ValueError(f"unknown metric {metric!r}")


@dataclass
class EmbeddingBatch:
    """K x K grid of candidate subject-object pairs: per cell the three
    pre-fusion feature vectors, the target text embedding, and whether the
    cell corresponds to a ground-truth relation. The diagonal (a pair with
    itself) is always masked out."""

    f_human: np.ndarray  # (K, K, D_f)
    f_inter: np.ndarray
    f_obj: np.ndarray
    e_text: np.ndarray   # (K, K, D_e)
    gt_mask: np.ndarray  # (K, K) bool

    def __post_init__(self):
        k = self.gt_mask.shape[0]
        if self.gt_mask.shape != (k, k):
            raise ValueError("mask must be square")
        for name in _VECTORS:
            if getattr(self, name).shape[:2] != (k, k):
                raise ValueError(f"{name} grid shape mismatch")
        if bool(np.diag(self.gt_mask).any()):
            raise ValueError("diagonal cells must be masked out")

    @property
    def k(self) -> int:
        return self.gt_mask.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.f_human.shape[2]

    @property
    def embed_dim(self) -> int:
        return self.e_text.shape[2]


def random_batch(rng: np.random.Generator, k: int, d_f: int, d_e: int,
                 mask_density: float = 0.5) -> EmbeddingBatch:
    mask = rng.random((k, k)) < mask_density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, min(1, k - 1)] = k > 1
    return EmbeddingBatch(
        f_human=rng.normal(size=(k, k, d_f)),
        f_inter=rng.normal(size=(k, k, d_f)),
        f_obj=rng.normal(size=(k, k, d_f)),
        e_text=rng.normal(size=(k, k, d_e)),
        gt_mask=mask,
    )


def tri_emb_loss(f_model: np.ndarray, batch: EmbeddingBatch, metric: str):
    """Masked sum of per-cell distances and gradients wrt every fused vector.
    Gradients are exactly zero wherever the mask is false."""
    if f_model.shape != batch.e_text.shape:
        raise ValueError("fused grid must match target grid shape")
    values, rows = pair_distance(metric, f_model[batch.gt_mask], batch.e_text[batch.gt_mask])
    grads = np.zeros_like(f_model, dtype=np.float64)
    grads[batch.gt_mask] = rows
    return float(values.sum()), grads


def fused_forward(params: MlpParams, batch: EmbeddingBatch):
    """MLP outputs for the masked cells only (unmasked cells never touch the
    loss). Returns (f_model grid, cache, the masked rows of that grid in
    row-major cell order)."""
    mask = batch.gt_mask
    x = np.concatenate([batch.f_human[mask], batch.f_inter[mask], batch.f_obj[mask]],
                       axis=1).astype(np.float64)
    rows, cache = _forward_batch(params, x)
    f_model = np.zeros((batch.k, batch.k, params.output_dim))
    f_model[mask] = rows
    return f_model, cache, rows


def loss_and_param_grads(params: MlpParams, batch: EmbeddingBatch, metric: str):
    """Masked embedding loss through the MLP and its gradient wrt every
    parameter. An empty mask gives a zero loss and zero gradients."""
    _, cache, rows = fused_forward(params, batch)
    values, d_rows = pair_distance(metric, rows, batch.e_text[batch.gt_mask])
    return float(values.sum()), _backward_batch(params, cache, d_rows)


def finite_diff_check(params: MlpParams, batch: EmbeddingBatch, metric: str,
                      h: float = 1e-5) -> float:
    """Max over parameter coordinates of the discrepancy between the analytic
    gradient and central differences, relative to max(|g|, 1). Each
    coordinate of one copy of ``params`` is stepped to v + h and v - h in
    place, then restored.

    For l1 the inputs must sit away from sign-change neighborhoods (callers
    sample ties at least ~10h apart), otherwise the subgradient is compared
    against a kinked difference quotient.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be finite and > 0, not {h}")
    _, grads = loss_and_param_grads(params, batch, metric)
    analytic = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    stepped = params.copy()
    numeric = []
    for arr in (a for layer in stepped.layers for a in layer):
        for idx in np.ndindex(arr.shape):
            v = arr[idx]
            arr[idx] = v + h
            up, _ = loss_and_param_grads(stepped, batch, metric)
            arr[idx] = v - h
            down, _ = loss_and_param_grads(stepped, batch, metric)
            arr[idx] = v
            numeric.append((up - down) / (2.0 * h))
    numeric = np.array(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def toy_descent(params: MlpParams, batch: EmbeddingBatch, metric: str,
                steps: int, learning_rate: float) -> list[float]:
    """Plain gradient descent on the MLP parameters; returns the loss before
    each update plus the final loss (steps + 1 values)."""
    if learning_rate < 0:
        raise ValueError("learning rate must be >= 0")
    current = params.copy()
    trajectory = []
    increases = 0
    for _ in range(steps):
        loss, grads = loss_and_param_grads(current, batch, metric)
        if trajectory and loss > trajectory[-1]:
            increases += 1
            if increases >= 5:
                raise DivergenceError(f"loss increased 5 consecutive steps (now {loss})")
        else:
            increases = 0
        trajectory.append(loss)
        for (w, b), (gw, gb) in zip(current.layers, grads):
            w -= learning_rate * gw
            b -= learning_rate * gb
    final, _ = loss_and_param_grads(current, batch, metric)
    trajectory.append(final)
    return trajectory


def save_embedding_batch(batch: EmbeddingBatch, metric: str, path: str) -> None:
    """Header line (K, dims, metric) then one record per cell, row-major,
    written atomically."""
    header = {"k": batch.k, "d_f": batch.feature_dim, "d_e": batch.embed_dim, "metric": metric}
    lines = [json.dumps(header, sort_keys=True)]
    for i in range(batch.k):
        for j in range(batch.k):
            rec = {name: getattr(batch, name)[i, j].tolist() for name in _VECTORS}
            rec.update(i=i, j=j, gt=bool(batch.gt_mask[i, j]))
            lines.append(json.dumps(rec, sort_keys=True))
    write_atomic(path, ("\n".join(lines) + "\n",))


def load_embedding_batch(path: str) -> tuple[EmbeddingBatch, str]:
    """The batch and metric that ``save_embedding_batch`` wrote to ``path``.

    The header holds the integers ``k``, ``d_f`` and ``d_e`` (each >= 1) and
    ``metric``, one of METRICS. Each of the K*K cells follows once: integers
    ``i`` and ``j`` in [0, K), ``f_human``, ``f_inter`` and ``f_obj`` of
    ``d_f`` numbers, ``e_text`` of ``d_e`` numbers and the boolean ``gt``,
    false on the diagonal. The file is decoded in blocks with no number
    hook (``ingest._blocks``); a refused value, a key given twice, or a
    vector value that is not finite or may be an integer beyond float
    range sends it to a strict re-read, in which a record with another key,
    or that breaks a rule, raises ParseError at its line."""
    try:
        batch, metric = _read_batch(path, _plain_records(path))
        if all((np.abs(getattr(batch, name)) < _FLOAT_MAX).all() for name in _VECTORS):
            return batch, metric
    except (ValueError, TypeError, OverflowError):  # ParseError is a ValueError
        pass
    return _read_batch(path, _records(path))


def _plain_records(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, record) of each line of ``path``, decoded by
    ``ingest._blocks``; a key given twice raises ValueError."""
    for block, records, quotes in _blocks(path, bools=True):
        strings = sum(type(value) is str for rec in records for value in rec.values())
        if not _keys_once(records, quotes, strings):
            raise ValueError("a key given twice")
        yield from zip((lineno for lineno, _ in block), records)


def _read_batch(path: str, records: Iterator[tuple[int, dict]]) -> tuple[EmbeddingBatch, str]:
    """``load_embedding_batch`` of the (line number, record) pairs
    ``records`` of ``path``."""
    first = next(records, None)
    if first is None:
        raise ValueError(f"{path}: empty batch file")
    lineno, header = first
    k, d_f, d_e, metric = _fields(path, lineno, header, {
        **dict.fromkeys(("k", "d_f", "d_e"), (INTEGER, None)), "metric": (STRING, None)})
    if min(k, d_f, d_e) < 1:
        raise ParseError(path, lineno, "k, d_f and d_e must be >= 1")
    if metric not in METRICS:
        raise ParseError(path, lineno, f"metric must be one of {METRICS}, not {metric!r}")
    dims = dict(zip(_VECTORS, (d_f, d_f, d_f, d_e)))
    schema = {"i": (INTEGER, None), "j": (INTEGER, None), "gt": (BOOLEAN, None),
              **{name: (NUMBER, dim) for name, dim in dims.items()}}
    arrays = {name: np.zeros((k, k, dim)) for name, dim in dims.items()}
    mask = np.zeros((k, k), dtype=bool)
    seen = set()
    for lineno, rec in records:
        i, j, gt, *vectors = _fields(path, lineno, rec, schema)
        if not (0 <= i < k and 0 <= j < k):
            raise ParseError(path, lineno, f"cell ({i}, {j}) outside the {k}x{k} grid")
        if (i, j) in seen:
            raise ParseError(path, lineno, f"duplicate cell ({i}, {j})")
        seen.add((i, j))
        for name, vector in zip(dims, vectors):
            arrays[name][i, j] = vector
        mask[i, j] = gt
        if mask[i, j] and i == j:
            raise ParseError(path, lineno, f"diagonal cell ({i}, {j}) must have gt false")
    if len(seen) != k * k:
        raise ValueError(f"{path}: expected {k * k} cell records, got {len(seen)}")
    return EmbeddingBatch(**arrays, gt_mask=mask), metric
