import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoirefine import embedloss as el
from hoirefine.ingest import ParseError


def oracle_loss(params, batch, metric):
    """Independent forward pass: explicit loops, no shared code paths with
    the batched implementation."""
    total = 0.0
    for i in range(batch.k):
        for j in range(batch.k):
            if not batch.gt_mask[i, j]:
                continue
            x = np.concatenate([batch.f_human[i, j], batch.f_inter[i, j],
                                batch.f_obj[i, j]])
            for depth, (w, b) in enumerate(params.layers):
                x = w @ x + b
                if depth < len(params.layers) - 1:
                    x = np.tanh(x)
            e = batch.e_text[i, j]
            if metric == "l1":
                total += np.abs(x - e).sum()
            else:
                total += -float(x @ e) / (np.linalg.norm(x) * np.linalg.norm(e))
    return total


def oracle_finite_diff(params, batch, metric, h):
    """Central differences on a fresh copy of the parameters for every step,
    compared with the analytic gradient as ``finite_diff_check`` does."""
    _, grads = el.loss_and_param_grads(params, batch, metric)
    errors = []
    for layer, pair in enumerate(grads):
        for slot, grad in enumerate(pair):
            for idx in np.ndindex(grad.shape):
                losses = []
                for step in (h, -h):
                    stepped = params.copy()
                    stepped.layers[layer][slot][idx] += step
                    losses.append(el.loss_and_param_grads(stepped, batch, metric)[0])
                numeric = (losses[0] - losses[1]) / (2.0 * h)
                g = grad[idx]
                errors.append(abs(g - numeric) / max(abs(g), abs(numeric), 1.0))
    return max(errors)


def small_setup(seed, metric="l1", k=3, d_f=4, d_e=5, hidden=(8,)):
    rng = np.random.default_rng(seed)
    batch = el.random_batch(rng, k=k, d_f=d_f, d_e=d_e)
    params = el.random_mlp(rng, d_in=3 * d_f, hidden=hidden, d_out=d_e)
    return params, batch


class TestPairDistance:
    def test_l1_hand_value(self):
        value, grad = el.pair_distance("l1", np.array([1.0, 2.0]), np.array([0.0, -0.5]))
        assert value == 3.5
        assert np.array_equal(grad, [1.0, 1.0])

    def test_l1_tie_subgradient_zero(self):
        _, grad = el.pair_distance("l1", np.array([0.7, 1.0]), np.array([0.7, 0.0]))
        assert np.array_equal(grad, [0.0, 1.0])

    def test_neg_cosine_hand_values(self):
        value, _ = el.pair_distance("neg_cosine", np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-1.0)
        value, _ = el.pair_distance("neg_cosine", np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert value == pytest.approx(0.0)
        value, _ = el.pair_distance("neg_cosine", np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_neg_cosine_zero_vector_rejected(self):
        with pytest.raises(ZeroDivisionError):
            el.pair_distance("neg_cosine", np.zeros(3), np.ones(3))

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=40)
    def test_neg_cosine_scale_invariant(self, seed, alpha):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=6) + 0.1
        e = rng.normal(size=6) + 0.1
        base, _ = el.pair_distance("neg_cosine", f, e)
        scaled, _ = el.pair_distance("neg_cosine", alpha * f, e)
        assert scaled == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("metric", ["l1", "neg_cosine"])
    def test_rows_match_single_vectors(self, metric):
        rng = np.random.default_rng(7)
        f, e = rng.normal(size=(2, 3, 4, 5))
        values, grads = el.pair_distance(metric, f, e)
        assert values.shape == (3, 4) and grads.shape == f.shape
        for idx in np.ndindex(3, 4):
            value, grad = el.pair_distance(metric, f[idx], e[idx])
            assert values[idx] == pytest.approx(value, rel=1e-14)
            np.testing.assert_allclose(grads[idx], grad, rtol=1e-14)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            el.pair_distance("l2", np.ones(2), np.ones(2))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30)
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=5)
        e = rng.normal(size=5)
        for metric in ("l1", "neg_cosine"):
            _, grad = el.pair_distance(metric, f, e)
            h = 1e-6
            for idx in range(5):
                bumped = f.copy()
                bumped[idx] += h
                up, _ = el.pair_distance(metric, bumped, e)
                bumped[idx] -= 2 * h
                down, _ = el.pair_distance(metric, bumped, e)
                assert grad[idx] == pytest.approx((up - down) / (2 * h), abs=1e-4)


class TestLossForward:
    @pytest.mark.parametrize("metric", ["l1", "neg_cosine"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_loop_oracle(self, metric, seed):
        params, batch = small_setup(seed, metric)
        f_model, _, _ = el.fused_forward(params, batch)
        loss, _ = el.tri_emb_loss(f_model, batch, metric)
        assert loss == pytest.approx(oracle_loss(params, batch, metric), rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
           st.sampled_from(["l1", "neg_cosine"]), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_any_mask_matches_loop_oracle(self, seed, k, metric, density):
        # k = 1 leaves only the diagonal, so the mask is empty and the loss 0
        rng = np.random.default_rng(seed)
        batch = el.random_batch(rng, k=k, d_f=3, d_e=4, mask_density=density)
        params = el.random_mlp(rng, d_in=9, hidden=(5,), d_out=4)
        f_model, _, _ = el.fused_forward(params, batch)
        loss, _ = el.tri_emb_loss(f_model, batch, metric)
        assert loss == pytest.approx(oracle_loss(params, batch, metric), rel=1e-12)

    def test_unmasked_cells_do_not_contribute(self):
        params, batch = small_setup(11)
        dense = el.EmbeddingBatch(
            f_human=batch.f_human, f_inter=batch.f_inter, f_obj=batch.f_obj,
            e_text=batch.e_text,
            gt_mask=~np.eye(batch.k, dtype=bool),
        )
        f_model, _, _ = el.fused_forward(params, dense)
        # perturb targets only where the sparse mask is off
        noisy = batch.e_text + 100.0 * (~batch.gt_mask)[:, :, None]
        loss_a, _ = el.tri_emb_loss(f_model, batch, "l1")
        loss_b, _ = el.tri_emb_loss(
            f_model,
            el.EmbeddingBatch(batch.f_human, batch.f_inter, batch.f_obj,
                              noisy, batch.gt_mask),
            "l1",
        )
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_masked_cell_gradients_exactly_zero(self):
        params, batch = small_setup(5, metric="neg_cosine")
        f_model, _, _ = el.fused_forward(params, batch)
        # give every cell a nonzero vector so neg_cosine is defined
        f_model = f_model + np.where(f_model == 0.0, 0.5, 0.0)
        _, grads = el.tri_emb_loss(f_model, batch, "neg_cosine")
        off = ~batch.gt_mask
        assert np.all(grads[off] == 0.0)
        assert np.any(grads[batch.gt_mask] != 0.0)

    def test_diagonal_mask_rejected(self):
        rng = np.random.default_rng(0)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        with pytest.raises(ValueError):
            el.EmbeddingBatch(
                f_human=rng.normal(size=(3, 3, 2)),
                f_inter=rng.normal(size=(3, 3, 2)),
                f_obj=rng.normal(size=(3, 3, 2)),
                e_text=rng.normal(size=(3, 3, 2)),
                gt_mask=mask,
            )


class TestParamGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_neg_cosine_finite_diff(self, seed):
        params, batch = small_setup(seed, "neg_cosine")
        assert el.finite_diff_check(params, batch, "neg_cosine", h=1e-5) <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_l1_finite_diff(self, seed):
        params, batch = small_setup(seed, "l1")
        assert el.finite_diff_check(params, batch, "l1", h=1e-7) <= 1e-4

    def test_bad_step_rejected(self):
        params, batch = small_setup(0)
        with pytest.raises(ValueError):
            el.finite_diff_check(params, batch, "l1", h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, h):
        params, batch = small_setup(0)
        with pytest.raises(ValueError, match="finite and > 0"):
            el.finite_diff_check(params, batch, "l1", h=h)

    @pytest.mark.parametrize("metric,k,seed", [
        ("neg_cosine", 3, 4), ("l1", 3, 6), ("l1", 1, 0), ("neg_cosine", 1, 0),
    ])
    def test_matches_copying_oracle_exactly(self, metric, k, seed):
        params, batch = small_setup(seed, metric, k=k, d_f=2, d_e=3, hidden=(4,))
        before = params.copy()
        error = el.finite_diff_check(params, batch, metric, h=1e-5)
        assert error == oracle_finite_diff(params, batch, metric, h=1e-5)
        for (w, b), (w0, b0) in zip(params.layers, before.layers):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)


class TestPinnedNumbers:
    # every bit of every output below: a rewrite of the passes that moves any
    # number fails here (another BLAS build may round differently)
    DIGEST = "97791d422075ed7ee2a65fabc0bbc4ae06b3ea97a03a410eb056d18ad3fc413d"

    def test_every_output_is_bit_for_bit_unchanged(self):
        sha = hashlib.sha256()

        def feed(*values):
            for value in values:
                sha.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())

        for seed in range(6):
            for metric in ("l1", "neg_cosine"):
                for hidden in ((), (8,), (6, 5)):
                    rng = np.random.default_rng(seed)
                    batch = el.random_batch(rng, k=3, d_f=2, d_e=3)
                    params = el.random_mlp(rng, d_in=6, hidden=hidden, d_out=3)
                    f_model, _, rows = el.fused_forward(params, batch)
                    feed(f_model, rows, *el.tri_emb_loss(f_model, batch, metric))
                    loss, grads = el.loss_and_param_grads(params, batch, metric)
                    feed(loss, *(g for pair in grads for g in pair))
                    feed(el.finite_diff_check(params, batch, metric, h=1e-5))
                    feed(el.toy_descent(params, batch, metric, steps=5, learning_rate=1e-2))
        assert sha.hexdigest() == self.DIGEST


class TestDescentAndTotal:
    @pytest.mark.parametrize("metric", ["l1", "neg_cosine"])
    def test_loss_decreases(self, metric):
        params, batch = small_setup(3, metric)
        trajectory = el.toy_descent(params, batch, metric, steps=50,
                                    learning_rate=1e-3)
        assert len(trajectory) == 51
        assert trajectory[-1] < trajectory[0]

    def test_divergence_detected(self, monkeypatch):
        params, batch = small_setup(3, "l1")
        counter = {"n": 0}

        def rising_loss(p, b, metric):
            counter["n"] += 1
            zeros = [(np.zeros_like(w), np.zeros_like(bb)) for w, bb in p.layers]
            return float(counter["n"]), zeros

        monkeypatch.setattr(el, "loss_and_param_grads", rising_loss)
        with pytest.raises(el.DivergenceError):
            el.toy_descent(params, batch, "l1", steps=200, learning_rate=1e-3)
        # aborted on the fifth consecutive increase, not at the horizon
        assert counter["n"] < 10


class TestCaptionsAndSerialization:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        batch = el.random_batch(rng, k=3, d_f=4, d_e=5)
        path = tmp_path / "batch.jsonl"
        el.save_embedding_batch(batch, "neg_cosine", str(path))
        loaded, metric = el.load_embedding_batch(str(path))
        assert metric == "neg_cosine"
        assert np.array_equal(loaded.gt_mask, batch.gt_mask)
        assert np.array_equal(loaded.f_human, batch.f_human)
        assert np.array_equal(loaded.e_text, batch.e_text)

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(42)
        path = tmp_path / "batch.jsonl"
        path.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            el.save_embedding_batch(el.random_batch(rng, k=2, d_f=2, d_e=2), "l1", str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["batch.jsonl"]
        assert path.read_text() == "old\n"

    def test_load_rejects_truncated_file(self, tmp_path):
        rng = np.random.default_rng(42)
        batch = el.random_batch(rng, k=2, d_f=2, d_e=2)
        path = tmp_path / "batch.jsonl"
        el.save_embedding_batch(batch, "l1", str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            el.load_embedding_batch(str(path))

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1" + "0" * 400],
                             ids=["1e400", "-1e400", "401-digits"])
    def test_load_rejects_number_out_of_float_range_at_its_line(self, tmp_path, text):
        rng = np.random.default_rng(42)
        path = tmp_path / "batch.jsonl"
        el.save_embedding_batch(el.random_batch(rng, k=2, d_f=2, d_e=2), "l1", str(path))
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        records[2]["f_obj"][1] = 1234.5
        path.write_text("".join(json.dumps(r).replace("1234.5", text) + "\n" for r in records))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: .*out of float range"):
            el.load_embedding_batch(str(path))

    @pytest.mark.parametrize("line,edit", [
        (2, lambda cell: cell.update(gt="false")),
        (2, lambda cell: cell.update(gt=1)),
        (2, lambda cell: cell.update(i=1.0)),
        (2, lambda cell: cell.update(i=-1)),
        (2, lambda cell: cell.update(j=2)),
        (2, lambda cell: cell.update(f_human=["0.5", 0.5])),
        (2, lambda cell: cell.update(e_text=[0.5])),
        (3, lambda cell: cell.update(i=0, j=0)),
        (1, lambda header: header.update(k="2")),
        (1, lambda header: header.update(d_f=0)),
        (1, lambda header: header.update(metric="l2")),
        (2, lambda cell: cell.update(gt=True)),
        (1, lambda header: header.update(gt=False)),
        (3, lambda cell: cell.update(label="ride")),
        (2, lambda cell: json.dumps(cell)[:-1] + f', "i": {cell["i"]}}}'),
        (2, lambda cell: "\u00a0" + json.dumps(cell)),
        (2, lambda cell: "\f"),
    ], ids=["string-gt", "integer-gt", "float-i", "negative-i", "j-outside-grid",
            "string-feature", "short-embedding", "duplicate-cell", "string-k", "zero-d_f",
            "unknown-metric", "diagonal-gt", "unknown-header-key", "unknown-cell-key",
            "duplicate-key", "no-break-space", "form-feed-line"])
    def test_load_rejects_bad_record_at_its_line(self, tmp_path, line, edit):
        # an edit edits the record in place, or returns the line's text
        rng = np.random.default_rng(42)
        batch = el.random_batch(rng, k=2, d_f=2, d_e=2)
        path = tmp_path / "batch.jsonl"
        el.save_embedding_batch(batch, "l1", str(path))
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        text = edit(records[line - 1])
        lines = [json.dumps(r) for r in records]
        lines[line - 1] = text or lines[line - 1]
        path.write_text("".join(ln + "\n" for ln in lines))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: "):
            el.load_embedding_batch(str(path))
