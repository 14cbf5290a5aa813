"""Model-layer tests: distribution validity, determinism, gradients."""

import numpy as np
import pytest

from voyager.infer import InferenceEngine
from voyager.model import (
    HierarchicalModel,
    ModelConfig,
    _sigmoid,
    topk_from_logits,
)


def tiny_config(seed: int = 1) -> ModelConfig:
    return ModelConfig(
        pc_vocab_size=5,
        page_vocab_size=6,
        num_offsets=8,
        embed_dim=3,
        hidden_dim=4,
        history=3,
        attention_candidates=2,
        seed=seed,
    )


def tiny_batch(seed: int = 2, B: int = 4, H: int = 3):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 5, (B, H)),
        rng.integers(0, 6, (B, H)),
        rng.integers(0, 8, (B, H)),
    )


def test_output_distributions_sum_to_one():
    model = HierarchicalModel(tiny_config())
    pc, page, off = tiny_batch()
    page_probs, off_probs, _, _ = model.forward_sequence(pc, page, off)
    np.testing.assert_allclose(page_probs.sum(axis=-1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(off_probs.sum(axis=-1), 1.0, rtol=1e-12)
    assert (page_probs >= 0).all() and (off_probs >= 0).all()


def test_same_seed_same_outputs():
    pc, page, off = tiny_batch()
    a = HierarchicalModel(tiny_config(seed=3)).forward_sequence(pc, page, off)
    b = HierarchicalModel(tiny_config(seed=3)).forward_sequence(pc, page, off)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_different_seed_different_params():
    a = HierarchicalModel(tiny_config(seed=1))
    b = HierarchicalModel(tiny_config(seed=2))
    assert not np.array_equal(a.params["pc_embed"], b.params["pc_embed"])


def test_seq_len_must_be_positive():
    with pytest.raises(ValueError, match="seq_len"):
        ModelConfig(pc_vocab_size=5, page_vocab_size=6, seq_len=0)


def test_predict_shapes_and_ranges():
    model = HierarchicalModel(tiny_config())
    pc, page, off = tiny_batch(B=7)
    engine = InferenceEngine(model)
    state = engine.init_state(7)
    for t in range(pc.shape[1]):
        state = engine.step(state, pc[:, t], page[:, t], off[:, t])
    pages, offsets = engine.predict(state)
    assert pages.shape == (7,) and offsets.shape == (7,)
    assert (pages < 6).all() and (offsets < 8).all()


def test_num_parameters_counts_everything():
    model = HierarchicalModel(tiny_config())
    assert model.num_parameters() == sum(
        v.size for v in model.params.values()
    )


def test_sigmoid_is_stable_at_extreme_logits():
    """Large-|x| inputs must neither overflow nor lose saturation."""
    x = np.array([-1e4, -710.0, -1.5, 0.0, 1.5, 710.0, 1e4])
    with np.errstate(over="raise", invalid="raise"):
        out = _sigmoid(x)
    assert np.isfinite(out).all()
    assert (0.0 <= out).all() and (out <= 1.0).all()
    assert out[0] == 0.0 or out[0] < 1e-300  # saturated, not NaN
    assert out[-1] == 1.0


def test_sigmoid_matches_naive_form_where_naive_is_safe():
    """The split-sign form is the same function, bit-identical for x >= 0."""
    x = np.linspace(-30.0, 30.0, 601)
    naive = 1.0 / (1.0 + np.exp(-x))
    stable = _sigmoid(x)
    np.testing.assert_array_equal(stable[x >= 0], naive[x >= 0])
    np.testing.assert_allclose(stable, naive, rtol=1e-15)


def test_topk_from_logits_matches_full_sort():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 20))
    full = np.argsort(-logits, axis=-1)
    for k in (1, 3, 20):
        np.testing.assert_array_equal(
            topk_from_logits(logits, k), full[:, :k]
        )


def test_topk_from_logits_rejects_bad_k():
    logits = np.zeros((2, 4))
    with pytest.raises(ValueError, match="k must be"):
        topk_from_logits(logits, 0)
    with pytest.raises(ValueError, match="k must be"):
        topk_from_logits(logits, 5)


def test_gradients_match_numerical():
    """Analytic backprop agrees with central differences at *every*
    parameter entry, for plain next-access targets (one label per
    timestep, weight 1)."""
    model = HierarchicalModel(tiny_config())
    pc, page, off = tiny_batch(B=2)
    rng = np.random.default_rng(4)
    label_pages = rng.integers(0, 6, (2, 3, 1))
    label_offsets = rng.integers(0, 8, (2, 3, 1))
    label_weights = np.ones((2, 3, 1))

    def loss():
        value, _, _ = model.loss_and_grads_sequence(
            pc, page, off, label_pages, label_offsets, label_weights
        )
        return value

    _, grads, _ = model.loss_and_grads_sequence(
        pc, page, off, label_pages, label_offsets, label_weights
    )
    eps = 1e-6
    for name, arr in model.params.items():
        for ix in np.ndindex(arr.shape):
            old = arr[ix]
            arr[ix] = old + eps
            lp = loss()
            arr[ix] = old - eps
            lm = loss()
            arr[ix] = old
            numeric = (lp - lm) / (2 * eps)
            analytic = grads[name][ix]
            assert numeric == pytest.approx(analytic, rel=1e-3, abs=1e-7), (
                f"gradient mismatch in {name}{ix}"
            )


def test_project_features_fused_matches_per_column_loop():
    """The B>1 fused (B*H, 3d) @ w_x matmul is bit-identical to the
    per-column reference loop (OpenBLAS gemm blocks over rows, so row
    dot products do not change with batch height) — the invariant that
    lets forward_sequence fuse the projection without moving goldens."""
    from voyager.model import project_features

    model = HierarchicalModel(tiny_config())
    rng = np.random.default_rng(9)
    d3 = 3 * model.config.embed_dim
    for B, H in ((2, 3), (5, 7), (16, 4)):
        x = rng.standard_normal((B, H, d3))
        fused = project_features(model.params, x)
        w_x = model.params["w_x"]
        ref = np.empty((B, H, w_x.shape[1]))
        for t in range(H):
            ref[:, t, :] = x[:, t, :] @ w_x
        np.testing.assert_array_equal(fused, ref)


def test_project_features_single_row_uses_column_form():
    """B == 1 keeps the per-column (gemv) form so it stays bit-bound to
    the incremental inference engine's single-row steps."""
    from voyager.model import project_features

    model = HierarchicalModel(tiny_config())
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 4, 3 * model.config.embed_dim))
    out = project_features(model.params, x)
    w_x = model.params["w_x"]
    for t in range(4):
        np.testing.assert_array_equal(out[0, t], (x[:, t, :] @ w_x)[0])
