"""The training step, pinned bit for bit to its reference arithmetic.

The functions below are the straightforward formulation of one TBPTT
step — batch-major caches, one slice store per gate per timestep,
``np.add.at`` scatters, per-parameter Adam updates.  The step in
:mod:`voyager.model`, :mod:`voyager.embeddings`, :mod:`voyager.optim`
and :func:`voyager.train.train` does the same floating-point operations
in the same order with fewer NumPy calls, so every loss, gradient,
carried state and parameter must equal the reference exactly, not to
a tolerance: the goldens compare losses at 1e-6 and would miss a
last-bit change.
"""

import math

import numpy as np
import pytest

from voyager.embeddings import (
    embedding_backward,
    embedding_forward,
    page_aware_offset_backward,
    page_aware_offset_forward,
)
from voyager.model import (
    HierarchicalModel,
    ModelConfig,
    _sigmoid,
    project_features,
)
from voyager.optim import Adam
from voyager.synthetic import generate
from voyager.train import batch_indices, build_sequence_dataset, train

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# ----------------------------------------------------------------------
# reference arithmetic
# ----------------------------------------------------------------------
def ref_sigmoid(x):
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.where(x >= 0, 1.0, z)
    z += 1.0
    out /= z
    return out


def ref_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def ref_embedding_backward(table, ids, grad_out):
    grad = np.zeros_like(table)
    np.add.at(grad, ids, grad_out)
    return grad


def ref_page_aware_offset_backward(offset_table, w_query, grad_out, cache):
    d = offset_table.shape[-1]
    cand, alpha = cache["cand"], cache["alpha"]
    query, page_emb = cache["query"], cache["page_emb"]
    grad_alpha = np.einsum("bhd,bhkd->bhk", grad_out, cand)
    grad_cand = alpha[..., None] * grad_out[:, :, None, :]
    grad_scores = alpha * (
        grad_alpha - (grad_alpha * alpha).sum(axis=-1, keepdims=True)
    )
    grad_scores /= math.sqrt(d)
    grad_query = np.einsum("bhk,bhkd->bhd", grad_scores, cand)
    grad_cand += grad_scores[..., None] * query[:, :, None, :]
    grad_table = np.zeros_like(offset_table)
    np.add.at(grad_table, cache["offset_ids"], grad_cand)
    grad_w_query = page_emb.reshape(-1, d).T @ grad_query.reshape(-1, d)
    grad_page_emb = grad_query @ w_query.T
    return grad_table, grad_w_query, grad_page_emb


def ref_forward_sequence(model, pc_ids, page_ids, offset_ids, h0=None, c0=None):
    p = model.params
    h_dim = model.config.hidden_dim
    B, T = pc_ids.shape
    pc_emb = embedding_forward(p["pc_embed"], pc_ids)
    page_emb = embedding_forward(p["page_embed"], page_ids)
    off_emb, attn_cache = page_aware_offset_forward(
        p["offset_embed"], p["w_query"], page_emb, offset_ids
    )
    x = np.concatenate([pc_emb, page_emb, off_emb], axis=-1)
    ax = project_features(p, x)
    h_first = np.zeros((B, h_dim)) if h0 is None else h0
    c_first = np.zeros((B, h_dim)) if c0 is None else c0
    h_t, c_t = h_first, c_first
    hs = np.empty((B, T, h_dim))
    cs = np.empty((B, T, h_dim))
    gates = {k: np.empty((B, T, h_dim)) for k in ("i", "f", "g", "o", "tanh_c")}
    for t in range(T):
        a = ax[:, t, :] + h_t @ p["w_h"]
        a += p["b_lstm"]
        i_f = ref_sigmoid(a[:, : 2 * h_dim])
        i_g, f_g = i_f[:, :h_dim], i_f[:, h_dim:]
        g_g = np.tanh(a[:, 2 * h_dim : 3 * h_dim])
        o_g = ref_sigmoid(a[:, 3 * h_dim :])
        c_t = f_g * c_t + i_g * g_g
        tanh_c = np.tanh(c_t)
        h_t = o_g * tanh_c
        gates["i"][:, t] = i_g
        gates["f"][:, t] = f_g
        gates["g"][:, t] = g_g
        gates["o"][:, t] = o_g
        gates["tanh_c"][:, t] = tanh_c
        cs[:, t] = c_t
        hs[:, t] = h_t
    flat = hs.reshape(B * T, h_dim)
    page_probs = ref_softmax(flat @ p["w_page"] + p["b_page"]).reshape(B, T, -1)
    offset_probs = ref_softmax(flat @ p["w_offset"] + p["b_offset"]).reshape(
        B, T, -1
    )
    cache = {
        "pc_ids": pc_ids,
        "page_ids": page_ids,
        "attn": attn_cache,
        "x": x,
        "hs": hs,
        "cs": cs,
        "h0": h_first,
        "c0": c_first,
        "gates": gates,
    }
    return page_probs, offset_probs, cache, (h_t, c_t)


def ref_backward_sequence(model, cache, d_page_logits, d_offset_logits):
    p = model.params
    h_dim, d = model.config.hidden_dim, model.config.embed_dim
    x, hs, g = cache["x"], cache["hs"], cache["gates"]
    B, T = hs.shape[0], hs.shape[1]
    n = B * T
    grads = {}
    hs_flat = hs.reshape(n, h_dim)
    grads["w_page"] = hs_flat.T @ d_page_logits
    grads["b_page"] = d_page_logits.sum(axis=0)
    grads["w_offset"] = hs_flat.T @ d_offset_logits
    grads["b_offset"] = d_offset_logits.sum(axis=0)
    dh_ext = (
        d_page_logits @ p["w_page"].T + d_offset_logits @ p["w_offset"].T
    ).reshape(B, T, h_dim)
    i_g, f_g, g_g, o_g, tanh_c = (g[k] for k in ("i", "f", "g", "o", "tanh_c"))
    dc_fac = o_g * (1.0 - tanh_c**2)
    do_fac = tanh_c * (o_g * (1.0 - o_g))
    i_fac = i_g * (1.0 - i_g)
    f_fac = f_g * (1.0 - f_g)
    g_fac = 1.0 - g_g**2
    c_prev = np.concatenate([cache["c0"][:, None], cache["cs"][:, :-1]], axis=1)
    h_prev = np.concatenate([cache["h0"][:, None], hs[:, :-1]], axis=1)
    w_h_T = p["w_h"].T
    dc = np.zeros((B, h_dim))
    dh_rec = np.zeros((B, h_dim))
    da_all = np.empty((B, T, 4 * h_dim))
    for t in range(T - 1, -1, -1):
        dh = dh_ext[:, t]
        dh += dh_rec
        dc += dh * dc_fac[:, t]
        da = da_all[:, t]
        da[:, :h_dim] = (dc * g_g[:, t]) * i_fac[:, t]
        da[:, h_dim : 2 * h_dim] = (dc * c_prev[:, t]) * f_fac[:, t]
        da[:, 2 * h_dim : 3 * h_dim] = (dc * i_g[:, t]) * g_fac[:, t]
        da[:, 3 * h_dim :] = dh * do_fac[:, t]
        dc *= f_g[:, t]
        dh_rec = da @ w_h_T
    da_flat = da_all.reshape(n, 4 * h_dim)
    grads["w_x"] = x.reshape(n, 3 * d).T @ da_flat
    grads["w_h"] = h_prev.reshape(n, h_dim).T @ da_flat
    grads["b_lstm"] = da_flat.sum(axis=0)
    dx = (da_flat @ p["w_x"].T).reshape(B, T, 3 * d)
    g_off_table, g_w_query, g_page_from_attn = ref_page_aware_offset_backward(
        p["offset_embed"], p["w_query"], dx[:, :, 2 * d :], cache["attn"]
    )
    grads["offset_embed"] = g_off_table
    grads["w_query"] = g_w_query
    grads["pc_embed"] = ref_embedding_backward(
        p["pc_embed"], cache["pc_ids"], dx[:, :, :d]
    )
    grads["page_embed"] = ref_embedding_backward(
        p["page_embed"], cache["page_ids"], dx[:, :, d : 2 * d] + g_page_from_attn
    )
    return grads


def ref_loss_and_grads(model, pc, page, off, lab_pages, lab_offs, lab_w, h0=None, c0=None):
    page_probs, offset_probs, cache, state = ref_forward_sequence(
        model, pc, page, off, h0=h0, c0=c0
    )
    B, T = pc.shape
    n = B * T
    L = lab_pages.shape[2]
    eps = 1e-12
    pp = np.take_along_axis(page_probs, lab_pages, axis=2)
    op = np.take_along_axis(offset_probs, lab_offs, axis=2)
    loss_page = -(lab_w * np.log(pp + eps)).sum() / n
    loss_offset = -(lab_w * np.log(op + eps)).sum() / n
    loss = loss_page + loss_offset
    d_page = page_probs.reshape(n, -1) / n
    d_offset = offset_probs.reshape(n, -1) / n
    rows = np.repeat(np.arange(n), L)
    w_flat = lab_w.reshape(-1) / n
    np.subtract.at(d_page, (rows, lab_pages.reshape(-1)), w_flat)
    np.subtract.at(d_offset, (rows, lab_offs.reshape(-1)), w_flat)
    grads = ref_backward_sequence(model, cache, d_page, d_offset)
    return float(loss), grads, state


class RefAdam:
    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for name, param in self.params.items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = self.m[name] / (1.0 - b1**self.t)
            v_hat = self.v[name] / (1.0 - b2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


def ref_train(model, dataset, steps, batch_size, lr, seed, tbptt, lr_schedule):
    T = dataset.seq_len
    chunk = T if tbptt is None else tbptt
    bounds = [(s, min(s + chunk, T)) for s in range(0, T, chunk)]
    opt = RefAdam(model.params, lr)
    batches = batch_indices(
        len(dataset), batch_size, steps, np.random.default_rng(seed)
    )
    losses = []
    while len(losses) < steps:
        batch = next(batches)
        h = c = None
        for lo, hi in bounds:
            loss, grads, (h, c) = ref_loss_and_grads(
                model,
                dataset.pc_ids[batch, lo:hi],
                dataset.page_ids[batch, lo:hi],
                dataset.offset_ids[batch, lo:hi],
                dataset.label_page_ids[batch, lo:hi],
                dataset.label_offsets[batch, lo:hi],
                dataset.label_weights[batch, lo:hi],
                h0=h,
                c0=c,
            )
            if lr_schedule == "cosine":
                step = len(losses)
                opt.lr = lr * 0.5 * (1.0 + math.cos(math.pi * step / steps))
            opt.step(grads)
            losses.append(loss)
            if len(losses) >= steps:
                break
    return losses


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# the step equals the reference
# ----------------------------------------------------------------------
@st.composite
def step_inputs(draw):
    hidden = draw(st.sampled_from([1, 3, 8, 16, 32]))
    embed = draw(st.sampled_from([1, 2, 8, 16]))
    pc_vocab = draw(st.integers(1, 9))
    page_vocab = draw(st.integers(1, 17))
    num_offsets = draw(st.sampled_from([4, 64]))
    B = draw(st.integers(1, 20))
    T = draw(st.integers(1, 12))
    L = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    carried = draw(st.booleans())
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab,
            page_vocab_size=page_vocab,
            num_offsets=num_offsets,
            embed_dim=embed,
            hidden_dim=hidden,
            attention_candidates=draw(st.integers(1, 4)),
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed)
    # Page id 0 is the OOV id: small page vocabularies draw it often.
    ids = (
        rng.integers(0, pc_vocab, (B, T)),
        rng.integers(0, page_vocab, (B, T)),
        rng.integers(0, num_offsets, (B, T)),
    )
    # Few distinct label ids, so slots repeat; weight 0 marks padding.
    lab_pages = rng.integers(0, min(page_vocab, 3), (B, T, L))
    lab_offs = rng.integers(0, min(num_offsets, 3), (B, T, L))
    lab_w = rng.random((B, T, L)) * (rng.random((B, T, L)) < 0.7)
    state = (
        (rng.normal(size=(B, hidden)), rng.normal(size=(B, hidden)))
        if carried
        else (None, None)
    )
    return model, ids, (lab_pages, lab_offs, lab_w), state


@given(step_inputs())
def test_step_equals_the_reference_bit_for_bit(inputs):
    model, ids, labels, (h0, c0) = inputs
    loss, grads, (h, c) = model.loss_and_grads_sequence(
        *ids, *labels, h0=h0, c0=c0
    )
    ref_loss, ref_grads, (ref_h, ref_c) = ref_loss_and_grads(
        model, *ids, *labels, h0=h0, c0=c0
    )
    assert_bits_equal(loss, ref_loss)
    assert set(grads) == set(ref_grads) == set(model.params)
    for name in ref_grads:
        assert_bits_equal(grads[name], ref_grads[name])
    assert_bits_equal(h, ref_h)
    assert_bits_equal(c, ref_c)
    # The forward's probabilities and its batch-major state views too.
    page_p, off_p, cache, _ = model.forward_sequence(*ids, h0=h0, c0=c0)
    ref_page_p, ref_off_p, ref_cache, _ = ref_forward_sequence(
        model, *ids, h0=h0, c0=c0
    )
    assert_bits_equal(page_p, ref_page_p)
    assert_bits_equal(off_p, ref_off_p)
    assert_bits_equal(cache["hs"], ref_cache["hs"])
    assert_bits_equal(cache["cs"], ref_cache["cs"])


@pytest.mark.parametrize(
    "shape, train_kwargs",
    [
        # batch 1: single-row products take the gemv kernels
        ((8, 16, 8), dict(batch_size=1, tbptt=4, lr_schedule="cosine")),
        ((8, 16, 8), dict(batch_size=5, tbptt=None, lr_schedule="cosine")),
        # ragged chunks: 3 + 3 + 1 timesteps
        ((4, 6, 7), dict(batch_size=6, tbptt=3, lr_schedule="constant")),
        # the adaptation loop's and the bench's shapes
        ((8, 16, 32), dict(batch_size=16, tbptt=8, lr_schedule="cosine")),
        ((16, 32, 32), dict(batch_size=16, tbptt=8, lr_schedule="cosine")),
    ],
)
def test_train_equals_the_reference_loop(shape, train_kwargs):
    """``train`` (chunk loop + Adam) against the reference loop: every
    loss and every final parameter array, bit for bit."""
    embed, hidden, seq_len = shape
    trace = generate("drifting_zipf", 400, seed=7)
    dataset = build_sequence_dataset(trace, seq_len=seq_len, pc_cap=32, page_cap=24)
    models = [
        HierarchicalModel(
            ModelConfig(
                pc_vocab_size=dataset.pc_vocab.size,
                page_vocab_size=dataset.page_vocab.size,
                embed_dim=embed,
                hidden_dim=hidden,
                seed=3,
                seq_len=seq_len,
            )
        )
        for _ in range(2)
    ]
    steps = 9
    result = train(models[0], dataset, steps=steps, lr=0.04, seed=5, **train_kwargs)
    ref_losses = ref_train(models[1], dataset, steps, lr=0.04, seed=5, **train_kwargs)
    assert_bits_equal(result.losses, ref_losses)
    for name, param in models[1].params.items():
        assert_bits_equal(models[0].params[name], param)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_equals_the_reference_in_place_and_out(dtype):
    rng = np.random.default_rng(2)
    special = [0.0, -0.0, 1e-20, -1e-20, 30.0, -30.0, 800.0, -800.0]
    x = np.concatenate(
        [special, [np.inf, -np.inf, np.nan], rng.normal(size=200) * 20]
    ).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ref_sigmoid(x)
        assert_bits_equal(_sigmoid(x), expected)
        in_place = x.copy()
        _sigmoid(in_place, out=in_place)
    assert_bits_equal(in_place, expected)


def test_scatters_equal_add_at_with_duplicate_ids():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(5, 3))
    ids = np.array([[0, 4, 0], [4, 4, 2]])
    grad_out = rng.normal(size=(2, 3, 3))
    assert_bits_equal(
        embedding_backward(table, ids, grad_out),
        ref_embedding_backward(table, ids, grad_out),
    )
    offset_table = rng.normal(size=(6, 2, 3))
    w_query = rng.normal(size=(3, 3))
    page_emb = rng.normal(size=(2, 3, 3))
    _, cache = page_aware_offset_forward(offset_table, w_query, page_emb, ids)
    for actual, expected in zip(
        page_aware_offset_backward(offset_table, w_query, grad_out, cache),
        ref_page_aware_offset_backward(offset_table, w_query, grad_out, cache),
    ):
        assert_bits_equal(actual, expected)


def test_adam_updates_every_holder_in_place():
    model = HierarchicalModel(ModelConfig(pc_vocab_size=3, page_vocab_size=4))
    held = dict(model.params)
    ref_params = {k: v.copy() for k, v in model.params.items()}
    opt, ref = Adam(model.params, lr=0.05), RefAdam(ref_params, lr=0.05)
    rng = np.random.default_rng(1)
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
        opt.step(grads)
        ref.step(grads)
    for name, param in model.params.items():
        assert param is held[name]
        assert_bits_equal(param, ref_params[name])
