"""Inference-engine tests: bit-exact equivalence, no backprop cache.

The engine's contract is arithmetic, not approximate: in float64 the
cache-free incremental path must reproduce the training forward
(:meth:`~voyager.model.HierarchicalModel.forward_sequence`) bit for bit
(see :mod:`voyager.infer`).  The property tests here drive that over
randomly drawn models and segments; the cache tests prove the
simulator hot path never touches the training forward.
"""

import numpy as np
import pytest

from voyager.infer import InferenceEngine, LSTMState, _rowwise_matmul
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import NeuralPrefetcher, SimConfig, protocol_candidates, simulate
from voyager.synthetic import page_cycle_trace
from voyager.train import build_sequence_dataset
from voyager.vocab import OOV_ID

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def tiny_model(seed: int = 1) -> HierarchicalModel:
    return HierarchicalModel(
        ModelConfig(
            pc_vocab_size=5,
            page_vocab_size=6,
            num_offsets=8,
            embed_dim=3,
            hidden_dim=4,
            attention_candidates=2,
            seed=seed,
        )
    )


def random_segments(model: HierarchicalModel, B: int, seed: int, T: int = 3):
    cfg = model.config
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, cfg.pc_vocab_size, (B, T)),
        rng.integers(0, cfg.page_vocab_size, (B, T)),
        rng.integers(0, cfg.num_offsets, (B, T)),
    )


def stepped_state(eng: InferenceEngine, pc, page, off) -> LSTMState:
    """Carried state after feeding ``(B, T)`` accesses one step at a time."""
    state = eng.init_state(pc.shape[0])
    for t in range(pc.shape[1]):
        state = eng.step(state, pc[:, t], page[:, t], off[:, t])
    return state


# ----------------------------------------------------------------------
# bit-exact equivalence properties (float64)
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=5),
    T=st.integers(min_value=1, max_value=6),
)
def test_incremental_steps_match_forward_bit_exactly(
    model_seed, data_seed, B, T
):
    """Feeding a segment one access at a time == training forward.

    Every timestep's state is bit-identical; the head distributions
    agree to float tolerance (the forward reads the heads out of all
    ``B * T`` states in one matmul, the engine ``B`` rows at a time).
    """
    model = tiny_model(model_seed)
    pc, page, off = random_segments(model, B, data_seed, T)
    page_probs, off_probs, cache, (h, c) = model.forward_sequence(
        pc, page, off
    )

    eng = InferenceEngine(model)
    state = eng.init_state(B)
    for t in range(T):
        state = eng.step(state, pc[:, t], page[:, t], off[:, t])
        np.testing.assert_array_equal(state.h, cache["hs"][:, t])
        np.testing.assert_array_equal(state.c, cache["cs"][:, t])
        eng_page, eng_off = eng.probs(state)
        np.testing.assert_allclose(eng_page, page_probs[:, t], rtol=1e-12)
        np.testing.assert_allclose(eng_off, off_probs[:, t], rtol=1e-12)
    np.testing.assert_array_equal(state.h, h)
    np.testing.assert_array_equal(state.c, c)


@settings(max_examples=40)
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=5),
    T=st.integers(min_value=1, max_value=6),
)
def test_window_state_matches_forward_bit_exactly(model_seed, data_seed, B, T):
    """The batched candidate table's scan == training forward, bit for bit.

    :meth:`~voyager.infer.InferenceEngine.segment_states` over the ``B``
    segments laid end to end (state reset every ``T`` accesses) yields
    ``forward_sequence``'s state at every timestep of every segment, and
    the heads read out of those states give its distributions.
    """
    model = tiny_model(model_seed)
    pc, page, off = random_segments(model, B, data_seed, T)
    page_probs, off_probs, cache, _ = model.forward_sequence(pc, page, off)

    eng = InferenceEngine(model)
    x = eng.feature_step(pc.reshape(-1), page.reshape(-1), off.reshape(-1))
    state = eng.segment_states(x, seq_len=T)
    hidden = model.config.hidden_dim
    np.testing.assert_array_equal(state.h, cache["hs"].reshape(B * T, hidden))
    np.testing.assert_array_equal(state.c, cache["cs"].reshape(B * T, hidden))
    eng_page, eng_off = eng.probs(state)
    np.testing.assert_allclose(
        eng_page, page_probs.reshape(B * T, -1), rtol=1e-12
    )
    np.testing.assert_allclose(
        eng_off, off_probs.reshape(B * T, -1), rtol=1e-12
    )


@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=1, max_value=4),
)
def test_rollout_matches_extended_segment_forwards(
    model_seed, data_seed, B, steps
):
    """Greedy continuation == the training forward over the segment
    extended by every prediction made so far.

    The reference appends each step's argmax ``(page, offset)`` as a
    pseudo-access (PC repeating the last real one) and reruns
    ``forward_sequence`` over the whole extended segment — the
    semantics the carried-state rollout must reproduce, OOV masking
    included.
    """
    model = tiny_model(model_seed)
    pc, page, off = random_segments(model, B, data_seed)
    eng = InferenceEngine(model)
    state = stepped_state(eng, pc, page, off)
    pages, offsets, valid = eng.rollout(state, pc[:, -1], steps)

    ref_pc, ref_page, ref_off = pc.copy(), page.copy(), off.copy()
    alive = np.ones(B, dtype=bool)
    for j in range(steps):
        probs_page, probs_off, _, _ = model.forward_sequence(
            ref_pc, ref_page, ref_off
        )
        pid = probs_page[:, -1].argmax(axis=-1)
        oid = probs_off[:, -1].argmax(axis=-1)
        alive = alive & (pid != OOV_ID)
        if not alive.any():
            np.testing.assert_array_equal(valid[:, j:], False)
            break
        np.testing.assert_array_equal(valid[:, j], alive)
        np.testing.assert_array_equal(pages[alive, j], pid[alive])
        np.testing.assert_array_equal(offsets[alive, j], oid[alive])
        ref_pc = np.concatenate([ref_pc, ref_pc[:, -1:]], axis=1)
        ref_page = np.concatenate([ref_page, pid[:, None]], axis=1)
        ref_off = np.concatenate([ref_off, oid[:, None]], axis=1)


# ----------------------------------------------------------------------
# engine API behaviour
# ----------------------------------------------------------------------
def test_float64_engine_aliases_model_params():
    """Zero-copy: the default engine shares the model's arrays."""
    model = tiny_model()
    eng = InferenceEngine(model)
    assert all(eng.params[k] is model.params[k] for k in model.params)


def test_float32_mode_runs_end_to_end_in_float32():
    model = tiny_model()
    eng = InferenceEngine(model, dtype=np.float32)
    assert all(v.dtype == np.float32 for v in eng.params.values())
    pc, page, off = random_segments(model, 2, seed=3)
    state = stepped_state(eng, pc, page, off)
    assert state.h.dtype == np.float32 and state.c.dtype == np.float32
    page_logits, off_logits = eng.logits(state)
    assert page_logits.dtype == np.float32
    assert off_logits.dtype == np.float32
    state = eng.step(state, pc[:, -1], page[:, -1], off[:, -1])
    assert state.h.dtype == np.float32


def test_invalid_dtype_rejected():
    with pytest.raises(ValueError, match="dtype"):
        InferenceEngine(tiny_model(), dtype=np.int32)


def test_negative_rollout_steps_rejected():
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_segments(model, 1, seed=0)
    state = stepped_state(eng, pc, page, off)
    with pytest.raises(ValueError, match="steps"):
        eng.rollout(state, pc[:, -1], -1)


def test_rollout_does_not_mutate_state():
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_segments(model, 2, seed=5)
    state = stepped_state(eng, pc, page, off)
    snapshot = state.copy()
    eng.rollout(state, pc[:, -1], 4)
    np.testing.assert_array_equal(state.h, snapshot.h)
    np.testing.assert_array_equal(state.c, snapshot.c)


def test_oov_prediction_masks_remaining_rollout():
    """A head rigged to always predict OOV yields an all-invalid rollout."""
    model = tiny_model()
    model.params["w_page"][:] = 0.0
    model.params["b_page"][:] = 0.0
    model.params["b_page"][OOV_ID] = 10.0
    eng = InferenceEngine(model)
    pc, page, off = random_segments(model, 2, seed=1)
    state = stepped_state(eng, pc, page, off)
    _, _, valid = eng.rollout(state, pc[:, -1], 3)
    assert not valid.any()


def test_predict_topk_top1_matches_predict():
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_segments(model, 4, seed=8)
    state = stepped_state(eng, pc, page, off)
    top_pages, top_offsets = eng.predict_topk(state, 3)
    assert top_pages.shape == (4, 3) and top_offsets.shape == (4, 3)
    pid, oid = eng.predict(state)
    np.testing.assert_array_equal(top_pages[:, 0], pid)
    np.testing.assert_array_equal(top_offsets[:, 0], oid)


def test_lstm_state_copy_is_independent():
    state = LSTMState(h=np.zeros((1, 4)), c=np.zeros((1, 4)))
    clone = state.copy()
    clone.h += 1.0
    assert state.h.sum() == 0.0
    assert state.batch == 1


# ----------------------------------------------------------------------
# the simulator hot path never builds a backprop cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_fit():
    trace = page_cycle_trace(300)
    dataset = build_sequence_dataset(trace, seq_len=16)
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=dataset.pc_vocab.size,
            page_vocab_size=dataset.page_vocab.size,
            embed_dim=8,
            hidden_dim=16,
            seed=0,
            seq_len=16,
        )
    )
    return trace, model, dataset


def test_prefetcher_never_calls_training_forward(small_fit, monkeypatch):
    """The streaming prefetcher and simulation (its batched candidate
    table) run with the training forward disabled.

    ``model.forward_sequence`` is the only entry point that allocates
    the backprop cache, so poisoning it proves the whole simulator hot
    path is cache-free.
    """
    trace, model, dataset = small_fit

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("simulator hot path called the training forward")

    monkeypatch.setattr(model, "forward_sequence", boom)
    monkeypatch.setattr(model, "loss_and_grads_sequence", boom)

    pf = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    for access in trace[:20]:
        pf.update(access)
    assert isinstance(pf.prefetch(trace[19], 4), list)

    result = simulate(
        trace,
        NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab),
        SimConfig(degree=2, distance=4, latency=4),
    )
    assert result.accesses == len(trace)


def test_streaming_and_primed_candidates_agree(small_fit):
    """The batched ``offline_candidates`` table preserves per-position
    predictions, across several ``seq_len`` state resets."""
    trace, model, dataset = small_fit
    lookahead = 6

    def make():
        return NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)

    batched = make().offline_candidates(trace[:120], lookahead, 0)
    assert batched == protocol_candidates(make(), trace[:120], lookahead, 0)


# ----------------------------------------------------------------------
# row_exact mode: batched rows == serial batch-width-1 runs, bit for bit
# ----------------------------------------------------------------------
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=2, max_value=6),
)
def test_row_exact_batched_ops_match_serial_rows(model_seed, data_seed, B):
    """A row_exact engine's batched step/logits/rollout reproduce each
    row of a plain engine driven at batch width 1 — the serving layer's
    micro-batching contract (plain batched BLAS does not guarantee
    this; the row-at-a-time matmuls do)."""
    model = tiny_model(model_seed)
    batched = InferenceEngine(model, row_exact=True)
    serial = InferenceEngine(model)
    pc, page, off = random_segments(model, B, data_seed)

    state_b = stepped_state(batched, pc, page, off)
    page_l, off_l = batched.logits(state_b)
    pages_b, offs_b, valid_b = batched.rollout(state_b, pc[:, -1], 3)
    for i in range(B):
        rows = slice(i, i + 1)
        row = stepped_state(serial, pc[rows], page[rows], off[rows])
        np.testing.assert_array_equal(state_b.h[rows], row.h)
        np.testing.assert_array_equal(state_b.c[rows], row.c)

        page_r, off_r = serial.logits(row)
        np.testing.assert_array_equal(page_l[rows], page_r)
        np.testing.assert_array_equal(off_l[rows], off_r)

        pages_r, offs_r, valid_r = serial.rollout(row, pc[rows, -1], 3)
        # entries past a row's OOV cutoff are unspecified (the serial
        # B=1 run stops early; the batch keeps stepping other rows), so
        # only valid positions are part of the contract
        np.testing.assert_array_equal(valid_b[rows], valid_r)
        mask = valid_r[0]
        np.testing.assert_array_equal(pages_b[i, mask], pages_r[0, mask])
        np.testing.assert_array_equal(offs_b[i, mask], offs_r[0, mask])


@settings(max_examples=80)
@given(
    dtype=st.sampled_from([np.float64, np.float32]),
    K=st.sampled_from([16, 24, 32, 48]),
    N=st.sampled_from([17, 33, 64, 113, 128, 1025]),
    B=st.integers(min_value=2, max_value=70),
    layout=st.sampled_from(["C", "strided", "F"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rowwise_matmul_is_per_row_gemv_at_serving_shapes(
    dtype, K, N, B, layout, seed
):
    """One stacked ``(B, 1, K) @ (K, N)`` call equals ``B`` separate
    width-1 products bit for bit, at the shapes the server runs (input
    and hidden projections, odd page vocabularies, wide heads).

    This is the NumPy behaviour the serving contract rests on: the
    matmul gufunc must send every stacked item down the same gemv
    branch as a standalone ``(1, K)`` call.  A plain ``x @ w`` (gemm)
    fails it.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((K, N)).astype(dtype)
    big = rng.standard_normal((B, 2 * K)).astype(dtype)
    x = {
        "C": big[:, :K].copy(),
        "strided": big[:, ::2],
        "F": np.asfortranarray(big[:, :K]),
    }[layout]
    got = _rowwise_matmul(x, w)
    want = np.vstack([x[i : i + 1] @ w for i in range(B)])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_row_exact_is_identity_at_batch_width_one():
    """row_exact changes nothing for B=1 (same call shapes)."""
    model = tiny_model(2)
    pc, page, off = random_segments(model, 1, 9)
    plain = stepped_state(InferenceEngine(model), pc, page, off)
    exact = stepped_state(InferenceEngine(model, row_exact=True), pc, page, off)
    np.testing.assert_array_equal(plain.h, exact.h)
    np.testing.assert_array_equal(plain.c, exact.c)


def test_lstm_state_stack_and_row_round_trip():
    """Stacked rows read back bit-for-bit as row slices, and the stack
    owns its rows.  (Sessions hold row views of a batch, not copies, so
    the stack must never alias the states it gathers.)"""
    model = tiny_model(3)
    engine = InferenceEngine(model)
    states = []
    for seed in range(3):
        pc, page, off = random_segments(model, 1, seed)
        states.append(stepped_state(engine, pc, page, off))
    stacked = LSTMState.stack(states)
    assert stacked.batch == 3
    originals = [state.copy() for state in states]
    for i, state in enumerate(states):
        np.testing.assert_array_equal(stacked.h[i : i + 1], state.h)
        np.testing.assert_array_equal(stacked.c[i : i + 1], state.c)
    # stack() copies: mutating the stack leaves its inputs untouched
    stacked.h += 1.0
    stacked.c += 1.0
    for state, original in zip(states, originals):
        np.testing.assert_array_equal(state.h, original.h)
        np.testing.assert_array_equal(state.c, original.c)
    with pytest.raises(ValueError, match="zero states"):
        LSTMState.stack([])


# ----------------------------------------------------------------------
# segment_states: one batched scan == serial per-segment replay
# ----------------------------------------------------------------------
def _serial_segment_states(engine, x, seq_len):
    """Reference: replay each access serially, resetting at segment starts."""
    n = x.shape[0]
    hs = np.empty((n, engine.config.hidden_dim), dtype=engine.dtype)
    cs = np.empty_like(hs)
    state = None
    for p in range(n):
        if p % seq_len == 0:
            state = engine.init_state(1)
        state = engine.step_from_features(state, x[p : p + 1])
        hs[p] = state.h[0]
        cs[p] = state.c[0]
    return hs, cs


def test_segment_states_matches_serial_replay_row_exact(small_fit):
    """With row_exact the batched scan is bit-identical to serial replay."""
    trace, model, dataset = small_fit
    engine = InferenceEngine(model, row_exact=True)
    n = 50
    pc = np.array(
        dataset.pc_vocab.encode_all(a.pc for a in trace[:n]), dtype=np.int64
    )
    page = np.array(
        dataset.page_vocab.encode_all(a.page for a in trace[:n]),
        dtype=np.int64,
    )
    off = np.array([a.offset for a in trace[:n]], dtype=np.int64)
    x = engine.feature_step(pc, page, off)
    state = engine.segment_states(x, seq_len=16)
    hs, cs = _serial_segment_states(engine, x, seq_len=16)
    np.testing.assert_array_equal(state.h, hs)
    np.testing.assert_array_equal(state.c, cs)


def test_segment_states_matches_serial_replay_default_engine(small_fit):
    """The plain BLAS engine agrees to float tolerance (gemm vs gemv)."""
    trace, model, dataset = small_fit
    engine = InferenceEngine(model)
    n = 37  # ragged: 16 + 16 + 5, final segment shorter than seq_len
    pc = np.array(
        dataset.pc_vocab.encode_all(a.pc for a in trace[:n]), dtype=np.int64
    )
    page = np.array(
        dataset.page_vocab.encode_all(a.page for a in trace[:n]),
        dtype=np.int64,
    )
    off = np.array([a.offset for a in trace[:n]], dtype=np.int64)
    x = engine.feature_step(pc, page, off)
    state = engine.segment_states(x, seq_len=16)
    assert state.h.shape == (n, model.config.hidden_dim)
    hs, cs = _serial_segment_states(engine, x, seq_len=16)
    np.testing.assert_allclose(state.h, hs, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state.c, cs, rtol=1e-12, atol=1e-14)


def test_segment_states_validation_and_empty():
    model = tiny_model()
    engine = InferenceEngine(model)
    with pytest.raises(ValueError, match="seq_len"):
        engine.segment_states(np.zeros((4, 9)), seq_len=0)
    empty = engine.segment_states(
        np.zeros((0, 3 * model.config.embed_dim)), seq_len=4
    )
    assert empty.h.shape == (0, model.config.hidden_dim)
