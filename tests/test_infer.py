"""Inference-engine tests: bit-exact equivalence, no backprop cache.

The engine's contract is arithmetic, not approximate: it is a float32
snapshot of the model, and driving it one access at a time must
reproduce the training forward run at batch width 1 on a float32 copy
of the same parameters, state for state and bit for bit (see
:mod:`voyager.infer`).  Every batched call must answer each row
exactly as that row alone.  The property tests here drive both over
randomly drawn models and segments; the cache tests prove the
simulator hot path never touches the training forward.
"""

import numpy as np
import pytest

import voyager.sim as sim_mod
from voyager.embeddings import page_aware_offset_step, page_aware_offset_table
from voyager.infer import DTYPE, InferenceEngine, LSTMState, _rowwise_matmul
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


def float32_copy(model: HierarchicalModel) -> HierarchicalModel:
    """The same model with float32 parameters: the engine's reference."""
    copy = HierarchicalModel(model.config)
    copy.params = {k: v.astype(DTYPE) for k, v in model.params.items()}
    return copy


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
# bit-exact equivalence properties: the engine == the float32 forward
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
    """Feeding ``B`` segments one access at a time, as one batch, ==
    the float32 training forward of each segment at batch width 1.

    Every timestep's state is bit-identical; the head distributions
    agree to float32 tolerance (the forward reads the heads out of all
    ``T`` states in one matmul, the engine one row at a time).
    """
    model = tiny_model(model_seed)
    pc, page, off = random_segments(model, B, data_seed, T)
    reference = float32_copy(model)
    forwards = [
        reference.forward_sequence(pc[b : b + 1], page[b : b + 1], off[b : b + 1])
        for b in range(B)
    ]

    eng = InferenceEngine(model)
    state = eng.init_state(B)
    for t in range(T):
        state = eng.step(state, pc[:, t], page[:, t], off[:, t])
        eng_page, eng_off = eng.probs(state)
        for b, (page_probs, off_probs, cache, _) in enumerate(forwards):
            np.testing.assert_array_equal(state.h[b], cache["hs"][0, t])
            np.testing.assert_array_equal(state.c[b], cache["cs"][0, t])
            np.testing.assert_allclose(eng_page[b], page_probs[0, t], rtol=1e-5)
            np.testing.assert_allclose(eng_off[b], off_probs[0, t], rtol=1e-5)
    for b, (_, _, _, (h, c)) in enumerate(forwards):
        np.testing.assert_array_equal(state.h[b : b + 1], h)
        np.testing.assert_array_equal(state.c[b : b + 1], c)


@settings(max_examples=40)
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=5),
    T=st.integers(min_value=1, max_value=6),
)
def test_window_state_matches_forward_bit_exactly(model_seed, data_seed, B, T):
    """The batched candidate table's scan == the float32 training
    forward at batch width 1, bit for bit.

    :meth:`~voyager.infer.InferenceEngine.segment_states` over the ``B``
    segments laid end to end (state reset every ``T`` accesses) yields
    each segment's ``forward_sequence`` state at every timestep, and
    the heads read out of those states give its distributions.
    """
    model = tiny_model(model_seed)
    pc, page, off = random_segments(model, B, data_seed, T)
    reference = float32_copy(model)

    eng = InferenceEngine(model)
    x = eng.feature_step(pc.reshape(-1), page.reshape(-1), off.reshape(-1))
    state = eng.segment_states(x, seq_len=T)
    eng_page, eng_off = eng.probs(state)
    for b in range(B):
        page_probs, off_probs, cache, _ = reference.forward_sequence(
            pc[b : b + 1], page[b : b + 1], off[b : b + 1]
        )
        rows = slice(b * T, (b + 1) * T)
        np.testing.assert_array_equal(state.h[rows], cache["hs"][0])
        np.testing.assert_array_equal(state.c[rows], cache["cs"][0])
        np.testing.assert_allclose(eng_page[rows], page_probs[0], rtol=1e-5)
        np.testing.assert_allclose(eng_off[rows], off_probs[0], rtol=1e-5)


@settings(max_examples=60)
@given(
    pages=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=24),
    K=st.integers(min_value=1, max_value=12),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_offset_table_rows_match_page_aware_offset_step(pages, d, K, dtype, seed):
    """Every ``(page, offset)`` row of the engine's attention table is
    :func:`page_aware_offset_step` of that pair, bit for bit, computed
    row by row and as one batch over every pair."""
    rng = np.random.default_rng(seed)
    offsets = 8
    offset_embed = rng.standard_normal((offsets, K, d)).astype(dtype)
    w_query = rng.standard_normal((d, d)).astype(dtype)
    page_embed = rng.standard_normal((pages, d)).astype(dtype)
    table = page_aware_offset_table(offset_embed, w_query, page_embed)
    assert table.dtype == dtype and table.shape == (pages, offsets, d)

    page_ids = np.repeat(np.arange(pages), offsets)
    offset_ids = np.tile(np.arange(offsets), pages)
    batched = page_aware_offset_step(
        offset_embed, w_query, page_embed[page_ids], offset_ids
    )
    assert batched.tobytes() == table.reshape(-1, d).tobytes()
    for p, o in zip(page_ids.tolist(), offset_ids.tolist()):
        row = page_aware_offset_step(
            offset_embed, w_query, page_embed[p : p + 1], np.array([o])
        )
        assert row.tobytes() == table[p, o : o + 1].tobytes()


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
    pseudo-access (PC repeating the last real one) and reruns the
    float32 ``forward_sequence`` over the whole extended segment — the
    semantics the carried-state rollout must reproduce, OOV masking
    included.
    """
    model = tiny_model(model_seed)
    reference = float32_copy(model)
    pc, page, off = random_segments(model, B, data_seed)
    eng = InferenceEngine(model)
    state = stepped_state(eng, pc, page, off)
    pages, offsets, valid = eng.rollout(state, pc[:, -1], steps)

    ref_pc, ref_page, ref_off = pc.copy(), page.copy(), off.copy()
    alive = np.ones(B, dtype=bool)
    for j in range(steps):
        # Each row at batch width 1, where the forward's states are the
        # engine's bit for bit.
        last = [
            reference.forward_sequence(
                ref_pc[b : b + 1], ref_page[b : b + 1], ref_off[b : b + 1]
            )
            for b in range(B)
        ]
        pid = np.array([probs[0][0, -1].argmax() for probs in last])
        oid = np.array([probs[1][0, -1].argmax() for probs in last])
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
def test_engine_is_a_snapshot_of_the_model():
    """The engine copies the weights it was built from: a later in-place
    change to the model does not reach it (a hot-swap builds a new
    engine instead)."""
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_segments(model, 2, seed=4)
    before = stepped_state(eng, pc, page, off)
    for value in model.params.values():
        value += 1.0
    after = stepped_state(eng, pc, page, off)
    np.testing.assert_array_equal(before.h, after.h)
    np.testing.assert_array_equal(before.c, after.c)
    assert not any(
        np.shares_memory(eng.params[k], model.params[k]) for k in model.params
    )


def test_float32_mode_runs_end_to_end_in_float32():
    """float32 is the engine's one dtype: weights, table, states, logits."""
    model = tiny_model()
    eng = InferenceEngine(model)
    assert all(v.dtype == np.float32 for v in eng.params.values())
    assert eng.offset_attention.dtype == np.float32
    assert eng.offset_attention.shape == (
        model.config.page_vocab_size,
        model.config.num_offsets,
        model.config.embed_dim,
    )
    pc, page, off = random_segments(model, 2, seed=3)
    state = stepped_state(eng, pc, page, off)
    assert state.h.dtype == np.float32 and state.c.dtype == np.float32
    page_logits, off_logits = eng.logits(state)
    assert page_logits.dtype == np.float32
    assert off_logits.dtype == np.float32
    state = eng.step(state, pc[:, -1], page[:, -1], off[:, -1])
    assert state.h.dtype == np.float32


def test_invalid_dtype_rejected():
    """A stored state is served only in the engine's dtype and shape."""
    model = tiny_model()
    eng = InferenceEngine(model)
    hidden = model.config.hidden_dim
    good = np.zeros((1, hidden), dtype=np.float32)
    state = eng.load_state(good, good.copy())
    assert state.h is good
    for h in (
        np.zeros((1, hidden), dtype=np.float64),
        np.zeros((1, hidden + 1), dtype=np.float32),
        np.zeros((2, hidden), dtype=np.float32),
    ):
        with pytest.raises(ValueError, match="dtype"):
            eng.load_state(h, good)
        with pytest.raises(ValueError, match="dtype"):
            eng.load_state(good, h)


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


@pytest.mark.parametrize("block", [1, 7, 16, 512, 10_000])
def test_offline_candidates_are_the_same_for_every_block_size(
    small_fit, monkeypatch, block
):
    """The offline rollout's row blocks are a cost knob only: any block
    size, one row included, gives the whole-trace table's rows."""
    trace, model, dataset = small_fit
    prefetcher = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    whole = prefetcher.offline_candidates(trace, 3, 2)
    monkeypatch.setattr(sim_mod, "ROLLOUT_BLOCK_ROWS", block)
    assert prefetcher.offline_candidates(trace, 3, 2) == whole


# ----------------------------------------------------------------------
# batched rows == serial batch-width-1 runs, bit for bit
# ----------------------------------------------------------------------
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=2, max_value=6),
)
def test_row_exact_batched_ops_match_serial_rows(model_seed, data_seed, B):
    """The engine's batched step/logits/rollout reproduce each row
    driven at batch width 1 — the contract the server's micro-batching
    and the simulator's whole-trace scan rest on (plain batched BLAS
    does not guarantee this; the row-at-a-time matmuls do)."""
    model = tiny_model(model_seed)
    batched = InferenceEngine(model)
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


@settings(max_examples=40)
@given(
    K=st.sampled_from([4, 16, 24, 32, 48]),
    N=st.sampled_from([8, 17, 64, 113, 128, 1025]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_exact_is_identity_at_batch_width_one(K, N, seed):
    """A single row takes the plain product, which is the very gemv
    the stacked call issues per row: the shortcut changes no bits."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((K, N)).astype(DTYPE)
    x = rng.standard_normal((1, K)).astype(DTYPE)
    stacked = np.matmul(x[:, None, :], w)[:, 0, :]
    assert _rowwise_matmul(x, w).tobytes() == stacked.tobytes()


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
    hs = np.empty((n, engine.config.hidden_dim), dtype=DTYPE)
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
    """The batched scan is bit-identical to serial replay."""
    trace, model, dataset = small_fit
    engine = InferenceEngine(model)
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
    """A ragged trace (the last segment shorter than ``seq_len``) too."""
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
    np.testing.assert_array_equal(state.h, hs)
    np.testing.assert_array_equal(state.c, cs)


def test_segment_states_validation_and_empty():
    model = tiny_model()
    engine = InferenceEngine(model)
    with pytest.raises(ValueError, match="seq_len"):
        engine.segment_states(np.zeros((4, 9)), seq_len=0)
    empty = engine.segment_states(
        np.zeros((0, 3 * model.config.embed_dim)), seq_len=4
    )
    assert empty.h.shape == (0, model.config.hidden_dim)
