"""Sequence-mode training engine: segments, TBPTT, gradients, profiling.

The contract under test: a :class:`~voyager.train.SequenceDataset`
supervises *every* timestep of each segment at one LSTM cell evaluation
per access (no sliding-window replay), the sequence forward is the same
arithmetic as the incremental inference engine, truncated-BPTT chunking
changes gradients but never the forward states, and the whole loop is
deterministic per seed.
"""

import time

import numpy as np
import pytest

from voyager.infer import DTYPE, InferenceEngine
from voyager.labeling import LabelConfig, make_labels
from voyager.model import HierarchicalModel, ModelConfig
from voyager.synthetic import page_cycle_trace
from voyager.train import (
    SequenceDataset,
    batch_indices,
    build_sequence_dataset,
    train,
)
from voyager.vocab import Vocab


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        pc_vocab_size=5,
        page_vocab_size=6,
        num_offsets=8,
        embed_dim=3,
        hidden_dim=4,
        history=3,
        attention_candidates=2,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_segments(model: HierarchicalModel, B: int, T: int, seed: int = 0):
    cfg = model.config
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, cfg.pc_vocab_size, (B, T)),
        rng.integers(0, cfg.page_vocab_size, (B, T)),
        rng.integers(0, cfg.num_offsets, (B, T)),
    )


def random_labels(model: HierarchicalModel, B: int, T: int, L: int, seed: int = 1):
    cfg = model.config
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, cfg.page_vocab_size, (B, T, L))
    offsets = rng.integers(0, cfg.num_offsets, (B, T, L))
    weights = rng.random((B, T, L))
    # zero out a random tail slot per row to exercise padding, then
    # renormalize: the contract is that each timestep's weights sum to 1
    weights[:, :, -1] *= rng.integers(0, 2, (B, T))
    weights /= weights.sum(axis=2, keepdims=True)
    return pages, offsets, weights


# ----------------------------------------------------------------------
# build_sequence_dataset
# ----------------------------------------------------------------------
class TestBuildSequenceDataset:
    def test_shapes_and_position_coverage(self):
        trace = page_cycle_trace(100)
        ds = build_sequence_dataset(trace, seq_len=16)
        assert isinstance(ds, SequenceDataset)
        S, T = ds.positions.shape
        assert T == 16
        assert ds.pc_ids.shape == (S, T)
        assert ds.label_page_ids.shape[:2] == (S, T)
        assert ds.label_weights.shape == ds.label_page_ids.shape
        # every supervisable position 0..n-2 appears in some segment
        assert set(ds.positions.ravel().tolist()) == set(range(99))

    def test_tail_segment_overlaps_instead_of_dropping(self):
        trace = page_cycle_trace(100)  # 99 positions, 16 does not divide
        ds = build_sequence_dataset(trace, seq_len=16)
        starts = ds.positions[:, 0].tolist()
        assert starts[-1] == 99 - 16  # anchored to cover the tail
        assert starts[-1] < starts[-2] + 16  # overlapping its predecessor

    def test_exact_division_has_no_overlap(self):
        trace = page_cycle_trace(65)  # 64 positions = 4 x 16
        ds = build_sequence_dataset(trace, seq_len=16)
        assert ds.positions[:, 0].tolist() == [0, 16, 32, 48]

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            build_sequence_dataset(page_cycle_trace(10), seq_len=32)

    def test_invalid_seq_len_rejected(self):
        with pytest.raises(ValueError, match="seq_len"):
            build_sequence_dataset(page_cycle_trace(50), seq_len=0)

    def test_label_weights_are_distributions(self):
        ds = build_sequence_dataset(page_cycle_trace(80), seq_len=8)
        sums = ds.label_weights.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0)

    def test_labels_match_scalar_make_labels(self):
        """Valid (page-id, offset, weight) slots reproduce make_labels."""
        trace = page_cycle_trace(60)
        config = LabelConfig()
        ds = build_sequence_dataset(trace, seq_len=8, label_config=config)
        for s in range(ds.positions.shape[0]):
            for t in range(ds.seq_len):
                pos = int(ds.positions[s, t])
                expect = [
                    (ds.page_vocab.encode(page), off)
                    for page, off in make_labels(trace, pos, config)
                ]
                got = [
                    (int(p), int(o))
                    for p, o, w in zip(
                        ds.label_page_ids[s, t],
                        ds.label_offsets[s, t],
                        ds.label_weights[s, t],
                    )
                    if w > 0
                ]
                assert got == expect, f"segment {s} step {t} (pos {pos})"

    def test_prefit_vocabs_are_reused_verbatim(self):
        trace = page_cycle_trace(60)
        other = page_cycle_trace(200, pages=7)
        pc_vocab = Vocab(1024).fit(a.pc for a in other)
        page_vocab = Vocab(1024).fit(a.page for a in other)
        ds = build_sequence_dataset(
            trace, seq_len=8, pc_vocab=pc_vocab, page_vocab=page_vocab
        )
        assert ds.pc_vocab is pc_vocab
        assert ds.page_vocab is page_vocab
        expect = np.array(
            page_vocab.encode_all(a.page for a in trace), dtype=np.int64
        )
        np.testing.assert_array_equal(
            ds.page_ids, expect[ds.positions]
        )

    def test_single_missing_vocab_is_fit_other_untouched(self):
        """The is-None dispatch fits only the vocab that is absent."""
        trace = page_cycle_trace(60)
        pc_vocab = Vocab(1024)  # deliberately unfit (size 1, OOV only)
        ds = build_sequence_dataset(trace, seq_len=8, pc_vocab=pc_vocab)
        # the unfit-but-provided vocab was used, never silently refit
        assert ds.pc_vocab is pc_vocab
        assert pc_vocab.size == 1
        assert np.all(ds.pc_ids == 0)
        # the missing one was fit normally
        assert ds.page_vocab.size > 1


# ----------------------------------------------------------------------
# forward_sequence: equivalence, determinism, chunk carry
# ----------------------------------------------------------------------
class TestForwardSequence:
    def test_states_match_inference_engine_steps(self):
        """Sequence-mode cells are the inference engine's arithmetic.

        Driving the engine one access at a time (batch width 1) must
        reproduce, at every timestep and bit for bit, the hidden state
        of the training forward run at batch width 1 on the engine's
        float32 copy of the weights — the property that makes stateful
        serving faithful to sequence training.
        """
        model = HierarchicalModel(tiny_config())
        pc, page, off = random_segments(model, B=1, T=9)
        reference = HierarchicalModel(model.config)
        reference.params = {k: v.astype(DTYPE) for k, v in model.params.items()}
        _, _, cache, (h, c) = reference.forward_sequence(pc, page, off)
        engine = InferenceEngine(model)
        state = engine.init_state(1)
        for t in range(9):
            state = engine.step(state, pc[:, t], page[:, t], off[:, t])
            np.testing.assert_array_equal(state.h, cache["hs"][:, t])
        np.testing.assert_array_equal(state.h, h)
        np.testing.assert_array_equal(state.c, c)

    def test_forward_is_deterministic(self):
        model = HierarchicalModel(tiny_config())
        pc, page, off = random_segments(model, B=3, T=7)
        p1, o1, _, (h1, c1) = model.forward_sequence(pc, page, off)
        p2, o2, _, (h2, c2) = model.forward_sequence(pc, page, off)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(c1, c2)

    def test_batch_width_invariance(self):
        """Each row of a batched forward matches its solo run."""
        model = HierarchicalModel(tiny_config())
        pc, page, off = random_segments(model, B=4, T=6)
        page_p, off_p, _, (h, c) = model.forward_sequence(pc, page, off)
        for b in range(4):
            pb, ob, _, (hb, cb) = model.forward_sequence(
                pc[b : b + 1], page[b : b + 1], off[b : b + 1]
            )
            np.testing.assert_allclose(pb, page_p[b : b + 1], rtol=1e-12)
            np.testing.assert_allclose(ob, off_p[b : b + 1], rtol=1e-12)
            np.testing.assert_allclose(hb, h[b : b + 1], rtol=1e-12)
            np.testing.assert_allclose(cb, c[b : b + 1], rtol=1e-12)

    def test_chunked_forward_matches_full_forward(self):
        """Carrying (h, c) across chunks reproduces the one-shot states."""
        model = HierarchicalModel(tiny_config())
        pc, page, off = random_segments(model, B=3, T=8)
        _, _, cache_full, (h_full, c_full) = model.forward_sequence(
            pc, page, off
        )
        h = c = None
        hs_chunks = []
        for lo, hi in ((0, 3), (3, 6), (6, 8)):
            _, _, cache, (h, c) = model.forward_sequence(
                pc[:, lo:hi], page[:, lo:hi], off[:, lo:hi], h0=h, c0=c
            )
            hs_chunks.append(cache["hs"])
        np.testing.assert_allclose(
            np.concatenate(hs_chunks, axis=1), cache_full["hs"], rtol=1e-12
        )
        np.testing.assert_allclose(h, h_full, rtol=1e-12)
        np.testing.assert_allclose(c, c_full, rtol=1e-12)

    def test_probs_are_distributions_at_every_step(self):
        model = HierarchicalModel(tiny_config())
        pc, page, off = random_segments(model, B=2, T=5)
        page_p, off_p, _, _ = model.forward_sequence(pc, page, off)
        np.testing.assert_allclose(page_p.sum(axis=2), 1.0)
        np.testing.assert_allclose(off_p.sum(axis=2), 1.0)


# ----------------------------------------------------------------------
# loss_and_grads_sequence: full-BPTT gradients
# ----------------------------------------------------------------------
class TestSequenceGradients:
    def test_gradients_match_numerical(self):
        """Analytic BPTT agrees with central differences end-to-end."""
        model = HierarchicalModel(tiny_config())
        B, T, L = 2, 5, 3
        pc, page, off = random_segments(model, B, T)
        lp, lo, lw = random_labels(model, B, T, L)

        def loss_fn():
            loss, _, _ = model.loss_and_grads_sequence(
                pc, page, off, lp, lo, lw
            )
            return loss

        _, grads, _ = model.loss_and_grads_sequence(pc, page, off, lp, lo, lw)
        rng = np.random.default_rng(7)
        eps = 1e-6
        for name, arr in model.params.items():
            for flat in rng.choice(
                arr.size, size=min(4, arr.size), replace=False
            ):
                ix = np.unravel_index(flat, arr.shape)
                old = arr[ix]
                arr[ix] = old + eps
                lp_val = loss_fn()
                arr[ix] = old - eps
                lm_val = loss_fn()
                arr[ix] = old
                numeric = (lp_val - lm_val) / (2 * eps)
                assert numeric == pytest.approx(
                    grads[name][ix], rel=1e-3, abs=1e-7
                ), f"gradient mismatch in {name}{ix}"

    def test_gradients_match_numerical_with_carried_state(self):
        """TBPTT chunk gradients are exact for a *fixed* incoming state."""
        model = HierarchicalModel(tiny_config())
        B, T, L = 2, 4, 3
        pc, page, off = random_segments(model, B, T, seed=3)
        lp, lo, lw = random_labels(model, B, T, L, seed=4)
        rng = np.random.default_rng(5)
        h0 = rng.standard_normal((B, model.config.hidden_dim))
        c0 = rng.standard_normal((B, model.config.hidden_dim))

        _, grads, _ = model.loss_and_grads_sequence(
            pc, page, off, lp, lo, lw, h0=h0, c0=c0
        )
        eps = 1e-6
        for name in ("w_h", "b_lstm", "pc_embed", "w_query"):
            arr = model.params[name]
            for flat in rng.choice(
                arr.size, size=min(3, arr.size), replace=False
            ):
                ix = np.unravel_index(flat, arr.shape)
                old = arr[ix]
                arr[ix] = old + eps
                lp_val, _, _ = model.loss_and_grads_sequence(
                    pc, page, off, lp, lo, lw, h0=h0, c0=c0
                )
                arr[ix] = old - eps
                lm_val, _, _ = model.loss_and_grads_sequence(
                    pc, page, off, lp, lo, lw, h0=h0, c0=c0
                )
                arr[ix] = old
                numeric = (lp_val - lm_val) / (2 * eps)
                assert numeric == pytest.approx(
                    grads[name][ix], rel=1e-3, abs=1e-7
                ), f"gradient mismatch in {name}{ix}"

    def test_zero_weight_labels_contribute_nothing(self):
        model = HierarchicalModel(tiny_config())
        B, T, L = 2, 4, 3
        pc, page, off = random_segments(model, B, T)
        lp, lo, lw = random_labels(model, B, T, L)
        loss_a, grads_a, _ = model.loss_and_grads_sequence(
            pc, page, off, lp, lo, lw
        )
        # corrupt the padded slots' ids: weight 0 must mask them fully
        lp2 = lp.copy()
        lo2 = lo.copy()
        pad = lw == 0.0
        lp2[pad] = 0
        lo2[pad] = 0
        loss_b, grads_b, _ = model.loss_and_grads_sequence(
            pc, page, off, lp2, lo2, lw
        )
        assert loss_a == loss_b
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])


# ----------------------------------------------------------------------
# train(): loop semantics
# ----------------------------------------------------------------------
def seq_fixture(n=200, seq_len=16):
    trace = page_cycle_trace(n)
    dataset = build_sequence_dataset(trace, seq_len=seq_len)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        seed=0,
        seq_len=seq_len,
    )
    return dataset, HierarchicalModel(config)


class TestSequenceTraining:
    def test_deterministic_per_seed(self):
        ds, model_a = seq_fixture()
        _, model_b = seq_fixture()
        ra = train(model_a, ds, steps=12, batch_size=4, seed=0, tbptt=8)
        rb = train(model_b, ds, steps=12, batch_size=4, seed=0, tbptt=8)
        assert ra.losses == rb.losses
        for name in model_a.params:
            np.testing.assert_array_equal(
                model_a.params[name], model_b.params[name]
            )

    def test_loss_decreases_on_page_cycle(self):
        ds, model = seq_fixture(n=400, seq_len=32)
        result = train(model, ds, steps=40, batch_size=8, lr=0.02)
        assert result.final_loss < result.losses[0] * 0.7

    def test_tbptt_counts_updates_not_segments(self):
        """steps counts optimizer updates: chunks, not segment batches."""
        ds, model = seq_fixture(n=200, seq_len=16)
        result = train(model, ds, steps=5, batch_size=4, tbptt=4)
        assert len(result.losses) == 5  # 4 chunks/segment, cut mid-segment

    def test_mode_dataset_mismatch_rejected(self):
        """A model serves with its own seq_len reset rule, so it may only
        train on segments of that length — longer or shorter."""
        trace = page_cycle_trace(100)
        for ds_len, model_len in ((16, 32), (32, 16)):
            seq_ds = build_sequence_dataset(trace, seq_len=ds_len)
            model = HierarchicalModel(tiny_config(seq_len=model_len))
            with pytest.raises(ValueError, match="seq_len"):
                train(model, seq_ds, steps=1)

    def test_invalid_tbptt_rejected(self):
        ds, model = seq_fixture()
        with pytest.raises(ValueError, match="tbptt"):
            train(model, ds, steps=1, tbptt=0)

    def test_invalid_lr_schedule_rejected(self):
        ds, model = seq_fixture()
        with pytest.raises(ValueError, match="lr_schedule"):
            train(model, ds, steps=1, lr_schedule="linear")

    def test_cosine_schedule_changes_trajectory_after_first_step(self):
        ds, model_a = seq_fixture()
        _, model_b = seq_fixture()
        ra = train(model_a, ds, steps=6, batch_size=4, lr=0.02, seed=0)
        rb = train(
            model_b,
            ds,
            steps=6,
            batch_size=4,
            lr=0.02,
            seed=0,
            lr_schedule="cosine",
        )
        # step 0 uses the identical peak lr; later steps anneal
        assert ra.losses[0] == rb.losses[0]
        assert ra.losses[1] == rb.losses[1]  # first *update* also at peak lr
        assert ra.losses[2:] != rb.losses[2:]

    def test_profile_reports_phase_breakdown(self):
        ds, model = seq_fixture()
        start = time.perf_counter()
        result = train(model, ds, steps=6, batch_size=4, profile=True)
        wall = time.perf_counter() - start
        assert set(result.phases) == {
            "encode",
            "labels",
            "forward",
            "backward",
            "optimizer",
        }
        loop_s = sum(
            result.phases[k] for k in ("forward", "backward", "optimizer")
        )
        assert all(v >= 0.0 for v in result.phases.values())
        assert 0.0 < loop_s <= wall

    def test_profile_none_by_default(self):
        ds, model = seq_fixture()
        assert train(model, ds, steps=2, batch_size=4).phases is None


# ----------------------------------------------------------------------
# batch_indices edge cases
# ----------------------------------------------------------------------
class TestBatchIndicesEdgeCases:
    def test_batch_size_larger_than_n_clamps_every_step(self):
        rng = np.random.default_rng(0)
        batches = list(batch_indices(5, 32, 4, rng))
        assert all(len(b) == 5 for b in batches)
        for b in batches:
            assert sorted(b.tolist()) == [0, 1, 2, 3, 4]

    def test_exact_epoch_boundary_partitions_cleanly(self):
        rng = np.random.default_rng(1)
        batches = list(batch_indices(6, 3, 4, rng))
        # two epochs of two batches, each epoch a clean partition
        assert sorted(np.concatenate(batches[:2]).tolist()) == list(range(6))
        assert sorted(np.concatenate(batches[2:]).tolist()) == list(range(6))

    def test_same_generator_state_same_batches(self):
        a = list(batch_indices(10, 3, 7, np.random.default_rng(42)))
        b = list(batch_indices(10, 3, 7, np.random.default_rng(42)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
