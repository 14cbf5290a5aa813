"""Training/eval-layer tests: dataset encoding and learning behaviour.

Segment tiling and the label arrays are pinned in more depth in
``tests/test_sequence_train.py``.

The convergence tests use small models and a couple hundred Adam steps,
so each runs in about a second of pure NumPy; the longer random-walk
check is marked ``slow`` and excluded from tier-1.
"""

import numpy as np
import pytest

from voyager.baselines import NextLinePrefetcher, evaluate_baseline
from voyager.eval import accuracy, evaluate
from voyager.model import HierarchicalModel, ModelConfig
from voyager.train import (
    batch_indices,
    build_sequence_dataset,
    build_vocabs,
    train,
)


def _fit(trace, steps=180, seed=0, hidden=32, embed=16):
    dataset = build_sequence_dataset(trace)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=embed,
        hidden_dim=hidden,
        seed=seed,
    )
    model = HierarchicalModel(config)
    result = train(model, dataset, steps=steps, batch_size=32, seed=seed)
    return model, dataset, result


class TestDataset:
    def test_shapes_and_alignment(self, stride_trace_small):
        ds = build_sequence_dataset(stride_trace_small, seq_len=8)
        n = len(stride_trace_small)
        S = len(ds)
        assert ds.pc_ids.shape == ds.page_ids.shape == ds.offset_ids.shape
        assert ds.pc_ids.shape == ds.positions.shape == (S, 8)
        assert ds.positions[-1, -1] == n - 2  # last supervisable access
        # Timestep t of segment s encodes trace access positions[s, t];
        # its primary label (slot 0) is the access right after it.
        offsets = np.array([a.offset for a in stride_trace_small])
        pages = np.array(
            ds.page_vocab.encode_all(a.page for a in stride_trace_small)
        )
        assert list(ds.offset_ids[0]) == list(offsets[:8])
        np.testing.assert_array_equal(ds.offset_ids, offsets[ds.positions])
        np.testing.assert_array_equal(ds.page_ids, pages[ds.positions])
        np.testing.assert_array_equal(
            ds.label_offsets[..., 0], offsets[ds.positions + 1]
        )
        np.testing.assert_array_equal(
            ds.label_page_ids[..., 0], pages[ds.positions + 1]
        )

    def test_targets_are_distributions(self, page_cycle_trace_small):
        ds = build_sequence_dataset(page_cycle_trace_small)
        assert (ds.label_weights >= 0).all()
        np.testing.assert_allclose(ds.label_weights.sum(axis=2), 1.0)
        # the true next access always carries target mass
        assert (ds.label_weights[..., 0] > 0).all()

    def test_too_short_trace_rejected(self, trace_factory):
        tiny = trace_factory("stride", n=5)
        with pytest.raises(ValueError, match="too short"):
            build_sequence_dataset(tiny)  # default seq_len 32
        with pytest.raises(ValueError, match="too short"):
            build_sequence_dataset(tiny, seq_len=5)
        # seq_len + 1 accesses are exactly one segment
        assert len(build_sequence_dataset(tiny, seq_len=4)) == 1

    def test_build_vocabs_caps_respected(self, random_walk_trace_small):
        pc_vocab, page_vocab = build_vocabs(
            random_walk_trace_small, pc_cap=2, page_cap=3
        )
        assert pc_vocab.size <= 3 and page_vocab.size <= 4


class TestTraining:
    def test_stride_reaches_90pct_page_accuracy_under_200_steps(
        self, stride_trace_small
    ):
        model, dataset, result = _fit(stride_trace_small, steps=180)
        metrics = evaluate(model, dataset)
        assert metrics.page_accuracy >= 0.90
        assert result.losses[-1] < result.losses[0]

    def test_neural_beats_next_line_on_page_cycle(
        self, page_cycle_trace_small
    ):
        model, dataset, _ = _fit(page_cycle_trace_small, steps=180)
        metrics = evaluate(model, dataset)
        baseline = evaluate_baseline(NextLinePrefetcher(), page_cycle_trace_small)
        assert metrics.full_accuracy > baseline.accuracy
        assert metrics.page_accuracy > 0.95

    def test_training_is_deterministic(self, page_cycle_trace_small):
        _, _, a = _fit(page_cycle_trace_small, steps=30)
        _, _, b = _fit(page_cycle_trace_small, steps=30)
        assert a.losses == b.losses

    def test_invalid_steps_rejected(self, stride_trace_small):
        ds = build_sequence_dataset(stride_trace_small)
        model = HierarchicalModel(
            ModelConfig(
                pc_vocab_size=ds.pc_vocab.size,
                page_vocab_size=ds.page_vocab.size,
            )
        )
        with pytest.raises(ValueError):
            train(model, ds, steps=0)

    @pytest.mark.slow
    def test_random_walk_loss_decreases(self, random_walk_trace_small):
        """Harder workload: loss must still trend down (slow tier)."""
        _, _, result = _fit(random_walk_trace_small, steps=400)
        early = np.mean(result.losses[:20])
        late = np.mean(result.losses[-20:])
        assert late < early


class TestBatchIndices:
    def test_each_epoch_visits_every_example_once(self):
        n, bs = 10, 5
        batches = list(batch_indices(n, bs, 4, np.random.default_rng(0)))
        assert all(len(b) == bs for b in batches)
        # steps 0-1 are epoch one, steps 2-3 epoch two; each covers [0, n)
        assert sorted(np.concatenate(batches[:2])) == list(range(n))
        assert sorted(np.concatenate(batches[2:])) == list(range(n))

    def test_deterministic_for_a_given_seed(self):
        a = list(batch_indices(100, 32, 7, np.random.default_rng(3)))
        b = list(batch_indices(100, 32, 7, np.random.default_rng(3)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_partial_tail_starts_fresh_permutation(self):
        # n=7, bs=3: after two batches only one index remains, so the
        # third batch must come from a fresh full permutation.
        batches = list(batch_indices(7, 3, 3, np.random.default_rng(1)))
        assert all(len(b) == 3 for b in batches)
        assert len(set(np.concatenate(batches[:2]))) == 6

    def test_batch_size_clamped_to_dataset(self):
        batches = list(batch_indices(4, 32, 2, np.random.default_rng(0)))
        assert all(sorted(b) == list(range(4)) for b in batches)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(batch_indices(10, 0, 1, np.random.default_rng(0)))


def test_accuracy_helper_validates_shapes():
    assert accuracy([1, 2, 3], [1, 0, 3]) == pytest.approx(2 / 3)
    assert accuracy([], []) == 0.0
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])


class TestVocabReuse:
    """build_sequence_dataset's pre-fit vocab handling (the `is None`
    contract).

    A provided vocab must be used verbatim — even when oddly shaped —
    and only a *missing* vocab is fitted; a truthiness test would
    silently refit both.
    """

    def test_provided_vocabs_reused_verbatim(self, page_cycle_trace_small):
        from voyager.vocab import Vocab

        trace = page_cycle_trace_small
        other = [a for a in trace[: len(trace) // 3]]
        pc_vocab = Vocab(1024).fit(a.pc for a in other)
        page_vocab = Vocab(1024).fit(a.page for a in other)
        before = (pc_vocab.size, page_vocab.size)
        dataset = build_sequence_dataset(
            trace, seq_len=4, pc_vocab=pc_vocab, page_vocab=page_vocab
        )
        assert dataset.pc_vocab is pc_vocab
        assert dataset.page_vocab is page_vocab
        assert (pc_vocab.size, page_vocab.size) == before
        pcs = np.array(pc_vocab.encode_all(a.pc for a in trace))
        np.testing.assert_array_equal(dataset.pc_ids, pcs[dataset.positions])

    def test_only_missing_vocab_is_fit(self, page_cycle_trace_small):
        from voyager.vocab import Vocab

        trace = page_cycle_trace_small
        page_vocab = Vocab(1024)  # unfit: size 1 (OOV only), still valid
        dataset = build_sequence_dataset(trace, seq_len=4, page_vocab=page_vocab)
        assert dataset.page_vocab is page_vocab
        assert page_vocab.size == 1  # never silently refit
        assert (dataset.page_ids == 0).all()  # everything encodes to OOV
        assert (dataset.label_page_ids == 0).all()  # labels too
        assert dataset.pc_vocab.size > 1  # the absent one was fitted
