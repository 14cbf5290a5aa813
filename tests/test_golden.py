"""Golden regression: a tiny fixed-seed run pinned to checked-in values.

Perf refactors of the model/training code must reproduce these numbers
(within float tolerance for BLAS reassociation).  If a change moves
them *intentionally* — e.g. a better init or labeling tweak — update
the constants here in the same PR and say why in the commit message.

Reference values computed with NumPy 2.4 on x86-64.
"""

import pytest

from voyager.eval import evaluate
from voyager.model import HierarchicalModel, ModelConfig
from voyager.synthetic import page_cycle_trace
from voyager.train import build_sequence_dataset, train

# Loose tolerance absorbs BLAS/platform float reassociation; it is still
# ~1000x tighter than any semantic change would move these numbers.
LOSS_TOL = 1e-6
ACC_TOL = 1e-9

# Default recipe: full-segment BPTT at the default seq_len (32),
# constant learning rate.
GOLDEN_FIRST_LOSS = 5.781967590018869
GOLDEN_FINAL_LOSS = 3.2217548682213573
# Argmax of forward_sequence at every supervised position of the
# training segments (320 = 10 segments x 32 timesteps).
GOLDEN_PAGE_ACC = 1.0
GOLDEN_OFFSET_ACC = 0.96875


def _golden_recipe():
    trace = page_cycle_trace(300)
    dataset = build_sequence_dataset(trace)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        seed=0,
    )
    model = HierarchicalModel(config)
    result = train(model, dataset, steps=60, batch_size=32, lr=1e-2, seed=0)
    return model, dataset, result


@pytest.fixture(scope="module")
def golden_run():
    return _golden_recipe()


def test_golden_first_loss(golden_run):
    _, _, result = golden_run
    assert result.losses[0] == pytest.approx(GOLDEN_FIRST_LOSS, rel=LOSS_TOL)


def test_golden_final_loss(golden_run):
    _, _, result = golden_run
    assert result.final_loss == pytest.approx(GOLDEN_FINAL_LOSS, rel=LOSS_TOL)


def test_golden_accuracies(golden_run):
    model, dataset, _ = golden_run
    metrics = evaluate(model, dataset)
    assert metrics.n == 320
    assert metrics.page_accuracy == pytest.approx(GOLDEN_PAGE_ACC, abs=ACC_TOL)
    assert metrics.offset_accuracy == pytest.approx(
        GOLDEN_OFFSET_ACC, abs=ACC_TOL
    )


def test_golden_run_is_reproducible(golden_run):
    """Re-running the identical recipe reproduces the loss bit-for-bit."""
    _, _, first = golden_run
    _, _, rerun = _golden_recipe()
    assert rerun.losses == first.losses


# ----------------------------------------------------------------------
# truncated BPTT, cosine schedule
# ----------------------------------------------------------------------
GOLDEN_SEQ_FIRST_LOSS = 5.761443301917691
GOLDEN_SEQ_FINAL_LOSS = 3.5613727423706654
# Argmax of forward_sequence at every supervised position of the
# training segments (320 = 10 segments x 32 timesteps).
GOLDEN_SEQ_PAGE_ACC = 0.996875
GOLDEN_SEQ_OFFSET_ACC = 0.821875


def _seq_golden_recipe():
    trace = page_cycle_trace(300)
    dataset = build_sequence_dataset(trace, seq_len=32)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        history=8,
        seed=0,
    )
    model = HierarchicalModel(config)
    result = train(
        model,
        dataset,
        steps=60,
        batch_size=16,
        lr=0.04,
        seed=0,
        tbptt=8,
        lr_schedule="cosine",
    )
    return trace, model, dataset, result


@pytest.fixture(scope="module")
def golden_seq_run():
    return _seq_golden_recipe()


def test_golden_sequence_losses(golden_seq_run):
    _, _, _, result = golden_seq_run
    assert result.losses[0] == pytest.approx(
        GOLDEN_SEQ_FIRST_LOSS, rel=LOSS_TOL
    )
    assert result.final_loss == pytest.approx(
        GOLDEN_SEQ_FINAL_LOSS, rel=LOSS_TOL
    )


def test_golden_sequence_accuracies(golden_seq_run):
    _, model, dataset, _ = golden_seq_run
    metrics = evaluate(model, dataset)
    assert metrics.n == 320
    assert metrics.page_accuracy == pytest.approx(
        GOLDEN_SEQ_PAGE_ACC, abs=ACC_TOL
    )
    assert metrics.offset_accuracy == pytest.approx(
        GOLDEN_SEQ_OFFSET_ACC, abs=ACC_TOL
    )


def test_golden_sequence_run_is_reproducible(golden_seq_run):
    _, _, _, first = golden_seq_run
    _, _, _, rerun = _seq_golden_recipe()
    assert rerun.losses == first.losses
