"""Accuracy and coverage metrics for models and baselines.

Two views of quality live here:

- :func:`evaluate` — argmax next-access accuracy of the two heads at
  every supervised position of a sequence dataset (fast, model-only);
- :func:`simulate_model` — the cache-outcome view: wraps a trained
  model in a :class:`~voyager.sim.NeuralPrefetcher` and replays a raw
  trace through the prefetch simulator, yielding the paper's
  coverage/accuracy/timeliness metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from voyager.model import HierarchicalModel
from voyager.sim import NeuralPrefetcher, SimConfig, SimResult, simulate
from voyager.traces import MemoryAccess
from voyager.train import SequenceDataset
from voyager.vocab import Vocab


@dataclass(frozen=True)
class EvalResult:
    """Next-access prediction quality on a dataset."""

    page_accuracy: float
    offset_accuracy: float
    full_accuracy: float  # both page and offset correct
    label_coverage: float  # prediction fell anywhere in the label set
    n: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "page_accuracy": self.page_accuracy,
            "offset_accuracy": self.offset_accuracy,
            "full_accuracy": self.full_accuracy,
            "label_coverage": self.label_coverage,
        }


def evaluate(
    model: HierarchicalModel,
    dataset: SequenceDataset,
    batch_size: int = 64,
) -> EvalResult:
    """Argmax next-access accuracy of both heads over a sequence dataset.

    Runs :meth:`~voyager.model.HierarchicalModel.forward_sequence` over
    the segments (``batch_size`` at a time, each from a zero state, as
    in training) and scores the argmax of both heads at every
    supervised position against the primary label — the true next
    access.  ``label_coverage`` counts positions whose predicted page
    and predicted offset both carry target mass.
    """
    n_seg = len(dataset)
    page_preds = np.empty(dataset.pc_ids.shape, dtype=np.int64)
    off_preds = np.empty(dataset.pc_ids.shape, dtype=np.int64)
    for start in range(0, n_seg, batch_size):
        sl = slice(start, min(start + batch_size, n_seg))
        page_probs, off_probs, _, _ = model.forward_sequence(
            dataset.pc_ids[sl], dataset.page_ids[sl], dataset.offset_ids[sl]
        )
        page_preds[sl] = page_probs.argmax(axis=-1)
        off_preds[sl] = off_probs.argmax(axis=-1)

    labelled = dataset.label_weights > 0
    page_ok = page_preds == dataset.label_page_ids[..., 0]
    off_ok = off_preds == dataset.label_offsets[..., 0]
    covered = (
        (dataset.label_page_ids == page_preds[..., None]) & labelled
    ).any(axis=-1) & (
        (dataset.label_offsets == off_preds[..., None]) & labelled
    ).any(axis=-1)
    return EvalResult(
        page_accuracy=float(page_ok.mean()),
        offset_accuracy=float(off_ok.mean()),
        full_accuracy=float((page_ok & off_ok).mean()),
        label_coverage=float(covered.mean()),
        n=int(page_ok.size),
    )


def simulate_model(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    trace: Sequence[MemoryAccess],
    sim_config: Optional[SimConfig] = None,
) -> SimResult:
    """Cache-outcome evaluation of a trained model on a raw trace.

    This is the evaluation the paper reports: the model drives a
    prefetch issue queue into a set-associative LRU cache, and quality
    is measured as coverage (misses eliminated), accuracy (useful per
    issued prefetch) and timeliness — not argmax token accuracy.

    The prefetcher runs on the cache-free float32 inference engine every
    layer predicts with and carries state with the model's own
    ``seq_len`` reset rule; :func:`~voyager.sim.simulate` computes its
    candidates for the whole trace in batched passes.
    """
    prefetcher = NeuralPrefetcher(model, pc_vocab, page_vocab)
    return simulate(trace, prefetcher, sim_config or SimConfig())


def accuracy(predictions: Sequence[int], truths: Sequence[int]) -> float:
    """Fraction of exact matches (helper shared with baselines)."""
    preds = np.asarray(predictions)
    truth = np.asarray(truths)
    if preds.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: {preds.shape} vs {truth.shape}"
        )
    if preds.size == 0:
        return 0.0
    return float((preds == truth).mean())
