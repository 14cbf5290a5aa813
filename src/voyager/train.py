"""Dataset encoding and the truncated-BPTT training loop.

:func:`build_sequence_dataset` chops the encoded trace into contiguous
``(num_segments, seq_len)`` segments with *per-timestep* multi-label
targets, and :func:`train` carries LSTM state across TBPTT chunks
within each segment.  Every cell evaluation supervises a position,
which is the paper's — and Hashemi et al. 2018's — training shape.
The segment length is part of the model (``ModelConfig.seq_len``):
every consumer resets a stream's state on the same ``seq_len``
boundaries the model trained on, so :func:`train` rejects a dataset
cut to any other length.

Everything is deterministic for a given seed.  ``train(profile=True)``
returns a wall-time phase breakdown (encode / labels / forward /
backward / optimizer) merged from the dataset build and the train loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from voyager.labeling import LabelConfig, label_arrays, label_weights
from voyager.model import DEFAULT_SEQ_LEN, HierarchicalModel
from voyager.optim import Adam
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab


@dataclass
class SequenceDataset:
    """Contiguous trace segments with per-timestep multi-label targets.

    Segment ``s`` covers trace positions ``positions[s, 0] ..
    positions[s, -1]`` (consecutive), and timestep ``t`` is supervised
    with the labels for the access after ``positions[s, t]``.  Targets
    are *sparse*: up to ``L`` labels per timestep as parallel
    id/offset/weight arrays, with ``label_weights == 0`` marking padded
    slots (each row's weights sum to one).

    Segments tile the supervisable positions ``0 .. len(trace) - 2``
    end to end; the final segment is shifted back to end exactly at the
    last position, so **every** position is supervised at least once
    (the overlap region twice).
    """

    pc_ids: np.ndarray  # (S, T)
    page_ids: np.ndarray  # (S, T)
    offset_ids: np.ndarray  # (S, T)
    label_page_ids: np.ndarray  # (S, T, L) target page vocab ids
    label_offsets: np.ndarray  # (S, T, L) target block offsets
    label_weights: np.ndarray  # (S, T, L) target mass, 0 = padding
    positions: np.ndarray  # (S, T) trace index of each timestep
    pc_vocab: Vocab = field(repr=False)
    page_vocab: Vocab = field(repr=False)
    phases: Dict[str, float] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return self.pc_ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.pc_ids.shape[1]

    @property
    def num_supervised(self) -> int:
        """Supervised (position, loss) slots: one per segment timestep."""
        return self.pc_ids.shape[0] * self.pc_ids.shape[1]

    @property
    def num_distinct_positions(self) -> int:
        """Distinct trace positions supervised (overlap counted once)."""
        return int(np.unique(self.positions).size)


def build_vocabs(
    trace: Sequence[MemoryAccess], pc_cap: int = 1024, page_cap: int = 1024
) -> Tuple[Vocab, Vocab]:
    """Fit frequency-capped PC and page vocabularies on a trace."""
    pc_vocab = Vocab(pc_cap).fit(a.pc for a in trace)
    page_vocab = Vocab(page_cap).fit(a.page for a in trace)
    return pc_vocab, page_vocab


def _encode_trace(
    trace: Sequence[MemoryAccess],
    pc_vocab: Optional[Vocab],
    page_vocab: Optional[Vocab],
    pc_cap: int,
    page_cap: int,
) -> Tuple[Vocab, Vocab, np.ndarray, np.ndarray, np.ndarray]:
    """Fit whichever vocab is missing, then encode the whole trace.

    ``is None`` checks on purpose: ``Vocab`` defines ``__len__``, so a
    truthiness test would silently refit and replace an
    unusually-shaped-but-valid vocab — and each vocab is fitted only
    when *it* is missing, not whenever the other one is.
    """
    if pc_vocab is None:
        pc_vocab = Vocab(pc_cap).fit(a.pc for a in trace)
    if page_vocab is None:
        page_vocab = Vocab(page_cap).fit(a.page for a in trace)
    pcs = np.array(pc_vocab.encode_all(a.pc for a in trace), dtype=np.int64)
    pages = np.array(
        page_vocab.encode_all(a.page for a in trace), dtype=np.int64
    )
    offsets = np.array([a.offset for a in trace], dtype=np.int64)
    return pc_vocab, page_vocab, pcs, pages, offsets


def build_sequence_dataset(
    trace: Sequence[MemoryAccess],
    seq_len: int = DEFAULT_SEQ_LEN,
    pc_vocab: Optional[Vocab] = None,
    page_vocab: Optional[Vocab] = None,
    label_config: Optional[LabelConfig] = None,
    pc_cap: int = 1024,
    page_cap: int = 1024,
) -> SequenceDataset:
    """Chop a trace into ``(num_segments, seq_len)`` supervised segments.

    Segment starts step by ``seq_len`` over the supervisable positions
    ``0 .. len(trace) - 2``; when the trace does not divide evenly, the
    last segment starts at ``len(trace) - 1 - seq_len`` so the tail is
    covered (overlapping its predecessor rather than dropping
    positions).  Invalid label slots are id-clamped to 0 and weight 0,
    so gathers through them are safe and contribute nothing.
    """
    if label_config is None:
        label_config = LabelConfig()
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    n_pos = len(trace) - 1
    if n_pos < seq_len:
        raise ValueError(
            f"trace too short: need at least {seq_len + 1} accesses, "
            f"got {len(trace)}"
        )
    t0 = perf_counter()
    pc_vocab, page_vocab, pcs, pages, offsets = _encode_trace(
        trace, pc_vocab, page_vocab, pc_cap, page_cap
    )
    encode_s = perf_counter() - t0

    starts = list(range(0, n_pos - seq_len + 1, seq_len))
    if starts[-1] + seq_len < n_pos:
        starts.append(n_pos - seq_len)
    positions = (
        np.asarray(starts, dtype=np.int64)[:, None]
        + np.arange(seq_len, dtype=np.int64)[None, :]
    )  # (S, T)
    S = positions.shape[0]

    t0 = perf_counter()
    arrays = label_arrays(trace, positions.reshape(-1), label_config)
    weights = label_weights(arrays.valid, label_config.primary_weight)
    lab_pages = pages[arrays.src]
    lab_offsets = arrays.offsets.copy()
    lab_pages[~arrays.valid] = 0
    lab_offsets[~arrays.valid] = 0
    L = arrays.src.shape[1]
    labels_s = perf_counter() - t0

    return SequenceDataset(
        pc_ids=pcs[positions],
        page_ids=pages[positions],
        offset_ids=offsets[positions],
        label_page_ids=lab_pages.reshape(S, seq_len, L),
        label_offsets=lab_offsets.reshape(S, seq_len, L),
        label_weights=weights.reshape(S, seq_len, L),
        positions=positions,
        pc_vocab=pc_vocab,
        page_vocab=page_vocab,
        phases={"encode": encode_s, "labels": labels_s},
    )


@dataclass
class TrainResult:
    losses: List[float]
    model: HierarchicalModel
    #: Wall-time breakdown (``encode``/``labels``/``forward``/
    #: ``backward``/``optimizer``) when ``train(profile=True)``.
    phases: Optional[Dict[str, float]] = None

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def batch_indices(
    n: int, batch_size: int, steps: int, rng: np.random.Generator
):
    """Yield ``steps`` minibatch index arrays via seeded epoch permutations.

    One ``rng.permutation(n)`` per epoch, consumed in contiguous
    ``batch_size`` slices; a fresh permutation starts whenever fewer
    than ``batch_size`` indices remain.  Compared to per-step
    ``rng.choice(n, size=bs, replace=False)`` this is O(n) per *epoch*
    rather than per step, and every example is visited once per epoch
    (without-replacement across the whole epoch, not just within one
    batch).  Deterministic for a given generator state.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    bs = min(batch_size, n)
    perm = rng.permutation(n)
    cursor = 0
    for _ in range(steps):
        if cursor + bs > n:
            perm = rng.permutation(n)
            cursor = 0
        yield perm[cursor : cursor + bs]
        cursor += bs


def train(
    model: HierarchicalModel,
    dataset: SequenceDataset,
    steps: int = 200,
    batch_size: int = 32,
    lr: float = 1e-2,
    seed: int = 0,
    log_every: int = 0,
    tbptt: Optional[int] = None,
    lr_schedule: str = "constant",
    profile: bool = False,
) -> TrainResult:
    """Teacher-forced truncated-BPTT minibatch training with Adam.

    ``steps`` counts optimizer updates and batches of segments come
    from :func:`batch_indices` — seeded epoch permutations — so two
    calls with identical arguments produce bit-identical parameter
    trajectories.  Each batch runs in TBPTT chunks of ``tbptt``
    timesteps (default: the whole segment), carries ``(h, c)`` across
    chunks of the same segments, and applies one Adam update per
    chunk.  The dataset's segment length must equal the model's
    ``ModelConfig.seq_len``, the reset period it will be served with.

    ``lr_schedule="cosine"`` anneals the learning rate from ``lr`` to 0
    over ``steps`` updates (half-cosine) — worth roughly a third fewer
    updates to reach a given loss, which is how the bench profiles hit
    their training-time budget.  The default ``"constant"`` keeps every
    update at ``lr``.

    ``profile=True`` attaches a wall-time phase breakdown to the
    result: ``encode``/``labels`` from the dataset build plus
    ``forward``/``backward``/``optimizer`` from the loop.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if dataset.seq_len != model.config.seq_len:
        raise ValueError(
            f"dataset seq_len {dataset.seq_len} differs from the model's "
            f"seq_len {model.config.seq_len}; build the dataset with the "
            "segment length the model will be served with"
        )
    if lr_schedule not in ("constant", "cosine"):
        raise ValueError(
            f"lr_schedule must be 'constant' or 'cosine', got {lr_schedule!r}"
        )
    T = dataset.seq_len
    chunk = T if tbptt is None else tbptt
    if chunk < 1:
        raise ValueError(f"tbptt must be >= 1, got {tbptt}")

    rng = np.random.default_rng(seed)
    opt = Adam(model.params, lr=lr)
    losses: List[float] = []
    model_phases = {"forward": 0.0, "backward": 0.0} if profile else None
    optimizer_s = 0.0

    bounds = [(s, min(s + chunk, T)) for s in range(0, T, chunk)]
    batches = batch_indices(len(dataset), batch_size, steps, rng)
    step = 0
    columns = (
        dataset.pc_ids,
        dataset.page_ids,
        dataset.offset_ids,
        dataset.label_page_ids,
        dataset.label_offsets,
        dataset.label_weights,
    )
    while step < steps:
        batch = next(batches)
        rows = [column[batch] for column in columns]
        h = c = None
        for lo, hi in bounds:
            loss, grads, (h, c) = model.loss_and_grads_sequence(
                *(r[:, lo:hi] for r in rows),
                h0=h,
                c0=c,
                phases=model_phases,
            )
            t0 = perf_counter()
            if lr_schedule == "cosine":
                opt.lr = lr * 0.5 * (1.0 + math.cos(math.pi * step / steps))
            opt.step(grads)
            optimizer_s += perf_counter() - t0
            losses.append(loss)
            step += 1
            if log_every and step % log_every == 0:
                print(f"step {step:5d}  loss {loss:.4f}")
            if step >= steps:
                break

    phases = None
    if profile:
        phases = dict(dataset.phases)
        phases.update(model_phases)
        phases["optimizer"] = optimizer_s
    return TrainResult(losses=losses, model=model, phases=phases)
