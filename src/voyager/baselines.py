"""Classical prefetcher baselines to sanity-check the neural model.

Both baselines speak two protocols:

- the legacy scoring protocol — ``predict(access)`` returns the single
  predicted next cache-block address (or ``None``), then
  ``update(access)`` feeds the observed access;
  :func:`evaluate_baseline` replays a trace through it and scores
  next-access block accuracy, comparable with the neural model's
  ``full_accuracy``;
- the simulation protocol of :mod:`voyager.sim` — ``update(access)``
  first, then ``prefetch(access, degree)`` returns up to ``degree``
  candidate block addresses to hand the issue queue.

Both also implement ``offline_candidates(trace, degree, distance)``:
their predictions are pure functions of the access stream, so the
whole candidate table :func:`voyager.sim.simulate` issues from can be
produced with vectorised NumPy ops instead of a per-access
``update``/``prefetch`` replay.  A row value of ``-1`` marks "no
prediction at this slot"; the simulator never issues a negative
candidate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from voyager.traces import MemoryAccess


def next_line_candidates(block: int, degree: int) -> List[int]:
    """The ``degree`` sequential blocks after ``block``.

    The next-line chain in one place: :class:`NextLinePrefetcher` is
    built on it, and the serving layer (:mod:`voyager.serve`) uses it as
    the degrade path when backpressure sheds a neural request.
    """
    return [block + k for k in range(1, degree + 1)]


class NextLinePrefetcher:
    """Always predicts the block(s) immediately after the current one."""

    name = "next_line"

    def predict(self, access: MemoryAccess) -> Optional[int]:
        return access.block + 1

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]:
        """The next ``degree`` sequential blocks."""
        return next_line_candidates(access.block, degree)

    def update(self, access: MemoryAccess) -> None:  # stateless
        return None

    def offline_candidates(
        self, trace: Sequence[MemoryAccess], degree: int, distance: int
    ) -> List[List[int]]:
        """Vectorised candidate table: row ``t`` is
        ``prefetch(trace[t], degree + distance)[distance:]``."""
        blocks = np.fromiter(
            (a.block for a in trace), dtype=np.int64, count=len(trace)
        )
        ks = np.arange(distance + 1, distance + degree + 1, dtype=np.int64)
        return (blocks[:, None] + ks[None, :]).tolist()


@dataclass
class _StrideEntry:
    last_block: int
    stride: int
    confirmed: bool


class StridePrefetcher:
    """Per-PC stride table with two-delta confirmation.

    A prediction is only issued once the same stride has been observed
    twice in a row for a PC (the classic confidence rule), which keeps
    the baseline honest on irregular traces.
    """

    name = "stride"

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self.table: Dict[int, _StrideEntry] = {}
        #: True once :meth:`offline_candidates` declined a trace (too
        #: many PCs) and the simulator fell back to replaying
        #: ``update``/``prefetch`` per access.  Bench cells surface it
        #: as ``stride_fallback`` so a silent perf cliff shows up in
        #: the report.
        self.fallback = False

    def predict(self, access: MemoryAccess) -> Optional[int]:
        entry = self.table.get(access.pc)
        if entry is None or not entry.confirmed:
            return None
        return access.block + entry.stride

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]:
        """Chain the confirmed stride ``degree`` steps ahead (else none)."""
        entry = self.table.get(access.pc)
        if entry is None or not entry.confirmed:
            return []
        return [access.block + entry.stride * k for k in range(1, degree + 1)]

    def update(self, access: MemoryAccess) -> None:
        entry = self.table.get(access.pc)
        if entry is None:
            if len(self.table) >= self.max_entries:
                self.table.pop(next(iter(self.table)))
            self.table[access.pc] = _StrideEntry(
                last_block=access.block, stride=0, confirmed=False
            )
            return
        stride = access.block - entry.last_block
        entry.confirmed = stride == entry.stride and stride != 0
        entry.stride = stride
        entry.last_block = access.block

    def offline_candidates(
        self, trace: Sequence[MemoryAccess], degree: int, distance: int
    ) -> Optional[List[List[int]]]:
        """Vectorised candidate table of a fresh prefetcher.

        Replicates the update-then-prefetch protocol: row ``t`` is what
        ``prefetch`` would return *after* ``update(trace[t])``, sliced
        to the issue window — a PC's prediction is confirmed from its
        third occurrence on when the last two deltas are equal and
        nonzero.  Unconfirmed rows are filled with ``-1`` (never
        issued), matching the protocol's empty candidate list.

        Returns ``None`` when the trace touches more PCs than the table
        holds: then evictions can reset per-PC state and the
        eviction-free vectorised recurrence would diverge, so the
        simulator replays ``update``/``prefetch`` per access instead.
        That fallback is loud: it warns once per prefetcher instance
        and latches :attr:`fallback` so bench reports can record it.
        """
        n = len(trace)
        pcs = np.fromiter((a.pc for a in trace), dtype=np.int64, count=n)
        blocks = np.fromiter((a.block for a in trace), dtype=np.int64, count=n)
        distinct_pcs = int(np.unique(pcs).size)
        if distinct_pcs > self.max_entries:
            if not self.fallback:
                warnings.warn(
                    f"stride offline candidates: trace touches "
                    f"{distinct_pcs} distinct PCs, more than the "
                    f"{self.max_entries}-entry table; falling back to the "
                    f"(slower) per-access update/prefetch replay",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.fallback = True
            return None

        # Group positions by PC (stable, so each group stays in trace
        # order), then express the table recurrence as diffs within
        # each group: delta[k] compares sorted neighbours k-1 and k.
        order = np.argsort(pcs, kind="stable")
        sp = pcs[order]
        sb = blocks[order]
        d = np.diff(sb)  # delta to previous sorted position
        same = sp[1:] == sp[:-1]  # previous sorted position is same PC

        stride_sorted = np.zeros(n, dtype=np.int64)
        stride_sorted[1:][same] = d[same]
        conf_sorted = np.zeros(n, dtype=bool)
        if n >= 3:
            conf_sorted[2:] = (
                same[1:] & same[:-1] & (d[1:] == d[:-1]) & (d[1:] != 0)
            )

        stride = np.empty(n, dtype=np.int64)
        stride[order] = stride_sorted
        confirmed = np.empty(n, dtype=bool)
        confirmed[order] = conf_sorted

        ks = np.arange(distance + 1, distance + degree + 1, dtype=np.int64)
        cands = blocks[:, None] + stride[:, None] * ks[None, :]
        cands[~confirmed] = -1
        return cands.tolist()


@dataclass(frozen=True)
class BaselineResult:
    accuracy: float  # correct predictions / all opportunities
    precision: float  # correct predictions / issued predictions
    issued: int
    n: int


def evaluate_baseline(
    prefetcher, trace: Sequence[MemoryAccess], skip: int = 0
) -> BaselineResult:
    """Replay ``trace`` and score next-access block predictions.

    ``skip`` positions at the head are replayed for warm-up but not
    scored.
    """
    correct = 0
    issued = 0
    scored = 0
    for i in range(len(trace) - 1):
        pred = prefetcher.predict(trace[i])
        prefetcher.update(trace[i])
        if i < skip:
            continue
        scored += 1
        if pred is not None:
            issued += 1
            if pred == trace[i + 1].block:
                correct += 1
    return BaselineResult(
        accuracy=correct / scored if scored else 0.0,
        precision=correct / issued if issued else 0.0,
        issued=issued,
        n=scored,
    )
