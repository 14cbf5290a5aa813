"""Multi-label target construction (spatial + co-occurrence labels).

A single "correct next address" is an unnecessarily harsh target for a
prefetcher: fetching a spatial neighbor of the true next access, or any
line touched shortly after, still produces a useful prefetch.  Following
the paper's multi-label scheme, every training position gets a *set* of
acceptable ``(page, offset)`` labels:

- the true next access (always present, listed first);
- **spatial labels**: same-page neighbors of the next access within
  ``spatial_radius`` blocks;
- **co-occurrence labels**: the accesses in the next ``window`` trace
  positions after the immediate next one.

Training builds every position's label set at once with
:func:`label_arrays` (NumPy shifts and masks instead of a per-position
Python loop) and weighs the labels with :func:`label_weights`: the true
next access gets ``primary_weight`` of the target mass and the other
labels share the rest.  :func:`make_labels` builds one position's set
the plain way; it is the readable specification ``label_arrays`` is
tested against, label for label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from voyager.traces import NUM_OFFSETS, MemoryAccess


@dataclass(frozen=True)
class LabelConfig:
    """Knobs of the multi-label scheme."""

    window: int = 4  # co-occurrence look-ahead (accesses after the next)
    spatial_radius: int = 1  # +/- blocks around the next access, same page
    primary_weight: float = 0.5  # target mass on the true next access


def make_labels(
    trace: Sequence[MemoryAccess],
    index: int,
    config: Optional[LabelConfig] = None,
) -> List[Tuple[int, int]]:
    """Label set for predicting the access after ``trace[index]``.

    Returns ``(page, offset)`` pairs; the true next access is always
    first.  ``config=None`` means ``LabelConfig()`` (fresh per call, not
    a shared default instance).  Raises ``IndexError`` when there is no
    next access.
    """
    if config is None:
        config = LabelConfig()
    if index + 1 >= len(trace):
        raise IndexError(
            f"index {index} has no successor in trace of length {len(trace)}"
        )
    nxt = trace[index + 1]
    labels: List[Tuple[int, int]] = [(nxt.page, nxt.offset)]
    seen = {labels[0]}

    for delta in range(-config.spatial_radius, config.spatial_radius + 1):
        if delta == 0:
            continue
        off = nxt.offset + delta
        if 0 <= off < NUM_OFFSETS:
            lab = (nxt.page, off)
            if lab not in seen:
                seen.add(lab)
                labels.append(lab)

    stop = min(index + 2 + config.window, len(trace))
    for j in range(index + 2, stop):
        lab = (trace[j].page, trace[j].offset)
        if lab not in seen:
            seen.add(lab)
            labels.append(lab)
    return labels


@dataclass(frozen=True)
class LabelArrays:
    """Label sets for many positions as parallel ``(N, L)`` arrays.

    ``L = 1 + 2 * spatial_radius + window`` columns per position, in the
    exact order :func:`make_labels` emits labels: the primary next
    access, the spatial neighbors (delta ``-r..-1, 1..r``), then the
    co-occurrence look-ahead (``+2..+1+window``).  Invalid slots —
    spatial offsets outside ``[0, NUM_OFFSETS)``, look-ahead past the
    trace end, co-occurrence duplicates of an earlier label — are
    masked out by ``valid``; reading a row's valid entries left to
    right recovers ``make_labels`` output exactly.
    """

    src: np.ndarray  # (N, L) trace index supplying each label's page
    offsets: np.ndarray  # (N, L) block offset of each label
    valid: np.ndarray  # (N, L) bool


def label_arrays(
    trace: Sequence[MemoryAccess],
    positions: np.ndarray,
    config: Optional[LabelConfig] = None,
) -> LabelArrays:
    """Vectorized :func:`make_labels` for every position at once.

    Pages are referenced *by trace index* (``src``) rather than by raw
    page number so callers can gather vocab ids from a single
    pre-encoded per-position array; deduplication compares raw
    ``(page, offset)`` pairs exactly like the scalar path (distinct
    out-of-vocabulary pages stay distinct here and only collapse when
    the caller encodes them).
    """
    if config is None:
        config = LabelConfig()
    n = len(trace)
    positions = np.asarray(positions, dtype=np.int64)
    N = positions.shape[0]
    if N and (positions.min() < 0 or positions.max() + 1 >= n):
        raise IndexError(
            f"positions must lie in [0, {n - 2}] so every position has "
            f"a successor"
        )
    pages = np.fromiter((a.page for a in trace), dtype=np.int64, count=n)
    offs = np.fromiter((a.offset for a in trace), dtype=np.int64, count=n)

    r, w = config.spatial_radius, config.window
    L = 1 + 2 * r + w
    src = np.zeros((N, L), dtype=np.int64)
    off = np.zeros((N, L), dtype=np.int64)
    valid = np.zeros((N, L), dtype=bool)

    nxt = positions + 1
    src[:, 0] = nxt
    off[:, 0] = offs[nxt]
    valid[:, 0] = True

    col = 1
    for delta in range(-r, r + 1):
        if delta == 0:
            continue
        o = offs[nxt] + delta
        src[:, col] = nxt
        off[:, col] = o
        valid[:, col] = (o >= 0) & (o < NUM_OFFSETS)
        col += 1

    # Raw (page, offset) keys for duplicate detection.  Spatial offsets
    # can stray into [-r, NUM_OFFSETS + r), so shift by +r and stride by
    # NUM_OFFSETS + 2r to keep keys collision-free and non-negative.
    stride = NUM_OFFSETS + 2 * r

    def _key(c: int) -> np.ndarray:
        return pages[src[:, c]] * stride + (off[:, c] + r)

    for k in range(2, 2 + w):
        j = positions + k
        in_trace = j < n
        jc = np.minimum(j, n - 1)
        src[:, col] = jc
        off[:, col] = offs[jc]
        key_c = _key(col)
        dup = np.zeros(N, dtype=bool)
        for e in range(col):
            dup |= valid[:, e] & (_key(e) == key_c)
        valid[:, col] = in_trace & ~dup
        col += 1
    return LabelArrays(src=src, offsets=off, valid=valid)


def label_weights(
    valid: np.ndarray, primary_weight: float = 0.5
) -> np.ndarray:
    """Per-label target mass for an ``(N, L)`` validity mask.

    Column 0 (the primary label) gets ``primary_weight`` — or all the
    mass when it is the only valid label — and the remaining valid
    labels split the rest evenly, so every row sums to one.
    """
    if not 0.0 < primary_weight <= 1.0:
        raise ValueError(
            f"primary_weight must be in (0, 1], got {primary_weight}"
        )
    counts = valid.sum(axis=1)
    multi = counts > 1
    rest = np.zeros(valid.shape[0])
    rest[multi] = (1.0 - primary_weight) / (counts[multi] - 1)
    weights = np.where(valid, rest[:, None], 0.0)
    weights[:, 0] = np.where(multi, primary_weight, 1.0)
    return weights
