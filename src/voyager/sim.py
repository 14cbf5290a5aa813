"""Trace-driven prefetch simulation: cache model, issue queue, metrics.

The paper evaluates Voyager not on argmax accuracy but on what a
prefetcher *does* to a cache.  This module provides the machinery:

- :class:`SetAssociativeCache` — a deterministic set-associative LRU
  cache over cache-block addresses;
- the ``Prefetcher`` protocol — ``update(access)`` observes a demand
  access, then ``prefetch(access, degree)`` returns up to ``degree``
  candidate block addresses (both baselines in
  :mod:`voyager.baselines`, :class:`NeuralPrefetcher` and the
  distilled :class:`~voyager.distill.TablePrefetcher` implement it);
- :func:`simulate` — replays a trace through a demand cache with a
  bounded in-flight prefetch queue and a fixed fill latency, and
  reports coverage / accuracy / timeliness plus miss rates with and
  without prefetching.

Everything is deterministic: same trace + prefetcher + config means
bit-identical counters, so golden regression tests pin exact integers.

Accounting rules (documented here because they define the metrics):

- A prefetch issued at time ``t`` arrives at ``t + latency`` (time is
  measured in demand accesses).  Until then it is *in flight*.
- A demand hit on a prefetched, not-yet-demanded line counts that
  prefetch as **timely useful** (once — later re-hits are ordinary
  cache hits).
- A demand miss on a block that is still in flight counts the prefetch
  as **late useful**: the line was correctly predicted but arrived too
  late to hide the miss, so the access still counts as a miss.
- ``accuracy = (timely + late) / issued``;
  ``coverage = (baseline_misses - misses) / baseline_misses`` where the
  baseline is the identical cache replayed with no prefetcher;
  ``timeliness = timely / (timely + late)``.
- Candidates already resident or already in flight are filtered before
  issue and never count as issued.  When the in-flight queue is full,
  further candidates are dropped (counted in ``dropped_prefetches``).

The protocol gives a prefetcher no cache state, so its candidates
depend only on the access stream.  :func:`simulate` therefore builds
the whole candidate table first — the blocks to issue at each trace
position — and then replays the trace's block ids through one
cache/issue-queue loop.  The table comes from the prefetcher's
``offline_candidates(trace, degree, distance)`` hook (vectorised for
the baselines, one batched rollout for the neural model, dict probes
for a distilled table) or, without one, from
:func:`protocol_candidates`, which replays ``update``/``prefetch`` per
access and is the reference the tests pin every hook against.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from voyager.infer import InferenceEngine, LSTMState
from voyager.model import HierarchicalModel
from voyager.traces import NUM_OFFSETS, OFFSET_BITS, MemoryAccess
from voyager.vocab import Vocab


class Prefetcher(Protocol):
    """What :func:`simulate` needs from a prefetcher.

    The simulator calls ``update`` with each demand access *before*
    asking ``prefetch`` for candidates, so implementations may use the
    current access when predicting.  A prefetcher may also offer
    ``offline_candidates(trace, degree, distance)``: the
    :func:`protocol_candidates` table of a fresh instance computed in
    one pass (negative entries are never issued), or ``None`` to
    decline.
    """

    name: str

    def update(self, access: MemoryAccess) -> None: ...

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]: ...


# ----------------------------------------------------------------------
# cache model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the simulated cache (capacity = num_sets * ways blocks)."""

    num_sets: int = 64
    ways: int = 4

    def __post_init__(self) -> None:
        if self.num_sets < 1 or self.ways < 1:
            raise ValueError(
                f"num_sets and ways must be >= 1, got {self.num_sets}x{self.ways}"
            )

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.ways


#: Line flags of :class:`SetAssociativeCache`: a prefetch fill sets
#: ``PREFETCHED``, a demand fill ``DEMANDED``, and a demand hit on a
#: prefetched line adds ``DEMANDED``.  A line whose flags equal
#: ``PREFETCHED`` holds a prefetch no demand has used yet.
PREFETCHED = 1
DEMANDED = 2


class SetAssociativeCache:
    """Set-associative cache with true-LRU replacement over block addresses.

    Each set is an :class:`~collections.OrderedDict` from block address
    to the line's int flags (:data:`PREFETCHED`, :data:`DEMANDED`);
    iteration order is LRU -> MRU.  Block ``b`` lives in set
    ``b % num_sets``.
    """

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        self._num_sets = self.config.num_sets
        self._ways = self.config.ways
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    def contains(self, block: int) -> bool:
        """Residency probe without touching LRU state."""
        return block in self._sets[block % self._num_sets]

    def lookup(self, block: int) -> Optional[int]:
        """Demand lookup: the line's flags before this access, or ``None``.

        A hit promotes the line to MRU and marks it demanded, so a
        prefetched line reads :data:`PREFETCHED` only on its first
        demand hit.
        """
        lines = self._sets[block % self._num_sets]
        flags = lines.get(block)
        if flags is not None:
            lines.move_to_end(block)
            if flags == PREFETCHED:
                lines[block] = PREFETCHED | DEMANDED
        return flags

    def fill(
        self, block: int, prefetched: bool = False
    ) -> Optional[Tuple[int, int]]:
        """Insert ``block`` as MRU, evicting LRU if the set is full.

        Returns the evicted ``(block, flags)``, or ``None``.  Filling a
        resident block just promotes it.
        """
        lines = self._sets[block % self._num_sets]
        if block in lines:
            lines.move_to_end(block)
            return None
        evicted = None
        if len(lines) >= self._ways:
            evicted = lines.popitem(last=False)
        lines[block] = PREFETCHED if prefetched else DEMANDED
        return evicted


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimConfig:
    """Issue-policy and cache knobs for :func:`simulate`.

    Prefetchers return candidates ordered by predicted arrival (the
    baselines' sequential chains; the neural rollout): candidate ``k``
    approximates the access at ``t + k + 1``.  ``distance`` skips the
    first ``distance`` candidates so issues target accesses far enough
    out to beat ``latency`` — the classic prefetch-distance knob.  With
    ``distance=0`` a degree-1 next-line prefetch on a stride-1 stream is
    always correct but always late; ``distance >= latency`` makes it
    timely.
    """

    cache: CacheConfig = field(default_factory=CacheConfig)
    degree: int = 2  # max prefetches issued per demand access
    distance: int = 0  # lookahead: skip this many leading candidates
    latency: int = 8  # demand accesses until a prefetch fill arrives
    queue_capacity: int = 32  # max prefetches in flight

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.distance < 0:
            raise ValueError(f"distance must be >= 0, got {self.distance}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )


@dataclass(frozen=True)
class SimResult:
    """Raw counters plus derived prefetching metrics for one run."""

    prefetcher: str
    accesses: int
    misses: int  # demand misses with prefetching enabled
    baseline_misses: int  # demand misses of the same cache, no prefetcher
    issued_prefetches: int
    timely_prefetches: int  # prefetched line arrived before its demand hit
    late_prefetches: int  # correct but still in flight at demand time
    dropped_prefetches: int  # queue full at issue time
    evicted_unused_prefetches: int  # cache pollution
    #: per-phase wall-clock seconds (``simulate(..., profile=True)`` only):
    #: ``encode_s`` (trace -> block ids), ``candidates_s`` (building the
    #: candidate table), ``cache_loop_s`` (replay loop).
    phases: Optional[Dict[str, float]] = None

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def baseline_miss_rate(self) -> float:
        return self.baseline_misses / self.accesses if self.accesses else 0.0

    @property
    def useful_prefetches(self) -> int:
        return self.timely_prefetches + self.late_prefetches

    @property
    def accuracy(self) -> float:
        """Useful (timely or late) prefetches per issued prefetch."""
        if not self.issued_prefetches:
            return 0.0
        return self.useful_prefetches / self.issued_prefetches

    @property
    def coverage(self) -> float:
        """Fraction of no-prefetch misses eliminated by prefetching."""
        if not self.baseline_misses:
            return 0.0
        return (self.baseline_misses - self.misses) / self.baseline_misses

    @property
    def timeliness(self) -> float:
        """Fraction of useful prefetches that arrived in time."""
        if not self.useful_prefetches:
            return 0.0
        return self.timely_prefetches / self.useful_prefetches

    def as_dict(self) -> Dict[str, float]:
        out = {
            "prefetcher": self.prefetcher,
            "accesses": self.accesses,
            "misses": self.misses,
            "baseline_misses": self.baseline_misses,
            "issued_prefetches": self.issued_prefetches,
            "timely_prefetches": self.timely_prefetches,
            "late_prefetches": self.late_prefetches,
            "dropped_prefetches": self.dropped_prefetches,
            "evicted_unused_prefetches": self.evicted_unused_prefetches,
            "miss_rate": self.miss_rate,
            "baseline_miss_rate": self.baseline_miss_rate,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "timeliness": self.timeliness,
        }
        if self.phases is not None:
            out["phases"] = dict(self.phases)
        return out


def protocol_candidates(
    prefetcher: Prefetcher,
    trace: Sequence[MemoryAccess],
    degree: int,
    distance: int,
) -> List[List[int]]:
    """The candidate table by the :class:`Prefetcher` protocol.

    Row ``t`` is ``prefetch(trace[t], degree + distance)[distance:]``
    after ``update(trace[t])``: the blocks to issue at position ``t``.
    This is the reference every ``offline_candidates`` hook is tested
    against, and what :func:`simulate` uses for a prefetcher without a
    hook or whose hook declines.  It advances ``prefetcher``'s state.
    """
    want = degree + distance
    rows = []
    for access in trace:
        prefetcher.update(access)
        rows.append(prefetcher.prefetch(access, want)[distance:want])
    return rows


def simulate(
    trace: Sequence[MemoryAccess],
    prefetcher: Optional[Prefetcher],
    config: Optional[SimConfig] = None,
    *,
    profile: bool = False,
) -> SimResult:
    """Replay ``trace`` through the cache with ``prefetcher`` driving fills.

    ``prefetcher=None`` (or ``degree=0``) simulates the demand-only
    cache, in which case ``misses == baseline_misses`` exactly — the
    degree-0 invariant the tests pin.  The no-prefetch baseline cache
    is replayed in the same pass, so one call yields both miss rates.

    The candidate table comes first: the prefetcher's
    ``offline_candidates(trace, degree, distance)`` hook where it has
    one and the hook does not decline (return ``None``), else
    :func:`protocol_candidates`.  Then one loop replays the trace's
    block ids, issuing row ``t`` after demand access ``t``.
    ``profile=True`` attaches per-phase wall-clock timings to
    :attr:`SimResult.phases`.
    """
    config = config or SimConfig()
    phases: Optional[Dict[str, float]] = {} if profile else None

    t0 = time.perf_counter()
    blocks = [access.block for access in trace]
    if phases is not None:
        phases["encode_s"] = time.perf_counter() - t0

    rows: Optional[List[List[int]]] = None
    if prefetcher is not None and config.degree > 0:
        t0 = time.perf_counter()
        hook = getattr(prefetcher, "offline_candidates", None)
        if hook is not None:
            rows = hook(trace, config.degree, config.distance)
        if rows is None:
            rows = protocol_candidates(
                prefetcher, trace, config.degree, config.distance
            )
        if phases is not None:
            phases["candidates_s"] = time.perf_counter() - t0

    cache = SetAssociativeCache(config.cache)
    baseline_cache = SetAssociativeCache(config.cache)
    # Bound once: the loop below runs these per access.
    lookup, fill, contains = cache.lookup, cache.fill, cache.contains
    baseline_lookup, baseline_fill = baseline_cache.lookup, baseline_cache.fill
    in_flight: Set[int] = set()
    arrivals: deque = deque()  # (arrival_time, block) in issue order
    latency = config.latency
    capacity = config.queue_capacity

    misses = 0
    baseline_misses = 0
    issued = 0
    timely = 0
    late = 0
    dropped = 0
    evicted_unused = 0

    t0 = time.perf_counter()
    for t, block in enumerate(blocks):
        # 1. land prefetches whose latency has elapsed.
        while arrivals and arrivals[0][0] <= t:
            arrived = arrivals.popleft()[1]
            if arrived not in in_flight:
                continue  # consumed early by a late demand miss
            in_flight.remove(arrived)
            evicted = fill(arrived, True)
            if evicted is not None and evicted[1] == PREFETCHED:
                evicted_unused += 1

        # 2. demand access against both caches.
        if baseline_lookup(block) is None:
            baseline_misses += 1
            baseline_fill(block)

        flags = lookup(block)
        if flags is not None:
            if flags == PREFETCHED:
                timely += 1
        else:
            misses += 1
            if block in in_flight:
                # Correct prediction, but the fill is still in flight:
                # the demand turns it into an ordinary (late) miss fill.
                late += 1
                in_flight.remove(block)
            evicted = fill(block)
            if evicted is not None and evicted[1] == PREFETCHED:
                evicted_unused += 1

        # 3. issue this position's row of the candidate table.
        if rows is not None:
            for cand in rows[t]:
                if cand < 0 or cand in in_flight or contains(cand):
                    continue
                if len(in_flight) >= capacity:
                    dropped += 1
                    continue
                in_flight.add(cand)
                arrivals.append((t + latency, cand))
                issued += 1
    if phases is not None:
        phases["cache_loop_s"] = time.perf_counter() - t0

    # Prefetches still unused (in cache) or in flight at trace end stay
    # unscored: they count in `issued`, lowering accuracy, which matches
    # hardware accounting for a finite evaluation window.
    return SimResult(
        prefetcher=prefetcher.name if prefetcher is not None else "none",
        accesses=len(blocks),
        misses=misses,
        baseline_misses=baseline_misses,
        issued_prefetches=issued,
        timely_prefetches=timely,
        late_prefetches=late,
        dropped_prefetches=dropped,
        evicted_unused_prefetches=evicted_unused,
        phases=phases,
    )


# ----------------------------------------------------------------------
# shared candidate decode helpers
# ----------------------------------------------------------------------
def page_id_table(page_vocab: Vocab) -> np.ndarray:
    """Vectorised page-id -> raw-page decode table.

    Index 0 is the OOV placeholder (rollouts never mark an OOV
    prediction valid, so the 0 there is never decoded).  Shared by
    :class:`NeuralPrefetcher` and the online serving layer
    (:mod:`voyager.serve`) so both decode predictions identically.
    """
    return np.array(
        [0] + [page_vocab.decode(i) for i in range(1, page_vocab.size)],
        dtype=np.int64,
    )


def decode_block_candidates(
    page_table: np.ndarray,  # from :func:`page_id_table`
    pages: np.ndarray,  # (R, S) page vocab ids
    offsets: np.ndarray,  # (R, S)
    valid: np.ndarray,  # (R, S) bool, each row a monotone prefix
) -> List[List[int]]:
    """Decode ``R`` rollout rows into block-address lists, one call.

    ``valid`` is a monotone prefix per row (False from the first OOV
    step on), so its row sum is the row's candidate count.  The
    simulator's streaming and offline paths and the server's tick all
    decode through this one rule.
    """
    blocks = ((page_table[pages] << OFFSET_BITS) | offsets).tolist()
    return [row[:n] for row, n in zip(blocks, valid.sum(axis=1).tolist())]


# ----------------------------------------------------------------------
# neural prefetcher adapter
# ----------------------------------------------------------------------
#: Trace positions per rollout in :meth:`NeuralPrefetcher.offline_candidates`.
#: A rollout over all of a trace's rows streams ``(rows, 4 * hidden)``
#: and ``(rows, page_vocab)`` temporaries through memory at every
#: step; blocks of this many rows keep them in L2.  Measured on 6,000-
#: access traces at hidden 32: 512 and 1,024 rows ran within 5% of each
#: other and ~20% under one whole-trace rollout, 256 rows ~10% over
#: 512.  Any size gives the same rows.
ROLLOUT_BLOCK_ROWS = 512


class NeuralPrefetcher:
    """Adapts a trained :class:`HierarchicalModel` to the sim protocol.

    Drives a cache-free :class:`~voyager.infer.InferenceEngine` instead
    of the training forward and serves the model the way it trained:
    the LSTM state is carried across accesses and reset to zero every
    ``model.config.seq_len`` accesses, counted from the first access —
    the segmentation ``build_sequence_dataset`` trains on.  ``update``
    is one cell step; ``prefetch`` continues the carried state with the
    engine's rollout (one cell step per lookahead step).

    The candidate list is temporally ordered — candidate ``k`` is the
    model's guess for the access ``k + 1`` steps ahead — matching the
    baselines' sequential chains, so :class:`SimConfig` ``distance``
    means the same thing for all prefetchers.  Rollouts stop early if a
    step predicts the OOV page: the model cannot name a concrete page
    beyond that horizon.

    ``update``/``prefetch`` per access is the online deployment shape,
    and what :class:`voyager.serve.PrefetchServer` reproduces bit for
    bit per stream; :meth:`offline_candidates` computes the same
    candidates for a whole trace in batched passes.  The engine is
    the float32 snapshot every layer predicts with, taken when the
    prefetcher is built, and its batched rows are bit-identical to
    single-row calls, so the streaming, offline and served states are
    the same by construction.
    """

    name = "neural"

    def __init__(
        self, model: HierarchicalModel, pc_vocab: Vocab, page_vocab: Vocab
    ):
        self.model = model
        self.pc_vocab = pc_vocab
        self.page_vocab = page_vocab
        self.seq_len = model.config.seq_len
        self.engine = InferenceEngine(model)
        self._page_table = page_id_table(page_vocab)
        # streaming state: carried (h, c), the last access's pc id and
        # its position (the seq_len reset counter)
        self._state = None
        self._last_pc_id = 0
        self._pos = -1

    def update(self, access: MemoryAccess) -> None:
        self._pos += 1
        pc_id = self.pc_vocab.encode(access.pc)
        feat = self.engine.feature_step(
            np.array([pc_id], dtype=np.int64),
            np.array([self.page_vocab.encode(access.page)], dtype=np.int64),
            np.array([access.offset], dtype=np.int64),
        )
        if self._pos % self.seq_len == 0:
            self._state = self.engine.init_state(1)
        self._state = self.engine.step_from_features(self._state, feat)
        self._last_pc_id = pc_id

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]:
        if degree < 1 or self._state is None:
            return []
        pages, offsets, valid = self.engine.rollout(
            self._state, np.array([self._last_pc_id], dtype=np.int64), degree
        )
        return decode_block_candidates(self._page_table, pages, offsets, valid)[0]

    def offline_candidates(
        self, trace: Sequence[MemoryAccess], degree: int, distance: int
    ) -> List[List[int]]:
        """The candidate table of a fresh prefetcher over ``trace``.

        Row ``t`` is ``prefetch(trace[t], degree + distance)[distance:]``
        after ``update(trace[t])``, computed in batched passes: one
        :meth:`~voyager.infer.InferenceEngine.segment_states` scan for
        the carried states, then one rollout per block of
        :data:`ROLLOUT_BLOCK_ROWS` positions.  Rows never depend on
        their batch, so this is the streaming mode's arithmetic per
        position, and the blocks keep the rollout's temporaries
        cache-sized whatever the trace length.  The streaming state is
        left alone.
        """
        n = len(trace)
        want = degree + distance
        if want < 1 or n == 0:
            return [[] for _ in range(n)]
        pc_all = np.array(
            self.pc_vocab.encode_all(a.pc for a in trace), dtype=np.int64
        )
        page_all = np.array(
            self.page_vocab.encode_all(a.page for a in trace), dtype=np.int64
        )
        off_all = np.array([a.offset for a in trace], dtype=np.int64)
        x = self.engine.feature_step(pc_all, page_all, off_all)
        states = self.engine.segment_states(x, self.seq_len)
        rows: List[List[int]] = []
        for start in range(0, n, ROLLOUT_BLOCK_ROWS):
            block = slice(start, start + ROLLOUT_BLOCK_ROWS)
            pages, offsets, valid = self.engine.rollout(
                LSTMState(h=states.h[block], c=states.c[block]),
                pc_all[block],
                want,
            )
            # The first ``distance`` steps are skipped; a monotone
            # prefix stays one once its leading columns are cut.
            rows += decode_block_candidates(
                self._page_table,
                pages[:, distance:],
                offsets[:, distance:],
                valid[:, distance:],
            )
        return rows


def make_prefetcher(
    kind: str,
    model: Optional[HierarchicalModel] = None,
    pc_vocab: Optional[Vocab] = None,
    page_vocab: Optional[Vocab] = None,
    table=None,
) -> Prefetcher:
    """Factory over the four prefetcher kinds used by bench and the CLI.

    ``kind='table'`` wraps a :class:`~voyager.distill.DistilledTable`
    (pass it as ``table``) — the distilled lookup-table predictor that
    replaces model arithmetic with context probes.
    """
    from voyager.baselines import NextLinePrefetcher, StridePrefetcher

    if kind == "next_line":
        return NextLinePrefetcher()
    if kind == "stride":
        return StridePrefetcher()
    if kind == "neural":
        if model is None or pc_vocab is None or page_vocab is None:
            raise ValueError(
                "kind='neural' requires model, pc_vocab and page_vocab"
            )
        return NeuralPrefetcher(model, pc_vocab, page_vocab)
    if kind == "table":
        from voyager.distill import DistilledTable, TablePrefetcher

        if not isinstance(table, DistilledTable):
            raise ValueError(
                "kind='table' requires table=DistilledTable (build one "
                "with voyager.distill.build_table or the distill CLI)"
            )
        return TablePrefetcher(table)
    raise ValueError(
        f"unknown prefetcher kind {kind!r}; "
        "expected 'next_line', 'stride', 'neural' or 'table'"
    )


#: Offset count re-exported for sim users that reason about block maths.
__all__ = [
    "CacheConfig",
    "DEMANDED",
    "NeuralPrefetcher",
    "PREFETCHED",
    "Prefetcher",
    "SetAssociativeCache",
    "SimConfig",
    "SimResult",
    "decode_block_candidates",
    "make_prefetcher",
    "page_id_table",
    "protocol_candidates",
    "simulate",
    "NUM_OFFSETS",
]
