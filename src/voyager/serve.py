"""Online prefetch serving: multi-stream sessions, cross-stream batching.

Everything below :mod:`voyager.sim` replays one whole trace at a time;
a deployed prefetcher instead sees *many concurrent access streams*
(cores, threads, tenants) and must produce predictions per access
under a latency budget — the practicality framing of Hashemi et al.
(2018).  This module is that missing layer:

- :class:`StreamSession` — per-stream serving state: the carried
  :class:`~voyager.infer.LSTMState`, reset to zero every
  ``ModelConfig.seq_len`` accesses (the segment length the weights
  trained on, counted from the stream's first access), plus the access
  count that drives the reset.
- :class:`PrefetchServer` — the façade: ``open_stream`` / ``access`` /
  ``close_stream``, a bounded session table with LRU eviction, and a
  queue-depth cap with an explicit shed policy (degrade to next-line
  candidates, or drop) so overload degrades instead of queueing
  unboundedly.
- the micro-batching scheduler inside :meth:`PrefetchServer.tick`: all
  pending requests across streams are coalesced into **one** batched
  feature embed, one batched LSTM cell evaluation per wave (wave ``k``
  = the ``k``-th pending access of each stream, so per-stream
  recurrence order is preserved), one batched
  :meth:`~voyager.infer.InferenceEngine.rollout` that continues each
  prediction-eligible request from the state its own access produced,
  and one decode of every rollout row.  A prediction of ``degree``
  candidates costs ``degree`` cell evaluations in all, the access's
  own step included.  Per stream the arithmetic is bit-identical to
  the simulator's streaming :class:`~voyager.sim.NeuralPrefetcher`
  and to its whole-trace candidate table: every layer predicts with
  the same float32 :class:`~voyager.infer.InferenceEngine`, whose
  matmuls issue each row's width-1 product in one stacked call (BLAS
  changes summation order with batch height, so a plain batched
  product would not), and every other op in the pipeline is
  row-independent.
  Sessions keep row views of each tick's stepped state, never copies;
  that is safe because the engine never writes a state in place.
  ``tests/test_serve.py`` and ``tests/test_crosslayer.py`` pin the
  equivalence — states, top-k and candidates — with hypothesis
  property tests.
- :class:`ServerStats` — request/shed/batch-size-histogram counters and
  p50/p95/p99 response latency measured through an injected clock, so
  tests pin exact percentile values and production callers get
  wall-clock.  Latency samples live in a seeded, deterministic
  Algorithm-R reservoir (:class:`LatencyReservoir`), so percentiles of
  arbitrarily long runs stay unbiased instead of silently dropping the
  oldest tail.
- **QoS classes**: every request carries one of :data:`QOS_CLASSES`
  (``latency`` > ``throughput`` > ``besteffort``), defaulting to its
  stream's class.  The class feeds the ``max_pending`` backpressure
  twice: under overload an arriving higher-class request *preempts* the
  oldest queued lower-class one onto the shed/degrade path instead of
  being shed itself, and the tick scheduler admits queued requests into
  the batch in priority order (per-stream FIFO order is always
  preserved, so the recurrence stays exact).
- **evicted-session checkpoint/restore**: with ``ServeConfig.spill_dir``
  set, LRU-evicted sessions serialize their :class:`LSTMState`, access
  count and QoS class to an atomic ``.npz`` spill file
  (:class:`SpillStore`) and are restored transparently on the next
  ``submit`` — total stream count can vastly exceed resident capacity,
  and a restored session is bit-identical to one that was never
  evicted.  In spill mode eviction skips sessions with in-flight
  requests (deferring to end-of-tick), so checkpointing never orphans
  a pending request.
- :func:`drive_open_loop` — the one driver every caller serves through
  (``serve``, ``serve-bench``, the shard pool and the adaptation
  bench): requests are submitted at pre-scheduled arrival times and
  one ``hook(server, j)`` runs at chosen request indices with nothing
  in flight, which is where log rotation, fine-tune polls and
  hot-swaps happen.

Every response is a neural rollout from the stream's carried state, or
the shed/orphan degrade.  The server is deterministic given a
deterministic submit/tick schedule: same streams + same accesses means
bit-identical candidates, which is what lets :mod:`voyager.loadgen`
assert reproducible throughput runs.
"""

from __future__ import annotations

import hashlib
import random
import time
import zipfile
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from voyager.baselines import next_line_candidates
from voyager.infer import InferenceEngine, LSTMState
from voyager.ioutil import atomic_savez
from voyager.model import HierarchicalModel, vocab_fingerprint
from voyager.sim import decode_block_candidates, page_id_table
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab

#: ``PrefetchResponse.source`` values.
SOURCE_NEURAL = "neural"  # batched rollout from the stream's state
SOURCE_SHED = "shed"  # backpressure: degraded or dropped at submit
SOURCE_ORPHANED = "orphaned"  # session evicted/closed before the tick

SHED_POLICIES = ("next_line", "drop")

#: Request QoS classes, best service first.  ``latency`` requests are
#: admitted to the batch first and shed last; ``besteffort`` requests
#: are the first onto the degrade path under overload.
QOS_CLASSES = ("latency", "throughput", "besteffort")
QOS_PRIORITY = {qos: rank for rank, qos in enumerate(QOS_CLASSES)}
DEFAULT_QOS = "throughput"


@dataclass(frozen=True)
class ServeConfig:
    """Capacity, batching and degrade knobs for :class:`PrefetchServer`."""

    degree: int = 2  # candidates returned per access
    max_sessions: int = 64  # bounded session table (LRU eviction)
    max_pending: int = 256  # neural-eligible requests queued per tick
    max_batch: int = 64  # requests coalesced into one tick
    shed_policy: str = "next_line"  # overload response: degrade or drop
    spill_dir: Optional[str] = None  # evicted-session checkpoint store
    stats_seed: int = 0  # seeds the latency reservoir's RNG

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.spill_dir is not None and not str(self.spill_dir).strip():
            raise ValueError("spill_dir must be a non-empty path or None")
        if self.stats_seed < 0:
            raise ValueError(
                f"stats_seed must be >= 0, got {self.stats_seed}"
            )


class PrefetchResponse(NamedTuple):
    """One served prediction: candidates plus provenance and latency.

    An immutable record built once per request, so it is a named tuple:
    about a third of a frozen dataclass's construction cost.
    """

    stream_id: Hashable
    seq: int  # server-wide request sequence number
    candidates: List[int]  # candidate block addresses, nearest first
    source: str  # one of the SOURCE_* constants
    latency_s: float  # submit -> response, via the injected clock
    qos: str = DEFAULT_QOS  # QoS class the request was served under


class StreamSession:
    """Per-stream serving state owned by :class:`PrefetchServer`.

    Carries the recurrent state after the stream's latest access
    (advanced by the batched cell step each tick, and the start of that
    access's rollout) and the access count that places the stream in
    its current ``seq_len`` segment.  Everything lives here so a stream
    can be evicted or closed without touching any other stream's state.
    """

    __slots__ = ("stream_id", "state", "accesses", "qos", "pending")

    def __init__(
        self,
        stream_id: Hashable,
        engine: InferenceEngine,
        qos: str = DEFAULT_QOS,
    ):
        self.stream_id = stream_id
        self.state = engine.init_state(1)
        self.accesses = 0
        self.qos = qos  # default class for this stream's requests
        self.pending = 0  # in-flight requests (guards spill eviction)


class LatencyReservoir:
    """Seeded Algorithm-R reservoir over a latency stream.

    The first ``capacity`` observations are kept verbatim; afterwards
    the ``n``-th observation replaces a uniformly random slot with
    probability ``capacity / n`` (Vitter's Algorithm R), so the held
    sample is a uniform draw from *everything observed* — unlike the
    old ``deque(maxlen=...)`` window, which silently dropped the oldest
    tail and biased long-run percentiles toward recent traffic.  The
    replacement RNG is seeded, so two servers fed identical latency
    streams report identical percentiles.  Count, max and mean are
    tracked exactly (outside the reservoir); only the percentiles are
    estimates, and ``tests/test_serve.py`` bounds their bias.
    """

    def __init__(self, capacity: int = 65536, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.observed = 0  # total values ever seen (exact)
        self._sum = 0.0  # exact running sum -> exact mean
        self._max = 0.0  # exact running max
        self._samples: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.observed += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            j = self._rng.randrange(self.observed)
            if j < self.capacity:
                self._samples[j] = value

    @property
    def samples(self) -> List[float]:
        """Copy of the currently held sample (unordered)."""
        return list(self._samples)

    @staticmethod
    def _percentile(ordered: List[float], q: float) -> float:
        """Nearest-rank percentile of an ascending-sorted sample list."""
        if not ordered:
            return 0.0
        rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        """Count/max/mean (exact) plus p50/p95/p99 (from the sample)."""
        ordered = sorted(self._samples)
        return {
            "count": self.observed,
            "p50_s": self._percentile(ordered, 50.0),
            "p95_s": self._percentile(ordered, 95.0),
            "p99_s": self._percentile(ordered, 99.0),
            "max_s": self._max if self.observed else 0.0,
            "mean_s": self._sum / self.observed if self.observed else 0.0,
        }


class ServerStats:
    """Counters, batch-size histogram and latency percentiles.

    Latency samples live in a :class:`LatencyReservoir` of
    ``max_latency_samples`` slots: percentiles are exact while the
    stream fits the reservoir and unbiased (uniform-over-history)
    estimates beyond it.  ``count``/``max_s``/``mean_s`` are always
    exact.
    """

    def __init__(self, max_latency_samples: int = 65536, seed: int = 0):
        self.requests = 0
        self.responses = 0
        self.neural = 0
        self.shed = 0
        self.orphaned = 0
        self.ticks = 0
        self.opened = 0
        self.closed = 0
        self.evicted = 0
        self.spilled = 0  # evictions checkpointed to the spill store
        self.restored = 0  # sessions brought back from the spill store
        self.swaps = 0  # successful hot-swaps (swap_checkpoint)
        self.model_version = 0  # bumped once per successful hot-swap
        self.shed_by_class: Dict[str, int] = {q: 0 for q in QOS_CLASSES}
        self.batch_size_hist: Dict[int, int] = {}
        self._reservoir = LatencyReservoir(max_latency_samples, seed)

    def observe_tick(self, batch_size: int) -> None:
        self.ticks += 1
        self.batch_size_hist[batch_size] = (
            self.batch_size_hist.get(batch_size, 0) + 1
        )

    def observe_shed(self, qos: str) -> None:
        self.shed += 1
        self.shed_by_class[qos] = self.shed_by_class.get(qos, 0) + 1

    def observe_response(self, response: PrefetchResponse) -> None:
        self.responses += 1
        if response.source == SOURCE_NEURAL:
            self.neural += 1
        elif response.source == SOURCE_ORPHANED:
            self.orphaned += 1
        self._reservoir.add(response.latency_s)

    def latency_percentiles(self) -> Dict[str, float]:
        return self._reservoir.summary()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of every counter plus latency percentiles."""
        return {
            "requests": self.requests,
            "responses": self.responses,
            "neural": self.neural,
            "shed": self.shed,
            "shed_by_class": dict(self.shed_by_class),
            "orphaned": self.orphaned,
            "ticks": self.ticks,
            "opened": self.opened,
            "closed": self.closed,
            "evicted": self.evicted,
            "spilled": self.spilled,
            "restored": self.restored,
            "swaps": self.swaps,
            "model_version": self.model_version,
            "batch_size_hist": dict(sorted(self.batch_size_hist.items())),
            "latency": self.latency_percentiles(),
        }


class SpillStore:
    """Atomic on-disk checkpoints for evicted :class:`StreamSession`s.

    One ``.npz`` file per stream (named by a stable blake2s digest of
    ``repr(stream_id)``, so any hashable id maps to a filesystem-safe
    name), written via :func:`~voyager.ioutil.atomic_savez` so a crash
    mid-evict never leaves a torn checkpoint.  The payload is the
    session's entire serving state — ``LSTMState`` rows, access count
    (its position in the current reset segment) and QoS class — at full
    bit precision, which is what lets
    ``tests/test_serve.py`` pin a restored session bit-identical to a
    never-evicted one.  A file is restored only into an engine that can
    serve its state (same dtype, same hidden size).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(
                f"spill_dir {str(self.root)!r} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, stream_id: Hashable) -> Path:
        digest = hashlib.blake2s(
            repr(stream_id).encode("utf-8"), digest_size=16
        ).hexdigest()
        return self.root / f"session-{digest}.npz"

    def __contains__(self, stream_id: Hashable) -> bool:
        return self._path(stream_id).exists()

    def save(self, session: StreamSession) -> Path:
        return atomic_savez(
            self._path(session.stream_id),
            h=session.state.h,
            c=session.state.c,
            accesses=np.int64(session.accesses),
            qos=np.array(session.qos),
        )

    def load(
        self, stream_id: Hashable, engine: InferenceEngine
    ) -> StreamSession:
        """Rebuild the checkpointed session; raises if never spilled.

        A file that cannot be read back, or whose state ``engine``
        cannot serve (another dtype or hidden size: a spill of an older
        build or another model in a shared spill directory), raises one
        :class:`ValueError` naming it and leaves the file in place.
        """
        path = self._path(stream_id)
        try:
            with np.load(path, allow_pickle=False) as data:
                session = StreamSession(
                    stream_id, engine, qos=str(data["qos"])
                )
                h, c = data["h"].copy(), data["c"].copy()
                session.accesses = int(data["accesses"])
        except (
            EOFError,
            IndexError,
            KeyError,
            TypeError,
            ValueError,
            zipfile.BadZipFile,
        ) as exc:
            # np.load raises a misleading pickle-related ValueError on
            # non-npz bytes and zipfile.BadZipFile on a truncated
            # archive, and a missing field raises KeyError, which
            # ``submit`` documents as an unknown stream.
            raise ValueError(
                f"spill file {path} is corrupt or incomplete: {exc!r}"
            ) from exc
        try:
            session.state = engine.load_state(h, c)
        except ValueError as exc:
            raise ValueError(
                f"spill file {path} holds a state this server cannot "
                f"serve: {exc}"
            ) from exc
        return session

    def discard(self, stream_id: Hashable) -> bool:
        """Delete a stream's checkpoint; False if none existed."""
        try:
            self._path(stream_id).unlink()
            return True
        except FileNotFoundError:
            return False


@dataclass
class _Pending:
    """A submitted access waiting for the next tick."""

    seq: int
    stream_id: Hashable
    access: MemoryAccess
    submitted_s: float
    degraded: bool  # shed at submit time: skip the rollout
    qos: str = DEFAULT_QOS
    session: Optional[StreamSession] = None  # holds the in-flight pin
    done: bool = False  # resolved (stale in the admitted-class index)


def _admit_by_priority(window: Sequence[_Pending], max_batch: int) -> List[int]:
    """The QoS admission rule: which window requests one tick admits.

    Admits by QoS priority (latency first), oldest first within a
    class, *pulling in* any earlier same-stream requests a pick depends
    on, so every stream's accesses still step its recurrence in submit
    order — the invariant the wave decomposition (and bitwise equality
    with serial engines) rests on.  A pick whose stream prefix would
    overflow ``max_batch`` is skipped.  Returns the admitted window
    indices in ascending (submit) order.
    """
    positions: Dict[Hashable, List[int]] = {}
    stream_rank = []  # index of window[i] within its stream
    for i, req in enumerate(window):
        stream = positions.setdefault(req.stream_id, [])
        stream_rank.append(len(stream))
        stream.append(i)
    taken = {sid: 0 for sid in positions}  # chosen prefix length
    order = sorted(
        range(len(window)),
        key=lambda i: (QOS_PRIORITY.get(window[i].qos, 1), i),
    )
    chosen: List[int] = []
    for i in order:
        if len(chosen) >= max_batch:
            break
        sid = window[i].stream_id
        if stream_rank[i] < taken[sid]:
            continue  # already pulled in by a later same-stream pick
        need = stream_rank[i] - taken[sid] + 1
        if len(chosen) + need > max_batch:
            continue  # would split the stream's FIFO prefix
        chosen.extend(positions[sid][taken[sid] : stream_rank[i] + 1])
        taken[sid] = stream_rank[i] + 1
    return sorted(chosen)


class PrefetchServer:
    """Online serving façade over one trained hierarchical model.

    ``open_stream`` registers a session (evicting the least-recently-
    used one at capacity), ``submit`` enqueues an access, ``tick``
    coalesces everything pending into one batched pass and returns the
    responses, and ``access`` is the submit-and-tick convenience for
    serial callers.  All model arithmetic goes through one shared
    :class:`~voyager.infer.InferenceEngine`; sessions only hold state.
    """

    def __init__(
        self,
        model: HierarchicalModel,
        pc_vocab: Vocab,
        page_vocab: Vocab,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
        logger: Optional[Any] = None,
    ):
        self.config = config or ServeConfig()
        self.model = model
        # Its batched rows equal serially driven rows bit for bit, so
        # ticks batch across streams freely (see voyager.infer).
        self.engine = InferenceEngine(model)
        # Optional served-traffic logger (duck-typed: anything with a
        # ``log(pc, address, tick, stream_id)`` method — in practice
        # :class:`voyager.adapt.AccessLogger`).  ``log`` only buffers;
        # flushing is the caller's responsibility, so the tick hot path
        # never blocks on I/O.
        self.logger = logger
        self.pc_vocab = pc_vocab
        self.page_vocab = page_vocab
        self.clock = clock
        self.stats = ServerStats(seed=self.config.stats_seed)
        self._page_table = page_id_table(page_vocab)
        self._sessions: "OrderedDict[Hashable, StreamSession]" = OrderedDict()
        self._pending: deque = deque()  # of _Pending
        self._pending_neural = 0
        self._seq = 0
        self._auto_stream = 0
        self._undelivered: List[PrefetchResponse] = []
        # Evicted-session checkpoint store (None: hard LRU eviction).
        self._spill: Optional[SpillStore] = (
            SpillStore(self.config.spill_dir)
            if self.config.spill_dir is not None
            else None
        )
        # Per-class index into the admitted (non-degraded) queue, used
        # to find preemption victims in O(1) amortised.  Entries go
        # stale when resolved (``done``) or preempted (``degraded``)
        # and are skipped lazily.
        self._admitted: Dict[str, deque] = {q: deque() for q in QOS_CLASSES}

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def open_stream(
        self,
        stream_id: Optional[Hashable] = None,
        qos: Optional[str] = None,
    ) -> Hashable:
        """Register a new stream session and return its id.

        ``stream_id=None`` auto-assigns ``"s0"``, ``"s1"``, ....
        ``qos`` sets the stream's default QoS class (requests can
        override per-submit); ``None`` means :data:`DEFAULT_QOS`.  At
        ``max_sessions`` capacity the least-recently-used session is
        evicted first; without a spill store its still-pending requests
        resolve as ``orphaned`` at the next tick.  Opening a stream id
        discards any spilled checkpoint stored under that id.
        """
        if qos is None:
            qos = DEFAULT_QOS
        elif qos not in QOS_CLASSES:
            raise ValueError(
                f"qos must be one of {QOS_CLASSES}, got {qos!r}"
            )
        if stream_id is None:
            while f"s{self._auto_stream}" in self._sessions:
                self._auto_stream += 1
            stream_id = f"s{self._auto_stream}"
            self._auto_stream += 1
        elif stream_id in self._sessions:
            raise ValueError(f"stream {stream_id!r} is already open")
        if self._spill is not None:
            self._spill.discard(stream_id)  # stale checkpoint, if any
        self._make_room()
        self._sessions[stream_id] = StreamSession(stream_id, self.engine, qos)
        self.stats.opened += 1
        return stream_id

    def close_stream(self, stream_id: Hashable) -> None:
        """Drop a session (resident or spilled); KeyError if unknown."""
        if stream_id in self._sessions:
            del self._sessions[stream_id]
        elif self._spill is None or not self._spill.discard(stream_id):
            raise KeyError(stream_id)
        self.stats.closed += 1

    def _make_room(self) -> None:
        """Free a session slot before an insert, evicting LRU first.

        Without a spill store this is the original hard LRU eviction
        (in-flight requests orphan).  With one, only sessions with no
        in-flight requests are eligible — checkpointing a session whose
        requests are still queued would orphan them and break the
        restore-is-bit-identical guarantee — so the table may
        transiently exceed ``max_sessions`` (a *soft* cap); ``tick``
        trims it back once requests resolve.
        """
        while len(self._sessions) >= self.config.max_sessions:
            victim = None
            if self._spill is None:
                victim = next(iter(self._sessions))
            else:
                for sid, session in self._sessions.items():
                    if session.pending == 0:
                        victim = sid
                        break
            if victim is None:
                break  # soft cap: every resident has in-flight work
            self._evict(victim)

    def _evict(self, stream_id: Hashable) -> None:
        session = self._sessions.pop(stream_id)
        if self._spill is not None:
            self._spill.save(session)
            self.stats.spilled += 1
        self.stats.evicted += 1

    def _restore(self, stream_id: Hashable) -> StreamSession:
        """Bring a spilled session back as the MRU resident."""
        if self._spill is None or stream_id not in self._spill:
            raise KeyError(stream_id)
        session = self._spill.load(stream_id, self.engine)
        self._spill.discard(stream_id)
        self._make_room()
        self._sessions[stream_id] = session
        self.stats.restored += 1
        return session

    @property
    def open_streams(self) -> List[Hashable]:
        """Open stream ids, least-recently-used first."""
        return list(self._sessions)

    @property
    def pending(self) -> int:
        """Requests waiting for the next tick."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        stream_id: Hashable,
        pc: int,
        address: int,
        qos: Optional[str] = None,
    ) -> int:
        """Enqueue one access for ``stream_id``; returns its sequence no.

        Raises :class:`KeyError` for unknown (closed, or evicted
        without a spill store) streams; a spilled session is restored
        transparently first.  ``qos`` overrides the stream's default
        class for this request.  When the neural-eligible backlog is at
        ``max_pending`` a request is *shed*: it still updates the
        stream's state at the next tick (so later predictions stay
        exact) but skips the rollout, answering with the shed policy's
        candidates instead.  Which request sheds is QoS-aware — an
        arriving request preempts the oldest queued request of a
        *strictly lower* class onto the degrade path, and is only shed
        itself when no such victim exists.
        """
        session = self._sessions.get(stream_id)
        if session is None:
            session = self._restore(stream_id)
        if qos is None:
            qos = session.qos
        elif qos not in QOS_CLASSES:
            raise ValueError(
                f"qos must be one of {QOS_CLASSES}, got {qos!r}"
            )
        self._sessions.move_to_end(stream_id)  # LRU touch
        seq = self._seq
        self._seq += 1
        self.stats.requests += 1
        degraded = False
        if self._pending_neural >= self.config.max_pending:
            victim = self._shed_victim(qos)
            if victim is not None:
                victim.degraded = True
                self._pending_neural -= 1
                self.stats.observe_shed(victim.qos)
            else:
                degraded = True
                self.stats.observe_shed(qos)
        if not degraded:
            self._pending_neural += 1
        req = _Pending(
            seq=seq,
            stream_id=stream_id,
            access=MemoryAccess.from_pc_address(pc, address),
            submitted_s=self.clock(),
            degraded=degraded,
            qos=qos,
            session=session,
        )
        session.pending += 1
        self._pending.append(req)
        if not degraded:
            self._admitted[qos].append(req)
        return seq

    def _shed_victim(self, qos: str) -> Optional[_Pending]:
        """Oldest admitted request of a class strictly below ``qos``.

        Scans worst class first so besteffort always sheds before
        throughput.  Stale index entries (already resolved or already
        preempted) are dropped as they surface.  Returns ``None`` when
        nothing outranked is queued — the arriving request then sheds
        itself, which is also the path every same-class overload takes.
        """
        rank = QOS_PRIORITY[qos]
        for cls in reversed(QOS_CLASSES):  # worst service first
            if QOS_PRIORITY[cls] <= rank:
                break
            queue = self._admitted[cls]
            while queue:
                candidate = queue.popleft()
                if candidate.done or candidate.degraded:
                    continue  # stale index entry
                return candidate
        return None

    def access(self, stream_id: Hashable, pc: int, address: int) -> PrefetchResponse:
        """Submit one access and tick until its response is produced.

        Convenience for serial callers.  Responses for *other* pending
        requests drained by the same ticks are buffered; collect them
        with :meth:`poll`.
        """
        seq = self.submit(stream_id, pc, address)
        mine: Optional[PrefetchResponse] = None
        while mine is None:
            responses = self.tick()
            if not responses:  # pragma: no cover - defensive
                raise RuntimeError(f"request {seq} never resolved")
            for response in responses:
                if response.seq == seq:
                    mine = response
                else:
                    self._undelivered.append(response)
        return mine

    def poll(self) -> List[PrefetchResponse]:
        """Return (and clear) responses buffered by :meth:`access`."""
        out = self._undelivered
        self._undelivered = []
        return out

    # ------------------------------------------------------------------
    # checkpoint hot-swap
    # ------------------------------------------------------------------
    def swap_checkpoint(
        self,
        model: HierarchicalModel,
        pc_vocab: Vocab,
        page_vocab: Vocab,
    ) -> int:
        """Install new weights between ticks without dropping sessions.

        Every session's serving state — recurrent ``LSTMState`` and
        access counts — carries over untouched; only the shared engine
        is rebuilt from the new weights.  In-flight requests are
        drained first on the *old* weights (their responses land in the
        :meth:`poll` buffer), so no request is ever served by a model
        it wasn't submitted against.  The swapped server is
        bit-identical to a fresh server started on the new checkpoint
        with the same session states (``tests/test_adapt.py`` pins
        this).

        Incompatible weights are rejected with :class:`ValueError`
        *before* any server state changes — a failed swap leaves the
        old checkpoint serving:

        - the new :class:`~voyager.model.ModelConfig` must equal the
          serving one in every field except ``seed`` and the unused
          ``history`` (hidden/embed dims and vocab sizes shape the
          carried states; ``seq_len`` places every live stream in its
          reset segment);
        - both vocabs must hash identically
          (:func:`~voyager.model.vocab_fingerprint`) — live states were
          built from the old vocab's ids, so a different mapping would
          silently misdecode every prediction.

        Returns the new ``model_version`` (also in ``ServerStats``).
        """
        old = self.model.config
        new = model.config
        mismatched = [
            field
            for field, value in asdict(new).items()
            if field not in ("seed", "history") and asdict(old)[field] != value
        ]
        if mismatched:
            raise ValueError(
                "incompatible checkpoint for hot-swap: model config "
                f"differs on {', '.join(sorted(mismatched))} "
                f"(serving {old}, offered {new})"
            )
        old_hash = vocab_fingerprint(self.pc_vocab, self.page_vocab)
        new_hash = vocab_fingerprint(pc_vocab, page_vocab)
        if old_hash != new_hash:
            raise ValueError(
                "incompatible checkpoint for hot-swap: vocab mappings "
                f"differ (serving {old_hash}, offered {new_hash}); live "
                "sessions encode accesses under the serving vocab"
            )
        # In-flight requests finish on the old weights.
        while self._pending:
            self._undelivered.extend(self.tick())
        self.model = model
        self.engine = InferenceEngine(model)
        self.pc_vocab = pc_vocab
        self.page_vocab = page_vocab
        self._page_table = page_id_table(page_vocab)
        self.stats.swaps += 1
        self.stats.model_version += 1
        return self.stats.model_version

    # ------------------------------------------------------------------
    # micro-batching scheduler
    # ------------------------------------------------------------------
    def tick(self) -> List[PrefetchResponse]:
        """Coalesce up to ``max_batch`` pending requests into one pass.

        One batched feature embed covers every request; one batched
        cell evaluation per *wave* advances the recurrent state (wave
        ``k`` holds the ``k``-th pending access of each stream, which
        preserves per-stream ordering while batching across streams);
        one batched rollout continues every prediction-eligible request
        from the state its own access produced, and one call decodes
        every rollout row.  A stream's state
        restarts from zero every ``seq_len`` accesses, counted from its
        first access — the segmentation the weights trained on.  When
        the backlog exceeds ``max_batch``, admission is in QoS-priority
        order (latency first) with per-stream FIFO order preserved.
        Responses come back in submit order.
        """
        batch = self._select_batch()
        if not batch:
            return []
        self.stats.observe_tick(len(batch))

        # Split off requests whose session vanished (closed/evicted
        # after submit): they resolve as orphaned, with the degrade
        # candidates, and touch no model state.
        live: List[Tuple[_Pending, StreamSession]] = []
        orphaned: Dict[int, _Pending] = {}
        for req in batch:
            req.done = True
            if req.session is not None:
                req.session.pending -= 1
            if not req.degraded:
                self._pending_neural -= 1
            session = self._sessions.get(req.stream_id)
            if session is None:
                orphaned[req.seq] = req
            else:
                live.append((req, session))

        candidates_by_seq: Dict[int, List[int]] = {}
        if live:
            # Phase A: one batched embed for every live request.
            pc_ids = np.array(
                [self.pc_vocab.encode(req.access.pc) for req, _ in live],
                dtype=np.int64,
            )
            page_ids = np.array(
                [self.page_vocab.encode(req.access.page) for req, _ in live],
                dtype=np.int64,
            )
            offset_ids = np.array(
                [req.access.offset for req, _ in live], dtype=np.int64
            )
            feats = self.engine.feature_step(pc_ids, page_ids, offset_ids)

            # Phase B: batched cell step per wave.  A stream with m
            # pending accesses needs m sequential steps; batching the
            # k-th access of every stream keeps each stream's order.
            # Each request keeps the state after *its* access: a stream
            # with several accesses in this tick predicts each one from
            # its own step, not from the stream's last.
            waves: List[List[int]] = []
            depth: Dict[Hashable, int] = {}
            for i, (req, _) in enumerate(live):
                k = depth.get(req.stream_id, 0)
                depth[req.stream_id] = k + 1
                if k == len(waves):
                    waves.append([])
                waves[k].append(i)
            seq_len = self.model.config.seq_len
            # One wave (every live stream has one request, the common
            # case) holds all rows in live order, so its output is the
            # stepped state itself; several waves scatter into it.
            one_wave = len(waves) == 1
            if not one_wave:
                stepped = self.engine.init_state(len(live))
            for wave in waves:
                sessions = [live[i][1] for i in wave]
                for session in sessions:
                    if session.accesses % seq_len == 0:
                        session.state = self.engine.init_state(1)
                    session.accesses += 1
                state = self.engine.step_from_features(
                    LSTMState.stack([s.state for s in sessions]),
                    feats if one_wave else feats[wave],
                )
                # Sessions hold row views of the wave's output: the
                # engine never writes a state in place (see LSTMState).
                # A view keeps its wave's arrays (at most max_batch
                # rows) alive until the session steps again.
                h, c = state.h, state.c
                for j, session in enumerate(sessions):
                    session.state = LSTMState(h=h[j : j + 1], c=c[j : j + 1])
                if one_wave:
                    stepped = state
                else:
                    stepped.h[wave] = h
                    stepped.c[wave] = c

            # Phase C: log, and collect the rollout-eligible requests.
            if self.logger is not None:
                for req, _ in live:
                    self.logger.log(
                        req.access.pc,
                        req.access.address,
                        tick=self.stats.ticks,
                        stream_id=req.stream_id,
                    )
            rollout_rows = [
                i for i, (req, _) in enumerate(live) if not req.degraded
            ]

            # Phase D: one batched rollout from each request's own
            # stepped state, then one decode for every row.
            if rollout_rows:
                start, start_pcs = stepped, pc_ids
                if len(rollout_rows) < len(live):
                    start = LSTMState(
                        h=stepped.h[rollout_rows], c=stepped.c[rollout_rows]
                    )
                    start_pcs = pc_ids[rollout_rows]
                pages, offsets, valid = self.engine.rollout(
                    start, start_pcs, self.config.degree
                )
                decoded = decode_block_candidates(
                    self._page_table, pages, offsets, valid
                )
                for i, cands in zip(rollout_rows, decoded):
                    candidates_by_seq[live[i][0].seq] = cands

        # Phase E: responses in submit order.
        now = self.clock()
        responses: List[PrefetchResponse] = []
        for req in batch:
            if req.seq in orphaned:
                source = SOURCE_ORPHANED
                cands = self._degrade_candidates(req)
            elif req.degraded:
                source = SOURCE_SHED
                cands = self._degrade_candidates(req)
            else:
                source = SOURCE_NEURAL
                cands = candidates_by_seq[req.seq]
            response = PrefetchResponse(
                stream_id=req.stream_id,
                seq=req.seq,
                candidates=cands,
                source=source,
                latency_s=now - req.submitted_s,
                qos=req.qos,
            )
            self.stats.observe_response(response)
            responses.append(response)

        # Soft-cap cleanup: sessions whose eviction was deferred while
        # they had in-flight requests become evictable as those resolve.
        if self._spill is not None:
            self._trim_capacity()
        return responses

    def _select_batch(self) -> List[_Pending]:
        """Pop up to ``max_batch`` pending requests for this tick.

        Backlog at or under ``max_batch``: take everything, in submit
        order.  Over it: admit from a bounded window by
        :func:`_admit_by_priority`.  When every request in the window
        has one QoS class, priority order is submit order and that rule
        admits exactly the first ``max_batch`` requests, so they are
        taken directly.  Unselected requests stay queued, order intact.
        """
        max_batch = self.config.max_batch
        pending = self._pending
        if len(pending) <= max_batch:
            batch = list(pending)
            pending.clear()
            return batch
        # Bounded admission window: enough to let latency-class
        # requests jump a deep backlog without scanning all of it.
        window_n = min(len(pending), max(4 * max_batch, 256))
        qos = pending[0].qos
        if all(req.qos == qos for req in islice(pending, window_n)):
            return [pending.popleft() for _ in range(max_batch)]
        window = [pending.popleft() for _ in range(window_n)]
        chosen = _admit_by_priority(window, max_batch)
        picked = set(chosen)
        leftovers = [window[i] for i in range(window_n) if i not in picked]
        pending.extendleft(reversed(leftovers))
        return [window[i] for i in chosen]

    def _trim_capacity(self) -> None:
        """Evict spill-eligible LRU sessions back down to the cap."""
        while len(self._sessions) > self.config.max_sessions:
            victim = None
            for sid, session in self._sessions.items():
                if session.pending == 0:
                    victim = sid
                    break
            if victim is None:
                break
            self._evict(victim)

    def _degrade_candidates(self, req: _Pending) -> List[int]:
        if self.config.shed_policy == "next_line":
            return next_line_candidates(req.access.block, self.config.degree)
        return []

    # ------------------------------------------------------------------
    # direct state inspection
    # ------------------------------------------------------------------
    def topk(self, stream_id: Hashable, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(page_ids, offset_ids)`` from a stream's live state.

        Served from the state after the stream's latest access, so
        this is exactly what a serial
        :meth:`~voyager.infer.InferenceEngine.predict_topk` over the
        stream's accesses would return — the equivalence the batched
        cell step guarantees per row.
        """
        state = self._sessions[stream_id].state
        pages, offsets = self.engine.predict_topk(state, k)
        return pages[0], offsets[0]

    def session_state(self, stream_id: Hashable) -> LSTMState:
        """Copy of a stream's recurrent state (tests pin bit-equality)."""
        return self._sessions[stream_id].state.copy()


def drive_open_loop(
    server: PrefetchServer,
    stream_ids: Sequence[Hashable],
    qos: Sequence[str],
    traces: Sequence[Sequence[MemoryAccess]],
    arrival_s: np.ndarray,
    stream_of: np.ndarray,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    hook_at: Iterable[int] = (),
    hook: Optional[Callable[[PrefetchServer, int], None]] = None,
) -> Tuple[float, List[List[List[int]]], np.ndarray, Dict[str, Any]]:
    """Serve requests at their scheduled arrival times: the one driver.

    ``arrival_s[j]`` (ascending) says when request ``j`` arrives;
    ``stream_of[j]`` names the stream whose next trace access it is.
    The loop submits everything due, ticks while work is pending, and
    only sleeps when the next arrival is comfortably in the future — an
    open-loop driver, so a slow tick makes the backlog (and the
    measured queueing latency) grow instead of stalling the workload.
    A schedule with every request due at t = 0 saturates the server:
    it queues the whole trace at once, so a caller that must not shed
    serves with a ``max_pending`` of at least the request count.

    For each index ``j`` in ``hook_at`` (``0 <= j <= n``) the driver
    answers every earlier request, calls ``hook(server, j)`` with
    nothing in flight, and only then submits request ``j``; ``j == n``
    runs after the last response.  A hook that hot-swaps therefore
    draws a clean version boundary in arrival order: requests ``< j``
    are answered by the old checkpoint and ``>= j`` by the new one.

    Returns ``(elapsed_s, per-stream candidates, latency_s, stats)``
    where ``latency_s[j]`` is completion minus *scheduled arrival* of
    request ``j`` — queueing included, the honest open-loop number.
    """
    n = len(arrival_s)
    marks = deque(sorted(set(hook_at)) if hook is not None else ())
    if marks and not 0 <= marks[0] <= marks[-1] <= n:
        raise ValueError(f"hook indices must lie in [0, {n}]")
    for stream_id, stream_qos in zip(stream_ids, qos):
        server.open_stream(stream_id, qos=stream_qos)
    index = {sid: i for i, sid in enumerate(stream_ids)}
    # Request j is stream i's k-th access; per-stream FIFO responses
    # mean stream i's k-th response resolves arrival arrival_pos[i][k].
    arrival_pos: List[List[int]] = [[] for _ in traces]
    for j in range(n):
        arrival_pos[int(stream_of[j])].append(j)
    next_access = [0] * len(traces)
    served = [0] * len(traces)
    candidates: List[List[List[int]]] = [[] for _ in traces]
    latency_s = np.zeros(n, dtype=np.float64)
    submitted = 0
    start = clock()

    def tick() -> None:
        responses = server.tick()
        finish = clock() - start
        for response in responses:
            i = index[response.stream_id]
            j = arrival_pos[i][served[i]]
            served[i] += 1
            candidates[i].append(response.candidates)
            latency_s[j] = finish - arrival_s[j]

    def run_hook() -> None:
        while server.pending:
            tick()
        hook(server, marks.popleft())

    while submitted < n or server.pending:
        now = clock() - start
        while submitted < n and arrival_s[submitted] <= now:
            if marks and marks[0] == submitted:
                run_hook()
            i = int(stream_of[submitted])
            access = traces[i][next_access[i]]
            next_access[i] += 1
            server.submit(stream_ids[i], access.pc, access.address)
            submitted += 1
        if server.pending:
            tick()
        elif submitted < n:
            wait = arrival_s[submitted] - (clock() - start)
            if wait > 0.002:  # spin for near arrivals, sleep for far ones
                sleep(wait - 0.001)
    while marks:  # j == n: after the last response
        run_hook()
    elapsed = clock() - start
    return elapsed, candidates, latency_s, server.stats.snapshot()


__all__ = [
    "DEFAULT_QOS",
    "LatencyReservoir",
    "PrefetchResponse",
    "PrefetchServer",
    "QOS_CLASSES",
    "QOS_PRIORITY",
    "SHED_POLICIES",
    "SOURCE_NEURAL",
    "SOURCE_ORPHANED",
    "SOURCE_SHED",
    "ServeConfig",
    "ServerStats",
    "SpillStore",
    "StreamSession",
    "drive_open_loop",
]
