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
  ``close_stream``, a session table that admits at most
  ``max_sessions`` open streams and keeps each one resident until it
  is closed, and a queue-depth cap with an explicit shed policy
  (degrade to next-line candidates, or drop) so overload degrades
  instead of queueing unboundedly.
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
- **one admission rule**: a tick takes the oldest ``max_batch``
  pending requests, and a request that arrives while ``max_pending``
  requests wait for a rollout sheds itself: it still steps its
  stream's state at its tick but answers with the shed policy's
  candidates.  The server holds a request only until the tick that
  answers it.
- :func:`drive_open_loop` — the one driver every caller serves through
  (``serve``, ``serve-bench`` through the shard pool, and the
  adaptation bench): it opens the streams, submits requests at
  pre-scheduled arrival times, runs one ``hook(server, j)`` at chosen
  request indices with nothing in flight — where ``serve --adapt`` and
  the adaptation bench rotate logs, poll the fine-tune loop and
  hot-swap; the shard pool sets no hook — and closes the streams once
  the last response is out.

Every response is a neural rollout from the stream's carried state, or
the shed/orphan degrade.  The server is deterministic given a
deterministic submit/tick schedule: same streams + same accesses means
bit-identical candidates, which is what lets :mod:`voyager.loadgen`
assert reproducible throughput runs.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import asdict, dataclass
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
)

import numpy as np

from voyager.baselines import next_line_candidates
from voyager.infer import InferenceEngine, LSTMState
from voyager.model import HierarchicalModel, vocab_fingerprint
from voyager.sim import decode_block_candidates, page_id_table
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab

#: ``PrefetchResponse.source`` values.
SOURCE_NEURAL = "neural"  # batched rollout from the stream's state
SOURCE_SHED = "shed"  # backpressure: degraded or dropped at submit
SOURCE_ORPHANED = "orphaned"  # stream closed before the tick

SHED_POLICIES = ("next_line", "drop")


@dataclass(frozen=True)
class ServeConfig:
    """Capacity, batching and degrade knobs for :class:`PrefetchServer`."""

    degree: int = 2  # candidates returned per access
    max_sessions: int = 64  # open streams; opening one more raises
    max_pending: int = 256  # requests waiting for a rollout; more shed
    max_batch: int = 64  # requests coalesced into one tick
    shed_policy: str = "next_line"  # overload response: degrade or drop
    spill_dir: Optional[str] = None  # must be None: sessions stay resident
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
        if self.spill_dir is not None:
            raise ValueError(
                "spill_dir must be None (sessions stay resident), "
                f"got {self.spill_dir!r}"
            )
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


class StreamSession:
    """Per-stream serving state owned by :class:`PrefetchServer`.

    Carries the recurrent state after the stream's latest access
    (advanced by the batched cell step each tick, and the start of that
    access's rollout) and the access count that places the stream in
    its current ``seq_len`` segment.  Everything lives here so a stream
    can be closed without touching any other stream's state.
    """

    __slots__ = ("stream_id", "state", "accesses")

    def __init__(self, stream_id: Hashable, engine: InferenceEngine):
        self.stream_id = stream_id
        self.state = engine.init_state(1)
        self.accesses = 0


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
        self.swaps = 0  # successful hot-swaps (swap_checkpoint)
        self.model_version = 0  # bumped once per successful hot-swap
        self.batch_size_hist: Dict[int, int] = {}
        self._reservoir = LatencyReservoir(max_latency_samples, seed)

    def observe_tick(self, batch_size: int) -> None:
        self.ticks += 1
        self.batch_size_hist[batch_size] = (
            self.batch_size_hist.get(batch_size, 0) + 1
        )

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
            "orphaned": self.orphaned,
            "ticks": self.ticks,
            "opened": self.opened,
            "closed": self.closed,
            "swaps": self.swaps,
            "model_version": self.model_version,
            "batch_size_hist": dict(sorted(self.batch_size_hist.items())),
            "latency": self.latency_percentiles(),
        }


@dataclass
class _Pending:
    """A submitted access waiting for the next tick."""

    seq: int
    stream_id: Hashable
    access: MemoryAccess
    submitted_s: float
    degraded: bool  # shed at submit time: skip the rollout
    session: StreamSession  # the session it steps, if still open at its tick


class PrefetchServer:
    """Online serving façade over one trained hierarchical model.

    ``open_stream`` registers a session (at most ``max_sessions`` are
    open at once), ``submit`` enqueues an access, ``tick``
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
        self._sessions: Dict[Hashable, StreamSession] = {}
        self._pending: deque = deque()  # of _Pending
        self._pending_neural = 0  # queued and not shed; max_pending caps it
        self._seq = 0
        self._auto_stream = 0
        self._undelivered: List[PrefetchResponse] = []

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def open_stream(self, stream_id: Optional[Hashable] = None) -> Hashable:
        """Register a new stream session and return its id.

        ``stream_id=None`` auto-assigns ``"s0"``, ``"s1"``, ....  With
        ``max_sessions`` streams already open it raises one
        :class:`ValueError` naming the cap and changes nothing: the
        server never drops or moves a session it holds.  The requests
        of a closed stream resolve as ``orphaned`` at the next tick,
        even once a new stream reopens its id.
        """
        if stream_id is not None and stream_id in self._sessions:
            raise ValueError(f"stream {stream_id!r} is already open")
        if len(self._sessions) >= self.config.max_sessions:
            raise ValueError(
                f"max_sessions={self.config.max_sessions} streams are "
                "open; close one before opening another"
            )
        if stream_id is None:
            while f"s{self._auto_stream}" in self._sessions:
                self._auto_stream += 1
            stream_id = f"s{self._auto_stream}"
            self._auto_stream += 1
        self._sessions[stream_id] = StreamSession(stream_id, self.engine)
        self.stats.opened += 1
        return stream_id

    def close_stream(self, stream_id: Hashable) -> None:
        """Drop an open session; KeyError if the stream is not open."""
        del self._sessions[stream_id]
        self.stats.closed += 1

    @property
    def open_streams(self) -> List[Hashable]:
        """Open stream ids, in the order they were opened."""
        return list(self._sessions)

    @property
    def pending(self) -> int:
        """Requests waiting for the next tick."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, stream_id: Hashable, pc: int, address: int) -> int:
        """Enqueue one access for ``stream_id``; returns its sequence no.

        Raises :class:`KeyError` for a stream that is not open.  A
        request that arrives while ``max_pending`` requests wait for a
        rollout is *shed*: it still updates the stream's state at the
        next tick (so later predictions stay exact) but skips the
        rollout, answering with the shed policy's candidates instead.
        Only the arriving request sheds; a queued one never does.
        """
        session = self._sessions[stream_id]
        seq = self._seq
        self._seq += 1
        self.stats.requests += 1
        degraded = self._pending_neural >= self.config.max_pending
        if degraded:
            self.stats.shed += 1
        else:
            self._pending_neural += 1
        req = _Pending(
            seq=seq,
            stream_id=stream_id,
            access=MemoryAccess.from_pc_address(pc, address),
            submitted_s=self.clock(),
            degraded=degraded,
            session=session,
        )
        self._pending.append(req)
        return seq

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
        """Answer the oldest ``max_batch`` pending requests in one pass.

        One batched feature embed covers every request; one batched
        cell evaluation per *wave* advances the recurrent state (wave
        ``k`` holds the ``k``-th pending access of each stream, which
        preserves per-stream ordering while batching across streams);
        one batched rollout continues every prediction-eligible request
        from the state its own access produced, and one call decodes
        every rollout row.  A stream's state
        restarts from zero every ``seq_len`` accesses, counted from its
        first access — the segmentation the weights trained on.  A
        request whose session is no longer the stream's open one (closed
        since submit, even if the id was reopened) resolves as
        ``orphaned``.  Responses come back in submit order.
        """
        batch = self._select_batch()
        if not batch:
            return []
        self.stats.observe_tick(len(batch))

        # Split off requests whose session was closed after submit:
        # they resolve as orphaned, with the degrade candidates, and
        # touch no model state.  A stream reopened under the same id is
        # a new session, so the identity check keeps its predecessor's
        # requests off it.
        live: List[Tuple[_Pending, StreamSession]] = []
        orphaned: Dict[int, _Pending] = {}
        for req in batch:
            session = req.session
            if not req.degraded:
                self._pending_neural -= 1
            if self._sessions.get(req.stream_id) is session:
                live.append((req, session))
            else:
                orphaned[req.seq] = req

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
            )
            self.stats.observe_response(response)
            responses.append(response)
        return responses

    def _select_batch(self) -> List[_Pending]:
        """Pop the oldest ``max_batch`` pending requests for this tick.

        The rest stay queued in submit order.  Every stream's requests
        thus step its recurrence in submit order, the invariant the
        wave decomposition (and bitwise equality with serial engines)
        rests on.
        """
        max_batch = self.config.max_batch
        pending = self._pending
        if len(pending) <= max_batch:
            batch = list(pending)
            pending.clear()
            return batch
        return [pending.popleft() for _ in range(max_batch)]

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

    The driver opens every stream it serves before the first request,
    so the server's ``max_sessions`` must admit them all, and, after
    the last response and the ``j == n`` hook, closes every one of
    them: ``stats`` reads ``closed == opened``.

    Returns ``(elapsed_s, per-stream candidates, latency_s, stats)``
    where ``latency_s[j]`` is completion minus *scheduled arrival* of
    request ``j`` — queueing included, the honest open-loop number.
    """
    n = len(arrival_s)
    marks = deque(sorted(set(hook_at)) if hook is not None else ())
    if marks and not 0 <= marks[0] <= marks[-1] <= n:
        raise ValueError(f"hook indices must lie in [0, {n}]")
    for stream_id in stream_ids:
        server.open_stream(stream_id)
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
    for stream_id in stream_ids:
        server.close_stream(stream_id)
    return elapsed, candidates, latency_s, server.stats.snapshot()


__all__ = [
    "LatencyReservoir",
    "PrefetchResponse",
    "PrefetchServer",
    "SHED_POLICIES",
    "SOURCE_NEURAL",
    "SOURCE_ORPHANED",
    "SOURCE_SHED",
    "ServeConfig",
    "ServerStats",
    "StreamSession",
    "drive_open_loop",
]
