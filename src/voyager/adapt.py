"""Online adaptation: log served traffic, fine-tune, hot-swap live.

The serving stack (:mod:`voyager.serve`, :mod:`voyager.shard`) answers
every request from a frozen checkpoint, so a regime shift in the
traffic — a working set rotating, a program entering a new loop nest —
silently destroys coverage until someone retrains offline.  Peled et
al.'s online-updating semantic-locality prefetcher is the hardware-side
precedent, and Hashemi et al. frame prefetching as continual
prediction; this module is the software loop that closes serve -> train
-> serve:

- :class:`AccessLogger` — records the traffic a server actually serves
  to rotating, optionally-gzipped segment files.  Records use the
  external ingest format (:mod:`voyager.ingest`) with the server tick
  in the ``cycle`` column, so logged traffic round-trips through
  ``voyager ingest`` and every other trace consumer.  ``log`` only
  appends to a bounded in-memory buffer (over the bound it *drops and
  counts* rather than blocking), and all I/O happens in explicit
  ``flush``/``rotate`` calls — the serving tick hot path never touches
  the filesystem.  Only *closed* (fully written, atomically renamed)
  segments are ever consumed, so a crash mid-append can tear nothing a
  reader sees.
- :class:`AdaptationLoop` — watches a log directory for closed
  segments and, per :meth:`~AdaptationLoop.poll`, fine-tunes the live
  weights on them with truncated-BPTT :func:`~voyager.train.train`,
  mixing in a seeded
  sample of already-consumed segments (``replay_mix``) so the model
  keeps hold of the old regime while learning the new one
  (catastrophic-forgetting resistance).  Vocabularies are *frozen* at
  the base checkpoint — capacity is provisioned up front; adaptation
  updates weights only — which is exactly what keeps every emitted
  checkpoint hot-swappable.  Checkpoints are versioned
  (``ckpt-v0001``, ...), written atomically via
  :func:`~voyager.model.save_checkpoint`, and published by atomically
  repointing a ``CURRENT`` pointer file
  (:func:`~voyager.ioutil.write_pointer`) only after both checkpoint
  files are fully on disk.  Given the same segments and seed the loop
  is bit-deterministic.
- :func:`load_and_swap` — validate + load a checkpoint and install it
  into a live :class:`~voyager.serve.PrefetchServer` via
  :meth:`~voyager.serve.PrefetchServer.swap_checkpoint`.  Every failure
  mode (missing file, torn ``.npz``, schema or compatibility mismatch)
  raises *before* the server is touched, so the old weights keep
  serving.
- :func:`run_adaptation_bench` — the adaptation-lag evaluation: drive
  regime-shifting workloads (``multi_phase``, ``drifting_zipf``)
  through a frozen server and through the full serve+log+fine-tune+swap
  loop — both through :func:`~voyager.serve.drive_open_loop`, the loop
  running as its hook every ``segment_records`` requests — measure
  coverage before/after each phase boundary (ground-truth
  boundaries from the workload zoo's ``WorkloadSpec.boundaries``
  metadata) and the *adaptation lag* — accesses after the shift until
  rolling coverage recovers — and emit the ``serving.adaptation`` block
  for ``BENCH_voyager.json``.

"Coverage" here is the serving-level proxy: the fraction of served
accesses whose *next* access block appeared in the returned candidate
list (the candidates a hardware prefetcher would have issued ahead of
that access).  It is computed identically for the frozen and adapted
runs, so the gain is apples to apples.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from voyager.ingest import ExternalRecord, IngestFormat, format_record, read_trace
from voyager.ioutil import read_pointer, write_pointer
from voyager.model import (
    HierarchicalModel,
    ModelConfig,
    checkpoint_metadata,
    load_checkpoint,
    save_checkpoint,
)
from voyager.serve import (
    DEFAULT_QOS,
    PrefetchServer,
    ServeConfig,
    drive_open_loop,
)
from voyager.synthetic import derive_cell_seed, generate, phase_boundaries, resolve
from voyager.traces import MemoryAccess, open_text
from voyager.train import build_sequence_dataset, build_vocabs, train

#: Pointer file inside an adaptation output directory naming the newest
#: fully-published checkpoint prefix.
CURRENT_POINTER = "CURRENT"

#: Numbered names in a log dir (closed and open segments), an output
#: dir (checkpoint files) and a bench workdir (run directories).
_SEGMENT_NAME = re.compile(r"(?:open-)?segment-(\d+)\.")
_CHECKPOINT_NAME = re.compile(r"ckpt-v(\d+)\.")
_RUN_NAME = re.compile(r"run-(\d+)$")


def _highest_index(root: Path, pattern: re.Pattern) -> int:
    """Largest number among ``root``'s entries named by ``pattern``, or -1."""
    return max(
        (int(m.group(1)) for m in map(pattern.match, os.listdir(root)) if m),
        default=-1,
    )


# ----------------------------------------------------------------------
# access logging
# ----------------------------------------------------------------------
class AccessLogger:
    """Rotating segment logger for served traffic.

    Segments are external-ingest-format CSV files (optionally gzipped)
    of at most ``segment_records`` records each.  The write protocol is
    two-stage: the segment being filled lives under an ``open-`` name
    and is append-mode (cheap), and once full it is atomically renamed
    to its final ``segment-NNNNNN`` name — the only names
    :meth:`closed_segments` (and therefore :class:`AdaptationLoop`)
    ever return.  A crash mid-append tears only an ``open-`` file no
    reader consumes.

    A logger started on a directory that already holds segments numbers
    its own after the highest index there, closed or ``open-``: it
    never overwrites a closed segment, and never appends to (or
    publishes) an ``open-`` file a crashed predecessor may have torn.

    ``log`` never performs I/O: records go into a bounded buffer and
    are written by :meth:`flush` (typically called between ticks, or
    every N accesses by the driver).  When the buffer is full ``log``
    drops the record and counts it in ``dropped`` — under overload the
    serving path degrades logging, never latency.
    """

    def __init__(
        self,
        root: Union[str, Path],
        segment_records: int = 512,
        compress: bool = False,
        max_buffer: int = 65536,
    ):
        if segment_records < 1:
            raise ValueError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        if max_buffer < 1:
            raise ValueError(f"max_buffer must be >= 1, got {max_buffer}")
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(
                f"log dir {str(self.root)!r} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self.compress = bool(compress)
        self.max_buffer = max_buffer
        self.logged = 0  # records accepted into the buffer, ever
        self.flushed = 0  # records written to disk, ever
        self.dropped = 0  # records refused because the buffer was full
        self.segments_closed = 0  # segments this logger published
        self.stream_counts: Dict[Hashable, int] = {}
        self._fmt = IngestFormat()
        self._buffer: List[ExternalRecord] = []
        # Index of the segment being filled.
        self._segment_index = _highest_index(self.root, _SEGMENT_NAME) + 1
        self._in_segment = 0  # records already written to it

    @property
    def _suffix(self) -> str:
        return ".csv.gz" if self.compress else ".csv"

    def _open_path(self) -> Path:
        # The gz decision keys off the *path* suffix (open_text), so the
        # staging name keeps the real extension and prefixes "open-".
        return self.root / f"open-segment-{self._segment_index:06d}{self._suffix}"

    def _closed_path(self, index: int) -> Path:
        return self.root / f"segment-{index:06d}{self._suffix}"

    def log(
        self,
        pc: int,
        address: int,
        tick: int = 0,
        stream_id: Hashable = None,
    ) -> bool:
        """Buffer one served access; returns False when dropped.

        ``tick`` lands in the record's ``cycle`` column (the server's
        tick counter is its logical clock); ``instr_id`` is the
        logger-wide sequence number.  Stream identity is not part of
        the ingest record format — segments record the merged order the
        server actually observed — but per-stream volumes are tracked
        in :attr:`stream_counts` for observability.
        """
        if len(self._buffer) >= self.max_buffer:
            self.dropped += 1
            return False
        self._buffer.append(
            ExternalRecord(
                pc=pc, addr=address, instr_id=self.logged, cycle=tick, hit=0
            )
        )
        self.logged += 1
        if stream_id is not None:
            self.stream_counts[stream_id] = (
                self.stream_counts.get(stream_id, 0) + 1
            )
        return True

    @property
    def buffered(self) -> int:
        """Records accepted but not yet flushed to disk."""
        return len(self._buffer)

    def flush(self) -> List[Path]:
        """Write the buffer out, closing every segment that fills.

        Returns the segments closed by this flush (often empty: a
        partial segment stays open and appendable).
        """
        closed: List[Path] = []
        pos = 0
        while pos < len(self._buffer):
            room = self.segment_records - self._in_segment
            chunk = self._buffer[pos : pos + room]
            with open_text(self._open_path(), "a") as fh:
                for record in chunk:
                    fh.write(format_record(record, self._fmt) + "\n")
            self._in_segment += len(chunk)
            self.flushed += len(chunk)
            pos += len(chunk)
            if self._in_segment >= self.segment_records:
                closed.append(self._close_segment())
        self._buffer = []
        return closed

    def _close_segment(self) -> Path:
        open_path = self._open_path()
        closed_path = self._closed_path(self._segment_index)
        os.replace(open_path, closed_path)
        self.segments_closed += 1
        self._segment_index += 1
        self._in_segment = 0
        return closed_path

    def rotate(self) -> List[Path]:
        """Flush, then force-close the partial segment (if any).

        The explicit cadence control: a driver that wants the
        fine-tune loop to see traffic *now* rotates instead of waiting
        for the segment to fill.
        """
        closed = self.flush()
        if self._in_segment > 0:
            closed.append(self._close_segment())
        return closed

    def close(self) -> List[Path]:
        """Alias for :meth:`rotate` — final flush at end of serving."""
        return self.rotate()

    def closed_segments(self) -> List[Path]:
        """All closed segment files, oldest first."""
        return sorted(self.root.glob(f"segment-*{self._suffix}"))


# ----------------------------------------------------------------------
# background fine-tune loop
# ----------------------------------------------------------------------
class AdaptationLoop:
    """Replays closed log segments into versioned fine-tuned checkpoints.

    Construction loads the base checkpoint (weights *and* vocabs); the
    vocabs stay frozen for the loop's lifetime so every emitted
    checkpoint passes the hot-swap vocab-hash gate.  Each
    :meth:`poll`:

    1. scans ``log_dir`` for closed segments not yet consumed;
    2. if they hold at least ``min_new_records`` accesses, builds a
       training trace of (seeded sample of old segments) + (new
       segments, in order) — the ``replay_mix`` fraction of the
       already-consumed segment pool is replayed each round so the old
       regime is rehearsed alongside the new one;
    3. fine-tunes a *copy* of the current weights with
       :func:`~voyager.train.train` (TBPTT, cosine schedule) on
       segments of the base model's ``seq_len``, so the model of the
       previous round, which a caller may still hold, never changes;
    4. saves ``ckpt-vNNNN`` atomically and repoints ``CURRENT`` at it.

    Determinism: round ``r`` derives its RNG and training seeds from
    ``(seed, r)``, so the same base checkpoint + same segments =>
    bit-identical checkpoints, regardless of wall clock or call timing.

    Each closed segment is parsed once: it never changes (it is
    published by atomic rename), so the loop keeps its ``(pc, address)``
    columns and rebuilds the accesses whenever a round replays it.  A
    loop started on an ``out_dir`` that already holds checkpoints
    numbers its own after the newest one there, so it never overwrites
    a published checkpoint.

    The segment length is the base model's ``ModelConfig.seq_len``: a
    fine-tuned checkpoint must reset state where the live sessions it
    is swapped under do.  ``seq_len``, when given, must equal it.
    """

    def __init__(
        self,
        checkpoint_prefix: Union[str, Path],
        log_dir: Union[str, Path],
        out_dir: Union[str, Path],
        steps: int = 60,
        batch_size: int = 16,
        lr: float = 0.04,
        seq_len: Optional[int] = None,
        tbptt: int = 8,
        lr_schedule: str = "cosine",
        replay_mix: float = 0.25,
        min_new_records: int = 2,
        seed: int = 0,
    ):
        if not 0.0 <= replay_mix <= 1.0:
            raise ValueError(
                f"replay_mix must be in [0, 1], got {replay_mix}"
            )
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if min_new_records < 2:
            # One access yields zero supervisable positions.
            raise ValueError(
                f"min_new_records must be >= 2, got {min_new_records}"
            )
        self.base_prefix = Path(checkpoint_prefix)
        self.base_meta = checkpoint_metadata(self.base_prefix)
        self.model, self.pc_vocab, self.page_vocab = load_checkpoint(
            self.base_prefix
        )
        if seq_len is not None and seq_len != self.model.config.seq_len:
            raise ValueError(
                f"seq_len {seq_len} differs from the base checkpoint's "
                f"seq_len {self.model.config.seq_len}; fine-tuned weights "
                "must reset state where the served sessions do"
            )
        self.log_dir = Path(log_dir)
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.seq_len = self.model.config.seq_len
        self.tbptt = tbptt
        self.lr_schedule = lr_schedule
        self.replay_mix = replay_mix
        self.min_new_records = min_new_records
        self.seed = seed
        # Version of the newest checkpoint in out_dir.
        self.version = max(0, _highest_index(self.out_dir, _CHECKPOINT_NAME))
        self.rounds = 0  # fine-tune rounds actually run
        self.trained_records = 0  # accesses ever used as training input
        self._consumed: List[Path] = []  # closed segments already trained on
        # (pc, address) columns of every segment read so far.
        self._columns: Dict[Path, np.ndarray] = {}

    @property
    def consumed(self) -> List[Path]:
        """Segments already trained on, in consumption order (a copy)."""
        return list(self._consumed)

    def pending_segments(self) -> List[Path]:
        """Closed segments not yet consumed, oldest first."""
        consumed = set(self._consumed)
        return sorted(
            p
            for p in self.log_dir.glob("segment-*.csv*")
            if p not in consumed
        )

    def _read_segments(self, segments: List[Path]) -> List[MemoryAccess]:
        trace: List[MemoryAccess] = []
        for segment in segments:
            columns = self._columns.get(segment)
            if columns is None:
                accesses, _ = read_trace(segment)
                columns = self._columns[segment] = _access_columns(accesses)
            trace.extend(
                MemoryAccess.from_pc_address(pc, address)
                for pc, address in columns.tolist()
            )
        return trace

    def poll(self) -> Optional[Path]:
        """Run one fine-tune round if enough new traffic has landed.

        Returns the new checkpoint prefix, or ``None`` when there was
        nothing (or too little) to train on: fewer than
        ``min_new_records`` new accesses, or fewer than one segment
        (``seq_len + 1`` accesses) of training input.
        """
        fresh = self.pending_segments()
        if not fresh:
            return None
        new_trace = self._read_segments(fresh)
        if len(new_trace) < self.min_new_records:
            return None
        rng = np.random.default_rng(
            derive_cell_seed(self.seed, f"adapt/replay{self.rounds}")
        )
        replay_count = int(round(self.replay_mix * len(self._consumed)))
        replay_trace: List[MemoryAccess] = []
        if replay_count:
            picks = sorted(
                rng.choice(
                    len(self._consumed), size=replay_count, replace=False
                ).tolist()
            )
            replay_trace = self._read_segments(
                [self._consumed[i] for i in picks]
            )
        mix = replay_trace + new_trace
        if len(mix) <= self.seq_len:
            return None
        dataset = build_sequence_dataset(
            mix,
            seq_len=self.seq_len,
            pc_vocab=self.pc_vocab,
            page_vocab=self.page_vocab,
        )
        model = clone_model(self.model)
        train(
            model,
            dataset,
            steps=self.steps,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=derive_cell_seed(self.seed, f"adapt/train{self.rounds}"),
            tbptt=self.tbptt,
            lr_schedule=self.lr_schedule,
        )
        self.model = model
        self.rounds += 1
        self.version += 1
        self.trained_records += len(mix)
        prefix = self.out_dir / f"ckpt-v{self.version:04d}"
        save_checkpoint(prefix, model, self.pc_vocab, self.page_vocab)
        # Published only after both checkpoint files are fully on disk.
        write_pointer(self.out_dir / CURRENT_POINTER, prefix.name)
        self._consumed.extend(fresh)
        return prefix

    def current_prefix(self) -> Optional[Path]:
        """Newest fully-published checkpoint prefix, or ``None``."""
        name = read_pointer(self.out_dir / CURRENT_POINTER)
        return self.out_dir / name if name else None


def _access_columns(accesses: List[MemoryAccess]) -> np.ndarray:
    """``(n, 2)`` array of each access's ``(pc, address)``.

    16 bytes an access, about a seventh of the access objects.
    Addresses are masked to 48 bits on ingest, but a PC is kept
    verbatim, so one beyond 64 bits falls back to Python ints.
    """
    pairs = [(a.pc, a.address) for a in accesses]
    try:
        return np.array(pairs, dtype=np.uint64).reshape(-1, 2)
    except OverflowError:
        return np.array(pairs, dtype=object).reshape(-1, 2)


def clone_model(model: HierarchicalModel) -> HierarchicalModel:
    """Deep-copy a model's parameters into a fresh instance.

    Fine-tuning must never write through to a model a caller still
    holds (a server keeps the model it was built from).
    """
    clone = HierarchicalModel(model.config)
    for name, value in model.params.items():
        clone.params[name] = value.copy()
    return clone


def load_and_swap(server: PrefetchServer, prefix: Union[str, Path]) -> int:
    """Load a checkpoint and hot-swap it into a live server.

    Fails closed: a missing file, torn ``.npz``, bad schema, or
    incompatible config/vocab raises (:class:`FileNotFoundError` /
    :class:`ValueError`) *before* the server is mutated, so the old
    checkpoint keeps serving.  Returns the server's new
    ``model_version``.
    """
    model, pc_vocab, page_vocab = load_checkpoint(prefix)
    return server.swap_checkpoint(model, pc_vocab, page_vocab)


# ----------------------------------------------------------------------
# adaptation-lag evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptBenchConfig:
    """Knobs for :func:`run_adaptation_bench` (defaults = CI smoke)."""

    workloads: Tuple[str, ...] = ("multi_phase", "drifting_zipf")
    n: int = 2000  # accesses per workload trace
    seed: int = 3
    degree: int = 2  # candidates per response
    embed_dim: int = 8
    hidden_dim: int = 16
    pc_cap: int = 1024
    page_cap: int = 1024
    base_steps: int = 90  # base training on the first phase
    adapt_steps: int = 90  # per fine-tune round
    batch_size: int = 16
    lr: float = 0.04
    seq_len: int = 32
    tbptt: int = 8
    segment_records: int = 250  # log segment size == adaptation cadence
    replay_mix: float = 0.25
    window: int = 150  # coverage measurement window (accesses)
    recovery_frac: float = 0.8  # of the adapted tail coverage
    compress: bool = False  # gzip the log segments

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"n must be >= 4, got {self.n}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.recovery_frac <= 1.0:
            raise ValueError(
                f"recovery_frac must be in (0, 1], got {self.recovery_frac}"
            )
        for name in self.workloads:
            resolve(name)


def _served_hits(
    server: PrefetchServer,
    trace: List[MemoryAccess],
    hook_at: Iterable[int] = (),
    hook: Optional[Callable[[PrefetchServer, int], None]] = None,
) -> List[int]:
    """Serve a trace on one stream; return per-access next-block hits.

    The whole trace is due at t = 0 (:func:`~voyager.serve.drive_open_loop`
    on a saturating one-stream schedule), so ``server`` must not shed:
    its ``max_pending`` covers the trace.  ``hook(server, j)`` runs
    before request ``j`` for each ``j`` in ``hook_at`` — the adaptation
    driver rotates logs, polls the fine-tune loop and hot-swaps there.
    ``hits[t]`` is 1 iff the block of access ``t + 1`` appeared in the
    candidates served for access ``t`` (the last access has no
    successor and is not scored).
    """
    n = len(trace)
    _, (served,), _, _ = drive_open_loop(
        server,
        ["adapt-eval"],
        [DEFAULT_QOS],
        [trace],
        np.zeros(n, dtype=np.float64),
        np.zeros(n, dtype=np.int64),
        hook_at=hook_at,
        hook=hook,
    )
    return [
        1 if trace[t + 1].block in candidates else 0
        for t, candidates in enumerate(served[:-1])
    ]


def _mean(values: List[int]) -> float:
    return float(np.mean(values)) if values else 0.0


def _phase_metrics(
    bounds: List[int],
    frozen_hits: List[int],
    adapted_hits: List[int],
    window: int,
    recovery_frac: float,
) -> List[Dict[str, Any]]:
    """Per-boundary coverage/lag records (boundaries after the first).

    For each shift at ``b`` ending at ``e``:

    - ``pre``: adapted coverage over the ``window`` accesses before ``b``;
    - ``frozen_post`` / ``adapted_post``: coverage over the ``window``
      accesses right after ``b`` (the immediate damage);
    - ``frozen_tail`` / ``adapted_tail``: coverage over the last
      ``window`` accesses of the phase (steady state — the fine-tune
      loop has had the whole phase to catch up);
    - ``gain``: ``adapted_tail - frozen_tail``, the number the CI gate
      checks;
    - ``lag_accesses``: smallest ``j`` with rolling adapted coverage at
      ``b + j`` at least ``recovery_frac * adapted_tail`` (rolling
      window grows from the boundary up to ``window``); the full phase
      length when coverage never recovers.
    """
    phases: List[Dict[str, Any]] = []
    scored = len(adapted_hits)  # == len(trace) - 1
    for k in range(1, len(bounds) - 1):
        b = bounds[k]
        e = min(bounds[k + 1], scored)
        if b >= scored:
            break
        phase_len = e - b
        tail_lo = max(b, e - window)
        adapted_tail = _mean(adapted_hits[tail_lo:e])
        frozen_tail = _mean(frozen_hits[tail_lo:e])
        target = recovery_frac * adapted_tail
        lag = phase_len
        for j in range(phase_len):
            lo = max(b, b + j - window + 1)
            if _mean(adapted_hits[lo : b + j + 1]) >= target:
                lag = j
                break
        phases.append(
            {
                "boundary": b,
                "phase_len": phase_len,
                "pre": _mean(adapted_hits[max(0, b - window) : b]),
                "frozen_post": _mean(frozen_hits[b : b + window]),
                "adapted_post": _mean(adapted_hits[b : b + window]),
                "frozen_tail": frozen_tail,
                "adapted_tail": adapted_tail,
                "gain": adapted_tail - frozen_tail,
                "lag_accesses": lag,
            }
        )
    return phases


def _run_workload(
    workload: str, config: AdaptBenchConfig, workdir: Path
) -> Dict[str, Any]:
    """Frozen-vs-adapted serve run for one regime-shifting workload."""
    trace = generate(workload, config.n, seed=config.seed)
    bounds = phase_boundaries(workload, config.n, seed=config.seed)
    # Vocab capacity is provisioned over the whole trace up front;
    # adaptation updates *weights* only.  This keeps the vocab hash
    # fixed, which the hot-swap compatibility gate requires, and
    # matches a deployment that sizes its embedding tables for the
    # address universe rather than refitting them online.
    pc_vocab, page_vocab = build_vocabs(
        trace, pc_cap=config.pc_cap, page_cap=config.page_cap
    )
    base_trace = trace[: bounds[1]]
    seq_len = min(config.seq_len, max(1, len(base_trace) - 1))
    dataset = build_sequence_dataset(
        base_trace, seq_len=seq_len, pc_vocab=pc_vocab, page_vocab=page_vocab
    )
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            embed_dim=config.embed_dim,
            hidden_dim=config.hidden_dim,
            seed=derive_cell_seed(config.seed, f"adapt/{workload}/base"),
            seq_len=seq_len,
        )
    )
    train(
        model,
        dataset,
        steps=config.base_steps,
        batch_size=config.batch_size,
        lr=config.lr,
        seed=derive_cell_seed(config.seed, f"adapt/{workload}/train"),
        tbptt=config.tbptt,
        lr_schedule="cosine",
    )
    base_prefix = workdir / workload / "base"
    save_checkpoint(base_prefix, model, pc_vocab, page_vocab)
    # The trace is queued at once: a backlog that holds it sheds nothing.
    serve_config = ServeConfig(degree=config.degree, max_pending=config.n)

    # Frozen baseline: the checkpoint never changes.
    frozen_model, frozen_pc, frozen_page = load_checkpoint(base_prefix)
    frozen_server = PrefetchServer(
        frozen_model, frozen_pc, frozen_page, serve_config
    )
    frozen_hits = _served_hits(frozen_server, trace)

    # Adapted run: same checkpoint, plus the full loop.
    log_dir = workdir / workload / "log"
    out_dir = workdir / workload / "ckpts"
    logger = AccessLogger(
        log_dir,
        segment_records=config.segment_records,
        compress=config.compress,
    )
    loop = AdaptationLoop(
        base_prefix,
        log_dir,
        out_dir,
        steps=config.adapt_steps,
        batch_size=config.batch_size,
        lr=config.lr,
        tbptt=config.tbptt,
        replay_mix=config.replay_mix,
        seed=derive_cell_seed(config.seed, f"adapt/{workload}/loop"),
    )
    adapted_model, adapted_pc, adapted_page = load_checkpoint(base_prefix)
    adapted_server = PrefetchServer(
        adapted_model, adapted_pc, adapted_page, serve_config, logger=logger
    )

    def adapt(server: PrefetchServer, _j: int) -> None:
        # Cadence: every closed segment triggers one fine-tune round
        # and (if a checkpoint was produced) one hot-swap.
        logger.rotate()
        prefix = loop.poll()
        if prefix is not None:
            load_and_swap(server, prefix)

    every = config.segment_records
    adapted_hits = _served_hits(
        adapted_server, trace, range(every, config.n + 1, every), adapt
    )
    logger.close()

    phases = _phase_metrics(
        bounds, frozen_hits, adapted_hits, config.window, config.recovery_frac
    )
    gains = [p["gain"] for p in phases]
    lags = [p["lag_accesses"] for p in phases]
    return {
        "workload": workload,
        "boundaries": bounds,
        "frozen_coverage": _mean(frozen_hits),
        "adapted_coverage": _mean(adapted_hits),
        "phases": phases,
        "mean_gain": float(np.mean(gains)) if gains else 0.0,
        "min_gain": float(min(gains)) if gains else 0.0,
        "max_lag_accesses": int(max(lags)) if lags else 0,
        "rounds": loop.rounds,
        "swaps": adapted_server.stats.swaps,
        "model_version": adapted_server.stats.model_version,
        "logged_records": logger.logged,
        "dropped_records": logger.dropped,
        "trained_records": loop.trained_records,
        "segments": logger.segments_closed,
    }


def run_adaptation_bench(
    config: Optional[AdaptBenchConfig] = None,
    workdir: Union[str, Path] = "adapt-bench",
) -> Dict[str, Any]:
    """Measure adaptation lag and coverage gain over the frozen baseline.

    Returns the ``serving.adaptation`` block: shared knobs plus one
    per-workload record (see :func:`_run_workload`).  Deterministic
    given ``config`` — every RNG consumer derives its seed from
    ``config.seed``.  Each call writes its checkpoints and logs under a
    new ``run-NNNN`` directory in ``workdir``, numbered after the
    highest one there, so the loop trains only on segments this run
    logged and a rerun into the same ``workdir`` reproduces the block.
    """
    config = config or AdaptBenchConfig()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run_dir = workdir / f"run-{_highest_index(workdir, _RUN_NAME) + 1:04d}"
    run_dir.mkdir()
    runs = {
        workload: _run_workload(workload, config, run_dir)
        for workload in config.workloads
    }
    return {
        "config": asdict(config),
        "workloads": runs,
    }


def check_adaptation_budget(
    block: Dict[str, Any],
    min_gain: Optional[float] = None,
    max_lag: Optional[int] = None,
) -> List[str]:
    """CI gate: every workload's coverage gain and lag within budget.

    ``min_gain`` checks each workload's ``mean_gain`` (adapted tail
    coverage minus frozen tail coverage, averaged over shifts);
    ``max_lag`` checks ``max_lag_accesses``.  Returns human-readable
    violations, empty when everything passes.
    """
    problems: List[str] = []
    workloads = block.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return ["adaptation block has no workload runs"]
    for name, run in workloads.items():
        if min_gain is not None and run["mean_gain"] < min_gain:
            problems.append(
                f"{name}: mean adapted coverage gain {run['mean_gain']:.4f} "
                f"below required {min_gain:.4f}"
            )
        if max_lag is not None and run["max_lag_accesses"] > max_lag:
            problems.append(
                f"{name}: adaptation lag {run['max_lag_accesses']} accesses "
                f"exceeds budget {max_lag}"
            )
    return problems


__all__ = [
    "AccessLogger",
    "AdaptBenchConfig",
    "AdaptationLoop",
    "CURRENT_POINTER",
    "check_adaptation_budget",
    "clone_model",
    "load_and_swap",
    "run_adaptation_bench",
]
