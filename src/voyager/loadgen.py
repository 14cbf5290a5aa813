"""Load generators for the online serving layer (``serve-bench``).

Two benchmark modes over the synthetic workload zoo:

- **closed loop** (the original): round-robin interleaved streams
  through one :class:`~voyager.serve.PrefetchServer` tick loop,
  reporting its throughput and checking every stream's candidates
  against the simulator's :class:`~voyager.sim.NeuralPrefetcher`
  replaying the same stream.
- **open loop** (``--open-loop``): request arrival times are drawn *up
  front* from a seeded generator — Poisson or bursty ON-OFF per stream
  (:class:`ArrivalConfig` / :func:`open_loop_schedule`) — and served by
  the sharded pool of :mod:`voyager.shard` at 1/2/4/... shards, with
  latency measured from the scheduled arrival so queueing under load
  is inside every percentile.  Streams carry QoS classes
  (``--qos-mix``), sessions can spill/restore through ``--spill-dir``,
  and an optional ``overload`` sub-run pins the QoS shedding order
  under deliberate backlog.

The server and the simulator's prefetcher share all model arithmetic,
so their candidate lists are bit-identical per stream (the server's
``row_exact`` engine guarantees it); both modes cross-check on every
access and record ``responses_equal_sim`` / ``responses_equal_single``
so a silent divergence would fail the CI gate, not just slip a
throughput number.

Each mode writes its own report block, ``serving/closed_loop`` or
``serving/open_loop``, through :func:`voyager.bench.write_report`.
Throughput fields are wall-clock measurements and therefore live with
the other timing fields: :func:`voyager.bench.strip_timing_fields`
removes the whole section.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from voyager import synthetic
from voyager.bench import (
    BENCH_FILENAME,
    SMOKE_PROFILE,
    BenchProfile,
    _profile_by_name,
    _train_neural,
    profile_with_workloads,
    write_report,
)
from voyager.model import HierarchicalModel
from voyager.serve import (
    DEFAULT_QOS,
    QOS_CLASSES,
    PrefetchServer,
    ServeConfig,
)
from voyager.shard import ShardConfig, drive_open_loop, run_sharded
from voyager.sim import NeuralPrefetcher, protocol_candidates
from voyager.synthetic import derive_cell_seed
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab

ARRIVAL_PROCESSES = ("poisson", "onoff")


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one serve-bench run."""

    streams: int = 8  # concurrent streams, round-robin interleaved
    accesses_per_stream: int = 200  # served accesses per stream
    degree: int = 2  # candidates per access
    max_batch: int = 64  # server coalescing cap

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.accesses_per_stream < 1:
            raise ValueError(
                f"accesses_per_stream must be >= 1, "
                f"got {self.accesses_per_stream}"
            )


@dataclass(frozen=True)
class ArrivalConfig:
    """Open-loop arrival process: Poisson or bursty ON-OFF.

    ``rate`` is the *aggregate* request rate across all streams; each
    stream arrives independently at ``rate / streams``.  The ON-OFF
    process alternates exponentially distributed ON bursts (mean
    ``on_s``, during which the stream fires at the elevated rate that
    keeps its long-run average equal to its Poisson share) and silent
    OFF gaps (mean ``off_s``) — the bursty arrival shape that stresses
    queueing in ways a memoryless Poisson stream cannot.
    """

    process: str = "poisson"
    rate: float = 2000.0  # aggregate requests/s over all streams
    on_s: float = 0.02  # ON-OFF: mean burst duration
    off_s: float = 0.08  # ON-OFF: mean silence duration

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.process!r}"
            )
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not self.on_s > 0:
            raise ValueError(f"on_s must be > 0, got {self.on_s}")
        if self.off_s < 0:
            raise ValueError(f"off_s must be >= 0, got {self.off_s}")


@dataclass(frozen=True)
class OpenLoopSchedule:
    """Pre-drawn request timeline: when each request arrives, and whose.

    ``arrival_s`` ascends; ``stream_of[j]`` is the stream index whose
    next trace access request ``j`` consumes.  Drawn entirely up front
    from per-stream seeded generators, so a run is reproducible and
    every shard subset of it inherits the same global clock.
    """

    arrival_s: np.ndarray  # (n,) float64, ascending
    stream_of: np.ndarray  # (n,) int64

    @property
    def requests(self) -> int:
        return int(len(self.arrival_s))


def _stream_arrivals(
    arrival: ArrivalConfig, rate: float, count: int, rng
) -> np.ndarray:
    """One stream's ``count`` arrival times at long-run ``rate``/s."""
    if arrival.process == "poisson":
        return np.cumsum(rng.exponential(1.0 / rate, size=count))
    # ON-OFF: exponential gaps at the burst rate, walked through
    # alternating ON windows; a gap that crosses the window boundary
    # carries its remainder over the OFF silence.
    duty = arrival.on_s / (arrival.on_s + arrival.off_s)
    burst_rate = rate / duty
    times = np.empty(count, dtype=np.float64)
    t = 0.0
    remaining_on = rng.exponential(arrival.on_s)
    for k in range(count):
        gap = rng.exponential(1.0 / burst_rate)
        while gap > remaining_on:
            gap -= remaining_on
            t += remaining_on + rng.exponential(arrival.off_s)
            remaining_on = rng.exponential(arrival.on_s)
        t += gap
        remaining_on -= gap
        times[k] = t
    return times


def open_loop_schedule(
    config: LoadGenConfig, arrival: ArrivalConfig, seed: int
) -> OpenLoopSchedule:
    """Draw the full open-loop timeline for a run, seeded per stream.

    Stream seeds go through :func:`~voyager.synthetic.derive_cell_seed`
    (the bench pool discipline), so the timeline is identical no
    matter how the streams are later partitioned across shards.
    """
    per_stream_rate = arrival.rate / config.streams
    times: List[np.ndarray] = []
    owners: List[np.ndarray] = []
    for i in range(config.streams):
        rng = np.random.default_rng(
            derive_cell_seed(seed, f"arrivals/stream{i}")
        )
        stream_times = _stream_arrivals(
            arrival, per_stream_rate, config.accesses_per_stream, rng
        )
        times.append(stream_times)
        owners.append(np.full(len(stream_times), i, dtype=np.int64))
    merged = np.concatenate(times)
    order = np.argsort(merged, kind="stable")
    return OpenLoopSchedule(
        arrival_s=merged[order], stream_of=np.concatenate(owners)[order]
    )


def parse_qos_mix(spec: Optional[str], streams: int) -> List[str]:
    """Expand ``"latency=1,throughput=2"`` into per-stream QoS classes.

    The weighted classes form a repeating pattern assigned round-robin
    over stream indices; ``None``/empty means every stream gets
    :data:`~voyager.serve.DEFAULT_QOS`.  Unknown class names and
    non-positive weights raise :class:`ValueError` (CLI surfaces them
    as exit 1).
    """
    if not spec:
        return [DEFAULT_QOS] * streams
    pattern: List[str] = []
    for part in spec.split(","):
        name, _, weight = part.partition("=")
        name = name.strip()
        if name not in QOS_CLASSES:
            raise ValueError(
                f"qos class must be one of {QOS_CLASSES}, got {name!r}"
            )
        try:
            count = int(weight) if weight.strip() else 1
        except ValueError:
            raise ValueError(
                f"qos weight must be an integer, got {weight!r}"
            ) from None
        if count < 1:
            raise ValueError(f"qos weight must be >= 1, got {count}")
        pattern.extend([name] * count)
    return [pattern[i % len(pattern)] for i in range(streams)]


def mixed_training_trace(
    profile: BenchProfile, seed: int
) -> List[MemoryAccess]:
    """Concatenate a slice of every workload into one training trace.

    The serving model must handle whichever workload a stream replays,
    so it trains on all of them; per-workload seeds reuse
    :func:`voyager.synthetic.derive_cell_seed` for consistency with the
    sweep.
    """
    per_workload = max(1, profile.trace_length // len(profile.workloads))
    trace: List[MemoryAccess] = []
    for workload in profile.workloads:
        trace.extend(
            synthetic.generate(
                workload, per_workload, seed=derive_cell_seed(seed, workload)
            )
        )
    return trace


def stream_traces(
    profile: BenchProfile, config: LoadGenConfig, seed: int
) -> List[List[MemoryAccess]]:
    """Per-stream access sequences, workloads assigned round-robin.

    Stream ``i`` replays workload ``i % len(workloads)`` with a seed
    derived from both the workload name and the stream index, so equal
    workloads on different streams still differ where the generator is
    randomised.
    """
    traces = []
    for i in range(config.streams):
        workload = profile.workloads[i % len(profile.workloads)]
        traces.append(
            synthetic.generate(
                workload,
                config.accesses_per_stream,
                seed=derive_cell_seed(seed, f"{workload}/stream{i}"),
            )
        )
    return traces


def _drive_batched(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    traces: Sequence[Sequence[MemoryAccess]],
    config: LoadGenConfig,
    dtype,
    logger: Optional[Any] = None,
    on_round: Optional[Any] = None,
) -> Tuple[float, List[List[List[int]]], Dict[str, Any]]:
    """One server, all streams interleaved; one tick per round.

    Round ``r`` submits every stream's ``r``-th access and ticks once,
    so each tick coalesces ``streams`` requests into one batched pass —
    the micro-batching case the subsystem exists for.  ``logger`` is
    handed to the server (served-traffic logging); ``on_round(server,
    r)`` runs after each round's responses — the ``serve --adapt``
    hook that rotates logs, fine-tunes and hot-swaps mid-run (responses
    a swap drains are collected here via ``poll``).  Returns
    ``(elapsed_s, per-stream candidate lists, stats snapshot)``.
    """
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(
            degree=config.degree,
            max_sessions=max(config.streams, 1),
            max_pending=max(config.streams * 4, 16),
            max_batch=config.max_batch,
        ),
        dtype=dtype,
        logger=logger,
    )
    sids = [server.open_stream() for _ in traces]
    candidates: List[List[List[int]]] = [[] for _ in traces]
    rounds = max(len(t) for t in traces)
    start = time.perf_counter()
    index = {sid: i for i, sid in enumerate(sids)}
    for r in range(rounds):
        for i, sid in enumerate(sids):
            if r < len(traces[i]):
                server.submit(sid, traces[i][r].pc, traces[i][r].address)
        for response in server.tick():
            candidates[index[response.stream_id]].append(response.candidates)
        if on_round is not None:
            on_round(server, r)
            for response in server.poll():
                candidates[index[response.stream_id]].append(
                    response.candidates
                )
    while server.pending:  # streams > max_batch leaves a backlog
        for response in server.tick():
            candidates[index[response.stream_id]].append(response.candidates)
    elapsed = time.perf_counter() - start
    return elapsed, candidates, server.stats.snapshot()


def _sim_candidates(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    traces: Sequence[Sequence[MemoryAccess]],
    config: LoadGenConfig,
    dtype,
) -> List[List[List[int]]]:
    """The reference: each stream replayed through the simulator's
    streaming :class:`~voyager.sim.NeuralPrefetcher`."""
    return [
        protocol_candidates(
            NeuralPrefetcher(model, pc_vocab, page_vocab, dtype=dtype),
            trace,
            config.degree,
            0,
        )
        for trace in traces
    ]


def run_loadgen(
    profile: BenchProfile = SMOKE_PROFILE,
    config: Optional[LoadGenConfig] = None,
    seed: int = 0,
    dtype=np.float64,
) -> Dict[str, Any]:
    """Train once, serve the streams, return the ``closed_loop`` block.

    All values are full precision; the report write rounds timing
    fields at serialisation time.
    """
    config = config or LoadGenConfig()
    started = time.perf_counter()
    neural, _ = _train_neural(mixed_training_trace(profile, seed), profile, seed)
    train_s = time.perf_counter() - started
    traces = stream_traces(profile, config, seed)
    total = sum(len(t) for t in traces)

    batched_s, batched_cands, stats = _drive_batched(
        neural.model, neural.pc_vocab, neural.page_vocab, traces, config, dtype
    )
    sim_cands = _sim_candidates(
        neural.model, neural.pc_vocab, neural.page_vocab, traces, config, dtype
    )
    return {
        "profile": profile.name,
        "seed": seed,
        "dtype": np.dtype(dtype).name,
        "streams": config.streams,
        "accesses_per_stream": config.accesses_per_stream,
        "total_accesses": total,
        "degree": config.degree,
        "max_batch": config.max_batch,
        "train_s": train_s,
        "elapsed_s": batched_s,
        "throughput_accesses_per_s": total / batched_s,
        "responses_equal_sim": batched_cands == sim_cands,
        "stats": stats,
    }


def _overload_run(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    traces: Sequence[Sequence[MemoryAccess]],
    config: LoadGenConfig,
    dtype,
) -> Dict[str, Any]:
    """Deliberate-backlog sub-run pinning the QoS shedding order.

    Every request arrives at t=0 (round-robin across streams cycling
    latency/throughput/besteffort classes) against a deliberately tiny
    ``max_pending``, so the server must shed most of the offered load.
    With preemptive QoS shedding the per-class shed counts must come
    out ordered ``besteffort >= throughput >= latency`` — the recorded
    histogram is the behavioural evidence.  Excluded from the
    bitwise-equality check: shedding depends on cross-stream load, so
    this run intentionally diverges from the shed-free reference.
    """
    streams = len(traces)
    qos = parse_qos_mix("latency=1,throughput=1,besteffort=1", streams)
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(
            degree=config.degree,
            max_sessions=max(streams, 1),
            max_pending=max(2, streams // 2),
            max_batch=config.max_batch,
        ),
        dtype=dtype,
    )
    n = sum(len(t) for t in traces)
    stream_of = np.concatenate(
        [np.full(len(t), i, dtype=np.int64) for i, t in enumerate(traces)]
    )
    # Round-robin submit order (sort by per-stream position, stable),
    # so the three classes contend from the first overflow onward.
    position = np.concatenate(
        [np.arange(len(t), dtype=np.int64) for t in traces]
    )
    stream_of = stream_of[np.argsort(position, kind="stable")]
    sids = [f"s{i}" for i in range(streams)]
    elapsed, _, _, stats = drive_open_loop(
        server, sids, qos, traces, np.zeros(n, dtype=np.float64), stream_of
    )
    # Offered per class, so shed *rates* are comparable even when the
    # class populations differ (streams mod 3 != 0).
    offered = {
        cls: sum(
            len(traces[i]) for i in range(streams) if qos[i] == cls
        )
        for cls in QOS_CLASSES
    }
    return {
        "streams": streams,
        "requests": int(n),
        "max_pending": server.config.max_pending,
        "qos_mix": {cls: qos.count(cls) for cls in QOS_CLASSES},
        "elapsed_s": elapsed,
        "shed": stats["shed"],
        "offered_by_class": offered,
        "shed_by_class": stats["shed_by_class"],
        "shed_rate_by_class": {
            cls: (
                stats["shed_by_class"].get(cls, 0) / offered[cls]
                if offered[cls]
                else 0.0
            )
            for cls in QOS_CLASSES
        },
    }


def run_open_loop_bench(
    profile: BenchProfile = SMOKE_PROFILE,
    config: Optional[LoadGenConfig] = None,
    arrival: Optional[ArrivalConfig] = None,
    shard_counts: Sequence[int] = (1, 2, 4),
    seed: int = 0,
    dtype=np.float64,
    qos_mix: Optional[str] = None,
    max_sessions: Optional[int] = None,
    max_pending: Optional[int] = None,
    spill_dir: Optional[str] = None,
    replicas: int = 64,
    overload: bool = False,
) -> Dict[str, Any]:
    """Open-loop sharded bench: one schedule, one model, N pool sizes.

    Trains once, draws one arrival schedule, then serves it at every
    requested shard count (1 is always included as the equality and
    scaling reference).  ``max_sessions`` below ``streams`` plus a
    ``spill_dir`` exercises evicted-session checkpoint/restore under
    load; the defaults are shed-free and eviction-free so the bitwise
    equality check is meaningful.  Returns the ``open_loop`` block for
    the report's serving section, full precision (the report write
    rounds timing fields).
    """
    config = config or LoadGenConfig()
    arrival = arrival or ArrivalConfig()
    qos = parse_qos_mix(qos_mix, config.streams)
    started = time.perf_counter()
    neural, _ = _train_neural(
        mixed_training_trace(profile, seed), profile, seed
    )
    train_s = time.perf_counter() - started
    traces = stream_traces(profile, config, seed)
    schedule = open_loop_schedule(config, arrival, seed)
    counts = sorted({int(c) for c in shard_counts} | {1})
    resident = max_sessions if max_sessions is not None else max(
        config.streams, 1
    )
    pending_cap = max_pending if max_pending is not None else (1 << 20)
    runs: List[Dict[str, Any]] = []
    candidates_by_shards: Dict[int, List[List[List[int]]]] = {}
    for shards in counts:
        shard_config = ShardConfig(
            shards=shards,
            replicas=replicas,
            degree=config.degree,
            max_sessions=resident,
            max_pending=pending_cap,
            max_batch=config.max_batch,
            spill_dir=(
                os.path.join(spill_dir, f"shards-{shards}")
                if spill_dir is not None
                else None
            ),
        )
        result = run_sharded(
            neural.model,
            neural.pc_vocab,
            neural.page_vocab,
            traces,
            schedule.arrival_s,
            schedule.stream_of,
            config=shard_config,
            qos=qos,
            dtype=dtype,
            seed=seed,
        )
        candidates_by_shards[shards] = result.pop("candidates")
        runs.append(result)
    single = candidates_by_shards[1]
    responses_equal_single = all(
        candidates_by_shards[shards] == single for shards in counts
    )
    base = runs[0]["aggregate_throughput_per_s"]
    for run in runs:
        run["scaling_vs_single"] = (
            run["aggregate_throughput_per_s"] / base if base > 0 else 0.0
        )
    section: Dict[str, Any] = {
        "profile": profile.name,
        "seed": seed,
        "dtype": np.dtype(dtype).name,
        "streams": config.streams,
        "accesses_per_stream": config.accesses_per_stream,
        "requests": schedule.requests,
        "degree": config.degree,
        "max_batch": config.max_batch,
        "max_sessions": resident,
        "max_pending": pending_cap,
        "spill": spill_dir is not None,
        "replicas": replicas,
        "arrival": {
            "process": arrival.process,
            "rate_per_s": arrival.rate,
            "on_s": arrival.on_s,
            "off_s": arrival.off_s,
        },
        "qos_mix": {cls: qos.count(cls) for cls in QOS_CLASSES},
        "host_cpus": os.cpu_count(),
        "train_s": train_s,
        "runs": runs,
        "responses_equal_single": responses_equal_single,
    }
    if overload:
        section["overload"] = _overload_run(
            neural.model,
            neural.pc_vocab,
            neural.page_vocab,
            traces,
            config,
            dtype,
        )
    return section


def serve_trace(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    trace: Sequence[MemoryAccess],
    streams: int = 4,
    degree: int = 2,
    max_batch: int = 64,
    dtype=np.float64,
    logger: Optional[Any] = None,
    on_round: Optional[Any] = None,
) -> Tuple[float, List[List[List[int]]], Dict[str, Any]]:
    """Round-robin split one trace into ``streams`` and serve it.

    The ``python -m voyager serve`` smoke entry: stream ``i`` gets
    accesses ``i, i + streams, ...``.  ``logger``/``on_round`` pass
    through to the driver for the ``--adapt`` loop.  Returns
    ``(elapsed_s, per-stream candidate lists, stats snapshot)``.
    """
    split = [list(trace[i::streams]) for i in range(streams)]
    split = [t for t in split if t]  # more streams than accesses
    config = LoadGenConfig(
        streams=max(len(split), 1),
        accesses_per_stream=max(len(split[0]), 1) if split else 1,
        degree=degree,
        max_batch=max_batch,
    )
    return _drive_batched(
        model,
        pc_vocab,
        page_vocab,
        split,
        config,
        dtype,
        logger=logger,
        on_round=on_round,
    )


def add_serve_bench_args(parser: argparse.ArgumentParser) -> None:
    """The serve-bench flag set, shared with ``python -m voyager``."""
    parser.add_argument(
        "--profile",
        choices=("smoke", "full"),
        default="smoke",
        help="training budget / workload size (default: smoke)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated registry workloads for the stream mix "
        "(default: the whole registry)",
    )
    parser.add_argument("--streams", type=int, default=8)
    parser.add_argument(
        "--accesses",
        type=int,
        default=200,
        help="served accesses per stream (default: 200)",
    )
    parser.add_argument("--degree", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64"
    )
    parser.add_argument("--out", default=BENCH_FILENAME)
    parser.add_argument(
        "--min-throughput",
        type=float,
        default=None,
        help="fail (exit 1) if throughput (closed loop: batched "
        "accesses/s; open loop: aggregate req/s of the gated run) is "
        "below this",
    )
    group = parser.add_argument_group("open-loop sharded serving")
    group.add_argument(
        "--open-loop",
        action="store_true",
        help="run the open-loop sharded bench instead of the "
        "closed-loop tick loop",
    )
    group.add_argument(
        "--shards",
        type=int,
        default=2,
        help="pool size whose run the SLO gates apply to (default: 2)",
    )
    group.add_argument(
        "--shard-sweep",
        default=None,
        help="comma-separated pool sizes to measure, e.g. '1,2,4' "
        "(default: just --shards; 1 is always added as the reference)",
    )
    group.add_argument(
        "--arrival",
        choices=ARRIVAL_PROCESSES,
        default="poisson",
        help="arrival process (default: poisson)",
    )
    group.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="aggregate request rate over all streams, req/s "
        "(default: 2000)",
    )
    group.add_argument(
        "--on-ms",
        type=float,
        default=20.0,
        help="ON-OFF arrivals: mean burst length in ms (default: 20)",
    )
    group.add_argument(
        "--off-ms",
        type=float,
        default=80.0,
        help="ON-OFF arrivals: mean silence length in ms (default: 80)",
    )
    group.add_argument(
        "--qos-mix",
        default=None,
        help="weighted per-stream QoS classes, e.g. "
        "'latency=1,throughput=2,besteffort=1' (default: all "
        f"{DEFAULT_QOS})",
    )
    group.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="resident sessions per shard; below streams-per-shard "
        "this exercises spill/restore (default: no eviction)",
    )
    group.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="neural backlog cap per shard (default: effectively "
        "unbounded, so runs are shed-free)",
    )
    group.add_argument(
        "--spill-dir",
        default=None,
        help="root directory for evicted-session checkpoints "
        "(per shard-count and per shard subdirectories)",
    )
    group.add_argument(
        "--overload",
        action="store_true",
        help="add a deliberate-backlog sub-run recording the QoS "
        "shedding histogram",
    )
    group.add_argument(
        "--max-p95-ms",
        type=float,
        default=None,
        help="fail (exit 1) if open-loop p95 latency exceeds this",
    )
    group.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail (exit 1) if open-loop p99 latency exceeds this",
    )
    group.add_argument(
        "--min-shard-scaling",
        type=float,
        default=None,
        help="fail (exit 1) if the gated run's aggregate throughput "
        "is below this multiple of the 1-shard run's",
    )


def _run_open_loop_cli(
    args: argparse.Namespace, profile: BenchProfile
) -> int:
    """The ``--open-loop`` half of :func:`run_serve_bench`."""
    if args.shards < 1:
        raise ValueError(f"--shards must be >= 1, got {args.shards}")
    counts = {args.shards}
    if args.shard_sweep:
        for part in args.shard_sweep.split(","):
            if part.strip():
                counts.add(int(part))
    config = LoadGenConfig(
        streams=args.streams,
        accesses_per_stream=args.accesses,
        degree=args.degree,
        max_batch=args.max_batch,
    )
    arrival = ArrivalConfig(
        process=args.arrival,
        rate=args.rate,
        on_s=args.on_ms / 1000.0,
        off_s=args.off_ms / 1000.0,
    )
    section = run_open_loop_bench(
        profile,
        config,
        arrival,
        shard_counts=sorted(counts),
        seed=args.seed,
        dtype=np.float32 if args.dtype == "float32" else np.float64,
        qos_mix=args.qos_mix,
        max_sessions=args.max_sessions,
        max_pending=args.max_pending,
        spill_dir=args.spill_dir,
        overload=args.overload,
    )
    problems: List[str] = []
    gated = next(
        run for run in section["runs"] if run["shards"] == args.shards
    )
    latency = gated["latency"]
    if args.max_p95_ms is not None and (
        latency["p95_s"] * 1000.0 > args.max_p95_ms
    ):
        problems.append(
            f"p95={latency['p95_s'] * 1000.0:.2f}ms above "
            f"--max-p95-ms {args.max_p95_ms}"
        )
    if args.max_p99_ms is not None and (
        latency["p99_s"] * 1000.0 > args.max_p99_ms
    ):
        problems.append(
            f"p99={latency['p99_s'] * 1000.0:.2f}ms above "
            f"--max-p99-ms {args.max_p99_ms}"
        )
    if args.min_throughput is not None and (
        gated["aggregate_throughput_per_s"] < args.min_throughput
    ):
        problems.append(
            f"aggregate={gated['aggregate_throughput_per_s']:.1f}/s "
            f"below --min-throughput {args.min_throughput}"
        )
    if args.min_shard_scaling is not None and (
        gated["scaling_vs_single"] < args.min_shard_scaling
    ):
        problems.append(
            f"scaling_vs_single={gated['scaling_vs_single']:.2f}x below "
            f"--min-shard-scaling {args.min_shard_scaling}"
        )
    print(
        f"open-loop {arrival.process} rate={arrival.rate:.0f}/s "
        f"streams={section['streams']} requests={section['requests']} "
        f"qos={args.qos_mix or DEFAULT_QOS}"
    )
    for run in section["runs"]:
        lat = run["latency"]
        counters = run["counters"]
        print(
            f"shards={run['shards']} "
            f"agg={run['aggregate_throughput_per_s']:.1f}/s "
            f"scaling={run['scaling_vs_single']:.2f}x "
            f"p50={lat['p50_s'] * 1000.0:.2f}ms "
            f"p95={lat['p95_s'] * 1000.0:.2f}ms "
            f"p99={lat['p99_s'] * 1000.0:.2f}ms "
            f"shed={counters['shed']} spilled={counters['spilled']} "
            f"restored={counters['restored']}"
        )
    print(f"equal_single={section['responses_equal_single']}")
    if "overload" in section:
        print(f"overload shed_by_class={section['overload']['shed_by_class']}")
    return write_report(args.out, {"serving/open_loop": section}, problems)


def run_serve_bench(args: argparse.Namespace) -> int:
    """Execute a parsed serve-bench invocation (CLI handler)."""
    profile = profile_with_workloads(
        _profile_by_name(args.profile), getattr(args, "workloads", None)
    )
    if getattr(args, "open_loop", False):
        return _run_open_loop_cli(args, profile)
    config = LoadGenConfig(
        streams=args.streams,
        accesses_per_stream=args.accesses,
        degree=args.degree,
        max_batch=args.max_batch,
    )
    serving = run_loadgen(
        profile,
        config,
        seed=args.seed,
        dtype=np.float32 if args.dtype == "float32" else np.float64,
    )
    problems: List[str] = []
    if args.min_throughput is not None and (
        serving["throughput_accesses_per_s"] < args.min_throughput
    ):
        problems.append(
            f"throughput={serving['throughput_accesses_per_s']:.1f}/s below "
            f"--min-throughput {args.min_throughput}"
        )
    latency = serving["stats"]["latency"]
    print(
        f"streams={serving['streams']} total={serving['total_accesses']} "
        f"throughput={serving['throughput_accesses_per_s']:.1f}/s "
        f"equal_sim={serving['responses_equal_sim']}"
    )
    print(
        f"latency p50={latency['p50_s'] * 1e6:.1f}us "
        f"p95={latency['p95_s'] * 1e6:.1f}us "
        f"shed={serving['stats']['shed']} ticks={serving['stats']['ticks']}"
    )
    return write_report(args.out, {"serving/closed_loop": serving}, problems)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m voyager.loadgen`` / ``python -m voyager serve-bench``."""
    parser = argparse.ArgumentParser(
        prog="voyager.loadgen",
        description="Benchmark the online serving layer under multi-stream load.",
    )
    add_serve_bench_args(parser)
    try:
        return run_serve_bench(parser.parse_args(argv))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalConfig",
    "LoadGenConfig",
    "OpenLoopSchedule",
    "add_serve_bench_args",
    "mixed_training_trace",
    "open_loop_schedule",
    "parse_qos_mix",
    "run_loadgen",
    "run_open_loop_bench",
    "run_serve_bench",
    "serve_trace",
    "stream_traces",
]


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
