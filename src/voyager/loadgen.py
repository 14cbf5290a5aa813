"""Load generators for the online serving layer (``serve-bench``).

One benchmark mode over the synthetic workload zoo: request arrival
times are drawn *up front* from a seeded generator — Poisson or bursty
ON-OFF per stream (:class:`ArrivalConfig` / :func:`open_loop_schedule`),
or ``saturate``, every request due at t = 0 with streams in
round-robin order — and served by the sharded pool of
:mod:`voyager.shard` at 1/2/4/... shards through
:func:`voyager.serve.drive_open_loop`, with latency measured from the
scheduled arrival so queueing under load is inside every percentile.
Streams carry QoS classes (``--qos-mix``), sessions can spill/restore
through ``--spill-dir``, and an optional ``overload`` sub-run pins the
QoS shedding order under deliberate backlog.

The server and the simulator's prefetcher share all model arithmetic,
so their candidate lists are bit-identical per stream (both predict
with the one row-exact float32 inference engine).  Every run
cross-checks on every access and records ``responses_equal_sim`` (the
1-shard run against the simulator) and ``responses_equal_single``
(every pool size against the 1-shard run), so a silent divergence
fails the CI gate instead of slipping a throughput number.

The run writes one report block, ``serving/open_loop``, through
:func:`voyager.bench.write_report`.  Throughput fields are wall-clock
measurements and therefore live with the other timing fields:
:func:`voyager.bench.strip_timing_fields` removes the whole section.
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
    drive_open_loop,
)
from voyager.shard import ShardConfig, ShardError, run_sharded
from voyager.sim import NeuralPrefetcher, protocol_candidates
from voyager.synthetic import derive_cell_seed
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab

ARRIVAL_PROCESSES = ("poisson", "onoff", "saturate")


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
    """Open-loop arrival process: Poisson, bursty ON-OFF, or saturate.

    ``rate`` is the *aggregate* request rate across all streams; each
    stream arrives independently at ``rate / streams``.  The ON-OFF
    process alternates exponentially distributed ON bursts (mean
    ``on_s``, during which the stream fires at the elevated rate that
    keeps its long-run average equal to its Poisson share) and silent
    OFF gaps (mean ``off_s``) — the bursty arrival shape that stresses
    queueing in ways a memoryless Poisson stream cannot.  ``saturate``
    ignores the timing knobs: every request is due at t = 0, which
    measures peak throughput.
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


def saturating_schedule(requests: int, streams: int) -> OpenLoopSchedule:
    """Every request due at t = 0, streams in round-robin order.

    Request ``j`` is stream ``j % streams``'s next access, which is
    also how :func:`serve_trace` splits one trace into streams.
    """
    return OpenLoopSchedule(
        arrival_s=np.zeros(requests, dtype=np.float64),
        stream_of=np.arange(requests, dtype=np.int64) % streams,
    )


def open_loop_schedule(
    config: LoadGenConfig, arrival: ArrivalConfig, seed: int
) -> OpenLoopSchedule:
    """Draw the full open-loop timeline for a run, seeded per stream.

    Stream seeds go through :func:`~voyager.synthetic.derive_cell_seed`
    (the bench pool discipline), so the timeline is identical no
    matter how the streams are later partitioned across shards.
    """
    if arrival.process == "saturate":
        return saturating_schedule(
            config.streams * config.accesses_per_stream, config.streams
        )
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


def _sim_candidates(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    traces: Sequence[Sequence[MemoryAccess]],
    config: LoadGenConfig,
) -> List[List[List[int]]]:
    """The reference: each stream replayed through the simulator's
    streaming :class:`~voyager.sim.NeuralPrefetcher`."""
    return [
        protocol_candidates(
            NeuralPrefetcher(model, pc_vocab, page_vocab),
            trace,
            config.degree,
            0,
        )
        for trace in traces
    ]


def _overload_run(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    traces: Sequence[Sequence[MemoryAccess]],
    config: LoadGenConfig,
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
    )
    n = sum(len(t) for t in traces)
    # Round-robin submit order, so the three classes contend from the
    # first overflow onward.
    schedule = saturating_schedule(n, streams)
    sids = [f"s{i}" for i in range(streams)]
    elapsed, _, _, stats = drive_open_loop(
        server, sids, qos, traces, schedule.arrival_s, schedule.stream_of
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
    qos_mix: Optional[str] = None,
    max_sessions: Optional[int] = None,
    spill_dir: Optional[str] = None,
    replicas: int = 64,
    overload: bool = False,
) -> Dict[str, Any]:
    """Sharded serving bench: one schedule, one model, N pool sizes.

    Checks every pool shape, trains once, draws one arrival schedule,
    then serves it at every requested shard count (1 is always included
    as the equality and scaling reference).  ``max_sessions`` below
    ``streams`` plus a ``spill_dir`` exercises evicted-session
    checkpoint/restore under load.  The backlog is unbounded, so a run
    sheds nothing.  Returns the ``open_loop`` block for the report's
    serving section, full precision (the report write rounds timing
    fields).
    """
    config = config or LoadGenConfig()
    arrival = arrival or ArrivalConfig()
    qos = parse_qos_mix(qos_mix, config.streams)
    counts = sorted({int(c) for c in shard_counts} | {1})
    resident = max_sessions if max_sessions is not None else config.streams
    # Built before training: a bad pool shape or serving knob fails
    # here, not after the model has trained.
    shard_configs = [
        ShardConfig(
            shards=shards,
            replicas=replicas,
            degree=config.degree,
            max_sessions=resident,
            max_batch=config.max_batch,
            spill_dir=(
                os.path.join(spill_dir, f"shards-{shards}")
                if spill_dir is not None
                else None
            ),
        )
        for shards in counts
    ]
    started = time.perf_counter()
    neural, _ = _train_neural(
        mixed_training_trace(profile, seed), profile, seed
    )
    train_s = time.perf_counter() - started
    traces = stream_traces(profile, config, seed)
    schedule = open_loop_schedule(config, arrival, seed)
    runs: List[Dict[str, Any]] = []
    candidates_by_shards: Dict[int, List[List[List[int]]]] = {}
    for shard_config in shard_configs:
        result = run_sharded(
            neural.model,
            neural.pc_vocab,
            neural.page_vocab,
            traces,
            schedule.arrival_s,
            schedule.stream_of,
            config=shard_config,
            qos=qos,
            seed=seed,
        )
        candidates_by_shards[shard_config.shards] = result.pop("candidates")
        runs.append(result)
    single = candidates_by_shards[1]
    sim = _sim_candidates(
        neural.model, neural.pc_vocab, neural.page_vocab, traces, config
    )
    base = runs[0]["aggregate_throughput_per_s"]
    for run in runs:
        run["scaling_vs_single"] = (
            run["aggregate_throughput_per_s"] / base if base > 0 else 0.0
        )
    section: Dict[str, Any] = {
        "profile": profile.name,
        "seed": seed,
        "streams": config.streams,
        "accesses_per_stream": config.accesses_per_stream,
        "requests": schedule.requests,
        "degree": config.degree,
        "max_batch": config.max_batch,
        "max_sessions": resident,
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
        "responses_equal_sim": single == sim,
        "responses_equal_single": all(
            candidates == single for candidates in candidates_by_shards.values()
        ),
    }
    if overload:
        section["overload"] = _overload_run(
            neural.model,
            neural.pc_vocab,
            neural.page_vocab,
            traces,
            config,
        )
    return section


def serve_trace(
    trace: Sequence[MemoryAccess], streams: int = 4
) -> Tuple[List[List[MemoryAccess]], OpenLoopSchedule]:
    """Round-robin split one trace into streams, everything due at t = 0.

    The ``python -m voyager serve`` schedule: stream ``i`` gets
    accesses ``i, i + streams, ...``, so request ``j`` is ``trace[j]``.
    More streams than accesses leaves one stream per access.  Returns
    ``(per-stream traces, schedule)`` for
    :func:`~voyager.serve.drive_open_loop`.
    """
    streams = min(streams, len(trace))
    split = [list(trace[i::streams]) for i in range(streams)]
    return split, saturating_schedule(len(trace), streams)


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
    parser.add_argument("--out", default=BENCH_FILENAME)
    parser.add_argument(
        "--min-throughput",
        type=float,
        default=None,
        help="fail (exit 1) if the gated run's aggregate req/s is below "
        "this",
    )
    group = parser.add_argument_group("arrivals and sharded serving")
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
        help="arrival process; 'saturate' makes every request due at "
        "t = 0, streams in round-robin order (default: poisson)",
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
        help="fail (exit 1) if the gated run's p95 latency exceeds this",
    )
    group.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail (exit 1) if the gated run's p99 latency exceeds this",
    )
    group.add_argument(
        "--min-shard-scaling",
        type=float,
        default=None,
        help="fail (exit 1) if the gated run's aggregate throughput "
        "is below this multiple of the 1-shard run's",
    )


def run_serve_bench(args: argparse.Namespace) -> int:
    """Execute a parsed serve-bench invocation (CLI handler)."""
    profile = profile_with_workloads(
        _profile_by_name(args.profile), getattr(args, "workloads", None)
    )
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
        qos_mix=args.qos_mix,
        max_sessions=args.max_sessions,
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
    rate = "" if arrival.process == "saturate" else f" rate={arrival.rate:.0f}/s"
    print(
        f"arrival={arrival.process}{rate} "
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
    print(
        f"equal_sim={section['responses_equal_sim']} "
        f"equal_single={section['responses_equal_single']}"
    )
    if "overload" in section:
        print(f"overload shed_by_class={section['overload']['shed_by_class']}")
    return write_report(args.out, {"serving/open_loop": section}, problems)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m voyager.loadgen`` / ``python -m voyager serve-bench``."""
    parser = argparse.ArgumentParser(
        prog="voyager.loadgen",
        description="Benchmark the online serving layer under multi-stream load.",
    )
    add_serve_bench_args(parser)
    try:
        return run_serve_bench(parser.parse_args(argv))
    except (OSError, ValueError, ShardError) as exc:
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
    "run_open_loop_bench",
    "run_serve_bench",
    "saturating_schedule",
    "serve_trace",
    "stream_traces",
]


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
