"""Load generators for the online serving layer (``serve-bench``).

One benchmark mode over the synthetic workload zoo: request arrival
times are drawn *up front* from a seeded generator — Poisson per
stream (:class:`ArrivalConfig` / :func:`open_loop_schedule`), or
``saturate``, every request due at t = 0 with streams in round-robin
order — and served by the one-shot pool of :mod:`voyager.shard` at
1/2/4/... shards through :func:`voyager.serve.drive_open_loop`, with
latency measured from the scheduled arrival so queueing under load is
inside every percentile.  Each shard's server holds all of its streams
resident and a backlog of its whole sub-schedule, so a run sheds
nothing.  The gates are ``--max-p99-ms`` and ``--min-throughput`` on
the ``--shards`` run.

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
from voyager.shard import ShardConfig, ShardError, run_sharded
from voyager.sim import NeuralPrefetcher, protocol_candidates
from voyager.synthetic import derive_cell_seed
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab

ARRIVAL_PROCESSES = ("poisson", "saturate")


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
    """Open-loop arrival process: Poisson or saturate.

    ``rate`` is the *aggregate* request rate across all streams; each
    stream arrives as an independent Poisson process at
    ``rate / streams``.  ``saturate`` ignores the rate: every request
    is due at t = 0, which measures peak throughput.
    """

    process: str = "poisson"
    rate: float = 2000.0  # aggregate requests/s over all streams

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.process!r}"
            )
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")


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
    count = config.accesses_per_stream
    merged = np.concatenate(
        [
            np.cumsum(
                np.random.default_rng(
                    derive_cell_seed(seed, f"arrivals/stream{i}")
                ).exponential(1.0 / per_stream_rate, size=count)
            )
            for i in range(config.streams)
        ]
    )
    owners = np.repeat(np.arange(config.streams, dtype=np.int64), count)
    order = np.argsort(merged, kind="stable")
    return OpenLoopSchedule(arrival_s=merged[order], stream_of=owners[order])


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


def run_open_loop_bench(
    profile: BenchProfile = SMOKE_PROFILE,
    config: Optional[LoadGenConfig] = None,
    arrival: Optional[ArrivalConfig] = None,
    shard_counts: Sequence[int] = (1, 2, 4),
    seed: int = 0,
) -> Dict[str, Any]:
    """Sharded serving bench: one schedule, one model, N pool sizes.

    Checks every pool shape, trains once, draws one arrival schedule,
    then serves it at every requested shard count (1 is always included
    as the equality reference).  Each shard's server admits its streams
    and its backlog holds its sub-schedule, so a run sheds nothing.
    Returns the ``open_loop`` block for the report's serving section,
    full precision (the report write rounds timing fields).
    """
    config = config or LoadGenConfig()
    arrival = arrival or ArrivalConfig()
    counts = sorted({int(c) for c in shard_counts} | {1})
    # Built before training: a bad pool shape or serving knob fails
    # here, not after the model has trained.
    shard_configs = [
        ShardConfig(
            shards=shards, degree=config.degree, max_batch=config.max_batch
        )
        for shards in counts
    ]
    started = time.perf_counter()
    neural = _train_neural(mixed_training_trace(profile, seed), profile, seed)
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
            seed=seed,
        )
        candidates_by_shards[shard_config.shards] = result.pop("candidates")
        runs.append(result)
    single = candidates_by_shards[1]
    sim = _sim_candidates(
        neural.model, neural.pc_vocab, neural.page_vocab, traces, config
    )
    section: Dict[str, Any] = {
        "profile": profile.name,
        "seed": seed,
        "streams": config.streams,
        "accesses_per_stream": config.accesses_per_stream,
        "requests": schedule.requests,
        "degree": config.degree,
        "max_batch": config.max_batch,
        "arrival": {"process": arrival.process, "rate_per_s": arrival.rate},
        "host_cpus": os.cpu_count(),
        "train_s": train_s,
        "runs": runs,
        "responses_equal_sim": single == sim,
        "responses_equal_single": all(
            candidates == single for candidates in candidates_by_shards.values()
        ),
    }
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
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail (exit 1) if the gated run's p99 latency exceeds this",
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
    arrival = ArrivalConfig(process=args.arrival, rate=args.rate)
    section = run_open_loop_bench(
        profile,
        config,
        arrival,
        shard_counts=sorted(counts),
        seed=args.seed,
    )
    problems: List[str] = []
    gated = next(
        run for run in section["runs"] if run["shards"] == args.shards
    )
    latency = gated["latency"]
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
    rate = "" if arrival.process == "saturate" else f" rate={arrival.rate:.0f}/s"
    print(
        f"arrival={arrival.process}{rate} "
        f"streams={section['streams']} requests={section['requests']}"
    )
    for run in section["runs"]:
        lat = run["latency"]
        print(
            f"shards={run['shards']} "
            f"agg={run['aggregate_throughput_per_s']:.1f}/s "
            f"p50={lat['p50_s'] * 1000.0:.2f}ms "
            f"p95={lat['p95_s'] * 1000.0:.2f}ms "
            f"p99={lat['p99_s'] * 1000.0:.2f}ms "
            f"shed={run['counters']['shed']}"
        )
    print(
        f"equal_sim={section['responses_equal_sim']} "
        f"equal_single={section['responses_equal_single']}"
    )
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
    "run_open_loop_bench",
    "run_serve_bench",
    "saturating_schedule",
    "serve_trace",
    "stream_traces",
]


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
