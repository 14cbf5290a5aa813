"""Sharded open-loop serving: a one-shot multi-process server pool.

One :class:`~voyager.serve.PrefetchServer` micro-batches across
streams but is still a single Python process.  :func:`run_sharded`
spreads one open-loop schedule over ``N`` worker processes and only
serves it — it neither logs traffic nor hot-swaps; online adaptation
runs on one server, through the driver's hook (``serve --adapt``,
``adapt --bench``):

- **partition** — stream ``i`` goes to shard ``i % N``, so per-shard
  stream counts differ by at most one and every process computes the
  same split.  The pool is built for one run; nothing moves a stream
  between shards while it serves.
- **serve** — each shard's worker gets the sub-schedule of its streams
  (original arrival times: all shards replay the same global clock)
  and serves it through :func:`~voyager.serve.drive_open_loop`, the
  driver every serving caller uses, so latency is measured from the
  *scheduled* arrival and queueing under load is in every percentile.
  Each shard's server admits exactly its streams and its backlog holds
  its whole sub-schedule, so every session stays resident and the
  pool sheds nothing.
  Workers run on a :class:`~concurrent.futures.ProcessPoolExecutor`
  and derive their latency-reservoir seeds with
  :func:`~voyager.synthetic.derive_cell_seed` (the ``bench --jobs``
  discipline: no RNG state crosses a process boundary).  A worker that
  dies or raises surfaces as one :class:`ShardError` naming its shard.
- **merge** — per-shard throughput, latency samples and server
  counters merge into one report block, and candidates back into
  global stream order.

Correctness story: the server's inference engine computes every batch
row exactly as it would alone, which makes per-stream responses
independent of batch composition, so *any* partition — and any
arrival timing — produces candidates bit-identical to one
single-process server serving all streams.  ``tests/test_shard.py``
pins that property over every pool size up to more shards than
streams.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from voyager.model import HierarchicalModel
from voyager.serve import (
    LatencyReservoir,
    PrefetchServer,
    ServeConfig,
    drive_open_loop,
)
from voyager.synthetic import derive_cell_seed
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab


class ShardError(RuntimeError):
    """A shard worker died or raised; the message names the shard."""


@dataclass(frozen=True)
class ShardConfig:
    """Pool shape plus the :class:`ServeConfig` knobs every shard shares.

    Each shard's server is sized to its own share of the run (see
    :meth:`serve_config`), so no pool shape can outgrow its servers.
    """

    shards: int = 2
    degree: int = 2
    max_batch: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        # Delegate the rest: a bad degree/max_batch fails here, at
        # configuration time, with ServeConfig's message instead of
        # inside a worker process.
        self.serve_config(0)

    def serve_config(
        self, shard: int, streams: int = 1, requests: int = 1, seed: int = 0
    ) -> ServeConfig:
        """Shard ``shard``'s server config: it admits its ``streams``,
        its backlog holds its ``requests`` (so it sheds none of them),
        and its latency-reservoir seed derives from the pool's ``seed``."""
        return ServeConfig(
            degree=self.degree,
            max_sessions=max(1, streams),
            max_pending=max(1, requests),
            max_batch=self.max_batch,
            stats_seed=derive_cell_seed(seed, f"shard{shard}"),
        )


def _shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one shard's streams; module-level so pools can pickle it."""
    server = PrefetchServer(
        payload["model"],
        payload["pc_vocab"],
        payload["page_vocab"],
        payload["serve_config"],
    )
    elapsed, candidates, latency_s, stats = drive_open_loop(
        server,
        payload["stream_ids"],
        payload["traces"],
        payload["arrival_s"],
        payload["stream_of"],
    )
    requests = int(len(payload["arrival_s"]))
    return {
        "elapsed_s": elapsed,
        "requests": requests,
        "throughput_per_s": requests / elapsed if elapsed > 0 else 0.0,
        "candidates": candidates,
        "latency_s": latency_s,
        "stats": stats,
    }


def latency_summary(latency_s: np.ndarray) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 + exact count/max/mean of a sample."""
    ordered = sorted(float(v) for v in latency_s)
    percentile = LatencyReservoir._percentile
    return {
        "count": len(ordered),
        "p50_s": percentile(ordered, 50.0),
        "p95_s": percentile(ordered, 95.0),
        "p99_s": percentile(ordered, 99.0),
        "max_s": ordered[-1] if ordered else 0.0,
        "mean_s": float(np.mean(ordered)) if ordered else 0.0,
    }


_MERGED_COUNTERS = (
    "requests",
    "responses",
    "neural",
    "shed",
    "orphaned",
    "opened",
    "closed",
    "ticks",
    "swaps",
)


def run_sharded(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    traces: Sequence[Sequence[MemoryAccess]],
    arrival_s: np.ndarray,
    stream_of: np.ndarray,
    config: Optional[ShardConfig] = None,
    seed: int = 0,
    inline: Optional[bool] = None,
) -> Dict[str, Any]:
    """Split the streams round-robin over the pool and serve the schedule.

    Stream ``i`` is named ``s<i>`` on its server and served by shard
    ``i % config.shards``; a shard with no streams starts no worker.
    Each shard gets the sub-schedule of its streams and runs
    :func:`_shard_worker` in its own process; ``inline`` forces
    in-process execution (defaults to true for 1-shard pools, where a
    pool buys nothing but fork latency).  Per-shard latency reservoirs
    are seeded via :func:`~voyager.synthetic.derive_cell_seed`, so a rerun
    of the same pool shape reports identical percentiles.

    Returns the aggregate block: wall time, aggregate req/s, merged
    counters, a shared latency summary over every request, per-shard
    sub-blocks, and ``candidates`` (per global stream, in submit
    order) for equality checks against a single-process run.
    """
    config = config or ShardConfig()
    shards = config.shards
    if inline is None:
        inline = shards == 1
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    stream_of = np.asarray(stream_of, dtype=np.int64)

    payloads = []
    for shard in range(min(shards, len(traces))):
        members = list(range(shard, len(traces), shards))
        mask = stream_of % shards == shard
        payloads.append(
            (
                shard,
                members,
                {
                    "model": model,
                    "pc_vocab": pc_vocab,
                    "page_vocab": page_vocab,
                    "serve_config": config.serve_config(
                        shard,
                        streams=len(members),
                        requests=int(np.count_nonzero(mask)),
                        seed=seed,
                    ),
                    "stream_ids": [f"s{g}" for g in members],
                    "traces": [traces[g] for g in members],
                    "arrival_s": arrival_s[mask],
                    # global stream g is local stream g // shards
                    "stream_of": stream_of[mask] // shards,
                },
            )
        )

    start = time.perf_counter()
    if inline:
        results = [(shard, members, _shard_worker(payload))
                   for shard, members, payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            futures = [
                (shard, members, pool.submit(_shard_worker, payload))
                for shard, members, payload in payloads
            ]
            results = []
            for shard, members, future in futures:
                try:
                    results.append((shard, members, future.result()))
                except Exception as exc:
                    raise ShardError(
                        f"shard {shard} of {shards} failed: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
    wall_s = time.perf_counter() - start

    total_requests = int(len(arrival_s))
    candidates: List[List[List[int]]] = [[] for _ in traces]
    all_latencies: List[np.ndarray] = []
    counters = {key: 0 for key in _MERGED_COUNTERS}
    per_shard = []
    for shard, members, result in results:
        for li, g in enumerate(members):
            candidates[g] = result["candidates"][li]
        all_latencies.append(result["latency_s"])
        for key in _MERGED_COUNTERS:
            counters[key] += int(result["stats"].get(key, 0))
        per_shard.append(
            {
                "shard": shard,
                "streams": len(members),
                "requests": result["requests"],
                "elapsed_s": result["elapsed_s"],
                "throughput_per_s": result["throughput_per_s"],
                "latency": latency_summary(result["latency_s"]),
            }
        )
    merged = (
        np.concatenate(all_latencies)
        if all_latencies
        else np.zeros(0, dtype=np.float64)
    )
    return {
        "shards": shards,
        "inline": bool(inline),
        "wall_s": wall_s,
        "requests": total_requests,
        "aggregate_throughput_per_s": (
            total_requests / wall_s if wall_s > 0 else 0.0
        ),
        "latency": latency_summary(merged),
        "counters": counters,
        "per_shard": per_shard,
        "candidates": candidates,  # popped before serialisation
    }


__all__ = [
    "ShardConfig",
    "ShardError",
    "latency_summary",
    "run_sharded",
]
