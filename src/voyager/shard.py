"""Sharded open-loop serving: a multi-process prefetch server pool.

One :class:`~voyager.serve.PrefetchServer` micro-batches across
streams but is still a single Python process; the serving north star
(millions of concurrent streams) needs the next tier.  This module
partitions stream sessions across ``N`` worker processes:

- :class:`HashRing` — consistent-hash stream→shard assignment: each
  shard owns ``replicas`` virtual nodes on a 64-bit ring (stable
  blake2b hashes, nothing process- or ``PYTHONHASHSEED``-dependent),
  streams map to the next vnode clockwise.  Growing the pool from
  ``N`` to ``N+1`` shards moves only the sessions captured by the new
  shard's vnodes — ~``1/(N+1)`` of them — instead of rehashing the
  world, which is what makes live pool resizes survivable.
- :func:`run_sharded` — fans shard workers over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (the same pool +
  :func:`~voyager.synthetic.derive_cell_seed` discipline as ``bench
  --jobs``: every worker derives its own seed, no RNG state crosses a
  process boundary), then merges per-shard throughput, latency
  samples and counters into one report block.  Each worker serves its
  sub-schedule through :func:`~voyager.serve.drive_open_loop`, the
  driver every serving caller uses: requests are submitted at
  *pre-scheduled arrival times* (drawn up front by
  :mod:`voyager.loadgen` from a seeded generator) and latency is
  measured from the scheduled arrival, so queueing delay under load is
  part of every percentile — no coordinated omission.  A worker that
  dies or raises surfaces as one :class:`ShardError` naming its shard.

Correctness story: the server's inference engine computes every batch
row exactly as it would alone, which makes per-stream responses
independent of batch composition, so *any* stream→shard
partition — and any arrival timing — produces candidates bit-identical
to one single-process server serving all streams.
``tests/test_shard.py`` pins that property over random partitions and
interleavings.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from voyager.adapt import AccessLogger, load_and_swap
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


def _hash64(key: str) -> int:
    """Stable 64-bit hash of a string (blake2b, big-endian)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping stream ids to shard indices.

    ``replicas`` virtual nodes per shard smooth the assignment (the
    standard deviation of shard load shrinks with ``sqrt(replicas)``);
    64 keeps a 4-shard pool within a few percent of uniform.  Hashes
    key off ``repr(stream_id)``, so any hashable id with a stable repr
    (strings, ints, tuples of those) assigns identically in every
    process and on every run.
    """

    def __init__(self, shards: int, replicas: int = 64):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(replicas):
                points.append((_hash64(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, stream_id: Hashable) -> int:
        """Owning shard: the first vnode clockwise of the stream hash."""
        h = _hash64(f"stream:{stream_id!r}")
        i = bisect.bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[i]

    def assign(
        self, stream_ids: Sequence[Hashable]
    ) -> Dict[int, List[int]]:
        """Group stream *indices* by owning shard (shards may be empty)."""
        groups: Dict[int, List[int]] = {s: [] for s in range(self.shards)}
        for i, stream_id in enumerate(stream_ids):
            groups[self.shard_for(stream_id)].append(i)
        return groups


@dataclass(frozen=True)
class ShardConfig:
    """Pool shape plus the per-shard :class:`ServeConfig` knobs.

    ``max_sessions`` is *per shard* — a pool of 4 shards with
    ``max_sessions=64`` holds 256 resident sessions.  Each shard's
    backlog holds its whole sub-schedule, so the pool never sheds.
    ``spill_dir`` names a root directory; each shard spills under its
    own ``shard-<k>`` subdirectory, so shards can never collide on a
    checkpoint file.  ``log_dir`` works the same way for served-traffic
    logging: each shard writes its own
    :class:`~voyager.adapt.AccessLogger` segments under
    ``log_dir/shard-<k>``, so one adaptation loop can watch all shard
    subdirectories without writers ever sharing a file.
    """

    shards: int = 2
    replicas: int = 64  # virtual nodes per shard on the hash ring
    degree: int = 2
    max_sessions: int = 1024
    max_batch: int = 64
    spill_dir: Optional[str] = None
    log_dir: Optional[str] = None  # per-shard AccessLogger root, or None
    segment_records: int = 512
    compress: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.spill_dir is not None and not self.spill_dir:
            raise ValueError("spill_dir must be a non-empty path or None")
        if self.log_dir is not None and not self.log_dir:
            raise ValueError("log_dir must be a non-empty path or None")
        if self.segment_records < 1:
            raise ValueError(
                f"segment_records must be >= 1, got {self.segment_records}"
            )
        # Delegate the rest: a bad degree/max_sessions/max_batch fails
        # here, at configuration time, with ServeConfig's message
        # instead of inside a worker process.
        self.serve_config(0)

    def log_root(self, shard: int) -> Optional[Path]:
        """This shard's private segment-log directory (or ``None``)."""
        if self.log_dir is None:
            return None
        return Path(self.log_dir) / f"shard-{shard}"

    def serve_config(
        self, shard: int, requests: int = 1, stats_seed: int = 0
    ) -> ServeConfig:
        """The per-shard server config: own spill subdir, own seed, and
        a backlog that holds the shard's ``requests``, so it sheds
        none of them."""
        spill = None
        if self.spill_dir is not None:
            spill = str(Path(self.spill_dir) / f"shard-{shard}")
        return ServeConfig(
            degree=self.degree,
            max_sessions=self.max_sessions,
            max_pending=max(1, requests),
            max_batch=self.max_batch,
            spill_dir=spill,
            stats_seed=stats_seed,
        )


def _shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one shard's streams; module-level so pools can pickle it."""
    logger = None
    if payload.get("log_dir"):
        logger = AccessLogger(
            payload["log_dir"],
            segment_records=payload.get("segment_records", 512),
            compress=payload.get("compress", False),
        )
    hook = None
    if payload.get("swap_prefix"):
        prefix = payload["swap_prefix"]

        def hook(srv: PrefetchServer, _j: int) -> None:
            load_and_swap(srv, prefix)

    server = PrefetchServer(
        payload["model"],
        payload["pc_vocab"],
        payload["page_vocab"],
        payload["serve_config"],
        logger=logger,
    )
    elapsed, candidates, latency_s, stats = drive_open_loop(
        server,
        payload["stream_ids"],
        payload["traces"],
        payload["arrival_s"],
        payload["stream_of"],
        hook_at=[payload["swap_at"]] if hook is not None else (),
        hook=hook,
    )
    requests = int(len(payload["arrival_s"]))
    result = {
        "elapsed_s": elapsed,
        "requests": requests,
        "throughput_per_s": requests / elapsed if elapsed > 0 else 0.0,
        "candidates": candidates,
        "latency_s": latency_s,
        "stats": stats,
    }
    if logger is not None:
        logger.close()
        result["logging"] = {
            "logged": logger.logged,
            "flushed": logger.flushed,
            "dropped": logger.dropped,
            "segments": logger.segments_closed,
        }
    return result


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
    "evicted",
    "spilled",
    "restored",
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
    swap_at: Optional[int] = None,
    swap_prefix: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Partition streams over the ring and serve the open-loop schedule.

    Stream ``i`` is named ``s<i>`` on the ring and on its server.  Each
    shard gets the sub-schedule of its streams (original arrival
    times — all shards replay the same global clock) and runs
    :func:`_shard_worker` in its own process; ``inline`` forces
    in-process execution (defaults to true for 1-shard pools, where a
    pool buys nothing but fork latency).  Per-shard latency reservoirs
    are seeded via :func:`~voyager.synthetic.derive_cell_seed`, so a rerun
    of the same pool shape reports identical percentiles.

    ``swap_at``/``swap_prefix`` coordinate a pool-wide hot-swap: the
    *global* arrival index ``swap_at`` is translated to each shard's
    local request count, and every worker installs ``swap_prefix``
    (via :func:`~voyager.adapt.load_and_swap`) exactly when its own
    sub-schedule crosses that cutoff — so the pool answers requests
    ``< swap_at`` on the old checkpoint and ``>= swap_at`` on the new
    one, the same version boundary a single server would produce.
    ``config.log_dir`` turns on per-shard served-traffic logging.

    Returns the aggregate block: wall time, aggregate req/s, merged
    counters, a shared latency summary over every request, per-shard
    sub-blocks, and ``candidates`` (per global stream, in submit
    order) for equality checks against a single-process run.
    """
    config = config or ShardConfig()
    if (swap_at is None) != (swap_prefix is None):
        raise ValueError("swap_at and swap_prefix must be given together")
    if swap_at is not None and swap_at < 0:
        raise ValueError(f"swap_at must be >= 0, got {swap_at}")
    stream_ids = [f"s{i}" for i in range(len(traces))]
    if inline is None:
        inline = config.shards == 1
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    stream_of = np.asarray(stream_of, dtype=np.int64)
    ring = HashRing(config.shards, config.replicas)
    groups = ring.assign(stream_ids)

    payloads = []
    for shard in range(config.shards):
        members = groups[shard]
        if not members:
            continue
        member_set = set(members)
        local = {g: li for li, g in enumerate(members)}
        mask = np.array(
            [int(s) in member_set for s in stream_of], dtype=bool
        )
        log_root = config.log_root(shard)
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
                        int(np.count_nonzero(mask)),
                        derive_cell_seed(seed, f"shard{shard}"),
                    ),
                    "stream_ids": [stream_ids[g] for g in members],
                    "traces": [traces[g] for g in members],
                    "arrival_s": arrival_s[mask],
                    "stream_of": np.array(
                        [local[int(s)] for s in stream_of[mask]],
                        dtype=np.int64,
                    ),
                    "log_dir": str(log_root) if log_root else None,
                    "segment_records": config.segment_records,
                    "compress": config.compress,
                    # Global arrival cutoff -> this shard's local request
                    # count before it: the worker swaps exactly there.
                    "swap_at": (
                        int(np.count_nonzero(mask[:swap_at]))
                        if swap_at is not None
                        else None
                    ),
                    "swap_prefix": (
                        str(swap_prefix) if swap_prefix is not None else None
                    ),
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
                        f"shard {shard} of {config.shards} failed: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
    wall_s = time.perf_counter() - start

    total_requests = int(len(arrival_s))
    candidates: List[List[List[int]]] = [[] for _ in traces]
    all_latencies: List[np.ndarray] = []
    counters = {key: 0 for key in _MERGED_COUNTERS}
    per_shard = []
    model_version = 0
    logging_totals = {"logged": 0, "flushed": 0, "dropped": 0, "segments": 0}
    logged_any = False
    for shard, members, result in results:
        for li, g in enumerate(members):
            candidates[g] = result["candidates"][li]
        all_latencies.append(result["latency_s"])
        for key in _MERGED_COUNTERS:
            counters[key] += int(result["stats"].get(key, 0))
        model_version = max(
            model_version, int(result["stats"].get("model_version", 0))
        )
        entry = {
            "shard": shard,
            "streams": len(members),
            "requests": result["requests"],
            "elapsed_s": result["elapsed_s"],
            "throughput_per_s": result["throughput_per_s"],
            "latency": latency_summary(result["latency_s"]),
        }
        if "logging" in result:
            logged_any = True
            entry["logging"] = result["logging"]
            for key in logging_totals:
                logging_totals[key] += int(result["logging"][key])
        per_shard.append(entry)
    merged = (
        np.concatenate(all_latencies)
        if all_latencies
        else np.zeros(0, dtype=np.float64)
    )
    report = {
        "shards": config.shards,
        "inline": bool(inline),
        "wall_s": wall_s,
        "requests": total_requests,
        "aggregate_throughput_per_s": (
            total_requests / wall_s if wall_s > 0 else 0.0
        ),
        "model_version": model_version,
        "latency": latency_summary(merged),
        "counters": counters,
        "per_shard": per_shard,
        "candidates": candidates,  # popped before serialisation
    }
    if logged_any:
        report["logging"] = logging_totals
    return report


__all__ = [
    "HashRing",
    "ShardConfig",
    "ShardError",
    "latency_summary",
    "run_sharded",
]
