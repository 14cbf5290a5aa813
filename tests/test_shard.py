"""Shard-pool tests: ring properties, partition equality, pooled smoke.

The tentpole contract: because the engine serves in ``row_exact`` mode,
*any* stream->shard partition replaying the same open-loop schedule
produces candidates bitwise-equal to a single-process server.  The
hypothesis property drives that over random pool shapes; the unit
tests pin the consistent-hash ring (determinism, balance, minimal
movement on resize) and the pooled multi-process path.
"""

import os
import time

import numpy as np
import pytest

import voyager.shard as shard_mod
from voyager.model import HierarchicalModel, ModelConfig
from voyager.serve import PrefetchServer, drive_open_loop
from voyager.shard import (
    HashRing,
    ShardConfig,
    ShardError,
    latency_summary,
    run_sharded,
)
from voyager.traces import NUM_OFFSETS, MemoryAccess, join_address
from voyager.vocab import Vocab

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PCS = [0x400000 + 4 * i for i in range(6)]
PAGES = [512 + 3 * i for i in range(8)]


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
def test_hash_ring_validation():
    with pytest.raises(ValueError, match="shards"):
        HashRing(0)
    with pytest.raises(ValueError, match="replicas"):
        HashRing(2, replicas=0)


def test_hash_ring_is_deterministic_and_roughly_balanced():
    ids = [f"stream-{i}" for i in range(1000)]
    ring = HashRing(4)
    owners = [ring.shard_for(s) for s in ids]
    # a fresh ring with the same shape assigns identically
    assert owners == [HashRing(4).shard_for(s) for s in ids]
    counts = np.bincount(owners, minlength=4)
    assert counts.sum() == 1000
    # 64 vnodes/shard keeps 4 shards within a loose band of uniform
    assert counts.min() > 100
    assert counts.max() < 450


def test_hash_ring_assign_groups_indices():
    ids = ["a", "b", "c", "a"]  # duplicate id lands on the same shard
    ring = HashRing(3)
    groups = ring.assign(ids)
    assert sorted(i for members in groups.values() for i in members) == [
        0, 1, 2, 3,
    ]
    shard_a = ring.shard_for("a")
    assert 0 in groups[shard_a] and 3 in groups[shard_a]


def test_hash_ring_resize_moves_only_to_the_new_shard():
    """Growing 4 -> 5 shards only moves streams *onto* shard 4."""
    ids = [f"stream-{i}" for i in range(1000)]
    before = [HashRing(4).shard_for(s) for s in ids]
    after = [HashRing(5).shard_for(s) for s in ids]
    moved = [(b, a) for b, a in zip(before, after) if b != a]
    assert moved, "a resize that moves nothing is a broken ring"
    assert all(a == 4 for _, a in moved)
    # expected movement is ~1/5 of streams; allow a generous band
    assert len(moved) / len(ids) < 0.4


# ----------------------------------------------------------------------
# shard config
# ----------------------------------------------------------------------
def test_shard_config_validation():
    with pytest.raises(ValueError, match="shards"):
        ShardConfig(shards=0)
    with pytest.raises(ValueError, match="replicas"):
        ShardConfig(replicas=0)
    # the rest is delegated to ServeConfig at construction time
    with pytest.raises(ValueError, match="degree"):
        ShardConfig(degree=0)
    with pytest.raises(ValueError, match="spill_dir"):
        ShardConfig(spill_dir="")


def test_shard_config_spill_subdirs_never_collide(tmp_path):
    config = ShardConfig(shards=2, spill_dir=str(tmp_path / "spill"))
    dirs = {config.serve_config(k).spill_dir for k in range(2)}
    assert len(dirs) == 2
    assert all(d.endswith(f"shard-{k}") for k, d in enumerate(sorted(dirs)))
    assert ShardConfig().serve_config(0).spill_dir is None
    # each shard's backlog holds its whole sub-schedule: it never sheds
    assert ShardConfig().serve_config(0, requests=500).max_pending == 500


def test_latency_summary_nearest_rank():
    summary = latency_summary(np.arange(100, dtype=np.float64) / 1000.0)
    assert summary["count"] == 100
    assert summary["p50_s"] == pytest.approx(0.049)
    assert summary["p95_s"] == pytest.approx(0.094)
    assert summary["p99_s"] == pytest.approx(0.098)
    assert summary["max_s"] == pytest.approx(0.099)
    empty = latency_summary(np.zeros(0))
    assert empty["count"] == 0
    assert empty["p99_s"] == 0.0


# ----------------------------------------------------------------------
# partition equality: N shards == single process, bitwise
# ----------------------------------------------------------------------
def tiny_setup(model_seed: int = 1):
    pc_vocab = Vocab(cap=len(PCS) + 1).fit(PCS)
    page_vocab = Vocab(cap=len(PAGES) + 1).fit(PAGES)
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            num_offsets=NUM_OFFSETS,
            embed_dim=3,
            hidden_dim=4,
            history=3,
            attention_candidates=2,
            seed=model_seed,
        )
    )
    return model, pc_vocab, page_vocab


def tiny_workload(streams: int = 6, accesses: int = 18, seed: int = 7):
    rng = np.random.default_rng(seed)
    traces = [
        [
            MemoryAccess.from_pc_address(
                int(rng.choice(PCS)),
                join_address(
                    int(rng.choice(PAGES)), int(rng.integers(0, NUM_OFFSETS))
                ),
            )
            for _ in range(accesses)
        ]
        for _ in range(streams)
    ]
    # interleaved round-robin arrivals at a fixed (tiny) spacing
    total = streams * accesses
    stream_of = np.array(
        [i % streams for i in range(total)], dtype=np.int64
    )
    arrival_s = np.cumsum(np.full(total, 1e-6))
    return traces, arrival_s, stream_of


@pytest.fixture(scope="module")
def shard_setup():
    model, pc_vocab, page_vocab = tiny_setup()
    traces, arrival_s, stream_of = tiny_workload()
    single = run_sharded(
        model,
        pc_vocab,
        page_vocab,
        traces,
        arrival_s,
        stream_of,
        config=ShardConfig(shards=1),
    )
    return model, pc_vocab, page_vocab, traces, arrival_s, stream_of, single


def test_single_shard_run_shape(shard_setup):
    *_, single = shard_setup
    assert single["shards"] == 1
    assert single["inline"] is True
    assert single["requests"] == 108
    assert single["counters"]["responses"] == 108
    assert single["counters"]["shed"] == 0
    assert single["latency"]["count"] == 108
    assert len(single["per_shard"]) == 1
    assert single["aggregate_throughput_per_s"] > 0


@settings(max_examples=8, deadline=None)
@given(
    shards=st.integers(min_value=2, max_value=5),
    replicas=st.integers(min_value=1, max_value=16),
)
def test_any_partition_matches_single_process(shard_setup, shards, replicas):
    model, pc_vocab, page_vocab, traces, arrival_s, stream_of, single = (
        shard_setup
    )
    pooled = run_sharded(
        model,
        pc_vocab,
        page_vocab,
        traces,
        arrival_s,
        stream_of,
        config=ShardConfig(shards=shards, replicas=replicas),
        inline=True,  # hypothesis examples stay in-process for speed
    )
    assert pooled["candidates"] == single["candidates"]
    assert pooled["requests"] == single["requests"]
    assert pooled["counters"]["responses"] == 108
    assert pooled["counters"]["shed"] == 0


def test_sharded_seed_changes_reservoir_not_candidates(shard_setup):
    model, pc_vocab, page_vocab, traces, arrival_s, stream_of, single = (
        shard_setup
    )
    reseeded = run_sharded(
        model,
        pc_vocab,
        page_vocab,
        traces,
        arrival_s,
        stream_of,
        config=ShardConfig(shards=2),
        seed=99,
        inline=True,
    )
    assert reseeded["candidates"] == single["candidates"]


@pytest.mark.slow
def test_pooled_two_shard_run_matches_single_process(shard_setup):
    """The real ProcessPoolExecutor path (forked workers) stays exact."""
    model, pc_vocab, page_vocab, traces, arrival_s, stream_of, single = (
        shard_setup
    )
    pooled = run_sharded(
        model,
        pc_vocab,
        page_vocab,
        traces,
        arrival_s,
        stream_of,
        config=ShardConfig(shards=2),
        inline=False,
    )
    assert pooled["inline"] is False
    assert pooled["candidates"] == single["candidates"]
    assert pooled["counters"]["responses"] == single["counters"]["responses"]


# ----------------------------------------------------------------------
# a failed worker: one error that names its shard, and nothing hangs
# ----------------------------------------------------------------------
SHARD_WORKER = shard_mod._shard_worker


def exiting_worker(payload):
    """Forked workers inherit this in place of ``_shard_worker``."""
    os._exit(3)


def raising_worker(payload):
    """Fails on the shard that owns stream ``s0``; the other serves."""
    if "s0" in payload["stream_ids"]:
        raise RuntimeError("worker blew up")
    return SHARD_WORKER(payload)


@pytest.mark.parametrize(
    "worker,message",
    [
        (exiting_worker, r"shard \d of 2 failed: BrokenProcessPool"),
        (raising_worker, "shard {s0} of 2 failed: RuntimeError: worker blew up"),
    ],
    ids=["exit", "raise"],
)
def test_failed_shard_worker_is_one_error_naming_the_shard(
    shard_setup, monkeypatch, worker, message
):
    model, pc_vocab, page_vocab, traces, arrival_s, stream_of, _ = shard_setup
    monkeypatch.setattr(shard_mod, "_shard_worker", worker)
    expected = message.format(s0=HashRing(2).shard_for("s0"))
    started = time.perf_counter()
    with pytest.raises(ShardError, match=expected):
        run_sharded(
            model,
            pc_vocab,
            page_vocab,
            traces,
            arrival_s,
            stream_of,
            config=ShardConfig(shards=2),
            inline=False,
        )
    assert time.perf_counter() - started < 10.0


# ----------------------------------------------------------------------
# drive_open_loop: the serving loop every shard runs
# ----------------------------------------------------------------------
def test_drive_open_loop_latency_is_from_arrival():
    """Latency counts queueing delay from the *scheduled* arrival."""
    model, pc_vocab, page_vocab = tiny_setup()
    traces, arrival_s, stream_of = tiny_workload(streams=2, accesses=6)
    server = PrefetchServer(model, pc_vocab, page_vocab)
    now = [0.0]

    def clock():
        now[0] += 1e-4
        return now[0]

    elapsed, candidates, latency_s, stats = drive_open_loop(
        server,
        ["s0", "s1"],
        traces,
        arrival_s,
        stream_of,
        clock=clock,
        sleep=lambda _: None,
    )
    assert elapsed > 0
    assert stats["responses"] == 12
    assert [len(c) for c in candidates] == [6, 6]
    assert latency_s.shape == (12,)
    # arrivals were ~0 but the injected clock advances 0.1ms per read,
    # so every request observes positive queueing latency
    assert np.all(latency_s > 0)
    # all 12 requests fit one tick and share a completion timestamp,
    # so the earliest arrival waited the longest — queueing is charged
    # from the scheduled arrival, not from dispatch
    assert latency_s[0] == latency_s.max()
    assert latency_s[0] - latency_s[-1] == pytest.approx(
        arrival_s[-1] - arrival_s[0]
    )
