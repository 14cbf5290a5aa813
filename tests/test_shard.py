"""Shard-pool tests: partition equality, per-shard sizing, pooled smoke.

The pool's contract: because the engine computes every batch row as
it would alone, *any* stream->shard partition replaying the same
open-loop schedule produces candidates bitwise-equal to a
single-process server.  The hypothesis property drives that over
every pool size from 2 shards to more shards than streams, and checks
the round-robin split's balance; the unit tests pin the pooled
multi-process path and a failed worker's one error.
"""

import os
import time

import numpy as np
import pytest

import voyager.shard as shard_mod
from voyager.model import HierarchicalModel, ModelConfig
from voyager.serve import PrefetchServer, drive_open_loop
from voyager.shard import (
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
# shard config
# ----------------------------------------------------------------------
def test_shard_config_validation():
    with pytest.raises(ValueError, match="shards"):
        ShardConfig(shards=0)
    # the rest is delegated to ServeConfig at construction time
    with pytest.raises(ValueError, match="degree"):
        ShardConfig(degree=0)


def test_shard_config_sizes_each_server_to_its_shard():
    """A shard's server admits exactly its streams, and its backlog
    holds its whole sub-schedule, so it never sheds."""
    config = ShardConfig().serve_config(0, streams=24, requests=500)
    assert config.max_sessions == 24
    assert config.max_pending == 500


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
@given(shards=st.integers(min_value=2, max_value=8))
def test_any_partition_matches_single_process(shard_setup, shards):
    """Over 6 streams, 7 and 8 shards leave shards with no streams."""
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
        config=ShardConfig(shards=shards),
        inline=True,  # hypothesis examples stay in-process for speed
    )
    assert pooled["candidates"] == single["candidates"]
    assert pooled["requests"] == single["requests"]
    assert pooled["counters"]["responses"] == 108
    assert pooled["counters"]["shed"] == 0
    # the round-robin split: every stream served once, balanced to one
    counts = [entry["streams"] for entry in pooled["per_shard"]]
    counts += [0] * (shards - len(counts))  # shards with no streams
    assert sum(counts) == len(traces)
    assert max(counts) - min(counts) <= 1


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
    """Fails on the shard that owns stream ``s0`` (shard 0); the other
    serves."""
    if "s0" in payload["stream_ids"]:
        raise RuntimeError("worker blew up")
    return SHARD_WORKER(payload)


@pytest.mark.parametrize(
    "worker,message",
    [
        (exiting_worker, r"shard \d of 2 failed: BrokenProcessPool"),
        (raising_worker, "shard 0 of 2 failed: RuntimeError: worker blew up"),
    ],
    ids=["exit", "raise"],
)
def test_failed_shard_worker_is_one_error_naming_the_shard(
    shard_setup, monkeypatch, worker, message
):
    model, pc_vocab, page_vocab, traces, arrival_s, stream_of, _ = shard_setup
    monkeypatch.setattr(shard_mod, "_shard_worker", worker)
    started = time.perf_counter()
    with pytest.raises(ShardError, match=message):
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
