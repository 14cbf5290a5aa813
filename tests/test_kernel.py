"""Kernel fast-path tests: ArrayCache semantics + streaming equivalence.

The kernel path (`simulate(..., use_kernel=True)`) must produce
bit-identical `SimResult` counters to the streaming reference path on
every workload and prefetcher — that equivalence is the whole contract
that lets the simulator default to the fast path.
"""

import numpy as np
import pytest

from voyager.baselines import NextLinePrefetcher, StridePrefetcher
from voyager.labeling import LabelConfig
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import (
    ArrayCache,
    CacheConfig,
    NeuralPrefetcher,
    SetAssociativeCache,
    SimConfig,
    make_prefetcher,
    simulate,
)
from voyager.synthetic import WORKLOADS, generate
from voyager.train import build_sequence_dataset, train


# ----------------------------------------------------------------------
# ArrayCache unit semantics (mirrors the SetAssociativeCache units)
# ----------------------------------------------------------------------
def test_array_cache_miss_then_hit():
    cache = ArrayCache(CacheConfig(num_sets=4, ways=2))
    assert cache.lookup(10) is None
    assert cache.fill(10) is None
    assert cache.contains(10)
    assert 10 in cache
    prefetched, demanded = cache.lookup(10)
    assert not prefetched
    assert demanded  # demand fill marks the line demanded


def test_array_cache_prefetch_fill_flags():
    cache = ArrayCache(CacheConfig(num_sets=4, ways=2))
    cache.fill(20, prefetched=True)
    prefetched, demanded = cache.lookup(20)
    assert prefetched
    assert not demanded
    cache.set_demanded(20)
    assert cache.lookup(20) == (True, True)


def test_array_cache_lru_eviction_order():
    cache = ArrayCache(CacheConfig(num_sets=1, ways=2))
    cache.fill(1)
    cache.fill(2)
    evicted = cache.fill(3)  # block 1 is LRU
    assert evicted is not None and evicted[0] == 1
    assert not cache.contains(1)
    assert cache.resident_blocks() == [2, 3]


def test_array_cache_lookup_promotes_contains_does_not():
    cache = ArrayCache(CacheConfig(num_sets=1, ways=2))
    cache.fill(1)
    cache.fill(2)
    cache.lookup(1)  # promote 1 to MRU
    assert cache.fill(3)[0] == 2
    cache2 = ArrayCache(CacheConfig(num_sets=1, ways=2))
    cache2.fill(1)
    cache2.fill(2)
    cache2.contains(1)  # no promotion
    assert cache2.fill(3)[0] == 1


def test_array_cache_refill_promotes_without_eviction():
    cache = ArrayCache(CacheConfig(num_sets=1, ways=2))
    cache.fill(1)
    cache.fill(2)
    assert cache.fill(1) is None  # resident refill: promote only
    assert cache.fill(3)[0] == 2


def test_array_cache_eviction_reports_unused_prefetch():
    cache = ArrayCache(CacheConfig(num_sets=1, ways=1))
    cache.fill(5, prefetched=True)
    evicted = cache.fill(6)
    assert evicted == (5, True, False)


def test_array_cache_sets_are_independent():
    cache = ArrayCache(CacheConfig(num_sets=2, ways=1))
    cache.fill(0)  # set 0
    cache.fill(1)  # set 1
    assert cache.contains(0) and cache.contains(1)
    assert cache.fill(2)[0] == 0  # 2 maps to set 0, evicts 0 only
    assert cache.contains(1)


def test_array_cache_matches_reference_on_a_mixed_sequence():
    config = CacheConfig(num_sets=2, ways=2)
    ref = SetAssociativeCache(config)
    arr = ArrayCache(config)
    rng = np.random.default_rng(0)
    for block in rng.integers(0, 12, size=200):
        block = int(block)
        ref_line = ref.lookup(block)
        arr_flags = arr.lookup(block)
        assert (ref_line is None) == (arr_flags is None)
        if ref_line is None:
            ref_ev = ref.fill(block)
            arr_ev = arr.fill(block)
            assert (ref_ev is None) == (arr_ev is None)
            if ref_ev is not None:
                assert arr_ev == (
                    ref_ev[0], ref_ev[1].prefetched, ref_ev[1].demanded
                )
        assert ref.resident_blocks() == arr.resident_blocks()


# ----------------------------------------------------------------------
# kernel vs streaming equivalence
# ----------------------------------------------------------------------
CONFIGS = (
    SimConfig(),
    SimConfig(degree=2, distance=8, latency=8),  # bench issue policy
    SimConfig(degree=4, distance=3, latency=12, queue_capacity=4),
)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("kind", ("next_line", "stride"))
def test_kernel_matches_streaming_for_baselines(workload, kind):
    trace = generate(workload, 1500, seed=11)
    for config in CONFIGS:
        slow = simulate(trace, make_prefetcher(kind), config, use_kernel=False)
        fast = simulate(trace, make_prefetcher(kind), config, use_kernel=True)
        assert fast == slow


@pytest.fixture(scope="module")
def tiny_neural():
    trace = generate("stride", 400, seed=5)
    dataset = build_sequence_dataset(trace, label_config=LabelConfig())
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=dataset.pc_vocab.size,
            page_vocab_size=dataset.page_vocab.size,
            embed_dim=8,
            hidden_dim=16,
            seed=5,
        )
    )
    train(model, dataset, steps=15, batch_size=16, seed=5)
    return trace, model, dataset


@pytest.mark.parametrize("config", CONFIGS)
def test_kernel_matches_streaming_for_neural(tiny_neural, config):
    trace, model, dataset = tiny_neural

    def fresh():
        return NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)

    slow = simulate(trace, fresh(), config, use_kernel=False)
    fast = simulate(trace, fresh(), config, use_kernel=True)
    default = simulate(trace, fresh(), config)
    assert fast == slow
    assert default == slow  # the default takes the kernel path


def test_default_dispatch_equals_both_paths_on_all_workloads():
    for workload in WORKLOADS:
        trace = generate(workload, 1200, seed=3)
        for kind in ("next_line", "stride"):
            slow = simulate(trace, make_prefetcher(kind), use_kernel=False)
            default = simulate(trace, make_prefetcher(kind))
            assert default == slow, (workload, kind)


def test_stride_offline_falls_back_when_table_overflows():
    trace = generate("random_walk", 600, seed=9)
    small = StridePrefetcher(max_entries=2)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert small.offline_candidates(trace, 2, 0) is None
    assert small.fallback  # latched for bench reporting
    # default dispatch falls back to streaming (loudly: it warns)...
    with pytest.warns(RuntimeWarning, match="falling back"):
        fallback = simulate(trace, StridePrefetcher(max_entries=2))
    slow = simulate(trace, StridePrefetcher(max_entries=2), use_kernel=False)
    assert fallback == slow
    # ...but a forced kernel refuses
    with pytest.warns(RuntimeWarning, match="falling back"):
        with pytest.raises(ValueError, match="use_kernel=True"):
            simulate(trace, StridePrefetcher(max_entries=2), use_kernel=True)


def test_forced_kernel_rejects_streaming_only_prefetcher():
    class Opaque:
        name = "opaque"

        def update(self, access):
            return None

        def prefetch(self, access, degree=1):
            return []

    trace = generate("stride", 100, seed=0)
    with pytest.raises(ValueError, match="offline"):
        simulate(trace, Opaque(), use_kernel=True)
    # the streaming fallback handles it fine
    result = simulate(trace, Opaque())
    assert result.issued_prefetches == 0


def test_offline_candidates_match_streaming_protocol():
    """Row t equals update(trace[t]); prefetch(trace[t], want)[distance:]."""
    trace = generate("page_cycle", 300, seed=2)
    degree, distance = 3, 2
    want = degree + distance
    for offline, streaming in (
        (NextLinePrefetcher(), NextLinePrefetcher()),
        (StridePrefetcher(), StridePrefetcher()),
    ):
        rows = offline.offline_candidates(trace, degree, distance)
        assert len(rows) == len(trace)
        for t, access in enumerate(trace):
            streaming.update(access)
            expected = streaming.prefetch(access, want)[distance:want]
            got = [c for c in rows[t] if c >= 0]
            assert got == [c for c in expected if c >= 0], t


def test_profile_records_phases_for_both_paths():
    trace = generate("stride", 500, seed=1)
    fast = simulate(trace, NextLinePrefetcher(), profile=True)
    assert set(fast.phases) == {"encode_s", "candidates_s", "cache_loop_s"}
    slow = simulate(trace, NextLinePrefetcher(), profile=True, use_kernel=False)
    assert "cache_loop_s" in slow.phases
    unprofiled = simulate(trace, NextLinePrefetcher())
    assert unprofiled.phases is None
    assert "phases" not in unprofiled.as_dict()
    assert "phases" in fast.as_dict()


def test_phases_do_not_affect_counters():
    trace = generate("random_walk", 800, seed=4)
    plain = simulate(trace, make_prefetcher("stride"))
    profiled = simulate(trace, make_prefetcher("stride"), profile=True)
    for name in (
        "misses",
        "baseline_misses",
        "issued_prefetches",
        "timely_prefetches",
        "late_prefetches",
        "dropped_prefetches",
        "evicted_unused_prefetches",
    ):
        assert getattr(plain, name) == getattr(profiled, name)
