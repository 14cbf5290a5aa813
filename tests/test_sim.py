"""Simulator tests: cache model units, invariants, and golden regression.

The golden test pins exact integer counters from a fixed-seed run of
both baselines through the simulator: every counter is deterministic
(no floats involved), so any behavioural change to the cache model,
queue, or accounting rules shows up as an exact mismatch.  Update the
constants here only for *intentional* semantic changes, and say why in
the commit message.
"""

import dataclasses

import numpy as np
import pytest

from voyager.baselines import NextLinePrefetcher
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import (
    DEMANDED,
    PREFETCHED,
    CacheConfig,
    NeuralPrefetcher,
    SetAssociativeCache,
    SimConfig,
    make_prefetcher,
    protocol_candidates,
    simulate,
)
from voyager.synthetic import page_cycle_trace, random_walk_trace, stride_trace
from voyager.train import train


# ----------------------------------------------------------------------
# cache model units
# ----------------------------------------------------------------------
def test_cache_miss_then_hit():
    cache = SetAssociativeCache(CacheConfig(num_sets=4, ways=2))
    assert cache.lookup(12) is None
    cache.fill(12)
    assert cache.lookup(12) is not None


def test_cache_blocks_map_to_sets_by_modulo():
    cache = SetAssociativeCache(CacheConfig(num_sets=4, ways=1))
    cache.fill(0)
    cache.fill(1)
    # Different sets: both survive despite ways=1.
    assert cache.contains(0) and cache.contains(1)
    cache.fill(4)  # same set as 0 -> evicts 0
    assert not cache.contains(0) and cache.contains(4)


def test_cache_lru_eviction_order():
    cache = SetAssociativeCache(CacheConfig(num_sets=1, ways=3))
    for block in (10, 20, 30):
        cache.fill(block)
    cache.lookup(10)  # promote 10 to MRU; LRU is now 20
    evicted = cache.fill(40)
    assert evicted is not None and evicted[0] == 20
    assert cache.contains(10)


def test_cache_contains_does_not_touch_lru():
    cache = SetAssociativeCache(CacheConfig(num_sets=1, ways=2))
    cache.fill(1)
    cache.fill(2)
    cache.contains(1)  # must NOT promote
    evicted = cache.fill(3)
    assert evicted is not None and evicted[0] == 1


def test_cache_refill_promotes_instead_of_evicting():
    cache = SetAssociativeCache(CacheConfig(num_sets=1, ways=2))
    cache.fill(1)
    cache.fill(2)
    assert cache.fill(1) is None  # resident: promote, no eviction
    evicted = cache.fill(3)
    assert evicted is not None and evicted[0] == 2


def test_cache_prefetch_fill_flags():
    """A prefetch fill is flagged prefetched but not yet demanded; its
    first demand hit reads those flags and marks it demanded."""
    cache = SetAssociativeCache(CacheConfig(num_sets=4, ways=2))
    cache.fill(20, prefetched=True)
    assert cache.lookup(20) == PREFETCHED
    assert cache.lookup(20) == PREFETCHED | DEMANDED
    cache.fill(21)
    assert cache.lookup(21) == DEMANDED


def test_cache_eviction_reports_unused_prefetch():
    cache = SetAssociativeCache(CacheConfig(num_sets=1, ways=1))
    cache.fill(5, prefetched=True)
    block, flags = cache.fill(6)
    assert block == 5
    assert flags == PREFETCHED
    cache.fill(7, prefetched=True)
    cache.lookup(7)
    assert cache.fill(8) == (7, PREFETCHED | DEMANDED)


def test_cache_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CacheConfig(num_sets=0, ways=1)
    with pytest.raises(ValueError):
        CacheConfig(num_sets=4, ways=0)


def test_sim_config_rejects_negative_knobs():
    for kwargs in (
        {"degree": -1},
        {"distance": -1},
        {"latency": -1},
        {"queue_capacity": -1},
    ):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


# ----------------------------------------------------------------------
# simulation invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["stride", "page_cycle", "random_walk"])
def test_no_prefetcher_reproduces_raw_miss_rate(trace_factory, workload):
    """Degree-0 invariant: an empty prefetcher changes nothing."""
    trace = trace_factory(workload, n=500, seed=3)
    none_result = simulate(trace, None)
    assert none_result.misses == none_result.baseline_misses
    assert none_result.issued_prefetches == 0
    assert none_result.coverage == 0.0
    # degree=0 with a real prefetcher is the same demand-only cache
    degree0 = simulate(trace, NextLinePrefetcher(), SimConfig(degree=0))
    assert degree0.misses == none_result.misses


def test_prefetched_misses_never_exceed_baseline_plus_pollution():
    trace = random_walk_trace(800, seed=5)
    result = simulate(trace, NextLinePrefetcher(), SimConfig())
    # Sanity: counters are internally consistent.
    assert result.useful_prefetches <= result.issued_prefetches
    assert 0 <= result.miss_rate <= 1
    assert 0 <= result.accuracy <= 1
    assert 0 <= result.timeliness <= 1


def test_distance_turns_late_prefetches_timely():
    """On a unit-stride stream, lookahead < latency means always late."""
    trace = stride_trace(600)
    near = simulate(
        trace, NextLinePrefetcher(), SimConfig(degree=1, distance=0, latency=8)
    )
    far = simulate(
        trace, NextLinePrefetcher(), SimConfig(degree=1, distance=8, latency=8)
    )
    assert near.timely_prefetches == 0 and near.late_prefetches > 0
    assert far.timeliness > 0.95
    assert far.coverage > 0.95 > near.coverage


def test_queue_capacity_drops_excess_prefetches():
    trace = stride_trace(300)
    tight = simulate(
        trace,
        NextLinePrefetcher(),
        SimConfig(degree=4, distance=8, latency=64, queue_capacity=2),
    )
    assert tight.dropped_prefetches > 0
    assert tight.issued_prefetches + tight.dropped_prefetches >= 300


def test_duplicate_candidates_are_not_reissued():
    # Next-line with degree 2, distance 0 repeatedly proposes overlapping
    # blocks; in-flight and resident filtering must deduplicate them.
    trace = stride_trace(100)
    result = simulate(
        trace, NextLinePrefetcher(), SimConfig(degree=2, distance=0, latency=4)
    )
    # At most one *new* block enters flight per access (+degree at the end).
    assert result.issued_prefetches <= len(trace) + 2


def test_sim_result_as_dict_is_complete():
    result = simulate(stride_trace(120), NextLinePrefetcher(), SimConfig())
    d = result.as_dict()
    for key in (
        "prefetcher",
        "accuracy",
        "coverage",
        "timeliness",
        "miss_rate",
        "baseline_miss_rate",
        "issued_prefetches",
    ):
        assert key in d
    assert d["prefetcher"] == "next_line"


def test_make_prefetcher_factory():
    assert make_prefetcher("next_line").name == "next_line"
    assert make_prefetcher("stride").name == "stride"
    with pytest.raises(ValueError):
        make_prefetcher("neural")  # needs model + vocabs
    with pytest.raises(ValueError):
        make_prefetcher("bogus")


# ----------------------------------------------------------------------
# golden fixed-seed regression (exact integers, no tolerance)
# ----------------------------------------------------------------------
GOLDEN_SIM = {
    # (workload, prefetcher): (misses, baseline_misses, issued, timely, late)
    # Default SimConfig: degree=2, distance=0, latency=8 — so unit-stride
    # prefetches are correct but late, exactly what the distance knob fixes.
    ("stride", "next_line"): (800, 800, 801, 0, 799),
    ("stride", "stride"): (800, 800, 799, 0, 797),
    ("page_cycle", "next_line"): (64, 64, 128, 0, 0),
    ("page_cycle", "stride"): (48, 64, 52, 16, 12),
    ("random_walk", "next_line"): (641, 695, 1237, 94, 17),
    ("random_walk", "stride"): (695, 695, 4, 0, 0),
}


@pytest.mark.parametrize("workload,kind", sorted(GOLDEN_SIM))
def test_golden_simulation_counters(trace_factory, workload, kind):
    trace = trace_factory(workload, n=800, seed=9)
    result = simulate(trace, make_prefetcher(kind), SimConfig())
    observed = (
        result.misses,
        result.baseline_misses,
        result.issued_prefetches,
        result.timely_prefetches,
        result.late_prefetches,
    )
    assert observed == GOLDEN_SIM[(workload, kind)]


# ----------------------------------------------------------------------
# neural prefetcher adapter
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_neural():
    from voyager.train import build_sequence_dataset

    trace = page_cycle_trace(400)
    dataset = build_sequence_dataset(trace, seq_len=32)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        seed=0,
    )
    model = HierarchicalModel(config)
    train(model, dataset, steps=40, batch_size=8, lr=0.02, tbptt=8)
    return trace, model, dataset


def test_neural_prefetcher_rollout_is_temporal(trained_neural):
    """Candidate list length grows with degree and is deterministic."""
    trace, model, dataset = trained_neural
    pf = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    for access in trace[:20]:
        pf.update(access)
    short = pf.prefetch(trace[19], degree=1)
    long = pf.prefetch(trace[19], degree=4)
    assert len(short) == 1 and len(long) <= 4
    assert long[:1] == short  # rollout prefix-stable
    assert pf.prefetch(trace[19], degree=4) == long  # deterministic


def test_neural_prefetcher_simulates_end_to_end(trained_neural):
    trace, model, dataset = trained_neural
    pf = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    result = simulate(trace, pf, SimConfig(degree=2, distance=2))
    assert result.prefetcher == "neural"
    assert result.issued_prefetches > 0
    assert result.misses <= result.baseline_misses + result.issued_prefetches


def test_stateful_prefetcher_validation(trained_neural):
    """The reset period is the model's own ``seq_len``: the carried
    state restarts from zero every ``seq_len`` accesses, counted from
    the first."""
    trace, model, dataset = trained_neural
    short = HierarchicalModel(dataclasses.replace(model.config, seq_len=5))
    short.params = model.params  # same weights, reset every 5 accesses
    pf = NeuralPrefetcher(short, dataset.pc_vocab, dataset.page_vocab)
    assert pf.seq_len == 5
    for access in trace[:6]:
        pf.update(access)
    fresh = NeuralPrefetcher(short, dataset.pc_vocab, dataset.page_vocab)
    fresh.update(trace[5])
    np.testing.assert_array_equal(pf._state.h, fresh._state.h)
    np.testing.assert_array_equal(pf._state.c, fresh._state.c)
    assert pf.prefetch(trace[5], 4) == fresh.prefetch(trace[5], 4)

    carried = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    assert carried.seq_len == model.config.seq_len == 32
    for access in trace[:6]:
        carried.update(access)
    assert not np.array_equal(carried._state.h, fresh._state.h)


def test_stateful_simulates_end_to_end(trained_neural):
    """``eval.simulate_model`` (the CLI's neural path) is ``simulate``
    over a NeuralPrefetcher with the model's reset rule, and the trained
    model earns coverage across the trace's dozen state resets."""
    from voyager.eval import simulate_model

    trace, model, dataset = trained_neural
    config = SimConfig(degree=2, distance=2)
    result = simulate_model(
        model, dataset.pc_vocab, dataset.page_vocab, trace, config
    )
    direct = simulate(
        trace,
        NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab),
        config,
    )
    assert result == direct
    assert result.prefetcher == "neural"
    assert result.issued_prefetches > 0
    assert result.coverage > 0.0
    assert result.misses <= result.baseline_misses + result.issued_prefetches


def test_stateful_prefetcher_predicts_from_first_access(trained_neural):
    """No warm-up: the carried state predicts from access 0."""
    trace, model, dataset = trained_neural
    pf = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    assert pf.prefetch(trace[0], degree=2) == []  # nothing observed yet
    pf.update(trace[0])
    assert len(pf.prefetch(trace[0], degree=2)) <= 2


def test_stateful_streaming_and_primed_candidates_agree(trained_neural):
    """The batched ``offline_candidates`` table (one segment_states
    scan) preserves per-position predictions of the streaming
    prefetcher, across state resets."""
    trace, model, dataset = trained_neural

    def make():
        return NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)

    batched = make().offline_candidates(trace, 4, 0)
    assert batched == protocol_candidates(make(), trace, 4, 0)


def test_simulate_leaves_the_streaming_state_alone(trained_neural):
    """After ``simulate``, streaming another trace through the same
    prefetcher answers exactly like a fresh one: building the candidate
    table does not touch the streaming state."""
    trace, model, dataset = trained_neural
    used = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    simulate(trace, used, SimConfig(degree=2, distance=2))
    fresh = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    for t, access in enumerate(random_walk_trace(200, seed=3)):
        used.update(access)
        fresh.update(access)
        assert used.prefetch(access, 4) == fresh.prefetch(access, 4), t
