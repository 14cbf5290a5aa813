"""Candidate-table tests: every ``offline_candidates`` hook equals the protocol.

:func:`voyager.sim.simulate` first builds the candidate table — the
blocks to issue at each trace position — from the prefetcher's
``offline_candidates`` hook (the vectorised or batched "kernel"), or,
without one, with :func:`voyager.sim.protocol_candidates`, which
replays ``update`` then ``prefetch`` per access (the "streaming"
protocol).  A hook is a batching transform only: ``simulate`` of a
prefetcher must equal ``simulate`` of the same prefetcher with its hook
hidden, counter for counter, on every workload and issue policy.
"""

import dataclasses

import pytest

from voyager.baselines import NextLinePrefetcher, StridePrefetcher
from voyager.distill import FALLBACKS, DistillConfig, TablePrefetcher
from voyager.labeling import LabelConfig
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import (
    NeuralPrefetcher,
    SimConfig,
    make_prefetcher,
    protocol_candidates,
    simulate,
)
from voyager.synthetic import WORKLOADS, generate
from voyager.train import build_sequence_dataset, train

CONFIGS = (
    SimConfig(),
    SimConfig(degree=2, distance=8, latency=8),  # bench issue policy
    SimConfig(degree=4, distance=3, latency=12, queue_capacity=4),
)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("kind", ("next_line", "stride"))
def test_kernel_matches_streaming_for_baselines(workload, kind, protocol_only):
    trace = generate(workload, 1500, seed=11)
    for config in CONFIGS:
        replay = simulate(trace, protocol_only(make_prefetcher(kind)), config)
        hooked = simulate(trace, make_prefetcher(kind), config)
        assert hooked == replay


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
def test_kernel_matches_streaming_for_neural(tiny_neural, config, protocol_only):
    trace, model, dataset = tiny_neural

    def fresh():
        return NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)

    hooked = simulate(trace, fresh(), config)
    assert hooked == simulate(trace, protocol_only(fresh()), config)
    assert hooked.issued_prefetches > 0


def test_stride_offline_falls_back_when_table_overflows(protocol_only):
    trace = generate("interleaved_mix", 600, seed=9)
    small = StridePrefetcher(max_entries=2)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert small.offline_candidates(trace, 2, 0) is None
    assert small.fallback  # latched for bench reporting
    for config in CONFIGS:
        # simulate replays the protocol instead (loudly: it warns), so
        # the two-entry table's evictions show in the counters
        with pytest.warns(RuntimeWarning, match="falling back"):
            overflow = simulate(trace, StridePrefetcher(max_entries=2), config)
        replay = simulate(
            trace, protocol_only(StridePrefetcher(max_entries=2)), config
        )
        assert overflow == replay
        assert overflow != simulate(trace, StridePrefetcher(), config)


def test_prefetcher_without_hook_replays_the_protocol():
    """No hook: ``update`` then ``prefetch(access, degree + distance)``
    once per access, in trace order; ``degree=0`` asks nothing."""

    class Recorder:
        name = "recorder"

        def __init__(self):
            self.calls = []

        def update(self, access):
            self.calls.append(("update", access))

        def prefetch(self, access, degree=1):
            self.calls.append(("prefetch", access, degree))
            return [access.block + k for k in range(1, degree + 1)]

    trace = generate("stride", 100, seed=0)
    recorder = Recorder()
    config = SimConfig(degree=2, distance=3)
    result = simulate(trace, recorder, config)
    assert recorder.calls == [
        call for a in trace for call in (("update", a), ("prefetch", a, 5))
    ]
    # it answers like next_line, whose hook gives the same counters
    assert dataclasses.replace(result, prefetcher="next_line") == simulate(
        trace, NextLinePrefetcher(), config
    )
    silent = Recorder()
    simulate(trace, silent, SimConfig(degree=0))
    assert silent.calls == []


def test_offline_candidates_match_streaming_protocol(
    tiny_neural, distill_model
):
    """Row t of every hook equals ``protocol_candidates`` row t:
    ``update(trace[t])``, then ``prefetch(trace[t], want)[distance:]``."""
    _, model, dataset = tiny_neural
    trace = generate("page_cycle", 300, seed=2)
    degree, distance = 3, 2
    tables = [
        distill_model(
            model,
            dataset.pc_vocab,
            dataset.page_vocab,
            trace,
            DistillConfig(depths=(2, 1), top_k=6, table_size=64, fallback=fallback),
        )
        for fallback in FALLBACKS
    ]
    makers = [NextLinePrefetcher, StridePrefetcher] + [
        (lambda table=table: TablePrefetcher(table)) for table in tables
    ]
    makers.append(
        lambda: NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    )
    for make in makers:
        rows = make().offline_candidates(trace, degree, distance)
        expected = protocol_candidates(make(), trace, degree, distance)
        assert len(rows) == len(trace)
        for t, (row, want) in enumerate(zip(rows, expected)):
            # stride rows are -1-padded where the protocol returns []:
            # neither issues anything
            assert [c for c in row if c >= 0] == [c for c in want if c >= 0], t


def test_profile_records_phases_for_both_paths(protocol_only):
    trace = generate("stride", 500, seed=1)
    for prefetcher in (NextLinePrefetcher(), protocol_only(NextLinePrefetcher())):
        profiled = simulate(trace, prefetcher, profile=True)
        assert set(profiled.phases) == {"encode_s", "candidates_s", "cache_loop_s"}
        assert "phases" in profiled.as_dict()
    unprofiled = simulate(trace, NextLinePrefetcher())
    assert unprofiled.phases is None
    assert "phases" not in unprofiled.as_dict()


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
