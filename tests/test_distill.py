"""Distillation tests: tolerance-based equivalence + table properties.

Distillation is this repo's first *approximate* fast path, so the
contract is different from the bit-exact tiers: the tests pin what
stays exact — every stored candidate list is a real engine rollout of
some build-trace position whose context matches (never a blend), a
deepest-depth hit on a context whose build-trace rollouts agree
reproduces that rollout bit for bit, and the table prefetcher's
candidate-table hook agrees with the per-access protocol — plus
hypothesis property
tests over table build, lookup fallback order, serialization and the
frontier/budget plumbing in :mod:`voyager.bench`.
"""

import dataclasses
import json

import pytest

from voyager.baselines import StridePrefetcher, next_line_candidates
from voyager.bench import (
    BENCH_SCHEMA_VERSION,
    FRONTIER_DEPTHS,
    FRONTIER_TABLE_SIZES,
    SMOKE_PROFILE,
    BenchProfile,
    bench_workload,
    check_distill_budget,
    merge_report,
    run_bench,
    validate_report,
)
from voyager.distill import (
    FALLBACKS,
    DistillConfig,
    DistilledTable,
    TablePrefetcher,
    build_table,
    context_key,
    depth_chain,
)
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import (
    NeuralPrefetcher,
    SimConfig,
    make_prefetcher,
    protocol_candidates,
    simulate,
)
from voyager.synthetic import generate
from voyager.traces import BLOCK_BITS, MemoryAccess
from voyager.train import build_vocabs
from voyager.vocab import Vocab

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

TOP_K = 6
#: Short enough that every 300-access build trace crosses several
#: state resets.
SEQ_LEN = 16


def distill_setup(workload: str = "stride", n: int = 300, seed: int = 0):
    """Untrained tiny model + vocabs fitted to a real synthetic trace.

    Distillation compiles whatever the model computes — training is
    irrelevant to every property under test, so skipping it keeps the
    suite fast.
    """
    trace = generate(workload, n, seed=seed)
    pc_vocab, page_vocab = build_vocabs(trace)
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            embed_dim=4,
            hidden_dim=6,
            seed=seed,
            seq_len=SEQ_LEN,
        )
    )
    return model, pc_vocab, page_vocab, trace


def engine_rollouts(model, pc_vocab, page_vocab, trace, k):
    """Reference rollouts per trace position: the batched candidate
    table the simulator issues from (pinned against the streaming
    protocol in ``test_kernel``)."""
    return NeuralPrefetcher(model, pc_vocab, page_vocab).offline_candidates(
        trace, k, 0
    )


def streaming_rollouts(model, pc_vocab, page_vocab, trace, k):
    """Reference rollouts per position from the *streaming* prefetcher:
    one cell step per access, state reset every ``seq_len`` accesses."""
    return protocol_candidates(
        NeuralPrefetcher(model, pc_vocab, page_vocab), trace, k, 0
    )


def encoded_triples(pc_vocab, page_vocab, trace):
    return [
        (pc_vocab.encode(a.pc), page_vocab.encode(a.page), a.offset)
        for a in trace
    ]


# ----------------------------------------------------------------------
# config and key plumbing
# ----------------------------------------------------------------------
def test_depth_chain_counts_down_to_one():
    assert depth_chain(1) == (1,)
    assert depth_chain(4) == (4, 3, 2, 1)


def test_depth_chain_rejects_nonpositive():
    with pytest.raises(ValueError, match="max_depth"):
        depth_chain(0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"depths": ()},
        {"depths": (2, 0)},
        {"depths": (1, 2)},  # not decreasing
        {"depths": (2, 2, 1)},  # duplicate
        {"table_size": 0},
        {"top_k": 0},
        {"fallback": "teleport"},
    ],
)
def test_distill_config_validation(kwargs):
    with pytest.raises(ValueError):
        DistillConfig(**kwargs)


def test_distill_config_max_depth():
    assert DistillConfig(depths=(5, 3, 1)).max_depth == 5


def test_context_key_interleaves_oldest_first():
    pcs, pages, offs = [10, 11, 12], [20, 21, 22], [1, 2, 3]
    assert context_key(pcs, pages, offs, end=2, depth=2) == (
        11, 21, 2, 12, 22, 3,
    )
    assert context_key(pcs, pages, offs, end=0, depth=1) == (10, 20, 1)


# ----------------------------------------------------------------------
# build: equivalence with the engine rollout
# ----------------------------------------------------------------------
def test_build_table_short_trace_is_empty(distill_model):
    model, pc_vocab, page_vocab, trace = distill_setup(n=300)
    table = distill_model(
        model, pc_vocab, page_vocab, trace[:0], DistillConfig(depths=(2, 1))
    )
    assert table.total_entries == 0
    assert table.entries == {2: 0, 1: 0}


def test_build_table_wants_one_row_per_access():
    """The distiller reads a teacher's rows, one per trace position: a
    row count that differs from the trace is an error, not a table."""
    _, pc_vocab, page_vocab, trace = distill_setup(n=300)
    rows = [[access.block + 1] for access in trace]
    assert build_table(rows, pc_vocab, page_vocab, trace).total_entries > 0
    for bad in (rows[:-1], rows + [[0]]):
        with pytest.raises(ValueError, match="one row per access"):
            build_table(bad, pc_vocab, page_vocab, trace)


@pytest.mark.parametrize("workload", ["stride", "page_cycle", "random_walk"])
def test_full_depth_hit_reproduces_engine_rollout_bit_exactly(
    workload, distill_model
):
    """A deepest-depth context whose build-trace positions all roll out
    the same candidates is stored exactly: its table hit equals the
    engine's rollout at every such position, bit for bit.  (A context
    whose positions disagree — their carried states differ — stores the
    modal list instead; see the next test.)"""
    depth = 4
    model, pc_vocab, page_vocab, trace = distill_setup(workload)
    config = DistillConfig(depths=(depth, 1), top_k=TOP_K, table_size=10_000)
    table = distill_model(model, pc_vocab, page_vocab, trace, config)
    rollouts = engine_rollouts(model, pc_vocab, page_vocab, trace, TOP_K)
    triples = encoded_triples(pc_vocab, page_vocab, trace)

    outcomes = {}
    for pos in range(depth - 1, len(trace)):
        key = tuple(triples[pos - depth + 1 : pos + 1])
        outcomes.setdefault(key, set()).add(tuple(rollouts[pos]))
    checked = 0
    for pos in range(depth - 1, len(trace)):
        context = triples[pos - depth + 1 : pos + 1]
        if len(outcomes[tuple(context)]) != 1:
            continue
        hit, hit_depth = table.lookup(context)
        assert hit_depth == depth
        assert hit == rollouts[pos]
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("workload", ["stride", "random_walk"])
def test_every_stored_list_is_a_real_engine_rollout(workload, distill_model):
    """No blending: each entry (any depth) equals the engine rollout of
    at least one build-trace position whose trailing triples match the
    key."""
    model, pc_vocab, page_vocab, trace = distill_setup(workload, seed=3)
    config = DistillConfig(depths=(3, 2, 1), top_k=TOP_K, table_size=10_000)
    table = distill_model(model, pc_vocab, page_vocab, trace, config)
    rollouts = engine_rollouts(model, pc_vocab, page_vocab, trace, TOP_K)
    triples = encoded_triples(pc_vocab, page_vocab, trace)

    # group the real rollouts by context key per depth
    seen = {depth: {} for depth in config.depths}
    for pos in range(len(trace)):
        for depth in config.depths:
            if depth > pos + 1:
                continue
            key = tuple(
                v for t in triples[pos - depth + 1 : pos + 1] for v in t
            )
            seen[depth].setdefault(key, []).append(tuple(rollouts[pos]))

    assert table.total_entries > 0
    for depth, entries in table.tables.items():
        for key, cands in entries.items():
            assert cands in seen[depth][key]


def test_table_size_caps_each_depth_by_frequency(distill_model):
    model, pc_vocab, page_vocab, trace = distill_setup("page_cycle")
    small = distill_model(
        model, pc_vocab, page_vocab, trace,
        DistillConfig(depths=(2, 1), table_size=3, top_k=2),
    )
    full = distill_model(
        model, pc_vocab, page_vocab, trace,
        DistillConfig(depths=(2, 1), table_size=100_000, top_k=2),
    )
    for depth in (2, 1):
        assert len(small.tables[depth]) <= 3
        # the kept contexts are a subset of the uncapped table and agree
        for key, cands in small.tables[depth].items():
            assert full.tables[depth][key] == cands


# ----------------------------------------------------------------------
# lookup: deepest-first fallback order (model-free property tests)
# ----------------------------------------------------------------------
def manual_table(tables, depths=(2, 1), fallback="none"):
    config = DistillConfig(depths=depths, fallback=fallback)
    return DistilledTable(
        config,
        Vocab(cap=8).fit([1, 2]),
        Vocab(cap=8).fit([3, 4]),
        tables={d: tables.get(d, {}) for d in depths},
    )


def test_lookup_prefers_deepest_hit():
    table = manual_table(
        {
            2: {(1, 1, 1, 2, 2, 2): (100,)},
            1: {(2, 2, 2): (200,)},
        }
    )
    cands, depth = table.lookup([(1, 1, 1), (2, 2, 2)])
    assert (cands, depth) == ([100], 2)


def test_lookup_falls_through_to_shallower_depth():
    table = manual_table({1: {(2, 2, 2): (200,)}})
    cands, depth = table.lookup([(9, 9, 9), (2, 2, 2)])
    assert (cands, depth) == ([200], 1)


def test_lookup_short_context_skips_deep_tables():
    table = manual_table(
        {
            2: {(1, 1, 1, 2, 2, 2): (100,)},
            1: {(1, 1, 1): (300,)},
        }
    )
    cands, depth = table.lookup([(1, 1, 1)])
    assert (cands, depth) == ([300], 1)


def test_lookup_miss_and_empty_context():
    table = manual_table({1: {(1, 1, 1): (300,)}})
    assert table.lookup([]) == (None, None)
    assert table.lookup([(5, 5, 5)]) == (None, None)


@settings(max_examples=50)
@given(
    triples=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=6,
    )
)
def test_lookup_returns_first_configured_depth_that_hits(triples):
    """Model-free property: lookup == a hand-rolled deepest-first scan
    over the same tables."""
    tables = {
        2: {(0, 0, 0, 1, 1, 1): (7,), (1, 1, 1, 1, 1, 1): (8,)},
        1: {(1, 1, 1): (9,), (2, 2, 2): (10,)},
    }
    table = manual_table(tables)
    expected = (None, None)
    for depth in (2, 1):
        if len(triples) < depth:
            continue
        key = tuple(v for t in triples[len(triples) - depth :] for v in t)
        hit = tables[depth].get(key)
        if hit is not None:
            expected = (list(hit), depth)
            break
    assert table.lookup(triples) == expected


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path, distill_model):
    model, pc_vocab, page_vocab, trace = distill_setup()
    table = distill_model(
        model, pc_vocab, page_vocab, trace,
        DistillConfig(depths=(2, 1), top_k=3),
    )
    path = table.save(tmp_path / "t.json")
    loaded = DistilledTable.load(path)
    assert loaded.config == table.config
    assert loaded.tables == table.tables
    assert loaded.pc_vocab.to_dict() == pc_vocab.to_dict()
    assert loaded.page_vocab.to_dict() == page_vocab.to_dict()


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="not found"):
        DistilledTable.load(tmp_path / "absent.json")


def test_load_corrupt_json_raises_value_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        DistilledTable.load(path)


def test_load_wrong_schema_raises(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema_version": 999}), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported table schema"):
        DistilledTable.load(path)


def test_load_missing_fields_raises(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"schema_version": 1}), encoding="utf-8")
    with pytest.raises(ValueError, match="corrupt or incomplete"):
        DistilledTable.load(path)


# ----------------------------------------------------------------------
# TablePrefetcher: protocol, fallbacks, candidate-table equivalence
# ----------------------------------------------------------------------
def test_prefetcher_cold_and_degree_zero():
    table = manual_table({1: {(1, 1, 1): (300,)}})
    pf = TablePrefetcher(table)
    access = generate("stride", 5)[0]
    assert pf.prefetch(access, 0) == []
    assert pf.prefetch(access, 2) == []  # no update yet -> cold
    assert pf.stats == {"cold": 1}
    assert pf.hit_rate == 0.0


def test_prefetcher_stride_fallback_matches_baseline():
    table = manual_table({1: {}}, depths=(1,), fallback="stride")
    pf, ref = TablePrefetcher(table), StridePrefetcher()
    for access in generate("stride", 50):
        pf.update(access)
        ref.update(access)
        assert pf.prefetch(access, 3) == ref.prefetch(access, 3)
    assert pf.stats == {"stride": 50}


def test_prefetcher_next_line_fallback():
    table = manual_table({1: {}}, depths=(1,), fallback="next_line")
    pf = TablePrefetcher(table)
    access = generate("stride", 5)[0]
    pf.update(access)
    assert pf.prefetch(access, 2) == next_line_candidates(access.block, 2)


def test_prefetcher_none_fallback_returns_nothing():
    table = manual_table({1: {}}, depths=(1,), fallback="none")
    pf = TablePrefetcher(table)
    access = generate("stride", 5)[0]
    pf.update(access)
    assert pf.prefetch(access, 2) == []
    assert pf.stats == {"none": 1}


def test_hit_rate_counts_depth_sources_only():
    table = manual_table({1: {(1, 1, 1): (300,)}})
    pf = TablePrefetcher(table)
    pf.stats = {"depth1": 3, "depth2": 1, "stride": 4}
    assert pf.hit_rate == 0.5


@pytest.mark.parametrize("fallback", FALLBACKS)
@pytest.mark.parametrize("workload", ["stride", "random_walk"])
def test_kernel_and_streaming_paths_are_bit_identical(
    workload, fallback, protocol_only, distill_model
):
    """The candidate-table hook and the per-access protocol give equal
    counters and equal lookup stats."""
    model, pc_vocab, page_vocab, trace = distill_setup(workload, seed=2)
    config = DistillConfig(
        depths=(3, 1), top_k=TOP_K, table_size=64, fallback=fallback
    )
    table = distill_model(model, pc_vocab, page_vocab, trace, config)
    sim_config = SimConfig(degree=2, distance=3, latency=4)
    pf_hooked = TablePrefetcher(table)
    hooked = simulate(trace, pf_hooked, sim_config)
    pf_replay = TablePrefetcher(table)
    replay = simulate(trace, protocol_only(pf_replay), sim_config)
    assert hooked.as_dict() == replay.as_dict()
    assert pf_hooked.stats == pf_replay.stats


def test_overflowing_stride_fallback_replays_the_protocol(protocol_only):
    """More PCs than the stride fallback's 4096 entries: the hook
    declines and ``simulate`` replays the prefetcher itself, whose
    fallback evicts each PC before it recurs, so nothing is confirmed.
    Without evictions the same pattern confirms every PC's stride."""
    table = manual_table({1: {}}, depths=(1,), fallback="stride")
    sim_config = SimConfig(degree=2, distance=1, latency=2)

    def trace_of(pcs):
        # three unit-stride accesses per PC, round-robin over the PCs
        return [
            MemoryAccess.from_pc_address(pc, ((pc << 12) + k) << BLOCK_BITS)
            for k in range(3)
            for pc in range(pcs)
        ]

    trace = trace_of(4200)
    pf_hooked = TablePrefetcher(table)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert pf_hooked.offline_candidates(trace, 2, 1) is None
        hooked = simulate(trace, pf_hooked, sim_config)
    assert pf_hooked.stats == {"stride": len(trace)}
    pf_replay = TablePrefetcher(table)
    assert hooked == simulate(trace, protocol_only(pf_replay), sim_config)
    assert pf_replay.stats == pf_hooked.stats
    assert hooked.issued_prefetches == 0

    under_cap = simulate(trace_of(100), TablePrefetcher(table), sim_config)
    assert under_cap.issued_prefetches > 0


def test_offline_candidates_match_streaming_protocol(distill_model):
    model, pc_vocab, page_vocab, trace = distill_setup("page_cycle", seed=4)
    table = distill_model(
        model, pc_vocab, page_vocab, trace,
        DistillConfig(depths=(2, 1), top_k=TOP_K, table_size=128),
    )
    degree, distance = 2, 3
    rows = TablePrefetcher(table).offline_candidates(trace, degree, distance)
    replay = TablePrefetcher(table)
    expected = protocol_candidates(replay, trace, degree, distance)
    for row, want in zip(rows, expected):
        # stride fallback rows may be -1-padded where the protocol
        # returns [] — both issue nothing
        assert [c for c in row if c >= 0] == [c for c in want if c >= 0]


def test_make_prefetcher_table_requires_table():
    with pytest.raises(ValueError, match="table"):
        make_prefetcher("table")
    table = manual_table({1: {}}, depths=(1,))
    pf = make_prefetcher("table", table=table)
    assert isinstance(pf, TablePrefetcher)
    assert pf.name == "table"


# ----------------------------------------------------------------------
# bench integration: grid cell, frontier, gates
# ----------------------------------------------------------------------
TINY = BenchProfile(
    name="smoke",  # report validation expects a known profile name
    trace_length=260,
    train_steps=4,
    embed_dim=4,
    hidden_dim=6,
    history=4,
    workloads=("stride",),
    sim=SimConfig(degree=2, distance=2, latency=2),
    distill_depth=2,
    distill_table_size=256,
)


def test_bench_table_cell_fields_and_timing_invariant():
    entry = bench_workload("stride", TINY, seed=0)[0]["table"]
    assert entry["cpu_s"] == entry["train_s"] + entry["sim_s"]
    # train_s is the teacher rollout plus the table build; no
    # distill_s repeats it.
    assert entry["train_s"] > 0.0
    assert "distill_s" not in entry
    assert entry["table_entries"] > 0
    assert 0.0 <= entry["table_hit_rate"] <= 1.0


@pytest.fixture(scope="module")
def frontier_report():
    return run_bench(TINY, seed=0, frontier=True)


def test_distill_frontier_section_shape_and_consistency(frontier_report):
    section = frontier_report["distill"]
    assert validate_report(distill_report(section)) == []
    entry = section["workloads"]["stride"]
    assert len(entry["cells"]) == len(FRONTIER_TABLE_SIZES) * len(
        FRONTIER_DEPTHS
    )
    for cell in entry["cells"]:
        assert cell["coverage_delta"] == pytest.approx(
            entry["neural"]["coverage"] - cell["coverage"]
        )
        assert cell["entries"] <= cell["table_size"] * cell["depth"]
        assert cell["speedup_vs_neural"] > 0
    # v12: the neural block is the grid's neural cell, and the section's
    # elapsed_s is its workloads' rollout plus every build and sim.
    neural = frontier_report["workloads"]["stride"]["neural"]
    assert entry["neural"] == {
        key: neural[key] for key in ("coverage", "accuracy", "sim_s", "train_s")
    }
    assert section["elapsed_s"] == pytest.approx(
        entry["rollout_s"]
        + sum(cell["build_s"] + cell["sim_s"] for cell in entry["cells"])
    )


def test_frontier_point_of_the_grid_config_is_the_grid_table_cell(
    frontier_report,
):
    """Every table of a workload is compiled from one set of teacher
    rows, so the frontier point at the grid's (table size, depth) is
    the grid's ``table`` cell."""
    grid = frontier_report["workloads"]["stride"]["table"]
    (point,) = [
        cell
        for cell in frontier_report["distill"]["workloads"]["stride"]["cells"]
        if (cell["table_size"], cell["depth"])
        == (TINY.distill_table_size, TINY.distill_depth)
    ]
    assert point["coverage"] == grid["coverage"]
    assert point["accuracy"] == grid["accuracy"]
    assert point["entries"] == grid["table_entries"]
    assert point["hit_rate"] == grid["table_hit_rate"]


def distill_report(section):
    """A report holding only a ``distill`` section."""
    return merge_report(None, {"distill": section})


def test_validator_flags_missing_distill_pieces():
    assert validate_report(distill_report("nope")) == [
        "report: distill='nope' is not a dict"
    ]
    assert validate_report(distill_report({})) == [
        "distill: missing workloads"
    ]
    section = {"workloads": {"stride": {"neural": {}, "cells": [{}]}}}
    problems = validate_report(distill_report(section))
    assert "distill/workloads/stride/neural: missing sim_s" in problems
    assert "distill/workloads/stride/cells[0]: missing coverage" in problems


def fake_grid_report(neural_sim_s, table_sim_s, neural_cov, table_cov):
    return {
        "workloads": {
            "stride": {
                "neural": {"sim_s": neural_sim_s, "coverage": neural_cov},
                "table": {"sim_s": table_sim_s, "coverage": table_cov},
            }
        }
    }


def test_check_distill_budget_passes_within_limits():
    report = fake_grid_report(1.0, 0.05, 0.5, 0.45)
    assert check_distill_budget(report, 10.0, 0.10) == []


def test_check_distill_budget_flags_slow_table():
    report = fake_grid_report(1.0, 0.5, 0.5, 0.5)
    problems = check_distill_budget(report, 10.0, 0.10)
    assert len(problems) == 1 and "speedup" in problems[0]


def test_check_distill_budget_flags_coverage_drop():
    report = fake_grid_report(1.0, 0.05, 0.5, 0.2)
    problems = check_distill_budget(report, 10.0, 0.10)
    assert len(problems) == 1 and "coverage drop" in problems[0]


def test_check_distill_budget_flags_missing_cells():
    problems = check_distill_budget({"workloads": {"stride": {}}}, 10.0, 0.1)
    assert problems == ["stride: missing neural/table sim_s for distill gate"]


def test_bench_write_keeps_serving_and_distill():
    previous = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "serving": {"open_loop": {"requests": 4}},
        "distill": {"workloads": {}},
    }
    merged = merge_report(previous, {"grid": {"profile": "smoke"}})
    assert merged["serving"] == {"open_loop": {"requests": 4}}
    assert merged["distill"] == {"workloads": {}}
    assert merged["profile"] == "smoke"
    # a fresh section replaces the stale one whole
    fresh = merge_report(previous, {"distill": {"new": True}})
    assert fresh["distill"] == {"new": True}


def test_smoke_profile_distill_config_matches_issue_policy():
    config = SMOKE_PROFILE.distill_config()
    assert config.top_k == SMOKE_PROFILE.sim.degree + SMOKE_PROFILE.sim.distance
    assert config.depths == depth_chain(SMOKE_PROFILE.distill_depth)


# ----------------------------------------------------------------------
# carried state: contexts from the first access, end to end
# ----------------------------------------------------------------------
def test_build_table_inference_validation(distill_model):
    """The teacher rollout takes the reset period from the model: with
    ``seq_len == 1`` every state is one step from zero, so each depth-1
    entry is exactly a fresh prefetcher's rollout after that one
    access."""
    model, pc_vocab, page_vocab, trace = distill_setup()
    one = HierarchicalModel(dataclasses.replace(model.config, seq_len=1))
    one.params = model.params
    config = DistillConfig(depths=(1,), top_k=TOP_K, table_size=10_000)
    table = distill_model(one, pc_vocab, page_vocab, trace, config)
    assert table.total_entries > 0
    for triple, access in zip(
        encoded_triples(pc_vocab, page_vocab, trace[:60]), trace[:60]
    ):
        fresh = NeuralPrefetcher(one, pc_vocab, page_vocab)
        fresh.update(access)
        hit, depth = table.lookup([triple])
        assert depth == 1
        assert hit == fresh.prefetch(access, TOP_K)


def test_stateful_table_covers_pre_window_positions(distill_model):
    """Distillation records contexts from position 0: a three-access
    trace compiles, and its first access is a depth-1 hit."""
    model, pc_vocab, page_vocab, trace = distill_setup()
    short = trace[:3]
    config = DistillConfig(depths=(1,), top_k=2, table_size=100)
    table = distill_model(model, pc_vocab, page_vocab, short, config)
    assert table.total_entries > 0
    triples = encoded_triples(pc_vocab, page_vocab, short)
    hit, depth = table.lookup(triples[:1])
    assert depth == 1 and hit is not None


def test_every_stateful_entry_is_a_real_stateful_rollout(distill_model):
    """No blending against the *streaming* prefetcher either: each
    stored list equals the rollout an online prefetcher (one cell step
    per access, reset every ``seq_len``) makes at some position whose
    context matches."""
    model, pc_vocab, page_vocab, trace = distill_setup("random_walk", seed=3)
    config = DistillConfig(depths=(2, 1), top_k=TOP_K, table_size=10_000)
    table = distill_model(model, pc_vocab, page_vocab, trace, config)
    rollouts = streaming_rollouts(model, pc_vocab, page_vocab, trace, TOP_K)
    triples = encoded_triples(pc_vocab, page_vocab, trace)

    seen = {depth: {} for depth in config.depths}
    for pos in range(len(trace)):
        for depth in config.depths:
            if depth > pos + 1:
                continue
            key = tuple(
                v for t in triples[pos - depth + 1 : pos + 1] for v in t
            )
            seen[depth].setdefault(key, []).append(tuple(rollouts[pos]))

    assert table.total_entries > 0
    for depth, entries in table.tables.items():
        for key, cands in entries.items():
            assert cands in seen[depth][key]


def test_stateful_table_simulates_with_stateful_neural_coverage(
    distill_model,
):
    """End to end: the table built from the carried-state rollouts
    issues prefetches through the simulator."""
    model, pc_vocab, page_vocab, trace = distill_setup("stride")
    config = DistillConfig(depths=(2, 1), top_k=6, table_size=10_000)
    table = distill_model(model, pc_vocab, page_vocab, trace, config)
    pf = TablePrefetcher(table)
    result = simulate(trace, pf, SimConfig(degree=2, distance=2))
    assert result.prefetcher == "table"
    assert result.issued_prefetches > 0
