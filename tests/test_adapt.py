"""Online-adaptation tests: logging, fine-tune loop, hot-swap safety.

The contracts this file pins:

- :class:`~voyager.adapt.AccessLogger` segments round-trip through
  :mod:`voyager.ingest` bit-exactly, rotate at the configured size,
  gzip transparently, drop-and-count under buffer pressure, and never
  expose a partially written file as a closed segment.
- :class:`~voyager.adapt.AdaptationLoop` is bit-deterministic: the
  same base checkpoint + segments + seed emit byte-identical
  checkpoints, round after round.
- :meth:`~voyager.serve.PrefetchServer.swap_checkpoint` never changes
  a pre-swap response (hypothesis property over random interleavings
  and swap points), rejects incompatible weights/vocabs cleanly, and
  a swapped server is bit-identical to a fresh server on the new
  checkpoint holding the same session states.
- :func:`~voyager.adapt.load_and_swap` raises on a torn ``.npz``
  *before* the server is touched — the old weights keep serving.
- The sharded pool installs a coordinated swap at an exact global
  arrival-index cutoff, and per-shard logs capture all served traffic.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

from voyager.adapt import (
    AccessLogger,
    AdaptBenchConfig,
    AdaptationLoop,
    check_adaptation_budget,
    clone_model,
    load_and_swap,
    run_adaptation_bench,
)
from voyager.bench import load_report, merge_report, validate_report, write_bench
from voyager.ingest import read_trace
from voyager.ioutil import read_pointer, write_pointer
from voyager.model import (
    HierarchicalModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from voyager.serve import PrefetchServer, ServeConfig
from voyager.synthetic import generate
from voyager.traces import NUM_OFFSETS, MemoryAccess, join_address
from voyager.train import build_vocabs, train, build_sequence_dataset
from voyager.vocab import Vocab

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PCS = [0x400000 + 4 * i for i in range(6)]
PAGES = [512 + 3 * i for i in range(8)]


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


def random_access(rng) -> MemoryAccess:
    return MemoryAccess.from_pc_address(
        int(rng.choice(PCS)),
        join_address(int(rng.choice(PAGES)), int(rng.integers(0, NUM_OFFSETS))),
    )


# ----------------------------------------------------------------------
# AccessLogger
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compress", [False, True])
def test_logger_roundtrips_through_ingest(tmp_path, compress):
    trace = generate("zipf_db", 37, seed=2)
    logger = AccessLogger(
        tmp_path / "log", segment_records=10, compress=compress
    )
    for t, access in enumerate(trace):
        assert logger.log(access.pc, access.address, tick=t, stream_id="s0")
    logger.rotate()
    segments = logger.closed_segments()
    assert len(segments) == 4  # 10+10+10+7
    suffix = ".csv.gz" if compress else ".csv"
    assert all(p.name.endswith(suffix) for p in segments)
    replayed = []
    for segment in segments:
        accesses, stats = read_trace(segment)
        assert stats.skipped == 0
        replayed.extend(accesses)
    assert [(a.pc, a.address) for a in replayed] == [
        (a.pc, a.address) for a in trace
    ]
    assert logger.logged == logger.flushed == 37
    assert logger.stream_counts == {"s0": 37}


def test_logger_hot_path_does_no_io(tmp_path):
    logger = AccessLogger(tmp_path / "log", segment_records=4)
    for i in range(9):
        logger.log(PCS[0], join_address(PAGES[0], i))
    assert list((tmp_path / "log").iterdir()) == []  # buffered only
    assert logger.buffered == 9
    closed = logger.flush()
    assert len(closed) == 2  # two full segments; one record stays open
    assert logger.buffered == 0
    # The partial segment is staged under an open- name: a crash here
    # tears nothing a reader consumes.
    open_files = list((tmp_path / "log").glob("open-*"))
    assert len(open_files) == 1
    assert logger.closed_segments() == closed


def test_logger_drops_and_counts_over_buffer(tmp_path):
    logger = AccessLogger(tmp_path / "log", segment_records=8, max_buffer=3)
    results = [
        logger.log(PCS[0], join_address(PAGES[0], i)) for i in range(5)
    ]
    assert results == [True, True, True, False, False]
    assert logger.logged == 3 and logger.dropped == 2
    logger.flush()
    assert logger.log(PCS[0], join_address(PAGES[0], 7))  # room again


def test_logger_rejects_bad_config(tmp_path):
    with pytest.raises(ValueError, match="segment_records"):
        AccessLogger(tmp_path / "log", segment_records=0)
    with pytest.raises(ValueError, match="max_buffer"):
        AccessLogger(tmp_path / "log", max_buffer=0)
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(ValueError, match="not a directory"):
        AccessLogger(target)


def test_restarted_logger_keeps_closed_segments_and_skips_a_torn_one(tmp_path):
    """A second logger on a used directory numbers its segments after
    every existing one: closed segments keep their bytes and a torn
    ``open-`` file is never appended to or published."""
    log_dir = tmp_path / "log"
    trace = generate("zipf_db", 22, seed=3)
    first = AccessLogger(log_dir, segment_records=4)
    for t, access in enumerate(trace[:10]):
        first.log(access.pc, access.address, tick=t)
    first.flush()  # closes 000000 and 000001; 000002 stays open
    torn = log_dir / "open-segment-000002.csv"
    with open(torn, "a") as fh:
        fh.write("17,3,0x4")  # a crash mid-append
    before = {p.name: p.read_bytes() for p in log_dir.iterdir()}

    second = AccessLogger(log_dir, segment_records=4)
    for t, access in enumerate(trace[10:]):
        second.log(access.pc, access.address, tick=t)
    closed = second.rotate()
    assert [p.name for p in closed] == [
        "segment-000003.csv",
        "segment-000004.csv",
        "segment-000005.csv",
    ]
    for name, data in before.items():
        assert (log_dir / name).read_bytes() == data
    assert not (log_dir / "segment-000002.csv").exists()
    replayed = [a for p in closed for a in read_trace(p)[0]]
    assert replayed == trace[10:]
    # Every closed segment parses, so the loop can consume the directory.
    assert [a for p in second.closed_segments() for a in read_trace(p)[0]] == (
        trace[:8] + trace[10:]
    )


def test_pointer_roundtrip(tmp_path):
    path = tmp_path / "CURRENT"
    assert read_pointer(path) is None
    write_pointer(path, "ckpt-v0007")
    assert read_pointer(path) == "ckpt-v0007"
    with pytest.raises(ValueError, match="single line"):
        write_pointer(path, "a\nb")
    assert read_pointer(path) == "ckpt-v0007"  # failed write changed nothing


# ----------------------------------------------------------------------
# AdaptationLoop
# ----------------------------------------------------------------------
def _seed_checkpoint(tmp_path, trace, name="base"):
    pc_vocab, page_vocab = build_vocabs(trace, pc_cap=64, page_cap=64)
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            embed_dim=4,
            hidden_dim=6,
            seed=0,
            seq_len=8,
        )
    )
    dataset = build_sequence_dataset(
        trace, seq_len=8, pc_vocab=pc_vocab, page_vocab=page_vocab
    )
    train(model, dataset, steps=5, batch_size=4, seed=0)
    prefix = tmp_path / name
    save_checkpoint(prefix, model, pc_vocab, page_vocab)
    return prefix


def _fill_log(tmp_path, trace, name="log", segment_records=20):
    logger = AccessLogger(tmp_path / name, segment_records=segment_records)
    for t, access in enumerate(trace):
        logger.log(access.pc, access.address, tick=t)
    logger.rotate()
    return tmp_path / name


def test_adaptation_loop_is_deterministic(tmp_path):
    trace = generate("stride", 120, seed=4)
    base = _seed_checkpoint(tmp_path, trace)
    log_dir = _fill_log(tmp_path, trace)
    outs = []
    for run in range(2):
        loop = AdaptationLoop(
            base,
            log_dir,
            tmp_path / f"out{run}",
            steps=4,
            batch_size=4,
            seed=9,
        )
        prefix = loop.poll()
        assert prefix is not None
        assert loop.current_prefix() == prefix
        assert loop.poll() is None  # nothing new to consume
        outs.append(load_checkpoint(prefix))
    # The fine-tune segment length is the base model's reset period.
    assert outs[0][0].config.seq_len == 8
    with pytest.raises(ValueError, match="seq_len"):
        AdaptationLoop(base, log_dir, tmp_path / "mismatch", seq_len=16)
    params_a = outs[0][0].params
    params_b = outs[1][0].params
    assert set(params_a) == set(params_b)
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])
    # And fine-tuning actually moved the weights.
    base_model, _, _ = load_checkpoint(base)
    assert any(
        not np.array_equal(params_a[name], base_model.params[name])
        for name in params_a
    )


def test_adaptation_loop_versions_and_replay(tmp_path):
    trace = generate("stride", 160, seed=4)
    base = _seed_checkpoint(tmp_path, trace[:80])
    logger = AccessLogger(tmp_path / "log", segment_records=20)
    loop = AdaptationLoop(
        base, tmp_path / "log", tmp_path / "out",
        steps=3, batch_size=4, replay_mix=0.5, seed=1,
    )
    for t, access in enumerate(trace[:80]):
        logger.log(access.pc, access.address, tick=t)
    logger.rotate()
    first = loop.poll()
    assert first is not None and first.name == "ckpt-v0001"
    assert loop.rounds == 1 and len(loop.consumed) == 4
    for t, access in enumerate(trace[80:]):
        logger.log(access.pc, access.address, tick=80 + t)
    logger.rotate()
    second = loop.poll()
    assert second is not None and second.name == "ckpt-v0002"
    assert read_pointer(tmp_path / "out" / "CURRENT") == "ckpt-v0002"
    # Replay mixed consumed segments into round 2's training input.
    assert loop.trained_records > 160
    assert len(loop.consumed) == 8


def test_restarted_loop_never_overwrites_a_checkpoint(tmp_path):
    trace = generate("stride", 120, seed=4)
    base = _seed_checkpoint(tmp_path, trace)
    log_dir = _fill_log(tmp_path, trace[:60])
    out = tmp_path / "out"
    first = AdaptationLoop(base, log_dir, out, steps=2, batch_size=4)
    assert first.poll().name == "ckpt-v0001"
    published = {p.name: p.read_bytes() for p in out.iterdir()}
    logger = AccessLogger(log_dir, segment_records=20)
    for t, access in enumerate(trace[60:]):
        logger.log(access.pc, access.address, tick=t)
    logger.rotate()
    restarted = AdaptationLoop(base, log_dir, out, steps=2, batch_size=4)
    assert restarted.version == 1
    assert restarted.poll().name == "ckpt-v0002"
    assert read_pointer(out / "CURRENT") == "ckpt-v0002"
    for name, data in published.items():
        if name != "CURRENT":
            assert (out / name).read_bytes() == data


def test_each_segment_is_parsed_once(tmp_path, monkeypatch):
    """Over nine rounds that replay every consumed segment, each segment
    is read once, and each round trains on the replayed segments'
    accesses (all of them, in order, at replay_mix 1) then the fresh
    one's."""
    import voyager.adapt as adapt_mod

    trace = generate("stride", 200, seed=4)
    base = _seed_checkpoint(tmp_path, trace)
    reads = []
    trained = []
    read_trace_orig = adapt_mod.read_trace
    build_orig = adapt_mod.build_sequence_dataset

    def spy_read(path, *args, **kwargs):
        reads.append(path)
        return read_trace_orig(path, *args, **kwargs)

    def spy_build(mix, *args, **kwargs):
        trained.append(list(mix))
        return build_orig(mix, *args, **kwargs)

    monkeypatch.setattr(adapt_mod, "read_trace", spy_read)
    monkeypatch.setattr(adapt_mod, "build_sequence_dataset", spy_build)
    logger = AccessLogger(tmp_path / "log", segment_records=20)
    loop = AdaptationLoop(
        base, tmp_path / "log", tmp_path / "out",
        steps=1, batch_size=2, replay_mix=1.0, seed=2,
    )
    for r in range(9):
        for t, access in enumerate(trace[20 * r : 20 * (r + 1)]):
            logger.log(access.pc, access.address, tick=t)
        logger.rotate()
        assert loop.poll() is not None
    segments = logger.closed_segments()
    assert len(segments) == 9
    assert sorted(reads) == segments
    parsed = [read_trace(p)[0] for p in segments]
    for r, mix in enumerate(trained):
        assert mix == [a for accesses in parsed[: r + 1] for a in accesses]


def test_parsed_segments_keep_pcs_beyond_64_bits(tmp_path, monkeypatch):
    import voyager.adapt as adapt_mod

    trace = generate("stride", 60, seed=4)
    base = _seed_checkpoint(tmp_path, trace)
    wide = [
        MemoryAccess.from_pc_address(2**70 + a.pc, a.address) for a in trace
    ]
    trained = []
    build_orig = adapt_mod.build_sequence_dataset
    monkeypatch.setattr(
        adapt_mod,
        "build_sequence_dataset",
        lambda mix, *a, **kw: trained.append(list(mix)) or build_orig(mix, *a, **kw),
    )
    loop = AdaptationLoop(
        base, _fill_log(tmp_path, wide), tmp_path / "out", steps=1, batch_size=2
    )
    assert loop.poll() is not None
    assert trained == [wide]


def test_clone_model_shares_nothing(tmp_path):
    model, _, _ = tiny_setup()
    clone = clone_model(model)
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], clone.params[name])
        clone.params[name][...] += 1.0
        assert not np.array_equal(model.params[name], clone.params[name])


# ----------------------------------------------------------------------
# hot-swap: compatibility gate + atomicity
# ----------------------------------------------------------------------
def _server(model, pc_vocab, page_vocab, **kw):
    return PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(degree=2, max_sessions=8, max_batch=8, **kw),
    )


def test_swap_rejects_incompatible_config():
    model, pc_vocab, page_vocab = tiny_setup(model_seed=1)
    server = _server(model, pc_vocab, page_vocab)
    bad = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            num_offsets=NUM_OFFSETS,
            embed_dim=3,
            hidden_dim=5,  # differs
            history=3,
            attention_candidates=2,
            seed=1,
        )
    )
    with pytest.raises(ValueError, match="hidden_dim"):
        server.swap_checkpoint(bad, pc_vocab, page_vocab)
    # a different reset period would misplace every live stream in its
    # segment
    other_period = HierarchicalModel(
        dataclasses.replace(model.config, seq_len=model.config.seq_len + 1)
    )
    with pytest.raises(ValueError, match="seq_len"):
        server.swap_checkpoint(other_period, pc_vocab, page_vocab)
    assert server.stats.model_version == 0


def test_swap_rejects_different_vocab():
    model, pc_vocab, page_vocab = tiny_setup()
    server = _server(model, pc_vocab, page_vocab)
    other_pages = Vocab(cap=len(PAGES) + 1).fit([p + 1 for p in PAGES])
    fresh = clone_model(model)
    with pytest.raises(ValueError, match="vocab"):
        server.swap_checkpoint(fresh, pc_vocab, other_pages)


def test_swap_allows_different_model_seed():
    model, pc_vocab, page_vocab = tiny_setup(model_seed=1)
    other, _, _ = tiny_setup(model_seed=2)  # same shape, different init
    server = _server(model, pc_vocab, page_vocab)
    assert server.swap_checkpoint(other, pc_vocab, page_vocab) == 1
    assert server.stats.swaps == 1
    assert server.stats.snapshot()["model_version"] == 1


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**31 - 1), st.integers(0, 40))
def test_swap_never_changes_preswap_responses(seed, swap_at):
    """Responses produced before the swap are bit-identical to a
    never-swapped server, no matter where the swap lands relative to
    tick and submit boundaries."""
    rng = np.random.default_rng(seed)
    model, pc_vocab, page_vocab = tiny_setup(model_seed=1)
    new_model, _, _ = tiny_setup(model_seed=2)
    plain = _server(model, pc_vocab, page_vocab)
    swapped = _server(model, pc_vocab, page_vocab)
    streams = [f"s{i}" for i in range(int(rng.integers(1, 4)))]
    for server in (plain, swapped):
        for sid in streams:
            server.open_stream(sid)
    accesses = [
        (streams[int(rng.integers(0, len(streams)))], random_access(rng))
        for _ in range(40)
    ]
    got_plain, got_swapped = [], []
    for t, (sid, access) in enumerate(accesses):
        if t == swap_at:
            swapped.swap_checkpoint(
                clone_model(new_model), pc_vocab, page_vocab
            )
        got_plain.append(plain.access(sid, access.pc, access.address))
        got_swapped.append(swapped.access(sid, access.pc, access.address))
    for t, (a, b) in enumerate(zip(got_plain, got_swapped)):
        if t < swap_at:
            assert a.candidates == b.candidates
            assert a.source == b.source
    assert swapped.stats.model_version == (1 if swap_at < 40 else 0)


def test_swapped_server_equals_fresh_server_with_same_states():
    """Post-swap, the server is bit-identical to a fresh server built
    on the new checkpoint holding the same session states."""
    rng = np.random.default_rng(7)
    model, pc_vocab, page_vocab = tiny_setup(model_seed=1)
    new_model, _, _ = tiny_setup(model_seed=2)
    server = _server(model, pc_vocab, page_vocab)
    server.open_stream("a")
    server.open_stream("b")
    warm = [
        (("a", "b")[int(rng.integers(0, 2))], random_access(rng))
        for _ in range(12)
    ]
    for sid, access in warm:
        server.access(sid, access.pc, access.address)
    # Fresh server on the new weights, sessions transplanted wholesale.
    fresh = _server(clone_model(new_model), pc_vocab, page_vocab)
    fresh._sessions = copy.deepcopy(server._sessions)
    server.swap_checkpoint(clone_model(new_model), pc_vocab, page_vocab)
    tail = [
        (("a", "b")[int(rng.integers(0, 2))], random_access(rng))
        for _ in range(12)
    ]
    for sid, access in tail:
        mine = server.access(sid, access.pc, access.address)
        ref = fresh.access(sid, access.pc, access.address)
        assert mine.candidates == ref.candidates
        assert mine.source == ref.source


def test_load_and_swap_torn_npz_keeps_old_weights(tmp_path):
    model, pc_vocab, page_vocab = tiny_setup(model_seed=1)
    new_model, _, _ = tiny_setup(model_seed=2)
    prefix = tmp_path / "next"
    npz_path, _ = save_checkpoint(prefix, new_model, pc_vocab, page_vocab)
    blob = npz_path.read_bytes()
    npz_path.write_bytes(blob[: len(blob) // 2])  # torn write
    server = _server(model, pc_vocab, page_vocab)
    server.open_stream("a")
    rng = np.random.default_rng(3)
    accesses = [random_access(rng) for _ in range(8)]
    before = [server.access("a", a.pc, a.address) for a in accesses[:4]]
    with pytest.raises(ValueError, match="npz"):
        load_and_swap(server, prefix)
    assert server.stats.model_version == 0  # untouched
    # Old weights keep serving, bit-identical to an undisturbed server.
    ref = _server(model, pc_vocab, page_vocab)
    ref.open_stream("a")
    for a, resp in zip(accesses[:4], before):
        assert ref.access("a", a.pc, a.address).candidates == resp.candidates
    for a in accesses[4:]:
        assert (
            server.access("a", a.pc, a.address).candidates
            == ref.access("a", a.pc, a.address).candidates
        )


def test_load_and_swap_missing_checkpoint(tmp_path):
    model, pc_vocab, page_vocab = tiny_setup()
    server = _server(model, pc_vocab, page_vocab)
    with pytest.raises(FileNotFoundError):
        load_and_swap(server, tmp_path / "nope")


# ----------------------------------------------------------------------
# adaptation bench block + gates
# ----------------------------------------------------------------------
SMALL_BENCH = AdaptBenchConfig(
    workloads=("drifting_zipf",),
    n=600,
    adapt_steps=12,
    base_steps=20,
    segment_records=150,
    window=80,
)


@pytest.fixture(scope="module")
def adapt_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("adapt-bench")


@pytest.fixture(scope="module")
def adapt_block(adapt_workdir):
    return run_adaptation_bench(SMALL_BENCH, workdir=adapt_workdir)


def test_rerun_into_the_same_workdir_gives_the_same_block(
    adapt_block, adapt_workdir
):
    """A rerun trains only on the segments it logged itself, not on the
    earlier run's (which hold the rest of the same trace)."""
    assert run_adaptation_bench(SMALL_BENCH, workdir=adapt_workdir) == (
        adapt_block
    )
    assert sorted(p.name for p in adapt_workdir.iterdir()) == [
        "run-0000",
        "run-0001",
    ]


def test_adaptation_bench_block_shape(adapt_block):
    run = adapt_block["workloads"]["drifting_zipf"]
    assert run["rounds"] >= 1 and run["swaps"] == run["rounds"]
    assert run["model_version"] == run["swaps"]
    assert run["logged_records"] == 600
    assert run["dropped_records"] == 0
    assert len(run["boundaries"]) >= 3  # at least one interior boundary
    assert len(run["phases"]) == len(run["boundaries"]) - 2
    for phase in run["phases"]:
        assert 0 <= phase["lag_accesses"] <= phase["phase_len"]
    assert validate_report(adaptation_report(adapt_block)) == []


def adaptation_report(block):
    """A report holding only a ``serving/adaptation`` block."""
    return merge_report(None, {"serving/adaptation": block})


def test_adaptation_block_satisfies_serving_schema(adapt_block):
    # A report is satisfied by the adaptation block alone.
    assert validate_report(merge_report(None, {})) == [
        "report: no section present"
    ]
    assert validate_report(adaptation_report(adapt_block)) == []
    broken = {"config": adapt_block["config"], "workloads": {}}
    assert validate_report(adaptation_report(broken)) == [
        "serving/adaptation: workloads={} is not a dict of >= 1 entries"
    ]


def test_adaptation_budget_gates(adapt_block):
    assert check_adaptation_budget(adapt_block) == []
    assert check_adaptation_budget(
        adapt_block, min_gain=-10.0, max_lag=10**9
    ) == []
    problems = check_adaptation_budget(
        adapt_block, min_gain=10.0, max_lag=0
    )
    assert len(problems) == 2
    assert any("coverage gain" in p for p in problems)
    assert any("lag" in p for p in problems)


def test_adapt_bench_failing_gate_leaves_the_report_untouched(
    tmp_path, capsys, monkeypatch, committed_report
):
    """``adapt --bench`` checks its gates before writing: a failing gate
    prints the problem and leaves the existing file's bytes alone."""
    import voyager.cli as cli_mod

    block = committed_report["serving"]["adaptation"]
    monkeypatch.setattr(
        cli_mod, "run_adaptation_bench", lambda config, workdir: block
    )
    out = tmp_path / "BENCH_voyager.json"
    out.write_text('{"previous": "report"}\n')
    argv = ["adapt", "--bench", "--workdir", str(tmp_path / "w")]
    rc = cli_mod.main(
        argv + ["--out", str(out), "--min-adapted-coverage-gain", "5"]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: adaptation gate: ")
    assert err[-1] == f"error: {out} not written"
    assert out.read_text() == '{"previous": "report"}\n'

    # gates met: the older file's contents give way to the block alone
    assert cli_mod.main(argv + ["--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert validate_report(written) == []
    assert written["serving"] == {"adaptation": block}


@pytest.mark.slow
def test_default_adaptation_block_equals_the_committed_one(
    committed_report, tmp_path
):
    """The CI adaptation run, written as the report write rounds it,
    reproduces the committed block: the served candidates (and so every
    coverage, gain and lag) are the ones the committed numbers came
    from, with nothing shed."""
    block = run_adaptation_bench(
        AdaptBenchConfig(), workdir=tmp_path / "adapt-bench"
    )
    out = tmp_path / "BENCH_voyager.json"
    write_bench(merge_report(None, {"serving/adaptation": block}), out)
    assert load_report(out)["serving"]["adaptation"] == (
        committed_report["serving"]["adaptation"]
    )


def test_adapt_bench_config_validation():
    with pytest.raises(ValueError, match="unknown workload"):
        AdaptBenchConfig(workloads=("no_such_workload",))
    with pytest.raises(ValueError, match="recovery_frac"):
        AdaptBenchConfig(recovery_frac=1.5)
    with pytest.raises(ValueError):
        AdaptBenchConfig(n=2)


# ----------------------------------------------------------------------
# sharded pool: per-shard logs + coordinated swap
# ----------------------------------------------------------------------
def test_sharded_coordinated_swap_and_logs(tmp_path):
    from voyager.loadgen import ArrivalConfig, LoadGenConfig, open_loop_schedule
    from voyager.shard import ShardConfig, run_sharded

    model, pc_vocab, page_vocab = tiny_setup(model_seed=1)
    new_model, _, _ = tiny_setup(model_seed=2)
    prefix = tmp_path / "next"
    save_checkpoint(prefix, new_model, pc_vocab, page_vocab)
    rng = np.random.default_rng(5)
    traces = [[random_access(rng) for _ in range(30)] for _ in range(4)]
    schedule = open_loop_schedule(
        LoadGenConfig(streams=4, accesses_per_stream=30),
        ArrivalConfig(rate=200000.0),
        seed=2,
    )
    swap_at = 60
    config = ShardConfig(
        shards=2, log_dir=str(tmp_path / "logs"), segment_records=16
    )
    swapped = run_sharded(
        model, pc_vocab, page_vocab, traces,
        schedule.arrival_s, schedule.stream_of,
        config=config, inline=True,
        swap_at=swap_at, swap_prefix=prefix,
    )
    plain = run_sharded(
        model, pc_vocab, page_vocab, traces,
        schedule.arrival_s, schedule.stream_of,
        config=ShardConfig(shards=2), inline=True,
    )
    assert swapped["model_version"] == 1
    assert swapped["counters"]["swaps"] == 2  # every shard installed it
    assert swapped["logging"]["logged"] == 120
    assert swapped["logging"]["dropped"] == 0
    # Version boundary in global arrival order: identical before the
    # cutoff, the new weights take over at it.
    pre = [0] * 4
    for j in range(swap_at):
        pre[int(schedule.stream_of[j])] += 1
    for i in range(4):
        assert (
            swapped["candidates"][i][: pre[i]]
            == plain["candidates"][i][: pre[i]]
        )
    assert any(
        swapped["candidates"][i][pre[i]:] != plain["candidates"][i][pre[i]:]
        for i in range(4)
    )
    # Both shards logged into their own subdirectories.
    for shard in range(2):
        assert list((tmp_path / "logs" / f"shard-{shard}").glob("segment-*"))


def test_shard_config_swap_validation():
    from voyager.shard import ShardConfig, run_sharded

    model, pc_vocab, page_vocab = tiny_setup()
    with pytest.raises(ValueError, match="together"):
        run_sharded(
            model, pc_vocab, page_vocab, [[]],
            np.zeros(0), np.zeros(0, dtype=np.int64),
            config=ShardConfig(shards=1), swap_at=3,
        )
    with pytest.raises(ValueError, match="log_dir"):
        ShardConfig(log_dir="")
    with pytest.raises(ValueError, match="segment_records"):
        ShardConfig(segment_records=0)
