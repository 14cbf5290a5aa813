"""Load-generator tests: stream multiplexing, report writes, CLI gates."""

import json
import os

import numpy as np
import pytest

import voyager.shard as shard_mod
from voyager.bench import (
    BENCH_SCHEMA_VERSION,
    BenchProfile,
    load_report,
    merge_report,
    run_bench,
    strip_timing_fields,
    validate_report,
    write_report,
)
from voyager.loadgen import (
    ArrivalConfig,
    LoadGenConfig,
    mixed_training_trace,
    open_loop_schedule,
    parse_qos_mix,
    run_open_loop_bench,
    saturating_schedule,
    serve_trace,
    stream_traces,
)
from voyager.serve import DEFAULT_QOS, PrefetchServer, drive_open_loop
from voyager.sim import SimConfig
from voyager.synthetic import page_cycle_trace

TINY = BenchProfile(
    name="tiny",
    trace_length=300,
    train_steps=10,
    embed_dim=8,
    hidden_dim=16,
    workloads=("stride", "page_cycle"),
    sim=SimConfig(degree=2, distance=4, latency=4),
)

TINY_LOAD = LoadGenConfig(streams=3, accesses_per_stream=40)
SATURATE = ArrivalConfig(process="saturate")


@pytest.fixture(scope="module")
def serving():
    """The saturating 1-shard block: peak load, checked against the simulator."""
    return run_open_loop_bench(
        TINY, TINY_LOAD, SATURATE, shard_counts=(1,), seed=0
    )


@pytest.fixture(scope="module")
def grid():
    return run_bench(TINY, seed=0)


def serving_report(**blocks):
    """A report holding only the given ``serving`` blocks."""
    return merge_report(
        None, {f"serving/{name}": block for name, block in blocks.items()}
    )


def test_mixed_training_trace_covers_all_workloads():
    trace = mixed_training_trace(TINY, seed=0)
    assert len(trace) == 2 * (300 // 2)
    pages = {a.page for a in trace}
    assert len(pages) > 1  # more than one workload's page range


def test_stream_traces_shapes_and_determinism():
    traces = stream_traces(TINY, TINY_LOAD, seed=0)
    assert len(traces) == 3
    assert all(len(t) == 40 for t in traces)
    again = stream_traces(TINY, TINY_LOAD, seed=0)
    assert traces == again
    # seed sensitivity only shows on a randomised generator
    randomised = BenchProfile(
        name="rw",
        trace_length=300,
        train_steps=10,
        embed_dim=8,
        hidden_dim=16,
        workloads=("random_walk",),
    )
    assert stream_traces(randomised, TINY_LOAD, seed=0) != stream_traces(
        randomised, TINY_LOAD, seed=1
    )
    # two streams of the same randomised workload also differ
    rw = stream_traces(randomised, TINY_LOAD, seed=0)
    assert rw[0] != rw[1]


def test_loadgen_config_validation():
    with pytest.raises(ValueError, match="streams"):
        LoadGenConfig(streams=0)
    with pytest.raises(ValueError, match="accesses_per_stream"):
        LoadGenConfig(accesses_per_stream=0)


def test_serving_section_shape_and_equivalence(serving):
    assert validate_report(serving_report(open_loop=serving)) == []
    assert serving["responses_equal_sim"] is True
    assert serving["responses_equal_single"] is True
    assert serving["streams"] == 3
    assert serving["requests"] == 120
    assert serving["arrival"]["process"] == "saturate"
    assert "max_pending" not in serving  # v11: the backlog is unbounded
    (run,) = serving["runs"]
    assert run["aggregate_throughput_per_s"] > 0
    counters = run["counters"]
    assert counters["requests"] == counters["responses"] == 120
    assert counters["neural"] == 120
    assert counters["shed"] == 0
    assert "table" not in counters


def test_validator_flags_serving_problems(serving):
    broken = json.loads(json.dumps(serving))
    broken["responses_equal_sim"] = False
    assert validate_report(serving_report(open_loop=broken)) == [
        "serving/open_loop: responses_equal_sim=False is not true"
    ]
    slow = json.loads(json.dumps(serving))
    slow["runs"][0]["aggregate_throughput_per_s"] = 0
    assert validate_report(serving_report(open_loop=slow)) == [
        "serving/open_loop/runs[0]: aggregate_throughput_per_s=0 is not a "
        "number > 0"
    ]
    # v8 kept the closed-loop keys at the top of serving
    report = serving_report(open_loop=serving)
    report["serving"] = {"streams": 3, "responses_equal_sim": True}
    problems = validate_report(report)
    assert "report: no section present" in problems
    assert any("is not a dict of serving blocks" in p for p in problems)
    report["serving"] = {}
    assert "report: serving={} is not a dict of serving blocks" in (
        validate_report(report)
    )


def test_serving_write_creates_a_serving_only_report(serving, tmp_path):
    out = tmp_path / "BENCH_voyager.json"
    assert write_report(out, {"serving/open_loop": serving}) == 0
    loaded = json.loads(out.read_text())
    assert loaded == {
        "schema_version": BENCH_SCHEMA_VERSION,
        "serving": {"open_loop": loaded["serving"]["open_loop"]},
    }
    assert validate_report(loaded) == []
    # floats were rounded at serialisation
    run = loaded["serving"]["open_loop"]["runs"][0]
    throughput = run["aggregate_throughput_per_s"]
    assert throughput == round(throughput, 6)


def test_serving_write_keeps_the_sweep_and_back(serving, grid, tmp_path):
    out = tmp_path / "BENCH_voyager.json"
    assert write_report(out, {"grid": grid}) == 0
    assert write_report(out, {"serving/open_loop": serving}) == 0
    merged = load_report(out)
    assert validate_report(merged) == []
    assert set(merged["workloads"]) == {"stride", "page_cycle"}
    assert merged["serving"]["open_loop"]["streams"] == 3
    # ...and a fresh sweep write keeps the serving block
    assert write_report(out, {"grid": grid}) == 0
    assert load_report(out)["serving"] == merged["serving"]


def test_serving_is_a_timing_section(serving, grid, tmp_path):
    out = tmp_path / "BENCH_voyager.json"
    write_report(out, {"grid": grid})
    write_report(out, {"serving/open_loop": serving})
    merged = load_report(out)
    assert "serving" not in strip_timing_fields(merged)
    # every non-timing value is written exactly
    assert strip_timing_fields(merged) == strip_timing_fields(grid)


def test_serve_trace_round_robin():
    trace = page_cycle_trace(20)
    traces, schedule = serve_trace(trace, streams=4)
    assert [len(t) for t in traces] == [5, 5, 5, 5]
    assert traces[1] == trace[1::4]
    assert schedule.requests == 20
    assert not schedule.arrival_s.any()  # everything due at t = 0
    # request j is trace[j]: stream j % 4, round-robin
    assert schedule.stream_of.tolist() == [j % 4 for j in range(20)]
    # more streams than accesses: one stream per access
    few, few_schedule = serve_trace(trace[:2], streams=4)
    assert few == [[trace[0]], [trace[1]]]
    assert few_schedule.stream_of.tolist() == [0, 1]
    # served through the driver, request j answers trace[j]
    from voyager.bench import _train_neural

    neural, _ = _train_neural(trace, TINY, seed=0)
    server = PrefetchServer(neural.model, neural.pc_vocab, neural.page_vocab)
    elapsed, candidates, latency_s, stats = drive_open_loop(
        server,
        ["s0", "s1", "s2", "s3"],
        [DEFAULT_QOS] * 4,
        traces,
        schedule.arrival_s,
        schedule.stream_of,
    )
    assert elapsed > 0
    assert [len(c) for c in candidates] == [5, 5, 5, 5]
    assert stats["responses"] == stats["neural"] == 20
    assert latency_s.shape == (20,)


def test_saturating_schedule_is_round_robin_at_t0():
    schedule = saturating_schedule(7, 3)
    assert schedule.arrival_s.tolist() == [0.0] * 7
    assert schedule.stream_of.tolist() == [0, 1, 2, 0, 1, 2, 0]
    via_config = open_loop_schedule(
        LoadGenConfig(streams=3, accesses_per_stream=2), SATURATE, seed=5
    )
    assert via_config.stream_of.tolist() == [0, 1, 2, 0, 1, 2]
    assert via_config.requests == 6


def test_main_entry_point_runs_and_gates(tmp_path, capsys, monkeypatch):
    import voyager.bench as bench_mod
    import voyager.loadgen as loadgen_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    base = [
        "--profile", "smoke", "--arrival", "saturate", "--shards", "1",
        "--streams", "3", "--accesses", "40", "--out", str(out),
    ]
    rc = loadgen_mod.main(base + ["--min-throughput", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "arrival=saturate streams=3" in captured.out
    assert "equal_sim=True equal_single=True" in captured.out
    loaded = json.loads(out.read_text())
    assert validate_report(loaded) == []
    assert loaded["serving"]["open_loop"]["profile"] == "tiny"
    before = out.read_bytes()

    rc = loadgen_mod.main(base + ["--min-throughput", "1e18"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "below --min-throughput" in err
    assert out.read_bytes() == before


def test_float32_run_also_matches_serial():
    """Serving answers in the engine's one dtype, float32, and still
    equals the simulator's prefetcher; the block no longer echoes a
    dtype."""
    serving = run_open_loop_bench(
        TINY,
        LoadGenConfig(streams=2, accesses_per_stream=20),
        SATURATE,
        shard_counts=(1,),
        seed=0,
    )
    assert "dtype" not in serving
    assert serving["responses_equal_sim"] is True


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--degree", "0", "degree must be >= 1"),
        ("--max-batch", "0", "max_batch must be >= 1"),
        ("--max-sessions", "0", "max_sessions must be >= 1"),
        ("--shard-sweep", "0", "shards must be >= 1"),
    ],
)
def test_serve_bench_checks_arguments_before_training(
    flag, value, message, tmp_path, capsys, monkeypatch
):
    import voyager.loadgen as loadgen_mod

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr(loadgen_mod, "_train_neural", no_training)
    out = tmp_path / "BENCH_voyager.json"
    rc = loadgen_mod.main(["--out", str(out), flag, value])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}, got 0\n"
    assert not out.exists()


MAIN_PID = os.getpid()
SHARD_WORKER = shard_mod._shard_worker


def dying_in_pool(payload):
    """Dies in a forked pool worker; serves inline runs normally."""
    if os.getpid() != MAIN_PID:
        os._exit(3)
    return SHARD_WORKER(payload)


def test_serve_bench_failed_shard_worker_prints_one_error_line(
    tmp_path, capsys, monkeypatch
):
    import voyager.bench as bench_mod
    import voyager.cli as cli_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    monkeypatch.setattr(shard_mod, "_shard_worker", dying_in_pool)
    out = tmp_path / "BENCH_voyager.json"
    rc = cli_mod.main(
        [
            "serve-bench", "--profile", "smoke", "--arrival", "saturate",
            "--shards", "2", "--streams", "4", "--accesses", "5",
            "--out", str(out),
        ]
    )
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: shard ")
    assert "of 2 failed: BrokenProcessPool" in line
    assert not out.exists()


# ----------------------------------------------------------------------
# open-loop arrivals, QoS mixes, and the sharded bench section
# ----------------------------------------------------------------------
def test_arrival_config_validation():
    with pytest.raises(ValueError, match="process"):
        ArrivalConfig(process="uniform")
    with pytest.raises(ValueError, match="rate"):
        ArrivalConfig(rate=0.0)
    with pytest.raises(ValueError, match="on_s"):
        ArrivalConfig(process="onoff", on_s=0.0)
    with pytest.raises(ValueError, match="off_s"):
        ArrivalConfig(process="onoff", off_s=-1.0)


@pytest.mark.parametrize("process", ["poisson", "onoff"])
def test_open_loop_schedule_is_sorted_seeded_and_complete(process):
    config = LoadGenConfig(streams=5, accesses_per_stream=50)
    arrival = ArrivalConfig(process=process, rate=10_000.0)
    schedule = open_loop_schedule(config, arrival, seed=3)
    assert schedule.requests == 250
    assert np.all(np.diff(schedule.arrival_s) >= 0)
    assert np.all(schedule.arrival_s > 0)
    # every stream contributes exactly its accesses_per_stream
    counts = np.bincount(schedule.stream_of, minlength=5)
    assert counts.tolist() == [50] * 5
    again = open_loop_schedule(config, arrival, seed=3)
    np.testing.assert_array_equal(schedule.arrival_s, again.arrival_s)
    np.testing.assert_array_equal(schedule.stream_of, again.stream_of)
    other = open_loop_schedule(config, arrival, seed=4)
    assert not np.array_equal(schedule.arrival_s, other.arrival_s)


def test_onoff_schedule_is_burstier_than_poisson():
    """ON-OFF gaps show higher dispersion than Poisson at equal rate."""
    config = LoadGenConfig(streams=1, accesses_per_stream=2000)
    poisson = open_loop_schedule(
        config, ArrivalConfig(process="poisson", rate=1000.0), seed=0
    )
    onoff = open_loop_schedule(
        config,
        ArrivalConfig(process="onoff", rate=1000.0, on_s=0.01, off_s=0.09),
        seed=0,
    )
    gap_cv = lambda s: (  # noqa: E731 - tiny local helper
        np.std(np.diff(s.arrival_s)) / np.mean(np.diff(s.arrival_s))
    )
    assert gap_cv(onoff) > 1.5 * gap_cv(poisson)


def test_parse_qos_mix():
    assert parse_qos_mix(None, 3) == ["throughput"] * 3
    assert parse_qos_mix("latency=1,besteffort=2", 5) == [
        "latency", "besteffort", "besteffort", "latency", "besteffort",
    ]
    assert parse_qos_mix("latency", 2) == ["latency", "latency"]
    with pytest.raises(ValueError, match="qos class"):
        parse_qos_mix("platinum=1", 2)
    with pytest.raises(ValueError, match="weight"):
        parse_qos_mix("latency=0", 2)
    with pytest.raises(ValueError, match="weight"):
        parse_qos_mix("latency=x", 2)


@pytest.fixture(scope="module")
def open_loop_section():
    return run_open_loop_bench(
        TINY,
        LoadGenConfig(streams=4, accesses_per_stream=25),
        ArrivalConfig(process="poisson", rate=20_000.0),
        shard_counts=(1, 2),
        seed=0,
        overload=True,
    )


def test_open_loop_section_shape_and_equality(open_loop_section):
    section = open_loop_section
    assert validate_report(serving_report(open_loop=section)) == []
    assert section["responses_equal_single"] is True
    assert section["requests"] == 100
    assert [run["shards"] for run in section["runs"]] == [1, 2]
    for run in section["runs"]:
        assert run["aggregate_throughput_per_s"] > 0
        assert run["counters"]["responses"] == 100
        assert run["counters"]["shed"] == 0  # shed-free defaults
        latency = run["latency"]
        assert latency["count"] == 100
        assert latency["p50_s"] <= latency["p95_s"] <= latency["p99_s"]
        assert latency["p99_s"] <= latency["max_s"]
    assert section["runs"][0]["scaling_vs_single"] == 1.0


def test_open_loop_overload_sheds_by_qos_priority(open_loop_section):
    overload = open_loop_section["overload"]
    assert overload["shed"] > 0
    rates = overload["shed_rate_by_class"]
    # Preemptive shedding: the better the class, the lower its shed rate.
    assert rates["latency"] <= rates["throughput"] <= rates["besteffort"]
    assert rates["besteffort"] > 0


def test_open_loop_validation_flags_problems(open_loop_section):
    section = json.loads(json.dumps(open_loop_section))
    section["responses_equal_single"] = False
    assert validate_report(serving_report(open_loop=section)) == [
        "serving/open_loop: responses_equal_single=False is not true"
    ]
    broken = json.loads(json.dumps(open_loop_section))
    del broken["runs"][0]["counters"]["spilled"]
    assert validate_report(serving_report(open_loop=broken)) == [
        "serving/open_loop/runs[0]/counters: missing spilled"
    ]


def test_open_loop_and_adaptation_blocks_coexist(
    committed_report, open_loop_section, tmp_path
):
    out = tmp_path / "BENCH_voyager.json"
    adaptation = committed_report["serving"]["adaptation"]
    assert write_report(out, {"serving/adaptation": adaptation}) == 0
    assert write_report(out, {"serving/open_loop": open_loop_section}) == 0
    report = load_report(out)
    merged = report["serving"]
    # both blocks coexist: the open-loop write kept the adaptation block
    assert merged["adaptation"] == adaptation
    assert merged["open_loop"]["requests"] == 100
    assert validate_report(report) == []
    # floats in the open-loop block were rounded at serialisation
    wall = merged["open_loop"]["runs"][0]["wall_s"]
    assert wall == round(wall, 6)


def test_open_loop_cli_runs_gates_and_fails_cleanly(
    tmp_path, capsys, monkeypatch
):
    import voyager.bench as bench_mod
    import voyager.loadgen as loadgen_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    base = [
        "--profile", "smoke",
        "--shards", "2", "--streams", "4", "--accesses", "25",
        "--rate", "20000", "--out", str(out),
    ]
    rc = loadgen_mod.main(base + ["--max-p99-ms", "1e9"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "shards=2" in captured.out
    assert "p99=" in captured.out
    loaded = json.loads(out.read_text())
    assert validate_report(loaded) == []
    assert loaded["serving"]["open_loop"]["runs"][-1]["shards"] == 2
    assert loaded["serving"]["open_loop"]["profile"] == "tiny"
    before = out.read_bytes()

    rc = loadgen_mod.main(
        base + ["--max-p99-ms", "1e-9", "--min-throughput", "1e18"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "above --max-p99-ms" in err
    assert "below --min-throughput" in err
    assert out.read_bytes() == before

    # config errors exit 1 with a clean message, not a traceback
    rc = loadgen_mod.main(base + ["--qos-mix", "platinum=1"])
    assert rc == 1
    assert "qos class" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the write rule at serve-bench, saturating and timed arrivals
# ----------------------------------------------------------------------
SERVE_MODES = {
    "saturate": ["--arrival", "saturate", "--shards", "1"],
    "open_loop": ["--shards", "1", "--rate", "20000"],
}


@pytest.mark.parametrize("mode", sorted(SERVE_MODES))
def test_failing_serving_gate_leaves_the_report_untouched(
    mode, tmp_path, capsys, monkeypatch
):
    """A gate failure is reported before anything is written: the
    existing file keeps its bytes."""
    import voyager.bench as bench_mod
    import voyager.loadgen as loadgen_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    out.write_text('{"previous": "report"}\n')
    rc = loadgen_mod.main(
        [
            "--profile", "smoke", "--streams", "2", "--accesses", "5",
            "--min-throughput", "1e12", "--out", str(out),
            *SERVE_MODES[mode],
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert any("below --min-throughput" in line for line in err)
    assert err[-1] == f"error: {out} not written"
    assert out.read_text() == '{"previous": "report"}\n'


@pytest.mark.parametrize("mode", sorted(SERVE_MODES))
def test_serve_bench_into_an_older_report_writes_only_its_block(
    mode, tmp_path, monkeypatch
):
    """An older file's grid is dropped, not relabelled as current."""
    import voyager.bench as bench_mod
    import voyager.loadgen as loadgen_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    out.write_text(
        json.dumps(
            {
                "schema_version": 7,
                "profile": "full",
                "workloads": {"stride": {}, "page_cycle": {}},
            }
        )
    )
    rc = loadgen_mod.main(
        [
            "--profile", "smoke", "--streams", "2", "--accesses", "5",
            "--out", str(out), *SERVE_MODES[mode],
        ]
    )
    assert rc == 0
    written = json.loads(out.read_text())
    assert validate_report(written) == []
    assert set(written) == {"schema_version", "serving"}
    assert set(written["serving"]) == {"open_loop"}
