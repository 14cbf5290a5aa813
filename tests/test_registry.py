"""The workload registry contract: one name space, every consumer.

The zoo's promise is that a workload registered in
``voyager.synthetic.REGISTRY`` is reachable *by name* from every
consumer — the bench grid, the CLI's ``gen``/``simulate --workload``,
and the serving load generator — and that an unknown name is a clean
exit-1 listing the registry, never a traceback.  These tests walk the
whole registry through each consumer.
"""

import json

import pytest

from voyager import synthetic
from voyager.bench import (
    BenchProfile,
    profile_with_workloads,
    run_bench,
    validate_report,
)
from voyager.cli import main
from voyager.loadgen import LoadGenConfig, main as loadgen_main, stream_traces


# ----------------------------------------------------------------------
# registry shape
# ----------------------------------------------------------------------
def test_registry_names_are_canonical():
    assert synthetic.WORKLOADS == tuple(synthetic.REGISTRY)
    assert len(set(synthetic.WORKLOADS)) == len(synthetic.WORKLOADS)
    for name, spec in synthetic.REGISTRY.items():
        assert spec.name == name
        assert spec.description


def test_registry_contains_the_zoo():
    for name in (
        "stride",
        "page_cycle",
        "random_walk",
        "multi_phase",
        "interleaved_mix",
        "pointer_chase",
        "zipf_db",
    ):
        assert name in synthetic.REGISTRY


def test_register_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        synthetic.register("stride", lambda n, seed: [], "dup")


def test_resolve_unknown_lists_registry():
    with pytest.raises(ValueError) as excinfo:
        synthetic.resolve("zigzag")
    message = str(excinfo.value)
    assert "unknown workload" in message
    for name in synthetic.WORKLOADS:
        assert name in message


@pytest.mark.parametrize("workload", synthetic.WORKLOADS)
def test_every_workload_generates_deterministically(workload):
    a = synthetic.generate(workload, 120, seed=5)
    b = synthetic.generate(workload, 120, seed=5)
    assert a == b and len(a) == 120


# ----------------------------------------------------------------------
# bench resolves the registry
# ----------------------------------------------------------------------
TINY = BenchProfile(
    name="tiny",
    trace_length=150,
    train_steps=4,
    embed_dim=8,
    hidden_dim=16,
)


def test_bench_grid_covers_whole_registry():
    """Same code path as ``bench --profile smoke``, shrunk for tier-1."""
    report = run_bench(TINY, seed=0)
    assert validate_report(report) == []
    assert tuple(report["workloads"]) == synthetic.WORKLOADS


def test_profile_with_workloads_override_and_errors():
    profile = profile_with_workloads(TINY, "zipf_db, pointer_chase")
    assert profile.workloads == ("zipf_db", "pointer_chase")
    assert profile_with_workloads(TINY, None) is TINY
    with pytest.raises(ValueError, match="unknown workload"):
        profile_with_workloads(TINY, "zipf_db,zigzag")
    with pytest.raises(ValueError, match="empty workload list"):
        profile_with_workloads(TINY, " , ")


def test_bench_cli_workloads_subset(tmp_path, capsys, monkeypatch):
    import voyager.bench as bench_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    rc = main(
        [
            "bench",
            "--profile",
            "smoke",
            "--out",
            str(out),
            "--workloads",
            "pointer_chase,zipf_db",
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == ["pointer_chase", "zipf_db"]


def test_bench_cli_unknown_workload_exits_cleanly(capsys):
    rc = main(["bench", "--profile", "smoke", "--workloads", "zigzag"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown workload" in err


# ----------------------------------------------------------------------
# CLI gen / simulate resolve the registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", synthetic.WORKLOADS)
def test_simulate_by_name_runs_every_workload(workload, capsys):
    rc = main(
        [
            "simulate",
            "--workload",
            workload,
            "-n",
            "300",
            "--prefetcher",
            "next_line",
        ]
    )
    assert rc == 0
    assert "prefetcher=next_line" in capsys.readouterr().out


@pytest.mark.parametrize("workload", synthetic.WORKLOADS)
def test_gen_by_name_writes_every_workload(workload, tmp_path, capsys):
    out = tmp_path / f"{workload}.txt"
    rc = main(["gen", workload, "--out", str(out), "-n", "50"])
    assert rc == 0
    assert out.exists()


def test_gen_unknown_workload_exits_cleanly(tmp_path, capsys):
    rc = main(["gen", "zigzag", "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown workload" in err


def test_simulate_unknown_workload_exits_cleanly(capsys):
    rc = main(["simulate", "--workload", "zigzag", "--prefetcher", "stride"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown workload" in err


def test_workloads_subcommand_lists_registry(capsys):
    rc = main(["workloads"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in synthetic.WORKLOADS:
        assert name in out


# ----------------------------------------------------------------------
# loadgen resolves the registry
# ----------------------------------------------------------------------
def test_stream_traces_cover_whole_registry():
    from voyager.synthetic import derive_cell_seed

    config = LoadGenConfig(
        streams=len(synthetic.WORKLOADS), accesses_per_stream=40
    )
    traces = stream_traces(TINY, config, seed=0)
    assert len(traces) == len(synthetic.WORKLOADS)
    # Stream i replays registry workload i with its stream-derived seed.
    for i, (workload, trace) in enumerate(zip(synthetic.WORKLOADS, traces)):
        assert trace == synthetic.generate(
            workload, 40, seed=derive_cell_seed(0, f"{workload}/stream{i}")
        )


def test_serve_bench_unknown_workload_exits_cleanly(capsys):
    rc = main(["serve-bench", "--workloads", "zigzag"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown workload" in err


def test_loadgen_main_unknown_workload_exits_cleanly(capsys):
    rc = loadgen_main(["--workloads", "zigzag"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown workload" in err
