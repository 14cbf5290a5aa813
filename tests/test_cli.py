"""CLI tests: the subcommands plus error paths and determinism."""

import json
import re

import pytest

from voyager.bench import BENCH_SCHEMA_VERSION, validate_report
from voyager.cli import main
from voyager.traces import parse_trace


@pytest.fixture
def stride_trace_file(tmp_path):
    path = tmp_path / "stride.txt"
    rc = main(["gen", "stride", "--out", str(path), "-n", "400"])
    assert rc == 0
    return path


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------
def test_gen_writes_parseable_trace(stride_trace_file):
    trace = parse_trace(stride_trace_file)
    assert len(trace) == 400
    assert trace[1].block - trace[0].block == 1


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "subcommand" in capsys.readouterr().err


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _train_args(path, extra=()):
    return [
        "train",
        "--trace",
        str(path),
        "--steps",
        "60",
        "--hidden-dim",
        "16",
        "--embed-dim",
        "8",
        "--seed",
        "0",
        *extra,
    ]


def test_malformed_trace_is_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0x1,0x40\nbogus-line\n")
    assert main(["train", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_missing_trace_file_is_clean_error(tmp_path, capsys):
    assert main(["train", "--trace", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_training_run_prints_metrics(stride_trace_file, capsys):
    rc = main(_train_args(stride_trace_file))
    assert rc == 0
    out = capsys.readouterr().out
    assert "page_acc=" in out and "offset_acc=" in out
    assert "baseline next_line" in out and "baseline stride" in out


def test_training_run_is_deterministic(stride_trace_file, capsys):
    main(_train_args(stride_trace_file))
    first = capsys.readouterr().out
    main(_train_args(stride_trace_file))
    second = capsys.readouterr().out
    assert first == second


def test_no_baselines_flag(stride_trace_file, capsys):
    rc = main(_train_args(stride_trace_file, ["--no-baselines"]))
    assert rc == 0
    assert "baseline next_line" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# train --save -> simulate --checkpoint
# ----------------------------------------------------------------------
def test_train_save_then_simulate_checkpoint(stride_trace_file, tmp_path, capsys):
    prefix = tmp_path / "ckpt" / "model"
    rc = main(_train_args(stride_trace_file, ["--save", str(prefix)]))
    assert rc == 0
    assert "saved checkpoint" in capsys.readouterr().out
    assert prefix.with_suffix(".npz").exists()
    assert prefix.with_suffix(".vocab.json").exists()

    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(prefix),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetcher=neural" in out and "coverage=" in out


def test_sequence_train_then_stateful_simulate(tmp_path, capsys):
    trace_path = tmp_path / "pc.txt"
    assert main(["gen", "page_cycle", "--out", str(trace_path), "-n", "400"]) == 0
    prefix = tmp_path / "ckpt" / "model"
    rc = main(
        _train_args(
            trace_path,
            [
                "--seq-len",
                "16",
                "--save",
                str(prefix),
            ],
        )
    )
    assert rc == 0
    capsys.readouterr()

    rc = main(
        [
            "simulate",
            "--trace",
            str(trace_path),
            "--checkpoint",
            str(prefix),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetcher=neural" in out
    coverage = float(out.split("coverage=")[1].split()[0])
    assert coverage > 0.0


def test_simulate_stateful_without_checkpoint_is_clean_error(
    stride_trace_file, capsys
):
    """Carried-state neural simulation is selected by --checkpoint; a
    simulate call with neither a checkpoint nor a baseline is a usage
    error naming --checkpoint, and the two cannot be combined."""
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--trace", str(stride_trace_file)])
    assert excinfo.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "simulate",
                "--trace",
                str(stride_trace_file),
                "--prefetcher",
                "next_line",
                "--checkpoint",
                "ck/m",
            ]
        )
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_simulate_missing_checkpoint_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tmp_path / "absent"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# simulate (baselines)
# ----------------------------------------------------------------------
def test_simulate_baseline_with_distance(stride_trace_file, capsys):
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "next_line",
            "--degree",
            "1",
            "--distance",
            "8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetcher=next_line" in out
    coverage = float(out.split("coverage=")[1].split()[0])
    assert coverage > 0.9


def test_simulate_none_reproduces_baseline_miss_rate(stride_trace_file, capsys):
    rc = main(
        ["simulate", "--trace", str(stride_trace_file), "--prefetcher", "none"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    miss = float(out.split(" miss_rate=")[1].split()[0])
    baseline = float(out.split("baseline_miss_rate=")[1].split()[0])
    assert miss == baseline


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def test_bench_cmd_tiny_profile(tmp_path, capsys, monkeypatch):
    """Fast-tier bench coverage: shrink the smoke profile, same code path."""
    import voyager.bench as bench_mod
    from voyager.bench import BenchProfile

    tiny = BenchProfile(
        name="tiny",
        trace_length=200,
        train_steps=5,
        embed_dim=8,
        hidden_dim=16,
        workloads=("stride", "page_cycle"),
    )
    monkeypatch.setitem(bench_mod.PROFILES, "smoke", tiny)
    out_path = tmp_path / "BENCH_voyager.json"
    rc = main(["bench", "--profile", "smoke", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert validate_report(report) == []
    assert "wrote" in capsys.readouterr().out


@pytest.mark.slow
def test_bench_smoke_writes_valid_report(tmp_path, capsys):
    out_path = tmp_path / "BENCH_voyager.json"
    rc = main(["bench", "--profile", "smoke", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == BENCH_SCHEMA_VERSION
    assert validate_report(report) == []
    assert len(report["workloads"]) >= 2
    assert "wrote" in capsys.readouterr().out


# ----------------------------------------------------------------------
# simulate/serve error paths: clean exits, never tracebacks
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_checkpoint(stride_trace_file, tmp_path):
    prefix = tmp_path / "ckpt" / "model"
    rc = main(
        [
            "train",
            "--trace",
            str(stride_trace_file),
            "--steps",
            "5",
            "--hidden-dim",
            "8",
            "--embed-dim",
            "4",
            "--no-baselines",
            "--save",
            str(prefix),
        ]
    )
    assert rc == 0
    return prefix


def test_simulate_corrupt_checkpoint_npz_is_clean_error(
    stride_trace_file, tiny_checkpoint, capsys
):
    tiny_checkpoint.with_suffix(".npz").write_bytes(b"not a zip archive")
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a readable .npz" in err


def test_simulate_corrupt_checkpoint_meta_is_clean_error(
    stride_trace_file, tiny_checkpoint, capsys
):
    tiny_checkpoint.with_suffix(".vocab.json").write_text("{truncated")
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err


def test_simulate_checkpoint_missing_meta_fields_is_clean_error(
    stride_trace_file, tiny_checkpoint, capsys
):
    tiny_checkpoint.with_suffix(".vocab.json").write_text(
        json.dumps({"schema_version": 1})
    )
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_serve_missing_checkpoint_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "serve",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tmp_path / "absent"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "incomplete" in err


@pytest.mark.parametrize(
    "streams,trace_text,message",
    [
        ("0", None, "--streams must be >= 1, got 0"),
        ("4", "", "empty trace, nothing to serve"),
    ],
    ids=["zero-streams", "empty-trace"],
)
def test_serve_rejects_zero_streams_and_an_empty_trace(
    stride_trace_file, tiny_checkpoint, capsys, streams, trace_text, message
):
    if trace_text is not None:
        stride_trace_file.write_text(trace_text)
    rc = main(
        [
            "serve",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
            "--streams",
            streams,
        ]
    )
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line


def test_serve_adapt_swaps_on_schedule_without_shedding(
    tmp_path, capsys, monkeypatch
):
    """``serve --adapt`` hooks every adapt_every x streams requests:
    each hook rotates a full segment, fine-tunes and swaps; the run
    sheds nothing, logs every access, and answers every request before
    the first swap with the simulator's candidates."""
    import voyager.cli as cli_mod
    from voyager.loadgen import LoadGenConfig, _sim_candidates, serve_trace
    from voyager.model import load_checkpoint

    trace_path = tmp_path / "drift.txt"
    prefix = tmp_path / "ckpt" / "model"
    assert main(
        ["gen", "drifting_zipf", "--out", str(trace_path), "-n", "200"]
    ) == 0
    assert main(
        [
            "train", "--trace", str(trace_path), "--steps", "5",
            "--embed-dim", "4", "--hidden-dim", "8", "--seq-len", "8",
            "--no-baselines", "--save", str(prefix),
        ]
    ) == 0
    served = {}
    drive = cli_mod.drive_open_loop

    def recording(*args, **kwargs):
        result = drive(*args, **kwargs)
        served["candidates"] = result[1]
        return result

    monkeypatch.setattr(cli_mod, "drive_open_loop", recording)
    capsys.readouterr()
    rc = main(
        [
            "serve", "--trace", str(trace_path), "--checkpoint", str(prefix),
            "--streams", "2", "--adapt", str(tmp_path / "logs"),
            "--adapt-every", "20", "--adapt-steps", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # k x adapt_every x streams, the last one after the last response
    assert re.findall(r"request (\d+): swapped in", out) == [
        "40", "80", "120", "160", "200"
    ]
    assert "streams=2 accesses=200 " in out and " shed=0 " in out
    assert "adapt: logged=200 dropped=0 segments=5 swaps=5" in out
    model, pc_vocab, page_vocab = load_checkpoint(prefix)
    traces, _ = serve_trace(parse_trace(trace_path), 2)
    want = _sim_candidates(model, pc_vocab, page_vocab, traces, LoadGenConfig())
    got = served["candidates"]
    assert [c[:20] for c in got] == [c[:20] for c in want]


def test_serve_adapt_reports_the_segments_it_closed(tmp_path, capsys):
    """A second ``serve --adapt`` on the same log dir closes as many
    segments as the first and reports that count, not every segment
    the directory holds."""
    trace_path = tmp_path / "drift.txt"
    prefix = tmp_path / "ckpt" / "model"
    assert main(
        ["gen", "drifting_zipf", "--out", str(trace_path), "-n", "120"]
    ) == 0
    assert main(
        [
            "train", "--trace", str(trace_path), "--steps", "2",
            "--embed-dim", "4", "--hidden-dim", "8", "--seq-len", "8",
            "--no-baselines", "--save", str(prefix),
        ]
    ) == 0
    serve = [
        "serve", "--trace", str(trace_path), "--checkpoint", str(prefix),
        "--streams", "2", "--adapt", str(tmp_path / "logs"),
        "--adapt-every", "20", "--adapt-steps", "1",
    ]
    for _ in range(2):
        capsys.readouterr()
        assert main(serve) == 0
        assert "dropped=0 segments=3 swaps=3" in capsys.readouterr().out
    assert len(list((tmp_path / "logs").glob("segment-*.csv"))) == 6


def test_unknown_prefetcher_is_usage_error(stride_trace_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "simulate",
                "--trace",
                str(stride_trace_file),
                "--prefetcher",
                "psychic",
            ]
        )
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_bench_jobs_zero_is_clean_error(capsys, no_sweep):
    rc = main(["bench", "--profile", "smoke", "--jobs", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "jobs" in err


# ----------------------------------------------------------------------
# distill -> simulate --prefetcher table
# ----------------------------------------------------------------------
def test_distill_then_simulate_table(
    stride_trace_file, tiny_checkpoint, tmp_path, capsys
):
    table_path = tmp_path / "tables.json"
    rc = main(
        [
            "distill",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
            "--out",
            str(table_path),
            "--depth",
            "2",
            "--table-size",
            "512",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "distilled" in out and "wrote" in out
    # the teacher rollout and the table build are timed apart
    times = r"in \d+\.\d{3}s \(rollout \d+\.\d{3}s, build \d+\.\d{3}s\)"
    assert re.search(times, out)
    assert table_path.exists()

    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "table",
            "--table",
            str(table_path),
        ]
    )
    assert rc == 0
    assert "prefetcher=table" in capsys.readouterr().out


def test_simulate_table_past_its_top_k_is_clean_error(
    stride_trace_file, tiny_checkpoint, tmp_path, capsys
):
    """A table distilled with ``--top-k 4`` cannot serve the default
    ``--degree 2 --distance 8`` lookahead: one ``error:`` line, exit 1,
    instead of a run that issues nothing."""
    table_path = tmp_path / "tables.json"
    distill = ["distill", "--trace", str(stride_trace_file)]
    distill += ["--checkpoint", str(tiny_checkpoint), "--out", str(table_path)]
    assert main([*distill, "--top-k", "4"]) == 0
    capsys.readouterr()
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "table",
            "--table",
            str(table_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "holds 4 candidates" in err and "10 were asked for" in err


def test_distill_missing_checkpoint_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "distill",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tmp_path / "absent"),
            "--out",
            str(tmp_path / "t.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_distill_invalid_depth_is_clean_error(
    stride_trace_file, tiny_checkpoint, tmp_path, capsys
):
    rc = main(
        [
            "distill",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
            "--out",
            str(tmp_path / "t.json"),
            "--depth",
            "0",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_table_without_table_file_is_clean_error(
    stride_trace_file, capsys
):
    rc = main(
        ["simulate", "--trace", str(stride_trace_file), "--prefetcher", "table"]
    )
    assert rc == 1
    assert "needs --table" in capsys.readouterr().err


def test_simulate_table_flag_without_table_prefetcher_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "stride",
            "--table",
            str(tmp_path / "t.json"),
        ]
    )
    assert rc == 1
    assert "only makes sense" in capsys.readouterr().err


def test_simulate_corrupt_table_file_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    table_path = tmp_path / "t.json"
    table_path.write_text("[1, 2, 3]")
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "table",
            "--table",
            str(table_path),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_table_file_missing_a_depth_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    """A table file whose config lists a depth it holds no table for
    would fail its first probe at that depth: it is rejected on load."""
    from voyager.distill import DistillConfig, DistilledTable
    from voyager.vocab import Vocab

    table = DistilledTable(
        DistillConfig(depths=(2, 1)),
        Vocab(cap=8).fit([1]),
        Vocab(cap=8).fit([1]),
    )
    data = table.to_dict()
    del data["tables"]["1"]
    table_path = tmp_path / "t.json"
    table_path.write_text(json.dumps(data))
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "table",
            "--table",
            str(table_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: distilled table holds depths [2] but its config lists [2, 1]"
    ]


def test_workloads_json_listing(capsys):
    assert main(["workloads", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert isinstance(listing, list)
    names = {entry["name"] for entry in listing}
    assert {"stride", "page_cycle", "random_walk"} <= names
    assert all(entry["description"] for entry in listing)
    # the human listing still works and covers the same registry
    assert main(["workloads"]) == 0
    human = capsys.readouterr().out
    assert all(name in human for name in names)
