"""Bench runner tests on a tiny profile (full smoke runs in CI/CLI)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from voyager.bench import (
    BENCH_SCHEMA_VERSION,
    FULL_PROFILE,
    PREFETCHERS,
    REPORT_SCHEMA,
    SECTIONS,
    BenchProfile,
    _parts,
    _walk,
    check_sim_budget,
    derive_cell_seed,
    merge_report,
    resolve_jobs,
    run_bench,
    strip_timing_fields,
    validate_report,
    write_bench,
)
from voyager.ioutil import round_floats
from voyager.sim import SimConfig

#: Tiny but real: both workload count and metric structure match smoke.
TINY = BenchProfile(
    name="tiny",
    trace_length=300,
    train_steps=10,
    embed_dim=8,
    hidden_dim=16,
    workloads=("stride", "page_cycle"),
    sim=SimConfig(degree=2, distance=4, latency=4),
)


@pytest.fixture(scope="module")
def report():
    return run_bench(TINY, seed=0, frontier=True)


#: The ``distill`` section's timing keys, at every level of it.
FRONTIER_TIMING_FIELDS = (
    "sim_s",
    "train_s",
    "build_s",
    "rollout_s",
    "speedup_vs_neural",
    "elapsed_s",
)


def frontier_values(section):
    """Every non-timing value of a ``distill`` section."""
    if isinstance(section, dict):
        return {
            key: frontier_values(value)
            for key, value in section.items()
            if key not in FRONTIER_TIMING_FIELDS
        }
    if isinstance(section, list):
        return [frontier_values(value) for value in section]
    return section


def test_report_shape_and_schema(report):
    assert report["schema_version"] == BENCH_SCHEMA_VERSION
    assert report["profile"] == "tiny"
    assert set(report["workloads"]) == {"stride", "page_cycle"}
    for entries in report["workloads"].values():
        assert set(entries) == set(PREFETCHERS)
        for entry in entries.values():
            for metric in ("accuracy", "coverage", "timeliness", "miss_rate"):
                assert metric in entry


def test_report_passes_its_own_validator(report):
    assert validate_report(report) == []


def test_validator_flags_problems(report):
    assert validate_report({"schema_version": 99}) != []
    broken = json.loads(json.dumps(report))
    del broken["workloads"]["stride"]["neural"]
    assert any("neural" in p for p in validate_report(broken))
    bad_metric = json.loads(json.dumps(report))
    bad_metric["workloads"]["stride"]["stride"]["accuracy"] = 1.5
    assert any("accuracy" in p for p in validate_report(bad_metric))


def test_bench_metrics_deterministic_across_runs(report):
    rerun = run_bench(TINY, seed=0)
    for workload, entries in report["workloads"].items():
        for kind, entry in entries.items():
            for metric in (
                "misses",
                "issued_prefetches",
                "timely_prefetches",
                "accuracy",
                "coverage",
            ):
                assert rerun["workloads"][workload][kind][metric] == entry[metric], (
                    workload,
                    kind,
                    metric,
                )


def test_entries_carry_timing_fields(report):
    for entries in report["workloads"].values():
        for entry in entries.values():
            for field in ("train_s", "sim_s", "cpu_s"):
                assert isinstance(entry[field], float)
                assert entry[field] >= 0.0
            # full precision at measurement time: the sum is *exact*
            assert entry["cpu_s"] == entry["train_s"] + entry["sim_s"]


def test_top_level_timing_fields(report):
    assert report["jobs"] == 1
    assert isinstance(report["elapsed_s"], float)
    assert isinstance(report["cpu_s"], float)
    total = 0.0
    for entries in report["workloads"].values():
        for entry in entries.values():
            total += entry["cpu_s"]
    assert report["cpu_s"] == pytest.approx(total)
    # serial: wall-clock covers at least the summed cell CPU time
    assert report["elapsed_s"] >= report["cpu_s"] * 0.5


def test_validator_flags_missing_timing(report):
    broken = json.loads(json.dumps(report))
    del broken["workloads"]["stride"]["neural"]["sim_s"]
    assert any("sim_s" in p for p in validate_report(broken))


def test_check_sim_budget_gate(report):
    assert check_sim_budget(report, 1e9) == []
    over = check_sim_budget(report, -1.0)
    assert len(over) == len(report["workloads"])
    assert all("exceeds budget" in p for p in over)
    missing = {"workloads": {"stride": {"neural": {}}}}
    assert any("no sim_s" in p for p in check_sim_budget(missing, 1.0))


def test_stride_cells_record_fallback_flag(report):
    """Every stride cell carries the (v3) stride_fallback indicator."""
    for workload, entries in report["workloads"].items():
        assert entries["stride"]["stride_fallback"] is False, workload
        for kind in ("next_line", "neural"):
            assert "stride_fallback" not in entries[kind]


def test_stride_fallback_flag_set_when_table_overflows():
    import voyager.bench as bench_mod

    tiny_table = BenchProfile(
        name="tiny",
        trace_length=200,
        train_steps=5,
        embed_dim=8,
        hidden_dim=16,
        workloads=("random_walk",),
    )

    def overflowing(kind, **kwargs):
        from voyager.baselines import StridePrefetcher
        from voyager.sim import make_prefetcher

        if kind == "stride":
            return StridePrefetcher(max_entries=2)
        return make_prefetcher(kind, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_mod, "make_prefetcher", overflowing)
        with pytest.warns(RuntimeWarning, match="falling back"):
            cells, _ = bench_mod.bench_workload("random_walk", tiny_table)
    assert cells["stride"]["stride_fallback"] is True


def test_table_cells_carry_distill_fields(report):
    """Table cells record the table's shape; v10 made their ``train_s``
    the distillation time and dropped the ``distill_s`` that repeated
    it."""
    for workload, entries in report["workloads"].items():
        cell = entries["table"]
        assert cell["train_s"] > 0.0, workload
        assert cell["table_entries"] > 0, workload
        assert 0.0 <= cell["table_hit_rate"] <= 1.0, workload
        for kind in PREFETCHERS:
            assert "distill_s" not in entries[kind]


def test_next_line_covers_stride_workload(report):
    entry = report["workloads"]["stride"]["next_line"]
    assert entry["coverage"] > 0.9
    assert entry["timeliness"] > 0.9


def test_write_bench_is_valid_json(report, tmp_path):
    path = write_bench(report, tmp_path / "BENCH_voyager.json")
    loaded = json.loads(path.read_text())
    assert loaded["schema_version"] == BENCH_SCHEMA_VERSION
    assert validate_report(loaded) == []
    # atomic write: no staging temp files survive
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_voyager.json"]


def test_write_bench_rounds_only_at_serialisation(report, tmp_path):
    """In-memory timings stay full precision; the JSON copy is rounded."""
    before = json.loads(json.dumps(report))
    path = write_bench(report, tmp_path / "BENCH_voyager.json")
    assert json.loads(json.dumps(report)) == before  # report untouched
    loaded = json.loads(path.read_text())
    for entries in loaded["workloads"].values():
        for entry in entries.values():
            for field in ("train_s", "sim_s", "cpu_s"):
                assert entry[field] == round(entry[field], 6)
    assert loaded["elapsed_s"] == round(loaded["elapsed_s"], 6)
    # non-timing fields are byte-identical to the in-memory report
    assert strip_timing_fields(loaded) == strip_timing_fields(report)


# ----------------------------------------------------------------------
# parallel sweep
# ----------------------------------------------------------------------
def test_parallel_report_matches_serial(report):
    """jobs=2 and jobs=1 agree on every non-timing field, the frontier's
    included."""
    parallel = run_bench(TINY, seed=0, jobs=2, frontier=True)
    assert parallel["jobs"] == 2
    assert strip_timing_fields(parallel) == strip_timing_fields(report)
    assert frontier_values(parallel["distill"]) == frontier_values(
        report["distill"]
    )


def test_strip_timing_fields_removes_all_timing(report):
    stripped = strip_timing_fields(report)
    for key in ("elapsed_s", "cpu_s", "jobs", "distill"):
        assert key not in stripped
    for entries in stripped["workloads"].values():
        for entry in entries.values():
            for key in ("train_s", "sim_s", "cpu_s", "phases"):
                assert key not in entry
            assert "misses" in entry  # metrics survive
    assert stripped["schema_version"] == report["schema_version"]


def test_resolve_jobs():
    import os

    assert resolve_jobs(1) == 1
    assert resolve_jobs("3") == 3
    assert resolve_jobs("auto") == (os.cpu_count() or 1)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs("lots")


def test_derive_cell_seed_is_deterministic_and_per_workload():
    from voyager import synthetic

    assert derive_cell_seed is synthetic.derive_cell_seed
    assert derive_cell_seed(0, "stride") == 174013199
    assert derive_cell_seed(0, "stride") == derive_cell_seed(0, "stride")
    assert derive_cell_seed(0, "stride") != derive_cell_seed(0, "page_cycle")
    assert derive_cell_seed(1, "stride") != derive_cell_seed(0, "stride")
    for workload in ("stride", "page_cycle", "random_walk"):
        assert 0 <= derive_cell_seed(123, workload) < 2**31


def test_profile_sim_records_phases(report):
    profiled = run_bench(TINY, seed=0, profile_sim=True)
    for entries in profiled["workloads"].values():
        for entry in entries.values():
            phases = entry["phases"]
            assert "cache_loop_s" in phases
            assert all(v >= 0.0 for v in phases.values())
    # phases are a timing field: stripped reports still match
    assert strip_timing_fields(profiled) == strip_timing_fields(report)


def test_main_entry_point_runs_and_gates(tmp_path, capsys, monkeypatch):
    """``python -m voyager.bench`` on a tiny profile: exit 0, then gate."""
    import voyager.bench as bench_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    rc = bench_mod.main(
        ["--profile", "smoke", "--out", str(out), "--max-neural-sim-s", "1e9"]
    )
    assert rc == 0
    assert validate_report(json.loads(out.read_text())) == []
    assert "wrote" in capsys.readouterr().out

    rc = bench_mod.main(
        ["--profile", "smoke", "--out", str(out), "--max-neural-sim-s", "-1"]
    )
    assert rc == 1
    assert "exceeds budget" in capsys.readouterr().err


def test_failed_run_leaves_the_report_untouched(tmp_path, capsys, monkeypatch):
    """The write rule: a report that fails a check or gate is printed,
    never written — the existing file keeps its bytes."""
    import voyager.bench as bench_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    out.write_text("previous report\n")
    for gate in (["--max-train-s", "-1"], ["--min-table-speedup", "1e9"]):
        rc = bench_mod.main(["--profile", "smoke", "--out", str(out), *gate])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not written" in err
        assert out.read_text() == "previous report\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--jobs", "0"], "jobs"),
        (["--workloads", " , "], "empty workload list"),
        (["--jobs", "lots"], "jobs"),
        (["--workloads", "zigzag"], "unknown workload"),
    ],
)
def test_main_checks_arguments_before_any_cell_runs(
    argv, flag, tmp_path, capsys, no_sweep
):
    import voyager.bench as bench_mod

    out = tmp_path / "BENCH_voyager.json"
    assert bench_mod.main(["--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_main_rejects_unknown_profile():
    from voyager.bench import _profile_by_name

    with pytest.raises(ValueError, match="unknown profile"):
        _profile_by_name("huge")


# ----------------------------------------------------------------------
# one trace, one model and one distillation rollout per workload
# ----------------------------------------------------------------------
def test_each_workload_generates_and_trains_once(monkeypatch):
    """A workload is the unit of work, its frontier included: one
    ``generate`` and one ``train`` call each, and two rollouts of the
    model the neural cell trained — its simulation, then the one whose
    rows every table of the workload is built from."""
    import voyager.bench as bench_mod
    from voyager import synthetic
    from voyager.sim import NeuralPrefetcher

    generated, trained, rollouts, built = [], [], [], []
    generate, train = synthetic.generate, bench_mod.train
    build_table = bench_mod.build_table
    offline_candidates = NeuralPrefetcher.offline_candidates

    def counted_generate(workload, *args, **kwargs):
        generated.append(workload)
        return generate(workload, *args, **kwargs)

    def counted_train(model, *args, **kwargs):
        trained.append(model)
        return train(model, *args, **kwargs)

    def recording_offline_candidates(self, *args, **kwargs):
        rows = offline_candidates(self, *args, **kwargs)
        rollouts.append((self.model, rows))
        return rows

    def recording_build_table(rows, *args, **kwargs):
        built.append(rows)
        return build_table(rows, *args, **kwargs)

    monkeypatch.setattr(synthetic, "generate", counted_generate)
    monkeypatch.setattr(bench_mod, "train", counted_train)
    monkeypatch.setattr(
        NeuralPrefetcher, "offline_candidates", recording_offline_candidates
    )
    monkeypatch.setattr(bench_mod, "build_table", recording_build_table)
    report = run_bench(TINY, seed=0, frontier=True)
    assert generated == list(TINY.workloads)
    assert len(trained) == len(generated)
    assert len(rollouts) == 2 * len(generated)
    tables = 1 + len(report["distill"]["workloads"]["stride"]["cells"])
    assert len(built) == tables * len(generated)
    for i, model in enumerate(trained):
        (simulated, _), (distilled, rows) = rollouts[2 * i : 2 * i + 2]
        assert simulated is model and distilled is model
        workload_tables = built[i * tables : (i + 1) * tables]
        assert all(table_rows is rows for table_rows in workload_tables)


def test_serial_sweep_runs_frozen_and_leaves_the_heap_as_found(monkeypatch):
    """A serial sweep collects and freezes the heap it starts from, so
    no full collection re-traverses it inside a timed cell, then
    unfreezes it; a heap the caller froze itself is left frozen."""
    import gc

    from voyager import synthetic

    frozen = []
    generate = synthetic.generate

    def recording_generate(*args, **kwargs):
        frozen.append(gc.get_freeze_count())
        return generate(*args, **kwargs)

    monkeypatch.setattr(synthetic, "generate", recording_generate)
    assert gc.get_freeze_count() == 0
    run_bench(TINY, seed=0, jobs=1)
    assert gc.get_freeze_count() == 0
    assert len(frozen) == len(TINY.workloads) and min(frozen) > 0
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        run_bench(TINY, seed=0, jobs=1)
        # frozen objects the sweep freed leave the count, none join it
        assert 0 < gc.get_freeze_count() <= before
    finally:
        gc.unfreeze()


@pytest.fixture(scope="module")
def full_report():
    """One full-profile sweep with its frontier, shared by the slow
    tests that pin it against the committed report."""
    return run_bench(FULL_PROFILE, seed=0, frontier=True)


@pytest.mark.slow
def test_full_profile_grid_equals_the_committed_one(
    full_report, committed_report
):
    """A fresh full-profile sweep reproduces every non-timing value of
    the committed grid: restructuring the sweep moves no counter."""
    assert strip_timing_fields(full_report) == strip_timing_fields(
        committed_report
    )


@pytest.mark.slow
def test_full_profile_frontier_equals_the_committed_one(
    full_report, committed_report
):
    """The same sweep's frontier reproduces every non-timing value of
    the committed ``distill`` section, rounded as it was written."""
    assert frontier_values(round_floats(full_report["distill"])) == (
        frontier_values(committed_report["distill"])
    )


# ----------------------------------------------------------------------
# train_phases per neural cell, --max-train-s gate
# ----------------------------------------------------------------------
from voyager.bench import check_train_budget  # noqa: E402

def test_trained_cells_record_train_mode_and_phases(report):
    """The neural cell, the one that trains, carries train_phases; v9
    dropped the constant train_mode echo from every cell, and v10 the
    table cell's copy of the neural cell's phases."""
    for entries in report["workloads"].values():
        phases = entries["neural"]["train_phases"]
        assert set(phases) == {
            "encode",
            "labels",
            "forward",
            "backward",
            "optimizer",
        }
        assert all(v >= 0.0 for v in phases.values())
        for kind in PREFETCHERS:
            assert "train_mode" not in entries[kind]
        for kind in ("next_line", "stride", "table"):
            assert "train_phases" not in entries[kind]
        assert "distill_s" not in entries["table"]


def test_config_records_sequence_hyperparameters(report):
    config = report["config"]
    assert "train_mode" not in config and "history" not in config
    assert config["seq_len"] == TINY.seq_len
    assert config["tbptt"] == TINY.tbptt
    assert config["lr_schedule"] == TINY.lr_schedule
    assert config["batch_size"] == TINY.batch_size
    assert config["lr"] == TINY.lr


def test_strip_timing_keeps_train_mode_drops_train_phases(report):
    stripped = strip_timing_fields(report)
    for workload, entries in stripped["workloads"].items():
        assert "train_phases" in report["workloads"][workload]["neural"]
        table = report["workloads"][workload]["table"]
        assert "train_phases" not in table and "distill_s" not in table
        for kind in ("neural", "table"):
            assert "train_phases" not in entries[kind]
            assert "accuracy" in entries[kind]  # metrics survive


def test_validator_flags_missing_train_fields(report):
    table = report["workloads"]["stride"]["table"]
    assert "train_phases" not in table and "distill_s" not in table
    broken = json.loads(json.dumps(report))
    del broken["workloads"]["stride"]["neural"]["train_phases"]
    assert validate_report(broken) == ["stride/neural: missing train_phases"]


def test_check_train_budget_gate(report):
    assert check_train_budget(report, 1e9) == []
    over = check_train_budget(report, -1.0)
    assert len(over) == len(report["workloads"])
    assert all("exceeds budget" in p for p in over)
    missing = {"workloads": {"stride": {"neural": {}}}}
    assert any("no train_s" in p for p in check_train_budget(missing, 1.0))


def test_train_phases_rounded_at_serialisation(report, tmp_path):
    out = tmp_path / "BENCH_voyager.json"
    write_bench(report, out)
    loaded = json.loads(out.read_text())
    for entries in loaded["workloads"].values():
        for v in entries["neural"]["train_phases"].values():
            assert v == round(v, 6)
        assert "train_phases" not in entries["table"]
        assert "distill_s" not in entries["table"]


# ----------------------------------------------------------------------
# one report path: merge rule, schema table, write rule
# ----------------------------------------------------------------------
def test_merge_replaces_a_section_whole_and_keeps_the_others(
    committed_report,
):
    fresh = {"streams": 1, "only_new": True}
    merged = merge_report(committed_report, {"serving/open_loop": fresh})
    assert merged["serving"]["open_loop"] == fresh  # no stale key left
    assert merged["serving"]["adaptation"] == (
        committed_report["serving"]["adaptation"]
    )
    assert merged["distill"] == committed_report["distill"]
    assert strip_timing_fields(merged) == strip_timing_fields(
        committed_report
    )


def test_merge_drops_every_section_of_an_older_report(committed_report):
    block = committed_report["serving"]["open_loop"]
    committed_report["schema_version"] = BENCH_SCHEMA_VERSION - 1
    merged = merge_report(committed_report, {"serving/open_loop": block})
    assert merged == {
        "schema_version": BENCH_SCHEMA_VERSION,
        "serving": {"open_loop": block},
    }


def test_committed_report_passes_the_validator(committed_report):
    assert committed_report["schema_version"] == BENCH_SCHEMA_VERSION
    assert validate_report(committed_report) == []


def _parent_of(report, where):
    """The container of the value at a walked path like
    ``("distill", "workloads", "stride", "cells[0]", "sim_s")``."""
    node = report
    for step in where[:-1]:
        key, _, index = step.partition("[")
        node = node[key]
        if index:
            node = node[int(index[:-1])]
    return node


def test_schema_table_flags_every_missing_key_by_its_path(committed_report):
    """Walk REPORT_SCHEMA over the committed report, which holds every
    section: each row selects a value, and removing a required key is
    flagged with its container's path and the key."""
    from voyager.bench import _label

    report = committed_report
    assert set(SECTIONS) == {"grid", "distill"} | {
        f"serving/{block}" for block in report["serving"]
    }
    for name, rows in REPORT_SCHEMA.items():
        prefix = [] if name == "grid" else _parts(name)
        for path, _ in rows:
            parts = prefix + _parts(path)
            matches = list(_walk(report, parts))
            assert matches, f"{name}: row {path!r} selects nothing"
            where, value = matches[0]
            if not path or parts[-1] in ("*", "[]"):
                continue  # a section, dict entry or list item: no key
            parent = _parent_of(report, where)
            del parent[where[-1]]
            assert f"{_label(where[:-1])}: missing {where[-1]}" in (
                validate_report(report)
            ), where
            parent[where[-1]] = value
    assert validate_report(report) == []


@pytest.mark.parametrize(
    "block,flag",
    [
        ("open_loop", "responses_equal_sim"),
        ("open_loop", "responses_equal_single"),
    ],
)
def test_validator_flags_a_false_equality_flag(committed_report, block, flag):
    committed_report["serving"][block][flag] = False
    assert validate_report(committed_report) == [
        f"serving/{block}: {flag}=False is not true"
    ]


def test_bench_refuses_to_carry_an_invalid_section(
    tmp_path, capsys, monkeypatch, committed_report
):
    """bench validates the file it would write, not only its own grid:
    a carried serving block that fails stops the write."""
    import voyager.bench as bench_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    bad_block = committed_report["serving"]["open_loop"]
    bad_block["responses_equal_sim"] = False
    out.write_text(
        json.dumps(
            {
                "schema_version": BENCH_SCHEMA_VERSION,
                "serving": {"open_loop": bad_block},
            }
        )
    )
    before = out.read_bytes()
    assert bench_mod.main(["--profile", "smoke", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert (
        "error: serving/open_loop: responses_equal_sim=False is not true"
        in err
    )
    assert err[-1] == f"error: {out} not written"
    assert out.read_bytes() == before


def test_bench_into_an_older_report_drops_its_sections(
    tmp_path, monkeypatch
):
    """A v7-era file's serving block is not carried into the new file
    (nor relabelled as current): the result passes the validator."""
    import voyager.bench as bench_mod

    monkeypatch.setitem(bench_mod.PROFILES, "smoke", TINY)
    out = tmp_path / "BENCH_voyager.json"
    out.write_text(
        json.dumps(
            {
                "schema_version": 7,
                "profile": "full",
                "serving": {
                    "streams": 8,
                    "throughput_accesses_per_s": 1000.0,
                    "responses_equal_serial": True,
                },
            }
        )
    )
    assert bench_mod.main(["--profile", "smoke", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert validate_report(written) == []
    assert "serving" not in written
    assert written["profile"] == "tiny"


def test_python_m_bench_prints_one_error_line(tmp_path):
    """``python -m voyager.bench`` executes the module once — importing
    the package no longer imports ``voyager.bench`` first, which made
    runpy warn — so a bad argument prints exactly one ``error:`` line."""
    import os

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")
    )
    done = subprocess.run(
        [sys.executable, "-m", "voyager.bench", "--jobs", "0"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: jobs must be >= 1, got 0"]
    assert list(tmp_path.iterdir()) == []
