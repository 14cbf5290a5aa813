"""Benchmark runner: synthetic workloads x prefetchers -> BENCH_voyager.json.

Sweeps every synthetic workload against the next-line and stride
baselines, a freshly trained neural model, and the distilled lookup
table compiled from that same model (:mod:`voyager.distill`),
simulating each with :func:`voyager.sim.simulate` under one shared
issue policy, and writes a schema-versioned JSON report to the repo
root (or ``--out``).  The report is the cross-PR benchmark trajectory
ROADMAP asks for: CI runs the smoke profile and archives the file as a
build artifact.  ``--distill-frontier`` additionally sweeps the
table-size x context-depth latency/quality frontier per workload into
a ``distill`` section, and the ``--min-table-speedup`` /
``--max-table-coverage-drop`` flags gate the grid's table-vs-neural
cells in CI.

The (workload x prefetcher) grid is embarrassingly parallel — each
cell derives its own seed from the top-level seed (so no RNG state is
shared across processes) and every prefetcher of a workload regenerates
the identical trace from that derived seed.  ``run_bench(..., jobs=N)``
fans the cells over a :class:`~concurrent.futures.ProcessPoolExecutor`
(the ``--jobs`` CLI flag accepts ``auto`` for the CPU count); the
resulting report is bit-identical to the serial one in every non-timing
field, which the equivalence tests pin.

Each prefetcher entry carries three timing fields: ``train_s`` (model
training, zero for the table baselines), ``sim_s`` (the trace-driven
simulation itself) and ``cpu_s`` (their sum — per-cell CPU cost, which
unlike wall-clock is comparable between serial and parallel runs).
The top-level ``elapsed_s`` stays wall-clock and ``cpu_s`` sums the
cells, so the parallel speedup is ``cpu_s / elapsed_s``.  Timings are
kept at full precision in the in-memory report and rounded only when
:func:`write_bench` serialises to JSON, so the CI timing gate
(``--max-neural-sim-s``) compares unrounded values.  With
``--profile-sim`` each cell additionally records the simulator's
per-phase timings (encode / candidates / cache loop).

Neural (and table) cells train with truncated BPTT over
``seq_len``-access segments — every timestep supervised, cosine LR
schedule — and simulate with state carried across accesses and reset
every ``seq_len`` accesses, the rule the model records in its config.
Each trained cell records its ``train_mode`` (always ``"sequence"``)
and a ``train_phases`` wall-time breakdown (encode / labels / forward
/ backward / optimizer), and ``--max-train-s`` gates the neural
``train_s`` per workload the same way ``--max-neural-sim-s`` gates
simulation.

Everything is seeded, so two runs with the same profile produce
identical metric values (wall-clock fields aside).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from voyager import synthetic
from voyager.distill import DistillConfig, build_table, depth_chain
from voyager.ioutil import atomic_write_text, round_floats
from voyager.labeling import LabelConfig
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import NeuralPrefetcher, SimConfig, make_prefetcher, simulate
from voyager.train import build_sequence_dataset, train

#: Bumped whenever the report layout changes incompatibly.
#: v2: per-cell ``elapsed_s`` replaced by ``cpu_s``; top-level gains
#: ``cpu_s`` and ``jobs``; optional per-cell ``phases``.
#: v3: stride cells record ``stride_fallback``; optional top-level
#: ``serving`` section written by ``voyager.loadgen`` (serve-bench).
#: v4: the grid sweeps a fourth prefetcher, ``table`` (the distilled
#: lookup-table predictor; its cells add ``distill_s``,
#: ``table_entries`` and ``table_hit_rate``), and an optional top-level
#: ``distill`` section carries the table-size x context-depth
#: latency/quality frontier written by ``--distill-frontier``.
#: v5: profiles carry a ``train_mode`` (default ``sequence``:
#: truncated-BPTT training + stateful inference; ``window`` keeps the
#: legacy recipe); the config section gains
#: ``train_mode``/``seq_len``/``tbptt``/``lr_schedule``/``batch_size``
#: /``lr``; neural and table cells record ``train_mode`` and a
#: ``train_phases`` breakdown; new ``--max-train-s`` training-time
#: gate.
#: v6: the ``serving`` section gains an ``open_loop`` block (sharded
#: pool: per-shard and aggregate req/s, arrival process parameters,
#: open-loop p50/p95/p99 measured from scheduled arrival,
#: shed/evicted/spilled/restored counters, ``responses_equal_single``,
#: optional ``overload`` QoS-shedding histogram); the closed-loop keys
#: are unchanged and now optional when the open-loop block is present.
#: v7: the ``serving`` section gains an ``adaptation`` block
#: (:func:`voyager.adapt.run_adaptation_bench`): per regime-shifting
#: workload, frozen-vs-adapted serving coverage around each
#: ground-truth phase boundary, the adaptation lag in accesses, and
#: fine-tune/hot-swap counters; any one of the three serving blocks
#: (closed-loop, ``open_loop``, ``adaptation``) satisfies the section.
#: v8: the server predicts from each stream's carried state, so the
#: closed-loop block's reference is the simulator's prefetcher: its
#: ``serial``/``speedup_vs_serial`` keys are gone and
#: ``responses_equal_serial`` became ``responses_equal_sim``.
BENCH_SCHEMA_VERSION = 8

#: Canonical report filename at the repo root.
BENCH_FILENAME = "BENCH_voyager.json"

#: Prefetchers every bench run sweeps.
PREFETCHERS = ("next_line", "stride", "neural", "table")


@dataclass(frozen=True)
class BenchProfile:
    """Workload size and training budget for one bench run.

    The smoke profile is sized so the full sweep finishes in well under
    a minute on a laptop CPU; the full profile is the number to quote.
    """

    name: str
    trace_length: int
    train_steps: int
    embed_dim: int
    hidden_dim: int
    #: Accepted for compatibility and echoed in the report's config;
    #: no computation reads it.
    history: int = 8
    batch_size: int = 32
    lr: float = 1e-2
    #: Training segment length, which the model records as its serving
    #: reset period.
    seq_len: int = 32
    tbptt: int = 8
    lr_schedule: str = "cosine"
    workloads: Sequence[str] = synthetic.WORKLOADS
    sim: SimConfig = field(
        default_factory=lambda: SimConfig(degree=2, distance=8, latency=8)
    )
    #: Distilled-table knobs for the grid's ``table`` cells: the
    #: maximum context depth (the chain is ``depth, depth-1, ..., 1``)
    #: and the per-depth context cap.  ``top_k`` is always sized to the
    #: issue policy's ``degree + distance`` lookahead.
    distill_depth: int = 4
    distill_table_size: int = 4096

    def distill_config(self) -> DistillConfig:
        """The distillation pass the grid's ``table`` cells run."""
        return DistillConfig(
            depths=depth_chain(self.distill_depth),
            table_size=self.distill_table_size,
            top_k=max(1, self.sim.degree + self.sim.distance),
        )


#: The profiles' training hyperparameters come from the measured
#: speed/quality frontier (README "Training performance"): batch 16
#: segments of 32 timesteps, TBPTT 8, peak lr 0.04 annealed by the
#: half-cosine schedule.
SMOKE_PROFILE = BenchProfile(
    name="smoke",
    trace_length=1200,
    train_steps=60,
    embed_dim=8,
    hidden_dim=16,
    batch_size=16,
    lr=0.04,
)
FULL_PROFILE = BenchProfile(
    name="full",
    trace_length=6000,
    train_steps=400,
    embed_dim=16,
    hidden_dim=32,
    batch_size=16,
    lr=0.04,
)
def _train_neural(
    trace, profile: BenchProfile, seed: int
) -> Tuple[NeuralPrefetcher, Dict[str, Any]]:
    """Train the profile's neural prefetcher over ``trace``.

    Returns the prefetcher plus the cell-report fields: ``train_mode``
    and the ``train_phases`` wall-time breakdown.
    """
    # Tiny traces (tests, custom profiles) may be shorter than the
    # profile's segment length; clamp so one segment still fits.  The
    # model records the length it trained on as its reset period.
    seq_len = min(profile.seq_len, max(1, len(trace) - 1))
    dataset = build_sequence_dataset(
        trace, seq_len=seq_len, label_config=LabelConfig()
    )
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=profile.embed_dim,
        hidden_dim=profile.hidden_dim,
        history=profile.history,
        seed=seed,
        seq_len=seq_len,
    )
    model = HierarchicalModel(config)
    result = train(
        model,
        dataset,
        steps=profile.train_steps,
        batch_size=profile.batch_size,
        lr=profile.lr,
        seed=seed,
        tbptt=profile.tbptt,
        lr_schedule=profile.lr_schedule,
        profile=True,
    )
    prefetcher = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    return prefetcher, {
        "train_mode": "sequence",
        "train_phases": result.phases,
    }


def derive_cell_seed(seed: int, workload: str) -> int:
    """Deterministic per-workload seed for a bench cell.

    Every cell computes its own seed from the top-level seed — no RNG
    state crosses process boundaries, so serial and parallel sweeps are
    trivially identical.  Keyed by workload only (not prefetcher): all
    prefetchers of a workload must replay the *same* trace for the
    coverage comparison to mean anything.
    """
    return (seed + zlib.crc32(workload.encode("utf-8"))) % (2**31)


def bench_cell(
    workload: str,
    kind: str,
    profile: BenchProfile,
    seed: int = 0,
    profile_sim: bool = False,
) -> Dict[str, Any]:
    """Run one (workload x prefetcher) cell; picklable for process pools.

    Regenerates the workload trace from the cell's derived seed (cheap
    relative to training/simulation, and what makes cells independent),
    trains the neural model when ``kind == 'neural'``, simulates, and
    returns the metrics entry with full-precision timing fields.
    """
    cell_seed = derive_cell_seed(seed, workload)
    trace = synthetic.generate(workload, profile.trace_length, seed=cell_seed)
    start = time.perf_counter()
    distill_s = None
    train_info: Optional[Dict[str, Any]] = None
    if kind == "neural":
        prefetcher, train_info = _train_neural(trace, profile, cell_seed)
    elif kind == "table":
        # Same derived seed as the neural cell, so the table distills
        # exactly the model the neural cell simulates — the coverage
        # delta between the two cells is the distillation cost alone.
        neural, train_info = _train_neural(trace, profile, cell_seed)
        distill_start = time.perf_counter()
        table = build_table(
            neural.model,
            neural.pc_vocab,
            neural.page_vocab,
            trace,
            profile.distill_config(),
        )
        distill_s = time.perf_counter() - distill_start
        prefetcher = make_prefetcher("table", table=table)
    else:
        prefetcher = make_prefetcher(kind)
    trained = time.perf_counter()
    sim = simulate(trace, prefetcher, profile.sim, profile=profile_sim)
    done = time.perf_counter()
    entry = sim.as_dict()
    del entry["prefetcher"]  # redundant with the dict key
    # ``train_s`` is "time to produce the prefetcher": model training
    # for the neural cell, training + table compilation for the table
    # cell (``distill_s`` breaks out the compilation share), zero for
    # the table baselines — so ``cpu_s == train_s + sim_s`` everywhere.
    entry["train_s"] = trained - start
    entry["sim_s"] = done - trained
    entry["cpu_s"] = entry["train_s"] + entry["sim_s"]
    if train_info is not None:
        entry["train_mode"] = train_info["train_mode"]
        entry["train_phases"] = train_info["train_phases"]
    if kind == "table":
        entry["distill_s"] = distill_s
        entry["table_entries"] = prefetcher.table.total_entries
        entry["table_hit_rate"] = prefetcher.hit_rate
    if kind == "stride":
        # Latched by StridePrefetcher.offline_candidates when the trace
        # overflows the table and the sim fell back to the per-access
        # replay — recorded so the perf cliff is visible in the report.
        entry["stride_fallback"] = bool(getattr(prefetcher, "fallback", False))
    return entry


def profile_with_workloads(
    profile: BenchProfile, spec: Optional[str]
) -> BenchProfile:
    """Apply a ``--workloads`` CLI override to a profile.

    ``spec`` is a comma-separated list of registry workload names (or
    ``None``/empty for no override).  Unknown names raise the
    registry's listing :class:`ValueError`, which the CLI turns into a
    clean exit-1 — never a traceback.
    """
    if not spec:
        return profile
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not names:
        raise ValueError(f"--workloads: empty workload list {spec!r}")
    for name in names:
        synthetic.resolve(name)
    return dataclasses.replace(profile, workloads=names)


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Normalise a ``--jobs`` value: ``'auto'`` means the CPU count."""
    if jobs == "auto":
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_bench(
    profile: BenchProfile = SMOKE_PROFILE,
    seed: int = 0,
    jobs: Union[int, str] = 1,
    profile_sim: bool = False,
) -> Dict[str, Any]:
    """Run the full sweep and return the report dict (not yet written).

    ``jobs > 1`` fans the (workload x prefetcher) cells over a process
    pool; every cell is seeded independently (:func:`derive_cell_seed`),
    so the report matches the serial one in every non-timing field.
    Timing fields stay full-precision here — :func:`write_bench` rounds.
    """
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    cells: List[Tuple[str, str]] = [
        (workload, kind)
        for workload in profile.workloads
        for kind in PREFETCHERS
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            futures = [
                pool.submit(bench_cell, workload, kind, profile, seed, profile_sim)
                for workload, kind in cells
            ]
            entries = [f.result() for f in futures]
    else:
        entries = [
            bench_cell(workload, kind, profile, seed, profile_sim)
            for workload, kind in cells
        ]
    workloads: Dict[str, Dict[str, Any]] = {}
    for (workload, kind), entry in zip(cells, entries):
        workloads.setdefault(workload, {})[kind] = entry
    cpu_s = 0.0
    for entry in entries:  # exact sum in deterministic cell order
        cpu_s += entry["cpu_s"]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "voyager_prefetch_sim",
        "profile": profile.name,
        "seed": seed,
        "jobs": jobs,
        "config": {
            "trace_length": profile.trace_length,
            "train_steps": profile.train_steps,
            "embed_dim": profile.embed_dim,
            "hidden_dim": profile.hidden_dim,
            "history": profile.history,
            "train_mode": "sequence",
            "seq_len": profile.seq_len,
            "tbptt": profile.tbptt,
            "lr_schedule": profile.lr_schedule,
            "batch_size": profile.batch_size,
            "lr": profile.lr,
            "degree": profile.sim.degree,
            "distance": profile.sim.distance,
            "latency": profile.sim.latency,
            "queue_capacity": profile.sim.queue_capacity,
            "cache_sets": profile.sim.cache.num_sets,
            "cache_ways": profile.sim.cache.ways,
        },
        "prefetchers": list(PREFETCHERS),
        "workloads": workloads,
        "cpu_s": cpu_s,
        "elapsed_s": time.perf_counter() - started,
    }


#: Per-cell keys that describe *when/how fast*, not *what happened*.
#: ``train_mode`` is deliberately absent: it is deterministic config,
#: so the parallel-equivalence contract covers it.
CELL_TIMING_FIELDS = (
    "train_s",
    "sim_s",
    "cpu_s",
    "phases",
    "distill_s",
    "train_phases",
)

#: Top-level keys that vary between runs of identical sweeps.  The
#: ``serving`` and ``distill`` sections are throughput/latency
#: measurement through and through, so they are stripped wholesale.
REPORT_TIMING_FIELDS = ("elapsed_s", "cpu_s", "jobs", "serving", "distill")


def strip_timing_fields(report: Dict[str, Any]) -> Dict[str, Any]:
    """Deep-copy ``report`` minus every timing/execution field.

    What remains must be bit-identical between ``jobs=1`` and
    ``jobs=N`` runs of the same profile+seed — the parallel-equivalence
    contract the tests enforce.
    """
    out = {
        k: v for k, v in report.items() if k not in REPORT_TIMING_FIELDS
    }
    out["workloads"] = {
        workload: {
            kind: {
                k: v
                for k, v in entry.items()
                if k not in CELL_TIMING_FIELDS
            }
            for kind, entry in entries.items()
        }
        for workload, entries in report.get("workloads", {}).items()
    }
    return out


def _rounded_for_json(report: Dict[str, Any]) -> Dict[str, Any]:
    """Copy of ``report`` with timing fields rounded for stable diffs.

    Rounding happens *only* here, at serialisation time — the in-memory
    report keeps full precision so gates like :func:`check_sim_budget`
    never compare quantised values.
    """
    out = dict(report)
    for key in ("elapsed_s", "cpu_s"):
        if isinstance(out.get(key), float):
            out[key] = round(out[key], 3)
    workloads = {}
    for workload, entries in report.get("workloads", {}).items():
        workloads[workload] = {}
        for kind, entry in entries.items():
            entry = dict(entry)
            for key in ("train_s", "sim_s", "cpu_s"):
                if isinstance(entry.get(key), float):
                    entry[key] = round(entry[key], 3)
            for phases_key in ("phases", "train_phases"):
                if isinstance(entry.get(phases_key), dict):
                    entry[phases_key] = round_floats(entry[phases_key])
            if isinstance(entry.get("distill_s"), float):
                entry["distill_s"] = round(entry["distill_s"], 3)
            workloads[workload][kind] = entry
    out["workloads"] = workloads
    if isinstance(out.get("distill"), dict):
        out["distill"] = _rounded_distill(out["distill"])
    return out


def _rounded_distill(distill: Dict[str, Any]) -> Dict[str, Any]:
    """Round the ``distill`` section's timing fields for serialisation.

    Simulated table traversals run in milliseconds, so their timings
    keep 6 decimals (3 would quantise them to zero and wreck the
    recorded speedups).
    """
    out = dict(distill)
    if isinstance(out.get("elapsed_s"), float):
        out["elapsed_s"] = round(out["elapsed_s"], 3)
    workloads = {}
    for workload, entry in distill.get("workloads", {}).items():
        entry = dict(entry)
        if isinstance(entry.get("neural"), dict):
            neural = dict(entry["neural"])
            for key in ("sim_s", "train_s"):
                if isinstance(neural.get(key), float):
                    neural[key] = round(neural[key], 6)
            entry["neural"] = neural
        if isinstance(entry.get("cells"), list):
            cells = []
            for cell in entry["cells"]:
                cell = dict(cell)
                for key in ("sim_s", "build_s"):
                    if isinstance(cell.get(key), float):
                        cell[key] = round(cell[key], 6)
                if isinstance(cell.get("speedup_vs_neural"), float):
                    cell["speedup_vs_neural"] = round(
                        cell["speedup_vs_neural"], 2
                    )
                cells.append(cell)
            entry["cells"] = cells
        workloads[workload] = entry
    out["workloads"] = workloads
    return out


def load_report(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Read an existing report, or ``None`` if absent/unparseable.

    Tolerant on purpose: a corrupt or foreign file must not block a
    fresh sweep from overwriting it.
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None


#: Sections that different writers of ``BENCH_voyager.json`` own: the
#: grid sweep owns the top level, serve-bench owns ``serving``, the
#: frontier sweep owns ``distill``.  Each writer carries the others'
#: sections forward on rewrite.
PRESERVED_SECTIONS = ("serving", "distill")


def preserve_sections(
    report: Dict[str, Any],
    path: Union[str, Path],
    sections: Sequence[str] = PRESERVED_SECTIONS,
) -> Dict[str, Any]:
    """Carry an existing file's named sections into ``report``.

    The sweep, the serve-bench and the frontier sweep write the same
    file but own disjoint sections; each preserves the others' on
    rewrite (serve-bench does its mirror image in
    :mod:`voyager.loadgen`).  Sections already present in ``report``
    win — a fresh measurement always beats a stale one.
    """
    previous = load_report(path)
    if previous is None:
        return report
    out = report
    for section in sections:
        if section in previous and section not in out:
            if out is report:
                out = dict(report)
            out[section] = previous[section]
    return out


def preserve_serving(
    report: Dict[str, Any], path: Union[str, Path]
) -> Dict[str, Any]:
    """Back-compat wrapper: preserve only the ``serving`` section."""
    return preserve_sections(report, path, sections=("serving",))


def write_bench(
    report: Dict[str, Any], path: Union[str, Path] = BENCH_FILENAME
) -> Path:
    """Write a report as stable, human-diffable JSON.  Returns the path.

    Timing fields are rounded (3 decimals; simulator phases 6) in the
    serialised copy only; ``report`` itself is left untouched.  The
    write is atomic (temp file + ``os.replace``), so a crashed or
    interrupted run can never leave a truncated report for CI or the
    serve-bench merge path to trip over.
    """
    path = Path(path)
    atomic_write_text(
        path,
        json.dumps(_rounded_for_json(report), indent=2, sort_keys=True) + "\n",
    )
    return path


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Sanity-check a report's shape; returns a list of problems (empty = ok).

    Used by tests and by consumers that read ``BENCH_voyager.json``
    across PRs, so schema drift fails loudly instead of silently.
    """
    problems: List[str] = []
    if report.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {report.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    workloads = report.get("workloads")
    if not isinstance(workloads, dict) or len(workloads) < 2:
        problems.append("expected >= 2 workloads")
        return problems
    for workload, entries in workloads.items():
        for kind in PREFETCHERS:
            entry = entries.get(kind)
            if entry is None:
                problems.append(f"{workload}: missing prefetcher {kind!r}")
                continue
            for metric in ("accuracy", "coverage", "timeliness", "miss_rate"):
                value = entry.get(metric)
                if not isinstance(value, (int, float)):
                    problems.append(f"{workload}/{kind}: missing {metric}")
                elif metric != "coverage" and not 0.0 <= value <= 1.0:
                    problems.append(
                        f"{workload}/{kind}: {metric}={value} out of [0,1]"
                    )
                elif metric == "coverage" and not -1.0 <= value <= 1.0:
                    # coverage can dip below zero under cache pollution
                    problems.append(
                        f"{workload}/{kind}: coverage={value} out of [-1,1]"
                    )
            for field_name in ("train_s", "sim_s", "cpu_s"):
                if not isinstance(entry.get(field_name), (int, float)):
                    problems.append(
                        f"{workload}/{kind}: missing timing {field_name}"
                    )
            if kind in ("neural", "table"):
                if entry.get("train_mode") != "sequence":
                    problems.append(
                        f"{workload}/{kind}: missing/invalid train_mode"
                    )
                if not isinstance(entry.get("train_phases"), dict):
                    problems.append(
                        f"{workload}/{kind}: missing train_phases"
                    )
    for field_name in ("elapsed_s", "cpu_s"):
        if not isinstance(report.get(field_name), (int, float)):
            problems.append(f"missing top-level {field_name}")
    if not isinstance(report.get("jobs"), int):
        problems.append("missing top-level jobs")
    if "serving" in report:
        problems += validate_serving(report["serving"])
    if "distill" in report:
        problems += validate_distill(report["distill"])
    return problems


def validate_serving(serving: Any) -> List[str]:
    """Shape-check a report's ``serving`` section (empty list = ok).

    The section is produced by :func:`voyager.loadgen.run_loadgen`
    (closed-loop keys) and :func:`voyager.loadgen.run_open_loop_bench`
    (the ``open_loop`` block); only the cross-PR contract is checked
    here so the bench side stays independent of the load generator.
    The two halves are written by different CI jobs, so each is
    validated only when present — but at least one must be.
    """
    if not isinstance(serving, dict):
        return ["serving: expected a dict"]
    problems: List[str] = []
    has_open_loop = "open_loop" in serving
    has_adaptation = "adaptation" in serving
    has_closed_loop = "throughput_accesses_per_s" in serving
    if not has_open_loop and not has_closed_loop and not has_adaptation:
        return [
            "serving: none of closed-loop keys, open_loop or "
            "adaptation present"
        ]
    if has_closed_loop:
        if (
            not isinstance(serving.get("streams"), int)
            or serving.get("streams", 0) < 1
        ):
            problems.append("serving: missing streams")
        value = serving.get("throughput_accesses_per_s")
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append("serving: missing throughput_accesses_per_s")
        if serving.get("responses_equal_sim") is not True:
            problems.append("serving: responses_equal_sim is not true")
    if has_open_loop:
        problems += _validate_open_loop(serving["open_loop"])
    if has_adaptation:
        problems += _validate_adaptation(serving["adaptation"])
    return problems


def _validate_adaptation(section: Any) -> List[str]:
    """Shape-check the serving section's ``adaptation`` block (v7).

    Produced by :func:`voyager.adapt.run_adaptation_bench`; only the
    cross-PR contract is pinned here: per-workload frozen/adapted
    coverage, per-boundary phase records with a gain and a lag, and the
    loop counters the CI gates read.
    """
    if not isinstance(section, dict):
        return ["adaptation: expected a dict"]
    problems: List[str] = []
    if not isinstance(section.get("config"), dict):
        problems.append("adaptation: missing config")
    workloads = section.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        problems.append("adaptation: missing workload runs")
        return problems
    for name, run in workloads.items():
        label = f"adaptation/{name}"
        if not isinstance(run, dict):
            problems.append(f"{label}: run entry is not a dict")
            continue
        for key in ("frozen_coverage", "adapted_coverage", "mean_gain"):
            if not isinstance(run.get(key), (int, float)):
                problems.append(f"{label}: missing {key}")
        for key in ("rounds", "swaps", "model_version", "max_lag_accesses"):
            if not isinstance(run.get(key), int):
                problems.append(f"{label}: missing {key}")
        bounds = run.get("boundaries")
        if not isinstance(bounds, list) or len(bounds) < 2:
            problems.append(f"{label}: missing boundaries")
        phases = run.get("phases")
        if not isinstance(phases, list):
            problems.append(f"{label}: missing phases")
            continue
        for phase in phases:
            if not isinstance(phase, dict):
                problems.append(f"{label}: phase entry is not a dict")
                continue
            for key in (
                "boundary",
                "frozen_tail",
                "adapted_tail",
                "gain",
                "lag_accesses",
            ):
                if not isinstance(phase.get(key), (int, float)):
                    problems.append(f"{label}: phase missing {key}")
    return problems


def _validate_open_loop(section: Any) -> List[str]:
    """Shape-check the serving section's ``open_loop`` block."""
    if not isinstance(section, dict):
        return ["open_loop: expected a dict"]
    problems: List[str] = []
    if (
        not isinstance(section.get("requests"), int)
        or section.get("requests", 0) < 1
    ):
        problems.append("open_loop: missing requests")
    arrival = section.get("arrival")
    if not isinstance(arrival, dict) or "process" not in arrival:
        problems.append("open_loop: missing arrival process parameters")
    runs = section.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("open_loop: missing runs")
        runs = []
    for run in runs:
        if not isinstance(run, dict):
            problems.append("open_loop: run entry is not a dict")
            continue
        shards = run.get("shards")
        label = f"open_loop run shards={shards}"
        throughput = run.get("aggregate_throughput_per_s")
        if not isinstance(throughput, (int, float)) or throughput <= 0:
            problems.append(f"{label}: missing aggregate_throughput_per_s")
        latency = run.get("latency")
        if not isinstance(latency, dict):
            problems.append(f"{label}: missing latency summary")
        else:
            for key in ("p50_s", "p95_s", "p99_s"):
                if not isinstance(latency.get(key), (int, float)):
                    problems.append(f"{label}: latency missing {key}")
        counters = run.get("counters")
        if not isinstance(counters, dict):
            problems.append(f"{label}: missing counters")
        else:
            for key in ("shed", "evicted", "spilled", "restored"):
                if not isinstance(counters.get(key), int):
                    problems.append(f"{label}: counters missing {key}")
    if section.get("responses_equal_single") is not True:
        problems.append("open_loop: responses_equal_single is not true")
    return problems


#: Frontier sweep defaults: the table-size x context-depth grid the
#: ``--distill-frontier`` flag walks per workload.
FRONTIER_TABLE_SIZES = (256, 1024, 4096)
FRONTIER_DEPTHS = (1, 2, 4)


def run_distill_frontier(
    profile: BenchProfile = SMOKE_PROFILE,
    seed: int = 0,
    table_sizes: Sequence[int] = FRONTIER_TABLE_SIZES,
    depths: Sequence[int] = FRONTIER_DEPTHS,
) -> Dict[str, Any]:
    """Sweep the distillation latency/quality frontier.

    Per workload: train the neural model once (same derived seed as the
    grid, so the frontier's reference point is the grid's neural cell),
    simulate it as the reference, then build and simulate one distilled
    table per ``(table_size, depth)`` grid point.  Each frontier cell
    records the quality (coverage/accuracy plus ``coverage_delta`` =
    neural coverage minus table coverage, in points) and the latency
    side (``sim_s``, ``build_s``, ``speedup_vs_neural`` =
    neural ``sim_s`` / table ``sim_s``) along with the table's actual
    entry count and context hit rate.  Returns the report's ``distill``
    section.
    """
    started = time.perf_counter()
    top_k = max(1, profile.sim.degree + profile.sim.distance)
    workloads: Dict[str, Any] = {}
    for workload in profile.workloads:
        cell_seed = derive_cell_seed(seed, workload)
        trace = synthetic.generate(
            workload, profile.trace_length, seed=cell_seed
        )
        train_start = time.perf_counter()
        neural, _ = _train_neural(trace, profile, cell_seed)
        train_s = time.perf_counter() - train_start
        sim_start = time.perf_counter()
        neural_sim = simulate(trace, neural, profile.sim)
        neural_sim_s = time.perf_counter() - sim_start
        cells: List[Dict[str, Any]] = []
        for table_size in table_sizes:
            for depth in depths:
                config = DistillConfig(
                    depths=depth_chain(depth),
                    table_size=table_size,
                    top_k=top_k,
                )
                build_start = time.perf_counter()
                table = build_table(
                    neural.model,
                    neural.pc_vocab,
                    neural.page_vocab,
                    trace,
                    config,
                )
                build_s = time.perf_counter() - build_start
                prefetcher = make_prefetcher("table", table=table)
                sim_start = time.perf_counter()
                table_sim = simulate(trace, prefetcher, profile.sim)
                sim_s = time.perf_counter() - sim_start
                cells.append(
                    {
                        "table_size": table_size,
                        "depth": depth,
                        "coverage": table_sim.coverage,
                        "accuracy": table_sim.accuracy,
                        "coverage_delta": neural_sim.coverage
                        - table_sim.coverage,
                        "sim_s": sim_s,
                        "build_s": build_s,
                        "speedup_vs_neural": (
                            neural_sim_s / sim_s if sim_s > 0 else float("inf")
                        ),
                        "entries": table.total_entries,
                        "hit_rate": prefetcher.hit_rate,
                    }
                )
        workloads[workload] = {
            "neural": {
                "coverage": neural_sim.coverage,
                "accuracy": neural_sim.accuracy,
                "sim_s": neural_sim_s,
                "train_s": train_s,
            },
            "cells": cells,
        }
    return {
        "profile": profile.name,
        "seed": seed,
        "table_sizes": list(table_sizes),
        "depths": list(depths),
        "top_k": top_k,
        "workloads": workloads,
        "elapsed_s": time.perf_counter() - started,
    }


def validate_distill(distill: Any) -> List[str]:
    """Shape-check a report's ``distill`` section (empty list = ok)."""
    if not isinstance(distill, dict):
        return ["distill: expected a dict"]
    problems: List[str] = []
    workloads = distill.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        problems.append("distill: missing workloads")
        return problems
    for workload, entry in workloads.items():
        neural = entry.get("neural")
        if not isinstance(neural, dict) or not isinstance(
            neural.get("sim_s"), (int, float)
        ):
            problems.append(f"distill/{workload}: missing neural reference")
        cells = entry.get("cells")
        if not isinstance(cells, list) or not cells:
            problems.append(f"distill/{workload}: missing frontier cells")
            continue
        for i, cell in enumerate(cells):
            for key in (
                "table_size",
                "depth",
                "coverage",
                "coverage_delta",
                "sim_s",
                "speedup_vs_neural",
                "entries",
                "hit_rate",
            ):
                if not isinstance(cell.get(key), (int, float)):
                    problems.append(
                        f"distill/{workload}[{i}]: missing {key}"
                    )
    return problems


def check_distill_budget(
    report: Dict[str, Any],
    min_speedup: float,
    max_coverage_drop: float,
) -> List[str]:
    """Distillation gate over the main grid's ``table`` vs ``neural`` cells.

    Two-sided: the table must simulate at least ``min_speedup`` x faster
    than the neural prefetcher on every workload, *and* give up at most
    ``max_coverage_drop`` coverage points doing it.  Guards against a
    regression sneaking in from either direction — a table build that
    got slow to look good, or one that got fast by answering garbage.
    """
    problems: List[str] = []
    for workload, entries in report.get("workloads", {}).items():
        neural = entries.get("neural", {})
        table = entries.get("table", {})
        neural_sim_s = neural.get("sim_s")
        table_sim_s = table.get("sim_s")
        if neural_sim_s is None or table_sim_s is None:
            problems.append(
                f"{workload}: missing neural/table sim_s for distill gate"
            )
            continue
        if table_sim_s > 0:
            speedup = neural_sim_s / table_sim_s
            if speedup < min_speedup:
                problems.append(
                    f"{workload}: table speedup {speedup:.1f}x below "
                    f"required {min_speedup}x "
                    f"(neural {neural_sim_s:.4f}s / table {table_sim_s:.4f}s)"
                )
        drop = neural.get("coverage", 0.0) - table.get("coverage", 0.0)
        if drop > max_coverage_drop:
            problems.append(
                f"{workload}: table coverage drop {drop:.4f} exceeds "
                f"allowed {max_coverage_drop}"
            )
    return problems


def check_train_budget(
    report: Dict[str, Any], max_train_s: float
) -> List[str]:
    """Timing gate: neural ``train_s`` must stay under the budget.

    The training-time counterpart of :func:`check_sim_budget` — one
    problem string per offending workload (empty = ok).  Sized to
    catch a return of per-position window replay in training (or an
    accidentally quadratic training loop), not to benchmark the CI
    machine.
    """
    problems: List[str] = []
    for workload, entries in report.get("workloads", {}).items():
        train_s = entries.get("neural", {}).get("train_s")
        if train_s is None:
            problems.append(f"{workload}: neural entry has no train_s")
        elif train_s > max_train_s:
            problems.append(
                f"{workload}: neural train_s={train_s} exceeds budget "
                f"{max_train_s}s"
            )
    return problems


def check_sim_budget(
    report: Dict[str, Any], max_neural_sim_s: float
) -> List[str]:
    """Timing gate: neural ``sim_s`` must stay under the budget.

    Returns one problem string per offending workload (empty = ok).
    The budget is deliberately generous — it exists to catch an
    accidental return to a per-prediction window replay or full
    forward, not to benchmark the CI machine.
    """
    problems: List[str] = []
    for workload, entries in report.get("workloads", {}).items():
        sim_s = entries.get("neural", {}).get("sim_s")
        if sim_s is None:
            problems.append(f"{workload}: neural entry has no sim_s")
        elif sim_s > max_neural_sim_s:
            problems.append(
                f"{workload}: neural sim_s={sim_s} exceeds budget "
                f"{max_neural_sim_s}s"
            )
    return problems


def parse_int_list(text: str, flag: str) -> Tuple[int, ...]:
    """Parse a comma-separated CLI list like ``256,1024`` (>= 1 each)."""
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise ValueError(f"{flag}: values must be integers >= 1, got {text!r}")
    return values


#: Selectable profiles.
PROFILES = {
    "smoke": SMOKE_PROFILE,
    "full": FULL_PROFILE,
}


def _profile_by_name(name: str) -> BenchProfile:
    if name not in PROFILES:
        raise ValueError(
            f"unknown profile {name!r}; expected one of {sorted(PROFILES)}"
        )
    return PROFILES[name]


def add_bench_args(parser: argparse.ArgumentParser) -> None:
    """The bench flag set, shared with ``python -m voyager bench``."""
    parser.add_argument(
        "--profile",
        choices=tuple(sorted(PROFILES)),
        default="full",
        help="workload size / training budget (default: full)",
    )
    parser.add_argument("--out", default=BENCH_FILENAME)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated registry workloads to sweep "
        "(default: the whole registry)",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        help="parallel bench cells: an integer or 'auto' (cpu count)",
    )
    parser.add_argument(
        "--profile-sim",
        action="store_true",
        help="record per-phase simulator timings in each cell",
    )
    parser.add_argument(
        "--max-neural-sim-s",
        type=float,
        default=None,
        help="fail (exit 1) if any workload's neural sim_s exceeds this",
    )
    parser.add_argument(
        "--max-train-s",
        type=float,
        default=None,
        help="fail (exit 1) if any workload's neural train_s exceeds this",
    )
    parser.add_argument(
        "--distill-frontier",
        action="store_true",
        help="also sweep the table-size x depth frontier into 'distill'",
    )
    parser.add_argument(
        "--distill-table-sizes",
        default=",".join(str(s) for s in FRONTIER_TABLE_SIZES),
        help="comma-separated table sizes for the frontier sweep",
    )
    parser.add_argument(
        "--distill-depths",
        default=",".join(str(d) for d in FRONTIER_DEPTHS),
        help="comma-separated context depths for the frontier sweep",
    )
    parser.add_argument(
        "--min-table-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if any workload's table sim speedup over "
        "neural is below this factor",
    )
    parser.add_argument(
        "--max-table-coverage-drop",
        type=float,
        default=None,
        help="fail (exit 1) if any workload's table coverage trails "
        "neural by more than this (in coverage points, e.g. 0.10)",
    )


def run_bench_args(args: argparse.Namespace) -> int:
    """Execute a parsed bench invocation (both entry points' handler).

    Every argument is checked before the first cell runs; a bad one
    raises :class:`ValueError`.  The report is written only when it
    passes its checks and every requested gate: on any problem the
    problems are printed, the existing ``--out`` file is left untouched
    and the exit code is 1.
    """
    profile = profile_with_workloads(
        _profile_by_name(args.profile), args.workloads
    )
    jobs = resolve_jobs(args.jobs)
    table_sizes = parse_int_list(
        args.distill_table_sizes, "--distill-table-sizes"
    )
    depths = parse_int_list(args.distill_depths, "--distill-depths")
    report = run_bench(
        profile, seed=args.seed, jobs=jobs, profile_sim=args.profile_sim
    )
    if args.distill_frontier:
        report["distill"] = run_distill_frontier(
            profile, seed=args.seed, table_sizes=table_sizes, depths=depths
        )
    problems = validate_report(report)
    if args.max_neural_sim_s is not None:
        problems += check_sim_budget(report, args.max_neural_sim_s)
    if args.max_train_s is not None:
        problems += check_train_budget(report, args.max_train_s)
    if args.min_table_speedup is not None or args.max_table_coverage_drop is not None:
        problems += check_distill_budget(
            report,
            min_speedup=args.min_table_speedup or 0.0,
            max_coverage_drop=(
                args.max_table_coverage_drop
                if args.max_table_coverage_drop is not None
                else float("inf")
            ),
        )
    for workload, entries in report["workloads"].items():
        for kind, entry in entries.items():
            print(
                f"{workload:12s} {kind:10s} "
                f"coverage={entry['coverage']:.4f} "
                f"accuracy={entry['accuracy']:.4f} "
                f"timeliness={entry['timeliness']:.4f} "
                f"miss_rate={entry['miss_rate']:.4f} "
                f"train_s={entry['train_s']:.3f} "
                f"sim_s={entry['sim_s']:.3f}"
            )
    if args.distill_frontier:
        for workload, entry in report["distill"]["workloads"].items():
            for cell in entry["cells"]:
                print(
                    f"{workload:12s} table[size={cell['table_size']:5d} "
                    f"depth={cell['depth']}] "
                    f"coverage_delta={cell['coverage_delta']:+.4f} "
                    f"speedup={cell['speedup_vs_neural']:.1f}x "
                    f"hit_rate={cell['hit_rate']:.3f}"
                )
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(f"error: {args.out} not written", file=sys.stderr)
        return 1
    path = write_bench(preserve_sections(report, args.out), args.out)
    print(
        f"wrote {path} (profile={report['profile']}, jobs={report['jobs']}, "
        f"cpu={report['cpu_s']:.3f}s, wall={report['elapsed_s']:.3f}s)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m voyager.bench`` / ``python -m voyager bench``."""
    parser = argparse.ArgumentParser(
        prog="voyager.bench",
        description="Sweep workloads x prefetchers, write a bench report.",
    )
    add_bench_args(parser)
    try:
        return run_bench_args(parser.parse_args(argv))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
