"""Benchmark runner: synthetic workloads x prefetchers -> BENCH_voyager.json.

Sweeps every synthetic workload against the next-line and stride
baselines, a freshly trained neural model, and the distilled lookup
table compiled from that same model (:mod:`voyager.distill`),
simulating each with :func:`voyager.sim.simulate` under one shared
issue policy, and writes a schema-versioned JSON report to the repo
root (or ``--out``).  The report is the cross-PR benchmark trajectory
ROADMAP asks for: CI runs the smoke profile and archives the file as a
build artifact.  ``--distill-frontier`` additionally distils the
table-size x context-depth latency/quality frontier per workload into
a ``distill`` section, and the ``--min-table-speedup`` /
``--max-table-coverage-drop`` flags gate the grid's table-vs-neural
cells in CI.

The unit of work is a workload (:func:`bench_workload`), and one pass
over it fills both the grid and the frontier: its trace is generated
once from a seed derived from the top-level seed, its neural model is
trained once — truncated BPTT over ``seq_len``-access segments,
simulated with state carried across accesses and reset every
``seq_len`` accesses — and one rollout of that model gives the
candidate rows every table is distilled from.
``run_bench(..., jobs=N)`` fans the workloads over a
:class:`~concurrent.futures.ProcessPoolExecutor` (``--jobs auto`` uses
the CPU count); no RNG state crosses processes, so the report is
bit-identical to the serial one in every non-timing field, which the
equivalence tests pin.  ``--max-neural-sim-s`` and ``--max-train-s``
gate the neural cells' timings.

Every cell is timed by one :class:`~voyager.obs.Spans` recorder, so
its ``train_s``/``sim_s`` are span subtotals and its ``phases`` — self
seconds per span path, from ``train/dataset`` and
``train/forward``/``backward``/``optimizer`` to
``sim/candidates``/``cache_loop`` — add up to its ``cpu_s``.

All three writers of the report (the sweep, ``serve-bench`` and
``adapt --bench``) go through :func:`write_report`: one merge rule,
one declarative schema table (:data:`REPORT_SCHEMA`) and one write
rule.

Everything is seeded, so two runs with the same profile produce
identical metric values (wall-clock fields aside).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import reprlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from voyager import synthetic
from voyager.distill import DistillConfig, build_table, depth_chain
from voyager.ioutil import atomic_write_text, round_floats
from voyager.labeling import LabelConfig
from voyager.model import HierarchicalModel, ModelConfig
from voyager.obs import NO_SPANS, Spans
from voyager.sim import NeuralPrefetcher, SimConfig, make_prefetcher, simulate
from voyager.synthetic import derive_cell_seed
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
#: optional ``overload`` per-class shedding histogram); the closed-loop
#: keys are unchanged and now optional when the open-loop block is
#: present.
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
#: v9: one report path.  The closed-loop keys move from the top of
#: ``serving`` into ``serving.closed_loop``, so each writer owns one
#: path; that block's duplicate ``batched.throughput_accesses_per_s`` is
#: gone and ``batched.elapsed_s`` became ``elapsed_s``.  The constant
#: echoes ``config.history``, ``config.train_mode`` and each trained
#: cell's ``train_mode`` are gone.  Timing fields (``serving`` and
#: ``distill`` whole) round to 6 decimals; every other value is exact.
#: v10: the sweep trains once per workload.  The table cell distils the
#: neural cell's model, so its ``train_s`` is the distillation time
#: alone (the old ``distill_s``, now dropped) and it no longer repeats
#: the neural cell's ``train_phases``; the top-level ``cpu_s`` counts
#: each training run once.
#: v11: one serving mode.  ``serving.closed_loop`` is gone: the
#: closed loop became ``serve-bench --arrival saturate``, which writes
#: ``serving.open_loop`` like every other arrival process.  That block
#: gains ``responses_equal_sim`` (the 1-shard run against the
#: simulator) and drops ``max_pending``; its counters drop ``table``.
#: v12: one workload pass.  ``distill`` reuses the grid's trace, model
#: and distillation rollout: each workload records ``rollout_s`` once
#: and its ``neural`` block is the grid's neural cell; a cell's
#: ``build_s`` is its table build alone; ``elapsed_s`` sums the
#: rollouts, builds and sims (the grid's ``elapsed_s`` covers the whole
#: pass).  The grid's ``table`` ``train_s`` is still that rollout plus
#: its own build.  No non-timing value moves.
#: v13: one breakdown.  Every grid cell carries ``phases``, the self
#: seconds of each span path of its recorder (``train``,
#: ``train/forward``, ``sim/cache_loop``, ...), which sum to its
#: ``cpu_s``; it replaces the neural cell's ``train_phases`` and the
#: ``phases`` only ``--profile-sim`` (now gone) added.  A one-workload
#: grid is a valid report.  No non-timing value moves.
#: v14: one admission rule.  The server's request classes are gone, so
#: ``serving.open_loop`` drops ``qos_mix`` and the ``overload`` sub-run,
#: and each run's ``counters`` drop ``shed_by_class``.  No other value
#: moves.
#: v15: one-shot shard pool.  Streams split round-robin over the shards
#: instead of over a hash ring, and the pool neither logs nor swaps, so
#: ``serving.open_loop`` drops ``replicas``, ``arrival.on_s`` and
#: ``arrival.off_s`` (the ON-OFF process is gone) and each run drops
#: ``model_version``; ``runs[].counters`` are still the servers'
#: merged counters, now with ``closed == opened``.
#: v16: sessions stay resident.  The server neither evicts nor spills,
#: so ``serving.open_loop`` drops ``max_sessions`` and ``spill``, each
#: run drops ``scaling_vs_single`` (its inputs stay in the block), and
#: ``runs[].counters`` drop ``evicted``, ``spilled`` and ``restored``.
#: No other value moves.
BENCH_SCHEMA_VERSION = 16

#: Canonical report filename at the repo root.
BENCH_FILENAME = "BENCH_voyager.json"

#: Prefetchers every bench run sweeps.
PREFETCHERS = ("next_line", "stride", "neural", "table")

#: The table-size x context-depth grid ``run_bench(..., frontier=True)``
#: (``--distill-frontier``) distils per workload, next to the grid's
#: own ``table`` cell.
FRONTIER_TABLE_SIZES = (256, 1024, 4096)
FRONTIER_DEPTHS = (1, 2, 4)


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
    #: Accepted for compatibility; no computation reads it.
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
    trace, profile: BenchProfile, seed: int, spans: Spans = NO_SPANS
) -> NeuralPrefetcher:
    """Train the profile's neural prefetcher over ``trace``.

    ``spans`` records the dataset build as ``dataset`` next to
    :func:`train`'s own spans.
    """
    # Tiny traces (tests, custom profiles) may be shorter than the
    # profile's segment length; clamp so one segment still fits.  The
    # model records the length it trained on as its reset period.
    seq_len = min(profile.seq_len, max(1, len(trace) - 1))
    with spans("dataset"):
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
    train(
        model,
        dataset,
        steps=profile.train_steps,
        batch_size=profile.batch_size,
        lr=profile.lr,
        seed=seed,
        tbptt=profile.tbptt,
        lr_schedule=profile.lr_schedule,
        spans=spans,
    )
    return NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)


def bench_workload(
    workload: str,
    profile: BenchProfile,
    seed: int = 0,
    frontier: bool = False,
) -> Tuple[Dict[str, Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Run every prefetcher on one workload; picklable for process pools.

    Generates the trace once from the workload's derived seed,
    simulates the two baselines, trains the neural model once and
    simulates it.  One more rollout of that model gives the rows every
    table is built from: the grid's ``table`` cell (so its coverage
    delta to ``neural`` is the distillation cost alone) and, with
    ``frontier``, each frontier point.  Returns ``(cells, frontier)``:
    ``{prefetcher: entry}`` in :data:`PREFETCHERS` order and the
    workload's ``distill`` entry (or ``None``), timing fields at full
    precision.

    One :class:`~voyager.obs.Spans` recorder times each cell: making
    its prefetcher is its ``train`` span and simulating it its ``sim``
    span, and ``phases`` keeps every span path's self seconds.
    """
    cell_seed = derive_cell_seed(seed, workload)
    trace = synthetic.generate(workload, profile.trace_length, seed=cell_seed)

    def cell(make: Callable[[Spans], Any]) -> Tuple[Dict[str, Any], Any]:
        spans = Spans()
        # ``train`` is the time to produce the prefetcher: training for
        # ``neural``, distillation alone for a table (training is
        # counted once, in ``neural``), ~0 for the baselines.
        with spans("train"):
            prefetcher = make(spans)
        with spans("sim"):
            result = simulate(trace, prefetcher, profile.sim, spans=spans)
        entry = result.as_dict()
        del entry["prefetcher"]  # redundant with the dict key
        entry["train_s"] = spans.total("train")
        entry["sim_s"] = spans.total("sim")
        entry["cpu_s"] = entry["train_s"] + entry["sim_s"]
        entry["phases"] = spans.self_s
        return entry, prefetcher

    cells: Dict[str, Dict[str, Any]] = {}
    cells["next_line"], _ = cell(lambda spans: make_prefetcher("next_line"))
    cells["stride"], stride = cell(lambda spans: make_prefetcher("stride"))
    # Latched by StridePrefetcher.offline_candidates when the trace
    # overflows the table and the sim fell back to the per-access
    # replay — recorded so the perf cliff is visible in the report.
    cells["stride"]["stride_fallback"] = bool(getattr(stride, "fallback", False))
    cells["neural"], neural = cell(
        lambda spans: _train_neural(trace, profile, cell_seed, spans)
    )

    # The neural cell keeps its own rollout in its sim_s, so the table
    # speedup weighs inference plus the cache loop against probes.
    distill = profile.distill_config()
    rows = None

    def table_cell(config: DistillConfig) -> Dict[str, Any]:
        def make(spans: Spans) -> Any:
            nonlocal rows
            if rows is None:  # the grid's cell rolls out for every table
                with spans("rollout"):
                    rows = neural.offline_candidates(trace, distill.top_k, 0)
            with spans("build"):
                table = build_table(
                    rows, neural.pc_vocab, neural.page_vocab, trace, config
                )
            return make_prefetcher("table", table=table)

        entry, prefetcher = cell(make)
        entry["table_entries"] = prefetcher.table.total_entries
        entry["table_hit_rate"] = prefetcher.hit_rate
        return entry

    cells["table"] = table_cell(distill)
    if not frontier:
        return cells, None
    reference = cells["neural"]
    points: List[Dict[str, Any]] = []
    for table_size in FRONTIER_TABLE_SIZES:
        for depth in FRONTIER_DEPTHS:
            point = dataclasses.replace(
                distill, depths=depth_chain(depth), table_size=table_size
            )
            entry = table_cell(point)
            points.append(
                {
                    "table_size": table_size,
                    "depth": depth,
                    "coverage": entry["coverage"],
                    "accuracy": entry["accuracy"],
                    "coverage_delta": reference["coverage"] - entry["coverage"],
                    "sim_s": entry["sim_s"],
                    "build_s": entry["train_s"],
                    "speedup_vs_neural": (
                        reference["sim_s"] / entry["sim_s"]
                        if entry["sim_s"] > 0
                        else float("inf")
                    ),
                    "entries": entry["table_entries"],
                    "hit_rate": entry["table_hit_rate"],
                }
            )
    return cells, {
        "neural": {
            key: reference[key]
            for key in ("coverage", "accuracy", "sim_s", "train_s")
        },
        "rollout_s": cells["table"]["phases"]["train/rollout"],
        "cells": points,
    }


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
    try:
        jobs = int(jobs)
    except ValueError:
        raise ValueError(
            f"jobs must be an integer or 'auto', got {jobs!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_bench(
    profile: BenchProfile = SMOKE_PROFILE,
    seed: int = 0,
    jobs: Union[int, str] = 1,
    frontier: bool = False,
) -> Dict[str, Any]:
    """Run the full sweep and return the report dict (not yet written).

    One task per workload (:func:`bench_workload`); ``jobs > 1`` fans
    them over a process pool.  Every workload is seeded independently
    (:func:`derive_cell_seed`), so the report matches the serial one in
    every non-timing field.  ``frontier`` adds the ``distill`` section.
    Timing fields stay full-precision here — :func:`write_bench` rounds.
    """
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    task = functools.partial(
        bench_workload, profile=profile, seed=seed, frontier=frontier
    )
    # The sweep runs with the heap it starts from (~25k objects after
    # the imports) frozen: a full collection that re-traverses it is a
    # 10-20 ms pause in whichever cell is being timed, a few-ms smoke
    # table cell included.
    if jobs > 1:
        workers = min(jobs, len(profile.workloads))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=gc.freeze
        ) as pool:
            results = list(pool.map(task, profile.workloads))
    else:
        # Collected first, so no garbage is frozen; unfrozen after, so
        # the caller's heap, frozen or not, is left as it was found.
        freeze = not gc.get_freeze_count()
        if freeze:
            gc.collect()
            gc.freeze()
        try:
            results = [task(workload) for workload in profile.workloads]
        finally:
            if freeze:
                gc.unfreeze()
    workloads = {w: cells for w, (cells, _) in zip(profile.workloads, results)}
    cpu_s = 0.0
    for cells in workloads.values():  # exact sum in deterministic cell order
        for kind in PREFETCHERS:
            cpu_s += cells[kind]["cpu_s"]
    report = {
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
    if frontier:
        entries = {w: entry for w, (_, entry) in zip(profile.workloads, results)}
        report["distill"] = {
            "profile": profile.name,
            "seed": seed,
            "table_sizes": list(FRONTIER_TABLE_SIZES),
            "depths": list(FRONTIER_DEPTHS),
            "top_k": profile.distill_config().top_k,
            "workloads": entries,
            "elapsed_s": sum(
                entry["rollout_s"]
                + sum(cell["build_s"] + cell["sim_s"] for cell in entry["cells"])
                for entry in entries.values()
            ),
        }
    return report


#: Per-cell keys that describe *when/how fast*, not *what happened*.
CELL_TIMING_FIELDS = ("train_s", "sim_s", "cpu_s", "phases")

#: Top-level keys that vary between runs of identical sweeps.  The
#: ``serving`` and ``distill`` sections are throughput/latency
#: measurement through and through, so they are stripped (and rounded
#: when written) wholesale.
REPORT_TIMING_FIELDS = ("elapsed_s", "cpu_s", "jobs", "serving", "distill")


_DROP = object()


def _map_timing(
    report: Dict[str, Any], fn: Callable[[Any], Any]
) -> Dict[str, Any]:
    """Copy of ``report`` with ``fn`` applied to every timing field.

    ``fn`` returns the field's new value, or ``_DROP`` to leave it out.
    """

    def fields(entry: Dict[str, Any], timing: Sequence[str]) -> Dict:
        out = ((k, fn(v) if k in timing else v) for k, v in entry.items())
        return {k: v for k, v in out if v is not _DROP}

    out = fields(report, REPORT_TIMING_FIELDS)
    if "workloads" in report:
        out["workloads"] = {
            workload: {
                kind: fields(entry, CELL_TIMING_FIELDS)
                for kind, entry in entries.items()
            }
            for workload, entries in report["workloads"].items()
        }
    return out


def strip_timing_fields(report: Dict[str, Any]) -> Dict[str, Any]:
    """Copy of ``report`` minus every timing/execution field.

    What remains must be bit-identical between ``jobs=1`` and
    ``jobs=N`` runs of the same profile+seed — the parallel-equivalence
    contract the tests enforce.
    """
    return _map_timing(report, lambda value: _DROP)


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


def write_bench(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Serialise a report as stable, human-diffable JSON, atomically.

    The one rounding rule: every float in a timing field (the fields
    :func:`strip_timing_fields` drops) is rounded to 6 decimals; every
    other value is written exactly, and ``report`` itself keeps full
    precision.  Writers go through :func:`write_report`.
    """
    rounded = _map_timing(report, round_floats)
    text = json.dumps(rounded, indent=2, sort_keys=True) + "\n"
    return atomic_write_text(path, text)


#: The report's sections by path, each written by one writer: the
#: sweep writes the grid (every top-level key but ``schema_version``,
#: ``distill`` and ``serving``) and, with ``--distill-frontier``,
#: ``distill``; ``serve-bench`` writes ``serving/open_loop``;
#: ``adapt --bench`` writes ``serving/adaptation``.
SECTIONS = ("grid", "distill", "serving/open_loop", "serving/adaptation")

#: Top-level keys outside the grid.
_NOT_GRID = ("schema_version", "distill", "serving")


def _section(report: Dict[str, Any], name: str) -> Any:
    """The value at section path ``name`` in ``report``; ``None`` if absent."""
    if name == "grid":
        return {k: v for k, v in report.items() if k not in _NOT_GRID} or None
    value: Any = report
    for key in name.split("/"):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def merge_report(
    previous: Optional[Dict[str, Any]], sections: Dict[str, Any]
) -> Dict[str, Any]:
    """The report a writer's ``sections`` make with the file's: the merge rule.

    Each given section replaces its path whole, so no key a writer no
    longer emits can linger.  Every other section is kept from
    ``previous``, but only when ``previous`` is at the current schema
    version: an older file's sections are dropped, never relabelled as
    current.
    """
    if (previous or {}).get("schema_version") != BENCH_SCHEMA_VERSION:
        previous = {}
    report: Dict[str, Any] = {"schema_version": BENCH_SCHEMA_VERSION}
    for name in SECTIONS:
        value = sections.get(name, _section(previous, name))
        if value is None:
            continue
        group, _, block = name.partition("/")
        if name == "grid":
            report.update(_section(value, "grid") or {})
        elif block:
            report.setdefault(group, {})[block] = value
        else:
            report[group] = value
    return report


def write_report(
    path: Union[str, Path],
    sections: Dict[str, Any],
    problems: Sequence[str] = (),
) -> int:
    """Write a writer's ``sections`` into the report file, or refuse to.

    Loads ``path``, merges (:func:`merge_report`) and validates the
    result (:func:`validate_report`).  If that and the writer's gate
    ``problems`` are clean, writes it atomically; otherwise prints every
    problem and ``error: <path> not written`` and leaves the file
    untouched.  Returns the exit code.
    """
    report = merge_report(load_report(path), sections)
    problems = validate_report(report) + list(problems)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(f"error: {path} not written", file=sys.stderr)
        return 1
    write_bench(report, path)
    print(f"wrote {', '.join(sections)} to {path}")
    return 0


#: A check on one report value: what it must be, and the test.
Check = Tuple[str, Callable[[Any], bool]]


def _number(value: Any) -> bool:
    return isinstance(value, (int, float))


def _sized(kind: type, n: int) -> Check:
    return (
        f"a {kind.__name__} of >= {n} entries",
        lambda v: isinstance(v, kind) and len(v) >= n,
    )


def _rows(prefix: str, keys: str, check: Check) -> List[Tuple[str, Check]]:
    """One schema row per space-separated key under ``prefix``."""
    return [(prefix + key, check) for key in keys.split()]


_NUMBER: Check = ("a number", _number)
_POSITIVE: Check = ("a number > 0", lambda v: _number(v) and v > 0)
_FRACTION: Check = ("a number in [0,1]", lambda v: _number(v) and 0 <= v <= 1)
# Coverage dips below zero when prefetches pollute the cache.
_COVERAGE: Check = ("a number in [-1,1]", lambda v: _number(v) and abs(v) <= 1)
_INT: Check = ("an integer", lambda v: isinstance(v, int))
_COUNT: Check = ("an integer >= 1", lambda v: isinstance(v, int) and v >= 1)
_STRING: Check = ("a string", lambda v: isinstance(v, str))
_TRUE: Check = ("true", lambda v: v is True)
_DICT: Check = ("a dict", lambda v: isinstance(v, dict))
_LIST: Check = ("a list", lambda v: isinstance(v, list))
_SERVING: Check = (
    "a dict of serving blocks",
    lambda v: isinstance(v, dict)
    and bool(v)
    and all(f"serving/{key}" in SECTIONS for key in v),
)

#: The report's schema, one row per checked value, filed under the
#: section it belongs to (plus ``serving``, the blocks' container).  A
#: row's path is relative to its section (``""`` is the section
#: itself); ``*`` walks every key of a dict and a ``[]`` suffix every
#: item of a list.  Rows apply only where their section is present.
REPORT_SCHEMA: Dict[str, List[Tuple[str, Check]]] = {
    "grid": [
        ("workloads", _sized(dict, 1)),
        ("workloads/*", _DICT),
        *_rows("workloads/*/", " ".join(PREFETCHERS), _DICT),
        *_rows("workloads/*/*/", "accuracy timeliness miss_rate", _FRACTION),
        ("workloads/*/*/coverage", _COVERAGE),
        *_rows("workloads/*/*/", "train_s sim_s cpu_s", _NUMBER),
        ("workloads/*/*/phases", _DICT),
        *_rows("", "elapsed_s cpu_s", _NUMBER),
        ("jobs", _INT),
    ],
    "distill": [
        ("", _DICT),
        ("workloads", _sized(dict, 1)),
        ("workloads/*", _DICT),
        ("workloads/*/neural", _DICT),
        ("workloads/*/neural/sim_s", _NUMBER),
        ("workloads/*/rollout_s", _NUMBER),
        ("workloads/*/cells", _sized(list, 1)),
        ("workloads/*/cells[]", _DICT),
        *_rows(
            "workloads/*/cells[]/",
            "table_size depth coverage coverage_delta sim_s build_s"
            " speedup_vs_neural entries hit_rate",
            _NUMBER,
        ),
    ],
    "serving": [("", _SERVING)],
    "serving/open_loop": [
        ("", _DICT),
        ("requests", _COUNT),
        ("arrival", _DICT),
        ("arrival/process", _STRING),
        ("runs", _sized(list, 1)),
        ("runs[]", _DICT),
        *_rows("runs[]/", "latency counters", _DICT),
        ("runs[]/aggregate_throughput_per_s", _POSITIVE),
        *_rows("runs[]/latency/", "p50_s p95_s p99_s", _NUMBER),
        ("runs[]/counters/shed", _INT),
        *_rows("", "responses_equal_sim responses_equal_single", _TRUE),
    ],
    "serving/adaptation": [
        ("", _DICT),
        ("config", _DICT),
        ("workloads", _sized(dict, 1)),
        ("workloads/*", _DICT),
        *_rows(
            "workloads/*/",
            "frozen_coverage adapted_coverage mean_gain",
            _NUMBER,
        ),
        *_rows(
            "workloads/*/", "rounds swaps model_version max_lag_accesses", _INT
        ),
        ("workloads/*/boundaries", _sized(list, 2)),
        ("workloads/*/phases", _LIST),
        ("workloads/*/phases[]", _DICT),
        *_rows(
            "workloads/*/phases[]/",
            "boundary frozen_tail adapted_tail gain lag_accesses",
            _NUMBER,
        ),
    ],
}

_MISSING = object()


def _parts(path: str) -> List[str]:
    """A schema row path as walk steps: ``runs[]/latency`` ->
    ``["runs", "[]", "latency"]``."""
    return [part for part in path.replace("[]", "/[]").split("/") if part]


def _walk(value: Any, parts: Sequence[str], where: Tuple[str, ...] = ()):
    """Yield ``(path, value)`` for every value ``parts`` selects in ``value``.

    A missing last key yields a missing marker; a walk that cannot go
    deeper yields nothing, since the row of the value it stopped at
    reports that.
    """
    if not parts:
        yield where, value
    elif parts[0] == "[]":
        if isinstance(value, list):
            for i, item in enumerate(value):
                step = where[:-1] + (f"{where[-1]}[{i}]",)
                yield from _walk(item, parts[1:], step)
    elif isinstance(value, dict):
        for key in value if parts[0] == "*" else parts[:1]:
            if key in value:
                yield from _walk(value[key], parts[1:], where + (key,))
            elif len(parts) == 1:
                yield where + (key,), _MISSING


def _label(path: Sequence[str]) -> str:
    """How a problem names a value's container.

    Grid cells read ``<workload>/<prefetcher>``, the prefix perfbench's
    failure count parses; the report's top level reads ``report``.
    """
    if len(path) > 1 and path[0] == "workloads":
        path = path[1:]
    return "/".join(path) or "report"


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Check a report against :data:`REPORT_SCHEMA`; returns its problems.

    An empty list means valid.  A problem names the value by container
    and key: ``stride/neural: missing sim_s``,
    ``serving/open_loop: responses_equal_sim=False is not true``.
    Every writer runs it on the merged report before writing, and
    consumers of ``BENCH_voyager.json`` use it, so schema drift fails
    loudly instead of silently.
    """
    problems: List[str] = []
    version = report.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        problems.append(
            f"report: schema_version={version!r} is not {BENCH_SCHEMA_VERSION}"
        )
    if all(_section(report, name) is None for name in SECTIONS):
        problems.append("report: no section present")
    for name, rows in REPORT_SCHEMA.items():
        section = _section(report, name)
        if section is None:
            continue
        root = () if name == "grid" else tuple(name.split("/"))
        for path, (what, ok) in rows:
            for where, value in _walk(section, _parts(path), root):
                label, key = _label(where[:-1]), where[-1]
                if value is _MISSING:
                    problems.append(f"{label}: missing {key}")
                elif not ok(value):
                    problems.append(
                        f"{label}: {key}={reprlib.repr(value)} is not {what}"
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
        help="parallel workloads: an integer or 'auto' (cpu count)",
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
    raises :class:`ValueError`.  The grid (and ``distill`` with
    ``--distill-frontier``) goes to :func:`write_report` with the
    requested gates' problems, so a failed check or gate leaves the
    existing ``--out`` file untouched and exits 1.
    """
    profile = profile_with_workloads(
        _profile_by_name(args.profile), args.workloads
    )
    jobs = resolve_jobs(args.jobs)
    report = run_bench(
        profile,
        seed=args.seed,
        jobs=jobs,
        frontier=args.distill_frontier,
    )
    sections = {"grid": report}
    if args.distill_frontier:
        sections["distill"] = report["distill"]
    problems: List[str] = []
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
        for workload, entry in sections["distill"]["workloads"].items():
            for cell in entry["cells"]:
                print(
                    f"{workload:12s} table[size={cell['table_size']:5d} "
                    f"depth={cell['depth']}] "
                    f"coverage_delta={cell['coverage_delta']:+.4f} "
                    f"speedup={cell['speedup_vs_neural']:.1f}x "
                    f"hit_rate={cell['hit_rate']:.3f}"
                )
    print(
        f"profile={report['profile']} jobs={report['jobs']} "
        f"cpu={report['cpu_s']:.3f}s wall={report['elapsed_s']:.3f}s"
    )
    return write_report(args.out, sections, problems)


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
