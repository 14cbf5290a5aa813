"""Command-line entrypoint: ``python -m voyager <subcommand>``.

Subcommands:

- ``gen`` — write a synthetic trace file (any registry workload):
  ``python -m voyager gen stride --out trace.txt -n 2000``
- ``workloads`` — list the workload registry with descriptions
  (``--json`` for machine-readable output)
- ``ingest`` — convert an external ChampSim/ML-DPC-style CSV trace
  (plain or gzip, configurable column order) into the native format,
  printing summary stats:
  ``python -m voyager ingest --input llc.csv.gz --out trace.txt``
- ``train`` — train the hierarchical model on a trace, print metrics,
  optionally save a checkpoint:
  ``python -m voyager train --trace trace.txt --save ckpt/model``
- ``simulate`` — replay a trace (from a file, or a registry workload
  by name via ``--workload``) through the prefetch simulator with a
  baseline, a checkpointed neural model, or a distilled table
  (``--prefetcher table --table tables.json``):
  ``python -m voyager simulate --trace trace.txt --checkpoint ckpt/model``
- ``distill`` — compile a trained checkpoint into context-hashed
  lookup tables over a trace:
  ``python -m voyager distill --trace trace.txt --checkpoint ckpt/model
  --out tables.json``
- ``bench`` — sweep synthetic workloads x prefetchers and write a
  schema-versioned ``BENCH_voyager.json`` (the same flags and handler
  as ``python -m voyager.bench``):
  ``python -m voyager bench --profile smoke``
- ``serve`` — split a trace round-robin into streams, queue it all at
  t = 0 and serve it through the online serving layer (micro-batched),
  printing throughput and latency since t = 0:
  ``python -m voyager serve --trace trace.txt --checkpoint ckpt/model``.
  With ``--adapt LOGDIR`` the server also logs served traffic, and
  every ``--adapt-every`` x ``--streams`` requests fine-tunes on the
  closed log segments and hot-swaps the new checkpoint into the live
  server
- ``adapt`` — the serve->train->serve loop offline: watch a segment
  log directory, fine-tune from a base checkpoint, emit versioned
  checkpoints (``python -m voyager adapt --checkpoint ckpt/model
  --log-dir logs --out-dir ckpts``); or with ``--bench`` run the
  adaptation-lag evaluation over regime-shifting workloads, write the
  ``serving.adaptation`` block of ``BENCH_voyager.json`` and gate
  ``--min-adapted-coverage-gain`` / ``--max-adapt-lag``
- ``serve-bench`` — benchmark the serving layer under synthetic
  multi-stream load and write the ``serving.open_loop`` block of the
  bench report: the sharded server pool serves a seeded Poisson,
  ON-OFF or saturating (``--arrival saturate``, every request due at
  t = 0) arrival schedule (``--shards``, ``--shard-sweep``, ``--rate``,
  ``--qos-mix``, ``--spill-dir``), checks every response against the
  simulator, and gates p95/p99 SLOs and aggregate throughput
  (``--max-p95-ms``/``--max-p99-ms``/``--min-throughput``):
  ``python -m voyager serve-bench --profile smoke --arrival saturate``

All randomness is seeded, so repeated runs with the same arguments
print identical numbers (bench/serve wall-clock fields aside).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from voyager import synthetic
from voyager.adapt import (
    AccessLogger,
    AdaptBenchConfig,
    AdaptationLoop,
    check_adaptation_budget,
    load_and_swap,
    run_adaptation_bench,
)
from voyager.baselines import (
    NextLinePrefetcher,
    StridePrefetcher,
    evaluate_baseline,
)
from voyager.bench import BENCH_FILENAME, add_bench_args, run_bench_args, write_report
from voyager.distill import (
    FALLBACKS,
    DistillConfig,
    DistilledTable,
    depth_chain,
    distill_checkpoint,
)
from voyager.eval import evaluate, simulate_model
from voyager.ingest import ON_ERROR_POLICIES, IngestFormat, read_trace
from voyager.labeling import LabelConfig
from voyager.loadgen import add_serve_bench_args, run_serve_bench, serve_trace
from voyager.model import (
    DEFAULT_SEQ_LEN,
    HierarchicalModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from voyager.serve import (
    DEFAULT_QOS,
    PrefetchServer,
    ServeConfig,
    drive_open_loop,
)
from voyager.shard import ShardError, latency_summary
from voyager.sim import CacheConfig, SimConfig, make_prefetcher, simulate
from voyager.traces import TraceParseError, parse_trace, write_trace
from voyager.train import build_sequence_dataset, train


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--lr", type=float, default=1e-2)
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--spatial-radius", type=int, default=1)
    parser.add_argument("--pc-cap", type=int, default=1024)
    parser.add_argument("--page-cap", type=int, default=1024)
    parser.add_argument(
        "--seq-len",
        type=int,
        default=DEFAULT_SEQ_LEN,
        help="training segment length; the checkpoint records it as the "
        f"period every consumer resets LSTM state by (default: "
        f"{DEFAULT_SEQ_LEN})",
    )
    parser.add_argument(
        "--tbptt",
        type=int,
        default=None,
        help="truncated-BPTT chunk; default: the whole segment (one "
        "update per segment batch)",
    )
    parser.add_argument(
        "--lr-schedule",
        choices=("constant", "cosine"),
        default="constant",
        help="constant lr, or half-cosine annealing from --lr to 0 "
        "over --steps updates (default: constant)",
    )


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degree", type=int, default=2)
    parser.add_argument(
        "--distance",
        type=int,
        default=8,
        help="prefetch lookahead (candidates skipped before issue)",
    )
    parser.add_argument("--latency", type=int, default=8)
    parser.add_argument("--queue-capacity", type=int, default=32)
    parser.add_argument("--cache-sets", type=int, default=64)
    parser.add_argument("--cache-ways", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voyager",
        description="Hierarchical neural data prefetcher (pure NumPy).",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("gen", help="generate a synthetic trace file")
    gen.add_argument(
        "workload",
        metavar="WORKLOAD",
        help=f"registry workload, one of: {', '.join(synthetic.WORKLOADS)}",
    )
    gen.add_argument("--out", required=True, help="output trace path (.gz ok)")
    gen.add_argument("-n", "--length", type=int, default=2000)
    gen.add_argument("--seed", type=int, default=0)

    workloads = sub.add_parser(
        "workloads", help="list the workload registry with descriptions"
    )
    workloads.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as a JSON list (for tooling/CI)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="convert an external ChampSim/ML-DPC CSV trace to native format",
    )
    ingest.add_argument(
        "--input",
        "--in",
        dest="input",
        required=True,
        help="external trace file (CSV, plain or .gz)",
    )
    ingest.add_argument(
        "--out", required=True, help="native trace output path (.gz ok)"
    )
    ingest.add_argument(
        "--columns",
        default=",".join(IngestFormat().columns),
        help="comma-separated per-line field order; must include "
        "'addr' and 'pc' (default: %(default)s)",
    )
    ingest.add_argument(
        "--on-error",
        choices=ON_ERROR_POLICIES,
        default="strict",
        help="malformed-line policy: strict raises with the line "
        "number, skip counts and warns (default: strict)",
    )
    ingest.add_argument(
        "--limit",
        type=int,
        default=None,
        help="stop after this many parsed records",
    )

    tr = sub.add_parser("train", help="train the model on a trace")
    tr.add_argument("--trace", required=True, help="pc,address trace file")
    tr.add_argument(
        "--save",
        help="checkpoint prefix to write (<prefix>.npz + <prefix>.vocab.json)",
    )
    tr.add_argument(
        "--no-baselines",
        action="store_true",
        help="skip the next-line/stride baseline comparison",
    )
    _add_model_args(tr)

    sim = sub.add_parser(
        "simulate", help="trace-driven cache simulation of a prefetcher"
    )
    trace_source = sim.add_mutually_exclusive_group(required=True)
    trace_source.add_argument("--trace", help="pc,address trace file")
    trace_source.add_argument(
        "--workload",
        metavar="WORKLOAD",
        help="generate a registry workload instead of reading a file "
        f"(one of: {', '.join(synthetic.WORKLOADS)})",
    )
    sim.add_argument(
        "-n",
        "--length",
        type=int,
        default=2000,
        help="generated workload length (with --workload; default: 2000)",
    )
    sim.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generated workload seed (with --workload; default: 0)",
    )
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--checkpoint", help="neural model checkpoint prefix (from train --save)"
    )
    source.add_argument(
        "--prefetcher",
        choices=("next_line", "stride", "table", "none"),
        help="baseline prefetcher, 'table' (distilled lookup table, "
        "needs --table) or 'none' (demand-only cache)",
    )
    sim.add_argument(
        "--table",
        help="distilled table file (from the distill subcommand); "
        "required with --prefetcher table",
    )
    _add_sim_args(sim)

    distill = sub.add_parser(
        "distill",
        help="compile a trained checkpoint into lookup tables over a trace",
    )
    distill.add_argument(
        "--trace", required=True, help="pc,address trace file to sweep"
    )
    distill.add_argument(
        "--checkpoint",
        required=True,
        help="neural model checkpoint prefix (from train --save)",
    )
    distill.add_argument(
        "--out", required=True, help="output table file (JSON)"
    )
    distill.add_argument(
        "--table-size",
        type=int,
        default=4096,
        help="max contexts kept per depth table (default: 4096)",
    )
    distill.add_argument(
        "--depth",
        type=int,
        default=4,
        help="max context depth; the fallback chain probes depth..1",
    )
    distill.add_argument(
        "--top-k",
        type=int,
        default=10,
        help="rollout steps recorded per context (bounds the simulator's "
        "degree + distance; default: 10)",
    )
    distill.add_argument(
        "--fallback",
        choices=FALLBACKS,
        default="stride",
        help="answer when every context depth misses (default: stride)",
    )

    bench = sub.add_parser(
        "bench", help="sweep workloads x prefetchers, write BENCH_voyager.json"
    )
    add_bench_args(bench)

    serve = sub.add_parser(
        "serve",
        help="serve a trace as interleaved streams (online serving smoke)",
    )
    serve.add_argument("--trace", required=True, help="pc,address trace file")
    serve.add_argument(
        "--checkpoint",
        required=True,
        help="neural model checkpoint prefix (from train --save)",
    )
    serve.add_argument("--streams", type=int, default=4)
    serve.add_argument("--degree", type=int, default=2)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--adapt",
        metavar="LOGDIR",
        default=None,
        help="log served traffic to LOGDIR and run the in-process "
        "fine-tune + hot-swap loop while serving",
    )
    serve.add_argument(
        "--adapt-every",
        type=int,
        default=64,
        help="requests per stream between log rotation + fine-tune "
        "polls: one poll, on one closed segment, every adapt-every x "
        "streams requests (default: 64)",
    )
    serve.add_argument(
        "--adapt-steps",
        type=int,
        default=60,
        help="optimizer steps per fine-tune round (default: 60)",
    )
    serve.add_argument(
        "--replay-mix",
        type=float,
        default=0.25,
        help="fraction of already-consumed segments replayed per "
        "fine-tune (default: 0.25)",
    )
    serve.add_argument(
        "--adapt-out",
        default=None,
        help="versioned checkpoint output dir (default: LOGDIR/ckpts)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="adaptation-loop seed (replay sampling + fine-tune)",
    )

    adapt = sub.add_parser(
        "adapt",
        help="fine-tune on logged traffic (offline loop) or run the "
        "adaptation-lag bench (--bench)",
    )
    adapt.add_argument(
        "--bench",
        action="store_true",
        help="run the frozen-vs-adapted serving evaluation over "
        "regime-shifting workloads and merge the serving.adaptation "
        "block into the bench report",
    )
    adapt.add_argument(
        "--checkpoint",
        default=None,
        help="base checkpoint prefix (required without --bench)",
    )
    adapt.add_argument(
        "--log-dir",
        default=None,
        help="segment log directory to watch (required without --bench)",
    )
    adapt.add_argument(
        "--out-dir",
        default=None,
        help="versioned checkpoint output dir (required without --bench)",
    )
    adapt.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="poll rounds to run; each consumes the new closed "
        "segments and emits one checkpoint (default: 1)",
    )
    adapt.add_argument("--steps", type=int, default=60)
    adapt.add_argument("--batch-size", type=int, default=16)
    adapt.add_argument("--lr", type=float, default=0.04)
    adapt.add_argument(
        "--seq-len",
        type=int,
        default=None,
        help="segment length: must match the base checkpoint's "
        "(default: the checkpoint's; --bench: the bench config's)",
    )
    adapt.add_argument("--tbptt", type=int, default=8)
    adapt.add_argument(
        "--lr-schedule", choices=("constant", "cosine"), default="cosine"
    )
    adapt.add_argument(
        "--replay-mix",
        type=float,
        default=0.25,
        help="fraction of already-consumed segments replayed per round",
    )
    adapt.add_argument(
        "--seed",
        type=int,
        default=None,
        help="loop seed (default: 0; --bench: the bench config default)",
    )
    adapt.add_argument(
        "--workloads",
        default=None,
        help="(--bench) comma-separated regime-shifting workloads "
        "(default: multi_phase,drifting_zipf)",
    )
    adapt.add_argument(
        "-n",
        "--length",
        type=int,
        default=2000,
        help="(--bench) accesses per workload (default: 2000)",
    )
    adapt.add_argument(
        "--adapt-steps",
        type=int,
        default=90,
        help="(--bench) fine-tune steps per adaptation round",
    )
    adapt.add_argument(
        "--segment-records",
        type=int,
        default=250,
        help="(--bench) records per log segment / swap cadence",
    )
    adapt.add_argument(
        "--workdir",
        default="adapt-bench",
        help="(--bench) scratch dir for logs + checkpoints",
    )
    adapt.add_argument("--out", default=BENCH_FILENAME)
    adapt.add_argument(
        "--min-adapted-coverage-gain",
        type=float,
        default=None,
        help="(--bench) fail if any workload's mean adapted-minus-"
        "frozen post-boundary coverage gain is below this",
    )
    adapt.add_argument(
        "--max-adapt-lag",
        type=float,
        default=None,
        help="(--bench) fail if any workload's worst adaptation lag "
        "(accesses to recover after a phase shift) exceeds this",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="benchmark the serving layer, merge a 'serving' report section",
    )
    add_serve_bench_args(serve_bench)

    return parser


def _sim_config(args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        cache=CacheConfig(num_sets=args.cache_sets, ways=args.cache_ways),
        degree=args.degree,
        distance=args.distance,
        latency=args.latency,
        queue_capacity=args.queue_capacity,
    )


def _print_sim_result(result) -> None:
    print(
        f"prefetcher={result.prefetcher} accesses={result.accesses} "
        f"miss_rate={result.miss_rate:.4f} "
        f"baseline_miss_rate={result.baseline_miss_rate:.4f}"
    )
    print(
        f"coverage={result.coverage:.4f} accuracy={result.accuracy:.4f} "
        f"timeliness={result.timeliness:.4f} "
        f"issued={result.issued_prefetches} "
        f"timely={result.timely_prefetches} late={result.late_prefetches} "
        f"dropped={result.dropped_prefetches} "
        f"polluted={result.evicted_unused_prefetches}"
    )


def run_generate(args: argparse.Namespace) -> int:
    trace = synthetic.generate(args.workload, args.length, seed=args.seed)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} accesses to {args.out}")
    return 0


def run_workloads(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(
            json.dumps(
                [
                    {"name": spec.name, "description": spec.description}
                    for spec in synthetic.REGISTRY.values()
                ],
                indent=2,
            )
        )
        return 0
    for spec in synthetic.REGISTRY.values():
        print(f"{spec.name:16s} {spec.description}")
    return 0


def run_ingest(args: argparse.Namespace) -> int:
    fmt = IngestFormat.from_spec(args.columns, on_error=args.on_error)
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    trace, stats = read_trace(args.input, fmt, limit=args.limit)
    if not trace:
        raise ValueError(
            f"{args.input}: no records parsed "
            f"({stats.lines} lines, {stats.skipped} skipped)"
        )
    write_trace(trace, args.out)
    print(
        f"ingested {args.input} -> {args.out} "
        f"({len(trace)} accesses, columns={','.join(fmt.columns)})"
    )
    print(stats.summary())
    return 0


def run_training(args: argparse.Namespace) -> int:
    trace = parse_trace(args.trace)
    label_config = LabelConfig(
        window=args.window, spatial_radius=args.spatial_radius
    )
    dataset = build_sequence_dataset(
        trace,
        seq_len=args.seq_len,
        label_config=label_config,
        pc_cap=args.pc_cap,
        page_cap=args.page_cap,
    )
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        seed=args.seed,
        seq_len=args.seq_len,
    )
    model = HierarchicalModel(config)
    print(
        f"trace={args.trace} accesses={len(trace)} "
        f"segments={len(dataset)}x{dataset.seq_len} "
        f"params={model.num_parameters()}"
    )
    result = train(
        model,
        dataset,
        steps=args.steps,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        tbptt=args.tbptt,
        lr_schedule=args.lr_schedule,
    )
    metrics = evaluate(model, dataset)
    print(
        f"loss={result.final_loss:.6f} "
        f"page_acc={metrics.page_accuracy:.4f} "
        f"offset_acc={metrics.offset_accuracy:.4f} "
        f"full_acc={metrics.full_accuracy:.4f} "
        f"coverage={metrics.label_coverage:.4f}"
    )
    if not args.no_baselines:
        for name, pf in (
            ("next_line", NextLinePrefetcher()),
            ("stride", StridePrefetcher()),
        ):
            base = evaluate_baseline(pf, trace)
            print(
                f"baseline {name}: acc={base.accuracy:.4f} "
                f"precision={base.precision:.4f} issued={base.issued}"
            )
    if args.save:
        npz_path, json_path = save_checkpoint(
            args.save, model, dataset.pc_vocab, dataset.page_vocab
        )
        print(f"saved checkpoint: {npz_path} + {json_path}")
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    if args.table and args.prefetcher != "table":
        raise ValueError("--table only makes sense with --prefetcher table")
    if args.prefetcher == "table" and not args.table:
        raise ValueError(
            "--prefetcher table needs --table FILE (build one with "
            "'python -m voyager distill')"
        )
    if args.workload:
        trace = synthetic.generate(args.workload, args.length, seed=args.seed)
    else:
        trace = parse_trace(args.trace)
    sim_config = _sim_config(args)
    if args.prefetcher == "table":
        table = DistilledTable.load(args.table)
        result = simulate(
            trace, make_prefetcher("table", table=table), sim_config
        )
        _print_sim_result(result)
        return 0
    if args.checkpoint:
        model, pc_vocab, page_vocab = load_checkpoint(args.checkpoint)
        result = simulate_model(model, pc_vocab, page_vocab, trace, sim_config)
    elif args.prefetcher == "none":
        result = simulate(trace, None, sim_config)
    else:
        result = simulate(trace, make_prefetcher(args.prefetcher), sim_config)
    _print_sim_result(result)
    return 0


def run_distill(args: argparse.Namespace) -> int:
    trace = parse_trace(args.trace)
    config = DistillConfig(
        depths=depth_chain(args.depth),
        table_size=args.table_size,
        top_k=args.top_k,
        fallback=args.fallback,
    )
    table, build_s = distill_checkpoint(args.checkpoint, trace, config)
    path = table.save(args.out)
    per_depth = " ".join(
        f"d{depth}={count}" for depth, count in sorted(table.entries.items())
    )
    print(
        f"distilled {len(trace)} accesses into {table.total_entries} "
        f"entries ({per_depth}) in {build_s:.3f}s"
    )
    print(f"wrote {path}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    if args.streams < 1:
        raise ValueError(f"--streams must be >= 1, got {args.streams}")
    if args.adapt and args.adapt_every < 1:
        raise ValueError(f"--adapt-every must be >= 1, got {args.adapt_every}")
    trace = parse_trace(args.trace)
    if not trace:
        raise ValueError(f"{args.trace}: empty trace, nothing to serve")
    model, pc_vocab, page_vocab = load_checkpoint(args.checkpoint)
    traces, schedule = serve_trace(trace, args.streams)
    logger = None
    hook = None
    hook_at = range(0)
    if args.adapt:
        # Request j is trace[j], so a segment of adapt_every requests
        # per stream closes exactly at each hook: every poll sees the
        # just-rotated segment.
        every = args.adapt_every * len(traces)
        logger = AccessLogger(args.adapt, segment_records=every)
        loop = AdaptationLoop(
            args.checkpoint,
            args.adapt,
            args.adapt_out or str(Path(args.adapt) / "ckpts"),
            steps=args.adapt_steps,
            replay_mix=args.replay_mix,
            seed=args.seed,
        )
        hook_at = range(every, len(trace) + 1, every)

        def hook(server: PrefetchServer, j: int) -> None:
            logger.rotate()
            prefix = loop.poll()
            if prefix is not None:
                version = load_and_swap(server, prefix)
                print(f"request {j}: swapped in {prefix} (v{version})")

    # The whole trace is queued at t = 0: a backlog that holds it
    # sheds nothing.
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(
            degree=args.degree,
            max_sessions=len(traces),
            max_pending=len(trace),
            max_batch=args.max_batch,
        ),
        logger=logger,
    )
    elapsed, _, latency_s, stats = drive_open_loop(
        server,
        [f"s{i}" for i in range(len(traces))],
        [DEFAULT_QOS] * len(traces),
        traces,
        schedule.arrival_s,
        schedule.stream_of,
        hook_at=hook_at,
        hook=hook,
    )
    latency = latency_summary(latency_s)
    print(
        f"streams={len(traces)} accesses={len(trace)} "
        f"throughput={len(trace) / elapsed:.1f}/s "
        f"neural={stats['neural']} shed={stats['shed']} "
        f"ticks={stats['ticks']}"
    )
    print(
        f"latency since t=0: p50={latency['p50_s'] * 1e3:.2f}ms "
        f"p95={latency['p95_s'] * 1e3:.2f}ms "
        f"max={latency['max_s'] * 1e3:.2f}ms"
    )
    if logger is not None:
        logger.close()
        print(
            f"adapt: logged={logger.logged} dropped={logger.dropped} "
            f"segments={logger.segments_closed} "
            f"swaps={stats['swaps']} model_version={stats['model_version']}"
        )
    return 0


def run_adapt(args: argparse.Namespace) -> int:
    if args.bench:
        return _run_adapt_bench(args)
    missing = [
        flag
        for flag, value in (
            ("--checkpoint", args.checkpoint),
            ("--log-dir", args.log_dir),
            ("--out-dir", args.out_dir),
        )
        if not value
    ]
    if missing:
        raise ValueError(
            f"adapt needs {', '.join(missing)} (or --bench for the "
            "adaptation-lag evaluation)"
        )
    if args.rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
    loop = AdaptationLoop(
        args.checkpoint,
        args.log_dir,
        args.out_dir,
        steps=args.steps,
        batch_size=args.batch_size,
        lr=args.lr,
        seq_len=args.seq_len,
        tbptt=args.tbptt,
        lr_schedule=args.lr_schedule,
        replay_mix=args.replay_mix,
        seed=args.seed if args.seed is not None else 0,
    )
    emitted = 0
    for _ in range(args.rounds):
        pending = len(loop.pending_segments())
        prefix = loop.poll()
        if prefix is None:
            print(f"no new traffic ({pending} pending segments); stopping")
            break
        emitted += 1
        print(f"emitted {prefix} (from {pending} new segments)")
    current = loop.current_prefix()
    print(
        f"rounds={emitted} consumed_segments={len(loop.consumed)} "
        f"current={current if current else '<none>'}"
    )
    return 0


def _run_adapt_bench(args: argparse.Namespace) -> int:
    defaults = AdaptBenchConfig()
    config = AdaptBenchConfig(
        workloads=(
            tuple(w.strip() for w in args.workloads.split(",") if w.strip())
            if args.workloads
            else defaults.workloads
        ),
        n=args.length,
        seed=args.seed if args.seed is not None else defaults.seed,
        adapt_steps=args.adapt_steps,
        batch_size=args.batch_size,
        lr=args.lr,
        seq_len=args.seq_len if args.seq_len is not None else defaults.seq_len,
        tbptt=args.tbptt,
        segment_records=args.segment_records,
        replay_mix=args.replay_mix,
    )
    block = run_adaptation_bench(config, workdir=args.workdir)
    problems = check_adaptation_budget(
        block,
        min_gain=args.min_adapted_coverage_gain,
        max_lag=args.max_adapt_lag,
    )
    for name, run in block["workloads"].items():
        print(
            f"{name:14s} frozen={run['frozen_coverage']:.4f} "
            f"adapted={run['adapted_coverage']:.4f} "
            f"mean_gain={run['mean_gain']:+.4f} "
            f"max_lag={run['max_lag_accesses']} "
            f"rounds={run['rounds']} swaps={run['swaps']}"
        )
    return write_report(
        args.out,
        {"serving/adaptation": block},
        [f"adaptation gate: {problem}" for problem in problems],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        print(
            "error: provide a subcommand: gen, workloads, ingest, train, "
            "simulate, distill, bench, serve, serve-bench or adapt",
            file=sys.stderr,
        )
        return 2
    handlers = {
        "gen": run_generate,
        "workloads": run_workloads,
        "ingest": run_ingest,
        "train": run_training,
        "simulate": run_simulate,
        "distill": run_distill,
        "bench": run_bench_args,
        "serve": run_serve,
        "serve-bench": run_serve_bench,
        "adapt": run_adapt,
    }
    try:
        return handlers[args.command](args)
    except (TraceParseError, OSError, ValueError, ShardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
