"""The layer table: which program entry points the traced run wraps.

Each :class:`~spans.Layer` names a span and the places its entry point
is looked up.  Names bound into a caller's module are patched there
(``voyager.bench:train``); the defining module is listed too, so a
caller that switches to a module-attribute lookup is still timed.
Class methods are wrapped on the class.

:func:`layer_metrics` turns a traced run's spans and counters into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from spans import Layer, Recorder, breakdown

#: Per-layer time metric (seconds) -> the span whose self time it sums.
TIME_METRICS: Dict[str, str] = {
    "train.dataset_s": "train.dataset",
    "train.loop_s": "train.train",
    "model.forward_s": "model.forward",
    "model.backward_s": "model.backward",
    "optim.step_s": "optim.step",
    "distill.build_s": "distill.build",
    "distill.probe_s": "distill.probe",
    "sim.loop_s": "sim.simulate",
    "sim.neural_cands_s": "sim.neural_cands",
    "infer.segment_s": "infer.segment",
    "infer.rollout_s": "infer.rollout",
    "baselines.cands_s": "baselines.cands",
    "synthetic.gen_s": "synthetic.gen",
    "bench.self_s": "bench.run_bench",
    "serve.submit_s": "serve.submit",
    "serve.tick_s": "serve.tick",
    "serve.decode_s": "serve.decode",
    "infer.embed_s": "infer.embed",
    "infer.step_s": "infer.step",
    "infer.rollout_window_s": "infer.rollout_window",
    "adapt.log_s": "adapt.log",
    "adapt.poll_s": "adapt.poll",
    "ingest.read_s": "ingest.read",
    "adapt.swap_s": "adapt.swap",
}


def _count_positions(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    # loss_and_grads_sequence(self, pc_ids, ...): one supervised
    # position per (segment, timestep) cell of the batch.
    pc_ids = args[1] if len(args) > 1 else kwargs.get("pc_ids")
    rec.counters["model.positions"] += np.size(pc_ids)


def _count_step_cells(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    # step_from_features(self, state, x_t): one cell per row.
    x_t = args[2] if len(args) > 2 else kwargs.get("x_t")
    rec.counters["infer.cells"] += np.shape(x_t)[0]


def _count_window_cells(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    # state_from_projected(self, ax): rows x window length cells.
    ax = args[1] if len(args) > 1 else kwargs.get("ax")
    rec.counters["infer.cells"] += np.shape(ax)[0] * np.shape(ax)[1]


def _count_table_probes(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    # TablePrefetcher.stats counts every answer by source; "depthN" are
    # table hits.  Stats accumulate per instance, so count the growth.
    stats = args[0].stats
    seen = rec.hook_state.setdefault("table_seen", {})
    hits = sum(v for k, v in stats.items() if k.startswith("depth"))
    probes = sum(stats.values())
    last_hits, last_probes = seen.get(id(args[0]), (0, 0))
    seen[id(args[0])] = (hits, probes)
    rec.counters["distill.hits"] += hits - last_hits
    rec.counters["distill.probes"] += probes - last_probes


LAYERS: Tuple[Layer, ...] = (
    Layer("bench.run_bench", ("voyager.bench:run_bench",)),
    Layer("synthetic.gen", ("voyager.synthetic:generate",)),
    Layer(
        "train.train",
        ("voyager.bench:train", "voyager.adapt:train", "voyager.train:train"),
    ),
    Layer(
        "train.dataset",
        (
            "voyager.bench:build_sequence_dataset",
            "voyager.adapt:build_sequence_dataset",
            "voyager.train:build_sequence_dataset",
        ),
    ),
    Layer("model.forward", ("voyager.model:HierarchicalModel.forward_sequence",)),
    Layer(
        "model.backward",
        ("voyager.model:HierarchicalModel.loss_and_grads_sequence",),
        hook=_count_positions,
    ),
    Layer("optim.step", ("voyager.optim:Adam.step",)),
    Layer("distill.build", ("voyager.bench:build_table", "voyager.distill:build_table")),
    Layer(
        "distill.probe",
        ("voyager.distill:TablePrefetcher.offline_candidates",),
        hook=_count_table_probes,
    ),
    Layer("sim.simulate", ("voyager.bench:simulate", "voyager.sim:simulate")),
    Layer("sim.neural_cands", ("voyager.sim:NeuralPrefetcher.offline_candidates",)),
    Layer(
        "baselines.cands",
        (
            "voyager.baselines:NextLinePrefetcher.offline_candidates",
            "voyager.baselines:StridePrefetcher.offline_candidates",
        ),
    ),
    Layer("infer.segment", ("voyager.infer:InferenceEngine.segment_states",)),
    Layer("infer.rollout", ("voyager.infer:InferenceEngine.rollout",)),
    Layer("infer.rollout_window", ("voyager.infer:InferenceEngine.rollout_window",)),
    Layer("infer.embed", ("voyager.infer:InferenceEngine.feature_step",)),
    Layer(
        "infer.step",
        ("voyager.infer:InferenceEngine.step_from_features",),
        hook=_count_step_cells,
    ),
    Layer(
        "infer.window_cells",
        ("voyager.infer:InferenceEngine.state_from_projected",),
        span=False,
        hook=_count_window_cells,
    ),
    Layer(
        "serve.submit",
        ("voyager.serve:PrefetchServer.submit",),
        tag=lambda seq: seq,
    ),
    Layer(
        "serve.tick",
        ("voyager.serve:PrefetchServer.tick",),
        tag=lambda responses: tuple(r.seq for r in responses),
    ),
    Layer("serve.decode", ("voyager.serve:decode_block_candidates",)),
    Layer(
        "adapt.log",
        ("voyager.adapt:AccessLogger.log", "voyager.adapt:AccessLogger.rotate"),
    ),
    Layer("adapt.poll", ("voyager.adapt:AdaptationLoop.poll",)),
    Layer("ingest.read", ("voyager.adapt:read_trace",)),
    Layer("adapt.swap", ("voyager.adapt:load_and_swap",)),
)

#: The end-to-end metric (and workload) each per-layer metric should
#: move.  ``BENCHMARK.json`` allows no extra keys, so the mapping lives
#: here; the traced run prints it beside each value.
SHOULD_MOVE: Dict[str, str] = {
    "train.calls": "eval_s@offline_eval",
    "train.dataset_s": "eval_s@offline_eval",
    "train.loop_s": "eval_s@offline_eval",
    "model.forward_s": "eval_s@offline_eval throughput_rps@adapt_drift",
    "model.backward_s": "eval_s@offline_eval throughput_rps@adapt_drift",
    "model.positions": "- (base of the two rows above)",
    "optim.step_s": "eval_s@offline_eval",
    "distill.build_s": "eval_s@offline_eval",
    "distill.probe_s": "eval_s@offline_eval",
    "distill.hit_rate": "coverage_table@offline_eval",
    "sim.loop_s": "eval_s@offline_eval",
    "sim.neural_cands_s": "eval_s@offline_eval",
    "infer.segment_s": "eval_s@offline_eval",
    "infer.rollout_s": "eval_s@offline_eval",
    "baselines.cands_s": "eval_s@offline_eval (no model change moves it)",
    "synthetic.gen_s": "eval_s@offline_eval",
    "bench.self_s": "eval_s@offline_eval",
    "driver.late_p99_ms": "- (must stay well below p50_ms@serve_wide)",
    "serve.wait_p50_ms": "p50_ms p99_ms timely_share@serve_wide",
    "serve.wait_p99_ms": "p50_ms p99_ms timely_share@serve_wide",
    "serve.submit_s": "throughput_rps@serve_wide,adapt_drift",
    "serve.tick_s": "throughput_rps p50_ms@serve_wide,adapt_drift",
    "serve.batch_mean": "throughput_rps up, wait up@serve_wide",
    "serve.decode_s": "throughput_rps@serve_wide",
    "serve.neural_share": "served_hit_rate@serve_wide,adapt_drift",
    "infer.embed_s": "throughput_rps@serve_wide",
    "infer.step_s": "throughput_rps@serve_wide",
    "infer.rollout_window_s": "throughput_rps p99_ms timely_share@serve_wide "
    "throughput_rps p50_ms@adapt_drift",
    "infer.cells_per_pred": "throughput_rps p99_ms timely_share@serve_wide "
    "throughput_rps p50_ms@adapt_drift",
    "adapt.log_s": "throughput_rps@adapt_drift",
    "adapt.poll_s": "throughput_rps@adapt_drift",
    "ingest.read_s": "throughput_rps@adapt_drift",
    "adapt.swap_s": "throughput_rps@adapt_drift",
    "adapt.rounds": "served_hit_rate@adapt_drift",
    "adapt.swaps": "served_hit_rate@adapt_drift",
    "adapt.dropped": "served_hit_rate@adapt_drift (each drop is a failure)",
}

#: Per-layer metrics a workload supplies itself (client-side numbers
#: and the program's public counters), in ``BENCHMARK.json`` order.
WORKLOAD_METRICS = (
    "driver.late_p99_ms",
    "serve.wait_p50_ms",
    "serve.wait_p99_ms",
    "serve.batch_mean",
    "serve.neural_share",
    "adapt.rounds",
    "adapt.swaps",
    "adapt.dropped",
)


def layer_metrics(
    rec: Recorder,
    absent: List[str],
    traced_s: float,
    untraced_s: float,
    supplied: Dict[str, float],
    neural_responses: int,
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Per-layer metric values (``"absent"`` where the layer is gone)
    plus the wall-time identity ``layers + unattributed == wall``."""
    self_s, unattributed = breakdown(rec, traced_s)
    out: Dict[str, Any] = {}
    for metric, span in TIME_METRICS.items():
        out[metric] = "absent" if span in absent else self_s.get(span, 0.0)
    out["train.calls"] = "absent" if "train.train" in absent else rec.count("train.train")
    out["model.positions"] = (
        "absent" if "model.backward" in absent else int(rec.counters["model.positions"])
    )
    probes = rec.counters["distill.probes"]
    out["distill.hit_rate"] = (
        "absent"
        if "distill.probe" in absent
        else (rec.counters["distill.hits"] / probes if probes else 0.0)
    )
    cells = rec.counters["infer.cells"]
    out["infer.cells_per_pred"] = (
        "absent"
        if "infer.step" in absent
        else (cells / neural_responses if neural_responses else 0.0)
    )
    out.update({name: supplied.get(name, 0.0) for name in WORKLOAD_METRICS})
    layers_s = sum(self_s.values())
    totals = {
        "trace.wall_s": traced_s,
        "trace.layers_s": layers_s,
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": traced_s - untraced_s,
    }
    out.update(totals)
    return out, totals
