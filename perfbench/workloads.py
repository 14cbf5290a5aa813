"""The benchmark's three workloads: pinned parameters, inputs and checks.

Every workload parameter lives in :data:`PARAMS`; nothing is read from
program defaults (``FULL_PROFILE``, ``ServeConfig()``,
``AdaptBenchConfig()``).  Inputs are derived from the run's seed by
:func:`sub_seed`.  Each workload is split the same way:

- ``build_fixtures`` builds what no metric times (trained checkpoints),
  in a child process so neither its CPU time nor its memory reaches
  the metrics; ``check_reference`` runs checks at the reference seed;
- ``setup`` is everything before the timed phase, repeated so that
  ``setup_s`` is a median;
- ``measure`` runs the timed phase once on a fresh set-up and checks
  the program's outputs.  Each failed check is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import percentile
from voyager import adapt, bench, serve, synthetic
from voyager.model import HierarchicalModel, ModelConfig, load_checkpoint, save_checkpoint
from voyager.sim import CacheConfig, SimConfig, make_prefetcher, simulate
from voyager.train import build_sequence_dataset, build_vocabs, train

#: Reported for an end-to-end metric that has no meaning on a workload
#: (every run must carry every metric): a fixed, non-zero value.
NOT_APPLICABLE = 1.0

#: Pins are recorded for these inputs; every run regenerates them and
#: refuses to report if a digest moved.
REFERENCE_SEED = 0
REFERENCE_SECONDS = 20

ZOO = (
    "stride",
    "page_cycle",
    "random_walk",
    "multi_phase",
    "interleaved_mix",
    "pointer_chase",
    "zipf_db",
    "drifting_zipf",
)

PARAMS: Dict[str, Dict[str, Any]] = {
    "offline_eval": {
        "workloads": ["pointer_chase", "multi_phase", "zipf_db"],
        "trace_length": 6000,
        "train_steps": 400,
        "embed_dim": 16,
        "hidden_dim": 32,
        "history": 8,
        "batch_size": 16,
        "lr": 0.04,
        "seq_len": 32,
        "tbptt": 8,
        "lr_schedule": "cosine",
        "degree": 2,
        "distance": 8,
        "latency": 8,
        "queue_capacity": 32,
        "cache_sets": 64,
        "cache_ways": 4,
        "distill_depth": 4,
        "distill_table_size": 4096,
        # One sweep per this many --seconds (at least one).
        "seconds_per_sweep": 10,
    },
    "serve_wide": {
        "zoo": list(ZOO),
        "streams_per_workload": 8,
        "warmup": 8,
        "rate_rps": 400.0,
        # Length of the fixed-rate schedule, in --seconds.
        "fixed_share": 1.5,
        # Saturation passes replay this many of the fixed-rate phase's
        # first requests; throughput is the median pass.
        "saturation_requests": 5000,
        "saturation_reps": 5,
        "degree": 2,
        "max_sessions": 512,
        "max_pending": 1 << 20,
        "max_batch": 64,
        "shed_policy": "next_line",
        "stats_seed": 0,
        "embed_dim": 16,
        "hidden_dim": 32,
        "history": 8,
        "train_steps": 400,
        "batch_size": 16,
        "lr": 0.04,
        "seq_len": 32,
        "tbptt": 8,
        "lr_schedule": "cosine",
        "pc_cap": 1024,
        "page_cap": 1024,
    },
    "adapt_drift": {
        "workloads": ["drifting_zipf", "multi_phase"],
        # Independent streams of each workload: every one brings its own
        # seeded regimes, so the quality figures average over them.
        "streams_per_workload": 4,
        "warmup": 8,
        # Accesses per stream per --seconds.
        "accesses_per_second": 100,
        "degree": 2,
        "max_sessions": 8,
        "max_pending": 256,
        "max_batch": 64,
        "shed_policy": "next_line",
        "stats_seed": 0,
        "embed_dim": 8,
        "hidden_dim": 16,
        "history": 8,
        "base_steps": 90,
        "adapt_steps": 90,
        "batch_size": 16,
        "lr": 0.04,
        "seq_len": 32,
        "tbptt": 8,
        "lr_schedule": "cosine",
        "replay_mix": 0.25,
        "min_new_records": 2,
        "segment_records": 250,
        "max_buffer": 65536,
        "pc_cap": 1024,
        "page_cap": 1024,
    },
}

#: How many times ``setup`` runs per process (``setup_s`` is the median).
SETUP_REPS = 3

#: Every time the benchmark reports is CPU time of its own process.
#: The program runs on one thread (BLAS threads are fixed to 1), so on
#: an idle host this equals wall time; on a shared host it leaves out
#: the time other tenants hold the CPU, which otherwise dominates the
#: run-to-run spread (see README.md).
CLOCK = time.process_time


#: Response sources that count as failed requests.
FAILED_SOURCES = (serve.SOURCE_SHED, serve.SOURCE_ORPHANED)


class PinMismatch(RuntimeError):
    """A generated input or pinned parameter differs from its digest."""


def sub_seed(seed: int, label: str) -> int:
    """Seed of one input stream, derived from the run's seed."""
    return (seed * 1_000_003 + zlib.crc32(label.encode("utf-8"))) % (2**31)


def digest(data: Any) -> str:
    """sha256 of a trace (list of accesses), an array or a JSON value."""
    h = hashlib.sha256()
    if isinstance(data, np.ndarray):
        h.update(str(data.dtype).encode())
        h.update(np.ascontiguousarray(data).tobytes())
    elif isinstance(data, list) and data and hasattr(data[0], "address"):
        h.update(np.array([(a.pc, a.address) for a in data], dtype=np.int64).tobytes())
    else:
        h.update(json.dumps(data, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def check_pins(name: str, actual: Dict[str, str], recorded: Dict[str, str]) -> None:
    """Raise :class:`PinMismatch` listing every digest that moved."""
    moved = sorted(
        key for key in set(actual) | set(recorded)
        if actual.get(key) != recorded.get(key)
    )
    if moved:
        raise PinMismatch(
            f"{name}: digests moved from pins.json ({', '.join(moved)}); "
            "a workload changed - re-record the pins in a benchmark change"
        )


@dataclass
class Measurement:
    """One timed pass: metric values plus operations and failures."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Per-layer values the workload computes itself (client numbers
    #: and public counters), and the neural responses cells divide by.
    supplied: Dict[str, float] = field(default_factory=dict)
    neural_responses: int = 0


def _serve_config(p: Dict[str, Any]) -> serve.ServeConfig:
    return serve.ServeConfig(
        degree=p["degree"],
        max_sessions=p["max_sessions"],
        max_pending=p["max_pending"],
        max_batch=p["max_batch"],
        shed_policy=p["shed_policy"],
        spill_dir=None,
        stats_seed=p["stats_seed"],
    )


def _train_checkpoint(
    prefix: Path,
    trace: list,
    vocab_trace: list,
    p: Dict[str, Any],
    steps: int,
    seed: int,
) -> None:
    """Sequence-train a model on ``trace`` and save it under ``prefix``."""
    pc_vocab, page_vocab = build_vocabs(
        vocab_trace, pc_cap=p["pc_cap"], page_cap=p["page_cap"]
    )
    dataset = build_sequence_dataset(
        trace, seq_len=p["seq_len"], pc_vocab=pc_vocab, page_vocab=page_vocab
    )
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            embed_dim=p["embed_dim"],
            hidden_dim=p["hidden_dim"],
            history=p["history"],
            seed=sub_seed(seed, f"{prefix.name}/init"),
        )
    )
    train(
        model,
        dataset,
        steps=steps,
        batch_size=p["batch_size"],
        lr=p["lr"],
        seed=sub_seed(seed, f"{prefix.name}/train"),
        tbptt=p["tbptt"],
        lr_schedule=p["lr_schedule"],
    )
    save_checkpoint(prefix, model, pc_vocab, page_vocab)


def _stats(server: serve.PrefetchServer) -> Dict[str, int]:
    s = server.stats
    return {
        "requests": s.requests,
        "responses": s.responses,
        "neural": s.neural,
        "ticks": s.ticks,
    }


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in before}


class Workload:
    """What every workload provides; see the module docstring.

    ``setup(k)`` returns the state one ``measure(state, sweeps)`` call
    consumes; only the sweep workload repeats its timed pass.
    """

    name = ""
    sweeps = 1  # timed passes per run

    def build_fixtures(self) -> None:
        """Build what no metric times; runs in a child process."""

    def check_reference(self, pins: Dict[str, Any]) -> None:
        """Checks at the reference seed, before anything is timed."""


# ----------------------------------------------------------------------
# offline_eval
# ----------------------------------------------------------------------
class OfflineEval(Workload):
    """The evaluation sweep: ``bench.run_bench`` over three zoo traces."""

    name = "offline_eval"
    kinds = ("next_line", "stride", "neural", "table")

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.p = PARAMS[self.name]
        self.seed = seed
        self.sweeps = max(1, round(seconds / self.p["seconds_per_sweep"]))
        self.reference_problems: List[str] = []
        self.reference_checks = 0

    def profile(self) -> bench.BenchProfile:
        p = self.p
        return bench.BenchProfile(
            name="perfbench-offline",
            trace_length=p["trace_length"],
            train_steps=p["train_steps"],
            embed_dim=p["embed_dim"],
            hidden_dim=p["hidden_dim"],
            history=p["history"],
            batch_size=p["batch_size"],
            lr=p["lr"],
            seq_len=p["seq_len"],
            tbptt=p["tbptt"],
            lr_schedule=p["lr_schedule"],
            workloads=tuple(p["workloads"]),
            sim=self.sim_config(),
            distill_depth=p["distill_depth"],
            distill_table_size=p["distill_table_size"],
        )

    def sim_config(self) -> SimConfig:
        p = self.p
        return SimConfig(
            cache=CacheConfig(num_sets=p["cache_sets"], ways=p["cache_ways"]),
            degree=p["degree"],
            distance=p["distance"],
            latency=p["latency"],
            queue_capacity=p["queue_capacity"],
        )

    def traces(self, seed: int) -> Dict[str, list]:
        """The traces ``run_bench`` sweeps for ``seed``."""
        return {
            w: synthetic.generate(
                w, self.p["trace_length"], seed=bench.derive_cell_seed(seed, w)
            )
            for w in self.p["workloads"]
        }

    def input_digests(self, seed: int, seconds: int) -> Dict[str, str]:
        return {w: digest(t) for w, t in self.traces(seed).items()}

    def baseline_counters(self, traces: Dict[str, list]) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Integer sim counters of the next_line and stride cells."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for w, trace in traces.items():
            out[w] = {}
            for kind in ("next_line", "stride"):
                entry = simulate(trace, make_prefetcher(kind), self.sim_config()).as_dict()
                out[w][kind] = {k: v for k, v in entry.items() if isinstance(v, int)}
        return out

    def check_reference(self, pins: Dict[str, Any]) -> None:
        # The baseline cells depend only on the simulator: their
        # counters at the reference seed must not move.
        got = self.baseline_counters(self.traces(REFERENCE_SEED))
        for w, kinds in pins["baseline_counters"].items():
            for kind, counters in kinds.items():
                self.reference_checks += 1
                if got.get(w, {}).get(kind) != counters:
                    self.reference_problems.append(
                        f"{w}/{kind}: simulator counters moved from the "
                        f"recorded values: {got.get(w, {}).get(kind)} != {counters}"
                    )

    def setup(self, k: int) -> bench.BenchProfile:
        return self.profile()

    def _cell_failures(self, problems: List[str]) -> int:
        cells = {
            (w, kind) for w in self.p["workloads"] for kind in self.kinds
        }
        named = {
            tuple(problem.split(":")[0].split("/")[:2])
            for problem in problems
        }
        if named - cells:  # a report-level problem fails every cell
            return len(cells)
        return len(named)

    def measure(self, profile: bench.BenchProfile, sweeps: int) -> Measurement:
        cells = len(self.p["workloads"]) * len(self.kinds)
        times: List[float] = []
        reports: List[Dict[str, Any]] = []
        failed = len(self.reference_problems)
        problems = list(self.reference_problems)
        for _ in range(sweeps):
            start = CLOCK()
            try:
                report = bench.run_bench(profile, seed=self.seed, jobs=1)
            except Exception as exc:  # a sweep that raises fails its cells
                failed += cells
                problems.append(f"run_bench raised {exc!r}")
                continue
            times.append(CLOCK() - start)
            bad = bench.validate_report(report)
            failed += self._cell_failures(bad)
            problems += bad
            reports.append(report)
        attempted = cells * sweeps + self.reference_checks
        if not reports:
            return Measurement({}, attempted, failed, problems)

        def outcome(report: Dict[str, Any]) -> Dict[str, Any]:
            return {
                w: {
                    kind: {
                        k: v
                        for k, v in entry.items()
                        if isinstance(v, (int, float)) and not k.endswith("_s")
                    }
                    for kind, entry in kinds.items()
                }
                for w, kinds in report["workloads"].items()
            }

        first = outcome(reports[0])
        for report in reports[1:]:
            if outcome(report) != first:
                failed += cells
                problems.append("sweep outcomes differ between repetitions")

        def mean(kind: str, key: str) -> float:
            return statistics.fmean(
                first[w][kind][key] for w in self.p["workloads"]
            )

        accesses = sum(
            entry["accesses"] for kinds in first.values() for entry in kinds.values()
        )
        eval_s = statistics.median(times)
        metrics = {
            "eval_s": eval_s,
            "p50_ms": percentile(times, 50) * 1000.0,
            "p99_ms": percentile(times, 99) * 1000.0,
            "throughput_rps": accesses / eval_s,
            "coverage_neural": mean("neural", "coverage"),
            "coverage_table": mean("table", "coverage"),
            "accuracy_neural": mean("neural", "accuracy"),
            "timely_share": mean("neural", "timeliness"),
            "served_hit_rate": NOT_APPLICABLE,
        }
        return Measurement(
            metrics,
            attempted,
            failed,
            problems,
            supplied={"latency_samples": len(times)},
        )


# ----------------------------------------------------------------------
# serving helpers
# ----------------------------------------------------------------------
@dataclass
class OpenLoopRun:
    """What the open-loop client saw for one phase (times in seconds of
    the virtual clock, from the start of the schedule)."""

    done: List[Optional[float]]  # when each request's answer was ready
    tick_start: List[Optional[float]]  # start of the tick that answered it
    responses: List[Any]
    arrival: List[int]  # order in which the answers arrived
    client_s: List[float]  # the client's own CPU time per loop pass
    extra: int = 0  # responses for unknown or already-answered requests


def open_loop(
    server: Any,
    requests: Sequence[Tuple[Any, int, int]],
    due: Sequence[float],
    clock: Callable[[], float] = CLOCK,
) -> OpenLoopRun:
    """Serve ``requests[j]``, due ``due[j]`` seconds into the schedule.

    Open loop: the schedule never waits for the server, and each
    request's latency is counted from its due time, so a slow tick is
    charged to every request that fell due behind it.  The schedule
    runs on a virtual clock that advances by the CPU time of each
    server call (``submit`` and ``tick``) and jumps to the next due
    time when the server is idle.  Time the shared host takes the CPU
    away, sleep overshoot and the client's own bookkeeping therefore
    never reach the measured latency; ``client_s`` records the last.
    """
    n = len(requests)
    done: List[Optional[float]] = [None] * n
    tick_start: List[Optional[float]] = [None] * n
    responses: List[Any] = [None] * n
    arrival = [-1] * n
    seq_of: Dict[int, int] = {}
    client_s: List[float] = []
    extra = answered = nxt = 0
    now = 0.0
    while answered < n:
        pass_start = clock()
        server_s = 0.0
        while nxt < n and due[nxt] <= now:
            stream, pc, address = requests[nxt]
            t0 = clock()
            seq = server.submit(stream, pc, address)
            spent = clock() - t0
            now += spent
            server_s += spent
            seq_of[seq] = nxt
            nxt += 1
        if server.pending:
            t0 = clock()
            out = server.tick()
            spent = clock() - t0
            started, now = now, now + spent
            server_s += spent
            for response in out:
                j = seq_of.get(response.seq)
                if j is None or done[j] is not None:
                    extra += 1
                    continue
                done[j], tick_start[j] = now, started
                responses[j] = response
                arrival[j] = answered
                answered += 1
        elif nxt < n:
            now = max(now, due[nxt])
        else:
            break  # nothing pending and nothing left: some went missing
        client_s.append(clock() - pass_start - server_s)
    return OpenLoopRun(done, tick_start, responses, arrival, client_s, extra)


def check_open_loop(
    run: OpenLoopRun, stream_of: Sequence[int]
) -> Tuple[int, List[str]]:
    """Failed requests of one phase: missing, duplicate, shed, orphaned
    or out of per-stream order."""
    failed = run.extra
    problems = [f"{run.extra} unexpected responses"] if run.extra else []
    last: Dict[int, int] = {}
    for j, response in enumerate(run.responses):
        if response is None:
            failed += 1
            continue
        if response.source in FAILED_SOURCES:
            failed += 1
            continue
        # A stream's requests are scheduled in order, so their answers
        # must arrive in that order.
        stream = stream_of[j]
        if last.get(stream, -1) > run.arrival[j]:
            failed += 1
        last[stream] = run.arrival[j]
    missing = sum(1 for r in run.responses if r is None)
    if missing:
        problems.append(f"{missing} requests never answered")
    if failed - run.extra - missing:
        problems.append(f"{failed - run.extra - missing} shed, orphaned or out of order")
    return failed, problems


def served_hits(responses: Sequence[Any], next_block: Sequence[Optional[int]]) -> Tuple[int, int]:
    """(hits, scored): requests whose stream's next block was a candidate
    (``None`` marks a request with no next access, which is not scored)."""
    hits = scored = 0
    for response, block in zip(responses, next_block):
        if block is None:
            continue
        scored += 1
        if response is not None and block in response.candidates:
            hits += 1
    return hits, scored


# ----------------------------------------------------------------------
# serve_wide
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    streams: List[list]  # per stream: warm-up accesses then measured ones
    due: np.ndarray  # (N,) seconds from phase start, ascending
    stream_of: np.ndarray  # (N,) stream index of request j
    index_of: np.ndarray  # (N,) trace index of request j in its stream


@dataclass
class ServeState:
    server: serve.PrefetchServer
    ids: Dict[str, List[str]]  # phase -> stream ids


class ServeWide(Workload):
    """64 resident streams of the zoo mix through one server, open loop."""

    name = "serve_wide"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.p = PARAMS[self.name]
        self.seed = seed
        self.seconds = seconds
        self.prefix = workdir / "serve" / "model"

    def inputs(self, seed: int, seconds: int) -> ServeInputs:
        p = self.p
        per = p["streams_per_workload"]
        n_streams = per * len(p["zoo"])
        # One Poisson process at rate_rps over the fixed-rate phase, each
        # arrival sent to a uniformly drawn stream: every stream is then
        # an independent Poisson stream, and the offered rate stays
        # constant to the end of the phase.
        rng = np.random.default_rng(sub_seed(seed, "serve/arrivals"))
        duration = p["fixed_share"] * seconds
        count = int(rng.poisson(p["rate_rps"] * duration))
        due = np.sort(rng.uniform(0.0, duration, size=count))
        stream_of = rng.integers(0, n_streams, size=count)
        index_of = np.empty(count, dtype=np.int64)
        served = np.zeros(n_streams, dtype=np.int64)
        for j, stream in enumerate(stream_of.tolist()):
            index_of[j] = p["warmup"] + served[stream]
            served[stream] += 1
        # Every stream is its own trace of its workload (own seed):
        # warm-up, one access per request, and the access after the last.
        lengths = (p["warmup"] + served + 1).tolist()
        streams = [
            synthetic.generate(w, lengths[i], seed=sub_seed(seed, f"serve/{w}/{i}"))
            for i, w in enumerate(w for w in p["zoo"] for _ in range(per))
        ]
        return ServeInputs(streams, due, stream_of, index_of)

    def input_digests(self, seed: int, seconds: int) -> Dict[str, str]:
        inputs = self.inputs(seed, seconds)
        out = {f"stream{i:02d}": digest(s) for i, s in enumerate(inputs.streams)}
        out["schedule"] = digest(
            np.concatenate([inputs.due, inputs.stream_of, inputs.index_of])
        )
        return out

    def build_fixtures(self) -> None:
        streams = self.inputs(self.seed, self.seconds).streams
        traffic = [a for s in streams for a in s]
        _train_checkpoint(
            self.prefix, traffic, traffic, self.p, self.p["train_steps"], self.seed
        )

    def phases(self) -> List[str]:
        return ["fixed"] + [f"saturation{r}" for r in range(self.p["saturation_reps"])]

    def setup(self, k: int) -> Tuple[ServeState, ServeInputs]:
        inputs = self.inputs(self.seed, self.seconds)
        model, pc_vocab, page_vocab = load_checkpoint(self.prefix)
        server = serve.PrefetchServer(model, pc_vocab, page_vocab, _serve_config(self.p))
        # Each phase replays the same requests on its own fresh streams.
        ids = {
            phase: [server.open_stream(f"{phase}/{i}") for i in range(len(inputs.streams))]
            for phase in self.phases()
        }
        # Warm-up fills every session's history window, so the timed
        # phases see neural answers only.
        for t in range(self.p["warmup"]):
            for phase_ids in ids.values():
                for sid, stream in zip(phase_ids, inputs.streams):
                    server.submit(sid, stream[t].pc, stream[t].address)
            while server.pending:
                server.tick()
        return ServeState(server, ids), inputs

    def measure(self, state_inputs: Tuple[ServeState, ServeInputs], sweeps: int) -> Measurement:
        state, inputs = state_inputs
        server = state.server
        n = len(inputs.due)
        stream_of = inputs.stream_of.tolist()
        index_of = inputs.index_of.tolist()
        runs: Dict[str, OpenLoopRun] = {}
        ends: Dict[str, float] = {}
        before = _stats(server)
        n_sat = min(n, self.p["saturation_requests"])
        for phase in self.phases():
            ids = state.ids[phase]
            requests = [
                (ids[i], inputs.streams[i][t].pc, inputs.streams[i][t].address)
                for i, t in zip(stream_of, index_of)
            ]
            if phase == "fixed":
                due = inputs.due.tolist()
            else:  # a prefix of the same requests, all due at t=0
                requests, due = requests[:n_sat], [0.0] * n_sat
            runs[phase] = open_loop(server, requests, due)
            ends[phase] = max((d for d in runs[phase].done if d is not None), default=0.0)
        counts = _delta(before, _stats(server))

        failed = 0
        problems: List[str] = []
        fixed = runs["fixed"]
        for phase, run in runs.items():
            f, p = check_open_loop(run, stream_of[: len(run.responses)])
            failed += f
            problems += [f"{phase}: {x}" for x in p]
            if phase == "fixed":
                continue
            # Row-exact batching: a stream's candidates do not depend on
            # which other requests shared its ticks.
            mismatched = sum(
                1
                for a, b in zip(fixed.responses, run.responses)
                if a is not None and b is not None and a.candidates != b.candidates
            )
            if mismatched:
                failed += mismatched
                problems.append(f"{phase}: {mismatched} candidate lists differ from the fixed-rate phase")

        due = inputs.due
        latency = [
            (d - due[j]) * 1000.0 for j, d in enumerate(fixed.done) if d is not None
        ]
        # A request is timely when answered before its stream's next
        # request fell due; shed or failed requests miss.
        timely = scored = 0
        for j, k in enumerate(self._next_request(stream_of)):
            if k < 0:
                continue
            scored += 1
            r = fixed.responses[j]
            if r is not None and r.source not in FAILED_SOURCES and fixed.done[j] < due[k]:
                timely += 1
        next_block = [inputs.streams[i][t + 1].block for i, t in zip(stream_of, index_of)]
        hits, hit_scored = served_hits(fixed.responses, next_block)
        saturation = statistics.median(t for phase, t in ends.items() if phase != "fixed")
        metrics = {
            "eval_s": saturation,
            "p50_ms": percentile(latency, 50),
            "p99_ms": percentile(latency, 99),
            "throughput_rps": n_sat / saturation,
            "timely_share": timely / scored if scored else 0.0,
            "served_hit_rate": hits / hit_scored if hit_scored else 0.0,
            "coverage_neural": NOT_APPLICABLE,
            "coverage_table": NOT_APPLICABLE,
            "accuracy_neural": NOT_APPLICABLE,
        }
        supplied = {
            "latency_samples": len(latency),
            "driver.late_p99_ms": percentile(fixed.client_s, 99) * 1000.0,
            "serve.batch_mean": counts["responses"] / counts["ticks"] if counts["ticks"] else 0.0,
            "serve.neural_share": counts["neural"] / counts["requests"] if counts["requests"] else 0.0,
        }
        waits = [
            (t - due[j]) * 1000.0 for j, t in enumerate(fixed.tick_start) if t is not None
        ]
        supplied["serve.wait_p50_ms"] = percentile(waits, 50)
        supplied["serve.wait_p99_ms"] = percentile(waits, 99)
        return Measurement(
            metrics,
            attempted=sum(len(run.responses) for run in runs.values()),
            failed=failed,
            problems=problems,
            supplied=supplied,
            neural_responses=counts["neural"],
        )

    @staticmethod
    def _next_request(stream_of: List[int]) -> List[int]:
        """Index of each request's stream's next request (-1: none)."""
        nxt = [-1] * len(stream_of)
        last: Dict[int, int] = {}
        for j, stream in enumerate(stream_of):
            if stream in last:
                nxt[last[stream]] = j
            last[stream] = j
        return nxt


# ----------------------------------------------------------------------
# adapt_drift
# ----------------------------------------------------------------------
@dataclass
class AdaptState:
    server: serve.PrefetchServer
    logger: adapt.AccessLogger
    loop: adapt.AdaptationLoop
    ids: List[str]
    traces: List[list]


class AdaptDrift(Workload):
    """Drifting closed-loop streams served in turn while the model
    fine-tunes on the logged traffic and is hot-swapped."""

    name = "adapt_drift"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.p = PARAMS[self.name]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir / "adapt"
        self.prefix = self.workdir / "base"

    def streams(self) -> List[str]:
        """Workload of each stream, in serving order."""
        return [w for w in self.p["workloads"] for _ in range(self.p["streams_per_workload"])]

    def inputs(self, seed: int, seconds: int) -> List[list]:
        n = self.p["warmup"] + self.p["accesses_per_second"] * seconds
        return [
            synthetic.generate(w, n, seed=sub_seed(seed, f"adapt/{w}/{i}"))
            for i, w in enumerate(self.streams())
        ]

    def input_digests(self, seed: int, seconds: int) -> Dict[str, str]:
        traces = self.inputs(seed, seconds)
        return {f"stream{i}-{w}": digest(t) for i, (w, t) in enumerate(zip(self.streams(), traces))}

    def build_fixtures(self) -> None:
        traces = self.inputs(self.seed, self.seconds)
        # The base model knows the first regime of each stream; the
        # vocabularies cover the whole traffic, so every fine-tuned
        # checkpoint stays hot-swappable.
        first_phase = []
        for i, (w, trace) in enumerate(zip(self.streams(), traces)):
            cut = synthetic.phase_boundaries(w, len(trace), sub_seed(self.seed, f"adapt/{w}/{i}"))[1]
            first_phase += trace[:cut]
        everything = [a for t in traces for a in t]
        _train_checkpoint(
            self.prefix, first_phase, everything, self.p, self.p["base_steps"], self.seed
        )

    def setup(self, k: int) -> AdaptState:
        p = self.p
        traces = self.inputs(self.seed, self.seconds)
        root = self.workdir / f"run{k}"
        logger = adapt.AccessLogger(
            root / "log",
            segment_records=p["segment_records"],
            compress=False,
            max_buffer=p["max_buffer"],
        )
        loop = adapt.AdaptationLoop(
            self.prefix,
            root / "log",
            root / "ckpts",
            steps=p["adapt_steps"],
            batch_size=p["batch_size"],
            lr=p["lr"],
            seq_len=p["seq_len"],
            tbptt=p["tbptt"],
            lr_schedule=p["lr_schedule"],
            replay_mix=p["replay_mix"],
            min_new_records=p["min_new_records"],
            seed=sub_seed(self.seed, "adapt/loop"),
        )
        model, pc_vocab, page_vocab = load_checkpoint(self.prefix)
        server = serve.PrefetchServer(
            model, pc_vocab, page_vocab, _serve_config(p), logger=logger
        )
        ids = [server.open_stream(f"{w}/{i}") for i, w in enumerate(self.streams())]
        for t in range(p["warmup"]):
            for sid, trace in zip(ids, traces):
                server.access(sid, trace[t].pc, trace[t].address)
        return AdaptState(server, logger, loop, ids, traces)

    def measure(self, state: AdaptState, sweeps: int) -> Measurement:
        p = self.p
        server, logger, loop = state.server, state.logger, state.loop
        segment = p["segment_records"]
        latency: List[float] = []
        responses: List[Any] = []
        next_block: List[Optional[int]] = []
        problems: List[str] = []
        swapped = served = 0
        before = _stats(server)
        start = CLOCK()
        # The streams take turns, one whole trace each: log segments keep
        # no stream identity, so interleaved streams would teach the
        # fine-tune transitions that never happen within a stream.
        for sid, trace in zip(state.ids, state.traces):
            for t in range(p["warmup"], len(trace)):
                access = trace[t]
                tick = CLOCK()
                response = server.access(sid, access.pc, access.address)
                latency.append((CLOCK() - tick) * 1000.0)
                responses.append(response)
                next_block.append(trace[t + 1].block if t + 1 < len(trace) else None)
                served += 1
                if served % segment:
                    continue
                # One closed segment -> one fine-tune round -> one swap.
                logger.rotate()
                try:
                    prefix = loop.poll()
                    if prefix is None:
                        raise RuntimeError("no round ran on a closed segment")
                    adapt.load_and_swap(server, prefix)
                    swapped += 1
                except Exception as exc:  # a failed round is counted below
                    problems.append(f"round at access {served}: {exc!r}")
        elapsed = CLOCK() - start
        counts = _delta(before, _stats(server))
        rounds = served // segment
        failed_requests = sum(
            1 for r in responses if r.source in FAILED_SOURCES
        )
        # Every served access, warm-up included, must reach the log.
        unlogged = p["warmup"] * len(state.traces) + served - logger.logged
        failed = failed_requests + (rounds - swapped) + unlogged
        if unlogged:
            problems.append(
                f"{unlogged} served accesses not logged ({logger.dropped} dropped)"
            )
        hits, scored = served_hits(responses, next_block)
        metrics = {
            "eval_s": elapsed,
            "p50_ms": percentile(latency, 50),
            "p99_ms": percentile(latency, 99),
            "throughput_rps": served / elapsed,
            "served_hit_rate": hits / scored if scored else 0.0,
            # Closed loop: the next access is sent only after this one
            # is answered, so only shed or failed requests miss.
            "timely_share": 1.0 - failed_requests / served if served else 0.0,
            "coverage_neural": NOT_APPLICABLE,
            "coverage_table": NOT_APPLICABLE,
            "accuracy_neural": NOT_APPLICABLE,
        }
        supplied = {
            "latency_samples": len(latency),
            "serve.batch_mean": counts["responses"] / counts["ticks"] if counts["ticks"] else 0.0,
            "serve.neural_share": counts["neural"] / counts["requests"] if counts["requests"] else 0.0,
            "adapt.rounds": loop.rounds,
            "adapt.swaps": server.stats.swaps,
            "adapt.dropped": logger.dropped,
        }
        return Measurement(
            metrics,
            attempted=served + rounds,
            failed=failed,
            problems=problems,
            supplied=supplied,
            neural_responses=counts["neural"],
        )


WORKLOADS = {w.name: w for w in (OfflineEval, ServeWide, AdaptDrift)}
