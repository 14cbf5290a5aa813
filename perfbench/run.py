"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload offline_eval --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload once untraced and once with spans
around every layer (see ``layers.py``) and prints the per-layer
metrics, the traced time split into self times plus the unattributed
remainder, and the tracing overhead.  Times are CPU seconds of this
process (``workloads.CLOCK``).

``--record-pins`` regenerates ``pins.json`` (input digests and the
recorded baseline counters) from the current program; see README.md.

The last line of standard output is the result object; the exit code
is 0 only when every check passed.
"""

import os

#: BLAS threads are fixed before NumPy loads: with OpenBLAS's default
#: (one per core) training burns twice the CPU for no gain in wall
#: time, and the spare threads compete with the single-threaded server.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
RUN_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    # Internal: build a workload's fixtures in a child process.
    parser.add_argument("--fixtures", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not args.workload and not args.record_pins:
        parser.error("--workload is required")
    return args


def host_info(np) -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older NumPy prints instead
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def record_pins(wl) -> None:
    pins = {
        "reference_seed": wl.REFERENCE_SEED,
        "reference_seconds": wl.REFERENCE_SECONDS,
    }
    for name, cls in wl.WORKLOADS.items():
        workload = cls(wl.REFERENCE_SEED, wl.REFERENCE_SECONDS, RUN_DIR)
        entry = {"digests": pin_digests(wl, name, workload)}
        if name == "offline_eval":
            entry["baseline_counters"] = workload.baseline_counters(
                workload.traces(wl.REFERENCE_SEED)
            )
        pins[name] = entry
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def pin_digests(wl, name, workload) -> dict:
    digests = workload.input_digests(wl.REFERENCE_SEED, wl.REFERENCE_SECONDS)
    digests["params"] = wl.digest(wl.PARAMS[name])
    return digests


def show(rows, notes) -> None:
    for name, value, unit in rows:
        text = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:<26} {text:>14} {unit:<9} {notes.get(name, '')}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np

        import workloads as wl
        from layers import LAYERS, SHOULD_MOVE, layer_metrics
        from spans import Instrumentation, Recorder
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # CPU time of the process so far: interpreter start-up and imports.
    import_s = wl.CLOCK()
    if args.record_pins:
        record_pins(wl)
        return 0
    if args.fixtures:
        wl.WORKLOADS[args.workload](args.seed, args.seconds, args.fixtures).build_fixtures()
        return 0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pins = json.loads(PINS.read_text())
        cls = wl.WORKLOADS[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    print("host " + json.dumps(host_info(np), sort_keys=True))

    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = cls(args.seed, args.seconds, workdir)
        wl.check_pins(
            args.workload,
            pin_digests(wl, args.workload, workload),
            pins[args.workload]["digests"],
        )
        workload.check_reference(pins[args.workload])
        subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--fixtures", str(workdir)],
            check=True,
        )
        # The first set-ups are timed and dropped, so the peak memory
        # holds only the states the measurement uses.
        keep = 2 if args.trace else 1
        states, times = [], []
        for k in range(wl.SETUP_REPS):
            start = wl.CLOCK()
            state = workload.setup(k)
            times.append(wl.CLOCK() - start)
            if k >= wl.SETUP_REPS - keep:
                states.append(state)
            del state
            gc.collect()
        setup_s = import_s + statistics.median(times)

        if not args.trace:
            m = workload.measure(states[0], workload.sweeps)
            values = dict(m.metrics)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            wanted = spec["end_to_end"]
            attempted, failed, problems = m.attempted, m.failed, m.problems
            print(
                f"{args.workload}: end-to-end "
                f"(latency samples {m.supplied.get('latency_samples', 0)})"
            )
        else:
            start = wl.CLOCK()
            untraced = workload.measure(states[0], 1)
            untraced_s = wl.CLOCK() - start
            rec = Recorder(clock=wl.CLOCK)
            with Instrumentation(LAYERS, rec) as inst:
                start = wl.CLOCK()
                m = workload.measure(states[1], 1)
                traced_s = wl.CLOCK() - start
            values, totals = layer_metrics(
                rec, inst.absent, traced_s, untraced_s, m.supplied, m.neural_responses
            )
            RUN_DIR.mkdir(exist_ok=True)
            rec.write_csv(RUN_DIR / f"spans-{args.workload}.csv")
            wanted = spec["per_layer"]
            attempted = untraced.attempted + m.attempted
            failed = untraced.failed + m.failed
            problems = untraced.problems + m.problems
            print(
                f"{args.workload}: traced {traced_s:.4f} s = layers "
                f"{totals['trace.layers_s']:.4f} s + unattributed "
                f"{totals['trace.unattributed_s']:.4f} s; untraced "
                f"{untraced_s:.4f} s, overhead {totals['trace.overhead_s']:.4f} s; "
                f"{len(rec.names)} spans"
            )
        missing = [w["name"] for w in wanted if w["name"] not in values]
        if missing:  # the workload could not measure them
            failed += 1
            problems.append(f"no value for {', '.join(missing)}")
            values.update(dict.fromkeys(missing, 0.0))
        show([(w["name"], values[w["name"]], w["unit"]) for w in wanted], SHOULD_MOVE)
    except wl.PinMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"error: building the fixtures failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            w["name"]: {
                "value": 0.0 if values[w["name"]] == "absent" else values[w["name"]],
                "unit": w["unit"],
            }
            for w in wanted
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
