"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Instrumentation, Layer, Recorder, breakdown, percentile  # noqa: E402
from voyager import synthetic  # noqa: E402


class FakeClock:
    """Manual clock; every read advances it a microsecond, as real time does."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-6
        return self.now


def test_self_times_and_remainder_add_up_to_wall():
    # root [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # e [11, 12] is a second root; the wall is 13.
    times = iter([0, 1, 2, 3, 4, 5, 9, 10, 11, 12])
    rec = Recorder(clock=lambda: next(times))
    root = rec.open("root")
    b = rec.open("b")
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    d = rec.open("d")
    rec.close(d)
    rec.close(root)
    e = rec.open("e")
    rec.close(e)
    self_s, unattributed = breakdown(rec, wall_s=13.0)
    assert self_s == {"root": 3.0, "b": 2.0, "c": 1.0, "d": 4.0, "e": 1.0}
    assert unattributed == 2.0
    assert sum(self_s.values()) + unattributed == 13.0


class SlowFirstTickServer:
    """Answers everything pending per tick; the first tick stalls."""

    def __init__(self, clock, stall_s, tick_s):
        self.clock, self.stall_s, self.tick_s = clock, stall_s, tick_s
        self.queue, self.seq, self.ticks = [], 0, 0

    @property
    def pending(self):
        return len(self.queue)

    def submit(self, stream, pc, address):
        self.seq += 1
        self.queue.append(self.seq)
        return self.seq

    def tick(self):
        self.clock.now += self.stall_s if self.ticks == 0 else self.tick_s
        self.ticks += 1
        out = [type("Response", (), {"seq": s, "candidates": [], "source": "neural"})
               for s in self.queue]
        self.queue = []
        return out


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    clock = FakeClock()
    server = SlowFirstTickServer(clock, stall_s=0.050, tick_s=0.001)
    due = [0.0, 0.010, 0.020, 0.030, 0.100]
    run_ = wl.open_loop(server, [("s", 0, 0)] * len(due), due, clock)
    latency = [done - d for done, d in zip(run_.done, due)]
    # The first request is served by the stalled tick itself.
    assert latency[0] == pytest.approx(0.050, abs=1e-4)
    # Requests that fell due during the stall waited for it, and are
    # charged from their due time, not from when they were submitted.
    for j in (1, 2, 3):
        assert latency[j] == pytest.approx(0.050 + 0.001 - due[j], abs=1e-4)
        assert run_.tick_start[j] == pytest.approx(0.050, abs=1e-4)
    # After the backlog drains, latency returns to one tick.
    assert latency[4] == pytest.approx(0.001, abs=1e-4)
    assert wl.check_open_loop(run_, [0] * len(due)) == (0, [])


def test_digest_mismatch_aborts_without_a_result(monkeypatch, capsys):
    with pytest.raises(wl.PinMismatch):
        wl.check_pins("w", {"a": "1", "b": "2"}, {"a": "1", "b": "3"})
    monkeypatch.setitem(wl.PARAMS["adapt_drift"], "warmup", 9)
    code = run.main(["--workload", "adapt_drift", "--seed", "0", "--seconds", "1"])
    out = capsys.readouterr()
    assert code != 0
    assert "params" in out.err
    assert not [line for line in out.out.splitlines() if line.startswith("{")]


def test_recorded_pins_match_the_current_inputs():
    pins = json.loads(run.PINS.read_text())
    for name, cls in wl.WORKLOADS.items():
        workload = cls(wl.REFERENCE_SEED, wl.REFERENCE_SECONDS, Path("unused"))
        assert run.pin_digests(wl, name, workload) == pins[name]["digests"]


def test_missing_wrap_target_is_reported_absent():
    rec = Recorder()
    original = synthetic.generate
    layers = (
        Layer("gone", ("voyager.serve:PrefetchServer.no_such_method", "voyager.nope:f")),
        Layer("synthetic.gen", ("voyager.synthetic:generate",)),
    )
    with Instrumentation(layers, rec) as inst:
        synthetic.generate("stride", 10, seed=0)
    assert inst.absent == ["gone"]
    assert rec.names == ["synthetic.gen"]
    assert synthetic.generate is original
    values, _ = layer_metrics(rec, ["serve.tick", "train.train"], 1.0, 1.0, {}, 0)
    assert values["serve.tick_s"] == "absent"
    assert values["train.calls"] == "absent"
    assert values["synthetic.gen_s"] > 0.0


def test_nested_infer_calls_stay_in_the_rollout():
    rec = Recorder()
    inner = Layer("infer.step", ("voyager.synthetic:resolve",))
    outer = Layer("infer.rollout", ("voyager.synthetic:generate",))
    with Instrumentation((inner, outer), rec):
        synthetic.generate("stride", 10, seed=0)  # resolves inside
        synthetic.resolve("stride")
    assert rec.names == ["infer.rollout", "infer.step"]
    assert rec.parents == [-1, -1]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0
