"""Serving-layer tests: micro-batch equivalence, admission, backpressure.

The tentpole contract: N interleaved streams through the
micro-batching scheduler produce **bit-identical** per-stream results —
recurrent states, top-k ids and candidate blocks — to N independent
streaming :class:`~voyager.sim.NeuralPrefetcher` instances (the
simulator's prefetcher), across state resets.
The hypothesis property tests drive that over random models, stream
counts and interleavings; the unit tests cover the operational
envelope (the session cap, shed policies, batch accounting,
injected-clock latency percentiles) and the driver's hook.
``tests/test_crosslayer.py`` pins the same contract on trained models
and zoo traces.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from voyager.baselines import next_line_candidates
from voyager.infer import InferenceEngine
from voyager.model import HierarchicalModel, ModelConfig
from voyager.serve import (
    SOURCE_NEURAL,
    SOURCE_ORPHANED,
    SOURCE_SHED,
    LatencyReservoir,
    PrefetchResponse,
    PrefetchServer,
    ServeConfig,
    ServerStats,
    drive_open_loop,
)
from voyager.sim import NeuralPrefetcher
from voyager.traces import NUM_OFFSETS, MemoryAccess, join_address
from voyager.vocab import Vocab

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PCS = [0x400000 + 4 * i for i in range(6)]
PAGES = [512 + 3 * i for i in range(8)]
#: Short, so the hypothesis runs cross several state resets.
SEQ_LEN = 3
DEGREE = 2


def serving_setup(model_seed: int = 1):
    """Tiny model + frozen vocabs sized to each other."""
    pc_vocab = Vocab(cap=len(PCS) + 1).fit(PCS)
    page_vocab = Vocab(cap=len(PAGES) + 1).fit(PAGES)
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            num_offsets=NUM_OFFSETS,
            embed_dim=3,
            hidden_dim=4,
            attention_candidates=2,
            seed=model_seed,
            seq_len=SEQ_LEN,
        )
    )
    return model, pc_vocab, page_vocab


def random_access(rng) -> MemoryAccess:
    return MemoryAccess.from_pc_address(
        int(rng.choice(PCS)),
        join_address(int(rng.choice(PAGES)), int(rng.integers(0, NUM_OFFSETS))),
    )


class SerialStream:
    """Reference: the simulator's streaming prefetcher, one per stream.

    Update-then-prefetch per access at batch width 1, with the model's
    own ``seq_len`` reset rule — no cross-stream batching anywhere.
    """

    def __init__(self, model, pc_vocab, page_vocab):
        self.prefetcher = NeuralPrefetcher(model, pc_vocab, page_vocab)

    def access(self, access: MemoryAccess):
        self.prefetcher.update(access)
        return self.prefetcher.prefetch(access, DEGREE)

    @property
    def state(self):
        return self.prefetcher._state

    def topk(self, k: int):
        pages, offsets = self.prefetcher.engine.predict_topk(self.state, k)
        return pages[0], offsets[0]


# ----------------------------------------------------------------------
# tentpole property: batched == serial, bit for bit, per stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("weight_dtype", [np.float64, np.float32])
@settings(max_examples=12)
@given(
    model_seed=st.integers(min_value=0, max_value=30),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    n_streams=st.integers(min_value=1, max_value=4),
    rounds=st.integers(min_value=3, max_value=8),
)
def test_interleaved_streams_match_independent_engines(
    weight_dtype, model_seed, data_seed, n_streams, rounds
):
    """Micro-batched serving == N independent streaming prefetchers
    (states, top-k, candidates), including streams that submit multiple
    accesses per tick (multi-wave batching): each access is predicted
    from the state after its own step, not after its stream's last.
    Holds whether the model's weights are float64 (as trained) or
    already float32: either way every engine serves its own float32
    snapshot of them."""
    model, pc_vocab, page_vocab = serving_setup(model_seed)
    model.params = {k: v.astype(weight_dtype) for k, v in model.params.items()}
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(degree=DEGREE, max_batch=64),
    )
    sids = [server.open_stream() for _ in range(n_streams)]
    serial = [
        SerialStream(model, pc_vocab, page_vocab) for _ in range(n_streams)
    ]
    rng = np.random.default_rng(data_seed)
    for _ in range(rounds):
        expected = {}
        for i, sid in enumerate(sids):
            # 1-2 accesses per stream per tick exercises the wave
            # decomposition, not just single-wave batching.
            for _ in range(int(rng.integers(1, 3))):
                access = random_access(rng)
                seq = server.submit(sid, access.pc, access.address)
                expected[seq] = (i, serial[i].access(access))
        responses = server.tick()
        assert sorted(r.seq for r in responses) == sorted(expected)
        for response in responses:
            i, ref_candidates = expected[response.seq]
            assert response.stream_id == sids[i]
            assert response.source == SOURCE_NEURAL
            assert response.candidates == ref_candidates
        for i, sid in enumerate(sids):
            state = server.session_state(sid)
            np.testing.assert_array_equal(state.h, serial[i].state.h)
            np.testing.assert_array_equal(state.c, serial[i].state.c)
            pages, offsets = server.topk(sid, 3)
            ref_pages, ref_offsets = serial[i].topk(3)
            np.testing.assert_array_equal(pages, ref_pages)
            np.testing.assert_array_equal(offsets, ref_offsets)


def test_server_is_deterministic_across_instances():
    """Same schedule, same accesses -> bit-identical responses."""
    model, pc_vocab, page_vocab = serving_setup()
    runs = []
    for _ in range(2):
        server = PrefetchServer(model, pc_vocab, page_vocab)
        sids = [server.open_stream() for _ in range(3)]
        rng = np.random.default_rng(7)
        collected = []
        for _ in range(6):
            for sid in sids:
                access = random_access(rng)
                server.submit(sid, access.pc, access.address)
            collected.extend(
                (r.stream_id, r.seq, r.source, r.candidates)
                for r in server.tick()
            )
        runs.append(collected)
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# session lifecycle: the session cap, orphans
# ----------------------------------------------------------------------
def test_open_stream_auto_ids_and_duplicate_rejection():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    assert server.open_stream() == "s0"
    assert server.open_stream() == "s1"
    assert server.open_stream("core3") == "core3"
    with pytest.raises(ValueError, match="already open"):
        server.open_stream("core3")
    assert server.open_streams == ["s0", "s1", "core3"]


def test_open_stream_past_max_sessions_raises_and_changes_nothing():
    """``max_sessions`` is an admission limit: one more ``open_stream``
    raises a ValueError naming the cap and changes nothing (no session
    dropped, nothing counted, no auto id used up); the held sessions
    keep serving exactly, and closing a stream frees its slot."""
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(
        model, pc_vocab, page_vocab, ServeConfig(degree=DEGREE, max_sessions=2)
    )
    server.open_stream("a")
    server.open_stream("b")
    serial = SerialStream(model, pc_vocab, page_vocab)
    rng = np.random.default_rng(0)
    access = random_access(rng)
    got = server.access("a", access.pc, access.address)
    assert got.candidates == serial.access(access)
    for stream_id in ("c", None):
        with pytest.raises(ValueError, match="max_sessions=2"):
            server.open_stream(stream_id)
    assert server.open_streams == ["a", "b"]
    assert (server.stats.opened, server.stats.closed) == (2, 0)
    for _ in range(2 * SEQ_LEN):  # "a" still answers from its own state
        access = random_access(rng)
        got = server.access("a", access.pc, access.address)
        assert got.candidates == serial.access(access)
    server.close_stream("b")
    assert server.open_stream() == "s0"
    assert server.open_streams == ["a", "s0"]
    with pytest.raises(KeyError):
        server.submit("b", access.pc, access.address)


def test_closed_streams_pending_request_resolves_orphaned():
    """A stream closed between submit and tick still resolves its
    pending request, with the degrade candidates, and the batch
    histogram counts it."""
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    server.open_stream("a")
    access = random_access(np.random.default_rng(1))
    seq = server.submit("a", access.pc, access.address)
    server.close_stream("a")
    (response,) = server.tick()
    assert response.seq == seq
    assert response.source == SOURCE_ORPHANED
    assert response.candidates == next_line_candidates(access.block, 2)
    assert server.stats.orphaned == 1
    assert server.stats.batch_size_hist == {1: 1}


def test_close_stream_unknown_raises():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    with pytest.raises(KeyError):
        server.close_stream("nope")


# ----------------------------------------------------------------------
# backpressure: shed policies keep state exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["next_line", "drop"])
def test_shed_requests_degrade_but_still_update_state(policy):
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(degree=DEGREE, max_pending=1, shed_policy=policy),
    )
    server.open_stream("a")
    serial = SerialStream(model, pc_vocab, page_vocab)
    rng = np.random.default_rng(5)
    accesses = [random_access(rng) for _ in range(4)]
    for access in accesses:
        server.submit("a", access.pc, access.address)
        serial.access(access)
    responses = server.tick()
    assert [r.source == SOURCE_SHED for r in responses] == [
        False,
        True,
        True,
        True,
    ]
    assert server.stats.shed == 3
    for response in responses[1:]:
        if policy == "next_line":
            block = accesses[response.seq].block
            assert response.candidates == next_line_candidates(block, DEGREE)
        else:
            assert response.candidates == []
    # shed requests still advanced the recurrent state exactly
    state = server.session_state("a")
    np.testing.assert_array_equal(state.h, serial.state.h)
    np.testing.assert_array_equal(state.c, serial.state.c)


# ----------------------------------------------------------------------
# batching and accounting
# ----------------------------------------------------------------------
def test_max_batch_splits_ticks():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(
        model, pc_vocab, page_vocab, ServeConfig(max_batch=2)
    )
    server.open_stream("a")
    rng = np.random.default_rng(3)
    for _ in range(3):
        access = random_access(rng)
        server.submit("a", access.pc, access.address)
    assert server.pending == 3
    assert len(server.tick()) == 2
    assert server.pending == 1
    assert len(server.tick()) == 1
    assert server.tick() == []
    assert server.stats.batch_size_hist == {2: 1, 1: 1}
    assert server.stats.ticks == 2


def test_access_and_poll_buffer_other_streams_responses():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    server.open_stream("a")
    server.open_stream("b")
    rng = np.random.default_rng(4)
    other = random_access(rng)
    server.submit("b", other.pc, other.address)
    mine = random_access(rng)
    response = server.access("a", mine.pc, mine.address)
    assert response.stream_id == "a"
    buffered = server.poll()
    assert [r.stream_id for r in buffered] == ["b"]
    assert server.poll() == []


def test_latency_percentiles_with_injected_clock():
    model, pc_vocab, page_vocab = serving_setup()
    ticks = iter(float(i) for i in range(100))
    server = PrefetchServer(
        model, pc_vocab, page_vocab, clock=lambda: next(ticks)
    )
    server.open_stream("a")
    rng = np.random.default_rng(6)
    for _ in range(2):  # submitted at t=0 and t=1
        access = random_access(rng)
        server.submit("a", access.pc, access.address)
    server.tick()  # resolved at t=2 -> latencies 2.0 and 1.0
    latency = server.stats.latency_percentiles()
    assert latency["count"] == 2
    assert latency["p50_s"] == 1.0  # nearest-rank: ceil(0.5 * 2) = 1st
    assert latency["p95_s"] == 2.0  # ceil(0.95 * 2) = 2nd
    assert latency["max_s"] == 2.0
    assert latency["mean_s"] == 1.5


def test_stats_snapshot_is_json_safe():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    server.open_stream("a")
    rng = np.random.default_rng(8)
    for _ in range(4):
        access = random_access(rng)
        server.access("a", access.pc, access.address)
    snapshot = server.stats.snapshot()
    assert json.loads(json.dumps(snapshot)) is not None
    assert snapshot["requests"] == 4
    assert snapshot["responses"] == 4
    assert snapshot["latency"]["count"] == 4


def test_empty_tick_is_a_noop():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    assert server.tick() == []
    assert server.stats.ticks == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"degree": 0},
        {"max_sessions": 0},
        {"max_pending": 0},
        {"max_batch": 0},
        {"shed_policy": "panic"},
        {"spill_dir": "spill"},  # sessions stay resident: None only
        {"stats_seed": -1},
    ],
)
def test_serve_config_validation(kwargs):
    with pytest.raises(ValueError):
        ServeConfig(**kwargs)


def test_submit_to_unknown_stream_raises():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    with pytest.raises(KeyError):
        server.submit("ghost", PCS[0], join_address(PAGES[0], 0))


# ----------------------------------------------------------------------
# ServerStats properties: percentiles and histogram edge cases
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(
    latencies=st.lists(
        st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=200,
    )
)
def test_latency_percentiles_match_numpy_inverted_cdf(latencies):
    """Nearest-rank p50/p95 == numpy's inverted_cdf percentile method."""
    stats = ServerStats()
    for value in latencies:
        stats.observe_response(
            PrefetchResponse(
                seq=0, stream_id="a", source=SOURCE_NEURAL, candidates=[],
                latency_s=value,
            )
        )
    result = stats.latency_percentiles()
    arr = np.asarray(latencies)
    assert result["count"] == len(latencies)
    assert result["p50_s"] == np.percentile(arr, 50, method="inverted_cdf")
    assert result["p95_s"] == np.percentile(arr, 95, method="inverted_cdf")
    assert result["max_s"] == arr.max()
    assert result["mean_s"] == pytest.approx(arr.mean())


def test_empty_server_stats_are_all_zero_and_json_safe():
    stats = ServerStats()
    snapshot = stats.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["batch_size_hist"] == {}
    assert snapshot["latency"] == {
        "count": 0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0,
        "max_s": 0.0, "mean_s": 0.0,
    }
    # sessions stay resident: nothing is evicted, spilled or restored
    assert not {"evicted", "spilled", "restored"} & set(snapshot)


def test_single_tick_histogram_and_percentiles():
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(model, pc_vocab, page_vocab)
    server.open_stream("a")
    access = random_access(np.random.default_rng(21))
    server.submit("a", access.pc, access.address)
    server.tick()
    snapshot = server.stats.snapshot()
    assert snapshot["ticks"] == 1
    assert snapshot["batch_size_hist"] == {1: 1}
    latency = snapshot["latency"]
    assert latency["count"] == 1
    assert latency["p50_s"] == latency["p95_s"] == latency["max_s"]


def test_reopened_stream_never_serves_its_predecessors_requests():
    """A request whose session was closed resolves as orphaned even
    when a new stream reopens its id before the tick; the new stream
    starts from a fresh state and answers like the simulator's
    prefetcher replaying its own accesses."""
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(
        model, pc_vocab, page_vocab, ServeConfig(degree=DEGREE)
    )
    rng = np.random.default_rng(23)
    server.open_stream("a")
    old = random_access(rng)
    seq = server.submit("a", old.pc, old.address)
    server.close_stream("a")
    server.open_stream("a")
    (response,) = server.tick()
    assert (response.seq, response.source) == (seq, SOURCE_ORPHANED)
    assert response.candidates == next_line_candidates(old.block, DEGREE)
    assert server.stats.orphaned == 1
    fresh = InferenceEngine(model).init_state(1)
    state = server.session_state("a")
    np.testing.assert_array_equal(state.h, fresh.h)
    np.testing.assert_array_equal(state.c, fresh.c)
    serial = SerialStream(model, pc_vocab, page_vocab)
    for _ in range(2 * SEQ_LEN):  # across a reset boundary
        access = random_access(rng)
        got = server.access("a", access.pc, access.address)
        assert got.source == SOURCE_NEURAL
        assert got.candidates == serial.access(access)


def test_latency_samples_are_bounded():
    """The reservoir caps memory but count/max/mean stay exact."""
    stats = ServerStats(max_latency_samples=4)
    for i in range(10):
        stats.observe_response(
            PrefetchResponse(
                seq=i, stream_id="a", source=SOURCE_NEURAL, candidates=[],
                latency_s=float(i),
            )
        )
    result = stats.latency_percentiles()
    assert result["count"] == 10  # exact total, not the sample size
    assert result["max_s"] == 9.0  # exact, even if 9.0 left the sample
    assert result["mean_s"] == pytest.approx(4.5)
    assert len(stats._reservoir.samples) == 4
    assert all(0.0 <= v <= 9.0 for v in stats._reservoir.samples)


def test_latency_reservoir_is_seeded_and_deterministic():
    """Two reservoirs with the same seed hold identical samples."""
    a = LatencyReservoir(capacity=8, seed=7)
    b = LatencyReservoir(capacity=8, seed=7)
    c = LatencyReservoir(capacity=8, seed=8)
    values = [float(i) * 0.25 for i in range(200)]
    for v in values:
        a.add(v)
        b.add(v)
        c.add(v)
    assert a.samples == b.samples
    assert a.samples != c.samples  # different seed, different draw
    assert a.summary() == b.summary()


def test_latency_reservoir_percentile_bias_bound():
    """Reservoir p95 of a long uniform stream lands near the truth.

    20k observations through a 512-slot reservoir: the held sample is
    a uniform draw over the whole stream (Algorithm R), so the
    nearest-rank p95/p50 estimates must fall within a few percent of
    the exact percentiles — the bound that a tail-truncating window
    (which would report the p95 of only the most recent slice) cannot
    meet under drift.
    """
    reservoir = LatencyReservoir(capacity=512, seed=3)
    n = 20000
    # Drifting stream: values grow over time, so a recency-biased
    # window would overestimate every percentile badly.
    values = [i / n for i in range(n)]
    for v in values:
        reservoir.add(v)
    summary = reservoir.summary()
    assert summary["count"] == n
    assert abs(summary["p50_s"] - 0.50) < 0.05
    assert abs(summary["p95_s"] - 0.95) < 0.05
    assert abs(summary["p99_s"] - 0.99) < 0.05
    assert summary["max_s"] == values[-1]


def test_latency_reservoir_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        LatencyReservoir(capacity=0)


# ----------------------------------------------------------------------
# one admission rule: the FIFO prefix, and nothing kept once answered
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(
    max_batch=st.integers(min_value=1, max_value=8),
    stream_of=st.lists(
        st.integers(min_value=0, max_value=5), min_size=2, max_size=300
    ),
)
def test_single_class_admission_takes_the_fifo_prefix(max_batch, stream_of):
    """Backlog > max_batch over several streams: a tick admits exactly
    the first ``max_batch`` requests, in submit order, and leaves the
    rest queued in the same order."""
    assume(len(stream_of) > max_batch)
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(
        model, pc_vocab, page_vocab,
        ServeConfig(max_batch=max_batch, max_pending=1024),
    )
    for stream in sorted(set(stream_of)):
        server.open_stream(stream)
    rng = np.random.default_rng(len(stream_of))
    for stream in stream_of:
        a = random_access(rng)
        server.submit(stream, a.pc, a.address)
    queued = list(server._pending)
    batch = server._select_batch()
    assert len(batch) == max_batch
    assert all(got is want for got, want in zip(batch, queued))
    left = list(server._pending)
    assert len(left) == len(queued) - max_batch
    assert all(got is want for got, want in zip(left, queued[max_batch:]))


def test_answered_requests_are_not_kept():
    """Once a tick answers a request the server keeps no reference to
    it, served or shed, so memory does not grow with the number of
    requests answered; a request still queued stays."""
    model, pc_vocab, page_vocab = serving_setup()
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(degree=DEGREE, max_batch=2, max_pending=3),
    )
    server.open_stream("a")
    server.open_stream("b")
    rng = np.random.default_rng(24)
    refs = []
    for stream in ["a", "b", "a", "b", "a"]:
        access = random_access(rng)
        server.submit(stream, access.pc, access.address)
        refs.append(weakref.ref(server._pending[-1]))
    sources = [r.source for r in server.tick()]
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False, False, False]
    while server.pending:
        sources += [r.source for r in server.tick()]
    gc.collect()
    assert sources == [SOURCE_NEURAL] * 3 + [SOURCE_SHED] * 2
    assert all(ref() is None for ref in refs)


# ----------------------------------------------------------------------
# drive_open_loop: the one driver and its hook
# ----------------------------------------------------------------------
def test_driver_hook_runs_once_per_index_with_nothing_in_flight():
    """At each hook index j every earlier request has been answered and
    nothing is queued; index n runs after the last response; hooks
    that touch nothing leave every candidate as it was."""
    model, pc_vocab, page_vocab = serving_setup()
    rng = np.random.default_rng(7)
    traces = [[random_access(rng) for _ in range(5)] for _ in range(3)]
    n = 15
    stream_of = rng.permutation(np.repeat(np.arange(3), 5))
    arrival_s = np.sort(rng.uniform(0.0, 0.003, size=n))
    now = [0.0]

    def clock():
        now[0] += 1e-4
        return now[0]

    def drive(**hook_args):
        server = PrefetchServer(
            model,
            pc_vocab,
            page_vocab,
            ServeConfig(degree=DEGREE, max_batch=4),
        )
        return drive_open_loop(
            server,
            ["a", "b", "c"],
            traces,
            arrival_s,
            stream_of,
            clock=clock,
            sleep=lambda _: None,
            **hook_args,
        )

    calls = []

    def hook(server, j):
        calls.append((j, server.pending, server.stats.responses))

    _, plain, _, _ = drive()
    _, hooked, _, stats = drive(hook_at=[n, 0, 7, 7, 3], hook=hook)
    assert calls == [(0, 0, 0), (3, 0, 3), (7, 0, 7), (n, 0, n)]
    assert hooked == plain
    assert stats["responses"] == n
    with pytest.raises(ValueError, match="hook indices"):
        drive(hook_at=[n + 1], hook=hook)
