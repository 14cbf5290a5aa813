"""Cross-layer pin: one access stream, the same candidates everywhere.

The simulator's :class:`~voyager.sim.NeuralPrefetcher` — its batched
candidate table, as :func:`~voyager.sim.simulate` builds it, and its
streaming protocol — is the reference.  For every access of random
zoo streams longer than two reset periods, these layers must answer
with exactly its candidates:

- a single-stream :class:`~voyager.serve.PrefetchServer`;
- a multi-stream server under random submit/tick interleavings, with
  several accesses of one stream in a tick;
- the same server evicting to a spill store and restoring streams
  across reset boundaries;
- :func:`~voyager.serve.drive_open_loop`, the driver every serving
  caller uses, with the whole schedule due at t = 0 and a hook that
  hot-swaps the serving weights back in mid-run;
- :func:`~voyager.shard.run_sharded` over two shards.

A served answer is a rollout from the stream's carried state or a
shed/orphan degrade; with room for every session and request, each of
these paths answers every access with a rollout.

Below the candidates, the states themselves are pinned at full-profile
shapes: the simulator's whole-trace scan and its block rollouts, the
streaming prefetcher and the server's sessions carry the same bits,
because every layer predicts with one row-exact engine.
"""

import tempfile

import numpy as np
import pytest

import voyager.sim as sim_mod
from voyager.infer import LSTMState
from voyager.model import HierarchicalModel, ModelConfig
from voyager.serve import (
    DEFAULT_QOS,
    SOURCE_NEURAL,
    PrefetchServer,
    ServeConfig,
    drive_open_loop,
)
from voyager.shard import ShardConfig, run_sharded
from voyager.sim import NeuralPrefetcher, protocol_candidates
from voyager.synthetic import WORKLOADS, generate
from voyager.train import build_sequence_dataset, build_vocabs, train

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SEQ_LEN = 8
DEGREE = 2


@pytest.fixture(scope="module")
def trained():
    """A small model trained on every zoo workload, so its rollouts name
    real pages instead of stopping at the OOV id."""
    trace = [a for w in WORKLOADS for a in generate(w, 240, seed=1)]
    pc_vocab, page_vocab = build_vocabs(trace)
    dataset = build_sequence_dataset(
        trace, seq_len=SEQ_LEN, pc_vocab=pc_vocab, page_vocab=page_vocab
    )
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            embed_dim=8,
            hidden_dim=16,
            seed=0,
            seq_len=SEQ_LEN,
        )
    )
    train(
        model,
        dataset,
        steps=60,
        batch_size=16,
        lr=0.04,
        seed=0,
        tbptt=SEQ_LEN,
        lr_schedule="cosine",
    )
    return model, pc_vocab, page_vocab


def reference(model, pc_vocab, page_vocab, trace):
    """Per-access candidates of the simulator's batched candidate table,
    checked against the streaming protocol."""
    batched = NeuralPrefetcher(model, pc_vocab, page_vocab).offline_candidates(
        trace, DEGREE, 0
    )
    streaming = protocol_candidates(
        NeuralPrefetcher(model, pc_vocab, page_vocab), trace, DEGREE, 0
    )
    assert batched == streaming
    return batched


def interleaving(lengths, seed):
    """A random submit/tick schedule: ``(stream, ...)`` per tick, with up
    to three accesses of one stream in the same tick."""
    rng = np.random.default_rng(seed)
    left = list(lengths)
    ticks = []
    while any(left):
        tick = []
        for i in range(len(left)):
            take = min(left[i], int(rng.integers(0, 4)))
            tick.extend([i] * take)
            left[i] -= take
        rng.shuffle(tick)
        if tick:
            ticks.append(tick)
    return ticks


def serve_schedule(server, traces, ticks):
    """Drive ``ticks`` through ``server``; candidates per stream in order."""
    sids = [server.open_stream(f"s{i}") for i in range(len(traces))]
    nxt = [0] * len(traces)
    owner = {}
    out = [[] for _ in traces]
    sources = [[] for _ in traces]
    for tick in ticks:
        for i in tick:
            access = traces[i][nxt[i]]
            nxt[i] += 1
            owner[server.submit(sids[i], access.pc, access.address)] = i
        for response in server.tick():
            out[owner[response.seq]].append(response.candidates)
            sources[owner[response.seq]].append(response.source)
    return out, sources


streams_strategy = st.lists(
    st.tuples(
        st.sampled_from(WORKLOADS),
        st.integers(min_value=2 * SEQ_LEN + 1, max_value=4 * SEQ_LEN),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=10, deadline=None)
@given(
    streams=streams_strategy,
    trace_seed=st.integers(min_value=0, max_value=10_000),
    schedule_seed=st.integers(min_value=0, max_value=10_000),
)
def test_every_layer_answers_with_the_simulator_candidates(
    trained, streams, trace_seed, schedule_seed
):
    model, pc_vocab, page_vocab = trained
    traces = [
        generate(w, n, seed=trace_seed + i) for i, (w, n) in enumerate(streams)
    ]
    want = [reference(model, pc_vocab, page_vocab, t) for t in traces]

    # one stream per server, one access per tick
    for trace, expected in zip(traces, want):
        server = PrefetchServer(
            model, pc_vocab, page_vocab, ServeConfig(degree=DEGREE)
        )
        sid = server.open_stream()
        got = [server.access(sid, a.pc, a.address).candidates for a in trace]
        assert got == expected

    ticks = interleaving([len(t) for t in traces], schedule_seed)

    # all streams through one server, several accesses per stream a tick
    server = PrefetchServer(
        model, pc_vocab, page_vocab, ServeConfig(degree=DEGREE)
    )
    got, sources = serve_schedule(server, traces, ticks)
    assert got == want
    assert all(s == SOURCE_NEURAL for per in sources for s in per)

    # one resident session: streams spill and restore across resets
    with tempfile.TemporaryDirectory() as spill:
        server = PrefetchServer(
            model,
            pc_vocab,
            page_vocab,
            ServeConfig(degree=DEGREE, max_sessions=1, spill_dir=spill),
        )
        got, _ = serve_schedule(server, traces, ticks)
        assert got == want
        if len(traces) > 1:
            assert server.stats.restored > 0

    # the driver, everything due at t = 0, swapping the same weights
    # back in at a random request: a hot-swap moves no answer
    stream_of = np.array([i for tick in ticks for i in tick], dtype=np.int64)
    n = len(stream_of)
    swap_at = int(np.random.default_rng(schedule_seed).integers(0, n + 1))
    server = PrefetchServer(
        model, pc_vocab, page_vocab, ServeConfig(degree=DEGREE)
    )
    _, got, _, stats = drive_open_loop(
        server,
        [f"s{i}" for i in range(len(traces))],
        [DEFAULT_QOS] * len(traces),
        traces,
        np.zeros(n),
        stream_of,
        hook_at=[swap_at],
        hook=lambda srv, _j: srv.swap_checkpoint(model, pc_vocab, page_vocab),
    )
    assert got == want
    assert (stats["neural"], stats["swaps"]) == (n, 1)

    # two shards, the same interleaving as one global arrival order
    sharded = run_sharded(
        model,
        pc_vocab,
        page_vocab,
        traces,
        np.cumsum(np.full(len(stream_of), 1e-6)),
        stream_of,
        config=ShardConfig(shards=2, degree=DEGREE),
        inline=True,
    )
    assert sharded["candidates"] == want


# ----------------------------------------------------------------------
# states, not only candidates, at full-profile shapes
# ----------------------------------------------------------------------
FULL_SEQ_LEN = 32
STREAMS = 64  # one 64-row wave per tick
STREAM_LEN = 3 * FULL_SEQ_LEN  # every stream ends on a reset boundary


@pytest.fixture(scope="module")
def full_shape():
    """Hidden 32, embed 16: 64 zoo streams of 96 accesses (6,144 in
    all) and a model briefly trained on them."""
    streams = [
        generate(WORKLOADS[i % len(WORKLOADS)], STREAM_LEN, seed=100 + i)
        for i in range(STREAMS)
    ]
    trace = [a for stream in streams for a in stream]
    pc_vocab, page_vocab = build_vocabs(trace)
    dataset = build_sequence_dataset(
        trace, seq_len=FULL_SEQ_LEN, pc_vocab=pc_vocab, page_vocab=page_vocab
    )
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size,
            page_vocab_size=page_vocab.size,
            embed_dim=16,
            hidden_dim=32,
            seed=0,
            seq_len=FULL_SEQ_LEN,
        )
    )
    train(model, dataset, steps=40, batch_size=16, lr=0.04, seed=0, tbptt=8)
    return model, pc_vocab, page_vocab, streams, trace


def test_offline_streaming_and_served_states_are_identical(full_shape):
    """The simulator's offline states — the whole-trace
    :meth:`~voyager.infer.InferenceEngine.segment_states` scan and the
    block rollouts of its candidate table — equal the streaming
    prefetcher's and the server's session states bit for bit, and every
    layer answers with the same candidates.

    The streams lie end to end in one trace; each is a whole number of
    reset periods, so the scan's segments are the streams' own.
    """
    model, pc_vocab, page_vocab, streams, trace = full_shape
    n = len(trace)
    offline = NeuralPrefetcher(model, pc_vocab, page_vocab)
    engine = offline.engine
    pc_all = np.array(pc_vocab.encode_all(a.pc for a in trace))
    page_all = np.array(page_vocab.encode_all(a.page for a in trace))
    off_all = np.array([a.offset for a in trace])
    states = engine.segment_states(
        engine.feature_step(pc_all, page_all, off_all), FULL_SEQ_LEN
    )
    size = sim_mod.ROLLOUT_BLOCK_ROWS
    blocks = [
        engine.rollout(
            LSTMState(h=states.h[b : b + size], c=states.c[b : b + size]),
            pc_all[b : b + size],
            DEGREE,
        )
        for b in range(0, n, size)
    ]
    pages, offsets, valid = (np.concatenate(part) for part in zip(*blocks))
    candidates = offline.offline_candidates(trace, DEGREE, 0)

    # streaming: one prefetcher per stream, one access at a time
    for i, stream in enumerate(streams):
        prefetcher = NeuralPrefetcher(model, pc_vocab, page_vocab)
        for t, access in enumerate(stream):
            row = i * STREAM_LEN + t
            prefetcher.update(access)
            assert prefetcher._state.h.tobytes() == states.h[row].tobytes()
            assert prefetcher._state.c.tobytes() == states.c[row].tobytes()
            assert prefetcher.prefetch(access, DEGREE) == candidates[row]

    # served: every stream in every tick, one 64-row wave each
    server = PrefetchServer(
        model,
        pc_vocab,
        page_vocab,
        ServeConfig(degree=DEGREE, max_sessions=STREAMS, max_batch=STREAMS),
    )
    served_rollouts = []
    rollout = server.engine.rollout

    def recording(*args):
        served_rollouts.append(rollout(*args))
        return served_rollouts[-1]

    server.engine.rollout = recording
    sids = [server.open_stream(f"s{i}") for i in range(STREAMS)]
    for t in range(STREAM_LEN):
        for sid, stream in zip(sids, streams):
            server.submit(sid, stream[t].pc, stream[t].address)
        responses = server.tick()
        rows = [i * STREAM_LEN + t for i in range(STREAMS)]
        assert [r.source for r in responses] == [SOURCE_NEURAL] * STREAMS
        assert [r.candidates for r in responses] == [candidates[r] for r in rows]
        for sid, row in zip(sids, rows):
            state = server.session_state(sid)
            assert state.h.tobytes() == states.h[row].tobytes()
            assert state.c.tobytes() == states.c[row].tobytes()
        got_pages, got_offsets, got_valid = served_rollouts[-1]
        np.testing.assert_array_equal(got_valid, valid[rows])
        np.testing.assert_array_equal(
            np.where(got_valid, got_pages, -1),
            np.where(valid[rows], pages[rows], -1),
        )
        np.testing.assert_array_equal(
            np.where(got_valid, got_offsets, -1),
            np.where(valid[rows], offsets[rows], -1),
        )
    assert any(len(c) == DEGREE for c in candidates)
