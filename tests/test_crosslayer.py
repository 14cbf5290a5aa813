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
- a table-backed server, on every table miss;
- :func:`~voyager.shard.run_sharded` over two shards.
"""

import tempfile

import numpy as np
import pytest

from voyager.distill import DistillConfig, build_table
from voyager.model import HierarchicalModel, ModelConfig
from voyager.serve import (
    SOURCE_NEURAL,
    SOURCE_TABLE,
    PrefetchServer,
    ServeConfig,
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

    # two shards, the same interleaving as one global arrival order
    stream_of = np.array([i for tick in ticks for i in tick], dtype=np.int64)
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


@settings(max_examples=5, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    trace_seed=st.integers(min_value=0, max_value=10_000),
)
def test_table_backed_server_misses_match_the_simulator(
    trained, workload, trace_seed
):
    """Table hits skip the rollout; every miss is the neural answer the
    simulator gives, because hits still step the carried state."""
    model, pc_vocab, page_vocab = trained
    trace = generate(workload, 3 * SEQ_LEN, seed=trace_seed)
    want = reference(model, pc_vocab, page_vocab, trace)
    # Distilled from another trace of the workload: some contexts hit,
    # some miss.
    table = build_table(
        model,
        pc_vocab,
        page_vocab,
        generate(workload, 3 * SEQ_LEN, seed=trace_seed + 1),
        DistillConfig(depths=(2,), top_k=DEGREE),
    )
    server = PrefetchServer(
        model, pc_vocab, page_vocab, ServeConfig(degree=DEGREE), table=table
    )
    sid = server.open_stream()
    for t, access in enumerate(trace):
        response = server.access(sid, access.pc, access.address)
        if response.source == SOURCE_TABLE:
            continue
        assert response.source == SOURCE_NEURAL
        assert response.candidates == want[t], t
