"""Golden regression for the workload zoo: exact integer sim counters.

Mirrors ``test_golden.py``/``test_sim.py``: every workload the zoo PR
added is pinned to checked-in counter values under the next-line and
stride baselines and a small fixed-seed trained model.  The integers
must reproduce exactly — a change here means the generator, the
simulator issue policy, or the training trajectory moved, and the
constants should only be regenerated when that movement is intentional
(update them in the same PR and say why in the commit message).

Reference values computed with NumPy 2.x on x86-64.
"""

import pytest

from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import NeuralPrefetcher, SimConfig, make_prefetcher, simulate
from voyager.synthetic import generate
from voyager.train import build_sequence_dataset, train

#: The four workloads the zoo PR added (the original three are pinned
#: in test_sim.py's GOLDEN_SIM) plus drifting_zipf from the online-
#: adaptation PR.
ZOO = (
    "multi_phase",
    "interleaved_mix",
    "pointer_chase",
    "zipf_db",
    "drifting_zipf",
)

ZOO_N = 600
ZOO_SEED = 11

# (workload, prefetcher): (misses, baseline_misses, issued, timely, late)
# Default SimConfig: degree=2, distance=0, latency=8.
GOLDEN_ZOO_BASELINE = {
    ("multi_phase", "next_line"): (554, 576, 961, 22, 129),
    ("multi_phase", "stride"): (567, 576, 361, 9, 274),
    ("interleaved_mix", "next_line"): (568, 453, 921, 9, 200),
    ("interleaved_mix", "stride"): (238, 453, 275, 223, 2),
    ("pointer_chase", "next_line"): (600, 600, 1200, 0, 0),
    ("pointer_chase", "stride"): (600, 600, 0, 0, 0),
    ("zipf_db", "next_line"): (294, 303, 359, 24, 240),
    ("zipf_db", "stride"): (307, 303, 259, 3, 210),
    ("drifting_zipf", "next_line"): (354, 383, 445, 45, 289),
    ("drifting_zipf", "stride"): (384, 383, 320, 5, 258),
}

# workload: (misses, baseline_misses, issued, timely, late) for a small
# sequence-trained model (embed 8 / hidden 16, 32-access segments,
# TBPTT 8, 40 cosine-annealed steps, seed 0) simulated with degree=2,
# distance=2.
GOLDEN_ZOO_NEURAL = {
    "multi_phase": (541, 576, 82, 35, 20),
    "interleaved_mix": (423, 453, 153, 45, 8),
    "pointer_chase": (583, 600, 131, 17, 0),
    "zipf_db": (289, 303, 67, 23, 11),
    "drifting_zipf": (358, 383, 124, 38, 26),
}


def _counters(result):
    return (
        result.misses,
        result.baseline_misses,
        result.issued_prefetches,
        result.timely_prefetches,
        result.late_prefetches,
    )


@pytest.mark.parametrize("workload,kind", sorted(GOLDEN_ZOO_BASELINE))
def test_golden_zoo_baseline_counters(workload, kind):
    trace = generate(workload, ZOO_N, seed=ZOO_SEED)
    result = simulate(trace, make_prefetcher(kind), SimConfig())
    assert _counters(result) == GOLDEN_ZOO_BASELINE[(workload, kind)]


@pytest.fixture(scope="module", params=ZOO)
def zoo_neural_run(request):
    workload = request.param
    trace = generate(workload, ZOO_N, seed=ZOO_SEED)
    dataset = build_sequence_dataset(trace, seq_len=32)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        seed=0,
    )
    model = HierarchicalModel(config)
    train(
        model,
        dataset,
        steps=40,
        batch_size=16,
        lr=0.04,
        seed=0,
        tbptt=8,
        lr_schedule="cosine",
    )
    prefetcher = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    return workload, simulate(trace, prefetcher, SimConfig(degree=2, distance=2))


def test_golden_zoo_neural_counters(zoo_neural_run):
    workload, result = zoo_neural_run
    assert _counters(result) == GOLDEN_ZOO_NEURAL[workload]


def test_zoo_baselines_defeated_by_pointer_chase():
    """The chase trace exists to beat spatial baselines; pin that it does."""
    misses, baseline, issued, timely, _ = GOLDEN_ZOO_BASELINE[
        ("pointer_chase", "stride")
    ]
    assert misses == baseline and issued == 0 and timely == 0
    misses, baseline, _, timely, _ = GOLDEN_ZOO_BASELINE[
        ("pointer_chase", "next_line")
    ]
    assert misses == baseline and timely == 0
