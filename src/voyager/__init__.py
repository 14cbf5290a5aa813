"""Voyager-style hierarchical neural data prefetcher.

A pure-NumPy reproduction of "A Hierarchical Neural Model of Data
Prefetching" (Shi et al., ASPLOS 2021).  The package is layered:

- trace layer: :mod:`voyager.traces`, :mod:`voyager.vocab`,
  :mod:`voyager.synthetic` (the workload-zoo registry),
  :mod:`voyager.ingest` (external ChampSim/ML-DPC trace formats)
- model layer: :mod:`voyager.embeddings`, :mod:`voyager.model`
- training/eval layer: :mod:`voyager.labeling`, :mod:`voyager.train`,
  :mod:`voyager.eval`
- baseline layer: :mod:`voyager.baselines`
- simulation layer: :mod:`voyager.sim` (trace-driven cache model),
  :mod:`voyager.bench` (workload sweep -> ``BENCH_voyager.json``)
- inference layer: :mod:`voyager.infer` (cache-free incremental
  engine behind the simulator hot path)
- serving layer: :mod:`voyager.serve` (multi-stream online sessions
  with cross-stream micro-batching), :mod:`voyager.loadgen`
  (multi-stream load generator -> ``serving`` bench section)
- adaptation layer: :mod:`voyager.adapt` (served-traffic logging,
  background fine-tuning, live checkpoint hot-swap)
"""

from voyager.adapt import (
    AccessLogger,
    AdaptationLoop,
    load_and_swap,
    run_adaptation_bench,
)
from voyager.baselines import NextLinePrefetcher, StridePrefetcher
from voyager.infer import InferenceEngine, LSTMState
from voyager.ingest import (
    ExternalRecord,
    IngestFormat,
    IngestStats,
    read_trace,
    write_records,
)
from voyager.labeling import LabelConfig, make_labels
from voyager.model import (
    HierarchicalModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from voyager.serve import (
    PrefetchResponse,
    PrefetchServer,
    ServeConfig,
    ServerStats,
)
from voyager.sim import (
    CacheConfig,
    NeuralPrefetcher,
    SetAssociativeCache,
    SimConfig,
    SimResult,
    simulate,
)
from voyager.synthetic import REGISTRY, WORKLOADS, WorkloadSpec, generate
from voyager.traces import (
    BLOCK_BITS,
    NUM_OFFSETS,
    MemoryAccess,
    join_address,
    parse_trace,
    parse_trace_line,
    split_address,
)
from voyager.vocab import Vocab

__version__ = "0.1.0"

__all__ = [
    "BLOCK_BITS",
    "NUM_OFFSETS",
    "REGISTRY",
    "WORKLOADS",
    "AccessLogger",
    "AdaptationLoop",
    "CacheConfig",
    "ExternalRecord",
    "HierarchicalModel",
    "InferenceEngine",
    "IngestFormat",
    "IngestStats",
    "LSTMState",
    "LabelConfig",
    "MemoryAccess",
    "ModelConfig",
    "NeuralPrefetcher",
    "NextLinePrefetcher",
    "PrefetchResponse",
    "PrefetchServer",
    "ServeConfig",
    "ServerStats",
    "SetAssociativeCache",
    "SimConfig",
    "SimResult",
    "StridePrefetcher",
    "Vocab",
    "WorkloadSpec",
    "generate",
    "join_address",
    "load_and_swap",
    "load_checkpoint",
    "make_labels",
    "parse_trace",
    "parse_trace_line",
    "read_trace",
    "run_adaptation_bench",
    "save_checkpoint",
    "simulate",
    "split_address",
    "write_records",
]
