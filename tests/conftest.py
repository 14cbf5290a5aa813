"""Shared fixtures: deterministic synthetic-trace factory + hypothesis profiles.

Every workload fixture is seeded per-test via the ``trace_factory``
fixture, so tests are reproducible in isolation and under ``-p
no:randomly``-style reordering.  To add a new workload, implement a
generator in ``voyager/synthetic.py``, ``register()`` it, and it
becomes available through the factory (and the bench grid, the CLI and
the loadgen — the registry is the single source of workload names).

Hypothesis runs under one of two registered profiles:

- ``dev`` (default): derandomized — every run replays the same example
  sequence, so a local failure always reproduces — with a small
  ``max_examples`` to keep the fast suite fast;
- ``ci``: more examples, still derandomized, for the thorough pass
  (selected with ``HYPOTHESIS_PROFILE=ci`` in the CI workflow).

Profiles are *registered* at import time but *selected* exactly once
per pytest session, in :func:`pytest_configure` — selecting at import
time raced against hypothesis's own plugin setup and could silently
fall back to its default profile depending on conftest import order
(under ``pytest-xdist`` each worker runs its own ``pytest_configure``,
which is precisely once per worker process).  See ``tests/README.md``
for the profile/fixture layout.

Individual tests may still override ``max_examples`` with their own
``@settings``; they inherit the profile's other fields (no deadline,
derandomization), so per-test decorations never need ``deadline=None``
again.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from voyager import synthetic
from voyager.distill import DistillConfig, build_table
from voyager.sim import NeuralPrefetcher

try:
    from hypothesis import settings

    settings.register_profile(
        "dev", max_examples=25, deadline=None, derandomize=True
    )
    settings.register_profile(
        "ci", max_examples=100, deadline=None, derandomize=True
    )
    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    _HAVE_HYPOTHESIS = False


def pytest_configure(config):
    """Select the hypothesis profile once per session (or xdist worker)."""
    if _HAVE_HYPOTHESIS:
        settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


#: Checked-in sample trace files (external formats) used by the ingest
#: harness and the CI ingest smoke step.
FIXTURES_DIR = Path(__file__).parent / "fixtures"

#: The committed bench report at the repo root.
COMMITTED_REPORT = Path(__file__).parent.parent / "BENCH_voyager.json"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture
def trace_factory():
    """Factory: ``trace_factory(workload, n=..., seed=...)`` -> trace.

    Seeds default to 0 so the same call in two tests yields the same
    trace; pass an explicit seed for variation.  Extra ``kwargs`` reach
    the underlying generator for the original three workloads (their
    parameter spaces are part of the golden-test surface); registry
    workloads added later take ``(n, seed)`` only.
    """

    def make(workload: str, n: int = 400, seed: int = 0, **kwargs):
        if workload == "stride":
            return synthetic.stride_trace(n, **kwargs)
        if workload == "page_cycle":
            return synthetic.page_cycle_trace(n, **kwargs)
        if workload == "random_walk":
            return synthetic.random_walk_trace(n, seed=seed, **kwargs)
        if kwargs:
            raise TypeError(
                f"workload {workload!r} takes no extra kwargs, got {kwargs}"
            )
        return synthetic.generate(workload, n, seed=seed)

    return make


class _ProtocolOnly:
    """A prefetcher seen through the bare protocol: ``name``, ``update``
    and ``prefetch``, no ``offline_candidates`` hook."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def update(self, access):
        self.inner.update(access)

    def prefetch(self, access, degree=1):
        return self.inner.prefetch(access, degree)


@pytest.fixture
def protocol_only():
    """``protocol_only(p)`` hides ``p``'s ``offline_candidates`` hook, so
    ``simulate`` builds its candidate table with
    :func:`voyager.sim.protocol_candidates` — the reference every hook
    must equal."""
    return _ProtocolOnly


def _distill_model(model, pc_vocab, page_vocab, trace, config=None):
    config = config or DistillConfig()
    rows = NeuralPrefetcher(model, pc_vocab, page_vocab).offline_candidates(
        trace, config.top_k, 0
    )
    return build_table(rows, pc_vocab, page_vocab, trace, config)


@pytest.fixture
def distill_model():
    """``distill_model(model, pc_vocab, page_vocab, trace, config)``
    distils ``model`` over ``trace``: one teacher rollout
    (``NeuralPrefetcher.offline_candidates(trace, config.top_k, 0)``)
    compiled by :func:`voyager.distill.build_table`, as the ``distill``
    command does for a saved model."""
    return _distill_model


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail the test if a bench cell runs: bad arguments must be
    rejected before the sweep starts."""
    import voyager.bench

    def run_bench(*args, **kwargs):
        raise AssertionError("a cell ran before the arguments were checked")

    monkeypatch.setattr(voyager.bench, "run_bench", run_bench)


@pytest.fixture
def committed_report():
    """A fresh copy of the committed ``BENCH_voyager.json``: a valid
    report holding every section, as its writers produced it."""
    return json.loads(COMMITTED_REPORT.read_text(encoding="utf-8"))


@pytest.fixture
def stride_trace_small(trace_factory):
    return trace_factory("stride", n=400)


@pytest.fixture
def page_cycle_trace_small(trace_factory):
    return trace_factory("page_cycle", n=400)


@pytest.fixture
def random_walk_trace_small(trace_factory):
    return trace_factory("random_walk", n=400, seed=7)
