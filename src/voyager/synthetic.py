"""Deterministic synthetic workload zoo for tests, benches and serving.

Each generator returns a list of :class:`~voyager.traces.MemoryAccess`
and is fully determined by its arguments (including ``seed`` where
randomness is involved), so fixtures and golden tests are reproducible.

Workloads are registered in one :data:`REGISTRY` that ``bench``,
``simulate --workload`` and the serving load generator all resolve by
name — adding a generator here (plus a :func:`register` call) makes it
show up in the bench grid, the CLI and the loadgen stream mix without
any per-module plumbing.  :data:`WORKLOADS` stays the canonical ordered
name tuple for back-compat.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from voyager.traces import NUM_OFFSETS, MemoryAccess, join_address


@dataclass(frozen=True)
class WorkloadSpec:
    """One registry entry: a named, seeded trace generator.

    ``boundaries`` is the phase-boundary metadata for regime-shifting
    workloads: ``boundaries(n, seed)`` returns the exact indices
    ``[0, c1, ..., n]`` at which the generator switches regimes for a
    trace of the same ``(n, seed)``.  Adaptation-lag measurement
    (:mod:`voyager.adapt`) reads these instead of re-deriving shift
    points heuristically from the trace.  ``None`` means the workload
    is single-regime (one phase spanning the whole trace).
    """

    name: str
    fn: Callable[[int, int], List[MemoryAccess]]  # (n, seed) -> trace
    description: str
    boundaries: Optional[Callable[[int, int], List[int]]] = None


#: Name -> spec, in registration order (which is also bench-grid order).
REGISTRY: Dict[str, WorkloadSpec] = {}


def register(
    name: str,
    fn: Callable[[int, int], List[MemoryAccess]],
    description: str,
    boundaries: Optional[Callable[[int, int], List[int]]] = None,
) -> None:
    """Register a workload generator under ``name`` (must be unique)."""
    if name in REGISTRY:
        raise ValueError(f"workload {name!r} already registered")
    REGISTRY[name] = WorkloadSpec(
        name=name, fn=fn, description=description, boundaries=boundaries
    )


def workload_names() -> Tuple[str, ...]:
    """All registered workload names, in registration order."""
    return tuple(REGISTRY)


def resolve(workload: str) -> WorkloadSpec:
    """Look up a registered workload; raise a listing error when unknown."""
    spec = REGISTRY.get(workload)
    if spec is None:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(REGISTRY)}"
        )
    return spec


def generate(workload: str, n: int, seed: int = 0) -> List[MemoryAccess]:
    """Generate a named workload (see :data:`WORKLOADS` / :data:`REGISTRY`)."""
    return resolve(workload).fn(n, seed)


def derive_cell_seed(seed: int, workload: str) -> int:
    """Deterministic per-workload seed for a bench cell.

    Every cell computes its own seed from the top-level seed — no RNG
    state crosses process boundaries, so serial and parallel sweeps are
    trivially identical.  Keyed by workload only (not prefetcher): all
    prefetchers of a workload must replay the *same* trace for the
    coverage comparison to mean anything.
    """
    return (seed + zlib.crc32(workload.encode("utf-8"))) % (2**31)


def phase_boundaries(workload: str, n: int, seed: int = 0) -> List[int]:
    """Phase-boundary indices ``[0, c1, ..., n]`` for a named workload.

    Single-regime workloads (no ``boundaries`` metadata registered)
    report one phase spanning the whole trace.  For regime-shifting
    workloads the returned cuts are exactly where
    ``generate(workload, n, seed)`` switches distributions — the ground
    truth for adaptation-lag measurement.
    """
    spec = resolve(workload)
    if spec.boundaries is None:
        return [0, n]
    return spec.boundaries(n, seed)


def _jittered_cuts(
    rng: np.random.Generator, n: int, phases: int, min_phase: int
) -> List[int]:
    """Seeded phase bounds ``[0, c1, ..., n]`` jittered around even splits.

    Shared by every regime-shifting generator AND its registered
    ``boundaries`` metadata: both draw the cuts as the *first* values
    from a fresh ``default_rng(seed)``, which is what keeps the
    metadata bit-exact with the trace without regenerating it.
    """
    phases = min(phases, max(1, n // max(min_phase, 1)))
    seg = n // phases
    cuts = sorted(
        {
            min(max(k * seg + int(rng.integers(-(seg // 4), seg // 4 + 1)), 1), n - 1)
            for k in range(1, phases)
        }
    )
    return [0] + cuts + [n]


def stride_trace(
    n: int,
    stride_blocks: int = 1,
    start_page: int = 16,
    num_pcs: int = 1,
    base_pc: int = 0x400000,
) -> List[MemoryAccess]:
    """A classic strided sweep: block address advances by a fixed stride.

    With ``stride_blocks=1`` this is the next-line pattern; larger
    strides periodically cross page boundaries.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    accesses = []
    block = start_page * NUM_OFFSETS
    for i in range(n):
        pc = base_pc + 4 * (i % num_pcs)
        page, offset = divmod(block, NUM_OFFSETS)
        accesses.append(
            MemoryAccess.from_pc_address(pc, join_address(page, offset))
        )
        block += stride_blocks
    return accesses


def page_cycle_trace(
    n: int,
    pages: int = 4,
    start_page: int = 64,
    page_gap: int = 7,
    base_pc: int = 0x500000,
) -> List[MemoryAccess]:
    """Cycle through a fixed set of far-apart pages.

    Consecutive accesses land on *different* pages separated by
    ``page_gap`` pages, so next-line prefetching is useless, while the
    page sequence itself is perfectly predictable — the workload the
    hierarchical page head exists for.  The offset also cycles so the
    offset head has a learnable signal.
    """
    if pages < 2:
        raise ValueError("pages must be >= 2")
    accesses = []
    for i in range(n):
        page = start_page + (i % pages) * page_gap
        offset = (i * 3) % NUM_OFFSETS
        pc = base_pc + 4 * (i % pages)
        accesses.append(
            MemoryAccess.from_pc_address(pc, join_address(page, offset))
        )
    return accesses


def random_walk_trace(
    n: int,
    seed: int = 0,
    pages: int = 32,
    start_page: int = 128,
    base_pc: int = 0x600000,
    num_pcs: int = 4,
) -> List[MemoryAccess]:
    """A seeded random walk over a bounded page range (hard workload)."""
    rng = np.random.default_rng(seed)
    accesses = []
    page = start_page
    for _ in range(n):
        page += int(rng.integers(-2, 3))
        page = min(max(page, start_page), start_page + pages - 1)
        offset = int(rng.integers(0, NUM_OFFSETS))
        pc = base_pc + 4 * int(rng.integers(0, num_pcs))
        accesses.append(
            MemoryAccess.from_pc_address(pc, join_address(page, offset))
        )
    return accesses


def multi_phase_trace(
    n: int,
    seed: int = 0,
    phases: int = 4,
    min_phase: int = 32,
) -> List[MemoryAccess]:
    """Regime-shifting trace: concatenated generators with seeded boundaries.

    The trace is split into ``phases`` segments at seeded boundaries
    (jittered around the even split, each at least ``min_phase // 2``
    accesses); phase ``k`` runs one of the
    base generators — stride, page_cycle, random_walk, cycling — with
    per-phase parameters (stride length, page set, walk region) drawn
    from the phase RNG, so every boundary is a genuine distribution
    shift.  Each phase also gets a distinct PC block, the way a program
    entering a new loop nest would.  This is the workload for measuring
    adaptation lag: a predictor trained on one regime meets another.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    rng = np.random.default_rng(seed)
    # Seeded boundaries: each cut jitters around the even split by up to
    # a quarter segment, so segments stay >= min_phase // 2 but the
    # shift points move with the seed.  Drawn first from the rng so
    # :func:`multi_phase_boundaries` can reproduce them standalone.
    bounds = _jittered_cuts(rng, n, phases, min_phase)
    trace: List[MemoryAccess] = []
    for k in range(len(bounds) - 1):
        length = bounds[k + 1] - bounds[k]
        if length <= 0:
            continue
        kind = k % 3
        base_pc = 0x700000 + 0x10000 * k
        if kind == 0:
            trace.extend(
                stride_trace(
                    length,
                    stride_blocks=int(rng.integers(1, 5)),
                    start_page=int(rng.integers(16, 64)),
                    num_pcs=2,
                    base_pc=base_pc,
                )
            )
        elif kind == 1:
            trace.extend(
                page_cycle_trace(
                    length,
                    pages=int(rng.integers(3, 7)),
                    start_page=int(rng.integers(64, 128)),
                    page_gap=int(rng.integers(3, 11)),
                    base_pc=base_pc,
                )
            )
        else:
            trace.extend(
                random_walk_trace(
                    length,
                    seed=int(rng.integers(0, 2**31)),
                    pages=int(rng.integers(8, 33)),
                    start_page=int(rng.integers(128, 256)),
                    base_pc=base_pc,
                )
            )
    return trace


def multi_phase_boundaries(
    n: int, seed: int = 0, phases: int = 4, min_phase: int = 32
) -> List[int]:
    """The exact phase bounds of ``multi_phase_trace(n, seed, ...)``.

    Bit-exact because the trace generator draws its cuts as the first
    values from the same seeded rng (see :func:`_jittered_cuts`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    return _jittered_cuts(np.random.default_rng(seed), n, phases, min_phase)


def interleaved_mix_trace(
    n: int,
    seed: int = 0,
    programs: int = 3,
    policy: str = "round_robin",
) -> List[MemoryAccess]:
    """Multi-program mix: per-program streams interleaved into one trace.

    Program ``i`` runs its own generator (stride / page_cycle /
    random_walk, cycling) in a disjoint PC block and page region, so the
    mix looks like an SMT core's shared-cache access stream.  With
    ``policy='round_robin'`` the schedule is a fixed rotation; with
    ``policy='random'`` a seeded scheduler picks the next program each
    access — same per-program streams, jittered arrival order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if programs < 1:
        raise ValueError("programs must be >= 1")
    if policy not in ("round_robin", "random"):
        raise ValueError(
            f"policy must be 'round_robin' or 'random', got {policy!r}"
        )
    rng = np.random.default_rng(seed)
    per_program = (n + programs - 1) // programs
    streams: List[List[MemoryAccess]] = []
    for i in range(programs):
        kind = i % 3
        base_pc = 0x800000 + 0x20000 * i
        start_page = 1024 + 512 * i
        if kind == 0:
            streams.append(
                stride_trace(
                    per_program,
                    stride_blocks=1 + i,
                    start_page=start_page,
                    num_pcs=2,
                    base_pc=base_pc,
                )
            )
        elif kind == 1:
            streams.append(
                page_cycle_trace(
                    per_program,
                    pages=4,
                    start_page=start_page,
                    page_gap=5,
                    base_pc=base_pc,
                )
            )
        else:
            streams.append(
                random_walk_trace(
                    per_program,
                    seed=seed + i,
                    pages=16,
                    start_page=start_page,
                    base_pc=base_pc,
                )
            )
    positions = [0] * programs
    trace: List[MemoryAccess] = []
    turn = 0
    while len(trace) < n:
        if policy == "round_robin":
            order = range(turn, turn + programs)
            turn += 1
        else:
            order = [int(rng.integers(0, programs))] + list(range(programs))
        for idx in order:
            i = idx % programs
            if positions[i] < len(streams[i]):
                trace.append(streams[i][positions[i]])
                positions[i] += 1
                break
        else:  # every stream exhausted (rounding) — recycle program 0
            positions = [0] * programs
    return trace[:n]


def pointer_chase_trace(
    n: int,
    seed: int = 0,
    nodes: int = 256,
    start_page: int = 4096,
    base_pc: int = 0x900000,
) -> List[MemoryAccess]:
    """Linked-list traversal: each access is the previous node's successor.

    A seeded random cyclic permutation over ``nodes`` heap slots defines
    the ``next`` pointers, and a second seeded shuffle scatters the
    slots across pages — so consecutive accesses share no spatial
    locality at all (stride and next-line are useless), while the
    successor function itself is a fixed learnable mapping: exactly the
    irregular, dependent-load pattern the paper's neural history models
    target.  One PC (the chase loop) issues every load.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if nodes < 2:
        raise ValueError("nodes must be >= 2")
    rng = np.random.default_rng(seed)
    # Single Hamiltonian cycle: visit order is a seeded permutation and
    # each node points at the next one, so the chase covers all nodes.
    order = rng.permutation(nodes)
    succ = np.empty(nodes, dtype=np.int64)
    succ[order] = np.roll(order, -1)
    # Scatter node slots over a page range (8 nodes per page).
    slots = rng.permutation(nodes)
    trace: List[MemoryAccess] = []
    node = int(order[0])
    for _ in range(n):
        slot = int(slots[node])
        page = start_page + slot // 8
        offset = (slot % 8) * (NUM_OFFSETS // 8)
        trace.append(
            MemoryAccess.from_pc_address(base_pc, join_address(page, offset))
        )
        node = int(succ[node])
    return trace


def zipf_db_trace(
    n: int,
    seed: int = 0,
    blocks: int = 1024,
    alpha: float = 1.2,
    scan_fraction: float = 0.25,
    scan_len: int = 12,
    start_page: int = 8192,
    base_pc: int = 0xA00000,
) -> List[MemoryAccess]:
    """Database block accesses: zipfian point lookups + sequential scans.

    Models a columnar store's buffer-pool traffic: most operations are
    point lookups whose block popularity is zipfian with exponent
    ``alpha`` (rank permuted by seed so hot blocks are scattered over
    the table, not clustered at low addresses), and a ``scan_fraction``
    of operations instead run a ``scan_len``-block sequential range scan
    starting at a zipf-chosen block.  Lookups and scans issue from
    distinct PCs, giving a PC-localised signal — scans are perfectly
    next-line-predictable, lookups only statistically so.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if blocks < 2:
        raise ValueError("blocks must be >= 2")
    if not 0.0 <= scan_fraction <= 1.0:
        raise ValueError("scan_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, blocks + 1, dtype=np.float64)
    pmf = ranks**-alpha
    pmf /= pmf.sum()
    placement = rng.permutation(blocks)  # rank -> table block
    pc_lookup = base_pc
    pc_scan = base_pc + 4
    trace: List[MemoryAccess] = []
    while len(trace) < n:
        rank = int(rng.choice(blocks, p=pmf))
        block = int(placement[rank])
        if rng.random() < scan_fraction:
            for step in range(min(scan_len, n - len(trace))):
                b = (block + step) % blocks
                page, offset = divmod(
                    start_page * NUM_OFFSETS + b, NUM_OFFSETS
                )
                trace.append(
                    MemoryAccess.from_pc_address(
                        pc_scan, join_address(page, offset)
                    )
                )
        else:
            page, offset = divmod(start_page * NUM_OFFSETS + block, NUM_OFFSETS)
            trace.append(
                MemoryAccess.from_pc_address(
                    pc_lookup, join_address(page, offset)
                )
            )
    return trace


def drifting_zipf_trace(
    n: int,
    seed: int = 0,
    blocks: int = 1024,
    alpha: float = 1.2,
    scan_fraction: float = 0.25,
    scan_len: int = 12,
    start_page: int = 8192,
    base_pc: int = 0xA00000,
    phases: int = 3,
    min_phase: int = 64,
) -> List[MemoryAccess]:
    """``zipf_db`` whose hot set rotates at seeded intervals.

    The access mix is identical to :func:`zipf_db_trace` — zipfian point
    lookups plus sequential range scans from two fixed PCs — but the
    rank-to-block *placement* permutation is redrawn at each seeded
    phase boundary (:func:`_jittered_cuts`), so the handful of hot
    blocks that dominate the zipf mass physically move across the table
    while everything else (PCs, popularity law, scan behaviour) stays
    put.  That is the working-set-rotation regime shift a
    frozen-checkpoint server cannot follow: post-shift coverage
    collapses until the model relearns where the mass went, which is
    exactly the signal adaptation-lag measurement needs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if blocks < 2:
        raise ValueError("blocks must be >= 2")
    if not 0.0 <= scan_fraction <= 1.0:
        raise ValueError("scan_fraction must be in [0, 1]")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    rng = np.random.default_rng(seed)
    # Cuts first, from the same rng, so drifting_zipf_boundaries stays
    # bit-exact with the generated trace.
    bounds = _jittered_cuts(rng, n, phases, min_phase)
    ranks = np.arange(1, blocks + 1, dtype=np.float64)
    pmf = ranks**-alpha
    pmf /= pmf.sum()
    pc_lookup = base_pc
    pc_scan = base_pc + 4
    trace: List[MemoryAccess] = []
    for k in range(len(bounds) - 1):
        end = bounds[k + 1]
        placement = rng.permutation(blocks)  # this phase's hot-set layout
        while len(trace) < end:
            rank = int(rng.choice(blocks, p=pmf))
            block = int(placement[rank])
            if rng.random() < scan_fraction:
                for step in range(min(scan_len, end - len(trace))):
                    b = (block + step) % blocks
                    page, offset = divmod(
                        start_page * NUM_OFFSETS + b, NUM_OFFSETS
                    )
                    trace.append(
                        MemoryAccess.from_pc_address(
                            pc_scan, join_address(page, offset)
                        )
                    )
            else:
                page, offset = divmod(
                    start_page * NUM_OFFSETS + block, NUM_OFFSETS
                )
                trace.append(
                    MemoryAccess.from_pc_address(
                        pc_lookup, join_address(page, offset)
                    )
                )
    return trace


def drifting_zipf_boundaries(
    n: int, seed: int = 0, phases: int = 3, min_phase: int = 64
) -> List[int]:
    """The exact hot-set rotation bounds of ``drifting_zipf_trace``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    return _jittered_cuts(np.random.default_rng(seed), n, phases, min_phase)


register(
    "stride",
    lambda n, seed: stride_trace(n),
    "unit-stride sequential sweep (next-line-friendly)",
)
register(
    "page_cycle",
    lambda n, seed: page_cycle_trace(n),
    "cycle over far-apart pages (page-head workload)",
)
register(
    "random_walk",
    lambda n, seed: random_walk_trace(n, seed=seed),
    "seeded random walk over a bounded page range (hard)",
)
register(
    "multi_phase",
    lambda n, seed: multi_phase_trace(n, seed=seed),
    "regime-shifting phases with seeded boundaries",
    boundaries=lambda n, seed: multi_phase_boundaries(n, seed=seed),
)
register(
    "interleaved_mix",
    lambda n, seed: interleaved_mix_trace(n, seed=seed),
    "round-robin multi-program mix with disjoint PC/page spaces",
)
register(
    "pointer_chase",
    lambda n, seed: pointer_chase_trace(n, seed=seed),
    "linked-list chase over a scattered node cycle",
)
register(
    "zipf_db",
    lambda n, seed: zipf_db_trace(n, seed=seed),
    "zipfian database block accesses: point lookups + range scans",
)
register(
    "drifting_zipf",
    lambda n, seed: drifting_zipf_trace(n, seed=seed),
    "zipf_db whose hot set rotates at seeded intervals (drift)",
    boundaries=lambda n, seed: drifting_zipf_boundaries(n, seed=seed),
)

#: Names accepted by :func:`generate`, in registration (bench-grid) order.
WORKLOADS = workload_names()
