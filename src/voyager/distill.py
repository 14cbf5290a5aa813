"""Distill a trained predictor into context-hashed lookup tables.

The paper's own closing criticism is that a Voyager-class model is far
too slow to sit in a prefetch loop; Zhang et al. 2024 ("Attention,
Distillation, and Tabularization") answer it by compiling the trained
network into hierarchical table lookups.  This module is the software
analogue of that compilation pass:

- :func:`build_table` records, for every *quantized context* (the
  last ``depth`` encoded ``(pc, page, offset)`` triples), the teacher's
  ordered multi-step candidate blocks at that trace position.  It reads
  the teacher's outputs only — the candidate rows of one
  :meth:`~voyager.sim.NeuralPrefetcher.offline_candidates` rollout —
  so one rollout feeds any number of tables.  One table per configured
  depth; each capped at ``table_size`` most-frequent contexts.
- :class:`DistilledTable` holds the resulting tables plus the vocabs
  and config needed to encode future accesses, so a serialized table
  file is self-contained (no model checkpoint needed at serve time).
- :class:`TablePrefetcher` adapts a table to the simulator protocol
  with a configurable fallback chain: exact (deepest) context hit ->
  coarser-context hit -> stride / next-line fallback -> nothing.  Its
  ``offline_candidates`` hook builds :func:`voyager.sim.simulate`'s
  candidate table with a dict probe per position instead of an LSTM
  step per lookahead step.

Unlike every other fast path in this repo (the inference engine, the
batched candidate tables, the serving layer — all bit-exact),
distillation is an **approximation**: the model predicts from a
carried state that depends on everything since the last segment reset,
while a context key captures only the last ``depth`` accesses, so the
table answers with the *modal* rollout of the positions a context
collapses. One property is still exact, and the test suite pins it:
every stored candidate list is bit-identical to the engine's rollout
from at least one build-trace position whose trailing triples match
the context (the table never invents candidates).

The coverage cost of the approximation is quantified per workload by
the bench grid's ``table`` cell, which CI gates next to the timing
gates, and by the table-size x context-depth frontier in the
``distill`` section of ``BENCH_voyager.json`` (:mod:`voyager.bench`).
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from voyager.baselines import StridePrefetcher, next_line_candidates
from voyager.ioutil import atomic_write_text
from voyager.sim import NeuralPrefetcher
from voyager.traces import MemoryAccess
from voyager.vocab import Vocab

#: Bumped whenever the serialized table layout changes incompatibly.
TABLE_SCHEMA_VERSION = 1

#: Terminal fallbacks when every context depth misses.
FALLBACKS = ("stride", "next_line", "none")

#: ``TablePrefetcher`` provenance labels: ``depth<k>`` for a context
#: hit at depth ``k``, plus the fallback names and ``cold`` for a
#: prefetch asked before any access was observed.
SOURCE_COLD = "cold"


def depth_chain(max_depth: int) -> Tuple[int, ...]:
    """The canonical fallback chain for a maximum context depth.

    ``(d, d-1, ..., 1)`` — exact context first, then every coarser
    quantization down to a single-access context.  The frontier sweep's
    "context depth" axis is this chain's head.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    return tuple(range(max_depth, 0, -1))


@dataclass(frozen=True)
class DistillConfig:
    """Shape of one distillation pass.

    ``depths`` is the lookup chain, deepest first; each depth owns an
    independent ``table_size``-capped table.  ``top_k`` is the number
    of rollout steps recorded per context — it bounds the
    ``degree + distance`` a simulator can ask of the table, so build
    with the issue policy's lookahead in mind.  ``fallback`` answers
    when every depth misses.
    """

    depths: Tuple[int, ...] = (4, 2, 1)
    table_size: int = 4096
    top_k: int = 10
    fallback: str = "stride"

    def __post_init__(self) -> None:
        if not self.depths:
            raise ValueError("depths must be non-empty")
        if any(d < 1 for d in self.depths):
            raise ValueError(f"depths must all be >= 1, got {self.depths}")
        if list(self.depths) != sorted(set(self.depths), reverse=True):
            raise ValueError(
                f"depths must be strictly decreasing, got {self.depths}"
            )
        if self.table_size < 1:
            raise ValueError(
                f"table_size must be >= 1, got {self.table_size}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.fallback not in FALLBACKS:
            raise ValueError(
                f"fallback must be one of {FALLBACKS}, got {self.fallback!r}"
            )

    @property
    def max_depth(self) -> int:
        return max(self.depths)


Context = Tuple[int, ...]  # flattened (pc, page, offset) triples


def context_key(
    pc_ids: Sequence[int],
    page_ids: Sequence[int],
    offsets: Sequence[int],
    end: int,
    depth: int,
) -> Context:
    """Flattened key of the ``depth`` triples ending at position ``end``.

    Triples interleave as ``(pc, page, offset, pc, page, offset, ...)``
    oldest first, so keys of different depths never collide with each
    other inside one depth's table and a key determines its ``depth``
    accesses exactly.
    """
    lo = end - depth + 1
    out: List[int] = []
    for i in range(lo, end + 1):
        out.append(int(pc_ids[i]))
        out.append(int(page_ids[i]))
        out.append(int(offsets[i]))
    return tuple(out)


class DistilledTable:
    """Context-hashed candidate tables compiled from a trained model.

    Self-contained: carries the encode vocabularies and the distill
    config, so serving needs no model checkpoint.  Candidates are
    absolute block addresses in rollout order (candidate ``k``
    approximates the access ``k + 1`` steps ahead), identical to what
    :class:`~voyager.sim.NeuralPrefetcher` decodes — which is what
    makes :class:`~voyager.sim.SimConfig` ``distance`` mean the same
    thing for the table and the neural prefetcher.
    """

    def __init__(
        self,
        config: DistillConfig,
        pc_vocab: Vocab,
        page_vocab: Vocab,
        tables: Optional[Dict[int, Dict[Context, Tuple[int, ...]]]] = None,
    ):
        self.config = config
        self.pc_vocab = pc_vocab
        self.page_vocab = page_vocab
        self.tables: Dict[int, Dict[Context, Tuple[int, ...]]] = (
            tables if tables is not None else {d: {} for d in config.depths}
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(
        self, context: Sequence[Tuple[int, int, int]]
    ) -> Tuple[Optional[List[int]], Optional[int]]:
        """Deepest-first probe over the fallback chain.

        ``context`` is the most recent encoded ``(pc, page, offset)``
        triples, oldest first (only the trailing ``depth`` are used per
        probe).  Returns ``(candidates, depth)`` for the first hit or
        ``(None, None)`` when every depth misses or the context is
        shorter than every configured depth.
        """
        context = list(context)  # deques don't slice
        n = len(context)
        for depth in self.config.depths:
            if n < depth:
                continue
            key: List[int] = []
            for triple in context[n - depth :]:
                key.extend(int(v) for v in triple)
            hit = self.tables[depth].get(tuple(key))
            if hit is not None:
                return list(hit), depth
        return None, None

    @property
    def entries(self) -> Dict[int, int]:
        """Entry count per depth (insertion-capped at ``table_size``)."""
        return {d: len(t) for d, t in self.tables.items()}

    @property
    def total_entries(self) -> int:
        return sum(len(t) for t in self.tables.values())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (context keys joined with commas)."""
        return {
            "schema_version": TABLE_SCHEMA_VERSION,
            "config": {
                "depths": list(self.config.depths),
                "table_size": self.config.table_size,
                "top_k": self.config.top_k,
                "fallback": self.config.fallback,
            },
            "pc_vocab": self.pc_vocab.to_dict(),
            "page_vocab": self.page_vocab.to_dict(),
            "tables": {
                str(depth): {
                    ",".join(map(str, key)): list(cands)
                    for key, cands in table.items()
                }
                for depth, table in self.tables.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DistilledTable":
        version = data.get("schema_version")
        if version != TABLE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported table schema {version!r}; this build reads "
                f"version {TABLE_SCHEMA_VERSION}"
            )
        config = DistillConfig(
            depths=tuple(data["config"]["depths"]),
            table_size=data["config"]["table_size"],
            top_k=data["config"]["top_k"],
            fallback=data["config"]["fallback"],
        )
        tables: Dict[int, Dict[Context, Tuple[int, ...]]] = {}
        for depth_str, table in data["tables"].items():
            tables[int(depth_str)] = {
                tuple(int(v) for v in key.split(",")): tuple(cands)
                for key, cands in table.items()
            }
        # Every lookup probes every configured depth, so a depth without
        # its table (or a table at no configured depth) cannot be served.
        if sorted(tables) != sorted(config.depths):
            raise ValueError(
                f"distilled table holds depths {sorted(tables, reverse=True)}"
                f" but its config lists {list(config.depths)}"
            )
        return cls(
            config=config,
            pc_vocab=Vocab.from_dict(data["pc_vocab"]),
            page_vocab=Vocab.from_dict(data["page_vocab"]),
            tables=tables,
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the table as JSON; returns the path."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(self.to_dict()) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DistilledTable":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"distilled table not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(
                f"distilled table {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(f"distilled table {path}: expected a JSON object")
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"distilled table {path} is corrupt or incomplete: {exc!r}"
            ) from exc


def build_table(
    rows: Sequence[Sequence[int]],
    pc_vocab: Vocab,
    page_vocab: Vocab,
    trace: Sequence[MemoryAccess],
    config: Optional[DistillConfig] = None,
) -> DistilledTable:
    """Compile a teacher's candidate rows into a :class:`DistilledTable`.

    ``rows[t]`` is the teacher's candidate list at ``trace[t]``, as
    ``NeuralPrefetcher.offline_candidates(trace, config.top_k, 0)``
    returns it: the candidates the simulator issues from, with LSTM
    state carried across each ``seq_len``-access segment.  Each row is
    recorded under its position's context key at every configured
    depth; the model itself is never consulted.  Raises
    :class:`ValueError` unless there is one row per access.

    Aggregation is *modal*: a context seen with conflicting rollouts
    (a context key collapses positions whose carried states differ)
    stores its most frequent candidate list, first-seen winning ties —
    so every stored list is bit-identical to a real engine rollout from
    the build trace, never a blend.  Tables keep the ``table_size``
    most frequently *seen* contexts (same count-then-first-seen rank
    rule as :meth:`voyager.vocab.Vocab.fit`).
    """
    config = config or DistillConfig()
    n = len(trace)
    if len(rows) != n:
        raise ValueError(
            f"build_table: {len(rows)} candidate rows for a trace of "
            f"{n} accesses; expected one row per access"
        )
    table = DistilledTable(config, pc_vocab, page_vocab)
    pc_all = pc_vocab.encode_all(a.pc for a in trace)
    page_all = page_vocab.encode_all(a.page for a in trace)
    off_all = [a.offset for a in trace]

    for depth in config.depths:
        ctx_counts: Counter = Counter()
        first_seen: Dict[Context, int] = {}
        cand_votes: Dict[Context, Counter] = {}
        for pos in range(depth - 1, n):
            key = context_key(pc_all, page_all, off_all, pos, depth)
            cands = tuple(rows[pos])
            ctx_counts[key] += 1
            if key not in first_seen:
                first_seen[key] = pos
                cand_votes[key] = Counter()
            cand_votes[key][cands] += 1
        kept = sorted(
            ctx_counts, key=lambda k: (-ctx_counts[k], first_seen[k])
        )[: config.table_size]
        depth_table: Dict[Context, Tuple[int, ...]] = {}
        for key in kept:
            votes = cand_votes[key]
            # Modal candidate list; ties break toward the first list
            # observed (Counter preserves insertion order and
            # most_common is a stable sort).
            depth_table[key] = votes.most_common(1)[0][0]
        table.tables[depth] = depth_table
    return table


class TablePrefetcher:
    """Table-backed prefetcher speaking the :mod:`voyager.sim` protocol.

    ``update`` appends the access's encoded triple to the context
    window (and feeds the stride fallback's table); ``prefetch`` is a
    deepest-first dict probe with the configured terminal fallback —
    no model arithmetic anywhere, which is the entire point.

    ``offline_candidates`` builds :func:`voyager.sim.simulate`'s
    candidate table over whole-trace arrays; per-position work is a few
    dict probes, orders of magnitude cheaper than the neural
    prefetcher's batched rollout.  ``stats`` counts hits per depth,
    fallback answers and cold/short-context answers so bench cells can
    report the table hit rate next to the coverage it buys.
    """

    name = "table"

    def __init__(self, table: DistilledTable):
        self.table = table
        self._ctx: deque = deque(maxlen=table.config.max_depth)
        self._stride = (
            StridePrefetcher() if table.config.fallback == "stride" else None
        )
        self.stats: Dict[str, int] = {}

    def _count(self, source: str) -> None:
        self.stats[source] = self.stats.get(source, 0) + 1

    def update(self, access: MemoryAccess) -> None:
        self._ctx.append(
            (
                self.table.pc_vocab.encode(access.pc),
                self.table.page_vocab.encode(access.page),
                access.offset,
            )
        )
        if self._stride is not None:
            self._stride.update(access)

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]:
        if degree < 1:
            return []
        if not self._ctx:
            self._count(SOURCE_COLD)
            return []
        cands, depth = self.table.lookup(self._ctx)
        if cands is not None:
            self._count(f"depth{depth}")
            return cands[:degree]
        self._count(self.table.config.fallback)
        if self._stride is not None:
            return self._stride.prefetch(access, degree)
        if self.table.config.fallback == "next_line":
            return next_line_candidates(access.block, degree)
        return []

    @property
    def hit_rate(self) -> float:
        """Fraction of prefetch calls answered from a context table."""
        total = sum(self.stats.values())
        if not total:
            return 0.0
        hits = sum(
            count
            for source, count in self.stats.items()
            if source.startswith("depth")
        )
        return hits / total

    def offline_candidates(
        self, trace: Sequence[MemoryAccess], degree: int, distance: int
    ) -> Optional[List[List[int]]]:
        """The candidate table of a fresh prefetcher over ``trace``.

        Row ``t`` is ``prefetch(trace[t], degree + distance)[distance:]``
        after ``update(trace[t])``, computed over whole-trace encoded
        arrays: the vocab encode happens once, each position's context
        keys are slices of one flat ``(pc, page, offset)`` list, and
        stride fallback rows come from the baseline's own vectorised
        ``offline_candidates`` (``-1`` entries are never issued).
        Lookup stats are folded into this instance so bench cells still
        see the hit rate.

        Returns ``None`` when that stride hook declines (the trace has
        more PCs than its table holds); :func:`voyager.sim.simulate`
        then replays this prefetcher through the protocol, which counts
        the same stats.
        """
        n = len(trace)
        want = degree + distance
        if want < 1:
            # mirrors prefetch(degree < 1): no candidates, no stats
            return [[] for _ in range(n)]
        fallback = self.table.config.fallback
        stride_rows: Optional[List[List[int]]] = None
        if fallback == "stride":
            stride_rows = StridePrefetcher().offline_candidates(
                trace, degree, distance
            )
            if stride_rows is None:
                return None

        flat: List[int] = [0] * (3 * n)
        flat[0::3] = self.table.pc_vocab.encode_all(a.pc for a in trace)
        flat[1::3] = self.table.page_vocab.encode_all(a.page for a in trace)
        flat[2::3] = [a.offset for a in trace]

        depths = self.table.config.depths
        probes = [(depth, self.table.tables[depth]) for depth in depths]
        hit_counts = {depth: 0 for depth in depths}
        miss_count = 0
        out = []
        for t in range(n):
            end = 3 * (t + 1)
            row: Optional[List[int]] = None
            for depth, table in probes:
                if t + 1 < depth:
                    continue
                hit = table.get(tuple(flat[end - 3 * depth : end]))
                if hit is not None:
                    hit_counts[depth] += 1
                    row = list(hit[distance:want])
                    break
            if row is None:
                miss_count += 1
                if stride_rows is not None:
                    row = stride_rows[t]
                elif fallback == "next_line":
                    block = trace[t].block
                    row = next_line_candidates(block, want)[distance:want]
                else:
                    row = []
            out.append(row)
        for depth, count in hit_counts.items():
            if count:
                source = f"depth{depth}"
                self.stats[source] = self.stats.get(source, 0) + count
        if miss_count:
            self.stats[fallback] = self.stats.get(fallback, 0) + miss_count
        return out


def distill_checkpoint(
    checkpoint_prefix: Union[str, Path],
    trace: Sequence[MemoryAccess],
    config: Optional[DistillConfig] = None,
) -> Tuple[DistilledTable, float]:
    """Load a checkpoint and compile it over ``trace``.

    Returns ``(table, build_seconds)``, the teacher rollout included —
    the CLI ``distill`` handler.
    """
    from voyager.model import load_checkpoint

    model, pc_vocab, page_vocab = load_checkpoint(checkpoint_prefix)
    config = config or DistillConfig()
    start = time.perf_counter()
    rows = NeuralPrefetcher(model, pc_vocab, page_vocab).offline_candidates(
        trace, config.top_k, 0
    )
    table = build_table(rows, pc_vocab, page_vocab, trace, config)
    return table, time.perf_counter() - start


__all__ = [
    "DistillConfig",
    "DistilledTable",
    "FALLBACKS",
    "TABLE_SCHEMA_VERSION",
    "TablePrefetcher",
    "build_table",
    "context_key",
    "depth_chain",
    "distill_checkpoint",
]
