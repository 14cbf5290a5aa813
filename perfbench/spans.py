"""In-memory span recorder and the wrappers that feed it.

The benchmark times the program's layers from the outside: each entry
point in ``layers.LAYERS`` is wrapped so that a call records a span (name,
start, end, parent) in a :class:`Recorder`.  Nothing in ``src/`` knows
about it.  Spans stay in memory until the run ends.

Where the wrapper goes matters, because modules import names directly:
``voyager.bench`` binds ``train``, ``simulate`` and ``build_table``,
``voyager.serve`` binds ``decode_block_candidates`` and
``voyager.adapt`` binds ``read_trace``.  A target is therefore either a
module attribute patched *where it is looked up*, or a class method
(which every caller reaches through the class).  A target that no
longer exists is reported ``absent``; the run goes on without it.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Span names whose nested infer calls are part of their own work: the
#: feature embed and cell step inside a rollout or a segment scan are
#: not phase A/B of a serving tick, so they record no span there and
#: their time stays in the rollout's self time.
ROLLOUTS = ("infer.rollout", "infer.rollout_window", "infer.segment")


class Recorder:
    """Nested named spans plus counters, kept in parallel lists.

    ``tags[i]`` holds the request sequence number(s) span ``i`` served:
    a submit span carries its request's number, a tick span the numbers
    of every response it returned.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: Dict[int, Any] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.hook_state: Dict[str, Any] = {}  # hooks' own bookkeeping
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def innermost(self) -> Optional[str]:
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def write_csv(self, path) -> None:
        """Dump every span as ``index,name,start,end,parent,tag`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,tag\n")
            for i, name in enumerate(self.names):
                tag = self.tags.get(i, "")
                if isinstance(tag, tuple):
                    tag = " ".join(map(str, tag))
                fh.write(
                    f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},"
                    f"{self.parents[i]},{tag}\n"
                )


def self_times(rec: Recorder) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    Spans are strictly nested (one thread), so the time a span's
    children cover is the sum of their durations.
    """
    child = [0.0] * len(rec.names)
    for i, parent in enumerate(rec.parents):
        if parent >= 0:
            child[parent] += rec.ends[i] - rec.starts[i]
    out: Dict[str, float] = defaultdict(float)
    for i, name in enumerate(rec.names):
        out[name] += rec.ends[i] - rec.starts[i] - child[i]
    return dict(out)


def breakdown(rec: Recorder, wall_s: float) -> Tuple[Dict[str, float], float]:
    """Self time per layer and the wall time no span covered.

    By construction ``sum(self) + unattributed == wall_s``.
    """
    roots = sum(
        rec.ends[i] - rec.starts[i]
        for i, parent in enumerate(rec.parents)
        if parent < 0
    )
    return self_times(rec), wall_s - roots


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
#: A hook sees ``(recorder, args, kwargs, result)`` after the call and
#: adds counts or tags; it runs even when no span is recorded.
Hook = Callable[[Recorder, tuple, dict, Any], None]


@dataclass(frozen=True)
class Layer:
    """One span name and the entry points that record it.

    ``span=False`` makes a counter-only wrapper (no span, hook only).
    ``tag`` sets the span's request tag from the call's result.
    """

    name: str
    targets: Tuple[str, ...]
    span: bool = True
    hook: Optional[Hook] = None
    tag: Optional[Callable[[Any], Any]] = None


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.module:Attr.method"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} not found")
    return owner, attr


def _wrap(fn: Callable, layer: Layer, rec: Recorder) -> Callable:
    name, hook, tag = layer.name, layer.hook, layer.tag
    nested_in_rollout = name.startswith("infer.") and name not in ROLLOUTS

    def wrapper(*args, **kwargs):
        if not layer.span or (
            nested_in_rollout and rec.innermost() in ROLLOUTS
        ):
            result = fn(*args, **kwargs)
        else:
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if tag is not None:
                rec.tags[index] = tag(result)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Installs the wrappers of a layer table and removes them again."""

    def __init__(self, layers: Sequence[Layer], rec: Recorder):
        self.layers = layers
        self.rec = rec
        self.absent: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for layer in self.layers:
            found = False
            for target in layer.targets:
                try:
                    owner, attr = _resolve(target)
                except (ImportError, AttributeError):
                    continue
                found = True
                original = owner.__dict__.get(attr, getattr(owner, attr))
                self._undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(getattr(owner, attr), layer, self.rec))
            if not found:
                self.absent.append(layer.name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0.0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]
