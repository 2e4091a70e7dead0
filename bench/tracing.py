"""In-memory span recorder that wraps aqakit's public layer entry points
from outside the package, and the per-layer table derived from its spans.

Nothing under ``src/`` knows about tracing. ``Patcher.swap`` replaces a
function or method in every loaded ``aqakit`` module that binds it (a name
imported with ``from x import f`` is a separate binding in each importer),
and ``restore`` puts the originals back, so untraced runs execute the
pristine code.

A span is (name, start, end, parent, request id). Calls that happen tens of
thousands of times per second (``cosine``, ``embed``) are *leaves*: they are
counted and timed per (parent span name, leaf name) instead of stored, and
their time is charged to the enclosing span so self times stay exact.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

_clock = time.perf_counter


# -- swapping bindings ----------------------------------------------------------

def _resolve(target: str):
    """'pkg.mod:func' or 'pkg.mod:Class.method' -> (owner object, attr)."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Patcher:
    """Swaps bindings and remembers how to put them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def swap(self, target: str, make_wrapper) -> None:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            owners = [owner]
        else:
            owners = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "aqakit" or name.startswith("aqakit."))
                      and getattr(m, attr, None) is original]
        for o in owners:
            self._saved.append((o, attr, original))
            setattr(o, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- the recorder ----------------------------------------------------------------

@dataclass
class Tracer:
    """Spans in parallel lists (cheap appends), leaves as aggregates."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    leaf_time: list[float] = field(default_factory=list)  # per span
    # (parent span name, leaf name) -> [calls, seconds]
    leaves: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    distinct: dict = field(default_factory=lambda: defaultdict(set))
    request_id: int = 0
    _stack: list[int] = field(default_factory=list)

    def span_wrapper(self, name: str, observe=None):
        def make(fn):
            def traced(*args, **kwargs):
                sid = len(self.starts)
                self.names.append(name)
                self.parents.append(self._stack[-1] if self._stack else -1)
                self.requests.append(self.request_id)
                self.leaf_time.append(0.0)
                self.ends.append(math.nan)
                self._stack.append(sid)
                self.starts.append(_clock())
                error = None
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    self.ends[sid] = _clock()
                    self._stack.pop()
                    if observe is not None:
                        observe(self, sid, args, kwargs,
                                None if error else result, error)
                return result
            traced.__wrapped__ = fn
            return traced
        return make

    def leaf_wrapper(self, name: str):
        def make(fn):
            def counted(*args, **kwargs):
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    parent = self._stack[-1] if self._stack else -1
                    if parent >= 0:
                        self.leaf_time[parent] += dt
                    agg = self.leaves[(self.names[parent] if parent >= 0 else "", name)]
                    agg[0] += 1
                    agg[1] += dt
            counted.__wrapped__ = fn
            return counted
        return make

    def parent_name(self, sid: int) -> str:
        p = self.parents[sid]
        return self.names[p] if p >= 0 else ""

    def write(self, path: str | Path) -> None:
        """All spans as JSON lines, then one line per leaf aggregate."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps({"name": self.names[i], "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "request": self.requests[i]}) + "\n")
            for (parent, leaf), (calls, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": leaf, "parent": parent,
                                     "calls": calls, "seconds": secs}) + "\n")


# -- analysis --------------------------------------------------------------------

def self_times(starts, ends, parents, leaf_time=None) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another on one thread, so the
    covered time is the sum of their durations; leaf time already charged
    to a span is subtracted as well.
    """
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    if leaf_time is not None:
        covered = [c + lt for c, lt in zip(covered, leaf_time)]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_table(tr: Tracer) -> dict[str, SpanStats]:
    """Calls, inclusive and self seconds per span name, leaves included
    (a leaf's self time is its whole time)."""
    selfs = self_times(tr.starts, tr.ends, tr.parents, tr.leaf_time)
    table: dict[str, SpanStats] = defaultdict(SpanStats)
    for i, name in enumerate(tr.names):
        st = table[name]
        st.calls += 1
        st.total_s += tr.ends[i] - tr.starts[i]
        st.self_s += selfs[i]
    for (_, leaf), (calls, secs) in tr.leaves.items():
        st = table[leaf]
        st.calls += calls
        st.total_s += secs
        st.self_s += secs
    return dict(table)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def format_table(table: dict[str, SpanStats], ops: int, op_s: float) -> str:
    """Per-span and per-layer self time per workload operation, and its
    share of the mean traced operation time op_s."""
    ops = max(ops, 1)

    def row(label: str, calls: str, self_s: float) -> str:
        ms = 1e3 * self_s / ops
        share = 100 * self_s / ops / op_s if op_s > 0 else 0.0
        return f"{label:38} {calls:>10} {ms:11.3f} {share:6.1f}%"

    lines = [f"{'span':38} {'calls/op':>10} {'self ms/op':>11} {'share':>7}"]
    for name in sorted(table, key=lambda n: (layer_of(n), -table[n].self_s)):
        st = table[name]
        lines.append(row(name, f"{st.calls / ops:.1f}", st.self_s))
    layers: dict[str, float] = defaultdict(float)
    for name, st in table.items():
        layers[layer_of(name)] += st.self_s
    lines.append("")
    for layer in sorted(layers):
        lines.append(row(f"layer {layer}", "", layers[layer]))
    lines.append(row("outside traced layers", "", op_s * ops - sum(layers.values())))
    return "\n".join(lines)
