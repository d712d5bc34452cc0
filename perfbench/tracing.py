"""In-memory spans around calls into recbid's public functions.

Tracing wraps module attributes from outside the package: a wrapped
function is replaced on the module that *calls* it (``recbid.harness``
looks up ``build_instance`` in its own namespace, so that is where the
wrapper goes). Nothing inside ``src/`` is edited. Spans stay in memory
until the run ends; counts are gathered by result hooks at the same
boundaries.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder. ``wrap`` patches, ``restore`` undoes every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        self._n_ops = 0
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, hook=None, op_root: bool = False):
        """Replace ``module.attr`` with a timed wrapper.

        ``hook(tracer, args, kwargs, result, span_id)`` runs after the span
        closes; ``op_root`` marks the call that is one benchmark operation.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            if op_root:
                self._op = self._n_ops
                self._n_ops += 1
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, self._op))
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = self.spans[sid]
                span.start, span.end = start, end
                if op_root:
                    self._op = None
            if hook is not None:
                hook(self, args, kwargs, result, sid)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    @contextmanager
    def paused(self):
        """Calls made inside this block (the correctness gates) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def add_child_span(self, name: str, start: float, end: float, parent: int) -> int:
        """Attach a span recorded in a solver child process.

        ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which is
        system-wide, so child timestamps share the parent's time axis.
        """
        sid = len(self.spans)
        self.spans.append(Span(name, start, end, parent, self.spans[parent].op))
        return sid

    @property
    def n_ops(self) -> int:
        return self._n_ops

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-name totals, per-layer self time, and the self time summed over
    the spans inside operations."""
    spans = tracer.spans
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    op_self = 0.0
    for s, st in zip(spans, selfs):
        totals[s.name] += s.end - s.start
        layer_self[s.layer] += st
        if s.op is not None:
            op_self += st
    return {
        "totals": dict(totals),
        "self_by_span": selfs,
        "layer_self": dict(layer_self),
        "op_self_sum": op_self,
    }
