"""Spans around starspan's public functions, recorded from outside.

The benchmark does not change the package.  Instead, while a `Tracer` is
installed, it replaces each traced function in the module namespace the
caller looks it up in (for example `starspan.extract.lambda_star_detailed`,
which `embed_detailed` calls through the `extract` module's globals) with
a wrapper that records a span, and puts the original back on exit.  With
no tracer installed the package runs untouched, which is how the
end-to-end metrics are measured.

A span is (name, start, end, parent, op).  A layer's self time is the
time its spans cover minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import starspan.cli
import starspan.extract

# (module, attribute, span name).  The span name's prefix is the layer.
SPANS: Tuple[Tuple[object, str, str], ...] = (
    (starspan.cli, "main", "cli.main"),
    (starspan.cli, "parse_metric", "metric.parse"),
    (starspan.cli, "verify_star", "metric.verify"),
    (starspan.cli, "embed_detailed", "extract.embed"),
    (starspan.extract, "build_lambda_graph", "lgraph.build"),
    (starspan.extract, "lambda_star_detailed", "parametric.solve"),
    (starspan.extract, "source_path_lengths", "extract.sssp"),
    (starspan.extract, "hub_lengths", "extract.hub"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


@dataclass
class Tracer:
    """Records spans and per-op counts while installed (`with tracer:`)."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[int, Dict[str, int]] = field(default_factory=dict)
    op: int = -1
    _stack: List[int] = field(default_factory=list)
    _saved: List[Tuple[object, str, Callable]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for mod, attr, name in SPANS:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._span_wrapper(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        self._stack.clear()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named name, attributed to the current op."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value: int, combine: Callable[[int, int], int]) -> None:
        c = self.counts.setdefault(self.op, {})
        c[key] = combine(c[key], value) if key in c else value

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if name == "parametric.solve":
                stats = out[1]
                self.count("probe_count", stats.probe_count, int.__add__)
                self.count("iterations", stats.iterations, int.__add__)
                self.count("max_breakpoints", stats.max_breakpoints, max)
            return out

        return wrapped

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: its spans' time minus their
        direct children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                        }
                    )
                    + "\n"
                )
