"""In-memory span tracer that wraps aqsense callables at their lookup sites.

The benchmark installs wrappers around public functions, methods and one
property of the package before a traced pass and removes them afterwards;
no file of the package changes. Each wrapped call records a span (id,
parent id, name, start, end). Busy time counts the outermost span of a
name only, and self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans, per-name busy/self time, call durations and free counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """Return fn wrapped so that each call records a span called name.

        on_result(tracer, result, elapsed) runs after the call, outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer.spans.append((span_id, parent, name, 0.0, 0.0))
            tracer._stack.append(frame)
            tracer._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                elapsed = end - start
                tracer.spans[span_id] = (span_id, parent, name, start, end)
                tracer.durations[name].append(elapsed)
                tracer.self_time[name] += elapsed - frame[1]
                if not tracer._active[name]:
                    tracer.busy[name] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            if on_result is not None:
                on_result(tracer, result, elapsed)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap module.attr in every aqsense module that imported it by name."""
        original = getattr(module, attr)
        wrapped = self.span(name, original, on_result)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("aqsense") and mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Wrap a method, or the getter of a property, on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(self.span(name, original.fget, on_result))
        else:
            wrapped = self.span(name, original, on_result)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def percentile_us(self, name: str, q: float) -> float:
        """Nearest-rank percentile of the call durations of name, in us."""
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        rank = min(len(values) - 1, max(0, int(-(-q * len(values) // 100)) - 1))
        return values[rank] * 1e6

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
