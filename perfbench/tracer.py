"""Layer tracing from outside the program.

hqcnn's layers call one another through module-level names
(``optimize.cost``, ``network._ry_rows``, ``oracle.to_dense``, ...). The
tracer replaces such a name in the calling module's namespace with a
wrapper that counts calls, accumulates wall time and self time (duration
minus the time covered by traced children) and, for layers above the gate
kernels, records one span (id, parent id, name, start, end) per call.
Kernel calls are too many to keep one span each, so they are aggregated
only. Spans stay in memory until ``write_spans`` is called at the end of
the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path


class Layer:
    """Aggregate of every traced call made under one layer name."""

    __slots__ = ("calls", "total_s", "self_s", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.size = 0


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.active = False
        self._stack: list[list] = []  # [child_s, span_id] per open call
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def wrap(self, module, attr: str, name: str, *, size=None, span=True, also=None):
        """Replace ``module.attr`` by a traced wrapper accounted to ``name``.

        ``size(args)`` adds to the layer's size counter (rows, bytes);
        ``also`` names a second layer that receives the same time, for a
        call site that belongs to two layers.
        """
        fn = getattr(module, attr)
        setattr(module, attr, self._traced(fn, name, size, span, also))
        self._patches.append((module, attr, fn))

    def call(self, name: str, fn):
        """Call ``fn()`` as a span of its own, such as one work unit."""
        return self._traced(fn, name, None, True, None)()

    def _traced(self, fn, name, size, span, also):
        stats = self.layer(name)
        extra = self.layer(also) if also else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = 0
            if span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if size is not None:
                    stats.size += size(args)
                if extra is not None:
                    extra.calls += 1
                    extra.total_s += duration
                if parent is not None:
                    parent[0] += duration
                if span:
                    parent_id = parent[1] if parent is not None else 0
                    self.spans.append((span_id, parent_id, name, start, end))

        return traced

    @contextmanager
    def paused(self):
        """Run checks and warm-up calls without recording them."""
        was_active = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was_active

    def uninstall(self) -> None:
        self.active = False
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("span_id,parent_id,name,start_s,end_s\n")
            for span_id, parent_id, name, start, end in self.spans:
                out.write(
                    f"{span_id},{parent_id},{name},"
                    f"{start - self._origin:.9f},{end - self._origin:.9f}\n"
                )
