"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps a program's public functions from outside: each
wrapped call records a span (name, start, end, causing span, thread, the
thread's CPU time and a few measured attributes) in memory.  ``install`` replaces the function
in every loaded module namespace that binds it, because the package
imports its functions by name into other modules.

Each thread keeps its own span stack.  A span opened on a thread whose
stack is empty (a sweep worker) is caused by the innermost open span of
the thread that created the tracer.  A span's self time is its
duration minus the union of its children's intervals, so children that
run in parallel on worker threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# measure(args, kwargs, result) -> attributes recorded on the span
Measure = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = float("nan")
    cpu_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._root_thread = threading.get_ident()

    def _stack(self) -> list[Span]:
        tid = threading.get_ident()
        with self._lock:
            return self._stacks.setdefault(tid, [])

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            with self._lock:
                root = self._stacks.get(self._root_thread)
                parent = root[-1].id if root else None
        with self._lock:
            span = Span(len(self.spans), parent, name, threading.get_ident(),
                        time.perf_counter(), cpu_s=time.thread_time())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_s = time.thread_time() - span.cpu_s
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result
        return traced

    def install(self, targets: dict[str, Measure | None]) -> Callable[[], None]:
        """Wrap each ``"package.module.function"`` in ``targets`` wherever a
        loaded module of that package binds it; the span is named
        ``module.function``.  Returns a function that restores every
        original binding."""
        patched: list[tuple[Any, str, Callable]] = []
        for target, measure in targets.items():
            package, _, name = target.partition(".")
            mod_name, _, func_name = target.rpartition(".")
            original = getattr(sys.modules[mod_name], func_name)
            wrapper = self.wrap(name, original, measure)
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == package or n.startswith(package + "."))]
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))

        def restore() -> None:
            for mod, attr, original in patched:
                setattr(mod, attr, original)
        return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
