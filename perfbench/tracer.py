"""In-memory span tracing of ompdiff's layers, installed from outside.

`patched` replaces module attributes with wrappers that record one span per
call: name, start, end, parent span, thread, plus attributes taken from the
return value. It patches the name a caller looks up, because
`from .x import f` binds `f` in the caller's module at import time.

Spans opened on a worker thread with no open span of its own take as parent
the innermost open span of the thread that installed the tracer; that is
where `build_matrix` waits while its pool runs `compile_test`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._open: dict[int, list[int]] = {}  # thread ident -> open span ids
        self._home = threading.get_ident()

    def _enter(self) -> tuple[int, Optional[int], int]:
        thread = threading.get_ident()
        with self._lock:
            stack = self._open.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._open.get(self._home)
                parent = home[-1] if home else None
            span_id = next(self._ids)
            stack.append(span_id)
        return span_id, parent, thread

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable[[object], dict]] = None) -> Callable:
        """`fn` recording a span named `name`; `note(result)` gives its attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, thread = self._enter()
            start = self.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                attrs = note(result) if note is not None and result is not None else {}
                with self._lock:
                    self._open[thread].pop()
                    self.spans.append(Span(span_id, name, start, end, parent,
                                           thread, attrs))
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that children cover.

    Children on other threads may overlap one another, so the covered part is
    the length of the union of the children's intervals, clipped to the span.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


@contextlib.contextmanager
def patched(tracer: Tracer, targets: dict[str, dict[str, Optional[Callable]]]):
    """Wrap `module.name` for each `{module: {name: note}}` entry; undo on exit."""
    saved = []
    try:
        for module_name, names in targets.items():
            module = importlib.import_module(module_name)
            for name, note in names.items():
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
