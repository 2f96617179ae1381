"""Spans recorded from outside the engine, around its public entry points.

``installed`` replaces engine names at the module attribute each caller
resolves (``compute_all`` looks its helpers up in ``chromhom.homology``,
``Cube.part`` looks ``components`` up in ``chromhom.complexes``), so the
traced run follows the engine's real call path.  A name that no longer
exists raises at install time: a pipeline change must update the tracer
rather than silently lose a layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    # index of the enclosing span in the tracer's list, -1 at the root
    parent: int
    computation: int
    # work measured on the call's result (states, nonzeros, rank), or 0
    count: int


class Tracer:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.computation = -1
        self._stack: list[int] = []

    def _open(self) -> int:
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return time.perf_counter_ns()

    def _close(self, name: str, start: int, count: int = 0) -> None:
        end = time.perf_counter_ns()
        idx = self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, self.computation, count)

    @contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, fn, name: str, measure=None):
        def traced(*args, **kwargs):
            start = self._open()
            count = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    count = measure(result)
                return result
            finally:
                self._close(name, start, count)

        return traced


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    computation = -1

    @contextmanager
    def span(self, name: str):
        yield


def _traced_cube(tracer: Tracer, base):
    class TracedCube(base):
        def __init__(self, *args, **kwargs):
            with tracer.span("Cube"):
                super().__init__(*args, **kwargs)

        def masks_by_count(self):
            with tracer.span("masks_by_count"):
                return super().masks_by_count()

    return TracedCube


@contextmanager
def installed(tracer: Tracer):
    """Wrap the engine's layer entry points for the duration of the block."""
    import chromhom.complexes as complexes
    import chromhom.homology as homology

    targets = [
        (complexes, "components", lambda fn: tracer.wrap(fn, "components")),
        (homology, "Cube", lambda cls: _traced_cube(tracer, cls)),
        (homology, "enumerate_basis", lambda fn: tracer.wrap(fn, "enumerate_basis", len)),
        (homology, "differential", lambda fn: tracer.wrap(fn, "differential", lambda m: m.nnz)),
        (homology, "smith_normal_form",
         lambda fn: tracer.wrap(fn, "smith_normal_form", lambda r: r.rank)),
        (homology, "homology_group", lambda fn: tracer.wrap(fn, "homology_group")),
        # the degree-slice boundary has no public name
        (homology, "_degree_slice_groups", lambda fn: tracer.wrap(fn, "slice")),
    ]
    saved = []
    try:
        for module, attr, make in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
