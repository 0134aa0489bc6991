"""In-memory spans around the public calls of the mcs layers.

The tracer swaps module attributes that callers look up at call time (for
example ``mcs.cipher.generate_prbs``, which ``mcs.cipher.encrypt`` resolves
on every call) for timing wrappers, and puts the originals back on
``restore``. No program source is edited. A target that a refactor removed
is listed in ``missing``, so the metrics built on it are reported as missing
rather than as zero. A span's layer is the part of its name before the dot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    index: int       # position in Tracer.spans
    name: str
    op: int          # index of the workload operation the span belongs to
    start: float     # perf_counter seconds
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    size: int        # blocks or bytes the call handled, as the target defines

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A module attribute to wrap, the span name it records and its size."""

    module: object
    attr: str
    span: str
    size_of: object  # callable(args) -> int

    @property
    def qualname(self) -> str:
        return f"{self.module.__name__}.{self.attr}"


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = [t for t in targets if hasattr(t.module, t.attr)]
        self.missing = [t for t in targets if not hasattr(t.module, t.attr)]
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def install(self, op: int) -> None:
        """Wrap every target; spans recorded until ``restore`` belong to ``op``."""
        self._op = op
        for t in self.targets:
            original = getattr(t.module, t.attr)
            self._saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self.wrap(original, t.span, t.size_of))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, fn, span: str, size_of):
        """A callable that runs ``fn`` inside a span named ``span``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(index, span, self._op, time.perf_counter(), 0.0,
                              stack[-1] if stack else -1, size_of(args)))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out
