"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only by the benchmark, around calls into the
program's public functions, plus spans rebuilt afterwards from
timestamps the program itself reports (``Job.started_at`` and
friends).  Everything stays in memory until the run ends, when
:meth:`Tracer.dump` writes one JSON object per span.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed interval: ``parent`` is the index of the causing span,
    and every span of one op shares ``op``."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Single-threaded span stack; ``op`` tags the spans of the op in flight."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = Span(
            name,
            time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            op=self.op,
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, **attrs) -> int:
        """Record a span from timestamps the program reported itself."""
        self.spans.append(Span(name, start, end, parent, self.op, attrs))
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_time(self, index: int) -> float:
        """Duration minus the part of it that child spans cover."""
        span = self.spans[index]
        children = [
            (s.start, s.end) for s in self.spans if s.parent == index
        ]
        return span.duration - covered(children, span.start, span.end)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")
