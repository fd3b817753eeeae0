"""In-memory spans recorded by the benchmark around calls into the library.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started, and the workload and iteration it
belongs to. Counts ride on the span where the work was measured. Nothing is
written until ``dump`` at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    iteration: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = 0
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the Span so the body can attach counts."""
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                  self.workload, self.iteration)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n",
                        encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another, so the covered part is the length of
    the union of their intervals, clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
