"""In-memory span recorder used by traced runs.

A span is (name, start, end, parent, request).  Spans of one thread nest
through a per-thread stack; spans rebuilt from another process's
timestamps are added with an explicit parent.  Nothing is written until
the run ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str


class Tracer:
    """Collects spans; ``perf_counter`` seconds, parents by index."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = defaultdict(list)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: str = "",
    ) -> int:
        """Record a finished span; returns its index."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, request))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[int]:
        """Time the block as a child of this thread's innermost span."""
        stack = self._stacks[threading.get_ident()]
        parent = stack[-1] if stack else None
        if request is None:
            request = self.spans[parent].request if parent is not None else ""
        index = self.add(name, time.perf_counter(), 0.0, parent, request)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps([asdict(span) for span in self.spans]), encoding="utf-8"
        )


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append((span.end - span.start) - covered(clipped))
    return result


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time of every span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Part of ``[start, end]`` that no top-level span covers."""
    roots = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent is None and span.end > start and span.start < end
    ]
    return (end - start) - covered(roots)
