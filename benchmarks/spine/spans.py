"""A small in-memory span recorder for the traced run.

A span is ``(id, name, start, end, parent, request)``.  The traced run
measures layers by *onion peeling*: the same request is handed to
successively outer public entry points, one call each, so a child span
was not timed inside its parent's interval — what links them is the
``parent`` id, and a layer's self time is its span's duration minus the
durations of its children.  Spans stay in memory and are written as
JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def add(self, name: str, request: int, parent: Optional[int],
            start: float, end: float) -> int:
        """Record a span whose interval was measured elsewhere (a timing
        the program itself reports, e.g. ``CompletionResult.tree_seconds``)."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                           "parent": parent, "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, request: int, parent: Optional[int] = None) -> Iterator[int]:
        span_id = self.add(name, request, parent, 0.0, 0.0)
        span = self.spans[span_id]
        span["start"] = time.perf_counter()
        try:
            yield span_id
        finally:
            span["end"] = time.perf_counter()

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return float(span["end"]) - float(span["start"])  # type: ignore[arg-type]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    """Span id -> duration minus its children's durations (may be
    negative when peeled children ran slower alone than inside the parent)."""
    own = {int(span["id"]): float(span["end"]) - float(span["start"])  # type: ignore[arg-type]
           for span in spans}
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[int(span["parent"])] += own[int(span["id"])]  # type: ignore[arg-type]
    return {span_id: duration - children[span_id] for span_id, duration in own.items()}
