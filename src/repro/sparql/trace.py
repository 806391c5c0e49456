"""Operator-level query tracing: spans, traces, and the recorder.

The observability layer *inside* a query, complementing the per-route
latency histograms in :mod:`repro.net.metrics`.  A :class:`QueryTrace`
is a tree of :class:`Span` objects — one per executed plan operator
(plus phase spans for planning, remote calls, and QSM probe batches) —
each carrying monotonic-clock wall time and a small attribute dict:
estimated vs. actual cardinality, batches/rows produced, cache events.

Design constraints, in order:

* **Zero overhead when off.**  Every instrumentation seam follows the
  cost-meter idiom (``charge = meter.charge if meter is not None``):
  a ``tracer=None`` default threads through
  :meth:`~repro.sparql.plan.PlanNode.batches`, and the hot batch loop
  gains nothing but the default argument when tracing is off.  The
  overhead gate lives in ``benchmarks/bench_join_planner.py``.
* **Exact wire round-trip.**  Like
  :class:`~repro.net.metrics.LatencyHistogram`, ``to_dict`` /
  ``from_dict`` are exact inverses (times are rounded to microsecond
  resolution when a trace is finished, so JSON transport loses
  nothing).  Traces travel in the slow-query log and replay reports.
* **Bounded.**  Span depth and per-parent fan-out are capped
  (:data:`MAX_DEPTH` / :data:`MAX_CHILDREN`); beyond the caps the
  tracer counts drops instead of allocating, so a pathological plan
  cannot turn the trace into the memory hog it is meant to diagnose.

Distributed propagation: an upstream tracer ships its trace id and the
calling span's id as :data:`TRACE_ID_HEADER` / :data:`PARENT_SPAN_HEADER`
HTTP headers (:mod:`repro.net.client` sends, :mod:`repro.net.wsgi`
receives), so a federated query's remote rounds record spans under ONE
trace id across every endpoint.  :meth:`QueryTrace.stitch` grafts the
collected remote traces back under their calling spans.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
    "MAX_DEPTH",
    "MAX_CHILDREN",
    "new_trace_id",
    "Span",
    "QueryTrace",
    "Tracer",
]

#: HTTP header carrying the trace id across process boundaries.
TRACE_ID_HEADER = "X-Repro-Trace-Id"
#: HTTP header carrying the calling span's id (the remote root's parent).
PARENT_SPAN_HEADER = "X-Repro-Parent-Span"

#: Spans deeper than this are not recorded (drops are counted instead).
MAX_DEPTH = 16
#: A parent holds at most this many child spans.
MAX_CHILDREN = 64

#: Query text stored on a trace is truncated to this many characters.
_QUERY_SNIPPET = 500


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return f"{random.getrandbits(64):016x}"


class Span:
    """One timed node in a trace tree.

    ``start_ms`` is the offset from the trace origin and ``wall_ms`` the
    *inclusive* time spent producing this span's output (children's time
    included — the tree rendering makes self-time apparent).  ``attrs``
    holds only JSON-native scalars: for plan operators that is
    ``est`` (the planner's cardinality estimate), ``rows`` and
    ``batches`` (the actuals), and operator-specific keys such as
    ``endpoint`` on remote-call spans or ``hit`` on cache events.
    """

    __slots__ = ("span_id", "name", "start_ms", "wall_ms", "attrs", "children")

    def __init__(
        self,
        span_id: str,
        name: str,
        start_ms: float = 0.0,
        wall_ms: float = 0.0,
        attrs: Optional[Dict[str, object]] = None,
        children: Optional[List["Span"]] = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.start_ms = start_ms
        self.wall_ms = wall_ms
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self.children: List[Span] = children if children is not None else []

    def to_dict(self) -> Dict[str, object]:
        """Compact wire form; empty attrs/children do not travel."""
        document: Dict[str, object] = {
            "id": self.span_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "wall_ms": self.wall_ms,
        }
        if self.attrs:
            document["attrs"] = dict(self.attrs)
        if self.children:
            document["children"] = [child.to_dict() for child in self.children]
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "Span":
        return cls(
            span_id=str(document["id"]),
            name=str(document["name"]),
            start_ms=float(document["start_ms"]),  # type: ignore[arg-type]
            wall_ms=float(document["wall_ms"]),  # type: ignore[arg-type]
            attrs=dict(document.get("attrs", {})),  # type: ignore[arg-type]
            children=[
                cls.from_dict(child)
                for child in document.get("children", [])  # type: ignore[union-attr]
            ],
        )

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))


class QueryTrace:
    """One query execution's span tree plus identifying metadata.

    ``attrs`` carries trace-level facts: ``parent_span`` when this trace
    was started by a remote caller (the stitching key), cache-event
    summaries, dropped-span counts.
    """

    __slots__ = ("trace_id", "query", "wall_ms", "attrs", "spans")

    def __init__(
        self,
        trace_id: str,
        query: str = "",
        wall_ms: float = 0.0,
        attrs: Optional[Dict[str, object]] = None,
        spans: Optional[List[Span]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.query = query
        self.wall_ms = wall_ms
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self.spans: List[Span] = spans if spans is not None else []

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "trace_id": self.trace_id,
            "wall_ms": self.wall_ms,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.query:
            document["query"] = self.query
        if self.attrs:
            document["attrs"] = dict(self.attrs)
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "QueryTrace":
        return cls(
            trace_id=str(document["trace_id"]),
            query=str(document.get("query", "")),
            wall_ms=float(document.get("wall_ms", 0.0)),  # type: ignore[arg-type]
            attrs=dict(document.get("attrs", {})),  # type: ignore[arg-type]
            spans=[
                Span.from_dict(span)
                for span in document.get("spans", [])  # type: ignore[union-attr]
            ],
        )

    def walk(self) -> Iterator[Span]:
        for span in self.spans:
            yield from span.walk()

    def stitch(self, remote_traces: Iterator[object]) -> int:
        """Graft remote sub-traces under their calling spans.

        Each remote trace (a :class:`QueryTrace` or its dict form,
        e.g. pulled from an endpoint's ``GET /stats/slow``) is attached
        when it shares this trace's id and names one of this trace's
        span ids as its ``parent_span`` — the id the client shipped in
        :data:`PARENT_SPAN_HEADER`.  Returns the number of traces
        grafted; non-matching traces are ignored, so feeding a whole
        slow-query log is safe.
        """
        by_id: Dict[str, Span] = {span.span_id: span for span in self.walk()}
        grafted = 0
        for remote in remote_traces:
            if isinstance(remote, dict):
                remote = QueryTrace.from_dict(remote)
            if not isinstance(remote, QueryTrace):
                continue
            if remote.trace_id != self.trace_id:
                continue
            parent = by_id.get(str(remote.attrs.get("parent_span", "")))
            if parent is None:
                continue
            parent.children.extend(remote.spans)
            grafted += 1
        return grafted


class Tracer:
    """Records one :class:`QueryTrace`; **not** thread-safe (one per
    query execution, like a :class:`~repro.store.triplestore.CostMeter`).

    The recorder keeps an explicit span stack.  Plan execution is
    pull-based, so operator spans cannot nest by ``with``-block
    scoping: :meth:`wrap_batches` instead pushes the operator's span
    around every ``next()`` on its underlying iterator, which both
    accumulates inclusive wall time per pull and makes the stack top
    the correct parent for anything the pull triggers (a child
    operator's first batch, a remote HTTP round, a store probe).
    """

    __slots__ = (
        "trace",
        "max_depth",
        "max_children",
        "_clock",
        "_origin",
        "_stack",
        "_seq",
        "_id_base",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        *,
        parent_span_id: Optional[str] = None,
        query: str = "",
        clock=time.perf_counter,
        max_depth: int = MAX_DEPTH,
        max_children: int = MAX_CHILDREN,
    ) -> None:
        self.trace = QueryTrace(
            trace_id=trace_id or new_trace_id(),
            query=query[:_QUERY_SNIPPET],
        )
        if parent_span_id:
            self.trace.attrs["parent_span"] = parent_span_id
        self.max_depth = max_depth
        self.max_children = max_children
        self._clock = clock
        self._origin = clock()
        self._stack: List[Span] = []
        self._seq = 0
        # Span ids must stay unique across the processes a stitched
        # trace spans; a per-tracer random base plus a local counter is
        # collision-proof enough without coordinating.
        self._id_base = f"{random.getrandbits(32):08x}"

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def _open(
        self, name, attrs: Optional[Dict[str, object]] = None
    ) -> Optional[Span]:
        """Allocate a span under the stack top, or ``None`` if bounded.

        ``name`` may be a zero-argument callable producing the name;
        :meth:`finish` resolves those lazily (hot-path spans avoid
        formatting labels while the query runs).
        """
        if len(self._stack) >= self.max_depth:
            self.trace.attrs["dropped_spans"] = (
                int(self.trace.attrs.get("dropped_spans", 0)) + 1
            )
            return None
        siblings = self._stack[-1].children if self._stack else self.trace.spans
        if len(siblings) >= self.max_children:
            self.trace.attrs["dropped_spans"] = (
                int(self.trace.attrs.get("dropped_spans", 0)) + 1
            )
            return None
        self._seq += 1
        span = Span(
            f"{self._id_base}-{self._seq}",
            name,
            start_ms=(self._clock() - self._origin) * 1000.0,
            attrs=attrs,
        )
        siblings.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """A timed section: ``with tracer.span("plan") as sp: ...``.

        Yields the :class:`Span` (or ``None`` when depth/fan-out bounds
        dropped it — callers must tolerate ``None``).  Must not enclose
        a ``yield`` of an outer generator; use :meth:`wrap_batches` for
        streaming work.
        """
        span = self._open(name, attrs or None)
        if span is None:
            yield None
            return
        self._stack.append(span)
        started = self._clock()
        try:
            yield span
        finally:
            span.wall_ms += (self._clock() - started) * 1000.0
            self._stack.pop()

    def event(self, name: str, **attrs) -> Optional[Span]:
        """A zero-duration marker span (cache hit/miss, admission)."""
        return self._open(name, attrs or None)

    # ------------------------------------------------------------------
    # Plan-operator instrumentation
    # ------------------------------------------------------------------

    def wrap_batches(self, node, batches: Iterator) -> Iterator:
        """Wrap an operator's batch stream in its span.

        Called from :meth:`~repro.sparql.plan.PlanNode.batches` only
        when a tracer is threaded through — the ``tracer is None`` path
        never reaches here.  Records the planner's estimate up front
        and the actual rows/batches when the stream ends (including
        early LIMIT-style closes).

        The span's name is stored as the *unevaluated* ``node.label``
        — rendering an operator label means formatting triple-pattern
        text, which is a measurable slice of the per-operator tracing
        cost.  :meth:`finish` resolves it, off the execution path.
        """
        span = self._open(node.label, {"est": node.est_rows})
        if span is None:
            return batches
        return self._traced_batches(span, batches)

    def _traced_batches(self, span: Span, batches: Iterator) -> Iterator:
        stack = self._stack
        clock = self._clock
        rows = 0
        count = 0
        try:
            while True:
                stack.append(span)
                started = clock()
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    span.wall_ms += (clock() - started) * 1000.0
                    stack.pop()
                rows += batch.length
                count += 1
                yield batch
        except GeneratorExit:
            # The consumer stopped early (LIMIT, pagination): close the
            # inner stream now so operator teardown stays deterministic.
            batches.close()
            raise
        finally:
            span.attrs["rows"] = rows
            span.attrs["batches"] = count

    @contextmanager
    def remote_call(self, source, **attrs):
        """A span around one remote endpoint round-trip.

        Hands ``source`` (a :class:`~repro.endpoint.endpoint.QueryService`)
        the trace context, trace id and this span's id:
        :class:`~repro.net.client.HttpSparqlEndpoint` ships both as
        headers, which is how a federated query's spans stitch into one
        trace across processes.  The context is cleared on exit so
        unrelated queries on the same client stay untraced.
        """
        span = self._open(f"remote:{source.name}", {"endpoint": source.name, **attrs})
        if span is None:
            yield None
            return
        source.set_trace_context(self.trace.trace_id, span.span_id)
        self._stack.append(span)
        started = self._clock()
        try:
            yield span
        finally:
            span.wall_ms += (self._clock() - started) * 1000.0
            self._stack.pop()
            source.set_trace_context(None, None)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def finish(self) -> QueryTrace:
        """Stamp total wall time, snap span times to microsecond
        resolution (what makes the dict/JSON round-trip exact), and
        return the trace."""
        trace = self.trace
        trace.wall_ms = round((self._clock() - self._origin) * 1000.0, 3)
        for span in trace.walk():
            if not isinstance(span.name, str):
                span.name = str(span.name())
            span.start_ms = round(span.start_ms, 3)
            span.wall_ms = round(span.wall_ms, 3)
        return trace
