"""The federation's remote physical operators.

:class:`RemoteScanNode` and :class:`RemoteBindJoinNode` are
:class:`~repro.sparql.plan.PlanNode` subclasses under the one batch
contract: they fetch a pattern (or exclusive group) from remote
endpoints, or probe them once per *batch* of left rows by shipping the
accumulated bindings as a single ``VALUES`` clause instead of one HTTP
round-trip per binding, and chunk the rows they build into batches.
Remote terms are interned into the mediator's dictionary, so every
operator in :mod:`repro.sparql.plan` composes with them unchanged.

Every request the federation sends to a member goes through
:func:`member_call`: counted in :class:`FederationCounters`, one
``remote:<name>`` span under a tracer, and a member's
:class:`~repro.endpoint.endpoint.EndpointError` turned into ``None`` —
counted and stamped on the span, never silent.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..endpoint.endpoint import EndpointError
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import GraphPattern, Query, ValuesClause
from ..sparql.plan import UNBOUND, Batch, IdRow, PlanNode, _chunked, _pattern_text, _raw_rows
from ..sparql.serializer import ask_query, select_query
from ..store.triplestore import CostMeter, TripleStore

__all__ = [
    "REMOTE_BATCH_SIZE",
    "FederationCounters",
    "member_call",
    "RemoteScanNode",
    "RemoteBindJoinNode",
]

#: Default number of left rows a RemoteBindJoinNode accumulates before
#: shipping them to the endpoints as one VALUES-constrained request.
REMOTE_BATCH_SIZE = 30


class FederationCounters:
    """What one processor asked of its members, under one lock.

    ``queries`` entered :meth:`FederatedQueryProcessor.run`;
    ``single_source`` of them were answered by one member as written;
    ``fallbacks`` were pushed, refused by the member, and answered by
    the decomposed plan instead.  ``subqueries`` counts every request
    sent to a member (pushed queries, scans, bind-join batches and
    source-selection probes alike) and ``member_errors`` the ones that
    raised an ``EndpointError`` — each of those is a piece of some
    answer that may be missing.
    """

    NAMES = ("queries", "single_source", "fallbacks", "subqueries", "member_errors")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self.NAMES, 0)

    def add(self, *names: str) -> None:
        with self._lock:
            for name in names:
                self._counts[name] += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


def member_call(source, query: Query, tracer=None,
                counters: Optional[FederationCounters] = None,
                nest: bool = False, **attrs):
    """Send ``query`` (SELECT or ASK, by its form) to one member.

    Returns the member's result, or ``None`` when it raised an
    :class:`EndpointError` — callers carry on without that member's
    share, as a failing source must not veto the others' answers, but
    the loss is counted (``member_errors``) and, under a tracer, stamped
    as ``error=<class name>`` on the call's ``remote:<name>`` span.
    ``attrs`` (``kind=...``) label that span; ``rows`` or ``held`` is
    added from the result.

    ``nest`` hands the tracer to the member: an in-process member's
    operator tree records under the remote span, a network member's
    server continues the trace through :meth:`Tracer.remote_call`.
    """
    send = source.ask if query.form == "ASK" else source.select
    try:
        if tracer is None:
            result = send(query)
        else:
            with tracer.remote_call(source, **attrs) as span:
                try:
                    result = send(query, tracer if nest else None)
                except EndpointError as exc:
                    if span is not None:
                        span.attrs["error"] = type(exc).__name__
                    raise
                if span is not None:
                    if query.form == "ASK":
                        span.attrs["held"] = bool(result)
                    else:
                        span.attrs["rows"] = len(result.rows)
    except EndpointError:
        if counters is not None:
            counters.add("subqueries", "member_errors")
        return None
    if counters is not None:
        counters.add("subqueries")
    return result


class RemoteScanNode(PlanNode):
    """Fetch one pattern (or an exclusive group of patterns that share
    a single relevant source) from remote endpoints.

    ``sources`` need only the :class:`~repro.endpoint.endpoint.QueryService`
    face, raising ``EndpointError`` subclasses — in-process and HTTP-backed
    endpoints mix freely.  Result terms are interned into the executing
    store's dictionary, so the mediator joins them in ID space like any
    local rows.  Rows are deduplicated across sources (two endpoints
    may hold overlapping data).
    """

    def __init__(self, patterns: Sequence[TriplePattern], sources: Sequence,
                 est_rows: int,
                 counters: Optional[FederationCounters] = None) -> None:
        self.patterns = list(patterns)
        self.sources = list(sources)
        self.counters = counters
        names: List[str] = []
        for pattern in self.patterns:
            for name in pattern.variables():
                if name not in names:
                    names.append(name)
        super().__init__(tuple(names), est_rows)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        return _chunked(self._fetched_rows(store, meter, tracer), batch_size)

    def _fetched_rows(self, store, meter, tracer) -> Iterator[IdRow]:
        charge = meter.charge if meter is not None else None
        if not self.variables:
            # Fully ground patterns: a federated existence check.
            probe = ask_query(self.patterns)
            for source in self.sources:
                if member_call(source, probe, tracer, self.counters, kind="ask"):
                    if charge is not None:
                        charge(1)
                    yield ()
                    return
            return
        query = select_query(self.patterns, distinct=False)
        encode = store.dictionary.encode
        seen: set = set()
        for source in self.sources:
            result = member_call(source, query, tracer, self.counters, kind="select")
            if result is None:
                continue
            for row in result.rows:
                ids = tuple(
                    encode(row[name]) if name in row else UNBOUND
                    for name in self.variables
                )
                if ids in seen:
                    continue
                seen.add(ids)
                if charge is not None:
                    charge(1)
                yield ids

    def label(self) -> str:
        where = " . ".join(_pattern_text(p) for p in self.patterns)
        at = ",".join(getattr(s, "name", "?") for s in self.sources)
        return f"RemoteScan({where} @ {at})"


class RemoteBindJoinNode(PlanNode):
    """Batched bind join against remote endpoints.

    Accumulates up to ``batch_size`` left rows, decodes the variables
    shared with ``pattern``, and ships them to every source as one
    sub-query of the form ``SELECT * WHERE { pattern VALUES (vars)
    { rows } }`` — a single HTTP round-trip per source per batch
    instead of one per binding, which is where federated joins spend
    their time (the FedX "bound join" idea, upgraded from FILTER
    disjunctions to VALUES).  Left rows with an unbound shared slot
    ship ``UNDEF``, preserving compatibility semantics.
    """

    def __init__(self, left: PlanNode, pattern: TriplePattern, sources: Sequence,
                 est_rows: int, batch_size: int = REMOTE_BATCH_SIZE,
                 counters: Optional[FederationCounters] = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.left = left
        self.pattern = pattern
        self.sources = list(sources)
        self.batch_size = batch_size
        self.counters = counters
        self.shared = tuple(
            name for name in pattern.variables() if name in left.slot_of
        )
        self.left_key_slots = tuple(left.slot_of[name] for name in self.shared)
        fresh: List[str] = []
        for name in pattern.variables():
            if name not in left.slot_of and name not in fresh:
                fresh.append(name)
        self.fresh = tuple(fresh)
        super().__init__(left.variables + tuple(fresh), est_rows)
        # Shared slots are always bound after the join (the pattern
        # binds them); the rest of the left row keeps its status.
        self.maybe_unbound = left.maybe_unbound - set(self.shared)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        return _chunked(self._joined_rows(store, meter, batch_size, tracer), batch_size)

    def _joined_rows(self, store, meter, batch_size, tracer) -> Iterator[IdRow]:
        batch: List[IdRow] = []
        for lrow in _raw_rows(self.left, store, meter, batch_size, tracer):
            batch.append(lrow)
            if len(batch) >= self.batch_size:
                yield from self._flush(batch, store, meter, tracer)
                batch = []
        if batch:
            yield from self._flush(batch, store, meter, tracer)

    def _flush(self, batch: List[IdRow], store: TripleStore,
               meter: Optional[CostMeter], tracer) -> Iterator[IdRow]:
        decode = store.decode_id
        encode = store.dictionary.encode
        charge = meter.charge if meter is not None else None

        # Distinct decoded key tuples for the VALUES clause (UNDEF for
        # slots a union branch left unbound).
        term_keys: Dict[Tuple, None] = {}
        for lrow in batch:
            key = tuple(
                None if lrow[slot] == UNBOUND else decode(lrow[slot])
                for slot in self.left_key_slots
            )
            term_keys.setdefault(key)
        sub_query = Query(
            form="SELECT",
            select_star=True,
            where=GraphPattern(
                patterns=[self.pattern],
                values=(
                    [ValuesClause(self.shared, tuple(term_keys))]
                    if self.shared else []
                ),
            ),
        )

        # Fetch once per source, group extensions by their key values
        # (the pattern binds every shared variable: keys are whole).
        exact: Dict[Tuple, List[Tuple]] = {}
        seen: set = set()
        for source in self.sources:
            result = member_call(
                source, sub_query, tracer, self.counters,
                kind="bind-join", bindings=len(term_keys),
            )
            if result is None:
                continue
            for row in result.rows:
                key = tuple(row.get(name) for name in self.shared)
                extension = tuple(row.get(name) for name in self.fresh)
                if (key, extension) not in seen:
                    seen.add((key, extension))
                    exact.setdefault(key, []).append(extension)

        for lrow in batch:
            lkey = tuple(
                None if lrow[slot] == UNBOUND else decode(lrow[slot])
                for slot in self.left_key_slots
            )
            if None not in lkey:
                matches = [(lkey, ext) for ext in exact.get(lkey, ())]
            else:  # shipped as UNDEF: an unbound slot joins any value
                matches = [
                    (key, ext) for key, exts in exact.items()
                    if all(a is None or a == b for a, b in zip(lkey, key))
                    for ext in exts
                ]
            for key, extension in matches:
                if charge is not None:
                    charge(1)
                merged = lrow
                if None in lkey:
                    # The pattern bound a variable this left row left
                    # unbound: the joined solution takes the new value.
                    cells = list(lrow)
                    for position, slot in enumerate(self.left_key_slots):
                        if cells[slot] == UNBOUND and key[position] is not None:
                            cells[slot] = encode(key[position])
                    merged = tuple(cells)
                yield merged + tuple(
                    UNBOUND if term is None else encode(term) for term in extension
                )

    def label(self) -> str:
        at = ",".join(getattr(s, "name", "?") for s in self.sources)
        return (
            f"RemoteBindJoin({_pattern_text(self.pattern)} @ {at}, "
            f"batch={self.batch_size})"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.left,)
