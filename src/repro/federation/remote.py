"""The federation's remote physical operators.

:class:`RemoteScanNode` and :class:`RemoteBindJoinNode` are row-wise
:class:`~repro.sparql.plan.PlanNode` subclasses: they fetch a pattern
(or exclusive group) from remote endpoints, or probe them once per
*batch* of left rows by shipping the accumulated bindings as a single
``VALUES`` clause instead of one HTTP round-trip per binding.  Remote
terms are interned into the mediator's dictionary, so every operator
in :mod:`repro.sparql.plan` composes with them unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..endpoint.endpoint import EndpointError
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import GraphPattern, Query, ValuesClause
from ..sparql.plan import IdRow, PlanNode, _pattern_text
from ..sparql.serializer import ask_query, select_query
from ..store.triplestore import CostMeter, TripleStore

__all__ = ["REMOTE_BATCH_SIZE", "RemoteScanNode", "RemoteBindJoinNode"]

#: Default number of left rows a RemoteBindJoinNode accumulates before
#: shipping them to the endpoints as one VALUES-constrained request.
REMOTE_BATCH_SIZE = 30


class RemoteScanNode(PlanNode):
    """Fetch one pattern (or an exclusive group of patterns that share
    a single relevant source) from remote endpoints.

    ``sources`` need only the endpoint query surface (``select``/``ask``
    raising ``EndpointError`` subclasses) — in-process and HTTP-backed
    endpoints mix freely.  Result terms are interned into the executing
    store's dictionary, so the mediator joins them in ID space like any
    local rows.  Rows are deduplicated across sources (two endpoints
    may hold overlapping data).
    """

    def __init__(self, patterns: Sequence[TriplePattern], sources: Sequence,
                 est_rows: int) -> None:
        self.patterns = list(patterns)
        self.sources = list(sources)
        names: List[str] = []
        for pattern in self.patterns:
            for name in pattern.variables():
                if name not in names:
                    names.append(name)
        super().__init__(tuple(names), est_rows)

    def _produce(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer,
    ) -> Iterator[IdRow]:
        charge = meter.charge if meter is not None else None
        if not self.variables:
            # Fully ground patterns: a federated existence check.
            probe = ask_query(self.patterns)
            for source in self.sources:
                try:
                    if tracer is None:
                        held = source.ask(probe)
                    else:
                        with tracer.remote_call(source, kind="ask") as span:
                            held = source.ask(probe)
                            if span is not None:
                                span.attrs["held"] = bool(held)
                    if held:
                        if charge is not None:
                            charge(1)
                        yield ()
                        return
                except EndpointError:
                    continue
            return
        query = select_query(self.patterns, distinct=False)
        encode = store.dictionary.encode
        seen: set = set()
        for source in self.sources:
            try:
                if tracer is None:
                    result = source.select(query)
                else:
                    with tracer.remote_call(source, kind="select") as span:
                        result = source.select(query)
                        if span is not None:
                            span.attrs["rows"] = len(result.rows)
            except EndpointError:
                # A failing source cannot veto the others' answers.
                continue
            for row in result.rows:
                ids = tuple(
                    encode(row[name]) if name in row else None
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
                 est_rows: int, batch_size: int = REMOTE_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.left = left
        self.pattern = pattern
        self.sources = list(sources)
        self.batch_size = batch_size
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

    def _produce(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer,
    ) -> Iterator[IdRow]:
        batch: List[IdRow] = []
        for lrow in self.left.rows(store, meter, tracer=tracer):
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
                None if lrow[slot] is None else decode(lrow[slot])
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

        # Fetch once per source, group extensions by their key values.
        exact: Dict[Tuple, List[Tuple]] = {}
        scan_rows: List[Tuple[Tuple, Tuple]] = []  # (key, extension)
        seen: set = set()
        for source in self.sources:
            try:
                if tracer is None:
                    result = source.select(sub_query)
                else:
                    with tracer.remote_call(
                        source, kind="bind-join", bindings=len(term_keys)
                    ) as span:
                        result = source.select(sub_query)
                        if span is not None:
                            span.attrs["rows"] = len(result.rows)
            except EndpointError:
                continue
            for row in result.rows:
                key = tuple(row.get(name) for name in self.shared)
                extension = tuple(row.get(name) for name in self.fresh)
                if (key, extension) in seen:
                    continue
                seen.add((key, extension))
                if None in key:
                    scan_rows.append((key, extension))
                else:
                    exact.setdefault(key, []).append(extension)

        for lrow in batch:
            lkey = tuple(
                None if lrow[slot] is None else decode(lrow[slot])
                for slot in self.left_key_slots
            )
            if None not in lkey:
                matches = [(lkey, ext) for ext in exact.get(lkey, ())]
                matches.extend(
                    pair for pair in scan_rows if _terms_compatible(lkey, pair[0])
                )
            else:
                matches = [
                    (key, ext) for key, exts in exact.items()
                    if _terms_compatible(lkey, key) for ext in exts
                ]
                matches.extend(
                    pair for pair in scan_rows if _terms_compatible(lkey, pair[0])
                )
            for key, extension in matches:
                if charge is not None:
                    charge(1)
                merged = lrow
                if None in lkey:
                    # The pattern bound a variable this left row left
                    # unbound: the joined solution takes the new value.
                    cells = list(lrow)
                    for position, slot in enumerate(self.left_key_slots):
                        if cells[slot] is None and key[position] is not None:
                            cells[slot] = encode(key[position])
                    merged = tuple(cells)
                yield merged + tuple(
                    None if term is None else encode(term) for term in extension
                )

    def label(self) -> str:
        at = ",".join(getattr(s, "name", "?") for s in self.sources)
        return (
            f"RemoteBindJoin({_pattern_text(self.pattern)} @ {at}, "
            f"batch={self.batch_size})"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.left,)


def _terms_compatible(left_key: Tuple, right_key: Tuple) -> bool:
    """Join compatibility over decoded terms (None = unbound)."""
    for a, b in zip(left_key, right_key):
        if a is None or b is None:
            continue
        if a != b:
            return False
    return True
