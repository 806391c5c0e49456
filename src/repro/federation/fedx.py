"""FedX-style federated query processing as a thin planner client.

Sapphire fronts one or more SPARQL endpoints with a federated query
processor (the paper uses FedX [22]).
:meth:`FederatedQueryProcessor.run` is its one execution entry, and it
answers a query one of two ways, decided by where the data is:

**Single source.**  If the federation has one member, or source
selection over every pattern of the query tree names the same single
endpoint, the query ships to that member *as written* and the member's
result is returned as is — FILTER, GROUP BY, ORDER BY and LIMIT run
where the data is, the member's budget, row cap and query log apply to
the one query, and nothing is decoded and re-interned at a mediator.
Row order is the member's.  If the member refuses the query
(``EndpointError``), execution falls through to:

**Decomposed.**  The query compiles through the *same* planner as
local execution — :class:`~repro.sparql.plan.QueryPlanner`, of which
:class:`FederatedPlanner` overrides only what is federated — so
duplicate patterns are deduplicated once, filters are pushed once, the
same greedy cost-ranked join ordering runs and every group shape has a
plan; the leaves and the join choice are the remote physical operators
in :mod:`~repro.federation.remote`:

1. **Cost-based source selection** — each triple pattern is probed with
   an ASK query at every member endpoint (cached by pattern signature);
   surviving sources are *ranked* by per-predicate statistics: members
   that expose a local store contribute
   :meth:`~repro.store.TripleStore.predicate_stats` counts, network
   members a pessimistic default.
2. **Exclusive groups** — patterns whose only relevant source is the
   same single endpoint ship to it as one sub-query
   (:class:`~repro.federation.remote.RemoteScanNode` over the whole group).
3. **Batched bind joins** — remaining patterns join through
   :class:`~repro.federation.remote.RemoteBindJoinNode`, which sends one
   ``VALUES``-constrained request per endpoint per batch of
   :data:`~repro.federation.remote.REMOTE_BATCH_SIZE` bindings instead
   of one request per binding.
4. UNION / MINUS / VALUES / OPTIONAL compile to the same ID-space
   operators local execution uses; remote terms are interned into a
   per-query mediator store so everything joins on integers.  A group's
   own OPTIONALs run per base solution (the bindings ship, the optional
   pattern is never fetched whole); those nested in UNION / MINUS
   branches are the algebraic left join.
5. The plan runs and finishes at the mediator through the local
   evaluator's :func:`~repro.sparql.evaluator.run_plan`: solution
   modifiers (DISTINCT/GROUP BY/ORDER/LIMIT/aggregates) are the one
   columnar tail, and a query whose only cut is LIMIT stops pulling —
   and so stops sending member requests — once its page is full.

A member's ``EndpointError`` never vetoes the others' answers, and is
never silent either: every member request is counted
(:class:`~repro.federation.remote.FederationCounters`, the ``federation``
block of ``/stats``) and a failed one stamps ``error`` on its trace span.
:meth:`FederatedQueryProcessor.explain` renders the same operator-tree
EXPLAIN the rest of the system uses (``SingleSource(@member)`` over the
member's own plan for a pushed query).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..endpoint.endpoint import QueryService
from ..rdf.terms import IRI, Term, Variable
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import GraphPattern, Query
from ..sparql.evaluator import explain_header, run_plan
from ..sparql.parser import parse_query
from ..sparql.plan import CorrelatedLeftJoinNode, PlanNode, QueryPlanner, explain_plan
from ..sparql.serializer import ask_query
from ..sparql.trace import Tracer
from ..store.triplestore import CostMeter, TripleStore
from .remote import (
    REMOTE_BATCH_SIZE,
    FederationCounters,
    RemoteBindJoinNode,
    RemoteScanNode,
    member_call,
)

__all__ = ["FederatedQueryProcessor"]

#: Cardinality assumed for a pattern at an endpoint that exposes no
#: statistics (network members): pessimistic enough that a pattern
#: backed by local stats usually wins the driver position.
DEFAULT_REMOTE_CARDINALITY = 1000


def _pattern_signature(pattern: TriplePattern) -> Tuple:
    """Cache key for source selection: variables are wildcards."""

    def part(term: Term):
        return None if isinstance(term, Variable) else term

    return (part(pattern.subject), part(pattern.predicate), part(pattern.object))


def _generalize(pattern: TriplePattern) -> TriplePattern:
    """Replace every variable with a fresh one for probing purposes."""
    counter = iter(range(3))

    def wildcard(term: Term) -> Term:
        if isinstance(term, Variable):
            return Variable(f"probe{next(counter)}")
        return term

    return TriplePattern(
        wildcard(pattern.subject), wildcard(pattern.predicate), wildcard(pattern.object)
    )


class FederatedQueryProcessor(QueryService):
    """Evaluates SPARQL queries across a federation of endpoints.

    Members need only the :class:`~repro.endpoint.endpoint.QueryService`
    face, raising :class:`EndpointError` subclasses — in-process
    :class:`SparqlEndpoint` instances and network-backed
    :class:`~repro.net.client.HttpSparqlEndpoint` instances mix freely.

    A federated join ships its accumulated bindings
    :data:`~repro.federation.remote.REMOTE_BATCH_SIZE` at a time, each
    batch as one VALUES clause.

    Thread-safe source selection: the HTTP server evaluates federated
    queries from many handler threads at once, so the pattern-source
    cache is guarded by a lock (probes run outside it — a duplicated
    probe is cheaper than serializing all endpoints' probes), and
    ``counters`` by one of its own.  Each decomposed execution interns
    remote terms into its own mediator store, so concurrent queries
    never share mutable ID state.
    """

    def __init__(self, endpoints: Sequence[QueryService]) -> None:
        if not endpoints:
            raise ValueError("a federation needs at least one endpoint")
        self.endpoints = list(endpoints)
        self._source_cache: Dict[Tuple, List[QueryService]] = {}
        self._cache_lock = threading.Lock()
        self._stats_cache: Dict[int, Optional[Dict]] = {}
        #: Requests, pushes, fallbacks and swallowed member errors
        #: (``/stats`` serves the snapshot as its ``federation`` block).
        self.counters = FederationCounters()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, query, tracer: Optional[Tracer] = None):
        """Run a parsed or textual query of either form — the one
        execution entry.

        A query whose patterns all live at one member ships to it as
        written and the member's result is returned as is
        (:meth:`single_source`); if the member refuses it
        (``EndpointError``: too expensive in one piece, or down) the
        decomposed plan answers instead, as it does for every
        multi-source query.

        ``tracer`` (optional) records per-operator spans, with one
        remote span per endpoint round — the federated half of the
        distributed trace a downstream endpoint continues via the
        ``X-Repro-Trace-Id`` header.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        self.counters.add("queries")
        endpoint = self.single_source(parsed)
        if endpoint is not None:
            result = member_call(
                endpoint, parsed, tracer, self.counters,
                nest=True, kind="single-source",
            )
            if result is not None:
                self.counters.add("single_source")
                return result
            self.counters.add("fallbacks")
        # Remote terms intern into a fresh mediator store per query; the
        # plan runs and finishes there exactly as a local plan does.
        store = TripleStore()
        plan = FederatedPlanner(self, store).plan(parsed.where)
        return run_plan(parsed, plan, store, CostMeter(), tracer=tracer)

    def _plan_text(self, query) -> str:
        """The federated physical plan for ``query`` — the same
        operator-tree EXPLAIN as local execution, preceded by the
        source-selection verdicts (probing runs, execution does not).
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        lines = [f"Federated {explain_header(parsed)}"]
        if len(self.endpoints) > 1:
            lines.append("sources:")
            for pattern in self._collect_patterns(parsed.where):
                sources = self.relevant_sources(pattern)
                names = ", ".join(endpoint.name for endpoint in sources) or "(none)"
                estimate = self._pattern_estimate(pattern, sources)
                lines.append(
                    "  " + " ".join(term.n3() for term in pattern.as_tuple())
                    + f"  ->  {names}  [est={estimate}]"
                )
        lines.append("plan:")
        endpoint = self.single_source(parsed)
        if endpoint is not None:
            lines.append(f"  SingleSource(@{endpoint.name})")
            lines.extend(
                "    " + line for line in endpoint.explain(parsed).splitlines()
            )
            return "\n".join(lines)
        plan = FederatedPlanner(self, TripleStore()).plan(parsed.where)
        lines.append(explain_plan(plan, indent=1))
        return "\n".join(lines)

    def proves_no_match(self, patterns: Sequence[TriplePattern]) -> bool:
        """One member's proof is the federation's.  Across several, a
        subject's triples may sit at different members, so only a
        pattern that every member proves empty on its own counts."""
        if len(self.endpoints) == 1:
            return self.endpoints[0].proves_no_match(patterns)
        return any(
            all(endpoint.proves_no_match([pattern]) for endpoint in self.endpoints)
            for pattern in patterns
        )

    def invalidate_source_cache(self) -> None:
        with self._cache_lock:
            self._source_cache.clear()
            self._stats_cache.clear()

    # ------------------------------------------------------------------
    # Source selection
    # ------------------------------------------------------------------

    def relevant_sources(self, pattern: TriplePattern) -> List[QueryService]:
        """Endpoints that may hold matches for ``pattern`` (ASK probes)."""
        signature = _pattern_signature(pattern)
        with self._cache_lock:
            cached = self._source_cache.get(signature)
        if cached is not None:
            return cached
        probe = ask_query([_generalize(pattern)])
        relevant: List[QueryService] = []
        for endpoint in self.endpoints:
            held = member_call(endpoint, probe, counters=self.counters)
            # An endpoint that cannot answer the probe (None) stays a
            # candidate: dropping it could lose answers.
            if held is None or held:
                relevant.append(endpoint)
        with self._cache_lock:
            # Two threads may have probed the same signature; the first
            # write wins so every caller sees one stable source list.
            return self._source_cache.setdefault(signature, relevant)

    def single_source(self, query: Query) -> Optional[QueryService]:
        """The member that can answer ``query`` alone, if there is one.

        A federation of one member needs no probing.  Otherwise every
        pattern of the query tree — OPTIONAL, UNION and MINUS sub-groups
        included — is source-selected, and the rule holds when all the
        sources named are one and the same endpoint (a pattern no member
        matches names none: it finds nothing wherever it runs).
        """
        if len(self.endpoints) == 1:
            return self.endpoints[0]
        named: Optional[QueryService] = None
        for pattern in self._collect_patterns(query.where):
            for endpoint in self.relevant_sources(pattern):
                if named is None:
                    named = endpoint
                elif endpoint is not named:
                    return None
        return named

    def _endpoint_stats(self, endpoint: QueryService) -> Optional[Dict]:
        """Cached ``predicate_stats()`` of a member (None for network
        members, whose statistics are invisible)."""
        key = id(endpoint)
        with self._cache_lock:
            if key in self._stats_cache:
                return self._stats_cache[key]
        stats = endpoint.predicate_stats()
        with self._cache_lock:
            return self._stats_cache.setdefault(key, stats)

    def _pattern_estimate(
        self, pattern: TriplePattern, sources: Sequence[QueryService]
    ) -> int:
        """Federated cardinality estimate: sum of per-source estimates."""
        total = 0
        for endpoint in sources:
            stats = self._endpoint_stats(endpoint)
            if stats is None:
                total += DEFAULT_REMOTE_CARDINALITY
                continue
            predicate = pattern.predicate
            if not isinstance(predicate, IRI):
                total += sum(stat.count for stat in stats.values())
                continue
            stat = stats.get(predicate)
            if stat is None:
                continue  # the probe said maybe, the stats say no rows
            estimate = stat.count
            if not isinstance(pattern.subject, Variable):
                estimate = max(1, estimate // max(stat.distinct_subjects, 1))
            if not isinstance(pattern.object, Variable):
                estimate = max(1, estimate // max(stat.distinct_objects, 1))
            total += estimate
        return max(total, 1)

    def _distinct_estimate(
        self, pattern: TriplePattern, name: str, sources: Sequence[QueryService]
    ) -> int:
        """Distinct values of ``name`` within ``pattern`` across sources."""
        total = 0
        for endpoint in sources:
            stats = self._endpoint_stats(endpoint)
            if stats is None or not isinstance(pattern.predicate, IRI):
                return 0  # unknown
            stat = stats.get(pattern.predicate)
            if stat is None:
                continue
            if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
                total += stat.distinct_subjects
            elif isinstance(pattern.object, Variable) and pattern.object.name == name:
                total += stat.distinct_objects
            else:
                return 0
        return total

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def _collect_patterns(self, group: GraphPattern) -> List[TriplePattern]:
        """Every triple pattern a group mentions, sub-groups included,
        deduplicated (what the single-source rule source-selects, and
        the EXPLAIN source-selection table)."""
        found: List[TriplePattern] = list(group.patterns)
        for branches in group.unions:
            for branch in branches:
                found.extend(self._collect_patterns(branch))
        for minus in group.minuses:
            found.extend(self._collect_patterns(minus))
        for optional in group.optionals:
            found.extend(self._collect_patterns(optional))
        return list(dict.fromkeys(found))


def _lone_pattern(node: PlanNode) -> bool:
    """A leaf fetching one pattern: what a batched bind join can ship."""
    return isinstance(node, RemoteScanNode) and len(node.patterns) == 1


class FederatedPlanner(QueryPlanner):
    """The shared planner with what is federated filled in.

    Everything else — translation, normalization, the greedy left-deep
    ordering, filter placement, UNION / MINUS / VALUES / OPTIONAL and
    the compatibility joins — is :class:`~repro.sparql.plan.QueryPlanner`
    as local execution runs it.  ``store`` is the mediator store of one
    query execution: fresh and private, so interning inline and remote
    terms there is safe and gives every term a real ID.
    """

    def __init__(self, federation: FederatedQueryProcessor, store: TripleStore) -> None:
        super().__init__(store)
        self.federation = federation

    def plan(self, group: GraphPattern, budget: Optional[int] = None) -> PlanNode:
        """The group's own OPTIONALs run per base solution — the bound
        copy ships the bindings, where the left join's right side would
        fetch the optional patterns whole."""
        node = super().plan(dataclasses.replace(group, optionals=[]), budget)
        for optional in group.optionals:
            template = super().plan(optional, budget)
            node = CorrelatedLeftJoinNode(
                self, node, template, optional, budget, node.est_rows
            )
        return node

    def _correlates(self, core, joined: PlanNode, budget: Optional[int]) -> bool:
        """Inside a UNION / MINUS branch no base solution exists to
        ship: there an OPTIONAL is the algebraic left join."""
        return False

    def _term_id(self, term: Term) -> int:
        return self.store.dictionary.encode(term)

    def _scans(self, patterns: List[TriplePattern]) -> List[PlanNode]:
        """Source selection and exclusive groups: patterns whose single
        relevant source is the same endpoint ship together as one
        sub-query, every other pattern is a leaf of its own."""
        federation = self.federation
        sources_of = {
            pattern: federation.relevant_sources(pattern) for pattern in patterns
        }
        exclusive: Dict[int, List[TriplePattern]] = {}
        for pattern in patterns:
            if len(sources_of[pattern]) == 1:
                exclusive.setdefault(id(sources_of[pattern][0]), []).append(pattern)
        groups = [grouped for grouped in exclusive.values() if len(grouped) > 1]
        together = {pattern for grouped in groups for pattern in grouped}
        groups += [[pattern] for pattern in patterns if pattern not in together]
        return [
            RemoteScanNode(
                grouped,
                sources_of[grouped[0]],
                min(
                    federation._pattern_estimate(pattern, sources_of[pattern])
                    for pattern in grouped
                ),
                federation.counters,
            )
            for grouped in groups
        ]

    def _join(self, node, best, pending, budget, outer=False, condition=()) -> PlanNode:
        """A connected lone pattern joins through a batched bind join
        (which ships ``UNDEF`` for an unbound key, so it needs no
        compatibility join); everything else joins at the mediator
        through the shared selection — disconnected inputs by one fetch
        each and a cross product."""
        if (
            not outer
            and _lone_pattern(best)
            and any(name in node.slot_of for name in best.variables)
        ):
            return RemoteBindJoinNode(
                node,
                best.patterns[0],
                best.sources,
                self._join_estimate(node, best),
                batch_size=REMOTE_BATCH_SIZE,
                counters=self.federation.counters,
            )
        return super()._join(node, best, pending, budget, outer, condition)

    def _join_estimate(self, left: PlanNode, candidate: PlanNode) -> int:
        shared = [name for name in candidate.variables if name in left.slot_of]
        if not shared or not _lone_pattern(candidate):
            return super()._join_estimate(left, candidate)
        distinct = max(
            self.federation._distinct_estimate(
                candidate.patterns[0], name, candidate.sources
            )
            for name in shared
        )
        if distinct <= 0:
            distinct = max(candidate.est_rows, 1)
        return max(1, left.est_rows * candidate.est_rows // distinct)
