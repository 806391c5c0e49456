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

**Decomposed.**  The query is translated and normalized through the
*same* :mod:`~repro.sparql.algebra` stage as local execution (so
duplicate patterns are deduplicated once, filters are pushed once), the
same greedy cost-ranked join ordering runs, and the plan compiles to the
remote physical operators in :mod:`~repro.federation.remote`:

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
   ``bind_join_batch_size`` bindings instead of one request per
   binding.
4. UNION / MINUS / VALUES compile to the same ID-space operators local
   execution uses; remote terms are interned into a per-query mediator
   store so everything joins on integers.
5. Solution modifiers (DISTINCT/GROUP BY/ORDER/LIMIT/aggregates) run at
   the mediator by reusing the local evaluator's pipeline.

A member's ``EndpointError`` never vetoes the others' answers, and is
never silent either: every member request is counted
(:class:`~repro.federation.remote.FederationCounters`, the ``federation``
block of ``/stats``) and a failed one stamps ``error`` on its trace span.
:meth:`FederatedQueryProcessor.explain` renders the same operator-tree
EXPLAIN the rest of the system uses (``SingleSource(@member)`` over the
member's own plan for a pushed query).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..endpoint.endpoint import SparqlEndpoint
from ..rdf.terms import IRI, Term, Variable
from ..rdf.triples import Binding, TriplePattern
from ..sparql.algebra import (
    AlgebraNode,
    BGP,
    Empty,
    Join as LogicalJoin,
    LeftJoin as LogicalLeftJoin,
    Minus as LogicalMinus,
    Union as LogicalUnion,
    ValuesTable,
    conjuncts,
    normalize,
    translate_group,
)
from ..sparql.ast_nodes import GraphPattern, Query, ValuesClause
from ..sparql.errors import SparqlError
from ..sparql.evaluator import (
    QueryEvaluator,
    _merge_compatible,
    finalize_solutions,
)
from ..sparql.parser import parse_query
from ..sparql.plan import (
    CompatJoinNode,
    HashJoinNode,
    LeftJoinNode,
    MinusNode,
    PlanNode,
    UnionNode,
    ValuesScanNode,
    explain_plan,
    joins_on_maybe_unbound,
)
from ..sparql.results import AskResult, SelectResult
from ..sparql.serializer import ask_query
from ..sparql.trace import QueryTrace, Tracer
from ..store.triplestore import TripleStore
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


class FederatedQueryProcessor:
    """Evaluates SPARQL queries across a federation of endpoints.

    Members need only the endpoint query surface (``select``/``ask``
    raising :class:`EndpointError` subclasses) — in-process
    :class:`SparqlEndpoint` instances and network-backed
    :class:`~repro.net.client.HttpSparqlEndpoint` instances mix freely.

    ``bind_join_batch_size`` controls how many accumulated bindings a
    federated join ships per request (1 degenerates to the classic
    per-binding nested loop; the default batches
    :data:`~repro.federation.remote.REMOTE_BATCH_SIZE` bindings into a single
    VALUES clause).

    Thread-safe source selection: the HTTP server evaluates federated
    queries from many handler threads at once, so the pattern-source
    cache is guarded by a lock (probes run outside it — a duplicated
    probe is cheaper than serializing all endpoints' probes), and
    ``counters`` by one of its own.  Each decomposed execution interns
    remote terms into its own mediator store, so concurrent queries
    never share mutable ID state.
    """

    def __init__(
        self,
        endpoints: Sequence[SparqlEndpoint],
        bind_join_batch_size: int = REMOTE_BATCH_SIZE,
    ) -> None:
        if not endpoints:
            raise ValueError("a federation needs at least one endpoint")
        if bind_join_batch_size < 1:
            raise ValueError("bind_join_batch_size must be >= 1")
        self.endpoints = list(endpoints)
        self.bind_join_batch_size = bind_join_batch_size
        self._source_cache: Dict[Tuple, List[SparqlEndpoint]] = {}
        self._cache_lock = threading.Lock()
        self._stats_cache: Dict[int, Optional[Dict]] = {}
        #: Requests, pushes, fallbacks and swallowed member errors
        #: (``/stats`` serves the snapshot as its ``federation`` block).
        self.counters = FederationCounters()
        # EXPLAIN's header line comes from the local evaluator; it never
        # touches this empty store.
        self._pipeline = QueryEvaluator(TripleStore())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def select(self, query, tracer: Optional[Tracer] = None) -> SelectResult:
        """Run a SELECT query across the federation."""
        parsed = parse_query(query) if isinstance(query, str) else query
        if parsed.form != "SELECT":
            raise SparqlError("use ask() for ASK queries")
        return self.run(parsed, tracer=tracer)

    def ask(self, query, tracer: Optional[Tracer] = None) -> AskResult:
        parsed = parse_query(query) if isinstance(query, str) else query
        if parsed.form != "ASK":
            raise SparqlError("use select() for SELECT queries")
        return self.run(parsed, tracer=tracer)

    def run(self, query, tracer: Optional[Tracer] = None):
        """Run a parsed or textual query of either form — the one
        execution entry (:meth:`select` and :meth:`ask` only check the
        form).

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
        if parsed.form == "ASK":
            for _ in self._solve(parsed.where, tracer):
                return AskResult(True)
            return AskResult(False)
        # Solution modifiers at the mediator, via the shared pipeline
        # tail (ORDER BY sees pre-projection solutions, as locally).
        return finalize_solutions(
            parsed, list(self._solve(parsed.where, tracer)), tracer=tracer
        )

    def analyze(
        self, query, tracer: Optional[Tracer] = None
    ) -> "tuple[SelectResult | AskResult, QueryTrace]":
        """EXPLAIN ANALYZE across the federation: execute ``query``
        under a tracer and return ``(result, trace)``."""
        parsed = parse_query(query) if isinstance(query, str) else query
        if tracer is None:
            tracer = Tracer(query=query if isinstance(query, str) else "")
        result = self.run(parsed, tracer=tracer)
        return result, tracer.finish()

    def explain(self, query, analyze: bool = False) -> str:
        """Render the federated physical plan for ``query`` — the same
        operator-tree EXPLAIN as local execution, preceded by the
        source-selection verdicts (probing runs, execution does not
        unless ``analyze=True``, which appends the execution trace).
        """
        if analyze:
            from ..eval.reporting import format_trace

            plan_text = self.explain(query)
            _, trace = self.analyze(query)
            return f"{plan_text}\n\n{format_trace(trace)}"
        parsed = parse_query(query) if isinstance(query, str) else query
        lines = [f"Federated {self._pipeline._explain_header(parsed)}"]
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
        store = TripleStore()
        lines.append(explain_plan(self._compile_group(parsed.where, store), indent=1))
        for optional in parsed.where.optionals:
            lines.append("optional (per base solution):")
            lines.append(explain_plan(self._compile_group(optional, store), indent=1))
        return "\n".join(lines)

    def invalidate_source_cache(self) -> None:
        with self._cache_lock:
            self._source_cache.clear()
            self._stats_cache.clear()

    # ------------------------------------------------------------------
    # Source selection
    # ------------------------------------------------------------------

    def relevant_sources(self, pattern: TriplePattern) -> List[SparqlEndpoint]:
        """Endpoints that may hold matches for ``pattern`` (ASK probes)."""
        signature = _pattern_signature(pattern)
        with self._cache_lock:
            cached = self._source_cache.get(signature)
        if cached is not None:
            return cached
        probe = ask_query([_generalize(pattern)])
        relevant: List[SparqlEndpoint] = []
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

    def single_source(self, query: Query) -> Optional[SparqlEndpoint]:
        """The member that can answer ``query`` alone, if there is one.

        A federation of one member needs no probing.  Otherwise every
        pattern of the query tree — OPTIONAL, UNION and MINUS sub-groups
        included — is source-selected, and the rule holds when all the
        sources named are one and the same endpoint (a pattern no member
        matches names none: it finds nothing wherever it runs).
        """
        if len(self.endpoints) == 1:
            return self.endpoints[0]
        named: Optional[SparqlEndpoint] = None
        for pattern in self._collect_patterns(query.where):
            for endpoint in self.relevant_sources(pattern):
                if named is None:
                    named = endpoint
                elif endpoint is not named:
                    return None
        return named

    def _endpoint_stats(self, endpoint) -> Optional[Dict]:
        """Cached ``predicate_stats()`` for members with a local store
        (None for network members, whose statistics are invisible)."""
        key = id(endpoint)
        with self._cache_lock:
            if key in self._stats_cache:
                return self._stats_cache[key]
        store = getattr(endpoint, "store", None)
        stats = store.predicate_stats() if store is not None else None
        with self._cache_lock:
            return self._stats_cache.setdefault(key, stats)

    def _pattern_estimate(
        self, pattern: TriplePattern, sources: Sequence[SparqlEndpoint]
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
        self, pattern: TriplePattern, name: str, sources: Sequence[SparqlEndpoint]
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
    # Evaluation
    # ------------------------------------------------------------------

    def _solve(
        self, group: GraphPattern, tracer: Optional[Tracer] = None
    ) -> Iterator[Binding]:
        """Execute one group across the federation: compile, stream the
        plan over a fresh mediator store, apply OPTIONALs per solution.
        """
        store = TripleStore()
        plan = self._compile_group(group, store)
        decode = store.decode_id
        names = plan.variables
        base = (
            {
                name: decode(term_id)
                for name, term_id in zip(names, row)
                if term_id is not None
            }
            for row in plan.rows(store, None, tracer=tracer)
        )
        if not group.optionals:
            yield from base
            return
        for solution in base:
            current = [solution]
            for optional in group.optionals:
                extended: List[Binding] = []
                for row in current:
                    matches = self._solve_optional(optional, row)
                    extended.extend(matches if matches else [row])
                current = extended
            yield from current

    def _solve_optional(
        self, optional: GraphPattern, solution: Binding
    ) -> List[Binding]:
        """One OPTIONAL extension for one base solution.

        The base solution's bindings flow into the optional group as
        injected single-row VALUES tables covering the referenced
        variables — recursively, so filters and patterns nested in the
        optional's own UNION branches and OPTIONALs see the outer
        bindings too (matching the local evaluator's correlated
        semantics).  The same planner then handles the correlation; no
        separate join code.
        """
        bound = self._bind_group(optional, solution)
        merged: List[Binding] = []
        for row in self._solve(bound):
            combined = _merge_compatible(solution, row)
            if combined is not None:
                merged.append(combined)
        return merged

    def _bind_group(self, group: GraphPattern, solution: Binding) -> GraphPattern:
        """Copy ``group`` with the solution's bindings pinned at every
        level that references them (a single-row VALUES table per
        level).  MINUS groups stay untouched: SPARQL MINUS is
        uncorrelated, and the local evaluator agrees."""
        bound = GraphPattern(
            patterns=list(group.patterns),
            filters=list(group.filters),
            optionals=[self._bind_group(o, solution) for o in group.optionals],
            unions=[
                [self._bind_group(branch, solution) for branch in branches]
                for branches in group.unions
            ],
            minuses=list(group.minuses),
            values=list(group.values),
        )
        referenced = set()
        for pattern in group.patterns:
            referenced.update(pattern.variables())
        for expr in group.filters:
            referenced.update(expr.variables())
        shared = tuple(name for name in referenced if name in solution)
        if shared:
            bound.values.append(
                ValuesClause(shared, (tuple(solution[name] for name in shared),))
            )
        return bound

    # ------------------------------------------------------------------
    # Planning (stage three, federated flavour)
    # ------------------------------------------------------------------

    def _compile_group(self, group: GraphPattern, store: TripleStore) -> PlanNode:
        """Compile one group (OPTIONALs excluded) to a remote plan."""
        root = normalize(translate_group(group, include_optionals=False))
        return self._compile(root, store)

    def _compile(self, node: AlgebraNode, store: TripleStore) -> PlanNode:
        from ..sparql.plan import _strip_filters

        filters, core = _strip_filters(node)
        plan = self._compile_core(core, store)
        plan.filters.extend(filters)
        return plan

    def _compile_core(self, core: AlgebraNode, store: TripleStore) -> PlanNode:
        if isinstance(core, Empty):
            return ValuesScanNode(store, (), ())
        if isinstance(core, BGP):
            if not core.patterns:
                return ValuesScanNode(store, (), ((),))  # the unit table
            return self._compile_conjunction([core], store)
        if isinstance(core, ValuesTable):
            # The mediator store is fresh and private to this query
            # execution, so interning inline terms there is safe.
            return ValuesScanNode(store, core.names, core.rows, intern=True)
        if isinstance(core, LogicalUnion):
            return UnionNode([self._compile(branch, store) for branch in core.branches])
        if isinstance(core, LogicalMinus):
            return MinusNode(
                self._compile(core.left, store), self._compile(core.right, store)
            )
        if isinstance(core, LogicalLeftJoin):
            # An OPTIONAL nested inside a UNION/MINUS branch: no base
            # solution exists to correlate on, so it runs as the
            # uncorrelated SPARQL LeftJoin algebra — the local planner's
            # outer hash join, or the compatibility nested loop where a
            # shared variable may be unbound on either side.
            left = self._compile(core.left, store)
            right = self._compile(core.right, store)
            if joins_on_maybe_unbound(left, right):
                return LeftJoinNode(left, right, left.est_rows)
            keys = tuple(name for name in right.variables if name in left.slot_of)
            return HashJoinNode(left, right, keys, left.est_rows, outer=True)
        if isinstance(core, LogicalJoin):
            return self._compile_conjunction(conjuncts(core), store)
        raise SparqlError(f"federation cannot compile {core.label()}")

    def _compile_conjunction(
        self, parts: List[AlgebraNode], store: TripleStore
    ) -> PlanNode:
        """Greedy left-deep federated join.

        The same ordering discipline as local planning — start from the
        most selective input, repeatedly add the connected input with
        the smallest estimated join output — with remote operators:
        exclusive groups and driver patterns become RemoteScanNodes,
        every subsequent pattern a batched RemoteBindJoinNode, and
        non-pattern inputs (VALUES/UNION sub-plans) hash- or
        compat-join at the mediator.
        """
        from ..sparql.plan import _strip_filters

        patterns: List[TriplePattern] = []
        pending = []
        leaves: List[PlanNode] = []
        for part in parts:
            part_filters, part_core = _strip_filters(part)
            if isinstance(part_core, BGP):
                patterns.extend(part_core.patterns)
                pending.extend(part_filters)
            else:
                leaf = self._compile_core(part_core, store)
                leaf.filters.extend(part_filters)
                leaves.append(leaf)
        patterns = list(dict.fromkeys(patterns))

        sources_of: Dict[TriplePattern, List[SparqlEndpoint]] = {
            pattern: self.relevant_sources(pattern) for pattern in patterns
        }

        # Exclusive groups: patterns whose single relevant source is the
        # same endpoint ship together as one sub-query.
        remaining: List[TriplePattern] = []
        exclusive: Dict[int, List[TriplePattern]] = {}
        for pattern in patterns:
            sources = sources_of[pattern]
            if len(sources) == 1:
                exclusive.setdefault(id(sources[0]), []).append(pattern)
            else:
                remaining.append(pattern)
        candidates: List[PlanNode] = list(leaves)
        for grouped in exclusive.values():
            if len(grouped) == 1:
                remaining.append(grouped[0])
                continue
            sources = sources_of[grouped[0]]
            estimate = min(
                self._pattern_estimate(pattern, sources) for pattern in grouped
            )
            candidates.append(
                RemoteScanNode(grouped, sources, estimate, self.counters)
            )

        pattern_nodes: Dict[int, TriplePattern] = {}
        for pattern in remaining:
            scan = RemoteScanNode(
                [pattern],
                sources_of[pattern],
                self._pattern_estimate(pattern, sources_of[pattern]),
                self.counters,
            )
            pattern_nodes[id(scan)] = pattern
            candidates.append(scan)

        if not candidates:
            return ValuesScanNode(store, (), ((),))

        node = min(candidates, key=lambda c: c.est_rows)
        candidates.remove(node)
        self._attach_filters(node, pending)

        while candidates:
            connected = [
                candidate for candidate in candidates
                if any(name in node.slot_of for name in candidate.variables)
            ]
            if not connected:
                # Disconnected inputs cross-join at the mediator: one
                # fetch per input (a keyless bind join would re-issue
                # the same unconstrained sub-query once per batch).
                best = min(candidates, key=lambda c: c.est_rows)
                candidates.remove(best)
                self._attach_filters(best, pending)
                node = HashJoinNode(
                    node, best, (), max(1, node.est_rows) * max(1, best.est_rows)
                )
                self._attach_filters(node, pending)
                continue
            best = min(
                connected, key=lambda c: self._join_estimate(node, c, pattern_nodes)
            )
            candidates.remove(best)
            estimate = self._join_estimate(node, best, pattern_nodes)
            pattern = pattern_nodes.get(id(best))
            if pattern is not None:
                node = RemoteBindJoinNode(
                    node,
                    pattern,
                    sources_of[pattern],
                    estimate,
                    batch_size=self.bind_join_batch_size,
                    counters=self.counters,
                )
            else:
                keys = tuple(
                    name for name in best.variables if name in node.slot_of
                )
                self._attach_filters(best, pending)
                if joins_on_maybe_unbound(node, best):
                    node = CompatJoinNode(node, best, estimate)
                else:
                    node = HashJoinNode(node, best, keys, estimate)
            self._attach_filters(node, pending)
        node.filters.extend(pending)
        return node

    def _join_estimate(
        self,
        left: PlanNode,
        candidate: PlanNode,
        pattern_nodes: Dict[int, TriplePattern],
    ) -> int:
        shared = [name for name in candidate.variables if name in left.slot_of]
        if not shared:
            return max(1, left.est_rows) * max(1, candidate.est_rows)
        pattern = pattern_nodes.get(id(candidate))
        if pattern is None:
            return max(left.est_rows, candidate.est_rows)
        distinct = 0
        for name in shared:
            distinct = max(
                distinct,
                self._distinct_estimate(pattern, name, self.relevant_sources(pattern)),
            )
        if distinct <= 0:
            distinct = max(candidate.est_rows, 1)
        return max(1, left.est_rows * candidate.est_rows // distinct)

    @staticmethod
    def _attach_filters(node: PlanNode, pending: List) -> None:
        """Shared with the local planner: attaches only filters whose
        variables are certainly bound (a maybe-unbound variable could
        still be filled by a later compatibility join)."""
        from ..sparql.plan import attach_ready_filters

        attach_ready_filters(node, pending)

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
