"""QSM part 2: relaxing query structure (Section 6.2.2, Algorithm 3).

When the user's graph pattern does not match the data's structure (the
Figure 6 Kerouac/Viking-Press example), the QSM reconnects the query's
*literals* through actual paths in the remote RDF graph:

1. Each query literal plus its top JW alternatives form a **seed group**.
2. Seeds are connected by an approximate **Steiner tree**: candidate
   subgraphs grow from the seeds with a round-robin bi-directional
   Dijkstra expansion.  Every vertex expansion is one or two SPARQL
   queries against the endpoint (memoized), under a global budget
   (100 queries by default).  Edges whose predicate matches a query
   predicate (or one of its QSM alternatives) weigh ``w_q``; all other
   edges weigh ``w_default > w_q``, steering the search toward paths the
   user already hinted at.  A sibling guard skips enqueueing the
   neighbours of a vertex whose fan-out exceeds the remaining budget.
3. When one seed from every group is connected, the union of the
   connecting paths induces a subgraph of everything explored; a minimum
   spanning tree of that subgraph is computed and degree-1 non-terminals
   are repeatedly pruned (they cannot be on a Steiner tree).
4. Each surviving tree is compiled back into a SPARQL query: literal
   terminals stay constants, every other vertex becomes a fresh variable.

The approximation ratio of the underlying scheme is 2 − 2/s for s seeds
(Section 6.2.2).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import IRI, Literal, Term, Variable
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import GraphPattern, Query, ValuesClause
from ..sparql.results import SelectResult
from ..sparql.serializer import select_query, serialize_query
from .cache import CacheReader
from .config import SapphireConfig
from .probes import select_form

__all__ = [
    "Edge",
    "GraphExpander",
    "RelaxationSuggestion",
    "StructureRelaxer",
]

#: A directed RDF edge discovered during expansion.
Edge = Tuple[Term, IRI, Term]  # (subject, predicate, object)

QueryRunner = Callable[[Query], SelectResult]


#: Schema-level predicates are not traversed during relaxation: every
#: entity pair is trivially "connected" through a shared class vertex,
#: which would make the Steiner tree meaningless (the goal is connecting
#: literals through *data* paths, per Section 6.2.2's example).
SCHEMA_PREDICATES: FrozenSet[IRI] = frozenset({
    IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
    IRI("http://www.w3.org/2000/01/rdf-schema#subClassOf"),
})


class GraphExpander:
    """Vertex expansion via SPARQL queries, with memoization and a budget.

    Expanding a literal vertex issues one query (literals only occur as
    objects); expanding a URI vertex issues two (outgoing and incoming).
    Results are memoized so re-visited vertices are free (Section 6.2.2).
    """

    def __init__(
        self,
        runner: QueryRunner,
        budget: int,
        exclude_predicates: FrozenSet[IRI] = SCHEMA_PREDICATES,
    ) -> None:
        self.runner = runner
        self.budget = budget
        self.exclude_predicates = exclude_predicates
        self.queries_used = 0
        self._memo: Dict[Term, List[Edge]] = {}
        self.all_edges: Set[Edge] = set()

    @property
    def remaining(self) -> int:
        return self.budget - self.queries_used

    def expand(self, vertex: Term) -> Optional[List[Edge]]:
        """Edges incident to ``vertex``; None when the budget is exhausted."""
        if vertex in self._memo:
            return self._memo[vertex]
        cost = 1 if isinstance(vertex, Literal) else 2
        if self.queries_used + cost > self.budget:
            return None
        edges: List[Edge] = []
        if isinstance(vertex, Literal):
            edges.extend(self._query_incoming(vertex))
        else:
            edges.extend(self._query_outgoing(vertex))
            edges.extend(self._query_incoming(vertex))
        self._memo[vertex] = edges
        self.all_edges.update(edges)
        return edges

    def expand_many(self, vertices: Sequence[Term]) -> None:
        """Prefetch expansions for several vertices at once.

        Ships **two** ``VALUES``-batched queries (one incoming, one
        outgoing over the URI vertices) instead of one or two queries
        per vertex — through the same algebra pipeline as everything
        else, so against a federation of HTTP endpoints the whole batch
        is one request per endpoint per direction.  Results land in the
        memo; a later :meth:`expand` of a prefetched vertex is free.

        Already-memoized vertices are skipped.  If the batch does not
        fit the remaining budget, or a batch query fails, the affected
        vertices are left unmemoized and fall back to per-vertex
        expansion.
        """
        pending = [v for v in dict.fromkeys(vertices) if v not in self._memo]
        if len(pending) < 2:
            return  # a single vertex gains nothing from batching
        uris = [v for v in pending if not isinstance(v, Literal)]
        cost = 1 + (1 if uris else 0)
        if self.queries_used + cost > self.budget:
            return
        edges_of: Dict[Term, List[Edge]] = {v: [] for v in pending}

        if not self._batch_direction(pending, edges_of, incoming=True):
            # The incoming batch failed: nothing can be memoized (every
            # vertex needs it), so spending the outgoing query would
            # burn budget for results that must be discarded.  Leave
            # the vertices to per-vertex expansion.
            return
        outgoing_ok = True
        if uris:
            outgoing_ok = self._batch_direction(uris, edges_of, incoming=False)

        for vertex, edges in edges_of.items():
            needs_outgoing = not isinstance(vertex, Literal)
            if outgoing_ok or not needs_outgoing:
                self._memo[vertex] = edges
                self.all_edges.update(edges)

    def _batch_direction(
        self,
        vertices: Sequence[Term],
        edges_of: Dict[Term, List[Edge]],
        incoming: bool,
    ) -> bool:
        """One VALUES-batched expansion query; False on failure."""
        self.queries_used += 1
        hub = Variable("v")
        if incoming:
            pattern = TriplePattern(Variable("s"), Variable("p"), hub)
        else:
            pattern = TriplePattern(hub, Variable("p"), Variable("o"))
        query = Query(
            form="SELECT",
            select_star=True,
            distinct=True,
            where=GraphPattern(
                patterns=[pattern],
                values=[ValuesClause(("v",), tuple((v,) for v in vertices))],
            ),
        )
        try:
            result = self.runner(query)
        except Exception:
            return False
        for row in result.rows:
            vertex, predicate = row.get("v"), row.get("p")
            other = row.get("s") if incoming else row.get("o")
            if (
                isinstance(predicate, IRI)
                and predicate not in self.exclude_predicates
                and other is not None
                and vertex in edges_of
            ):
                edge = (other, predicate, vertex) if incoming else (vertex, predicate, other)
                edges_of[vertex].append(edge)
        return True

    def _query_incoming(self, vertex: Term) -> List[Edge]:
        self.queries_used += 1
        pattern = TriplePattern(Variable("s"), Variable("p"), vertex)
        try:
            result = self.runner(select_query([pattern], distinct=True))
        except Exception:
            return []
        edges: List[Edge] = []
        for row in result.rows:
            s, p = row.get("s"), row.get("p")
            if isinstance(p, IRI) and p not in self.exclude_predicates and s is not None:
                edges.append((s, p, vertex))
        return edges

    def _query_outgoing(self, vertex: Term) -> List[Edge]:
        self.queries_used += 1
        pattern = TriplePattern(vertex, Variable("p"), Variable("o"))
        try:
            result = self.runner(select_query([pattern], distinct=True))
        except Exception:
            return []
        edges: List[Edge] = []
        for row in result.rows:
            p, o = row.get("p"), row.get("o")
            if isinstance(p, IRI) and p not in self.exclude_predicates and o is not None:
                edges.append((vertex, p, o))
        return edges


@dataclass
class RelaxationSuggestion:
    """One relaxed query produced from a pruned Steiner tree."""

    query: Query
    query_text: str
    n_answers: int
    terminals: Tuple[Term, ...]
    tree_edges: Tuple[Edge, ...]
    queries_used: int
    total_weight: float
    prefetched: Optional[SelectResult] = None

    def message(self) -> str:
        terms = ", ".join(t.n3() for t in self.terminals)
        return (
            f"Relaxed query connecting {terms} through the dataset "
            f"({self.n_answers} answers available)."
        )


class _UnionFind:
    """Standard union-find over small integer ids."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def components(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


class StructureRelaxer:
    """Implements Algorithm 3 over one cache + query runner."""

    def __init__(
        self,
        cache: CacheReader,
        runner: QueryRunner,
        config: Optional[SapphireConfig] = None,
    ) -> None:
        self.cache = cache
        self.runner = runner
        self.config = config or cache.config

    # ------------------------------------------------------------------
    # Seed groups
    # ------------------------------------------------------------------

    def seed_groups(
        self,
        query: Query,
        literal_alternatives: Optional[Dict[Literal, Sequence[Literal]]] = None,
    ) -> List[List[Term]]:
        """One group per query literal: the literal + its top alternatives."""
        groups: List[List[Term]] = []
        seen: Set[Literal] = set()
        for pattern in query.where.patterns:
            for term in pattern.as_tuple():
                if isinstance(term, Literal) and term not in seen:
                    seen.add(term)
                    group: List[Term] = [term]
                    if literal_alternatives and term in literal_alternatives:
                        extra = list(literal_alternatives[term])
                        group.extend(extra[: self.config.seed_group_size - 1])
                    groups.append(group)
        return groups

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------

    def relax(
        self,
        query: Query,
        literal_alternatives: Optional[Dict[Literal, Sequence[Literal]]] = None,
        max_suggestions: int = 2,
    ) -> List[RelaxationSuggestion]:
        """Suggest relaxed queries for ``query`` (empty if not connectable)."""
        groups = self.seed_groups(query, literal_alternatives)
        if len(groups) < 2:
            return []
        preferred = self._preferred_predicates(query)
        expander = GraphExpander(self.runner, self.config.relaxation_query_budget)
        # All seeds get expanded first anyway (they sit at distance 0 on
        # every frontier); prefetching them as one VALUES batch per
        # direction spends 2 queries where the per-vertex loop spends up
        # to 2 per seed, leaving budget for the search.
        expander.expand_many([seed for group in groups for seed in group])

        steiner_edges = self._connect_groups(groups, preferred, expander)
        if steiner_edges is None:
            return []

        suggestions: List[RelaxationSuggestion] = []
        terminals = self._terminals_in(steiner_edges, groups)
        for tree in self._minimum_trees(steiner_edges, expander.all_edges,
                                        terminals, preferred, max_suggestions):
            suggestion = self._compile(tree, terminals, preferred, expander.queries_used)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions

    # ------------------------------------------------------------------
    # Literal grounding (the single-literal relaxation case)
    # ------------------------------------------------------------------

    def ground_literals(self, query: Query) -> List[RelaxationSuggestion]:
        """Relax ``(s, p, "lit")`` patterns whose literal belongs to a
        different predicate in the data.

        The Steiner machinery needs two or more literal groups to connect;
        a query with a *single* misplaced literal (``?sci dbo:almaMater
        "Princeton University"``) is relaxed directly: the cache knows
        which predicate(s) the literal was retrieved under during
        initialization, so the pattern is rewritten to
        ``?sci dbo:almaMater ?u . ?u rdfs:label "Princeton University"``.
        This is the same structure-vs-data repair as Figure 6, realized
        from cached knowledge instead of graph expansion, and it preserves
        the query's modifiers because no variable is renamed.
        """
        patterns: List[TriplePattern] = []
        changed = False
        fresh = itertools.count()
        grounded: List[Term] = []
        for pattern in query.where.patterns:
            obj = pattern.object
            predicate = pattern.predicate
            if isinstance(obj, Literal) and isinstance(predicate, IRI):
                entries = self.cache.entries_for_surface(obj.lexical)
                source_preds = {
                    e.source_predicate for e in entries
                    if e.kind == "literal" and e.source_predicate is not None
                }
                if source_preds and predicate not in source_preds:
                    label_pred = self._pick_label_predicate(source_preds)
                    bridge = Variable(f"u{next(fresh)}")
                    patterns.append(TriplePattern(pattern.subject, predicate, bridge))
                    patterns.append(TriplePattern(bridge, label_pred, obj))
                    grounded.append(obj)
                    changed = True
                    continue
            patterns.append(pattern)
        if not changed:
            return []
        # Only the pattern list is new; the rest is shared with ``query``.
        new_query = replace(query, where=replace(query.where, patterns=patterns))
        try:
            result = self.runner(select_form(new_query))  # an ASK counts its solutions
        except Exception:
            return []
        if not result.rows:
            return []
        return [RelaxationSuggestion(
            query=new_query,
            query_text=serialize_query(new_query),
            n_answers=len(result.rows),
            terminals=tuple(grounded),
            tree_edges=(),
            queries_used=0,
            total_weight=0.0,
            prefetched=result,
        )]

    @staticmethod
    def _pick_label_predicate(source_preds: Set[IRI]) -> IRI:
        from ..rdf.namespaces import FOAF, RDFS_LABEL

        for preferred in (RDFS_LABEL, FOAF.term("name")):
            if preferred in source_preds:
                return preferred
        return sorted(source_preds, key=lambda p: p.value)[0]

    # ------------------------------------------------------------------
    # Step 1: connecting seeds (round-robin bi-directional Dijkstra)
    # ------------------------------------------------------------------

    def _preferred_predicates(self, query: Query) -> Set[IRI]:
        preferred: Set[IRI] = set()
        for pattern in query.where.patterns:
            if isinstance(pattern.predicate, IRI):
                preferred.add(pattern.predicate)
        return preferred

    def _edge_weight(self, predicate: IRI, preferred: Set[IRI]) -> float:
        return self.config.w_q if predicate in preferred else self.config.w_default

    def _connect_groups(
        self,
        groups: List[List[Term]],
        preferred: Set[IRI],
        expander: GraphExpander,
    ) -> Optional[Set[Edge]]:
        """Round-robin bi-directional Dijkstra with deferred meetings.

        When two groups' searches scan the same vertex, the meeting is
        *recorded* with cost ``dist_g(v) + dist_h(v)`` but not committed:
        the first meeting found need not lie on the cheapest connecting
        path.  A meeting is committed once no cheaper meeting for that
        component pair can still appear, i.e. when its cost is at most
        the sum of the two groups' current frontier minima — the standard
        bi-directional stopping criterion, generalized to multiple
        groups.
        """
        n_groups = len(groups)
        dist: List[Dict[Term, float]] = [dict() for _ in range(n_groups)]
        parent: List[Dict[Term, Tuple[Term, Edge]]] = [dict() for _ in range(n_groups)]
        settled: List[Set[Term]] = [set() for _ in range(n_groups)]
        heaps: List[List[Tuple[float, int, Term]]] = [[] for _ in range(n_groups)]
        counter = itertools.count()

        for gid, group in enumerate(groups):
            for seed in group:
                dist[gid][seed] = 0.0
                heapq.heappush(heaps[gid], (0.0, next(counter), seed))

        uf = _UnionFind(n_groups)
        steiner_edges: Set[Edge] = set()
        # Best recorded meeting per unordered group pair.
        meetings: Dict[Tuple[int, int], Tuple[float, Term]] = {}

        def path_edges(gid: int, vertex: Term) -> List[Edge]:
            edges: List[Edge] = []
            current = vertex
            while current in parent[gid]:
                previous, edge = parent[gid][current]
                edges.append(edge)
                current = previous
            return edges

        def frontier_min(gid: int) -> float:
            heap = heaps[gid]
            while heap and (heap[0][2] in settled[gid]
                            or heap[0][0] > dist[gid].get(heap[0][2], float("inf"))):
                heapq.heappop(heap)
            return heap[0][0] if heap else float("inf")

        def record_meeting(gid: int, vertex: Term) -> None:
            for other in range(n_groups):
                if other == gid or vertex not in dist[other]:
                    continue
                cost = dist[gid][vertex] + dist[other][vertex]
                key = (min(gid, other), max(gid, other))
                if key not in meetings or cost < meetings[key][0]:
                    meetings[key] = (cost, vertex)

        def commit_ready_meetings(force: bool = False) -> None:
            changed = True
            while changed:
                changed = False
                for (g, h), (cost, vertex) in sorted(meetings.items(), key=lambda kv: kv[1][0]):
                    if uf.find(g) == uf.find(h):
                        continue
                    if force or cost <= frontier_min(g) + frontier_min(h):
                        uf.union(g, h)
                        steiner_edges.update(path_edges(g, vertex))
                        steiner_edges.update(path_edges(h, vertex))
                        changed = True

        active = True
        while active and uf.components() > 1:
            active = False
            for gid in range(n_groups):
                commit_ready_meetings()
                if uf.components() == 1:
                    return steiner_edges
                heap = heaps[gid]
                # Pop the next unsettled vertex for this group's turn.
                vertex = None
                while heap:
                    weight, _, candidate = heapq.heappop(heap)
                    if candidate not in settled[gid] and weight <= dist[gid].get(candidate, float("inf")):
                        vertex = candidate
                        break
                if vertex is None:
                    continue
                active = True
                settled[gid].add(vertex)
                record_meeting(gid, vertex)

                edges = expander.expand(vertex)
                if edges is None:
                    # Budget exhausted: commit whatever meetings exist.
                    commit_ready_meetings(force=True)
                    return steiner_edges if uf.components() == 1 else None

                # Sibling guard: skip enqueueing a fan-out larger than the
                # remaining budget (Section 6.2.2).
                if len(edges) > expander.remaining and expander.remaining > 0:
                    continue
                for edge in edges:
                    s, p, o = edge
                    neighbour = o if s == vertex else s
                    w = self._edge_weight(p, preferred)
                    new_dist = dist[gid][vertex] + w
                    if new_dist < dist[gid].get(neighbour, float("inf")):
                        dist[gid][neighbour] = new_dist
                        parent[gid][neighbour] = (vertex, edge)
                        heapq.heappush(heaps[gid], (new_dist, next(counter), neighbour))
        commit_ready_meetings(force=True)
        return steiner_edges if uf.components() == 1 else None

    # ------------------------------------------------------------------
    # Step 2: minimum tree construction
    # ------------------------------------------------------------------

    def _terminals_in(self, edges: Set[Edge], groups: List[List[Term]]) -> Tuple[Term, ...]:
        vertices: Set[Term] = set()
        for s, _, o in edges:
            vertices.add(s)
            vertices.add(o)
        terminals: List[Term] = []
        for group in groups:
            for seed in group:
                if seed in vertices:
                    terminals.append(seed)
                    break
        return tuple(terminals)

    def _minimum_trees(
        self,
        steiner_edges: Set[Edge],
        all_edges: Set[Edge],
        terminals: Tuple[Term, ...],
        preferred: Set[IRI],
        max_trees: int,
    ) -> List[Set[Edge]]:
        """MSTs of the subgraph induced by the connection graph g in G."""
        g_vertices: Set[Term] = set()
        for s, _, o in steiner_edges:
            g_vertices.add(s)
            g_vertices.add(o)
        if not g_vertices:
            return []
        induced = [e for e in all_edges if e[0] in g_vertices and e[2] in g_vertices]
        induced.sort(key=lambda e: (self._edge_weight(e[1], preferred), str(e)))

        vertex_ids = {v: i for i, v in enumerate(g_vertices)}
        uf = _UnionFind(len(vertex_ids))
        mst: Set[Edge] = set()
        for edge in induced:
            if uf.union(vertex_ids[edge[0]], vertex_ids[edge[2]]):
                mst.add(edge)

        pruned = self._prune(mst, set(terminals))
        return [pruned] if pruned else []

    def _prune(self, tree: Set[Edge], terminals: Set[Term]) -> Set[Edge]:
        """Repeatedly delete degree-1 non-terminal vertices."""
        edges = set(tree)
        while True:
            degree: Dict[Term, int] = {}
            for s, _, o in edges:
                degree[s] = degree.get(s, 0) + 1
                degree[o] = degree.get(o, 0) + 1
            removable = {
                v for v, d in degree.items() if d == 1 and v not in terminals
            }
            if not removable:
                return edges
            edges = {e for e in edges if e[0] not in removable and e[2] not in removable}
            if not edges:
                return edges

    # ------------------------------------------------------------------
    # Compilation back to SPARQL
    # ------------------------------------------------------------------

    def _compile(
        self,
        tree: Set[Edge],
        terminals: Tuple[Term, ...],
        preferred: Set[IRI],
        queries_used: int,
    ) -> Optional[RelaxationSuggestion]:
        if not tree:
            return None
        variable_of: Dict[Term, Variable] = {}
        counter = itertools.count()

        def as_query_term(vertex: Term) -> Term:
            if isinstance(vertex, Literal):
                return vertex  # terminals stay constant
            if vertex not in variable_of:
                variable_of[vertex] = Variable(f"x{next(counter)}")
            return variable_of[vertex]

        patterns = [
            TriplePattern(as_query_term(s), p, as_query_term(o))
            for s, p, o in sorted(tree, key=str)
        ]
        query = select_query(patterns, distinct=True)
        try:
            result = self.runner(query)
        except Exception:
            return None
        total_weight = sum(self._edge_weight(p, preferred) for _, p, _ in tree)
        return RelaxationSuggestion(
            query=query,
            query_text=serialize_query(query),
            n_answers=len(result.rows),
            terminals=terminals,
            tree_edges=tuple(sorted(tree, key=str)),
            queries_used=queries_used,
            total_weight=total_weight,
            prefetched=result,
        )
