"""SPARQL query evaluation over a :class:`~repro.store.TripleStore`.

The front door of the four-stage pipeline (parse → logical algebra →
optimize → physical execution).  :class:`QueryEvaluator` parses, hands
the WHERE group to the shared optimizer
(:class:`~repro.sparql.plan.QueryPlanner`, which translates and
normalizes through :mod:`~repro.sparql.algebra` and returns a physical
plan for every group), and streams that plan; GROUP BY, aggregates and
ORDER BY finish through the one columnar tail
(:mod:`~repro.sparql.tail`).  There is no second way to solve a group:
the term-space solver the engine is checked against lives in
``tests/reference_solver.py``.

Cost metering: every index probe and join output charges the meter, so
a budgeted endpoint aborts long evaluations exactly like a remote
timeout.  Group operator order (see
:func:`~repro.sparql.algebra.translate_group`): basic patterns join
with VALUES and UNION blocks, filters apply, MINUS groups subtract,
OPTIONALs extend last.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import Variable
from ..rdf.triples import Binding
from ..store.triplestore import CostMeter, TripleStore
from .ast_nodes import GraphPattern, Query, TermExpr
from .errors import ExpressionError
from .functions import compile_expression
from .parser import parse_query
from .plan import (
    DEFAULT_BATCH_SIZE,
    UNBOUND,
    PlanNode,
    QueryPlanner,
    explain_plan,
    refresh_plan_estimates,
)
from .results import AskResult, SelectResult
from .tail import finish_columns, tail_label
from .trace import Tracer

__all__ = ["QueryEvaluator", "evaluate", "explain_header", "finalize_solutions"]


def _paginate(rows, key_fn, distinct: bool, offset: int, limit: Optional[int]) -> List:
    """Shared DISTINCT → OFFSET → LIMIT paging over a streaming input.

    Used by both select pipelines (decoded bindings and ID tuples) so
    their paging semantics can never diverge: deduplicate on
    ``key_fn(row)`` first, then skip ``offset`` surviving rows, then
    stop as soon as ``limit`` rows are collected.
    """
    seen: Optional[set] = set() if distinct else None
    picked: List = []
    if limit is None or limit > 0:
        skipped = 0
        for row in rows:
            if seen is not None:
                key = key_fn(row)
                if key in seen:
                    continue
                seen.add(key)
            if skipped < offset:
                skipped += 1
                continue
            picked.append(row)
            if limit is not None and len(picked) >= limit:
                break
    return picked


class QueryEvaluator:
    """Evaluates parsed queries against one triple store.

    Every group, its OPTIONALs included, runs through the cost-based
    planner in :mod:`~repro.sparql.plan`.

    ``batch_size`` (>= 1) is the row count per
    :class:`~repro.sparql.plan.Batch`; tests lower it to force
    DISTINCT/LIMIT cuts in the middle of a batch.
    """

    def __init__(self, store: TripleStore, *, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        # Physical plans keyed by (group identity, budget).  The value
        # pins a strong reference to the group so its ``id`` can never
        # be recycled, and records the store generation the plan was
        # built against: re-planning after a write keeps cardinality
        # estimates (and NO_ID encodings of previously-unseen constants)
        # honest.  Repeated evaluation of the same parsed query —
        # endpoints serving a hot query, benchmarks, the suggestion
        # cache — skips the planner entirely.
        self._plan_cache: Dict[Tuple[int, Optional[int]], Tuple[object, object, PlanNode]] = {}

    def _plan_group(
        self, group: GraphPattern, budget: Optional[int], tracer=None
    ) -> PlanNode:
        """Plan ``group`` under ``budget``, memoized per (group, budget,
        store generation); each plan gets a planner of its own (the
        scope of its query-local IDs)."""
        key = (id(group), budget)
        generation = getattr(self.store, "generation", None)
        entry = self._plan_cache.get(key)
        if entry is not None and entry[0] is group and entry[1] == generation:
            if tracer is not None:
                tracer.event("plan-cache", hit=True)
            return entry[2]
        if tracer is not None:
            tracer.event("plan-cache", hit=False)
        plan = QueryPlanner(self.store).plan(group, budget)
        if len(self._plan_cache) >= 64:
            self._plan_cache.clear()
        self._plan_cache[key] = (group, generation, plan)
        return plan

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: Query,
        meter: Optional[CostMeter] = None,
        tracer: Optional[Tracer] = None,
    ):
        """Evaluate ``query``; returns :class:`SelectResult` or :class:`AskResult`.

        ``tracer`` (optional) records an operator-level execution trace
        on the planned batch path; ``None`` keeps the hot path untouched
        (a single ``is None`` test per operator per query).
        """
        meter = meter or CostMeter()
        if query.form == "ASK":
            plan = self._plan_group(query.where, meter.budget, tracer)
            held = any(plan.batches(self.store, meter, self.batch_size, tracer))
            return AskResult(held, cost=meter.cost)
        return self._evaluate_select(query, meter, tracer)

    def analyze(
        self,
        query: "Query | str",
        meter: Optional[CostMeter] = None,
        tracer: Optional[Tracer] = None,
    ):
        """EXPLAIN ANALYZE: execute ``query`` under a tracer and return
        ``(result, trace)`` where ``trace`` is the finished
        :class:`~repro.sparql.trace.QueryTrace`.

        Cardinality estimates on a reused physical plan are re-resolved
        against current store statistics before execution
        (:func:`~repro.sparql.plan.refresh_plan_estimates`), so the
        ``est`` attributes in the trace reflect generation-current stats
        even when the plan object predates a store mutation.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        meter = meter or CostMeter()
        if tracer is None:
            tracer = Tracer(query=query if isinstance(query, str) else "")
        refresh_plan_estimates(self._plan_group(parsed.where, meter.budget, tracer), self.store)
        result = self.evaluate(parsed, meter, tracer=tracer)
        trace = tracer.finish()
        trace.attrs["cost"] = meter.cost
        return result, trace

    def explain(self, query: "Query | str", budget: Optional[int] = None) -> str:
        """Human-readable plan dump for ``query`` (no execution).

        The first line summarizes the solution modifiers; the tree below
        it is the planner's operator pipeline — OPTIONALs as left outer
        joins — under a ``Tail`` line when GROUP BY / aggregates /
        ORDER BY finish the query.  Every group has one.

        Pass the same ``budget`` the evaluation will run under (endpoints
        do) — strategy choice is budget-aware, so an unbudgeted EXPLAIN
        can show hash joins a guarded execution would replace with bind
        joins.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        lines = [explain_header(parsed)]
        if parsed.has_aggregates() or parsed.group_by or parsed.order_by:
            lines.append(f"{tail_label(parsed)}  [columns]")
        lines.append(explain_plan(self._plan_group(parsed.where, budget)))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------

    def _evaluate_select(
        self, query: Query, meter: CostMeter, tracer: Optional[Tracer] = None
    ) -> SelectResult:
        if not (query.has_aggregates() or query.group_by or query.order_by):
            return self._evaluate_select_streaming(query, meter, tracer)
        plan = self._plan_group(query.where, meter.budget, tracer)
        # The whole solution set as ID columns, straight into the tail.
        batches = list(plan.batches(self.store, meter, self.batch_size, tracer))
        if len(batches) == 1:
            columns: Sequence[array] = batches[0].columns
        else:
            columns = [array("q") for _ in plan.variables]
            for batch in batches:
                for column, part in zip(columns, batch.columns):
                    column.extend(part)
        return finish_columns(
            query,
            dict(zip(plan.variables, columns)),
            sum(batch.length for batch in batches),
            plan.decoder(self.store),
            any(batch.has_unbound for batch in batches),
            cost=meter.cost,
            tracer=tracer,
        )

    def _evaluate_select_streaming(
        self, query: Query, meter: CostMeter, tracer: Optional[Tracer] = None
    ) -> SelectResult:
        """Pipeline for queries without aggregation or ordering.

        Solutions stream straight out of the plan, are projected and
        deduplicated on the fly, and the
        iteration stops as soon as OFFSET + LIMIT rows have been
        produced — the early termination that keeps paged Appendix-A
        retrieval (Q6/Q7-style ``LIMIT .. OFFSET ..``) cheap.
        """
        names = query.projected_names()
        plan = self._plan_group(query.where, meter.budget, tracer)
        items = self._plain_variable_items(query)
        if items is not None:
            return self._select_from_plan(query, plan, names, items, meter, tracer)
        project = self._projection(query)
        projected = (project(solution) for solution in self._solutions(plan, meter, tracer))
        rows = _paginate(
            projected,
            key_fn=lambda row: tuple(row.get(name) for name in names),
            distinct=query.distinct,
            offset=query.offset or 0,
            limit=query.limit,
        )
        return SelectResult(variables=names, rows=rows, cost=meter.cost)

    @staticmethod
    def _plain_variable_items(query: Query) -> Optional[List[Tuple[str, str]]]:
        """``(output name, variable name)`` pairs when every projection
        is a bare variable (or ``SELECT *``); None otherwise."""
        if query.select_star:
            return [(name, name) for name in query.projected_names()]
        items: List[Tuple[str, str]] = []
        for item in query.select_items:
            expr = item.expression
            if isinstance(expr, TermExpr) and isinstance(expr.term, Variable):
                items.append((item.output_name, expr.term.name))
            else:
                return None
        return items

    def _select_from_plan(
        self,
        query: Query,
        plan,
        names: Sequence[str],
        items: List[Tuple[str, str]],
        meter: CostMeter,
        tracer: Optional[Tracer] = None,
    ) -> SelectResult:
        """Late materialization: project, deduplicate and page entirely
        on dictionary-ID tuples; decode only the rows that survive.

        Sound because the dictionary is a bijection — distinct IDs are
        distinct terms — so DISTINCT over ID tuples equals DISTINCT over
        the decoded rows.
        """
        store = self.store
        slot_of = plan.slot_of
        pairs = [(out, slot_of.get(var)) for out, var in items]
        live = tuple(slot for _, slot in pairs if slot is not None)
        distinct = query.distinct
        offset = query.offset or 0
        limit = query.limit
        batch_size = self.batch_size
        if limit is not None:
            # Clamp the batch size to the page so the scan never charges
            # the meter for (or materializes) more candidate rows per
            # batch than early termination will consume — a page-sized
            # LIMIT costs what its page costs.
            batch_size = max(1, min(batch_size, limit + offset))
        elif not distinct and not offset:
            # Fast path: every row survives — decode whole columns.
            return self._select_all_batches(
                plan, pairs, names, meter, batch_size, tracer
            )
        source = (
            row
            for batch in plan.batches(store, meter, batch_size, tracer)
            for row in batch.iter_rows()
        )
        picked = _paginate(
            source,
            key_fn=lambda row: tuple(row[slot] for slot in live),
            distinct=distinct,
            offset=offset,
            limit=limit,
        )
        decode = plan.decoder(store)
        rows: List[Binding] = [
            {
                out: decode(row[slot])
                for out, slot in pairs
                if slot is not None and row[slot] is not None
            }
            for row in picked
        ]
        return SelectResult(variables=list(names), rows=rows, cost=meter.cost)

    def _select_all_batches(
        self,
        plan,
        pairs: List[Tuple[str, Optional[int]]],
        names: Sequence[str],
        meter: CostMeter,
        batch_size: int,
        tracer: Optional[Tracer] = None,
    ) -> SelectResult:
        """Unmodified SELECT tail: decode surviving columns wholesale.

        With no DISTINCT/OFFSET/LIMIT every produced row is returned, so
        projection happens column-at-a-time through the plan's decoder
        (the dictionary's C-level ``terms.__getitem__`` unless the plan
        has query-local terms) instead of per-cell ``decode_id`` calls.
        """
        store = self.store
        decode = plan.decoder(store)
        live_pairs = [(out, slot) for out, slot in pairs if slot is not None]
        outs = [out for out, _ in live_pairs]
        rows: List[Binding] = []
        for batch in plan.batches(store, meter, batch_size, tracer):
            if not live_pairs:
                rows.extend({} for _ in range(batch.length))
                continue
            columns = batch.columns
            if batch.has_unbound:
                decoded = [
                    [None if cell == UNBOUND else decode(cell) for cell in columns[slot]]
                    for _, slot in live_pairs
                ]
                rows.extend(
                    {
                        out: cell
                        for out, cell in zip(outs, cells)
                        if cell is not None
                    }
                    for cells in zip(*decoded)
                )
            else:
                decoded = [map(decode, columns[slot]) for _, slot in live_pairs]
                # Width-specialized dict displays: BUILD_MAP over a C
                # zip is several times faster than dict(zip(...)) per
                # row, and this loop dominates large-result queries.
                if len(outs) == 1:
                    (o0,) = outs
                    rows += [{o0: a} for a in decoded[0]]
                elif len(outs) == 2:
                    o0, o1 = outs
                    rows += [{o0: a, o1: b} for a, b in zip(*decoded)]
                elif len(outs) == 3:
                    o0, o1, o2 = outs
                    rows += [
                        {o0: a, o1: b, o2: c} for a, b, c in zip(*decoded)
                    ]
                else:
                    rows += [
                        dict(zip(outs, cells)) for cells in zip(*decoded)
                    ]
        return SelectResult(variables=list(names), rows=rows, cost=meter.cost)

    @staticmethod
    def _projection(query: Query):
        """``solution -> projected row`` for select items that are not
        all bare variables, each expression compiled once."""
        items = [(item.output_name, compile_expression(item.expression)) for item in query.select_items]

        def project(row: Binding) -> Binding:
            projected: Binding = {}
            for name, evaluate in items:
                try:
                    projected[name] = evaluate(row)
                except ExpressionError:
                    # Unbound projection variable: leave the cell empty.
                    continue
            return projected

        return project

    def _solutions(
        self, plan: PlanNode, meter: CostMeter, tracer: Optional[Tracer] = None
    ) -> Iterator[Binding]:
        """Decoded solutions of ``plan``, one mapping per row."""
        names = plan.variables
        decode = plan.decoder(self.store)
        for batch in plan.batches(self.store, meter, self.batch_size, tracer):
            if batch.has_unbound:
                for row in batch.iter_raw():
                    yield {
                        name: decode(cell)
                        for name, cell in zip(names, row)
                        if cell != UNBOUND
                    }
            else:
                for row in batch.iter_raw():
                    yield dict(zip(names, map(decode, row)))


def explain_header(query: Query) -> str:
    """EXPLAIN's first line: the query form, projection and modifiers."""
    header = query.form
    if query.distinct:
        header += " DISTINCT"
    if query.form == "SELECT":
        names = query.projected_names()
        header += " " + (" ".join(f"?{name}" for name in names) if names else "*")
    modifiers = []
    if query.group_by:
        modifiers.append("group_by=" + ",".join(f"?{n}" for n in query.group_by))
    if query.order_by:
        modifiers.append(f"order_by[{len(query.order_by)}]")
    if query.limit is not None:
        modifiers.append(f"limit={query.limit}")
    if query.offset:
        modifiers.append(f"offset={query.offset}")
    if modifiers:
        header += "  [" + " ".join(modifiers) + "]"
    return header


def finalize_solutions(
    query: Query, solutions: List[Binding], cost: int = 0, tracer: Optional[Tracer] = None
) -> SelectResult:
    """Apply a query's solution modifiers to solutions held as mappings.

    A thin caller of the one tail (:func:`~repro.sparql.tail.finish_columns`,
    here over columns of terms): the federated processor's remote rows,
    and the QSM's probe-group rows finish through exactly the code local
    plans finish through.
    """
    names = list(dict.fromkeys(chain.from_iterable(solutions)))
    columns = {name: [solution.get(name) for solution in solutions] for name in names}
    has_unbound = any(len(solution) != len(names) for solution in solutions)
    return finish_columns(
        query, columns, len(solutions), None, has_unbound, cost=cost, tracer=tracer
    )


def evaluate(store: TripleStore, query_text: str, meter: Optional[CostMeter] = None):
    """Parse and evaluate ``query_text`` against ``store`` in one call."""
    query = parse_query(query_text)
    return QueryEvaluator(store).evaluate(query, meter)
