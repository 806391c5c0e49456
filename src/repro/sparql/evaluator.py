"""SPARQL query evaluation over a :class:`~repro.store.TripleStore`.

The front door of the four-stage pipeline (parse → logical algebra →
optimize → physical execution).  :class:`QueryEvaluator` parses, hands
the WHERE group to the shared optimizer
(:class:`~repro.sparql.plan.QueryPlanner`, which translates and
normalizes through :mod:`~repro.sparql.algebra` and returns a physical
plan for every group) and runs the plan through :func:`run_plan`, which
pulls its batches into one ID column per variable and finishes every
SELECT through the one columnar tail
(:func:`~repro.sparql.tail.finish_columns`): projection, DISTINCT,
OFFSET / LIMIT, GROUP BY, aggregates and ORDER BY exist once.  The one
choice :func:`run_plan` makes is how many batches to pull — all of
them, or, when LIMIT is the query's only cut, page-sized batches until
the page can be filled.  The split federation finishes its plan through
the same function.  There is no second way to solve a group or to
finish one: the term-space solver and tail the engine is checked
against live in ``tests/reference_solver.py`` and
``tests/reference_tail.py``.

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
from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.triples import Binding
from ..store.triplestore import CostMeter, TripleStore
from .ast_nodes import GraphPattern, Query
from .parser import parse_query
from .plan import (
    DEFAULT_BATCH_SIZE,
    Batch,
    PlanNode,
    QueryPlanner,
    _key_column,
    explain_plan,
    refresh_plan_estimates,
)
from .results import AskResult, SelectResult
from .tail import _variable_name, finish_columns, tail_label
from .trace import Tracer

__all__ = ["QueryEvaluator", "evaluate", "explain_header", "finalize_solutions", "run_plan"]


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
        generation = self.store.generation
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
        plan = self._plan_group(query.where, meter.budget, tracer)
        return run_plan(query, plan, self.store, meter, self.batch_size, tracer)

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


def run_plan(
    query: Query,
    plan: PlanNode,
    store: TripleStore,
    meter: CostMeter,
    batch_size: int = DEFAULT_BATCH_SIZE,
    tracer: Optional[Tracer] = None,
):
    """Run ``query``'s planned WHERE group over ``store`` and finish it:
    an ASK holds on the plan's first batch; a SELECT's batches
    (:func:`_pull`) become one ID column per variable for the tail.
    Local evaluation and the split federation both end here."""
    if query.form == "ASK":
        return AskResult(any(plan.batches(store, meter, batch_size, tracer)), cost=meter.cost)
    batches = _pull(query, plan, store, meter, batch_size, tracer)
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
        plan.decoder(store),
        any(batch.has_unbound for batch in batches),
        cost=meter.cost,
        tracer=tracer,
    )


def _pull(
    query: Query,
    plan: PlanNode,
    store: TripleStore,
    meter: CostMeter,
    batch_size: int,
    tracer: Optional[Tracer],
) -> List[Batch]:
    """The batches the answer needs: all of them, unless LIMIT is the
    query's only cut.  Then batches of at most OFFSET + LIMIT rows
    until the rows gathered — under DISTINCT, the distinct projected
    ID keys — can fill the page, and none at all for ``LIMIT 0``: a
    paged query is metered for its page, not for the whole answer.
    """
    limit = query.limit
    if limit is None or query.has_aggregates() or query.group_by or query.order_by:
        return list(plan.batches(store, meter, batch_size, tracer))
    if limit == 0:
        return []
    slots = _distinct_slots(query, plan) if query.distinct else None
    if query.distinct and slots is None:
        # An expression's DISTINCT key is its value: drain the plan.
        return list(plan.batches(store, meter, batch_size, tracer))
    page = limit + (query.offset or 0)
    pulled: List[Batch] = []
    keys: set = set()
    gathered = 0
    for batch in plan.batches(store, meter, min(batch_size, page), tracer):
        pulled.append(batch)
        if slots is None:
            gathered += batch.length
        else:
            keys.update(_key_column(batch.columns, slots, batch.length))
            gathered = len(keys)
        if gathered >= page:
            break
    return pulled


def _distinct_slots(query: Query, plan: PlanNode) -> Optional[Tuple[int, ...]]:
    """The plan slots of the tail's DISTINCT key (a variable the plan
    never binds is a constant, so it has none); None when some projected
    cell is an expression's value."""
    names = query.projected_names()
    if not query.select_star:
        source = {item.output_name: _variable_name(item.expression) for item in query.select_items}
        names = [source[name] for name in names]
    if None in names:
        return None
    return tuple(plan.slot_of[name] for name in names if name in plan.slot_of)


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
    here over columns of terms): the QSM's probe-group rows finish
    through exactly the code local plans finish through.
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
