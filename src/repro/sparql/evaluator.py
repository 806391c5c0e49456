"""SPARQL query evaluation over a :class:`~repro.store.TripleStore`.

The front door of the four-stage pipeline (parse → logical algebra →
optimize → physical execution).  :class:`QueryEvaluator` parses, hands
the WHERE group to the shared optimizer
(:class:`~repro.sparql.plan.QueryPlanner`, which translates and
normalizes through :mod:`~repro.sparql.algebra`), and streams the
resulting physical plan; GROUP BY, aggregates and ORDER BY finish
through the one columnar tail (:mod:`~repro.sparql.tail`).  Shapes the
ID-space operators cannot express run through the term-space fallback
below — also the executable reference the tests hold the batch engine
to — which implements:

* BGP matching as a backtracking index-nested-loop join.  Patterns are
  reordered greedily by estimated cardinality given the variables already
  bound — the classic selectivity heuristic — so that e.g. Appendix A's
  Q6 touches the small ``?s a <Type>`` candidate set before the broad
  ``?s ?p ?o`` one.
* FILTERs pushed to the earliest join position at which all their
  variables are bound (errors drop the row, per the SPARQL spec).
* UNION, inline VALUES data (with UNDEF) and MINUS, with full SPARQL
  compatibility semantics for partially bound solutions.
* OPTIONAL, correlated: the group is solved once per base solution,
  with that solution's bindings.
* Cost metering: every index probe charges the meter, so a budgeted
  endpoint aborts long evaluations exactly like a remote timeout.

Group operator order (both paths agree; see
:func:`~repro.sparql.algebra.translate_group`): basic patterns join
with VALUES and UNION blocks, filters apply, MINUS groups subtract,
OPTIONALs extend last.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import IRI, Variable
from ..rdf.triples import Binding, TriplePattern
from ..store.triplestore import CostMeter, TripleStore
from .algebra import algebra_text, normalize, translate_group
from .ast_nodes import Expression, GraphPattern, Query, TermExpr, ValuesClause
from .errors import ExpressionError
from .functions import effective_boolean_value, evaluate_expression
from .parser import parse_query
from .plan import DEFAULT_BATCH_SIZE, QueryPlanner, explain_plan, refresh_plan_estimates
from .results import AskResult, SelectResult
from .tail import finish_columns, tail_label
from .trace import Tracer

__all__ = ["QueryEvaluator", "evaluate", "finalize_solutions"]

#: Sentinel distinguishing "no plan computed yet" from "planner said None".
_PLAN_UNSET = object()


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

    Top-level groups, their OPTIONALs included, run through the
    cost-based hash/bind-join planner in :mod:`~repro.sparql.plan`;
    groups the planner declines fall back to the term-space backtracking
    join below (OPTIONALs then extend each base solution in turn).

    ``batch_size`` (>= 1) is the row count per
    :class:`~repro.sparql.plan.Batch`; tests lower it to force
    DISTINCT/LIMIT cuts in the middle of a batch.
    """

    def __init__(self, store: TripleStore, *, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self._planner = QueryPlanner(store)
        # Physical plans keyed by (group identity, budget, with or
        # without the OPTIONALs).  The value
        # pins a strong reference to the group so its ``id`` can never
        # be recycled, and records the store generation the plan was
        # built against: re-planning after a write keeps cardinality
        # estimates (and NO_ID encodings of previously-unseen constants)
        # honest.  Repeated evaluation of the same parsed query —
        # endpoints serving a hot query, benchmarks, the suggestion
        # cache — skips the planner entirely.
        self._plan_cache: Dict[Tuple[int, Optional[int], bool], Tuple[object, object, object]] = {}

    def _plan_group(
        self, group: GraphPattern, budget: Optional[int], tracer=None, optionals: bool = True
    ):
        """Plan ``group`` under ``budget``, memoized per (group, budget,
        store generation).  ``None`` verdicts (shapes the planner cannot
        express) are cached too — they are just as expensive to recompute.
        ``optionals=False`` plans the base the per-solution OPTIONAL
        fallback extends."""
        key = (id(group), budget, optionals)
        generation = getattr(self.store, "generation", None)
        entry = self._plan_cache.get(key)
        if entry is not None and entry[0] is group and entry[1] == generation:
            if tracer is not None:
                tracer.event("plan-cache", hit=True)
            return entry[2]
        if tracer is not None:
            tracer.event("plan-cache", hit=False)
        plan = self._planner.plan(group, budget=budget, optionals=optionals)
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
            for _ in self._solve_group(query.where, {}, meter, tracer=tracer):
                return AskResult(True, cost=meter.cost)
            return AskResult(False, cost=meter.cost)
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
        plan = self._plan_group(parsed.where, meter.budget, tracer)
        if plan is not None:
            refresh_plan_estimates(plan, self.store)
        result = self.evaluate(parsed, meter, tracer=tracer)
        trace = tracer.finish()
        trace.attrs["cost"] = meter.cost
        return result, trace

    def explain(self, query: "Query | str", budget: Optional[int] = None) -> str:
        """Human-readable plan dump for ``query`` (no execution).

        The first line summarizes the solution modifiers; the tree below
        it is the planner's operator pipeline — OPTIONALs as left outer
        joins, and a ``Tail`` line when GROUP BY / aggregates / ORDER BY
        finish the query — or the backtracker's greedy pattern order
        when the group falls back.  Only an OPTIONAL the planner
        declined is listed as ``Optional:`` after the base plan: that
        one runs through the backtracker, once per base solution.

        Pass the same ``budget`` the evaluation will run under (endpoints
        do) — strategy choice is budget-aware, so an unbudgeted EXPLAIN
        can show hash joins a guarded execution would replace with bind
        joins.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        lines = [self._explain_header(parsed)]
        if parsed.has_aggregates() or parsed.group_by or parsed.order_by:
            lines.append(f"{tail_label(parsed)}  [columns]")
        lines.append(self._explain_group(parsed.where, budget=budget))
        return "\n".join(lines)

    def _explain_header(self, query: Query) -> str:
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

    def _explain_group(
        self,
        group: GraphPattern,
        indent: int = 0,
        planned: bool = True,
        budget: Optional[int] = None,
    ) -> str:
        pad = "  " * indent
        plan = self._plan_group(group, budget) if planned else None
        if plan is not None:
            return explain_plan(plan, indent)
        if planned and group.optionals:
            plan = self._plan_group(group, budget, optionals=False)
        if plan is not None:
            text = explain_plan(plan, indent)
        elif not group.is_basic():
            # Compound group the ID-space operators could not cover:
            # show the normalized logical tree the term-space fallback
            # will execute.
            logical = normalize(translate_group(group, include_optionals=False))
            text = (
                f"{pad}TermSpaceFallback:\n"
                f"{algebra_text(logical, indent + 1)}"
            )
        elif group.patterns:
            order = _order_patterns(self.store, group.patterns, set())
            steps = " -> ".join(
                " ".join(term.n3() for term in pattern.as_tuple())
                for pattern in order
            )
            text = f"{pad}Backtrack({steps})"
        else:
            text = f"{pad}Empty()"
        for optional in group.optionals:
            # Reached only when the planner declined the group: these
            # run through the backtracker, once per base solution, with
            # its bindings.
            text += (
                f"\n{pad}Optional:\n"
                f"{self._explain_group(optional, indent + 1, planned=False)}"
            )
        return text

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------

    def _evaluate_select(
        self, query: Query, meter: CostMeter, tracer: Optional[Tracer] = None
    ) -> SelectResult:
        if not (query.has_aggregates() or query.group_by or query.order_by):
            return self._evaluate_select_streaming(query, meter, tracer)
        plan = self._plan_group(query.where, meter.budget, tracer)
        if plan is None:
            solutions = list(
                self._solve_group(query.where, {}, meter, prepared_plan=None, tracer=tracer)
            )
            return finalize_solutions(query, solutions, cost=meter.cost, tracer=tracer)
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
            self.store.dictionary.terms.__getitem__,
            any(batch.has_unbound for batch in batches),
            cost=meter.cost,
            tracer=tracer,
        )

    def _evaluate_select_streaming(
        self, query: Query, meter: CostMeter, tracer: Optional[Tracer] = None
    ) -> SelectResult:
        """Pipeline for queries without aggregation or ordering.

        Solutions stream straight out of the join (planner or
        backtracker), are projected and deduplicated on the fly, and the
        iteration stops as soon as OFFSET + LIMIT rows have been
        produced — the early termination that keeps paged Appendix-A
        retrieval (Q6/Q7-style ``LIMIT .. OFFSET ..``) cheap.
        """
        names = query.projected_names()
        plan = self._plan_group(query.where, meter.budget, tracer)
        if plan is not None:
            items = self._plain_variable_items(query)
            if items is not None:
                return self._select_from_plan(
                    query, plan, names, items, meter, tracer
                )
        projected = (
            self._project(solution, query, names)
            for solution in self._solve_group(
                query.where, {}, meter, prepared_plan=plan, tracer=tracer
            )
        )
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
        decode = store.decode_id
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
        projection happens column-at-a-time against the dictionary's
        ``terms`` list instead of per-cell ``decode_id`` calls.
        """
        store = self.store
        terms = store.dictionary.terms
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
                    [None if cell < 0 else terms[cell] for cell in columns[slot]]
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
                decoded = [
                    map(terms.__getitem__, columns[slot])
                    for _, slot in live_pairs
                ]
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

    def _project(self, row: Binding, query: Query, names: Sequence[str]) -> Binding:
        if query.select_star:
            return {name: row[name] for name in names if name in row}
        projected: Binding = {}
        for item in query.select_items:
            try:
                projected[item.output_name] = evaluate_expression(item.expression, row)
            except ExpressionError:
                # Unbound projection variable: leave the cell empty.
                continue
        return projected

    # ------------------------------------------------------------------
    # Group pattern solving
    # ------------------------------------------------------------------

    def _solve_group(
        self,
        group: GraphPattern,
        initial: Binding,
        meter: CostMeter,
        prepared_plan=_PLAN_UNSET,
        tracer: Optional[Tracer] = None,
    ) -> Iterator[Binding]:
        """Solve one group graph pattern: the planned operators, or the
        term-space fallback with OPTIONALs applied per base solution.

        The planner covers top-level groups (no initial bindings),
        OPTIONAL/UNION/VALUES/MINUS included; it returns ``None`` for
        the shapes it cannot express and those — plus the sub-groups
        the fallback itself solves, which arrive with bindings — run
        through the term-space path below.  ``prepared_plan`` carries
        a plan (or the ``None`` verdict) a caller already computed, so
        a query is never planned twice.
        """
        plan = base = None
        if not initial:
            plan = (
                self._plan_group(group, meter.budget, tracer)
                if prepared_plan is _PLAN_UNSET
                else prepared_plan
            )
            if plan is None and group.optionals:
                base = self._plan_group(group, meter.budget, tracer, optionals=False)
        if plan is not None or not group.optionals:
            yield from self._solve_base(group, initial, meter, plan, tracer)
            return
        for solution in self._solve_base(group, initial, meter, base, tracer):
            yield from self._apply_optionals(group.optionals, solution, meter)

    def _solve_base(
        self,
        group: GraphPattern,
        initial: Binding,
        meter: CostMeter,
        plan,
        tracer: Optional[Tracer] = None,
    ) -> Iterator[Binding]:
        """Decoded solutions of ``plan``, or of the term-space solver
        over ``group`` (its OPTIONALs left to the caller) without one."""
        if plan is None:
            yield from self._solve_term_space(group, initial, meter)
            return
        store = self.store
        names = plan.variables
        terms = store.dictionary.terms
        for batch in plan.batches(store, meter, self.batch_size, tracer):
            if batch.has_unbound:
                for row in batch.iter_raw():
                    yield {
                        name: terms[term_id]
                        for name, term_id in zip(names, row)
                        if term_id >= 0
                    }
            else:
                for row in batch.iter_raw():
                    yield {
                        name: terms[term_id]
                        for name, term_id in zip(names, row)
                    }

    def _solve_term_space(
        self,
        group: GraphPattern,
        initial: Binding,
        meter: CostMeter,
    ) -> Iterator[Binding]:
        """Fallback composition in term space: backtrack over the basic
        patterns, then join VALUES tables and UNION chains, apply the
        filters that had to wait for their variables, subtract MINUS
        groups.  Implements full compatibility semantics (an unbound
        variable is compatible with anything), which is exactly what
        the ID-space operators cannot express.
        """
        pattern_vars = set(initial)
        for pattern in group.patterns:
            pattern_vars.update(pattern.variables())
        early: List[Expression] = []
        late: List[Expression] = []
        for expr in group.filters:
            target = early if set(expr.variables()) <= pattern_vars else late
            target.append(expr)

        solutions = self._solve_backtrack(group.patterns, early, initial, meter)
        for clause in group.values:
            solutions = self._join_values(solutions, clause, meter)
        for branches in group.unions:
            solutions = self._join_union(solutions, branches, meter)
        for expr in late:
            solutions = (
                solution for solution in solutions if _filter_passes(expr, solution)
            )
        for minus in group.minuses:
            solutions = self._apply_minus(solutions, minus, meter)
        yield from solutions

    def _join_values(
        self,
        solutions: Iterator[Binding],
        clause: ValuesClause,
        meter: CostMeter,
    ) -> Iterator[Binding]:
        rows = clause.bindings()
        for solution in solutions:
            for row in rows:
                meter.charge(1)
                merged = _merge_compatible(solution, row)
                if merged is not None:
                    yield merged

    def _join_union(
        self,
        solutions: Iterator[Binding],
        branches: Sequence[GraphPattern],
        meter: CostMeter,
    ) -> Iterator[Binding]:
        for solution in solutions:
            for branch in branches:
                # Solving with the current solution as initial bindings
                # pins the shared variables, which is join compatibility.
                yield from self._solve_group(branch, solution, meter)

    def _apply_minus(
        self,
        solutions: Iterator[Binding],
        minus: GraphPattern,
        meter: CostMeter,
    ) -> Iterator[Binding]:
        excluders: Optional[List[Binding]] = None
        for solution in solutions:
            if excluders is None:
                # MINUS groups are uncorrelated: evaluated once, with
                # no bindings flowing in from the left side.
                excluders = list(self._solve_group(minus, {}, meter))
            if not any(_minus_excludes(solution, other) for other in excluders):
                yield solution

    def _solve_backtrack(
        self,
        patterns: Sequence[TriplePattern],
        filters: Sequence[Expression],
        initial: Binding,
        meter: CostMeter,
    ) -> Iterator[Binding]:
        """Backtracking index-nested-loop join, entirely in ID space.

        Patterns are encoded once (``store.encode_pattern``) and the
        backtracker binds variable names to dictionary IDs — every probe,
        comparison and hash during the join is over plain ints.  Terms
        are decoded only when a FILTER needs evaluating at its join depth
        and when a complete solution is materialized.  Initially bound
        terms the store has never interned pin their variable to
        ``NO_ID``, which matches nothing, while filters keep seeing the
        original term through the decoded view.
        """
        store = self.store
        filters = list(filters)
        order = _order_patterns(store, patterns, set(initial.keys()))
        filter_positions = _assign_filters(order, filters, set(initial.keys()))

        encoded = [store.encode_pattern(pattern) for pattern in order]
        initial_ids = {name: store.term_id(term) for name, term in initial.items()}

        def decode_binding(id_binding: Dict[str, int]) -> Binding:
            decoded = dict(initial)
            decode = store.decode_id
            for name, term_id in id_binding.items():
                if name not in decoded:
                    decoded[name] = decode(term_id)
            return decoded

        def backtrack(index: int, id_binding: Dict[str, int]) -> Iterator[Binding]:
            ready = filter_positions.get(index)
            decoded = None
            if ready:  # filters whose variables are all bound at this depth
                decoded = decode_binding(id_binding)
                for expr in ready:
                    if not _filter_passes(expr, decoded):
                        return
            if index == len(encoded):
                # Complete solution: reuse the filter decode if one just
                # happened rather than decoding the same binding twice.
                yield decoded if decoded is not None else decode_binding(id_binding)
                return
            probe: List[Optional[int]] = [None, None, None]
            free: List[Tuple[int, str]] = []
            for position, entry in enumerate(encoded[index]):
                if isinstance(entry, str):
                    bound = id_binding.get(entry)
                    if bound is not None:
                        probe[position] = bound
                    else:
                        free.append((position, entry))
                else:
                    probe[position] = entry
            for row in store.match_ids(probe[0], probe[1], probe[2], meter):
                merged = dict(id_binding)
                consistent = True
                for position, name in free:
                    value = row[position]
                    seen = merged.get(name)
                    if seen is not None and seen != value:
                        consistent = False  # repeated variable mismatch
                        break
                    merged[name] = value
                if consistent:
                    yield from backtrack(index + 1, merged)

        yield from backtrack(0, initial_ids)

    def _apply_optionals(
        self,
        optionals: Sequence[GraphPattern],
        solution: Binding,
        meter: CostMeter,
    ) -> Iterator[Binding]:
        current = [solution]
        for optional in optionals:
            extended: List[Binding] = []
            for row in current:
                matches = list(self._solve_group(optional, row, meter))
                extended.extend(matches if matches else [row])
            current = extended
        yield from current


def _filter_passes(expr: Expression, binding: Binding) -> bool:
    try:
        return effective_boolean_value(evaluate_expression(expr, binding))
    except ExpressionError:
        return False


def _merge_compatible(left: Binding, right: Binding) -> Optional[Binding]:
    """Join two solutions; None when a shared variable disagrees."""
    for name, value in right.items():
        if name in left and left[name] != value:
            return None
    merged = dict(left)
    merged.update(right)
    return merged


def _minus_excludes(solution: Binding, excluder: Binding) -> bool:
    """SPARQL MINUS: the excluder removes ``solution`` when they agree
    on at least one shared variable and disagree on none."""
    common = False
    for name, value in excluder.items():
        if name in solution:
            if solution[name] != value:
                return False
            common = True
    return common


def _order_patterns(
    store: TripleStore,
    patterns: Sequence[TriplePattern],
    bound: set,
) -> List[TriplePattern]:
    """Greedy selectivity ordering.

    Repeatedly picks the remaining pattern with the smallest cardinality
    estimate, treating variables bound by already-chosen patterns as
    constants for estimation purposes (estimated via the most selective
    concrete position).
    """
    remaining = list(patterns)
    ordered: List[TriplePattern] = []
    bound_now = set(bound)

    def estimate(pattern: TriplePattern) -> Tuple[int, int]:
        # Positions whose variable is already bound act like constants but
        # we cannot know the constant yet; approximate by halving.
        concrete = pattern.bind({name: IRI("urn:bound") for name in bound_now
                                 if name in pattern.variables()})
        free_vars = sum(1 for v in concrete.variables())
        raw = store.cardinality_estimate(pattern)
        # Patterns sharing bound variables join more selectively.
        shared = len(set(pattern.variables()) & bound_now)
        return (raw >> shared, free_vars)

    while remaining:
        best_index = min(range(len(remaining)), key=lambda i: estimate(remaining[i]))
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound_now.update(chosen.variables())
    return ordered


def _assign_filters(
    order: Sequence[TriplePattern],
    filters: Sequence[Expression],
    initially_bound: set,
) -> Dict[int, List[Expression]]:
    """Map join depth -> filters whose variables are all bound at that depth."""
    positions: Dict[int, List[Expression]] = {}
    bound = set(initially_bound)
    depth_of_var: Dict[str, int] = {name: 0 for name in bound}
    for depth, pattern in enumerate(order, start=1):
        for name in pattern.variables():
            depth_of_var.setdefault(name, depth)
    last_depth = len(order)
    for expr in filters:
        needed = expr.variables()
        depth = max((depth_of_var.get(name, last_depth) for name in needed), default=0)
        positions.setdefault(depth, []).append(expr)
    return positions


def finalize_solutions(
    query: Query, solutions: List[Binding], cost: int = 0, tracer: Optional[Tracer] = None
) -> SelectResult:
    """Apply a query's solution modifiers to solutions held as mappings.

    A thin caller of the one tail (:func:`~repro.sparql.tail.finish_columns`,
    here over columns of terms): the federated processor's remote rows,
    the QSM's probe-group rows and the term-space fallback's solutions
    finish through exactly the code local plans finish through.
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
