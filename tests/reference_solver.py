"""The term-space group solver, kept as the executable specification.

This is the solver ``repro.sparql.evaluator`` fell back to for every
shape the planner declined, before the planner became total: moved
here verbatim (methods turned functions of ``store``), meter charges
included.  It backtracks over the basic patterns in ID space, joins
VALUES tables and UNION chains, applies the filters that had to wait
for their variables, subtracts MINUS groups — with full compatibility
semantics for partially bound solutions — and extends each base
solution through its OPTIONALs in turn, solving the optional group
with that solution's bindings.  ``tests/conftest.py`` finishes its
solutions through ``reference_tail.reference_finalize``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import IRI
from repro.rdf.triples import Binding, TriplePattern
from repro.sparql.ast_nodes import Expression, GraphPattern, ValuesClause
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import effective_boolean_value
from repro.store.triplestore import CostMeter, TripleStore

from reference_expressions import evaluate_expression


def solve_group(
    store: TripleStore, group: GraphPattern, initial: Binding, meter: CostMeter
) -> Iterator[Binding]:
    """Solve one group graph pattern: the term-space composition, then
    its OPTIONALs applied per base solution."""
    for solution in _solve_term_space(store, group, initial, meter):
        yield from apply_optionals(store, group.optionals, solution, meter)


def _solve_term_space(
    store: TripleStore, group: GraphPattern, initial: Binding, meter: CostMeter
) -> Iterator[Binding]:
    pattern_vars = set(initial)
    for pattern in group.patterns:
        pattern_vars.update(pattern.variables())
    early: List[Expression] = []
    late: List[Expression] = []
    for expr in group.filters:
        target = early if set(expr.variables()) <= pattern_vars else late
        target.append(expr)

    solutions = _solve_backtrack(store, group.patterns, early, initial, meter)
    for clause in group.values:
        solutions = _join_values(solutions, clause, meter)
    for branches in group.unions:
        solutions = _join_union(store, solutions, branches, meter)
    for expr in late:
        solutions = (
            solution for solution in solutions if _filter_passes(expr, solution)
        )
    for minus in group.minuses:
        solutions = _apply_minus(store, solutions, minus, meter)
    yield from solutions


def _join_values(
    solutions: Iterator[Binding], clause: ValuesClause, meter: CostMeter
) -> Iterator[Binding]:
    rows = clause.bindings()
    for solution in solutions:
        for row in rows:
            meter.charge(1)
            merged = _merge_compatible(solution, row)
            if merged is not None:
                yield merged


def _join_union(
    store: TripleStore,
    solutions: Iterator[Binding],
    branches: Sequence[GraphPattern],
    meter: CostMeter,
) -> Iterator[Binding]:
    for solution in solutions:
        for branch in branches:
            # Solving with the current solution as initial bindings
            # pins the shared variables, which is join compatibility.
            yield from solve_group(store, branch, solution, meter)


def _apply_minus(
    store: TripleStore,
    solutions: Iterator[Binding],
    minus: GraphPattern,
    meter: CostMeter,
) -> Iterator[Binding]:
    excluders: Optional[List[Binding]] = None
    for solution in solutions:
        if excluders is None:
            # MINUS groups are uncorrelated: evaluated once, with
            # no bindings flowing in from the left side.
            excluders = list(solve_group(store, minus, {}, meter))
        if not any(_minus_excludes(solution, other) for other in excluders):
            yield solution


def _solve_backtrack(
    store: TripleStore,
    patterns: Sequence[TriplePattern],
    filters: Sequence[Expression],
    initial: Binding,
    meter: CostMeter,
) -> Iterator[Binding]:
    """Backtracking index-nested-loop join, entirely in ID space.

    Patterns are encoded once and the backtracker binds variable names
    to dictionary IDs; terms are decoded only when a FILTER needs
    evaluating at its join depth and when a complete solution is
    materialized.  Initially bound terms the store has never interned
    pin their variable to ``NO_ID``, which matches nothing, while
    filters keep seeing the original term through the decoded view.
    """
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


def apply_optionals(
    store: TripleStore,
    optionals: Sequence[GraphPattern],
    solution: Binding,
    meter: CostMeter,
) -> Iterator[Binding]:
    current = [solution]
    for optional in optionals:
        extended: List[Binding] = []
        for row in current:
            matches = list(solve_group(store, optional, row, meter))
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
    store: TripleStore, patterns: Sequence[TriplePattern], bound: set
) -> List[TriplePattern]:
    """Greedy selectivity ordering: repeatedly pick the remaining
    pattern with the smallest cardinality estimate, halved per variable
    already bound by the chosen ones."""
    remaining = list(patterns)
    ordered: List[TriplePattern] = []
    bound_now = set(bound)

    def estimate(pattern: TriplePattern) -> Tuple[int, int]:
        concrete = pattern.bind({name: IRI("urn:bound") for name in bound_now
                                 if name in pattern.variables()})
        free_vars = sum(1 for v in concrete.variables())
        raw = store.cardinality_estimate(pattern)
        shared = len(set(pattern.variables()) & bound_now)
        return (raw >> shared, free_vars)

    while remaining:
        best_index = min(range(len(remaining)), key=lambda i: estimate(remaining[i]))
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound_now.update(chosen.variables())
    return ordered


def _assign_filters(
    order: Sequence[TriplePattern], filters: Sequence[Expression], initially_bound: set
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
