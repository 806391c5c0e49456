"""The row-at-a-time SELECT tail, kept as the executable specification.

This is the tail ``repro.sparql.evaluator.finalize_solutions`` was
before the columnar :mod:`repro.sparql.tail` replaced it: one dict per
solution, ``evaluate_expression`` per cell, one decorated sort.  The
``reference_evaluate`` fixture finishes the term-space solver's
solutions through it, so every parity test holds the optimised engine —
rows *and order* — to an implementation that shares no code with it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.rdf.terms import IRI, Literal, Term, XSD_DOUBLE, XSD_INTEGER
from repro.rdf.triples import Binding
from repro.sparql.ast_nodes import Aggregate, OrderCondition, Query
from repro.sparql.errors import EvaluationError, ExpressionError
from repro.sparql.results import SelectResult

from reference_expressions import evaluate_expression


def _ref_aggregate(query: Query, solutions: List[Binding]) -> List[Binding]:
    groups: Dict[Tuple, List[Binding]] = {}
    if query.group_by:
        for solution in solutions:
            key = tuple(solution.get(name) for name in query.group_by)
            groups.setdefault(key, []).append(solution)
    else:
        # Implicit single group (COUNT over the whole solution set);
        # SPARQL still yields one row when there are no solutions.
        groups[()] = solutions

    rows: List[Binding] = []
    for key, members in groups.items():
        row: Binding = {}
        for name, value in zip(query.group_by, key):
            if value is not None:
                row[name] = value
        for item in query.select_items:
            if item.is_aggregate():
                try:
                    row[item.output_name] = _compute_aggregate(item.expression, members)  # type: ignore[arg-type]
                except EvaluationError:
                    # SPARQL: an erroring aggregate (e.g. AVG over an
                    # empty group) leaves the variable unbound.
                    continue
            else:
                # A grouped plain variable: constant within the group.
                try:
                    row[item.output_name] = evaluate_expression(
                        item.expression, members[0] if members else {}
                    )
                except ExpressionError:
                    continue
        rows.append(row)
    return rows

def _ref_order(rows: List[Binding], conditions: Sequence[OrderCondition]) -> List[Binding]:
    decorated = [(_ref_sort_key(row, conditions), i, row) for i, row in enumerate(rows)]
    decorated.sort(key=lambda entry: (entry[0], entry[1]))
    return [row for _, _, row in decorated]

def _ref_sort_key(row: Binding, conditions: Sequence[OrderCondition]) -> Tuple:
    key: List = []
    for condition in conditions:
        try:
            term = evaluate_expression(condition.expression, row)
            rank, value = _orderable(term)
        except ExpressionError:
            rank, value = (0, "")  # unbound sorts first, as in SPARQL
        if not condition.ascending:
            rank = -rank
            value = _Reversed(value)
        key.append((rank, value))
    return tuple(key)



class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        try:
            return other.value < self.value
        except TypeError:
            return str(other.value) < str(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _orderable(term: Term) -> Tuple[int, object]:
    """Map a term to a (type-rank, comparable) pair for stable sorting."""
    if isinstance(term, Literal):
        try:
            if term.is_numeric() or term.lexical.strip().lstrip("+-").replace(".", "", 1).isdigit():
                return (1, float(term.lexical))
        except ValueError:
            pass
        return (2, term.lexical)
    if isinstance(term, IRI):
        return (3, term.value)
    return (4, str(term))


def _distinct(rows: List[Binding], names: Sequence[str]) -> List[Binding]:
    seen = set()
    unique: List[Binding] = []
    for row in rows:
        key = tuple(row.get(name) for name in names)
        if key in seen:
            continue
        seen.add(key)
        unique.append(row)
    return unique



def _compute_aggregate(aggregate: Aggregate, members: List[Binding]) -> Term:
    if aggregate.name == "COUNT":
        if aggregate.argument is None:
            values: List[Term] = [Literal("1")] * len(members)
        else:
            values = _agg_values(aggregate, members)
        if aggregate.distinct:
            values = list(dict.fromkeys(values))
        return Literal(str(len(values)), datatype=XSD_INTEGER)

    values = _agg_values(aggregate, members)
    if aggregate.distinct:
        values = list(dict.fromkeys(values))
    numbers: List[float] = []
    for value in values:
        if isinstance(value, Literal):
            try:
                numbers.append(float(value.lexical))
            except ValueError:
                continue
    if aggregate.name == "SUM":
        return _int_or_double(sum(numbers))
    if not numbers:
        raise EvaluationError(f"{aggregate.name} over empty/non-numeric group")
    if aggregate.name == "MIN":
        return _int_or_double(min(numbers))
    if aggregate.name == "MAX":
        return _int_or_double(max(numbers))
    if aggregate.name == "AVG":
        return _int_or_double(sum(numbers) / len(numbers))
    raise EvaluationError(f"unsupported aggregate {aggregate.name}")


def _agg_values(aggregate: Aggregate, members: List[Binding]) -> List[Term]:
    values: List[Term] = []
    assert aggregate.argument is not None
    for member in members:
        try:
            values.append(evaluate_expression(aggregate.argument, member))
        except ExpressionError:
            continue
    return values


def _int_or_double(value: float) -> Literal:
    if float(value).is_integer():
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(value), datatype=XSD_DOUBLE)



def reference_finalize(query: Query, solutions: List[Binding], cost: int = 0) -> SelectResult:
    """Aggregate, ORDER BY (pre-projection, so unprojected variables can
    order), projection, DISTINCT, OFFSET/LIMIT — a dict per solution, a
    sort key per row."""
    if query.has_aggregates() or query.group_by:
        rows = _ref_aggregate(query, solutions)
    else:
        rows = solutions
    if query.order_by:
        rows = _ref_order(rows, query.order_by)
    names = query.projected_names()
    if not query.has_aggregates():
        rows = [_ref_project(row, query, names) for row in rows]
    if query.distinct:
        rows = _distinct(rows, names)
    offset = query.offset or 0
    if offset:
        rows = rows[offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return SelectResult(variables=names, rows=rows, cost=cost)


def _ref_project(row: Binding, query: Query, names: Sequence[str]) -> Binding:
    if query.select_star:
        return {name: row[name] for name in names if name in row}
    projected: Binding = {}
    for item in query.select_items:
        try:
            projected[item.output_name] = evaluate_expression(item.expression, row)
        except ExpressionError:
            continue  # unbound projection variable: leave the cell empty
    return projected
