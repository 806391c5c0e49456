"""The SELECT tail over columns: GROUP BY, aggregates, ORDER BY,
projection, DISTINCT, OFFSET / LIMIT.

One implementation finishes every SELECT.  A plan — local or split
federated — reaches it through :func:`~repro.sparql.evaluator.run_plan`
as dictionary-ID columns (``decode`` maps an ID to its term,
:data:`UNBOUND` marks an empty cell): the whole solution set, or under
a bare LIMIT the first batches that can fill the page.  The QSM's
probe batcher hands it columns of :class:`~repro.rdf.terms.Term`
(``decode=None``, ``None`` marks an empty cell) through
:func:`~repro.sparql.evaluator.finalize_solutions`.
Cells only have to be hashable: grouping, counting, DISTINCT and the
sort all work on them as they are, a cell is decoded when a numeric
aggregate or a sort key needs its term — once per distinct cell — and
otherwise only in the rows that survive OFFSET / LIMIT.

Ordering contract
-----------------
Groups appear in first-seen order of their key.  ORDER BY is one stable
sort per condition, last condition first, over precomputed
``(type rank, value)`` keys — unbound first, then numbers, plain
literals, IRIs, the rest; ``DESC`` reverses rank and value — so rows
that tie on every condition keep their input order and a ``LIMIT`` cuts
the same rows whatever the cell space.  ORDER BY sees the solutions
before projection (an unprojected variable can order) and, on a grouped
query, the aggregated rows.

When some expression is more than a bare variable (``SUM(?a + ?b)``,
``ORDER BY STRLEN(?n)``, ``SELECT (?x * 2 AS ?y)``) ID columns are
decoded up front and the expression evaluates per row on terms.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import IRI, Literal, Term, Variable, XSD_DOUBLE, XSD_INTEGER
from ..rdf.triples import Binding
from .ast_nodes import Aggregate, Expression, OrderCondition, Query, TermExpr
from .errors import ExpressionError
from .functions import compile_expression
from .plan import UNBOUND
from .results import SelectResult

__all__ = ["finish_columns", "tail_label"]

Columns = Dict[str, Sequence]

#: Sort key of an unbound cell or an erroring expression: first, as in SPARQL.
_UNBOUND_KEY = (0, "")


def finish_columns(
    query: Query,
    columns: Columns,
    length: int,
    decode: Optional[Callable[[int], Term]] = None,
    has_unbound: bool = True,
    cost: int = 0,
    tracer=None,
) -> SelectResult:
    """Apply ``query``'s solution modifiers to ``length`` solutions held
    as one column of cells per variable.

    ``has_unbound=False`` guarantees no cell is empty (like
    :attr:`~repro.sparql.plan.Batch.has_unbound`); True is merely
    conservative.  Under a ``tracer`` a grouping or ordering tail
    records one span named :func:`tail_label`, rows in and out.
    """
    if tracer is not None and (
        query.has_aggregates() or query.group_by or query.order_by
    ):
        with tracer.span(tail_label(query), rows_in=length) as span:
            result = finish_columns(query, columns, length, decode, has_unbound, cost)
            if span is not None:
                span.attrs["rows"] = len(result.rows)
        return result
    unbound = None if decode is None else UNBOUND
    if not _bare_variables_only(query):
        # Expressions evaluate on terms, and may leave a cell empty.
        has_unbound = True
        if decode is not None:
            columns = {
                name: [None if cell == UNBOUND else decode(cell) for cell in cells]
                for name, cells in columns.items()
            }
            decode = unbound = None
    aggregated = query.has_aggregates()
    if aggregated or query.group_by:
        columns, length = _aggregate(query, columns, length, decode, unbound, has_unbound)
        decode = unbound = None
        has_unbound = True
    order: Sequence[int] = range(length)
    if query.order_by:
        order = _order(query.order_by, columns, length, decode, unbound)
    names = query.projected_names()
    if not aggregated:
        columns = _project(query, names, columns, length)
    if query.distinct and length > 1:
        blank = [unbound] * length
        keys = list(zip(*[columns.get(name, blank) for name in names])) or [()] * length
        first: Dict[Tuple, int] = {}
        for index in order:
            first.setdefault(keys[index], index)
        order = list(first.values())
    offset = query.offset or 0
    if offset or query.limit is not None:
        order = order[offset : None if query.limit is None else offset + query.limit]
    rows = _materialize(columns, order, length, decode, has_unbound)
    return SelectResult(variables=names, rows=rows, cost=cost)


def tail_label(query: Query) -> str:
    """The tail's EXPLAIN line and ANALYZE span name."""
    parts = []
    if query.has_aggregates() or query.group_by:
        keys = ", ".join(f"?{name}" for name in query.group_by) or "-"
        parts.append(f"Group(by {keys})")
    if query.order_by:
        parts.append(f"Order[{len(query.order_by)}]")
    return " -> ".join(parts)


def _variable_name(expr: Optional[Expression]) -> Optional[str]:
    """The variable's name when ``expr`` is a bare variable."""
    if isinstance(expr, TermExpr) and isinstance(expr.term, Variable):
        return expr.term.name
    return None


def _bare_variables_only(query: Query) -> bool:
    """True when the tail never has to evaluate an expression: every
    projection, aggregate argument and sort key is a variable (or
    ``COUNT(*)``)."""
    expressions = [condition.expression for condition in query.order_by]
    for item in query.select_items:
        expr = item.expression
        if isinstance(expr, Aggregate):
            if expr.argument is None:
                continue
            expr = expr.argument
        expressions.append(expr)
    return all(_variable_name(expr) is not None for expr in expressions)


def _bindings(columns: Columns, length: int) -> Iterator[Binding]:
    """Term-space rows as solution mappings, for expression evaluation."""
    if not columns:
        return iter([{} for _ in range(length)])
    names = list(columns)
    return (
        {name: cell for name, cell in zip(names, cells) if cell is not None}
        for cells in zip(*columns.values())
    )


def _evaluated(expr: Expression, columns: Columns, length: int) -> List[Optional[Term]]:
    """``expr`` per term-space row; an erroring row yields ``None``."""
    evaluate = compile_expression(expr)
    values: List[Optional[Term]] = []
    for binding in _bindings(columns, length):
        try:
            values.append(evaluate(binding))
        except ExpressionError:
            values.append(None)
    return values


def _cells(expr: Expression, columns: Columns, length: int, unbound) -> Sequence:
    """The column ``expr`` denotes: a variable's own column (all-unbound
    when the solutions never bind it), else its per-row evaluation."""
    name = _variable_name(expr)
    if name is None:
        return _evaluated(expr, columns, length)
    return columns.get(name) or [unbound] * length


# ----------------------------------------------------------------------
# GROUP BY and aggregates
# ----------------------------------------------------------------------


def _aggregate(
    query: Query, columns: Columns, length: int, decode, unbound, has_unbound: bool
) -> Tuple[Columns, int]:
    """One term-space row per group, groups in first-seen order: the
    bound group keys, then every select item (an erroring aggregate —
    ``AVG`` over nothing numeric — leaves its cell empty)."""
    group_by = query.group_by
    if group_by:
        keys: Sequence[Tuple] = list(
            zip(*[columns.get(name) or [unbound] * length for name in group_by])
        )
        groups = list(dict.fromkeys(keys))
    else:
        # The implicit single group: one row even over no solutions.
        keys, groups = [()] * length, [()]
    term = decode or (lambda cell: cell)
    numbers: Dict[object, Optional[float]] = {}

    def number(cell) -> Optional[float]:
        """The cell's numeric value, decoded and parsed once per cell."""
        if cell not in numbers:
            value = term(cell)
            try:
                numbers[cell] = float(value.lexical) if isinstance(value, Literal) else None
            except ValueError:
                numbers[cell] = None
        return numbers[cell]

    out: Columns = {
        name: [None if key[slot] == unbound else term(key[slot]) for key in groups]
        for slot, name in enumerate(group_by)
    }
    first: Optional[Dict[Tuple, int]] = None
    for item in query.select_items:
        expr = item.expression
        if isinstance(expr, Aggregate):
            out[item.output_name] = _aggregate_column(
                expr, keys, groups, columns, length, unbound, has_unbound, number
            )
            continue
        # A plain item is constant within its group: a group key, or
        # whatever the group's first member says.
        name = _variable_name(expr)
        if name in group_by:
            out[item.output_name] = out[name]
            continue
        if first is None:
            first = dict(zip(reversed(keys), range(length - 1, -1, -1)))
        cells = _cells(expr, columns, length, unbound)
        out[item.output_name] = [
            None
            if key not in first or cells[first[key]] == unbound
            else term(cells[first[key]])
            for key in groups
        ]
    return out, len(groups)


def _aggregate_column(
    aggregate: Aggregate,
    keys: Sequence[Tuple],
    groups: Sequence[Tuple],
    columns: Columns,
    length: int,
    unbound,
    has_unbound: bool,
    number: Callable[[object], Optional[float]],
) -> List[Optional[Literal]]:
    """One aggregate's value per group.  ``COUNT`` works on the cells as
    they are; the numeric ones take each cell's value from ``number``."""
    argument = aggregate.argument
    if argument is None:
        # ``*`` is one constant per solution — also under DISTINCT,
        # where it has always counted as that one value.
        cells: Sequence = [0] * length
        every_row_counts = True
    else:
        cells = _cells(argument, columns, length, unbound)
        every_row_counts = not has_unbound and _variable_name(argument) in columns
    if aggregate.name == "COUNT":
        if every_row_counts and not aggregate.distinct:
            count = Counter(keys)
        else:
            pairs = zip(keys, cells)
            if aggregate.distinct:
                pairs = dict.fromkeys(pairs)
            count = Counter(key for key, cell in pairs if cell != unbound)
        literal = {
            n: Literal(str(n), datatype=XSD_INTEGER) for n in {0, *count.values()}
        }
        return [literal[count[key]] for key in groups]
    if argument is None:
        return [None] * len(groups)  # SUM(*) and friends have nothing to add up
    members: Dict[Tuple, List] = {key: [] for key in groups}
    for key, cell in zip(keys, cells):
        if cell != unbound:
            members[key].append(cell)
    return [
        _numeric_aggregate(
            aggregate.name,
            [
                value
                for value in map(
                    number,
                    dict.fromkeys(members[key]) if aggregate.distinct else members[key],
                )
                if value is not None
            ],
        )
        for key in groups
    ]


def _numeric_aggregate(name: str, values: List[float]) -> Optional[Literal]:
    if name == "SUM":
        return _int_or_double(sum(values))
    if not values:
        return None
    if name == "MIN":
        return _int_or_double(min(values))
    if name == "MAX":
        return _int_or_double(max(values))
    if name == "AVG":
        return _int_or_double(sum(values) / len(values))
    return None


def _int_or_double(value: float) -> Literal:
    if float(value).is_integer():
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(value), datatype=XSD_DOUBLE)


# ----------------------------------------------------------------------
# ORDER BY
# ----------------------------------------------------------------------


def _order(
    conditions: Sequence[OrderCondition], columns: Columns, length: int, decode, unbound
) -> List[int]:
    """Row indexes in ORDER BY order (see the module's ordering contract)."""
    order = list(range(length))
    for condition in reversed(conditions):
        cells = _cells(condition.expression, columns, length, unbound)
        if decode is None:
            keys = [
                _UNBOUND_KEY if cell is None else _orderable(cell) for cell in cells
            ]
        else:
            # IDs hash for free: one decode and one key per distinct cell.
            key_of = {
                cell: _UNBOUND_KEY if cell == UNBOUND else _orderable(decode(cell))
                for cell in set(cells)
            }
            keys = list(map(key_of.__getitem__, cells))
        order.sort(key=keys.__getitem__, reverse=not condition.ascending)
    return order


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


# ----------------------------------------------------------------------
# Projection and materialization
# ----------------------------------------------------------------------


def _project(query: Query, names: Sequence[str], columns: Columns, length: int) -> Columns:
    if query.select_star:
        return {name: columns[name] for name in names if name in columns}
    projected: Columns = {}
    for item in query.select_items:
        name = _variable_name(item.expression)
        if name is None:
            projected[item.output_name] = _evaluated(item.expression, columns, length)
        elif name in columns:
            projected[item.output_name] = columns[name]
    return projected


def _materialize(
    columns: Columns, order: Sequence[int], length: int, decode, has_unbound: bool
) -> List[Binding]:
    """Rows ``order`` as solution mappings — the only place a surviving
    row's cells are decoded."""
    if not columns:
        return [{} for _ in order]
    names = list(columns)
    if len(order) == length and isinstance(order, range):
        picked = list(columns.values())
    else:
        picked = [map(cells.__getitem__, order) for cells in columns.values()]
    if not has_unbound:
        if decode is not None:
            picked = [map(decode, cells) for cells in picked]
        # Width-specialized dict displays: BUILD_MAP over a C zip is
        # several times faster per row than dict(zip(...)), and this
        # loop dominates large-result queries.
        if len(names) == 1:
            (n0,) = names
            return [{n0: a} for a in picked[0]]
        if len(names) == 2:
            n0, n1 = names
            return [{n0: a, n1: b} for a, b in zip(*picked)]
        if len(names) == 3:
            n0, n1, n2 = names
            return [{n0: a, n1: b, n2: c} for a, b, c in zip(*picked)]
        return [dict(zip(names, cells)) for cells in zip(*picked)]
    if decode is not None:
        picked = [
            [None if cell == UNBOUND else decode(cell) for cell in cells]
            for cells in picked
        ]
    return [
        {name: cell for name, cell in zip(names, cells) if cell is not None}
        for cells in zip(*picked)
    ]
