"""The SELECT tail: GROUP BY, aggregates, ORDER BY, projection,
DISTINCT, OFFSET / LIMIT — one fold over the solutions as they arrive.

:func:`finish` finishes every SELECT.  It takes the solutions as
*chunks* — one column of cells per variable, the same variables in
every chunk — one at a time, and keeps only what the answer needs: a
grouped query, per-group accumulators; a bare LIMIT, its rows until
OFFSET + LIMIT of them (under DISTINCT, of distinct projected keys)
are in, when it stops pulling; ORDER BY under LIMIT without DISTINCT,
the page (past twice the page, a stable sort of the rows held is cut
to it: the survivors came first, so every later sort orders them as
one full sort would); DISTINCT, unless an unprojected variable or an
expression orders it, each projected key's first row; anything else,
its rows.  A row of a counted join (:func:`counted`) stands for as
many solutions as its :data:`~repro.sparql.plan.MULTIPLICITY` cell
says, and COUNT adds that.  A plan — local or split
federated — sends one chunk of dictionary IDs per batch through
:func:`~repro.sparql.evaluator.run_plan` (``decode`` maps an ID to its
term, :data:`UNBOUND` marks an empty cell); the QSM's probe batcher one
chunk of :class:`~repro.rdf.terms.Term` columns (``decode=None``,
``None`` marks an empty cell) through :func:`finish_columns`.  Cells
only have to be hashable: a cell is decoded when a numeric aggregate or
a sort key needs its term — once per distinct cell — and otherwise only
in the rows that survive OFFSET / LIMIT.

Ordering contract
-----------------
Groups appear in first-seen order of their key.  ORDER BY is one stable
sort per condition, last condition first, over precomputed
``(type rank, value)`` keys — unbound first, then numbers, plain
literals, IRIs, the rest; ``DESC`` reverses rank and value — so rows
that tie on every condition keep their input order and a ``LIMIT`` cuts
the same rows whatever the cell space.  ORDER BY sees the solutions
before projection (an unprojected variable can order) and, on a grouped
query, the aggregated rows.  SUM is ``0 + v1 + v2 + ...`` in arrival
order on every interpreter (``sum()`` compensates since Python 3.12).

When some expression is more than a bare variable (``SUM(?a + ?b)``,
``ORDER BY STRLEN(?n)``, ``SELECT (?x * 2 AS ?y)``) each chunk is
decoded as it arrives and the expression evaluates per row on terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import IRI, Literal, Term, Variable, XSD_DOUBLE, XSD_INTEGER
from ..rdf.triples import Binding
from .ast_nodes import Aggregate, Expression, GraphPattern, OrderCondition, Query, SelectItem, TermExpr
from .errors import ExpressionError
from .functions import compile_expression
from .plan import MULTIPLICITY, UNBOUND, PlanNode, count_joins
from .results import SelectResult

__all__ = ["counted", "finish", "finish_columns", "tail_label"]

Columns = Dict[str, Sequence]
#: ``length`` solutions as one column of cells per variable, and whether
#: a cell may be empty (False is a guarantee, like
#: :attr:`~repro.sparql.plan.Batch.has_unbound`; True merely conservative).
Chunk = Tuple[Columns, int, bool]


def finish(
    query: Query, chunks: Iterable[Chunk], decode: Optional[Callable[[int], Term]] = None,
    tracer=None,
) -> SelectResult:
    """Apply ``query``'s solution modifiers to the solutions ``chunks``
    yields, pulling no chunk the answer does not need.  Under a
    ``tracer`` a grouping or ordering tail records one span named
    :func:`tail_label`, rows in and out, around the whole fold — so
    around the spans of whatever produces the chunks."""
    label = tail_label(query)
    if tracer is None or not label:
        return _fold(query, iter(chunks), decode)
    rows_in = 0

    def tallied() -> Iterator[Chunk]:
        nonlocal rows_in
        for chunk in chunks:
            rows_in += chunk[1]
            yield chunk

    with tracer.span(label) as span:
        result = _fold(query, tallied(), decode)
        if span is not None:
            span.attrs.update(rows_in=rows_in, rows=len(result.rows))
    return result


def finish_columns(
    query: Query, columns: Columns, length: int, decode: Optional[Callable[[int], Term]] = None,
    has_unbound: bool = True, cost: int = 0, tracer=None,
) -> SelectResult:
    """:func:`finish` over one chunk."""
    result = finish(query, [(columns, length, has_unbound)], decode, tracer)
    result.cost = cost
    return result


def tail_label(query: Query) -> str:
    """The tail's EXPLAIN line and ANALYZE span name; empty when the
    tail neither groups nor orders."""
    parts = []
    if query.has_aggregates() or query.group_by:
        keys = ", ".join(f"?{name}" for name in query.group_by) or "-"
        parts.append(f"Group(by {keys})")
    if query.order_by:
        parts.append(f"Order[{len(query.order_by)}]")
    return " -> ".join(parts)


def counted(query: Query, plan: PlanNode) -> Tuple[Query, PlanNode]:
    """``query`` and ``plan`` with a bind join counted instead of
    enumerated (:func:`~repro.sparql.plan.count_joins`) where the answer
    cannot tell: a grouped SELECT whose aggregates are all COUNTs, over
    a pattern whose fresh variables occur nowhere else in the query —
    no other pattern, FILTER, VALUES, projection, GROUP BY or ORDER BY
    — but as the argument of a non-DISTINCT COUNT.  Such a variable is
    bound in every solution, so its COUNT becomes ``COUNT(*)``, which
    folds the rows' multiplicities.  Anything else comes back as it
    was."""
    if query.form != "SELECT" or query.select_star or not (query.has_aggregates() or query.group_by):
        return query, plan
    if not _bare_variables_only(query):
        return query, plan
    read = set(query.group_by)
    for item in query.select_items:
        expr = item.expression
        if isinstance(expr, Aggregate):
            if expr.name != "COUNT":
                return query, plan
            if not expr.distinct:
                continue  # a bare variable or ``*``: the fold reads it as a count
        read.update(expr.variables())
    for condition in query.order_by:
        read.update(condition.expression.variables())
    mentions = Counter(_mentions(query.where))

    def countable(join) -> bool:
        fresh = join.variables[len(join.left.variables):]
        return all(name not in read and mentions[name] == 1 for name in fresh)

    rewritten = count_joins(plan, countable)
    if rewritten is None:
        return query, plan
    gone = set(plan.variables).difference(rewritten.variables)
    items = [
        SelectItem(Aggregate("COUNT", None), item.alias)
        if isinstance(item.expression, Aggregate) and _variable_name(item.expression.argument) in gone
        else item
        for item in query.select_items
    ]
    return replace(query, select_items=items), rewritten


def _mentions(group: GraphPattern) -> Iterator[str]:
    """Every variable occurrence in ``group``: one per triple pattern
    position, FILTER, VALUES column and nested group mention."""
    for pattern in group.patterns:
        yield from pattern.variables()
    for expr in group.filters:
        yield from expr.variables()
    for clause in group.values:
        yield from clause.variables
    for nested in [*group.optionals, *group.minuses, *(b for bs in group.unions for b in bs)]:
        yield from _mentions(nested)


def _fold(query: Query, chunks: Iterator[Chunk], decode) -> SelectResult:
    unbound = None if decode is None else UNBOUND
    if not _bare_variables_only(query):
        chunks = _on_terms(chunks, decode)
        decode = unbound = None
    names = query.projected_names()
    offset = query.offset or 0
    page = None if query.limit is None else offset + query.limit
    aggregated = query.has_aggregates()
    memo: Dict[object, Tuple[int, object]] = {}
    if aggregated or query.group_by:
        columns, length = _groups(query, chunks, decode, unbound)
        if decode is not None:
            decode = _or_term(decode)
        has_unbound = True
        # A row per group: distinct already when it shows every group key.
        shown = _shown(query)
        deduped = shown is None or set(query.group_by) <= shown
    else:
        deduped = query.distinct and _first_rows_only(query)
        columns, length, has_unbound = _rows(
            query, names, chunks, decode, unbound, memo, page, deduped
        )
    order: Sequence[int] = range(length)
    if query.order_by:
        order = _order(query.order_by, columns, length, decode, unbound, memo)
    if not aggregated:
        columns = _project(query, names, columns, length)
    if query.distinct and length > 1 and not deduped:
        keys = _distinct_keys(columns, names, length, unbound)
        first: Dict[Tuple, int] = {}
        for index in order:
            first.setdefault(keys[index], index)
        order = list(first.values())
    if offset or page is not None:
        order = order[offset:page]
    rows = _materialize(columns, order, length, decode, has_unbound)
    return SelectResult(variables=names, rows=rows)


def _on_terms(chunks: Iterator[Chunk], decode) -> Iterator[Chunk]:
    """The chunks over terms (``None`` for an empty cell), flagged
    maybe-unbound: an expression may leave a cell empty."""
    for columns, length, _ in chunks:
        if decode is not None:
            columns = {
                name: [None if cell == UNBOUND else decode(cell) for cell in cells]
                for name, cells in columns.items()
            }
        yield columns, length, True


def _rows(
    query: Query, names, chunks: Iterator[Chunk], decode, unbound, memo, page: Optional[int],
    first_only: bool,
) -> Chunk:
    """The rows an ungrouped query keeps: with ``first_only`` (DISTINCT,
    where the order cannot tell a key's rows apart:
    :func:`_first_rows_only`), each projected key's first row as the
    chunks arrive; under a bare LIMIT, the chunks
    until ``page`` rows — under DISTINCT, distinct projected keys — are
    in; under ORDER BY, LIMIT and no DISTINCT, the page, cut from a
    stable sort whenever more than twice the page is held; else all."""
    need = None if query.order_by or page is None else page if query.limit else 0
    cut = page if query.order_by and not query.distinct else None
    seen: set = set()
    held: List[Chunk] = []
    kept = 0
    while need is None or kept < need:
        chunk = next(chunks, None)
        if chunk is None:
            break
        columns, length, has_unbound = chunk
        if first_only:
            projected = _project(query, names, columns, length)
            keys = _distinct_keys(projected, names, length, unbound)
            first = [index for index, key in enumerate(keys) if key not in seen and not seen.add(key)]
            if len(first) < length:
                columns = {name: [cells[index] for index in first] for name, cells in columns.items()}
                chunk = columns, len(first), has_unbound
            kept = len(seen)
        else:
            kept += length
        held.append(chunk)
        if cut is not None and kept > 2 * cut:
            columns, length, has_unbound = _joined(held)
            order = _order(query.order_by, columns, length, decode, unbound, memo)[:cut]
            taken = {name: [cells[index] for index in order] for name, cells in columns.items()}
            held, kept = [(taken, len(order), has_unbound)], len(order)
    return _joined(held)


def _first_rows_only(query: Query) -> bool:
    """Whether DISTINCT's answer is each projected key's first row in
    arrival order: true without ORDER BY, and when every ORDER BY key is
    a projected variable — a key's rows then tie on every condition and
    the stable sort keeps the first one first."""
    if not query.order_by:
        return True
    shown = _shown(query)
    return all(
        _variable_name(condition.expression) is not None
        and (shown is None or _variable_name(condition.expression) in shown)
        for condition in query.order_by
    )


def _shown(query: Query) -> Optional[set]:
    """The variables the projection shows as themselves; None for
    ``SELECT *``, which shows them all."""
    if query.select_star:
        return None
    return {
        _variable_name(item.expression) for item in query.select_items
        if _variable_name(item.expression) == item.output_name
    }


def _joined(chunks: List[Chunk]) -> Chunk:
    """The chunks as one (a lone chunk as it came)."""
    if len(chunks) == 1:
        return chunks[0]
    columns = {name: cells[:0] for name, cells in chunks[0][0].items()} if chunks else {}
    for part, _, _ in chunks:
        for name, cells in columns.items():
            cells.extend(part[name])
    return columns, sum(chunk[1] for chunk in chunks), any(chunk[2] for chunk in chunks)


def _distinct_keys(columns: Columns, names: Sequence[str], length: int, unbound) -> List[Tuple]:
    """DISTINCT's key per row: the projected cells (a variable no
    solution binds is one empty cell)."""
    blank = [unbound] * length
    return list(zip(*[columns.get(name, blank) for name in names])) or [()] * length


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


def _evaluated(expr: Expression, columns: Columns, length: int) -> List[Optional[Term]]:
    """``expr`` per term-space row; an erroring row yields ``None``."""
    evaluate = compile_expression(expr)
    names = list(columns)
    values: List[Optional[Term]] = []
    for cells in zip(*columns.values()) if columns else repeat((), length):
        try:
            values.append(evaluate({name: cell for name, cell in zip(names, cells) if cell is not None}))
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


def _groups(query: Query, chunks: Iterator[Chunk], decode, unbound) -> Tuple[Columns, int]:
    """One row per group, groups in first-seen order: the group keys,
    then every select item, each folding the chunks into per-group state
    as they arrive — COUNT a ``Counter`` (never decoding; a row adds its
    :data:`~repro.sparql.plan.MULTIPLICITY` where a counted join gave it
    one), SUM / AVG / MIN / MAX ``[sum, n, min, max]``, a plain item its
    group's first cell; a DISTINCT aggregate reads each ``(key, cell)``
    pair once.  Keys and plain items stay IDs until a row survives the
    page cut or is sorted on; aggregates are terms.  An erroring
    aggregate (``AVG`` over nothing numeric) leaves its cell empty."""
    group_by = query.group_by
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

    # (output name, expression, per-group state, (key, cell) pairs
    # seen); a group key has no state: it is its group's own cell.
    items = [
        (item.output_name, item.expression,
         None if _variable_name(item.expression) in group_by else Counter(), set())
        for item in query.select_items
    ]
    # The implicit single group: one row even over no solutions.
    groups: Dict[object, None] = {} if group_by else {(): None}
    for columns, length, has_unbound in chunks:
        weights = columns.get(MULTIPLICITY)
        keys: Sequence = [()] * length
        if group_by:
            cells = [columns.get(name) or [unbound] * length for name in group_by]
            # One key variable: its cells are the keys, no tuple per row.
            keys = cells[0] if len(cells) == 1 else list(zip(*cells))
            groups.update(dict.fromkeys(keys))
        for _, expr, state, seen in items:
            if state is None:
                continue
            if not isinstance(expr, Aggregate):
                cells = _cells(expr, columns, length, unbound)
                for key, cell in dict(zip(reversed(keys), reversed(cells))).items():
                    state.setdefault(key, cell)
            elif expr.argument is None and expr.name != "COUNT":
                continue  # SUM(*) and friends have nothing to add up
            else:
                # ``*`` is one constant per solution — also under DISTINCT,
                # where it counts as that one value.
                argument = expr.argument
                cells = repeat(0, length) if argument is None else _cells(argument, columns, length, unbound)
                if expr.name != "COUNT":
                    _add_numbers(state, seen if expr.distinct else None, keys, cells, unbound, number)
                elif expr.distinct:
                    seen.update(zip(keys, cells))
                elif weights is not None:
                    for key, cell, weight in zip(keys, cells, weights):
                        if cell != unbound:
                            state[key] += weight
                elif argument is None or (not has_unbound and _variable_name(argument) in columns):
                    state.update(keys)
                else:
                    state.update(key for key, cell in zip(keys, cells) if cell != unbound)
    slots = [list(groups)] if len(group_by) == 1 else list(zip(*groups)) or [()] * len(group_by)
    out: Columns = dict(zip(group_by, slots))
    for name, expr, state, seen in items:
        if state is None:
            out[name] = out[_variable_name(expr)]
        elif not isinstance(expr, Aggregate):
            out[name] = [state.get(key, unbound) for key in groups]
        elif expr.name == "COUNT":
            count = Counter(key for key, cell in seen if cell != unbound) if expr.distinct else state
            literal = {n: Literal(str(n), datatype=XSD_INTEGER) for n in {0, *count.values()}}
            out[name] = [literal[count[key]] for key in groups]
        else:
            values = [_numeric(expr.name, state.get(key)) for key in groups]
            out[name] = [unbound if value is None else value for value in values]
    return out, len(groups)


def _or_term(decode: Callable[[int], Term]) -> Callable[[object], Term]:
    """``decode`` over a grouped row's cells, an aggregate's a term already."""
    return lambda cell: cell if isinstance(cell, Term) else decode(cell)


def _add_numbers(folds, seen: Optional[set], keys, cells, unbound, number) -> None:
    """Fold each bound, numeric cell into its group's ``[sum, n, min,
    max]`` in arrival order (``0 + v1 + v2 + ...``), each ``(key, cell)``
    pair once when ``seen`` is a set."""
    for key, cell in zip(keys, cells):
        if cell == unbound or (seen is not None and (key, cell) in seen):
            continue
        if seen is not None:
            seen.add((key, cell))
        value = number(cell)
        if value is not None:
            fold = folds.setdefault(key, [0, 0, value, value])
            fold[0] += value
            fold[1] += 1
            fold[2], fold[3] = min(fold[2], value), max(fold[3], value)


def _numeric(name: str, fold: Optional[list]) -> Optional[Literal]:
    """SUM, AVG, MIN or MAX of a group's fold; over nothing numeric, SUM
    is 0 and the others err (an empty cell)."""
    if fold is None:
        return _int_or_double(0) if name == "SUM" else None
    total, n, low, high = fold
    return _int_or_double({"SUM": total, "AVG": total / n, "MIN": low, "MAX": high}[name])


def _int_or_double(value: float) -> Literal:
    if float(value).is_integer():
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(value), datatype=XSD_DOUBLE)


# ----------------------------------------------------------------------
# ORDER BY
# ----------------------------------------------------------------------


def _order(
    conditions: Sequence[OrderCondition], columns: Columns, length: int, decode, unbound, memo
) -> List[int]:
    """Row indexes in ORDER BY order (see the module's ordering
    contract).  ``memo`` holds each cell's sort key across calls, so a
    distinct cell is decoded and keyed once however often it is sorted."""
    order = list(range(length))
    for condition in reversed(conditions):
        cells = _cells(condition.expression, columns, length, unbound)
        for cell in set(cells).difference(memo):
            # An unbound cell (or an erroring expression) sorts first, as in SPARQL.
            memo[cell] = (0, "") if cell == unbound else _orderable(decode(cell) if decode else cell)
        keys = list(map(memo.__getitem__, cells))
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
