"""Abstract syntax tree for the supported SPARQL subset.

The AST is deliberately small: SELECT/ASK queries over graph patterns
with FILTERs, one level of OPTIONAL, ``UNION`` alternatives, ``MINUS``
exclusions and inline ``VALUES`` data, plus the solution modifiers the
paper's queries need (DISTINCT, GROUP BY, ORDER BY, LIMIT, OFFSET) and
COUNT aggregation.  Expression nodes form their own small hierarchy
compiled by ``functions.compile_expression``.

The AST stays close to the concrete syntax; the logical algebra the
engine actually optimizes and executes lives in
:mod:`~repro.sparql.algebra` (``translate_group`` maps one to the
other).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..rdf.terms import Term, Variable
from ..rdf.triples import TriplePattern

__all__ = [
    "Expression",
    "TermExpr",
    "UnaryExpr",
    "BinaryExpr",
    "FunctionCall",
    "Aggregate",
    "SelectItem",
    "OrderCondition",
    "ValuesClause",
    "GraphPattern",
    "Query",
]


class Expression:
    """Base class for expression AST nodes."""


    def variables(self) -> Tuple[str, ...]:
        """Names of variables mentioned anywhere in this expression."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class TermExpr(Expression):
    """A constant term or a variable reference."""

    term: Term


    def variables(self) -> Tuple[str, ...]:
        if isinstance(self.term, Variable):
            return (self.term.name,)
        return ()


@dataclass(frozen=True, slots=True)
class UnaryExpr(Expression):
    """``!expr`` or unary minus."""

    op: str
    operand: Expression


    def variables(self) -> Tuple[str, ...]:
        return self.operand.variables()


@dataclass(frozen=True, slots=True)
class BinaryExpr(Expression):
    """Logical, comparison, or arithmetic binary operation."""

    op: str
    left: Expression
    right: Expression


    def variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.left.variables() + self.right.variables()))


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A built-in function call (name is upper-cased at parse time)."""

    name: str
    args: Tuple[Expression, ...]


    def variables(self) -> Tuple[str, ...]:
        names: List[str] = []
        for arg in self.args:
            for name in arg.variables():
                if name not in names:
                    names.append(name)
        return tuple(names)


@dataclass(frozen=True, slots=True)
class Aggregate(Expression):
    """An aggregate expression.  Only COUNT is needed by the paper.

    ``argument`` is None for ``COUNT(*)``; ``distinct`` mirrors
    ``COUNT(DISTINCT ?x)``.
    """

    name: str
    argument: Optional[Expression]
    distinct: bool = False


    def variables(self) -> Tuple[str, ...]:
        return self.argument.variables() if self.argument is not None else ()


@dataclass(frozen=True, slots=True)
class SelectItem:
    """One projection item: a plain variable or ``(expr AS ?alias)``."""

    expression: Expression
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias is not None:
            return self.alias
        if isinstance(self.expression, TermExpr) and isinstance(self.expression.term, Variable):
            return self.expression.term.name
        raise ValueError("non-variable projection requires an AS alias")

    def is_aggregate(self) -> bool:
        return isinstance(self.expression, Aggregate)


@dataclass(frozen=True, slots=True)
class OrderCondition:
    """One ORDER BY condition."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True, slots=True)
class ValuesClause:
    """An inline data block: ``VALUES (?x ?y) { (a b) (UNDEF c) }``.

    ``rows`` holds one tuple per data row, aligned with ``variables``;
    ``None`` marks an ``UNDEF`` cell (the variable stays unbound in that
    solution).  ``pinned`` marks a base solution's bindings injected by
    :func:`~repro.sparql.algebra.bind_group`, not written in the query.
    """

    variables: Tuple[str, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]
    pinned: bool = False

    def bindings(self) -> List[dict]:
        """The block as solution mappings (UNDEF cells omitted)."""
        return [
            {
                name: value
                for name, value in zip(self.variables, row)
                if value is not None
            }
            for row in self.rows
        ]


@dataclass
class GraphPattern:
    """A group graph pattern.

    ``patterns`` and ``filters`` form the basic graph pattern;
    ``optionals`` holds OPTIONAL sub-patterns (one level, which is all
    the reproduced workloads require); ``unions`` holds UNION chains —
    each entry is the list of alternative branches of one
    ``{ A } UNION { B } [UNION { C } ...]`` block; ``minuses`` holds
    ``MINUS { ... }`` exclusion groups and ``values`` the inline
    ``VALUES`` data blocks.
    """

    patterns: List[TriplePattern] = field(default_factory=list)
    filters: List[Expression] = field(default_factory=list)
    optionals: List["GraphPattern"] = field(default_factory=list)
    unions: List[List["GraphPattern"]] = field(default_factory=list)
    minuses: List["GraphPattern"] = field(default_factory=list)
    values: List[ValuesClause] = field(default_factory=list)

    def variables(self) -> Tuple[str, ...]:
        """Variables this group can bind (MINUS groups never bind)."""
        names: List[str] = []

        def extend(more) -> None:
            for name in more:
                if name not in names:
                    names.append(name)

        for pattern in self.patterns:
            extend(pattern.variables())
        for clause in self.values:
            extend(clause.variables)
        for branches in self.unions:
            for branch in branches:
                extend(branch.variables())
        for opt in self.optionals:
            extend(opt.variables())
        return tuple(names)


@dataclass
class Query:
    """A parsed SPARQL query."""

    form: str  # "SELECT" or "ASK"
    select_items: List[SelectItem] = field(default_factory=list)
    select_star: bool = False
    distinct: bool = False
    where: GraphPattern = field(default_factory=GraphPattern)
    group_by: List[str] = field(default_factory=list)
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None

    def has_aggregates(self) -> bool:
        return any(item.is_aggregate() for item in self.select_items)

    def projected_names(self) -> List[str]:
        if self.select_star:
            return list(self.where.variables())
        return [item.output_name for item in self.select_items]
