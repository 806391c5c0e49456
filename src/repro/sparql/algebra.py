"""Logical query algebra: the shared middle of the query pipeline.

Every consumer of the SPARQL engine — the local evaluator, the
in-process federation, and HTTP-federated execution — runs the same
four stages::

    parse  →  logical algebra  →  optimize  →  physical execution
    (parser.py)  (this module)   (this module     (plan.py /
                                  + plan.py)       federation/fedx.py)

This module owns stage two and the logical half of stage three: the
algebra node types, the translation from the concrete-syntax AST
(:class:`~repro.sparql.ast_nodes.GraphPattern`) into algebra trees, and
the semantics-preserving rewrite rules applied by :func:`normalize` —
duplicate-pattern deduplication, empty-group elimination, and filter
pushdown.  Physical operator selection (hash vs. bind joins, remote
batching) happens in :mod:`~repro.sparql.plan` and
:mod:`~repro.federation.fedx`, both of which compile these logical
trees.

Node inventory
--------------
* :class:`BGP` — a basic graph pattern (``BGP([])`` is the unit table:
  exactly one empty solution).
* :class:`Join` / :class:`LeftJoin` — inner and left-outer join
  (OPTIONAL translates to LeftJoin).
* :class:`Union` — alternation; branches need not bind the same
  variables.
* :class:`Minus` — anti-join; solutions of the left side are dropped
  when a compatible right-side solution shares at least one bound
  variable.
* :class:`ValuesTable` — inline data (``None`` cells are UNDEF).
* :class:`Filter` — expression constraint over its child.
* :class:`Empty` — the empty solution set (no rows); the normalizer's
  annihilator.
* :class:`Project` / :class:`Distinct` / :class:`OrderBy` /
  :class:`Slice` — the solution-modifier wrappers produced by
  :func:`translate_query`.

Variable accounting
-------------------
``variables()`` is the set a node *may* bind, in first-appearance
order.  ``maybe_unbound()`` is the subset not guaranteed to be bound in
every solution (UNION branches that skip a variable, UNDEF cells,
OPTIONAL extensions).  Physical planners use the distinction: joining
on a maybe-unbound variable needs SPARQL compatibility semantics, which
a hash join over IDs cannot express, so those joins get the nested-loop
compatibility operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..rdf.terms import Term
from ..rdf.triples import Binding, TriplePattern
from .ast_nodes import Expression, GraphPattern, OrderCondition, Query, ValuesClause

__all__ = [
    "AlgebraNode",
    "BGP",
    "Join",
    "LeftJoin",
    "Union",
    "Minus",
    "ValuesTable",
    "Filter",
    "Empty",
    "Project",
    "Distinct",
    "OrderBy",
    "Slice",
    "translate_group",
    "translate_query",
    "bind_group",
    "normalize",
    "conjuncts",
    "algebra_text",
]


class AlgebraNode:
    """Base class for logical algebra nodes."""

    def variables(self) -> Tuple[str, ...]:
        """Variables this node may bind, in first-appearance order."""
        raise NotImplementedError

    def maybe_unbound(self) -> frozenset:
        """Variables not guaranteed bound in every solution."""
        return frozenset()

    def certain_variables(self) -> Tuple[str, ...]:
        """Variables bound in every solution this node produces."""
        unbound = self.maybe_unbound()
        return tuple(name for name in self.variables() if name not in unbound)

    def children(self) -> Sequence["AlgebraNode"]:
        return ()

    def label(self) -> str:
        raise NotImplementedError


def _merge_names(*groups: Sequence[str]) -> Tuple[str, ...]:
    names: List[str] = []
    for group in groups:
        for name in group:
            if name not in names:
                names.append(name)
    return tuple(names)


@dataclass
class BGP(AlgebraNode):
    """A basic graph pattern.  ``BGP([])`` is the unit table."""

    patterns: List[TriplePattern] = field(default_factory=list)

    def variables(self) -> Tuple[str, ...]:
        return _merge_names(*(p.variables() for p in self.patterns))

    def label(self) -> str:
        if not self.patterns:
            return "Unit"
        return f"BGP[{len(self.patterns)}]"


@dataclass
class Join(AlgebraNode):
    """Inner join of two sub-solutions on their shared variables."""

    left: AlgebraNode
    right: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return _merge_names(self.left.variables(), self.right.variables())

    def maybe_unbound(self) -> frozenset:
        # A variable certain on either side is bound in every joined row.
        left_mu, right_mu = self.left.maybe_unbound(), self.right.maybe_unbound()
        certain = set(self.left.certain_variables()) | set(self.right.certain_variables())
        return frozenset((left_mu | right_mu) - certain)

    def children(self) -> Sequence[AlgebraNode]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Join"


@dataclass
class LeftJoin(AlgebraNode):
    """Left outer join (OPTIONAL): right-side bindings may be absent.

    ``group`` is the OPTIONAL's own syntax, kept for the planner that
    must evaluate it per left row (:func:`bind_group`)."""

    left: AlgebraNode
    right: AlgebraNode
    group: Optional[GraphPattern] = None

    def variables(self) -> Tuple[str, ...]:
        return _merge_names(self.left.variables(), self.right.variables())

    def maybe_unbound(self) -> frozenset:
        optional_only = set(self.right.variables()) - set(self.left.certain_variables())
        return frozenset(self.left.maybe_unbound() | optional_only)

    def children(self) -> Sequence[AlgebraNode]:
        return (self.left, self.right)

    def label(self) -> str:
        return "LeftJoin"


@dataclass
class Union(AlgebraNode):
    """Alternation: the bag union of all branch solutions."""

    branches: List[AlgebraNode]

    def variables(self) -> Tuple[str, ...]:
        return _merge_names(*(b.variables() for b in self.branches))

    def maybe_unbound(self) -> frozenset:
        if not self.branches:
            return frozenset()
        certain_everywhere = set(self.branches[0].certain_variables())
        for branch in self.branches[1:]:
            certain_everywhere &= set(branch.certain_variables())
        return frozenset(set(self.variables()) - certain_everywhere)

    def children(self) -> Sequence[AlgebraNode]:
        return tuple(self.branches)

    def label(self) -> str:
        return f"Union[{len(self.branches)}]"


@dataclass
class Minus(AlgebraNode):
    """Anti-join: drop left solutions with a compatible right solution
    sharing at least one bound variable (SPARQL MINUS semantics)."""

    left: AlgebraNode
    right: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return self.left.variables()  # MINUS never binds

    def maybe_unbound(self) -> frozenset:
        return self.left.maybe_unbound()

    def children(self) -> Sequence[AlgebraNode]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Minus"


@dataclass
class ValuesTable(AlgebraNode):
    """Inline solution rows; ``None`` cells are UNDEF.  ``pinned``
    marks a table :func:`bind_group` injected (it is never metered)."""

    names: Tuple[str, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]
    pinned: bool = False

    def variables(self) -> Tuple[str, ...]:
        return self.names

    def maybe_unbound(self) -> frozenset:
        return frozenset(
            name
            for position, name in enumerate(self.names)
            if any(row[position] is None for row in self.rows)
        )

    def label(self) -> str:
        return f"Values[{len(self.rows)}x{len(self.names)}]"


@dataclass
class Filter(AlgebraNode):
    """Keep child solutions for which the expression is true (errors
    drop the row, per the SPARQL spec)."""

    expression: Expression
    child: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return self.child.variables()

    def maybe_unbound(self) -> frozenset:
        return self.child.maybe_unbound()

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def label(self) -> str:
        return "Filter"


@dataclass
class Empty(AlgebraNode):
    """The empty solution set: no rows, under any store."""

    def variables(self) -> Tuple[str, ...]:
        return ()

    def label(self) -> str:
        return "Empty"


# ----------------------------------------------------------------------
# Solution modifiers (produced by translate_query)
# ----------------------------------------------------------------------


@dataclass
class Project(AlgebraNode):
    """Restrict solutions to the projected names."""

    names: Tuple[str, ...]
    child: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return self.names

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def label(self) -> str:
        return "Project(" + ", ".join(f"?{n}" for n in self.names) + ")"


@dataclass
class Distinct(AlgebraNode):
    child: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return self.child.variables()

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def label(self) -> str:
        return "Distinct"


@dataclass
class OrderBy(AlgebraNode):
    conditions: List[OrderCondition]
    child: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return self.child.variables()

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def label(self) -> str:
        return f"OrderBy[{len(self.conditions)}]"


@dataclass
class Slice(AlgebraNode):
    offset: int
    limit: Optional[int]
    child: AlgebraNode

    def variables(self) -> Tuple[str, ...]:
        return self.child.variables()

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        if self.offset:
            parts.append(f"offset={self.offset}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return "Slice(" + " ".join(parts) + ")"


# ----------------------------------------------------------------------
# Translation: concrete-syntax AST -> logical algebra
# ----------------------------------------------------------------------


def translate_group(group: GraphPattern) -> AlgebraNode:
    """Translate one group graph pattern into a logical algebra tree.

    Operator order within a group (this engine's documented subset
    semantics, matched by the engine and the tests' reference solver):
    the basic graph pattern joins with VALUES tables and UNION blocks,
    filters apply, MINUS groups subtract, and OPTIONALs extend last.
    """
    node: AlgebraNode = BGP(list(group.patterns))
    for clause in group.values:
        node = Join(
            node, ValuesTable(tuple(clause.variables), tuple(clause.rows), clause.pinned)
        )
    for branches in group.unions:
        node = Join(node, Union([translate_group(branch) for branch in branches]))
    for expr in group.filters:
        node = Filter(expr, node)
    for minus in group.minuses:
        node = Minus(node, translate_group(minus))
    for optional in group.optionals:
        node = LeftJoin(node, translate_group(optional), optional)
    return node


def bind_group(group: GraphPattern, solution: Binding) -> GraphPattern:
    """Copy ``group`` with ``solution`` pinned, as a one-row VALUES
    table, at every level that reads one of its variables.

    This is how an OPTIONAL sees its base solution from inside: the
    per-solution left join plans the bound copy, so filters and patterns
    nested in the group's own UNION branches and OPTIONALs read the
    outer bindings.  MINUS groups stay untouched — they are evaluated
    uncorrelated — but the level they subtract from pins what they bind.
    """
    bound = GraphPattern(
        patterns=list(group.patterns),
        filters=list(group.filters),
        optionals=[bind_group(optional, solution) for optional in group.optionals],
        unions=[
            [bind_group(branch, solution) for branch in branches]
            for branches in group.unions
        ],
        minuses=list(group.minuses),
        values=list(group.values),
    )
    read: List[str] = []
    for part in group.patterns + group.filters:
        read.extend(part.variables())
    for clause in group.values:
        read.extend(clause.variables)
    for minus in group.minuses:
        read.extend(minus.variables())
    shared = tuple(name for name in dict.fromkeys(read) if name in solution)
    if shared:
        row = tuple(solution[name] for name in shared)
        bound.values.append(ValuesClause(shared, (row,), pinned=True))
    return bound


def translate_query(query: Query) -> AlgebraNode:
    """Translate a full query into algebra, modifiers included."""
    node = translate_group(query.where)
    if query.order_by:
        node = OrderBy(list(query.order_by), node)
    node = Project(tuple(query.projected_names()), node)
    if query.distinct:
        node = Distinct(node)
    if query.offset or query.limit is not None:
        node = Slice(query.offset or 0, query.limit, node)
    return node


# ----------------------------------------------------------------------
# Normalization: semantics-preserving rewrites
# ----------------------------------------------------------------------


def normalize(node: AlgebraNode) -> AlgebraNode:
    """Apply the rewrite rules bottom-up until the tree is stable.

    * **Duplicate-pattern dedup** — a BGP repeating the same triple
      pattern joins a solution set with itself: every shared variable
      is a join key, so the multiset is unchanged and the copy is
      dropped.  (This is also what keeps the federation from fetching
      and joining the same pattern twice.)
    * **Empty-group elimination** — ``Empty`` annihilates joins and
      vanishes from unions; a zero-row VALUES block becomes ``Empty``;
      single-branch unions unwrap; the unit BGP is a join identity;
      a MINUS whose right side is empty or shares no variable with the
      left is dropped.
    * **Filter pushdown** — filters sink through joins into the side
      that binds all their variables (certainly — a maybe-unbound
      variable blocks the push), into every UNION branch, and through
      the left side of MINUS.
    """
    if isinstance(node, (Project, Distinct, OrderBy, Slice)):
        node.child = normalize(node.child)
        return node
    if isinstance(node, BGP):
        node.patterns = list(dict.fromkeys(node.patterns))
        return node
    if isinstance(node, ValuesTable):
        return Empty() if not node.rows else node
    if isinstance(node, Join):
        left, right = normalize(node.left), normalize(node.right)
        if isinstance(left, Empty) or isinstance(right, Empty):
            return Empty()
        if isinstance(left, BGP) and not left.patterns:
            return right
        if isinstance(right, BGP) and not right.patterns:
            return left
        if isinstance(left, BGP) and isinstance(right, BGP):
            return normalize(BGP(left.patterns + right.patterns))
        return Join(left, right)
    if isinstance(node, Union):
        branches = [normalize(branch) for branch in node.branches]
        branches = [b for b in branches if not isinstance(b, Empty)]
        if not branches:
            return Empty()
        if len(branches) == 1:
            return branches[0]
        return Union(branches)
    if isinstance(node, Minus):
        left, right = normalize(node.left), normalize(node.right)
        if isinstance(left, Empty):
            return Empty()
        if isinstance(right, Empty):
            return left
        if not set(left.variables()) & set(right.variables()):
            # Disjoint domains are never "compatible with a shared
            # binding", so the subtraction cannot remove anything.
            return left
        return Minus(left, right)
    if isinstance(node, LeftJoin):
        left, right = normalize(node.left), normalize(node.right)
        if isinstance(left, Empty):
            return Empty()
        if isinstance(right, Empty):
            return left
        return LeftJoin(left, right, node.group)
    if isinstance(node, Filter):
        child = normalize(node.child)
        if isinstance(child, Empty):
            return Empty()
        return _push_filter(node.expression, child)
    return node


def _push_filter(expr: Expression, node: AlgebraNode) -> AlgebraNode:
    """Sink one filter as deep as its variables allow."""
    needed = set(expr.variables())
    if isinstance(node, Join):
        for attr in ("left", "right"):
            side = getattr(node, attr)
            if needed <= set(side.variables()) and not needed & side.maybe_unbound():
                setattr(node, attr, _push_filter(expr, side))
                return node
        return Filter(expr, node)
    if isinstance(node, Union):
        node.branches = [_push_filter(expr, branch) for branch in node.branches]
        return node
    if isinstance(node, Minus):
        node.left = _push_filter(expr, node.left)
        return node
    if isinstance(node, Filter):
        # Keep filter chains flat-ish: sink below sibling filters so
        # structural nodes stay adjacent to their constraints.
        node.child = _push_filter(expr, node.child)
        return node
    return Filter(expr, node)


def conjuncts(node: AlgebraNode) -> List[AlgebraNode]:
    """Flatten a Join tree into its conjunct list (filters preserved
    in place on their subtrees)."""
    if isinstance(node, Join):
        return conjuncts(node.left) + conjuncts(node.right)
    return [node]


def algebra_text(node: AlgebraNode, indent: int = 0) -> str:
    """Render a logical tree, one node per line (EXPLAIN surface)."""
    pad = "  " * indent
    line = f"{pad}{node.label()}"
    if isinstance(node, Filter):
        from .serializer import serialize_expression

        line = f"{pad}Filter({serialize_expression(node.expression)})"
    elif isinstance(node, BGP) and node.patterns:
        line = f"{pad}BGP(" + " . ".join(
            " ".join(term.n3() for term in p.as_tuple()) for p in node.patterns
        ) + ")"
    lines = [line]
    for child in node.children():
        lines.append(algebra_text(child, indent + 1))
    return "\n".join(lines)
