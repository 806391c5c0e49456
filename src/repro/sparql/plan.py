"""Physical query plans: operator selection and ID-space execution.

This is stage four of the shared pipeline (parse → logical algebra →
optimize → physical execution; see :mod:`~repro.sparql.algebra` for
stages two and three).  :class:`QueryPlanner` compiles a normalized
logical tree into a tree of streaming physical operators.  Execution is
**batched and columnar**: operators exchange :class:`Batch` objects —
tuples of ``array('q')`` ID columns plus a length — via the
:meth:`PlanNode.batches` contract, and terms are decoded only for
FILTER evaluation and final materialization.  Every operator has one
producer, ``_produce_batches``, and one empty-cell marker,
:data:`UNBOUND`; an operator that works a row at a time (the
compatibility joins, the per-solution OPTIONAL, the federation's
remote fetches) reads its children's batches row by row and hands its
rows to :func:`_chunked`.

Plan nodes
----------
* :class:`ScanNode` — one triple pattern streamed off a backend index,
  with same-pattern repeated-variable checks and pushed-down FILTERs.
* :class:`HashJoinNode` — builds a hash table over the (smaller) right
  input keyed by the shared variables, then streams the left input
  through it.  Each pattern is scanned exactly once.  With no keys it
  degrades to the cross product (used for disjoint VALUES tables).
* :class:`BindJoinNode` — the index-nested-loop strategy: probe the
  store once per left row with the shared variables bound.  Chosen when
  the left input is estimated to be much smaller than a full scan of
  the right pattern, which keeps selective queries (and their cost-meter
  profile) identical to the seed path.
* :class:`UnionNode` — concatenates branch streams, padding variables a
  branch does not bind with :data:`UNBOUND`.
* :class:`MinusNode` — anti-join on IDs implementing SPARQL MINUS
  compatibility (drop a left row when a right row agrees on at least
  one shared bound variable and disagrees on none).
* :class:`ValuesScanNode` — an inline VALUES table, translated to IDs
  at plan time so downstream joins stay in ID space (``Unit()`` — one
  empty row — is the empty group).
* :class:`CompatJoinNode` / :class:`LeftJoinNode` — nested-loop joins
  with full compatibility semantics, for a key a UNION branch, an ``UNDEF``
  cell or an earlier OPTIONAL may leave unbound.
* :class:`CorrelatedLeftJoinNode` — OPTIONAL evaluated once per left
  row with that row's bindings, where the group must see its base
  solution from inside or a whole-group join would not fit the budget.

OPTIONAL compiles to a hash or bind join with ``outer=True`` — the
inner joins' selection, the group's own filters as the join condition.
FILTERs and join conditions run through :class:`_ColumnFilter`, once
per distinct key of their variables' columns.  The planner is total:
``docs/query-planning.md`` has the table of shape → operator → why it
is sound, and the federation compiles through a subclass of it
(:mod:`repro.federation.fedx`; its remote operators compose with the
ones here through the same contract).

Cost model
----------
Scan cardinalities come from the backend's free estimates
(:meth:`~repro.store.TripleStore.cardinality_estimate`); join output
cardinalities divide by the distinct-subject/object counts collected in
:meth:`~repro.store.TripleStore.predicate_stats_ids`.  Planning is
greedy left-deep: start from the most selective input, repeatedly
join the connected input with the smallest estimated output (inputs
that share no variable cross-join through a keyless hash join).

``explain_plan`` renders the tree for the EXPLAIN surface wired through
:class:`~repro.sparql.evaluator.QueryEvaluator`, the endpoint, the
server, the federation, and the CLI (see ``docs/query-planning.md``).
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain, compress, islice, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import Term, Variable
from ..rdf.triples import TriplePattern
from ..store.dictionary import NO_ID
from ..store.sharded import ShardedBackend
from ..store.triplestore import CostMeter, TripleStore
from .algebra import (
    AlgebraNode,
    BGP,
    Empty,
    Filter as LogicalFilter,
    Join as LogicalJoin,
    LeftJoin as LogicalLeftJoin,
    Minus as LogicalMinus,
    Union as LogicalUnion,
    ValuesTable,
    bind_group,
    conjuncts,
    normalize,
    translate_group,
)
from .ast_nodes import Expression, GraphPattern
from .errors import SparqlError
from .functions import compile_filter

__all__ = [
    "Batch",
    "PlanNode",
    "ScanNode",
    "ShardScanNode",
    "HashJoinNode",
    "BindJoinNode",
    "UnionNode",
    "MinusNode",
    "ValuesScanNode",
    "CompatJoinNode",
    "LeftJoinNode",
    "CorrelatedLeftJoinNode",
    "QueryPlanner",
    "explain_plan",
    "joins_on_maybe_unbound",
    "refresh_plan_estimates",
]

#: A bind join is preferred while the accumulated left side is this many
#: times smaller than a full scan of the candidate pattern.  Probing is
#: per-row work (generator set-up, index descent), so the break-even
#: point sits well above 1:1.
BIND_JOIN_FACTOR = 8

#: One intermediate row: dictionary IDs aligned with ``node.variables``.
IdRow = Tuple[int, ...]

#: The one unbound-slot marker, in columns and rows alike (UNION branch
#: that skips the variable, UNDEF cell in a VALUES table, OPTIONAL that
#: matched nothing).  ``array('q')`` can only hold integers, and no
#: valid dictionary ID is negative, so ``-1`` is free.  IDs below it
#: are query-local: VALUES terms the store never interned
#: (:meth:`QueryPlanner._term_id`, decoded by :meth:`PlanNode.decoder`).
UNBOUND = -1

#: Rows per :class:`Batch` on the columnar path.  Matches the storage
#: seam's ``COLUMN_BATCH_SIZE`` so one ``match_columns`` batch becomes
#: one operator batch without re-chunking.
DEFAULT_BATCH_SIZE = 1024


class Batch:
    """A batch of intermediate rows in columnar layout.

    ``columns`` holds one ``array('q')`` of dictionary IDs per variable,
    in ``node.variables`` slot order; ``length`` is the row count (kept
    explicitly so zero-variable batches — existence rows — still have a
    cardinality).  ``has_unbound`` is True when some cell may hold the
    :data:`UNBOUND` sentinel; it lets the tail skip unbound handling on
    the (overwhelmingly common) all-bound batches.  A False flag is a
    guarantee; True is merely conservative.
    """

    __slots__ = ("columns", "length", "has_unbound")

    def __init__(
        self,
        columns: Tuple[array, ...],
        length: int,
        has_unbound: bool = False,
    ) -> None:
        self.columns = columns
        self.length = length
        self.has_unbound = has_unbound

    def __len__(self) -> int:
        return self.length

    def iter_raw(self) -> Iterator[IdRow]:
        """Rows as :data:`IdRow` tuples."""
        if not self.columns:
            empty: IdRow = ()
            for _ in range(self.length):
                yield empty
            return
        yield from zip(*self.columns)


def _chunked(rows: Iterator[IdRow], batch_size: int) -> Iterator[Batch]:
    """A row-at-a-time operator's rows as batches of ``batch_size``:
    pulled lazily, so a cut upstream stops the operator mid-stream.
    (A chunk's width is its rows': zero-variable rows give no columns.)"""
    for chunk in iter(lambda: list(islice(rows, batch_size)), []):
        columns = tuple(array("q", column) for column in zip(*chunk))
        yield Batch(columns, len(chunk), any(UNBOUND in column for column in columns))


def _raw_rows(node: "PlanNode", store, meter, batch_size: int, tracer) -> Iterator[IdRow]:
    """``node``'s batches read row by row — a row-at-a-time operator's
    view of its child."""
    return chain.from_iterable(
        batch.iter_raw() for batch in node.batches(store, meter, batch_size, tracer)
    )


def _gather(columns: Sequence[array], selection: Sequence[int]) -> Tuple[array, ...]:
    """Rows ``selection`` of every column — one C-level pass per column."""
    return tuple(array("q", map(column.__getitem__, selection)) for column in columns)


def _key_column(columns: Sequence[array], slots: Tuple[int, ...], length: int):
    """The join-key cells of ``columns``, one per row: bare IDs for one
    slot, tuples (a C-level ``zip`` of the key columns) for several,
    ``()`` for the keyless cross product."""
    if len(slots) == 1:
        return columns[slots[0]]
    if not slots:
        return repeat((), length)
    return zip(*[columns[slot] for slot in slots])


def _joined(
    left: Batch,
    selection: List[int],
    fresh: List[List[int]],
    condition: Sequence["_ColumnFilter"] = (),
    outer_span: Optional[range] = None,
    right_unbound: bool = False,
) -> Optional[Batch]:
    """Assemble one join output batch: left rows ``selection`` beside
    the ``fresh`` right-side columns.

    ``condition`` (an OPTIONAL group's own filters) drops candidates on
    the merged row.  ``outer_span`` — the left row indexes this batch
    answers for, ``None`` on an inner join — gets every left row no
    candidate survived for back once, right side :data:`UNBOUND`, at
    its place in left order.
    """
    for kernel in condition:
        if not selection:
            break
        merged = _gather(left.columns, selection) + tuple(fresh)
        flags = kernel.flags(merged, len(selection))
        if not all(flags):
            selection = list(compress(selection, flags))
            fresh = [list(compress(column, flags)) for column in fresh]
    has_unbound = left.has_unbound or right_unbound
    if outer_span is not None:
        missing = sorted(set(outer_span).difference(selection))
        if missing:
            has_unbound = has_unbound or bool(fresh)
            selection = selection + missing
            order = sorted(range(len(selection)), key=selection.__getitem__)
            selection = [selection[i] for i in order]
            pad = [UNBOUND] * len(missing)
            fresh = [
                list(map((column + pad).__getitem__, order)) for column in fresh
            ]
    if not selection:
        return None
    return Batch(
        _gather(left.columns, selection)
        + tuple(array("q", column) for column in fresh),
        len(selection),
        has_unbound,
    )


class _ColumnFilter:
    """One FILTER compiled against a slot layout, applied to columns.

    A filter is a deterministic function of its variables' cells, so it
    is evaluated once per *distinct* key of their columns — a bare ID
    when the variables occupy one slot, a tuple otherwise — and the
    memoized verdicts are mapped over the column in C.  Erroring
    expressions drop the row (SPARQL FILTER semantics); a variable
    without a slot is simply unbound.
    """

    __slots__ = ("expr", "names", "slots", "decode", "verdicts", "kernel")

    def __init__(self, expr: Expression, slot_of: Dict[str, int], decode) -> None:
        self.expr = expr
        self.names = tuple(name for name in expr.variables() if name in slot_of)
        self.slots = tuple(slot_of[name] for name in self.names)
        self.decode = decode
        self.verdicts: Dict[object, bool] = {}
        self.kernel = None  #: ``expr`` compiled, at the first verdict asked for

    def flags(self, columns: Sequence[Sequence[int]], length: int) -> List[bool]:
        """One verdict per row of ``columns``."""
        slots = self.slots
        if len(slots) == 1:
            keys = columns[slots[0]]
        elif slots:
            keys = list(zip(*[columns[slot] for slot in slots]))
        else:
            keys = [()] * length
        verdicts = self.verdicts
        for key in set(keys).difference(verdicts):
            verdicts[key] = self._evaluate((key,) if len(slots) == 1 else key)
        return list(map(verdicts.__getitem__, keys))

    def passes(self, row: IdRow) -> bool:
        """The verdict for one row tuple."""
        return self._evaluate(tuple(row[slot] for slot in self.slots))

    def _evaluate(self, cells: Tuple[int, ...]) -> bool:
        kernel = self.kernel
        if kernel is None:
            kernel = self.kernel = compile_filter(self.expr)
        decode = self.decode
        return kernel({
            name: decode(cell)
            for name, cell in zip(self.names, cells)
            if cell != UNBOUND
        })


class PlanNode:
    """Base class: a streaming operator producing batches of ID columns
    (:class:`Batch`).

    ``variables`` fixes the slot order of every row the node yields;
    ``est_rows`` is the cost model's output-cardinality estimate;
    ``filters`` are evaluated (on decoded terms) against each produced
    row, dropping rows that fail or error — SPARQL FILTER semantics.
    """

    variables: Tuple[str, ...]
    est_rows: int
    filters: List[Expression]
    #: Variables that may be :data:`UNBOUND` in produced rows (propagated
    #: from UNION / UNDEF / OPTIONAL inputs).  Joins keyed on these need
    #: compatibility semantics (:class:`CompatJoinNode`).
    maybe_unbound: frozenset
    #: An outer join's condition: the OPTIONAL group's own filters,
    #: evaluated on the merged row.
    condition: Sequence[Expression] = ()
    #: The planner's query-local terms, handed to every node of a plan
    #: that has any; ID ``-2 - i`` is ``local_terms[i]``.
    local_terms: Sequence[Term] = ()

    def __init__(self, variables: Tuple[str, ...], est_rows: int) -> None:
        self.variables = variables
        self.est_rows = est_rows
        #: Estimated metered cost of producing this node's rows (what a
        #: budgeted caller is charged); leaves cost their scan, the
        #: planner sets it on the joins it builds.
        self.est_cost = est_rows
        self.filters = []
        self.maybe_unbound = frozenset()
        self.slot_of: Dict[str, int] = {name: i for i, name in enumerate(variables)}

    # -- execution -----------------------------------------------------

    def decoder(self, store: TripleStore):
        """The cell → term function for this plan's rows: the
        dictionary's own C-level lookup, or — only when the plan carries
        query-local terms (``terms[-2]`` is a valid index) — one that
        resolves those first."""
        terms = store.dictionary.terms.__getitem__
        local = self.local_terms
        if not local:
            return terms
        return lambda cell: terms(cell) if cell >= 0 else local[-2 - cell]

    def batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int = DEFAULT_BATCH_SIZE,
        tracer=None,
    ) -> Iterator[Batch]:
        """The execution contract: a stream of :class:`Batch` — the
        node's ``_produce_batches``, its FILTERs applied column-wise.

        ``tracer`` (a :class:`~repro.sparql.trace.Tracer`) threads the
        EXPLAIN ANALYZE instrumentation through the tree.  It follows
        the cost-meter gating idiom: with the default ``None`` this
        method does nothing but pass the argument along, so the traced
        machinery costs the hot path exactly one ``is None`` test per
        operator per query.
        """
        produced = self._produce_batches(store, meter, batch_size, tracer)
        if self.filters:
            produced = self._filtered_batches(produced, store)
        if tracer is not None:
            return tracer.wrap_batches(self, produced)
        return produced

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        """The node's one producer: its rows as batches of at most
        ``batch_size``, its children pulled through :meth:`batches`."""
        raise NotImplementedError

    def _filtered_batches(
        self, batches: Iterator[Batch], store: TripleStore
    ) -> Iterator[Batch]:
        """Apply FILTERs column-wise (:class:`_ColumnFilter`), gathering
        only the batches some row of which fails."""
        decode = self.decoder(store)
        kernels = [_ColumnFilter(expr, self.slot_of, decode) for expr in self.filters]
        for batch in batches:
            columns, length = batch.columns, batch.length
            for kernel in kernels:
                flags = kernel.flags(columns, length)
                if not all(flags):
                    selection = list(compress(range(length), flags))
                    columns, length = _gather(columns, selection), len(selection)
                    if not length:
                        break
            if length == batch.length:
                yield batch
            elif length:
                yield Batch(columns, length, batch.has_unbound)

    # -- display -------------------------------------------------------

    def label(self) -> str:
        raise NotImplementedError

    def children(self) -> Sequence["PlanNode"]:
        return ()


def _pattern_text(pattern: TriplePattern) -> str:
    return " ".join(term.n3() for term in pattern.as_tuple())


class ScanNode(PlanNode):
    """Stream one triple pattern off the backend index."""

    def __init__(self, store: TripleStore, pattern: TriplePattern, est_rows: int) -> None:
        self.pattern = pattern
        encoded = store.encode_pattern(pattern)
        probe: List[Optional[int]] = [None, None, None]
        out: List[Tuple[int, str]] = []
        checks: List[Tuple[int, int]] = []
        first_at: Dict[str, int] = {}
        for position, entry in enumerate(encoded):
            if isinstance(entry, str):
                if entry in first_at:
                    checks.append((first_at[entry], position))
                else:
                    first_at[entry] = position
                    out.append((position, entry))
            else:
                probe[position] = entry
        self.probe: Tuple[Optional[int], Optional[int], Optional[int]] = tuple(probe)  # type: ignore[assignment]
        self.out_positions = tuple(position for position, _ in out)
        self.checks = tuple(checks)
        super().__init__(tuple(name for _, name in out), est_rows)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        s, p, o = self.probe
        if not self.variables:
            # A fully concrete pattern: one existence probe, one empty row.
            return (Batch((), 1) for _ in store.match_ids(s, p, o, meter))
        fetch, pairs = self._fetch_positions()
        return self._project_batches(
            store.match_columns(s, p, o, fetch, meter, batch_size), pairs
        )

    def _fetch_positions(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """The column positions to fetch and the equality pairs to check.

        Without repeated variables this is just ``out_positions``; with
        them, the duplicate positions are fetched too (to filter
        column-wise) and projected away by :meth:`_project_batches`.
        """
        positions = self.out_positions
        if not self.checks:
            return positions, ()
        fetch = positions + tuple(dup for _, dup in self.checks)
        pairs = tuple(
            (fetch.index(first), fetch.index(dup)) for first, dup in self.checks
        )
        return fetch, pairs

    def _project_batches(
        self, columns_iter, pairs: Tuple[Tuple[int, int], ...]
    ) -> Iterator[Batch]:
        """Raw column batches → :class:`Batch`, applying repeated-variable
        equality ``pairs`` and projecting the duplicate columns away."""
        if not pairs:
            for columns in columns_iter:
                yield Batch(columns, len(columns[0]))
            return
        width = len(self.out_positions)
        for columns in columns_iter:
            if len(pairs) == 1:
                left, right = pairs[0]
                col_a, col_b = columns[left], columns[right]
                keep = [i for i in range(len(col_a)) if col_a[i] == col_b[i]]
            else:
                keep = [
                    i
                    for i in range(len(columns[0]))
                    if all(columns[a][i] == columns[b][i] for a, b in pairs)
                ]
            if not keep:
                continue
            if len(keep) == len(columns[0]):
                yield Batch(columns[:width], len(keep))
            else:
                yield Batch(_gather(columns[:width], keep), len(keep))

    def label(self) -> str:
        return f"Scan({_pattern_text(self.pattern)})"


class ShardScanNode(ScanNode):
    """Scatter-gather scan over a :class:`ShardedBackend`'s shards.

    Functionally identical to :class:`ScanNode` on a sharded store — the
    backend's own ``match_columns`` already concatenates shard streams —
    but plan-visible: the label renders the fan-out (``xK/N`` shards
    touched) and the batch path streams shard by shard, recording one
    ``shard-scan`` child span per shard with its actual row count, so
    EXPLAIN ANALYZE shows how scatter-gather spread the work.

    A concrete subject routes to exactly one shard (``fan_out == 1``);
    any wildcard-subject shape touches all of them.
    """

    def __init__(
        self, store: TripleStore, pattern: TriplePattern, est_rows: int
    ) -> None:
        super().__init__(store, pattern, est_rows)
        self.n_shards = store.backend.n_shards
        self.fan_out = 1 if self.probe[0] is not None else self.n_shards

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        s, p, o = self.probe
        if not self.variables:
            # The existence probe is one metered ``match_ids`` on any store.
            yield from ScanNode._produce_batches(
                self, store, meter, batch_size, tracer
            )
            return
        if NO_ID in (s, p, o):
            return
        backend = store.backend
        shards = backend.shards
        if s is not None:
            index = backend.shard_of(s)
            targets = [(index, shards[index])]
        else:
            targets = list(enumerate(shards))
        fetch, pairs = self._fetch_positions()
        charge = meter.charge if meter is not None else None
        for index, shard in targets:
            columns_iter = shard.match_columns(s, p, o, fetch, batch_size)
            if charge is not None:
                columns_iter = _charged_columns(columns_iter, charge)
            rows = 0
            for batch in self._project_batches(columns_iter, pairs):
                rows += batch.length
                yield batch
            if tracer is not None:
                tracer.event("shard-scan", shard=index, rows=rows)

    def label(self) -> str:
        return (
            f"ShardScan({_pattern_text(self.pattern)} "
            f"x{self.fan_out}/{self.n_shards})"
        )


def _charged_columns(columns_iter, charge) -> Iterator:
    """Charge the meter per fetched candidate, exactly like
    ``TripleStore.match_columns`` does — cost parity with the unsharded
    scan is what keeps budget-abort behaviour backend-independent."""
    for columns in columns_iter:
        charge(len(columns[0]))
        yield columns


class HashJoinNode(PlanNode):
    """Hash the right input on the shared variables, stream the left.

    Both inputs are scanned exactly once; each emitted row charges the
    cost meter one unit so budgeted endpoints retain their abort
    behaviour on explosive joins.

    ``outer=True`` is OPTIONAL as a left outer join: a left row without
    a match that passes ``condition`` (the OPTIONAL group's own filters,
    evaluated on the merged row) comes back once, the right side's
    variables :data:`UNBOUND`.  Sound only where every key is certainly
    bound on both sides — the planner sends the rest to
    :class:`LeftJoinNode`.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        keys: Tuple[str, ...],
        est_rows: int,
        outer: bool = False,
        condition: Sequence[Expression] = (),
    ) -> None:
        self.left = left
        self.right = right
        self.keys = keys
        self.outer = outer
        self.condition = list(condition)
        self.left_key_slots = tuple(left.slot_of[name] for name in keys)
        self.right_key_slots = tuple(right.slot_of[name] for name in keys)
        residual = [name for name in right.variables if name not in keys]
        self.right_residual_slots = tuple(right.slot_of[name] for name in residual)
        super().__init__(left.variables + tuple(residual), est_rows)
        self.maybe_unbound = left.maybe_unbound | right.maybe_unbound
        if outer:
            self.maybe_unbound |= frozenset(residual)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        # Single shared variable is the overwhelmingly common join shape
        # (subject stars, object-subject chains); key on the bare int
        # instead of a 1-tuple to keep build and probe at one dict op.
        single = len(self.left_key_slots) == 1
        rres = self.right_residual_slots
        if self.outer:
            return self._join_general(store, meter, batch_size, tracer)
        if not rres:
            return self._semi_join(store, meter, batch_size, tracer)
        if single and len(rres) == 1:
            return self._join_one_residual(store, meter, batch_size, tracer)
        return self._join_general(store, meter, batch_size, tracer)

    def _semi_join(self, store, meter, batch_size, tracer) -> Iterator[Batch]:
        """The build side adds no variables: build a key -> multiplicity
        table column-wise, then emit probe batches through a selection
        vector.  With unique single keys the table degenerates to a set
        and the all-match probe runs entirely in C."""
        single = len(self.left_key_slots) == 1
        rkeys = self.right_key_slots
        lkeys = self.left_key_slots
        charge = meter.charge if meter is not None else None
        counts: Dict[object, int] = {}
        if single:
            rcols = []
            total = 0
            for rbatch in self.right.batches(store, meter, batch_size, tracer):
                rcols.append(rbatch.columns[rkeys[0]])
                total += rbatch.length
            unique = set(chain.from_iterable(rcols))
            if len(unique) == total:
                contains = unique.__contains__
                for lbatch in self.left.batches(store, meter, batch_size, tracer):
                    flags = list(map(contains, lbatch.columns[lkeys[0]]))
                    if all(flags):
                        if charge is not None:
                            charge(lbatch.length)
                        yield lbatch
                        continue
                    selection = [i for i, hit in enumerate(flags) if hit]
                    if not selection:
                        continue
                    if charge is not None:
                        charge(len(selection))
                    yield Batch(
                        _gather(lbatch.columns, selection),
                        len(selection),
                        lbatch.has_unbound,
                    )
                return
            for col in rcols:
                for key in col:
                    counts[key] = counts.get(key, 0) + 1
        else:
            for rbatch in self.right.batches(store, meter, batch_size, tracer):
                for key in _key_column(rbatch.columns, rkeys, rbatch.length):
                    counts[key] = counts.get(key, 0) + 1
        cget = counts.get
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            # dict.get mapped over the key column (a C zip of the key
            # columns when there are several): the whole lookup pass
            # runs in C.
            matches = map(cget, _key_column(lbatch.columns, lkeys, lbatch.length))
            selection: List[int] = []
            append = selection.append
            extend = selection.extend
            identity = True
            for index, count in enumerate(matches):
                if count is None:
                    identity = False
                elif count == 1:
                    append(index)
                else:
                    identity = False
                    extend([index] * count)
            if not selection:
                continue
            if charge is not None:
                charge(len(selection))
            if identity:
                yield lbatch
            else:
                yield Batch(
                    _gather(lbatch.columns, selection),
                    len(selection),
                    lbatch.has_unbound,
                )

    def _join_one_residual(self, store, meter, batch_size, tracer) -> Iterator[Batch]:
        """One key column, one residual column: the dominant star/chain
        shape, joined through C-level passes over whole columns.

        Whichever side has unique keys becomes a scalar dict or a row
        index and the other side drives the probe; duplicate keys on
        both sides expand through int-list buckets.
        """
        lkey = self.left_key_slots[0]
        rkey = self.right_key_slots[0]
        rres0 = self.right_residual_slots[0]
        charge = meter.charge if meter is not None else None
        # The accumulated left side is much smaller than the probe side
        # (4x keeps star hops — near-equal sides with reference
        # pass-through on the left — out of this tier): build from it
        # and stream the probe side.  Chain hops compile this way (small
        # unique dimension joined against a large fact scan).
        left_first = self.left.est_rows * 4 <= self.right.est_rows
        if left_first:
            left_cols, left_unbound, index_of = self._collect_left(
                store, meter, batch_size, tracer
            )
            if index_of is not None:
                yield from self._probe_unique_left(
                    left_cols,
                    index_of,
                    left_unbound,
                    (
                        (rbatch.columns[rkey], rbatch.columns[rres0], rbatch.has_unbound)
                        for rbatch in self.right.batches(store, meter, batch_size, tracer)
                    ),
                    charge,
                )
                return
        rkey_cols: List[array] = []
        rres_cols: List[array] = []
        total = 0
        right_unbound = False
        for rbatch in self.right.batches(store, meter, batch_size, tracer):
            right_unbound = right_unbound or rbatch.has_unbound
            rkey_cols.append(rbatch.columns[rkey])
            rres_cols.append(rbatch.columns[rres0])
            total += rbatch.length
        # ``dict(zip(keys, values))`` is a single C pass, and when it
        # loses no pairs the right key is functional, so every probe
        # maps to at most one residual.
        scalar = dict(
            zip(chain.from_iterable(rkey_cols), chain.from_iterable(rres_cols))
        )
        if len(scalar) == total:
            fget = scalar.get
            left_batches = (
                [Batch(tuple(left_cols), len(left_cols[lkey]), left_unbound)]
                if left_first
                else self.left.batches(store, meter, batch_size, tracer)
            )
            for lbatch in left_batches:
                matches = list(map(fget, lbatch.columns[lkey]))
                columns = lbatch.columns
                if None in matches:
                    selection = [
                        index
                        for index, value in enumerate(matches)
                        if value is not None
                    ]
                    if not selection:
                        continue
                    matches = [value for value in matches if value is not None]
                    columns = _gather(columns, selection)
                # Where every left row joins exactly once the output is
                # the left batch plus one C-built residual column — no
                # per-row Python at all.
                if charge is not None:
                    charge(len(matches))
                yield Batch(
                    columns + (array("q", matches),),
                    len(matches),
                    lbatch.has_unbound or right_unbound,
                )
            return
        if not left_first:
            left_cols, left_unbound, index_of = self._collect_left(
                store, meter, batch_size, tracer
            )
            if index_of is not None:
                # Unique in every 1:N chain hop.
                yield from self._probe_unique_left(
                    left_cols,
                    index_of,
                    left_unbound,
                    zip(rkey_cols, rres_cols, repeat(right_unbound)),
                    charge,
                )
                return
        # Duplicate keys on both sides: int-list buckets, probed over
        # the already-materialized left columns in one pass.
        flat: Dict[int, List[int]] = {}
        setdefault = flat.setdefault
        for key_col, res_col in zip(rkey_cols, rres_cols):
            for key, value in zip(key_col, res_col):
                setdefault(key, []).append(value)
        selection = []
        append = selection.append
        extend = selection.extend
        res_buf: List[int] = []
        res_append = res_buf.append
        res_extend = res_buf.extend
        for index, bucket in enumerate(map(flat.get, left_cols[lkey])):
            if bucket is None:
                continue
            if len(bucket) == 1:
                append(index)
                res_append(bucket[0])
            else:
                extend([index] * len(bucket))
                res_extend(bucket)
        if not selection:
            return
        if charge is not None:
            charge(len(selection))
        yield Batch(
            _gather(left_cols, selection) + (array("q", res_buf),),
            len(selection),
            left_unbound or right_unbound,
        )

    def _collect_left(
        self, store, meter, batch_size, tracer
    ) -> Tuple[List[array], bool, Optional[Dict[int, int]]]:
        """Materialize the left input: its columns, its unbound flag,
        and a key -> row position index — ``None`` unless every left
        key is distinct."""
        columns = [array("q") for _ in self.left.variables]
        has_unbound = False
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            has_unbound = has_unbound or lbatch.has_unbound
            for slot, column in enumerate(lbatch.columns):
                columns[slot].extend(column)
        key_col = columns[self.left_key_slots[0]]
        index_of = dict(zip(key_col, range(len(key_col))))
        if len(index_of) != len(key_col):
            index_of = None
        return columns, has_unbound, index_of

    def _probe_unique_left(
        self, left_cols, index_of, left_unbound, right_parts, charge
    ) -> Iterator[Batch]:
        """Join materialized left rows with unique keys against a
        stream of right ``(key column, residual column, has_unbound)``
        parts, one output batch per part.

        When every probe key hits, the key and residual probe columns
        are reused by reference; with one left residual the row index
        degenerates to a key -> value dict and the left residual is a
        single C-built lookup column, so no gathers happen at all.
        Wider left sides gather by row index.
        """
        lkey = self.left_key_slots[0]
        lres_slots = [slot for slot in range(len(left_cols)) if slot != lkey]
        scalar_res = (
            dict(zip(left_cols[lkey], left_cols[lres_slots[0]]))
            if len(lres_slots) == 1
            else None
        )
        lookup = index_of.get if scalar_res is None else scalar_res.get
        for rkey_col, rres_col, right_unbound in right_parts:
            found = list(map(lookup, rkey_col))
            if None in found:
                keep = [
                    index for index, hit in enumerate(found) if hit is not None
                ]
                if not keep:
                    continue
                found = [hit for hit in found if hit is not None]
                rkey_col, rres_col = _gather((rkey_col, rres_col), keep)
            if scalar_res is not None:
                res_out = [array("q", found)]
            else:
                res_out = list(_gather([left_cols[slot] for slot in lres_slots], found))
            # Output slot order: left variables (key comes from the
            # probe column — equal by the join condition), then the
            # right residual.
            res_out.insert(lkey, rkey_col)
            res_out.append(rres_col)
            if charge is not None:
                charge(len(found))
            yield Batch(tuple(res_out), len(found), left_unbound or right_unbound)

    def _join_general(self, store, meter, batch_size, tracer) -> Iterator[Batch]:
        """Any key/residual width, inner or outer: buckets of residual
        tuples, built and probed through :func:`_key_column`."""
        rkeys = self.right_key_slots
        rres = self.right_residual_slots
        lkeys = self.left_key_slots
        charge = meter.charge if meter is not None else None
        right_unbound = False
        table: Dict[object, List[Tuple[int, ...]]] = {}
        for rbatch in self.right.batches(store, meter, batch_size, tracer):
            right_unbound = right_unbound or rbatch.has_unbound
            columns = rbatch.columns
            residuals = (
                zip(*[columns[slot] for slot in rres])
                if rres
                else repeat((), rbatch.length)
            )
            for key, residual in zip(_key_column(columns, rkeys, rbatch.length), residuals):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [residual]
                else:
                    bucket.append(residual)
        decode = self.decoder(store)
        condition = [_ColumnFilter(expr, self.slot_of, decode) for expr in self.condition]
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            selection: List[int] = []
            residual_rows: List[Tuple[int, ...]] = []
            keys = _key_column(lbatch.columns, lkeys, lbatch.length)
            for index, bucket in enumerate(map(table.get, keys)):
                if bucket is None:
                    continue
                if len(bucket) == 1:
                    selection.append(index)
                    residual_rows.append(bucket[0])
                else:
                    selection.extend([index] * len(bucket))
                    residual_rows.extend(bucket)
            batch = _joined(
                lbatch,
                selection,
                list(map(list, zip(*residual_rows))) or [[] for _ in rres],
                condition,
                range(lbatch.length) if self.outer else None,
                right_unbound,
            )
            if batch is not None:
                if charge is not None:
                    charge(batch.length)
                yield batch

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.keys)
        return f"{'LeftJoin' if self.outer else 'HashJoin'}(on {keys or '-'})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


class BindJoinNode(PlanNode):
    """Probe the store once per left row with shared variables bound;
    ``outer`` / ``condition`` as on :class:`HashJoinNode`."""

    def __init__(
        self,
        store: TripleStore,
        left: PlanNode,
        pattern: TriplePattern,
        est_rows: int,
        outer: bool = False,
        condition: Sequence[Expression] = (),
    ) -> None:
        self.left = left
        self.pattern = pattern
        self.outer = outer
        self.condition = list(condition)
        encoded = store.encode_pattern(pattern)
        # Probe spec per position: a constant ID, a left slot, or free.
        spec: List[Tuple[str, Optional[int]]] = []
        out: List[Tuple[int, str]] = []
        checks: List[Tuple[int, int]] = []
        first_at: Dict[str, int] = {}
        for position, entry in enumerate(encoded):
            if isinstance(entry, str):
                if entry in left.slot_of:
                    spec.append(("left", left.slot_of[entry]))
                elif entry in first_at:
                    spec.append(("free", None))
                    checks.append((first_at[entry], position))
                else:
                    first_at[entry] = position
                    spec.append(("free", None))
                    out.append((position, entry))
            else:
                spec.append(("const", entry))
        self.spec = tuple(spec)
        self.out_positions = tuple(position for position, _ in out)
        self.checks = tuple(checks)
        super().__init__(
            left.variables + tuple(name for _, name in out), est_rows
        )
        self.maybe_unbound = left.maybe_unbound
        if outer:
            self.maybe_unbound |= frozenset(name for _, name in out)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        # Probing stays per left row (that is the operator's nature);
        # output accumulates as a selection over the left batch plus the
        # fresh columns, and flushes once a batch is full.
        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = self.spec
        positions = self.out_positions
        checks = self.checks
        match_ids = store.match_ids
        outer = self.outer
        decode = self.decoder(store)
        condition = [_ColumnFilter(expr, self.slot_of, decode) for expr in self.condition]
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            selection: List[int] = []
            fresh: List[List[int]] = [[] for _ in positions]
            first = 0
            for index, lrow in enumerate(lbatch.iter_raw()):
                s = s_val if s_kind == "const" else lrow[s_val] if s_kind == "left" else None
                p = p_val if p_kind == "const" else lrow[p_val] if p_kind == "left" else None
                o = o_val if o_kind == "const" else lrow[o_val] if o_kind == "left" else None
                for row in match_ids(s, p, o, meter):
                    if checks and not all(row[a] == row[b] for a, b in checks):
                        continue
                    selection.append(index)
                    for column, position in zip(fresh, positions):
                        column.append(row[position])
                if len(selection) >= batch_size or index + 1 == lbatch.length:
                    batch = _joined(
                        lbatch, selection, fresh, condition,
                        range(first, index + 1) if outer else None,
                    )
                    if batch is not None:
                        yield batch
                    selection, fresh, first = [], [[] for _ in positions], index + 1

    def label(self) -> str:
        kind = "LeftBindJoin" if self.outer else "BindJoin"
        return f"{kind}({_pattern_text(self.pattern)})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left,)


class ValuesScanNode(PlanNode):
    """An inline VALUES table as a leaf operator.

    ``id_rows`` are the table's rows already in the plan's ID space —
    the planner translates the terms (:meth:`QueryPlanner._term_id`), so
    the shared local store is never written from the query path.
    UNDEF cells are :data:`UNBOUND`.  ``charged=False`` is a base
    solution's bindings pinned into an OPTIONAL group: free, as the
    reference solver's initial bindings are.
    """

    def __init__(self, names: Tuple[str, ...], id_rows: Sequence[IdRow],
                 charged: bool = True) -> None:
        self.id_rows = list(id_rows)
        self.charged = charged
        super().__init__(tuple(names), len(self.id_rows))
        self.maybe_unbound = frozenset(
            name for position, name in enumerate(names)
            if any(row[position] == UNBOUND for row in self.id_rows)
        )

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        charge = meter.charge if meter is not None and self.charged else None
        for batch in _chunked(iter(self.id_rows), batch_size):
            if charge is not None:
                charge(batch.length)
            yield batch

    def label(self) -> str:
        if not self.variables:
            return "Unit()" if self.id_rows else "EmptyTable()"
        heads = " ".join(f"?{name}" for name in self.variables)
        return f"ValuesScan({heads} x{len(self.id_rows)})"


class UnionNode(PlanNode):
    """Concatenate branch streams over the union of their variables.

    Slots a branch does not bind are padded with :data:`UNBOUND` and recorded
    in ``maybe_unbound`` so the planner never hash-joins on them.
    """

    def __init__(self, branches: Sequence[PlanNode]) -> None:
        names: List[str] = []
        for branch in branches:
            for name in branch.variables:
                if name not in names:
                    names.append(name)
        super().__init__(tuple(names), sum(branch.est_rows for branch in branches))
        self.branches = list(branches)
        self._maps = [
            tuple(branch.slot_of.get(name) for name in names)
            for branch in branches
        ]
        unbound = set()
        for branch in branches:
            unbound |= set(branch.maybe_unbound)
            unbound |= {name for name in names if name not in branch.slot_of}
        self.maybe_unbound = frozenset(unbound)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        # Remapping a batch is pure column shuffling: existing columns
        # are passed through by reference, missing slots get a shared
        # UNBOUND pad column of the right length.
        for branch, mapping in zip(self.branches, self._maps):
            pad: Optional[array] = None
            for batch in branch.batches(store, meter, batch_size, tracer):
                columns: List[array] = []
                has_unbound = batch.has_unbound
                for slot in mapping:
                    if slot is None:
                        if pad is None or len(pad) != batch.length:
                            pad = array("q", [UNBOUND]) * batch.length
                        columns.append(pad)
                        has_unbound = True
                    else:
                        columns.append(batch.columns[slot])
                yield Batch(tuple(columns), batch.length, has_unbound)

    def label(self) -> str:
        return f"Union[{len(self.branches)}]"

    def children(self) -> Sequence[PlanNode]:
        return tuple(self.branches)


class MinusNode(PlanNode):
    """Anti-join on IDs implementing SPARQL MINUS compatibility.

    A left row is dropped when some right row agrees with it on at
    least one shared variable bound on both sides and disagrees on
    none.  With every shared slot certainly bound on both sides this
    is one set-membership test per row; rows with :data:`UNBOUND`
    cells fall back to a compatibility scan.
    """

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        shared = tuple(name for name in right.variables if name in left.slot_of)
        self.left = left
        self.right = right
        self.shared = shared
        self.left_slots = tuple(left.slot_of[name] for name in shared)
        self.right_slots = tuple(right.slot_of[name] for name in shared)
        super().__init__(left.variables, left.est_rows)
        self.maybe_unbound = left.maybe_unbound

    @staticmethod
    def _compatible(left_key: IdRow, right_key: IdRow) -> bool:
        """True when the keys share >=1 bound position and clash on none."""
        common = False
        for a, b in zip(left_key, right_key):
            if a == UNBOUND or b == UNBOUND:
                continue
            if a != b:
                return False
            common = True
        return common

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        if not self.shared:
            # Disjoint domains: the subtraction removes nothing (the
            # normalizer usually rewrites this away already).
            yield from self.left.batches(store, meter, batch_size, tracer)
            return
        exact: set = set()
        loose: List[IdRow] = []
        right_slots = self.right_slots
        for row in _raw_rows(self.right, store, meter, batch_size, tracer):
            key = tuple(row[slot] for slot in right_slots)
            if UNBOUND in key:
                loose.append(key)
            else:
                exact.add(key)
        left_slots = self.left_slots
        compatible = self._compatible
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            keep: List[int] = []
            for index, lrow in enumerate(lbatch.iter_raw()):
                lkey = tuple(lrow[slot] for slot in left_slots)
                if UNBOUND not in lkey:
                    if lkey in exact:
                        continue
                    if loose and any(compatible(lkey, rkey) for rkey in loose):
                        continue
                else:
                    if any(compatible(lkey, rkey) for rkey in exact) or any(
                        compatible(lkey, rkey) for rkey in loose
                    ):
                        continue
                keep.append(index)
            if not keep:
                continue
            if len(keep) == lbatch.length:
                yield lbatch
            else:
                yield Batch(_gather(lbatch.columns, keep), len(keep), lbatch.has_unbound)

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.shared) or "-"
        return f"Minus(on {keys})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


class CompatJoinNode(PlanNode):
    """Nested-loop join with full SPARQL compatibility semantics.

    Used where a shared variable may be unbound on either side — a hash
    join's equality keying would treat "unbound" as a value, but SPARQL
    says an unbound variable is compatible with anything and the merged
    solution takes the bound side's value.  Materializes the right
    input.
    """

    #: Left rows with no compatible right row pass through padded
    #: (:class:`LeftJoinNode`) instead of being dropped.
    outer = False

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        est_rows: int,
        condition: Sequence[Expression] = (),
    ) -> None:
        self.left = left
        self.right = right
        self.condition = list(condition)
        self.shared = tuple(name for name in right.variables if name in left.slot_of)
        self.left_shared_slots = tuple(left.slot_of[name] for name in self.shared)
        self.right_shared_slots = tuple(right.slot_of[name] for name in self.shared)
        residual = [name for name in right.variables if name not in self.shared]
        self.right_residual_slots = tuple(right.slot_of[name] for name in residual)
        super().__init__(left.variables + tuple(residual), est_rows)
        self.maybe_unbound = left.maybe_unbound | right.maybe_unbound
        if self.outer:
            self.maybe_unbound |= frozenset(residual)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        return _chunked(self._joined_rows(store, meter, batch_size, tracer), batch_size)

    def _joined_rows(self, store, meter, batch_size, tracer) -> Iterator[IdRow]:
        right_rows = list(_raw_rows(self.right, store, meter, batch_size, tracer))
        charge = meter.charge if meter is not None else None
        pad = (UNBOUND,) * len(self.right_residual_slots)
        decode = self.decoder(store)
        condition = [_ColumnFilter(expr, self.slot_of, decode) for expr in self.condition]
        for lrow in _raw_rows(self.left, store, meter, batch_size, tracer):
            matched = False
            for rrow in right_rows:
                merged = _merge_shared(
                    lrow, rrow, self.left_shared_slots, self.right_shared_slots
                )
                if merged is None:
                    continue
                merged += tuple(rrow[slot] for slot in self.right_residual_slots)
                if not all(kernel.passes(merged) for kernel in condition):
                    continue
                matched = True
                if charge is not None:
                    charge(1)
                yield merged
            if self.outer and not matched:
                yield lrow + pad

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.shared) or "-"
        return f"{'LeftJoin' if self.outer else 'CompatJoin'}(on {keys})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


class LeftJoinNode(CompatJoinNode):
    """Left outer variant of :class:`CompatJoinNode`: OPTIONAL on a
    maybe-unbound key.  A left row with no compatible right row that
    passes ``condition`` (the OPTIONAL group's own filters, evaluated on
    the merged row) passes through with the right-only slots unbound.
    """

    outer = True


class CorrelatedLeftJoinNode(PlanNode):
    """OPTIONAL evaluated once per left row, with that row's bindings.

    The one per-solution operator: for a group that must see its base
    solution from inside (a nested filter, OPTIONAL or MINUS reading an
    outer variable), or whose whole-group join would not fit the budget
    where probing per solution may — and the federation's choice for a
    group's own OPTIONALs.  Each left row is pinned into the group
    (:func:`~repro.sparql.algebra.bind_group`), the bound copy is
    planned by the planner that built this node — directly: a fresh
    group per row must not churn a plan cache — and its rows are merged
    back; a left row nothing extends comes back once, padded.  The pinned
    tables are unmetered, so the operator costs what the reference
    solver's per-solution extension costs.

    ``template`` is the group planned unbound: what EXPLAIN shows under
    the operator, the source of its output slots; it never runs.
    """

    def __init__(
        self,
        planner: "QueryPlanner",
        left: PlanNode,
        template: PlanNode,
        group: GraphPattern,
        budget: Optional[int],
        est_rows: int,
    ) -> None:
        self.planner = planner
        self.left = left
        self.template = template
        self.group = group
        self.budget = budget
        self.shared = tuple(name for name in template.variables if name in left.slot_of)
        fresh = tuple(name for name in template.variables if name not in left.slot_of)
        super().__init__(left.variables + fresh, est_rows)
        self.est_cost = left.est_cost + est_rows  # probes charge per candidate
        self.maybe_unbound = left.maybe_unbound | frozenset(fresh)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        return _chunked(self._extended_rows(store, meter, batch_size, tracer), batch_size)

    def _extended_rows(self, store, meter, batch_size, tracer) -> Iterator[IdRow]:
        decode = self.decoder(store)
        names = self.left.variables
        pad = (UNBOUND,) * (len(self.variables) - len(names))
        for lrow in _raw_rows(self.left, store, meter, batch_size, tracer):
            solution = {
                name: decode(cell) for name, cell in zip(names, lrow) if cell != UNBOUND
            }
            bound = self.planner.plan(bind_group(self.group, solution), self.budget)
            slots = [self.slot_of[name] for name in bound.variables]
            matched = False
            for rrow in _raw_rows(bound, store, meter, batch_size, None):
                merged = list(lrow + pad)
                for slot, cell in zip(slots, rrow):
                    if merged[slot] == UNBOUND:
                        merged[slot] = cell
                    elif cell != UNBOUND and merged[slot] != cell:
                        break
                else:
                    matched = True
                    yield tuple(merged)
            if not matched:
                yield lrow + pad

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.shared) or "-"
        return f"CorrelatedLeftJoin(on {keys})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.template)


def _merge_shared(
    lrow: IdRow,
    rrow: IdRow,
    left_slots: Tuple[int, ...],
    right_slots: Tuple[int, ...],
) -> Optional[IdRow]:
    """Compatibility-merge one row pair over their shared slots.

    Returns the left row with unbound shared cells filled from the
    right, or ``None`` when two bound cells clash.
    """
    cells: Optional[List[int]] = None
    for lslot, rslot in zip(left_slots, right_slots):
        lval, rval = lrow[lslot], rrow[rslot]
        if lval == UNBOUND:
            if rval != UNBOUND:
                if cells is None:
                    cells = list(lrow)
                cells[lslot] = rval
        elif rval != UNBOUND and lval != rval:
            return None
    return tuple(cells) if cells is not None else lrow


class QueryPlanner:
    """Compiles normalized logical algebra into physical plans — one
    for every group the parser accepts.

    The one compiler of the four-stage pipeline: local evaluation plans
    through this class as it is, the federation through a subclass that
    supplies only what is federated (its leaves, its join choice, its
    estimates, interning into its mediator store).  BGP conjunctions
    become left-deep join trees; UNION, MINUS, VALUES and OPTIONAL
    compile to their dedicated operators.

    One instance serves one query: it owns the query-local IDs of the
    VALUES terms the store never interned (:meth:`_term_id`), shared by
    the plan and the sub-plans a :class:`CorrelatedLeftJoinNode` builds
    while it runs.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self.local_terms: List[Term] = []
        self._local_ids: Dict[Term, int] = {}
        self._local_lock = threading.Lock()

    def plan(self, group: GraphPattern, budget: Optional[int] = None) -> PlanNode:
        """Plan one group graph pattern, its OPTIONALs included.

        ``budget`` is the caller's cost-meter budget, if any.  Hash
        joins pay a full scan of the build pattern up front; on a
        budgeted (endpoint-guarded) evaluation that scan can burn the
        budget a selective probe sequence would never have touched, so
        a hash join is only chosen while its estimated metered cost
        still fits the budget with a 2x margin — beyond that the
        planner stays on bind joins (and, for an OPTIONAL group of
        several patterns, on the per-solution operator), whose cost
        profile is the reference solver's.
        """
        return self.compile(normalize(translate_group(group)), budget)

    def compile(self, node: AlgebraNode, budget: Optional[int] = None) -> PlanNode:
        """Compile one normalized logical tree, and hand the plan the
        query-local terms its VALUES tables introduced, if any."""
        root = self._compile(node, budget)
        if self.local_terms:
            _hand_down(root, self.local_terms)
        return root

    def _compile(self, node: AlgebraNode, budget: Optional[int]) -> PlanNode:
        filters, core = _strip_filters(node)
        return self._compile_core(core, filters, budget)

    def _compile_core(
        self,
        core: AlgebraNode,
        pending: List[Expression],
        budget: Optional[int],
    ) -> PlanNode:
        if isinstance(core, (BGP, LogicalJoin)):
            return self._compile_conjunction(conjuncts(core), pending, budget)
        if isinstance(core, Empty):
            node: PlanNode = ValuesScanNode((), ())
        elif isinstance(core, ValuesTable):
            term_id = self._term_id
            node = ValuesScanNode(
                core.names,
                [
                    tuple(UNBOUND if term is None else term_id(term) for term in row)
                    for row in core.rows
                ],
                charged=not core.pinned,
            )
        elif isinstance(core, LogicalUnion):
            node = UnionNode([self._compile(branch, budget) for branch in core.branches])
        elif isinstance(core, LogicalMinus):
            node = MinusNode(
                self._compile(core.left, budget), self._compile(core.right, budget)
            )
        elif isinstance(core, LogicalLeftJoin):
            node = self._compile_left_join(core, budget)
        else:  # solution modifiers are the evaluator's tail
            raise SparqlError(f"{core.label()} is not a group operator")
        node.filters.extend(pending)
        return node

    def _term_id(self, term: Term) -> int:
        """The ID a VALUES term joins under.  The query path never
        writes to the store dictionary, so a term the store never
        interned gets a query-local ID below :data:`UNBOUND`: distinct
        unknown terms stay distinct, equal ones join, none matches a
        stored triple, and :meth:`PlanNode.decoder` resolves them."""
        term_id = self.store.term_id(term)
        if term_id == NO_ID:
            # Two threads may run one cached plan, and a per-solution
            # operator in it plans through this planner: allocate under
            # a lock so an ID is never handed out twice.
            with self._local_lock:
                term_id = self._local_ids.get(term)
                if term_id is None:
                    term_id = self._local_ids[term] = -2 - len(self.local_terms)
                    self.local_terms.append(term)
        return term_id

    def _compile_left_join(self, core: LogicalLeftJoin, budget: Optional[int]) -> PlanNode:
        """OPTIONAL as a left outer join: the group's own filters become
        the join condition on the merged row and the join goes through
        the inner joins' selection (:meth:`_join`) — unless the group
        has to run per left row (:meth:`_correlates`)."""
        condition, right_core = _strip_filters(core.right)
        left = self._compile(core.left, budget)
        right = self._compile_core(right_core, [], budget)
        joined = self._join(left, right, [], budget, outer=True, condition=condition)
        if core.group is not None and self._correlates(core, joined, budget):
            right.filters.extend(condition)
            return CorrelatedLeftJoinNode(
                self, left, right, core.group, budget, joined.est_rows
            )
        return joined

    def _correlates(
        self, core: LogicalLeftJoin, joined: PlanNode, budget: Optional[int]
    ) -> bool:
        """Whether an OPTIONAL runs per left row instead of as
        ``joined``: it must see its base solution from inside
        (:func:`_uncorrelated`), or evaluating the whole group once
        would not fit the budget where probing it per base solution may
        — the budget rule's bind join for a group of several patterns."""
        right_core = _strip_filters(core.right)[1]
        if not _uncorrelated(right_core, frozenset(core.left.variables())):
            return True
        return (
            budget is not None
            and not isinstance(joined, BindJoinNode)
            and joined.est_cost * 2 > budget
        )

    def _scans(self, patterns: List[TriplePattern]) -> List[PlanNode]:
        """One leaf per triple pattern.  Sharded stores get the
        plan-visible scatter-gather scan; it is execution-identical but
        renders fan-out and records per-shard row counts under the
        tracer."""
        store = self.store
        scan_cls = ShardScanNode if isinstance(store.backend, ShardedBackend) else ScanNode
        return [
            scan_cls(store, pattern, store.cardinality_estimate(pattern))
            for pattern in patterns
        ]

    def _compile_conjunction(
        self,
        parts: List[AlgebraNode],
        pending: List[Expression],
        budget: Optional[int],
    ) -> PlanNode:
        """Greedy left-deep join over patterns and compiled sub-plans:
        start from the most selective input, repeatedly add the
        connected input with the smallest estimated join output."""
        patterns: List[TriplePattern] = []
        leaves: List[PlanNode] = []
        pending = list(pending)
        for part in parts:
            part_filters, part_core = _strip_filters(part)
            if isinstance(part_core, BGP):
                patterns.extend(part_core.patterns)
                pending.extend(part_filters)
            else:
                leaves.append(self._compile_core(part_core, part_filters, budget))
        candidates = self._scans(list(dict.fromkeys(patterns))) + leaves
        if not candidates:
            candidates = [ValuesScanNode((), ((),))]  # the empty group: one empty row

        node: PlanNode = min(candidates, key=lambda c: c.est_rows)
        candidates.remove(node)
        attach_ready_filters(node, pending)

        while candidates:
            connected = [
                candidate for candidate in candidates
                if any(name in node.slot_of for name in candidate.variables)
            ]
            if connected:
                best = min(
                    connected, key=lambda candidate: self._join_estimate(node, candidate)
                )
            else:
                # Disconnected inputs cross-join: one scan per input.
                best = min(candidates, key=lambda c: c.est_rows)
            candidates.remove(best)
            node = self._join(node, best, pending, budget)
            attach_ready_filters(node, pending)

        # Filters whose variables never appear in any input evaluate
        # against an unbound binding at the root: error -> row dropped.
        node.filters.extend(pending)
        return node

    def _join(
        self,
        node: PlanNode,
        best: PlanNode,
        pending: List[Expression],
        budget: Optional[int],
        outer: bool = False,
        condition: Sequence[Expression] = (),
    ) -> PlanNode:
        """The one join selection, inner and outer: the compatibility
        join where a shared variable may be unbound on either side; a
        bind join while the accumulated side is :data:`BIND_JOIN_FACTOR`
        times smaller than a scan of ``best`` or a hash join would not
        fit ``budget``; a hash join otherwise (keyless — the cross
        product — for inputs that share nothing)."""
        keys = tuple(name for name in best.variables if name in node.slot_of)
        est = self._join_estimate(node, best)
        if outer:
            est = max(est, node.est_rows)  # every left row comes back
        if joins_on_maybe_unbound(node, best):
            attach_ready_filters(best, pending)
            joined: PlanNode = (LeftJoinNode if outer else CompatJoinNode)(
                node, best, est, condition
            )
            joined.est_cost = node.est_cost + best.est_cost + est
            return joined
        hash_cost = node.est_cost + best.est_rows + est
        if keys and isinstance(best, ScanNode) and (
            node.est_rows * BIND_JOIN_FACTOR < best.est_rows
            or (budget is not None and hash_cost * 2 > budget)
        ):
            joined = BindJoinNode(self.store, node, best.pattern, est, outer, condition)
            # Probes charge per produced candidate.
            joined.est_cost = node.est_cost + est
        else:
            # Push single-input filters below the build side so the
            # hash table only holds rows that can survive.
            attach_ready_filters(best, pending)
            joined = HashJoinNode(node, best, keys, est, outer, condition)
            joined.est_cost = hash_cost
        return joined

    # -- cost model ----------------------------------------------------

    def _join_estimate(self, left: PlanNode, candidate: PlanNode) -> int:
        shared = [name for name in candidate.variables if name in left.slot_of]
        if not shared:
            return max(1, left.est_rows) * max(1, candidate.est_rows)  # the product
        if not isinstance(candidate, ScanNode):
            # VALUES/UNION inputs: assume near-unique keys, so the join
            # output tracks the larger input.
            return max(left.est_rows, candidate.est_rows)
        stats = self.store.predicate_stats_ids()
        distinct = 1
        for name in shared:
            distinct = max(distinct, self._distinct_values(candidate, name, stats))
        return max(0, left.est_rows * candidate.est_rows // max(distinct, 1))

    def _distinct_values(
        self,
        scan: ScanNode,
        name: str,
        stats: Dict[int, Tuple[int, int, int]],
    ) -> int:
        """Distinct count of variable ``name`` within ``scan``'s pattern."""
        pattern = scan.pattern
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            return max(scan.est_rows, 1)
        pid = self.store.term_id(predicate)
        stat = stats.get(pid)
        if stat is None:
            return max(scan.est_rows, 1)
        count, distinct_s, distinct_o = stat
        if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
            return max(distinct_s, 1)
        if isinstance(pattern.object, Variable) and pattern.object.name == name:
            return max(distinct_o, 1)
        return max(scan.est_rows, 1)


def _hand_down(node: PlanNode, local_terms: Sequence[Term]) -> None:
    """Give every node of a plan the planner's query-local terms."""
    node.local_terms = local_terms
    for child in node.children():
        _hand_down(child, local_terms)


def _strip_filters(node: AlgebraNode) -> Tuple[List[Expression], AlgebraNode]:
    """Peel Filter wrappers off a logical node, outermost first."""
    filters: List[Expression] = []
    while isinstance(node, LogicalFilter):
        filters.append(node.expression)
        node = node.child
    return filters, node


def _uncorrelated(node: AlgebraNode, outer: frozenset) -> bool:
    """True when an OPTIONAL group evaluated once, on its own, extends
    every base solution exactly as evaluating it per solution with that
    solution's bindings (``outer``) does — the reference semantics.

    They can differ only where a binding would have reached *inside*
    the group: a filter below its top level (pushed into, or written
    in, a UNION branch or a join side), or the right side of a nested
    OPTIONAL or MINUS, reading an ``outer`` variable its own operand
    does not certainly bind to the same value.  The group's top-level
    filters are not in ``node`` — they are the left join's condition
    and see the merged row either way.
    """
    reads: Sequence[str] = ()
    if isinstance(node, LogicalFilter):
        reads, binds = node.expression.variables(), node.child
    elif isinstance(node, (LogicalLeftJoin, LogicalMinus)):
        reads, binds = node.right.variables(), node.left
    if reads and not set(reads) & outer <= set(binds.certain_variables()):
        return False
    return all(_uncorrelated(child, outer) for child in node.children())


def joins_on_maybe_unbound(left: PlanNode, right: PlanNode) -> bool:
    """True when a variable the two inputs share may be unbound on
    either side: joining on it needs SPARQL compatibility semantics,
    which equality on IDs (hash and bind joins) does not have."""
    return any(
        name in left.maybe_unbound or name in right.maybe_unbound
        for name in right.variables
        if name in left.slot_of
    )


def attach_ready_filters(node: PlanNode, pending: List[Expression]) -> None:
    """Attach every pending filter whose variables are *certainly*
    bound by ``node``.

    A variable that is merely maybe-unbound must wait: evaluating the
    filter against an UNDEF row here would drop it, while a later
    compatibility join could still bind the variable and let the row
    pass.  Filters that never become attachable go onto the plan root
    (group-level scope), where erroring on an unbound variable is the
    correct SPARQL outcome.
    """
    ready = [
        expr for expr in pending
        if all(
            name in node.slot_of and name not in node.maybe_unbound
            for name in expr.variables()
        )
    ]
    for expr in ready:
        node.filters.append(expr)
        pending.remove(expr)


def refresh_plan_estimates(node: PlanNode, store: TripleStore) -> PlanNode:
    """Re-resolve leaf cardinality estimates from current store stats.

    ``est=N`` on a plan is computed at *plan* time; a store mutated
    since then (bumping :attr:`~repro.store.TripleStore.generation`)
    leaves those numbers describing data that no longer exists.  The
    generation-keyed plan cache already replans after mutations, but a
    caller holding a plan object across writes would still print stale
    estimates — EXPLAIN ANALYZE calls this first so the ``est → actual``
    comparison is always against generation-current statistics.  Only
    leaves re-resolve (scans against the backend's free estimates,
    VALUES tables against their literal row count); join estimates
    derive from the same statistics snapshot at planning, so a cached
    same-generation plan is already consistent.
    """
    if isinstance(node, ScanNode):
        node.est_rows = store.cardinality_estimate(node.pattern)
    elif isinstance(node, ValuesScanNode):
        node.est_rows = len(node.id_rows)
    for child in node.children():
        refresh_plan_estimates(child, store)
    return node


def explain_plan(node: PlanNode, indent: int = 0) -> str:
    """Render the plan tree, one operator per line, each with its
    estimated output rows, outer-join condition and FILTERs."""
    pad = "  " * indent
    line = f"{pad}{node.label()}  [est={node.est_rows}]"
    for tag, expressions in (
        ("condition", node.condition),
        ("filter", node.filters),
    ):
        if expressions:
            from .serializer import serialize_expression

            rendered = ", ".join(serialize_expression(expr) for expr in expressions)
            line += f" {tag}({rendered})"
    lines = [line]
    for child in node.children():
        lines.append(explain_plan(child, indent + 1))
    return "\n".join(lines)
