"""Storage backends: the ID-triple seam under :class:`TripleStore`.

A backend stores triples of integer IDs minted by a
:class:`~repro.store.dictionary.TermDictionary` it owns; it knows nothing
about RDF terms, SPARQL, or cost metering — those live one layer up in
:class:`~repro.store.triplestore.TripleStore`.  Keeping the seam at the
ID level means a backend only has to answer the eight triple-pattern
shapes over integer keys, which every implementation does with covering
indexes:

* :class:`MemoryBackend` — three clustered permutations (SPO / POS /
  OSP), each a set of aligned ``array('q')`` columns; the default,
  fastest for ephemeral data.
* :class:`~repro.store.sqlite_backend.SQLiteBackend` — the same three
  covering indexes as B-trees in a WAL-mode SQLite file; survives
  restarts (see ``docs/storage.md`` for the schema).
* :class:`~repro.store.sharded.ShardedBackend` — either of the two,
  hash-partitioned by subject over N children.

The seam is twelve methods, each asking one question (the
:class:`TripleStore` calls it backs in brackets):

* ``add`` / ``add_many`` — insert (``add`` / ``add_all``);
* ``size`` — the triple count (``len``);
* ``match_ids`` — the rows of one shape, a tuple each (``match``,
  ``match_ids``, ``triples``: ``match_ids(None, None, None)``);
* ``match_columns`` — the same rows as batches of ID columns
  (``match_columns``; ``compute_stats`` reads the store in one such pass);
* ``count_ids`` — the exact row count of a shape, free: a row range's
  length or a cached total, never a walk over the triples (``count``,
  ``cardinality_estimate``);
* ``has_match`` — whether a shape has a row; with all three positions
  bound, whether the store holds the triple (``in``, the concrete probe
  of ``match_ids``, ``proves_no_match``);
* ``predicate_stats`` — per predicate ``(count, distinct subjects,
  distinct objects)``, cached until the next write (``predicate_stats``,
  ``predicate_stats_ids``);
* ``subject_predicate_sets`` — each subject's sorted predicates
  (``characteristic_sets``);
* ``set_meta`` / ``meta_items`` — string metadata such as a dataset
  fingerprint, which ``save_store`` copies into a snapshot;
* ``close`` — release what the backend holds (``close``).

Positions use ``None`` as the wildcard.  Backends never see
:data:`~repro.store.dictionary.NO_ID` in the "present" sense: it is a
valid probe value that simply never matches anything.

Columnar seam
-------------
``match_columns`` is the batched counterpart of ``match_ids``: instead of
one ``(s, p, o)`` tuple per ``next()`` call, it yields **batches of ID
columns** — tuples of ``array('q')`` arrays, one per requested wildcard
position, up to ``batch_size`` rows long (with ``max_batch_size``, the
first batch is ``batch_size`` rows and each next one doubles, up to
``max_batch_size``: a LIMIT page that reads ahead,
:func:`batch_sizes`).  The physical operators in
:mod:`~repro.sparql.plan` consume these directly, so a scan crosses the
backend boundary once per batch instead of once per row.  Every backend
implements it natively: the memory backend hands out slices of the
columns it stores, SQLite fetches only the needed columns with
``fetchmany`` over the same covering indexes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, count, repeat
from operator import itemgetter, sub
from threading import Lock
from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

from .dictionary import TermDictionary

__all__ = ["StorageBackend", "MemoryBackend", "ColumnBatch"]

#: An encoded triple.
IdTriple = Tuple[int, int, int]

#: One batch of scan output: equal-length ``array('q')`` columns aligned
#: with the ``positions`` the caller requested.
ColumnBatch = Tuple[array, ...]

#: Default rows per ``match_columns`` batch.
COLUMN_BATCH_SIZE = 1024


def batch_sizes(batch_size: int, max_batch_size: Optional[int] = None) -> Iterator[int]:
    """The rows of each ``match_columns`` batch, in turn: ``batch_size``
    first, then doubling up to ``max_batch_size`` (default: no growth)."""
    size = batch_size
    top = max(batch_size, max_batch_size or batch_size)
    while True:
        yield size
        size = min(size * 2, top)


def column_slices(
    columns: Sequence[array], lo: int, hi: int, batch_size: int,
    max_batch_size: Optional[int] = None,
) -> Iterator[ColumnBatch]:
    """Rows ``lo:hi`` of ``columns`` as batches of :func:`batch_sizes` rows."""
    sizes = batch_sizes(batch_size, max_batch_size)
    while lo < hi:
        stop = min(lo + next(sizes), hi)
        yield tuple(column[lo:stop] for column in columns)
        lo = stop


def _zeros(n: int) -> array:
    """``n`` zeros as an ``array('q')``, allocated once at that size."""
    return array("q", (0,)) * n


class StorageBackend(Protocol):
    """What :class:`TripleStore` needs from a storage engine.

    All IDs are dictionary IDs; ``None`` in a pattern position means
    "any".  ``count_ids``, ``has_match`` and ``predicate_stats`` must be
    cheap (row ranges, index prefixes or caches, no enumeration) and must
    never raise on unknown IDs.
    """

    #: Human-readable backend name (``"memory"`` / ``"sqlite"`` / ``"sharded"``).
    name: str
    #: The term dictionary whose IDs this backend stores.
    dictionary: TermDictionary

    def add(self, s: int, p: int, o: int) -> bool: ...
    def add_many(self, triples: Iterator[IdTriple]) -> int: ...
    def size(self) -> int: ...
    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[IdTriple]: ...
    def match_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        positions: Sequence[int],
        batch_size: int = COLUMN_BATCH_SIZE,
        max_batch_size: Optional[int] = None,
    ) -> Iterator[ColumnBatch]: ...
    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int: ...
    def has_match(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> bool: ...
    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]: ...
    def subject_predicate_sets(self) -> Iterator[Tuple[int, ...]]: ...
    def set_meta(self, key: str, value: str) -> None: ...
    def meta_items(self) -> Dict[str, str]: ...
    def close(self) -> None: ...


class _Permutation:
    """One clustered order of the triples (SPO, POS or OSP) as columns.

    ``order`` holds the triple positions of the first key ``a``, the
    second key ``b`` and the leaf ``c``.  Rows are clustered by ``a``,
    then by ``b``, both in first-insertion order; a group's leaves come
    in the order a ``set`` of them iterates (the order of the
    dict-of-sets indexes this layout replaced, so result rows keep their
    bytes).  ``col_b`` / ``col_c`` hold the rows; ``a`` is constant over
    its block and is not stored.  ``keys`` maps ``a`` to its block ``k``:
    rows ``starts[k]:starts[k + 1]``, directory entries ``blocks[k]:
    blocks[k + 1]``, one per group and sorted by ``b`` so a lookup
    bisects; entry ``j`` is the group ``dir_b[j]``, rows
    ``dir_lo[j]:dir_hi[j]``.  Built whole, never mutated.
    """

    __slots__ = ("order", "keys", "starts", "blocks", "dir_b", "dir_lo", "dir_hi", "col_b", "col_c")

    def __init__(self, order: Tuple[int, int, int], a_col: array, b_col: array, c_col: array) -> None:
        """Cluster the rows ``(a_col[i], b_col[i], c_col[i])``, given in
        insertion order.

        Every array is allocated once, at its final size.  A stable
        counting sort writes the rows into ``col_b`` / ``col_c`` block by
        block; each block is then put in group order in place.  The
        temporaries are the dict of one block's groups at a time."""
        self.order = order
        n = len(a_col)
        sizes = Counter(a_col)  # rows per key, keys in first-insertion order
        self.keys = keys = dict(zip(sizes, count()))
        self.starts = starts = array("q", accumulate(sizes.values(), initial=0))
        del sizes
        self.col_b, self.col_c = col_b, col_c = _zeros(n), _zeros(n)
        fill = list(starts)
        for k, b, c in zip(map(keys.__getitem__, a_col), b_col, c_col):
            at = fill[k]
            col_b[at] = b
            col_c[at] = c
            fill[k] = at + 1
        del fill
        ends = starts[1:]
        # A block's directory holds an entry per distinct ``b``.
        self.blocks = blocks = array("q", accumulate(
            (len(set(col_b[lo:hi])) for lo, hi in zip(starts, ends)), initial=0
        ))
        self.dir_b, self.dir_lo, self.dir_hi = dir_b, dir_lo, dir_hi = [_zeros(blocks[-1]) for _ in range(3)]
        for lo, hi, j, last in zip(starts, ends, blocks, blocks[1:]):
            if last - j == hi - lo:  # one leaf per group: the rows are in place
                for j, at in enumerate(sorted(range(lo, hi), key=col_b.__getitem__), j):
                    dir_b[j] = col_b[at]
                    dir_lo[j] = at
                    dir_hi[j] = at + 1
                continue
            groups: Dict[int, List[int]] = {}  # b -> its leaves, both in insertion order
            for b, c in zip(col_b[lo:hi], col_c[lo:hi]):
                leaves = groups.get(b)
                if leaves is None:
                    groups[b] = [c]
                else:
                    leaves.append(c)
            first: Dict[int, int] = {}  # b -> its group's first row
            for b, leaves in groups.items():
                first[b] = lo
                m = len(leaves)
                if m == 1:
                    col_b[lo] = b
                    col_c[lo] = leaves[0]
                else:
                    col_b[lo:lo + m] = array("q", (b,)) * m
                    col_c[lo:lo + m] = array("q", set(leaves))
                lo += m
            for j, b in enumerate(sorted(groups), j):
                dir_b[j] = b
                dir_lo[j] = at = first[b]
                dir_hi[j] = at + len(groups[b])

    def block(self, a: int) -> Tuple[int, int]:
        """The row range of key ``a``."""
        k = self.keys.get(a)
        return (0, 0) if k is None else (self.starts[k], self.starts[k + 1])

    def group(self, a: int, b: int) -> Tuple[int, int]:
        """The row range of the ``(a, b)`` group."""
        k = self.keys.get(a)
        if k is None:
            return 0, 0
        last = self.blocks[k + 1]
        j = bisect_left(self.dir_b, b, self.blocks[k], last)
        if j == last or self.dir_b[j] != b:
            return 0, 0
        return self.dir_lo[j], self.dir_hi[j]

    def has(self, a: int, b: int, c: int) -> bool:
        lo, hi = self.group(a, b)
        return c in self.col_c[lo:hi]

    def key_column(self) -> array:
        """``a`` for every row: each key repeated over its block."""
        lengths = map(sub, self.starts[1:], self.starts)
        return array("q", chain.from_iterable(map(repeat, self.keys, lengths)))

    def grown(self, log: Sequence[array]) -> "_Permutation":
        """This permutation with the log's rows added: rebuilt from its
        own rows, in clustered order, followed by the log's, given as its
        ``s`` / ``p`` / ``o`` columns in insertion order.  Every old row
        was inserted before every logged one, so first appearance in that
        sequence is first insertion (each permutation refolds from its
        own rows: another's clustered order is not this one's)."""
        a_col, b_col, c_col = (log[i] for i in self.order)
        if self.col_b:
            a_col, b_col, c_col = self.key_column() + a_col, self.col_b + b_col, self.col_c + c_col
        return _Permutation(self.order, a_col, b_col, c_col)


#: Triple positions ``(a, b, c)`` of SPO, POS and OSP.
_ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

_Layout = Tuple[_Permutation, _Permutation, _Permutation]

#: The layout of a backend never read since its last write: nothing
#: mutates a permutation, so every backend can start from these.
_EMPTY: _Layout = tuple(_Permutation(order, *[array("q")] * 3) for order in _ORDERS)  # type: ignore[assignment]


class MemoryBackend:
    """SPO / POS / OSP as clustered ``array('q')`` columns, in the style
    of RDF-3X's clustered indexes (:class:`_Permutation`).

    Every shape with a wildcard is one row range ``[lo, hi)`` of one
    permutation, so a scan hands out slices of the stored columns.  The
    enumeration order is part of the contract: keys at both levels come
    out in first-insertion order, leaves in ``set`` order (so a fully
    bound ``has_match`` scans its group rather than bisecting).  Writes
    go to a pending log, which the first read after them folds in; the
    loaders write everything, then read, so that is one fold.
    """

    name = "memory"

    def __init__(self, dictionary: Optional[TermDictionary] = None) -> None:
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._layout: _Layout = _EMPTY
        # Triples added since the last fold, in insertion order; while
        # ``_stale``, the layout lacks them (the fold empties the log
        # before it publishes).
        self._pending: Dict[IdTriple, None] = {}
        self._stale = False
        self._fold_lock = Lock()
        self._size = 0
        self._meta: Dict[str, str] = {}
        # Per-predicate (count, distinct subjects, distinct objects),
        # rebuilt lazily after a fold; feeds the join planner.
        self._pstats: Optional[Dict[int, Tuple[int, int, int]]] = None

    # -- mutation ------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        triple = (s, p, o)
        if triple in self._pending or self._layout[0].has(s, p, o):
            return False
        self._pending[triple] = None
        self._stale = True
        self._size += 1
        return True

    def add_many(self, triples: Iterator[IdTriple]) -> int:
        return sum(1 for s, p, o in triples if self.add(s, p, o))

    def _read(self) -> _Layout:
        """The permutations, with the pending log folded in first.

        The fold moves the log into three columns and drops its tuples
        before it builds a permutation, then rebuilds each permutation
        with :meth:`_Permutation.grown`.  A reader that finds the layout
        stale waits on the fold lock, so one that arrives mid-fold, with
        the log already empty, still finds every row once it gets in.
        """
        if self._stale:
            with self._fold_lock:
                if self._stale:  # not folded by another reader meanwhile
                    log, self._pending = self._pending, {}
                    # Each column from a list: allocated once, at its size.
                    columns = [array("q", list(map(itemgetter(i), log))) for i in range(3)]
                    del log
                    self._layout = tuple(old.grown(columns) for old in self._layout)  # type: ignore[assignment]
                    self._pstats = None
                    self._stale = False
        return self._layout

    # -- lookup --------------------------------------------------------

    def size(self) -> int:
        return self._size

    def _locate(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Tuple[_Permutation, int, int]:
        """The permutation and row range ``[lo, hi)`` of a shape with a wildcard."""
        spo, pos, osp = self._read()
        if s is not None:
            if p is not None:
                return (spo, *spo.group(s, p))
            return (osp, *osp.group(o, s)) if o is not None else (spo, *spo.block(s))
        if p is not None:
            return (pos, *(pos.block(p) if o is None else pos.group(p, o)))
        return (osp, *osp.block(o)) if o is not None else (spo, 0, self._size)

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[IdTriple]:
        spo, pos, osp = self._read()
        # Two bound positions name one group: the bind join's probe, once
        # per left row and most often one row long, walks it directly.
        if s is not None and p is not None:
            lo, hi = spo.group(s, p)
            for obj in spo.col_c[lo:hi]:
                if o is None or obj == o:
                    yield (s, p, obj)
        elif p is not None and o is not None:
            lo, hi = pos.group(p, o)
            for subj in pos.col_c[lo:hi]:
                yield (subj, p, o)
        elif s is not None and o is not None:
            lo, hi = osp.group(o, s)
            for pred in osp.col_c[lo:hi]:
                yield (s, pred, o)
        else:
            perm, lo, hi = self._locate(s, p, o)
            a_pos, b_pos, c_pos = perm.order
            key = (s, p, o)[a_pos]
            columns: List[Iterable[int]] = [(), (), ()]
            columns[a_pos] = perm.key_column() if key is None else repeat(key)
            columns[b_pos] = perm.col_b[lo:hi]
            columns[c_pos] = perm.col_c[lo:hi]
            yield from zip(*columns)

    def match_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        positions: Sequence[int],
        batch_size: int = COLUMN_BATCH_SIZE,
        max_batch_size: Optional[int] = None,
    ) -> Iterator[ColumnBatch]:
        """Columnar scan: batches of ID arrays for the wildcard ``positions``.

        ``positions`` selects which of the free (``None``) pattern
        positions to return, in any order; every requested position must
        be a wildcard.  The batches are slices of the permutation's own
        columns, in ``match_ids``'s order.
        """
        if not positions:
            raise ValueError("match_columns needs at least one position")
        if any((s, p, o)[pos] is not None for pos in positions):
            raise ValueError("match_columns positions must be wildcards")
        perm, lo, hi = self._locate(s, p, o)
        a_pos, b_pos, _ = perm.order
        columns = [
            perm.key_column() if pos == a_pos else perm.col_b if pos == b_pos else perm.col_c
            for pos in positions
        ]
        yield from column_slices(columns, lo, hi, batch_size, max_batch_size)

    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        """Exact match count, free: a row range's length, never a walk
        over the triples."""
        if s is not None and p is not None and o is not None:
            return 1 if self._read()[0].has(s, p, o) else 0
        _, lo, hi = self._locate(s, p, o)
        return hi - lo

    def has_match(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> bool:
        """Whether any triple matches: a row range that is not empty."""
        if s is not None and p is not None and o is not None:
            return self._read()[0].has(s, p, o)
        _, lo, hi = self._locate(s, p, o)
        return hi > lo

    # -- aggregates ----------------------------------------------------

    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]:
        """Per-predicate ``(count, distinct subjects, distinct objects)``.

        One pass over the POS columns per fold, cached until the next —
        the planner asks for these on every query.  A predicate's
        directory entries are its distinct objects.
        """
        pos = self._read()[1]
        if self._pstats is None:
            self._pstats = {
                p: (hi - lo, len(set(pos.col_c[lo:hi])), pos.blocks[k + 1] - pos.blocks[k])
                for p, k, lo, hi in zip(pos.keys, count(), pos.starts, pos.starts[1:])
            }
        return self._pstats

    def subject_predicate_sets(self) -> Iterator[Tuple[int, ...]]:
        """Each subject's distinct predicates, sorted: one tuple per
        SPO block, read off its directory (one entry per predicate,
        sorted by it)."""
        spo = self._read()[0]
        dir_b, blocks = spo.dir_b, spo.blocks
        return (tuple(dir_b[lo:hi]) for lo, hi in zip(blocks, blocks[1:]))

    def set_meta(self, key: str, value: str) -> None:
        """Write a metadata value (ephemeral, like the triples)."""
        self._meta[key] = value

    def meta_items(self) -> Dict[str, str]:
        return dict(self._meta)

    def close(self) -> None:
        """Nothing to release for the in-memory backend."""
