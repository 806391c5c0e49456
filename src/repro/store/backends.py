"""Storage backends: the ID-triple seam under :class:`TripleStore`.

A backend stores triples of integer IDs minted by a
:class:`~repro.store.dictionary.TermDictionary` it owns; it knows nothing
about RDF terms, SPARQL, or cost metering — those live one layer up in
:class:`~repro.store.triplestore.TripleStore`.  Keeping the seam at the
ID level means a backend only has to answer eight pattern shapes over
integer keys, which both implementations do with covering indexes:

* :class:`MemoryBackend` — three clustered permutations (SPO / POS /
  OSP), each a set of aligned ``array('q')`` columns; the default,
  fastest for ephemeral data.
* :class:`~repro.store.sqlite_backend.SQLiteBackend` — the same three
  covering indexes as B-trees in a WAL-mode SQLite file; survives
  restarts (see ``docs/storage.md`` for the schema).

``match_ids`` positions use ``None`` as the wildcard.  Backends never see
:data:`~repro.store.dictionary.NO_ID` in the "present" sense: it is a
valid probe value that simply never matches anything.

Columnar seam
-------------
``match_columns`` is the batched counterpart of ``match_ids``: instead of
one ``(s, p, o)`` tuple per ``next()`` call, it yields **batches of ID
columns** — tuples of ``array('q')`` arrays, one per requested wildcard
position, up to ``batch_size`` rows long.  The physical operators in
:mod:`~repro.sparql.plan` consume these directly, so a scan crosses the
backend boundary once per batch instead of once per row.  Both backends
implement it natively: the memory backend hands out slices of the
columns it stores, SQLite fetches only the needed columns with
``fetchmany`` over the same covering indexes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate, chain, count, repeat, starmap
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


class StorageBackend(Protocol):
    """What :class:`TripleStore` needs from a storage engine.

    All IDs are dictionary IDs; ``None`` in a ``match_ids``/``count``
    position means "any".  Estimation methods must be cheap (index
    fan-outs, no enumeration) and must never raise on unknown IDs.
    """

    #: Human-readable backend name (``"memory"`` / ``"sqlite"``).
    name: str
    #: The term dictionary whose IDs this backend stores.
    dictionary: TermDictionary

    def add(self, s: int, p: int, o: int) -> bool: ...
    def add_many(self, triples: Iterator[IdTriple]) -> int: ...
    def contains(self, s: int, p: int, o: int) -> bool: ...
    def size(self) -> int: ...
    def iter_ids(self) -> Iterator[IdTriple]: ...
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
    ) -> Iterator[ColumnBatch]: ...
    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int: ...
    def estimate_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int: ...
    def has_match(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> bool: ...
    def subject_ids(self) -> Iterator[int]: ...
    def subject_count(self) -> int: ...
    def predicate_ids(self) -> Iterator[int]: ...
    def object_ids(self) -> Iterator[int]: ...
    def predicate_fanouts(self) -> Dict[int, int]: ...
    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]: ...
    def subject_predicate_sets(self) -> Iterator[Tuple[int, ...]]: ...
    def object_fanouts(self) -> Dict[int, int]: ...
    def get_meta(self, key: str) -> Optional[str]: ...
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

    def __init__(self, order: Tuple[int, int, int], rows: Iterable[IdTriple] = ()) -> None:
        """Cluster ``rows``, ``(a, b, c)`` tuples in insertion order."""
        groups: Dict[int, Dict[int, List[int]]] = {}
        for a, b, c in rows:
            leaves = groups.get(a)
            if leaves is None:
                groups[a] = {b: [c]}
            elif b in leaves:
                leaves[b].append(c)
            else:
                leaves[b] = [c]
        # The rest runs in C, a pass or a sort per array.
        per_block = list(map(len, groups.values()))
        leaf_lists = list(chain.from_iterable(map(dict.values, groups.values())))
        per_group = list(map(len, leaf_lists))
        group_b = list(chain.from_iterable(groups.values()))
        row_at = list(accumulate(per_group, initial=0))
        block_of = chain.from_iterable(map(repeat, count(), per_block))
        directory = sorted(zip(block_of, group_b, row_at, row_at[1:]))
        self.order = order
        self.keys = dict(zip(groups, count()))
        self.blocks = array("q", accumulate(per_block, initial=0))
        self.starts = array("q", map(row_at.__getitem__, self.blocks))
        self.dir_b, self.dir_lo, self.dir_hi = (array("q", map(itemgetter(i), directory)) for i in (1, 2, 3))
        self.col_b = array("q", chain.from_iterable(map(repeat, group_b, per_group)))
        self.col_c = array("q", chain.from_iterable(map(set, leaf_lists)))

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

    def fanouts(self) -> Dict[int, int]:
        """Rows per key, in key order."""
        return dict(zip(self.keys, map(sub, self.starts[1:], self.starts)))

    def key_column(self) -> array:
        """``a`` for every row: each key repeated over its block."""
        return array("q", chain.from_iterable(starmap(repeat, self.fanouts().items())))

    def rows(self) -> Iterator[IdTriple]:
        """Every ``(a, b, c)``, in clustered order."""
        return zip(self.key_column(), self.col_b, self.col_c)


#: Triple positions ``(a, b, c)`` of SPO, POS and OSP.
_ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

_Layout = Tuple[_Permutation, _Permutation, _Permutation]

#: The layout of a backend never read since its last write: nothing
#: mutates a permutation, so every backend can start from these.
_EMPTY: _Layout = tuple(_Permutation(order) for order in _ORDERS)  # type: ignore[assignment]


class MemoryBackend:
    """SPO / POS / OSP as clustered ``array('q')`` columns, in the style
    of RDF-3X's clustered indexes (:class:`_Permutation`).

    Every shape with a wildcard is one row range ``[lo, hi)`` of one
    permutation, so a scan hands out slices of the stored columns.  The
    enumeration order is part of the contract: keys at both levels come
    out in first-insertion order, leaves in ``set`` order (so
    ``contains`` scans its group rather than bisecting).  Writes go to a
    pending log, which the first read after them folds in; the loaders
    write everything, then read, so that is one fold.
    """

    name = "memory"

    def __init__(self, dictionary: Optional[TermDictionary] = None) -> None:
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._layout: _Layout = _EMPTY
        # Triples added since the last fold, in insertion order.
        self._pending: Dict[IdTriple, None] = {}
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
        self._size += 1
        return True

    def add_many(self, triples: Iterator[IdTriple]) -> int:
        return sum(1 for s, p, o in triples if self.add(s, p, o))

    def _read(self) -> _Layout:
        """The permutations, with the pending log folded in first.

        Each permutation is rebuilt from its own rows followed by the
        pending ones: every old row was inserted before every pending
        one, so first appearance in that sequence is first insertion.
        The new layout is published before the log is emptied, so a
        reader that finds the log empty finds its rows in the layout.
        """
        if self._pending:
            with self._fold_lock:
                if self._pending:  # not folded by another reader meanwhile
                    self._layout = tuple(  # type: ignore[assignment]
                        _Permutation(old.order, chain(old.rows(), map(itemgetter(*old.order), self._pending)))
                        for old in self._layout
                    )
                    self._pstats = None
                    self._pending = {}
        return self._layout

    # -- lookup --------------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        return self._read()[0].has(s, p, o)

    def size(self) -> int:
        return self._size

    def iter_ids(self) -> Iterator[IdTriple]:
        return self.match_ids(None, None, None)

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
        for start in range(lo, hi, batch_size):
            stop = min(start + batch_size, hi)
            yield tuple(column[start:stop] for column in columns)

    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        """Exact match count (used by ``TripleStore.count``; still free —
        a row range's length, never a walk over the triples)."""
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        return self.estimate_ids(s, p, o)

    def estimate_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        if s is not None and p is not None and o is not None:
            return 1
        _, lo, hi = self._locate(s, p, o)
        return hi - lo

    def has_match(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> bool:
        """Whether any triple matches: a row range that is not empty."""
        if s is not None and p is not None and o is not None:
            return self.contains(s, p, o)
        _, lo, hi = self._locate(s, p, o)
        return hi > lo

    # -- aggregates ----------------------------------------------------

    def subject_ids(self) -> Iterator[int]:
        return iter(self._read()[0].keys)

    def subject_count(self) -> int:
        return len(self._read()[0].keys)

    def predicate_ids(self) -> Iterator[int]:
        return iter(self._read()[1].keys)

    def object_ids(self) -> Iterator[int]:
        return iter(self._read()[2].keys)

    def predicate_fanouts(self) -> Dict[int, int]:
        return self._read()[1].fanouts()

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

    def object_fanouts(self) -> Dict[int, int]:
        return self._read()[2].fanouts()

    def get_meta(self, key: str) -> Optional[str]:
        """Read a metadata value (ephemeral, like the triples)."""
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    def meta_items(self) -> Dict[str, str]:
        return dict(self._meta)

    def close(self) -> None:
        """Nothing to release for the in-memory backend."""
