"""Storage backends: the ID-triple seam under :class:`TripleStore`.

A backend stores triples of integer IDs minted by a
:class:`~repro.store.dictionary.TermDictionary` it owns; it knows nothing
about RDF terms, SPARQL, or cost metering — those live one layer up in
:class:`~repro.store.triplestore.TripleStore`.  Keeping the seam at the
ID level means a backend only has to answer eight pattern shapes over
integer keys, which both implementations do with covering indexes:

* :class:`MemoryBackend` — three nested dict-of-dict-of-set indexes
  (SPO / POS / OSP) over ints; the default, fastest for ephemeral data.
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
implement it natively: the memory backend materializes index slices
straight into arrays, SQLite fetches only the needed columns with
``fetchmany`` over the same covering indexes.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

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
    def subject_ids(self) -> Iterator[int]: ...
    def subject_count(self) -> int: ...
    def predicate_ids(self) -> Iterator[int]: ...
    def object_ids(self) -> Iterator[int]: ...
    def predicate_fanouts(self) -> Dict[int, int]: ...
    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]: ...
    def object_fanouts(self) -> Dict[int, int]: ...
    def get_meta(self, key: str) -> Optional[str]: ...
    def set_meta(self, key: str, value: str) -> None: ...
    def meta_items(self) -> Dict[str, str]: ...
    def close(self) -> None: ...


class MemoryBackend:
    """SPO / POS / OSP nested-dict indexes over integer IDs.

    Structurally identical to the seed store's indexes, but every key is
    an ``int`` — hashing is a word op and small-int hashes are the values
    themselves, so probe order is deterministic across runs.
    """

    name = "memory"

    def __init__(self, dictionary: Optional[TermDictionary] = None) -> None:
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._osp: Dict[int, Dict[int, Set[int]]] = {}
        self._size = 0
        # Triples per subject / predicate / object, kept by ``add``: the
        # planner asks for the one-position estimates several times a
        # plan, and summing a predicate's fan-outs walks its whole POS
        # slice.
        self._s_total: Dict[int, int] = {}
        self._p_total: Dict[int, int] = {}
        self._o_total: Dict[int, int] = {}
        self._meta: Dict[str, str] = {}
        # Per-predicate (count, distinct subjects, distinct objects),
        # rebuilt lazily after mutations; feeds the join planner.
        self._pstats: Optional[Dict[int, Tuple[int, int, int]]] = None
        # Columnar projection per predicate: aligned (subject, object)
        # ID arrays, built lazily from ``_pos`` on first columnar scan
        # and invalidated per predicate on mutation.  This is the
        # storage half of the batched executor: predicate-bound scans
        # (the dominant pattern shape) hand out array slices instead of
        # re-grouping the nested-dict index on every query.
        self._pcols: Dict[int, Tuple[array, array]] = {}
        # Generic columnar-scan cache keyed by the full match shape
        # ``(s, p, o, positions)``; covers the grouped shapes ``_pcols``
        # does not (subject-/object-bound scans, full wildcard).  Cleared
        # wholesale on mutation — same policy as the SQLite backend.
        self._col_cache: Dict[Tuple, Tuple[array, ...]] = {}

    # -- mutation ------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        objects = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._size += 1
        self._s_total[s] = self._s_total.get(s, 0) + 1
        self._p_total[p] = self._p_total.get(p, 0) + 1
        self._o_total[o] = self._o_total.get(o, 0) + 1
        self._pstats = None
        self._pcols.pop(p, None)
        if self._col_cache:
            self._col_cache.clear()
        return True

    def add_many(self, triples: Iterator[IdTriple]) -> int:
        return sum(1 for s, p, o in triples if self.add(s, p, o))

    # -- lookup --------------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        by_p = self._spo.get(s)
        if by_p is None:
            return False
        objects = by_p.get(p)
        return objects is not None and o in objects

    def size(self) -> int:
        return self._size

    def iter_ids(self) -> Iterator[IdTriple]:
        for s, by_p in self._spo.items():
            for p, objects in by_p.items():
                for o in objects:
                    yield (s, p, o)

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[IdTriple]:
        if s is not None and p is not None and o is not None:
            if self.contains(s, p, o):
                yield (s, p, o)
            return
        if s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield (s, p, obj)
            return
        if p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield (subj, p, o)
            return
        if s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
                yield (s, pred, o)
            return
        if s is not None:
            for pred, objects in self._spo.get(s, {}).items():
                for obj in objects:
                    yield (s, pred, obj)
            return
        if p is not None:
            for obj, subjects in self._pos.get(p, {}).items():
                for subj in subjects:
                    yield (subj, p, obj)
            return
        if o is not None:
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield (subj, pred, o)
            return
        yield from self.iter_ids()

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
        be a wildcard.  Whole columns are materialized through
        ``itertools``-driven bulk copies (``chain.from_iterable`` over
        index groups, ``repeat`` for the grouped key) so the per-triple
        work runs in C, then handed out as ``array`` slices — this is
        where the batched executor's scan speedup comes from.
        """
        if not positions:
            raise ValueError("match_columns needs at least one position")
        if any((s, p, o)[pos] is not None for pos in positions):
            raise ValueError("match_columns positions must be wildcards")
        key = (s, p, o, tuple(positions))
        hit = self._col_cache.get(key)
        if hit is not None:
            length = len(hit[0])
            for start in range(0, length, batch_size):
                stop = start + batch_size
                yield tuple(col[start:stop] for col in hit)
            return
        want = set(positions)
        cols: Dict[int, array] = {}

        def grouped(index, key_pos: int, value_pos: int) -> None:
            """Build columns from one grouped index level: the key column
            repeats each group key ``len(group)`` times, the value column
            concatenates the groups.  Dict iteration order is stable
            across the passes, so the columns stay row-aligned."""
            if key_pos in want:
                sizes = map(len, index.values())
                cols[key_pos] = array(
                    "q", chain.from_iterable(map(repeat, index.keys(), sizes))
                )
            if value_pos in want:
                cols[value_pos] = array(
                    "q", chain.from_iterable(index.values())
                )

        if s is not None and p is not None:
            cols[2] = array("q", self._spo.get(s, {}).get(p, ()))
        elif p is not None and o is not None:
            cols[0] = array("q", self._pos.get(p, {}).get(o, ()))
        elif s is not None and o is not None:
            cols[1] = array("q", self._osp.get(o, {}).get(s, ()))
        elif s is not None:
            grouped(self._spo.get(s, {}), key_pos=1, value_pos=2)
        elif p is not None:
            cols[0], cols[2] = self._predicate_columns(p)
        elif o is not None:
            grouped(self._osp.get(o, {}), key_pos=0, value_pos=1)
        else:
            # Subject-major like ``match_ids`` so both pipelines cut
            # LIMIT/DISTINCT pages over the same enumeration order.
            subj_col = array("q") if 0 in want else None
            pred_col = array("q") if 1 in want else None
            obj_col = array("q") if 2 in want else None
            for subj, by_p in self._spo.items():
                sizes = [len(objects) for objects in by_p.values()]
                if subj_col is not None:
                    subj_col.extend(repeat(subj, sum(sizes)))
                if pred_col is not None:
                    pred_col.extend(
                        chain.from_iterable(map(repeat, by_p.keys(), sizes))
                    )
                if obj_col is not None:
                    obj_col.extend(chain.from_iterable(by_p.values()))
            for pos, col in ((0, subj_col), (1, pred_col), (2, obj_col)):
                if col is not None:
                    cols[pos] = col

        if len(self._col_cache) >= 128:
            self._col_cache.clear()
        out = self._col_cache[key] = tuple(cols[pos] for pos in positions)
        length = len(out[0])
        for start in range(0, length, batch_size):
            stop = start + batch_size
            yield tuple(col[start:stop] for col in out)

    def _predicate_columns(self, p: int) -> Tuple[array, array]:
        """Aligned (subject, object) columns for one predicate, cached.

        Callers must not mutate or hand out the returned arrays —
        ``match_columns`` only ever yields slices of them (array slicing
        copies), so the cache stays private.
        """
        cached = self._pcols.get(p)
        if cached is None:
            index = self._pos.get(p, {})
            sizes = map(len, index.values())
            o_col = array(
                "q", chain.from_iterable(map(repeat, index.keys(), sizes))
            )
            s_col = array("q", chain.from_iterable(index.values()))
            self._pcols[p] = cached = (s_col, o_col)
        return cached

    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        """Exact match count (used by ``TripleStore.count``; still free —
        it walks index fan-outs, never the triples)."""
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        return self.estimate_ids(s, p, o)

    def estimate_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        if s is not None and p is not None and o is not None:
            return 1
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return self._s_total.get(s, 0)
        if p is not None:
            return self._p_total.get(p, 0)
        if o is not None:
            return self._o_total.get(o, 0)
        return self._size

    # -- aggregates ----------------------------------------------------

    def subject_ids(self) -> Iterator[int]:
        return iter(self._spo.keys())

    def subject_count(self) -> int:
        return len(self._spo)

    def predicate_ids(self) -> Iterator[int]:
        return iter(self._pos.keys())

    def object_ids(self) -> Iterator[int]:
        return iter(self._osp.keys())

    def predicate_fanouts(self) -> Dict[int, int]:
        return dict(self._p_total)

    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]:
        """Per-predicate ``(count, distinct subjects, distinct objects)``.

        One pass over the POS index per rebuild, cached until the next
        mutation — the planner asks for these on every query.
        """
        if self._pstats is None:
            stats: Dict[int, Tuple[int, int, int]] = {}
            for p, by_o in self._pos.items():
                count = 0
                subjects: Set[int] = set()
                for subs in by_o.values():
                    count += len(subs)
                    subjects.update(subs)
                stats[p] = (count, len(subjects), len(by_o))
            self._pstats = stats
        return self._pstats

    def object_fanouts(self) -> Dict[int, int]:
        return dict(self._o_total)

    def get_meta(self, key: str) -> Optional[str]:
        """Read a metadata value (ephemeral, like the triples)."""
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    def meta_items(self) -> Dict[str, str]:
        return dict(self._meta)

    def close(self) -> None:
        """Nothing to release for the in-memory backend."""
