"""Persistent SQLite storage backend.

Stores the term dictionary and the ID triples of one
:class:`~repro.store.triplestore.TripleStore` in a single SQLite file so
datasets survive restarts (initialization "happens only once for each
endpoint" — Section 5.1 — and took 17 hours for DBpedia, so re-ingesting
on every boot is not an option at production scale).

Schema (documented in full in ``docs/storage.md``)::

    terms(id INTEGER PRIMARY KEY, kind INTEGER, lexical TEXT,
          lang TEXT, datatype TEXT)          -- the dictionary, dense IDs
    triples(s INTEGER, p INTEGER, o INTEGER,
            PRIMARY KEY (s, p, o)) WITHOUT ROWID   -- the SPO index
    idx_triples_pos(p, o, s)                 -- covering POS index
    idx_triples_osp(o, s, p)                 -- covering OSP index

The three B-trees mirror the memory backend's three permutations: every
one of the eight triple-pattern shapes is answered by a prefix range scan
of exactly one covering index, so SQLite never touches the base table
twice.

Pragmas applied at connection time:

======================  ========  ==============================================
Pragma                  Value     Purpose
======================  ========  ==============================================
``journal_mode``        WAL       readers never block the writer across restarts
``synchronous``         NORMAL    fsync at WAL checkpoints only (safe with WAL)
``foreign_keys``        ON        referential integrity for future tables
``busy_timeout``        30000 ms  wait for a locked database instead of failing
``temp_store``          MEMORY    sorts/temp B-trees stay off disk
======================  ========  ==============================================

Thread safety: the endpoint simulator serves QSM prefetches from
background threads, so the single connection is shared behind a lock and
every query materializes its rows before yielding.

Single-writer assumption: one live backend instance per database file.
WAL lets a *second* process read concurrently (and a fresh open sees all
committed writes), but a long-lived second instance caches the triple
count and dictionary at open time, so its ``size()`` and term IDs lag
behind another writer's commits.
"""

from __future__ import annotations

import sqlite3
import threading
from array import array
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import quote

from ..rdf.terms import Term, flatten_term, unflatten_term
from .backends import COLUMN_BATCH_SIZE, batch_sizes, column_slices
from .dictionary import TermDictionary

__all__ = ["SQLiteBackend"]

IdTriple = Tuple[int, int, int]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS terms (
    id       INTEGER PRIMARY KEY,
    kind     INTEGER NOT NULL,
    lexical  TEXT NOT NULL,
    lang     TEXT NOT NULL DEFAULT '',
    datatype TEXT NOT NULL DEFAULT '',
    UNIQUE (kind, lexical, lang, datatype)
);
CREATE TABLE IF NOT EXISTS triples (
    s INTEGER NOT NULL,
    p INTEGER NOT NULL,
    o INTEGER NOT NULL,
    PRIMARY KEY (s, p, o)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_triples_pos ON triples (p, o, s);
CREATE INDEX IF NOT EXISTS idx_triples_osp ON triples (o, s, p);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA foreign_keys=ON",
    "PRAGMA busy_timeout=30000",
    "PRAGMA temp_store=MEMORY",
)


class SQLiteBackend:
    """ID-triple storage in one SQLite database file.

    ``path`` may be ``":memory:"`` for an ephemeral database (useful in
    tests: same code path, no file).  Opening an existing file replays
    its ``terms`` table into the in-memory dictionary, so encode/decode
    stay O(1) dict/list operations; only triple probes hit SQLite.
    """

    name = "sqlite"

    def __init__(
        self, path: Union[str, Path] = ":memory:", *, read_only: bool = False
    ) -> None:
        self.path = str(path)
        self.read_only = read_only
        self._lock = threading.Lock()
        if read_only:
            # Snapshot-reader mode (the pre-fork workers' replica
            # discipline, docs/server.md): open an existing WAL file
            # with mode=ro — WAL lets any number of such readers run
            # concurrently with one writer in another process.  No
            # schema DDL, no WAL pragma (both would write); terms
            # interned at runtime stay memory-only instead of being
            # persisted, so the on-disk dictionary is never touched.
            if self.path == ":memory:":
                raise ValueError("read_only requires an existing database file")
            uri = "file:" + quote(str(Path(self.path).absolute())) + "?mode=ro"
            self._conn = sqlite3.connect(uri, uri=True, check_same_thread=False)
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.execute("PRAGMA temp_store=MEMORY")
            self.dictionary = TermDictionary()
        else:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            for pragma in _PRAGMAS:
                self._conn.execute(pragma)
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
            self.dictionary = TermDictionary(on_intern=self._persist_term)
        # Terms interned since the last write, as ``terms`` rows: the next
        # write (``add``, ``add_many``, ``set_meta``, ``close``) inserts
        # them in one ``executemany`` inside its own transaction.
        self._pending_terms: List[Tuple] = []
        self._load_terms()
        self._size = self._conn.execute("SELECT COUNT(*) FROM triples").fetchone()[0]
        # Per-predicate (count, distinct s, distinct o) for the planner
        # and count_ids, rebuilt lazily after mutations.
        self._pstats: Optional[Dict[int, Tuple[int, int, int]]] = None
        # Columnar scan cache: (s, p, o, positions) -> tuple of ID
        # arrays.  Full-pattern scans repeat constantly (QSM probes,
        # planner-driven joins), and re-fetching them through sqlite3
        # re-boxes every row into a Python tuple; serving array slices
        # out of this cache is the SQLite half of the batched executor.
        # Holds scans of at most one batch; cleared on any mutation.
        self._col_cache: Dict[Tuple, Tuple[array, ...]] = {}

    # -- dictionary persistence ---------------------------------------

    def _load_terms(self) -> None:
        rows = self._conn.execute(
            "SELECT id, kind, lexical, lang, datatype FROM terms ORDER BY id"
        ).fetchall()
        for term_id, kind, lexical, lang, datatype in rows:
            self.dictionary.restore(term_id, unflatten_term(kind, lexical, lang, datatype))

    def _persist_term(self, term_id: int, term: Term) -> None:
        with self._lock:
            self._pending_terms.append((term_id, *flatten_term(term)))

    def _write_pending_terms(self) -> None:
        """Insert the terms interned since the last write; the caller
        holds the lock and commits."""
        if self._pending_terms:
            pending, self._pending_terms = self._pending_terms, []
            self._conn.executemany(
                "INSERT INTO terms (id, kind, lexical, lang, datatype) VALUES (?, ?, ?, ?, ?)",
                pending,
            )

    # -- mutation ------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        with self._lock:
            self._write_pending_terms()
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", (s, p, o)
            )
            added = cursor.rowcount > 0
            if added:
                self._size += 1
                self._pstats = None
                self._col_cache.clear()
            self._conn.commit()
        return added

    #: Rows per executemany batch when bulk-loading; keeps memory flat
    #: on million-triple ingests instead of materializing the iterable.
    _INGEST_BATCH = 10_000

    def add_many(self, triples: Iterable[IdTriple]) -> int:
        from itertools import islice

        total_added = 0
        iterator = iter(triples)
        while True:
            # Pull the chunk outside the lock: the generator typically
            # interns terms as a side effect, which needs the lock too.
            chunk = list(islice(iterator, self._INGEST_BATCH))
            if not chunk:
                break
            with self._lock:
                self._write_pending_terms()
                before = self._conn.total_changes
                self._conn.executemany(
                    "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", chunk
                )
                added = self._conn.total_changes - before
                if added:
                    self._size += added
                    self._pstats = None
                    self._col_cache.clear()
                self._conn.commit()
            total_added += added
        return total_added

    # -- lookup --------------------------------------------------------

    def size(self) -> int:
        return self._size

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[IdTriple]:
        mask = _mask(s, p, o)
        yield from self._stream(_MATCH_SQL[mask], _PARAMS[mask](s, p, o))

    def match_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        positions: Sequence[int],
        batch_size: int = COLUMN_BATCH_SIZE,
        max_batch_size: Optional[int] = None,
    ) -> Iterator[Tuple[array, ...]]:
        """Columnar scan: fetched rows transposed into cached ID arrays.

        Only the requested wildcard ``positions`` appear in the SELECT
        list, so each shape stays a covering-index prefix range.  Full
        scans (``batch_size`` at least the default) are fetched in one
        ``fetchall`` and transposed once; a scan whose rows fit in one
        default batch is memoized in ``_col_cache`` — repeat scans of the
        same pattern (QSM probes, benchmark reruns, join rebuilds) hand
        out array slices without re-boxing rows, while a longer one (an
        all-wildcard pass, ``compute_stats``) is not kept.
        Small batch sizes signal an early-terminating consumer (LIMIT
        pages), which streams via ``fetchmany`` and skips the cache;
        with ``max_batch_size`` each fetch doubles up to it.
        """
        if not positions:
            raise ValueError("match_columns needs at least one position")
        if any((s, p, o)[pos] is not None for pos in positions):
            raise ValueError("match_columns positions must be wildcards")
        single = len(positions) == 1
        key = (s, p, o, tuple(positions))
        cols = self._col_cache.get(key)
        if cols is not None:
            yield from column_slices(cols, 0, len(cols[0]), batch_size, max_batch_size)
            return
        mask = _mask(s, p, o)
        where, params = _WHERE[mask], _PARAMS[mask](s, p, o)
        select = ", ".join("spo"[pos] for pos in positions)
        if batch_size >= COLUMN_BATCH_SIZE:
            with self._lock:
                rows = self._conn.execute(
                    f"SELECT {select} FROM triples{where}", params
                ).fetchall()
            if single:
                cols = (array("q", (row[0] for row in rows)),)
            elif rows:
                cols = tuple(array("q", col) for col in zip(*rows))
            else:
                cols = tuple(array("q") for _ in positions)
            if len(rows) <= COLUMN_BATCH_SIZE:
                if len(self._col_cache) >= 128:
                    self._col_cache.clear()
                self._col_cache[key] = cols
            yield from column_slices(cols, 0, len(cols[0]), batch_size, max_batch_size)
            return
        with self._lock:
            cursor = self._conn.execute(
                f"SELECT {select} FROM triples{where}", params
            )
        for size in batch_sizes(batch_size, max_batch_size):
            with self._lock:
                rows = cursor.fetchmany(size)
            if not rows:
                return
            if single:
                yield (array("q", (row[0] for row in rows)),)
            else:
                yield tuple(array("q", col) for col in zip(*rows))

    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        # Planning calls this meter-free and often, so the unselective
        # shapes must not walk index leaves: the all-wildcard shape uses
        # the cached size and the predicate-only shape (a scan of every
        # triple with that predicate if COUNTed) the cached predicate
        # statistics.  The remaining shapes COUNT(*) a narrow
        # covering-index prefix range, bounded by the matching rows of a
        # selective key — the same O(fan-out) the memory backend pays.
        if s is None and o is None:
            if p is None:
                return self._size
            stat = self.predicate_stats().get(p)
            return stat[0] if stat else 0
        mask = _mask(s, p, o)
        row = self._query_one(_COUNT_SQL[mask], _PARAMS[mask](s, p, o))
        return row[0] if row else 0

    def has_match(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> bool:
        """Whether any triple matches: the first row of a covering-index
        range, where a count would walk all of it."""
        mask = _mask(s, p, o)
        return self._query_one(_HAS_MATCH_SQL[mask], _PARAMS[mask](s, p, o)) is not None

    # -- aggregates ----------------------------------------------------

    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]:
        """Per-predicate ``(count, distinct subjects, distinct objects)``.

        One grouped aggregate over the POS covering index, cached until
        the next mutation — the planner asks for these on every query.
        """
        if self._pstats is None:
            self._pstats = {
                p: (count, n_s, n_o)
                for p, count, n_s, n_o in self._query_all(
                    "SELECT p, COUNT(*), COUNT(DISTINCT s), COUNT(DISTINCT o) "
                    "FROM triples GROUP BY p"
                )
            }
        return self._pstats

    def subject_predicate_sets(self) -> Iterator[Tuple[int, ...]]:
        """Each subject's distinct predicates, sorted: one streamed walk
        of the SPO primary key, grouped by subject as it goes."""
        rows = self._stream("SELECT DISTINCT s, p FROM triples ORDER BY s, p")
        for _, group in groupby(rows, itemgetter(0)):
            yield tuple(p for _, p in group)

    # -- metadata ------------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        """Write a metadata value, replacing any previous one."""
        with self._lock:
            self._write_pending_terms()
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
            )
            self._conn.commit()

    def meta_items(self) -> Dict[str, str]:
        return dict(self._query_all("SELECT key, value FROM meta"))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._write_pending_terms()
            self._conn.commit()
            self._conn.close()

    # -- internals -----------------------------------------------------

    def _query_all(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        # Materialize under the lock: cursors must not be iterated lazily
        # while other threads write through the same connection.
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    #: Rows fetched per lock acquisition when streaming scans.
    _STREAM_BATCH = 1024

    def _stream(self, sql: str, params: Tuple = ()) -> Iterator[Tuple]:
        """Yield rows in batches, holding the lock only per batch.

        Match/scan results must stream so a tripped cost budget aborts
        the scan (and a million-row store never materializes whole),
        while the lock still serializes cursor access against writers on
        the shared connection.
        """
        with self._lock:
            cursor = self._conn.execute(sql, params)
        while True:
            with self._lock:
                batch = cursor.fetchmany(self._STREAM_BATCH)
            if not batch:
                return
            yield from batch

    def _query_one(self, sql: str, params: Tuple = ()) -> Optional[Tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchone()


def _mask(s: Optional[int], p: Optional[int], o: Optional[int]) -> int:
    """Which positions a probe binds: bit 2 ``s``, bit 1 ``p``, bit 0 ``o``."""
    return (s is not None) << 2 | (p is not None) << 1 | (o is not None)


#: Per mask, the ``WHERE`` clause binding those positions, in ``s, p, o``
#: order ("" when none is bound), and the statements built on it: every
#: probe's SQL is one of these eight strings, built once.
_WHERE: Tuple[str, ...] = tuple(
    " WHERE " + " AND ".join(f"{column} = ?" for column, bit in (("s", 4), ("p", 2), ("o", 1))
                             if mask & bit)
    if mask else ""
    for mask in range(8)
)
_MATCH_SQL = tuple(f"SELECT s, p, o FROM triples{where}" for where in _WHERE)
_COUNT_SQL = tuple(f"SELECT COUNT(*) FROM triples{where}" for where in _WHERE)
_HAS_MATCH_SQL = tuple(f"SELECT 1 FROM triples{where} LIMIT 1" for where in _WHERE)
#: Per mask, the bound values in ``s, p, o`` order: the statement's parameters.
_PARAMS: Tuple[Callable[[Optional[int], Optional[int], Optional[int]], Tuple[int, ...]], ...] = (
    lambda s, p, o: (),
    lambda s, p, o: (o,),
    lambda s, p, o: (p,),
    lambda s, p, o: (p, o),
    lambda s, p, o: (s,),
    lambda s, p, o: (s, o),
    lambda s, p, o: (s, p),
    lambda s, p, o: (s, p, o),
)
