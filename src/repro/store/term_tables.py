"""On-disk term-index tables of a suggestion-cache file.

A cache file (``core/persistence.py``) is the storage engine's
``terms``/``meta`` tables plus the *cache tables* below in the same
SQLite database, so one file holds both the durable cache contents and
a search structure a replica can serve from without rebuilding anything:

* ``cache_surfaces`` — the dense surface-ID table: one row per interned
  (lower-cased) surface with its length, significance score, a kind
  bitmask and, for predicate/class surfaces, their first-seen order.
  Tree membership is **not** stored: the suffix-tree capacity is a
  load-time choice (``tests/test_persistence.py``), so the loader ranks
  literals by ``(significance DESC, length, surface)`` — byte-for-byte
  the order ``SapphireCache.build_indexes`` sorts by — and takes the
  top ``capacity`` rows itself.
* ``cache_entries`` — the per-surface entry buckets (kind, term,
  source predicate, display form), keyed into the file's own ``terms``
  table, the one dictionary schema every SQLite store uses.
* ``cache_fts`` — an FTS5 table with the ``trigram`` tokenizer over the
  literal surfaces, when the linked SQLite has it (recorded in the
  file's ``sapphire_index_fts`` meta row).  A trigram MATCH for a needle
  of length >= 3 is a sound *superset* of the substring matches
  (consecutive-trigram phrase), verified with ``instr``.  Without the
  tokenizer no prefilter table is written and every needle runs the
  ``instr``-verified scan of the ``(length, surface)`` window index that
  needles shorter than a trigram always run — same answers.

``instr`` is used for verification rather than ``LIKE``: ``LIKE`` needs
``%``/``_`` escaping and is ASCII-only case-insensitive, while both
sides here are already lower-cased in Python.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Optional, Tuple

__all__ = [
    "KIND_MASK",
    "CACHE_VERSION",
    "META_CACHE_VERSION",
    "META_INDEX_FTS",
    "META_INDEX_BUILT",
    "fts5_trigram_available",
    "has_index_tables",
    "create_index_tables",
    "populate_index_tables",
]

#: Kind bitmask values for ``cache_surfaces.kinds``.
KIND_MASK = {"predicate": 1, "class": 2, "literal": 4}

#: The one cache-file format, recorded in the file's ``meta`` table
#: ("3" since PR 10: files written with default settings since then
#: carry these same tables and keep opening).
META_CACHE_VERSION = "sapphire_cache_version"
CACHE_VERSION = "3"
META_INDEX_FTS = "sapphire_index_fts"
META_INDEX_BUILT = "sapphire_index_built_s"

_DDL = """
CREATE TABLE cache_surfaces (
    sid          INTEGER PRIMARY KEY,
    surface      TEXT NOT NULL UNIQUE,
    length       INTEGER NOT NULL,
    significance INTEGER NOT NULL DEFAULT 0,
    kinds        INTEGER NOT NULL,
    pc_ord       INTEGER
);
CREATE INDEX idx_cache_surfaces_window ON cache_surfaces (length, surface);
CREATE INDEX idx_cache_surfaces_rank
    ON cache_surfaces (significance DESC, length, surface);
CREATE TABLE cache_entries (
    sid          INTEGER NOT NULL,
    seq          INTEGER NOT NULL,
    kind         TEXT NOT NULL,
    term_id      INTEGER NOT NULL,
    source_id    INTEGER,
    significance INTEGER NOT NULL DEFAULT 0,
    display      TEXT NOT NULL,
    PRIMARY KEY (sid, seq)
) WITHOUT ROWID;
"""

_DDL_FTS = (
    "CREATE VIRTUAL TABLE cache_fts "
    "USING fts5(surface, content='', tokenize='trigram')"
)


def fts5_trigram_available(conn: sqlite3.Connection) -> bool:
    """True when this SQLite build has FTS5 with the trigram tokenizer."""
    try:
        conn.execute(
            "CREATE VIRTUAL TABLE temp.__fts_probe "
            "USING fts5(x, tokenize='trigram')"
        )
        conn.execute("DROP TABLE temp.__fts_probe")
        return True
    except sqlite3.OperationalError:
        return False


def has_index_tables(conn: sqlite3.Connection) -> bool:
    """True when the cache tables exist in this database."""
    row = conn.execute(
        "SELECT COUNT(*) FROM sqlite_master "
        "WHERE type IN ('table', 'view') "
        "AND name IN ('cache_surfaces', 'cache_entries')"
    ).fetchone()
    return bool(row and row[0] == 2)


def create_index_tables(conn: sqlite3.Connection, use_fts: bool) -> None:
    """Create the cache tables in a fresh database, with the FTS5
    substring table when the tokenizer is there."""
    conn.executescript(_DDL)
    if use_fts:
        conn.execute(_DDL_FTS)


def populate_index_tables(
    conn: sqlite3.Connection,
    surface_rows: Iterable[Tuple[int, str, int, int, Optional[int]]],
    entry_rows: Iterable[Tuple[int, int, str, int, Optional[int], int, str]],
    use_fts: bool,
) -> None:
    """Fill freshly created index tables.

    ``surface_rows`` are ``(sid, surface, significance, kinds, pc_ord)``;
    ``entry_rows`` are ``(sid, seq, kind, term_id, source_id,
    significance, display)``.  Literal surfaces (``kinds & 4``) feed the
    FTS5 substring table, keyed by sid.
    """
    surfaces = [
        (sid, surface, len(surface), significance, kinds, pc_ord)
        for sid, surface, significance, kinds, pc_ord in surface_rows
    ]
    conn.executemany(
        "INSERT INTO cache_surfaces "
        "(sid, surface, length, significance, kinds, pc_ord) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        surfaces,
    )
    conn.executemany(
        "INSERT INTO cache_entries "
        "(sid, seq, kind, term_id, source_id, significance, display) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)",
        entry_rows,
    )
    if use_fts:
        literal_bit = KIND_MASK["literal"]
        conn.executemany(
            "INSERT INTO cache_fts (rowid, surface) VALUES (?, ?)",
            [(row[0], row[1]) for row in surfaces if row[4] & literal_bit],
        )
