"""Cache and dataset persistence — everything rides the storage engine.

Initialization "happens only once for each endpoint" (Section 5.1) and
took 17 hours for DBpedia — so the cached predicates, classes, literals
and significance scores must survive server restarts, and the cache
file *is* the restart and replica story.  There is one format:
:func:`save_cache` writes the storage engine's ``terms``/``meta`` tables
(through :class:`SQLiteBackend`: one dictionary schema) and the cache
tables of ``store/term_tables.py`` into a scratch file and publishes it
atomically; :func:`load_cache` opens exactly that as a
:class:`TieredSapphireCache` — hot suffix tree built from at most
``suffix_tree_capacity`` rows, tail served from the file — and refuses
anything else with a ``ValueError`` naming what it found and the remedy
(``repro init --save``).  Nothing is sniffed, converted or migrated.
``SapphireCache(config).merge(load_cache(path))`` is the way back to a
mutable in-memory cache.

Dataset persistence: a store is built on its backend directly
(``TripleStore(backend=SQLiteBackend(path))``, docs/storage.md),
:func:`save_store` snapshots any store into a SQLite file, and
:func:`load_store` reopens one.  Together with the cache round-trip this
is the full restart story: ``SapphireServer.save_state`` /
``SapphireServer.load_state`` call straight into these helpers.
"""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..store import term_tables
from ..store.sqlite_backend import SQLiteBackend
from ..store.triplestore import TripleStore
from .cache import CacheReader
from .cache_tiered import TieredSapphireCache
from .config import SapphireConfig

__all__ = [
    "save_cache",
    "load_cache",
    "save_store",
    "load_store",
]


_VERSION = int(term_tables.CACHE_VERSION)


def _scratch(path: Union[str, Path]) -> Path:
    """The (emptied) scratch file a writer builds before publishing."""
    scratch = Path(str(path) + ".tmp")
    for stale in (scratch, Path(f"{scratch}-wal"), Path(f"{scratch}-shm")):
        stale.unlink(missing_ok=True)
    return scratch


def _publish(scratch: Path, path: Union[str, Path]) -> None:
    """Atomically replace ``path`` with the finished, closed ``scratch``.

    Everything was built in the scratch file first (closing its last
    connection checkpointed its WAL, so it is self-contained): a crash
    before the rename leaves the previous good file intact, and a fresh
    open after it sees exactly the new one.  A connection still holding
    the *old* file open keeps reading its old inode consistently; per
    the single-writer assumption it must reopen to see the new file.
    """
    if Path(path).exists():
        # Absorb any stale WAL into the old file *before* the replace —
        # otherwise a crash between replace and cleanup could pair the
        # new database with the old WAL, which SQLite would replay into
        # it (documented corruption hazard).  Checkpointing first keeps
        # every intermediate state valid: old db + its own (empty) WAL.
        try:
            recover = sqlite3.connect(str(path))
            try:
                recover.execute("PRAGMA journal_mode=DELETE")  # checkpoint + drop -wal
            finally:
                recover.close()
        except sqlite3.Error:
            # Not a database, or locked by a live holder (unsupported
            # concurrent-writer territory): drop the sidecars directly.
            for sidecar in (Path(str(path) + "-wal"), Path(str(path) + "-shm")):
                sidecar.unlink(missing_ok=True)
    os.replace(scratch, path)


def _cache_rows(cache: CacheReader, encode) -> tuple:
    """``(surface_rows, entry_rows)`` for ``populate_index_tables``,
    read through the reader surface; ``encode`` maps a term to its ID
    in the file's ``terms`` table."""
    with cache.lock:
        predicate_classes = cache.predicates() + cache.classes()
        sids: Dict[int, Optional[int]] = {}  # sid -> pc_ord, file order
        for entry in predicate_classes:
            sids.setdefault(cache.surface_id(entry.surface), len(sids))  # type: ignore[arg-type]
        for surface in cache.literal_surfaces():
            sids.setdefault(cache.surface_id(surface), None)  # type: ignore[arg-type]
        surface_rows: List[tuple] = []
        entry_rows: List[tuple] = []
        for sid, pc_ord in sids.items():
            surface = cache.surface_of(sid)
            kinds = 0
            for seq, entry in enumerate(cache.entries_for_surface_id(sid)):
                kinds |= term_tables.KIND_MASK[entry.kind]
                source = entry.source_predicate
                entry_rows.append((
                    sid, seq, entry.kind, encode(entry.term),
                    encode(source) if source is not None else None,
                    entry.significance, entry.surface,
                ))
            surface_rows.append(
                (sid, surface, cache.significance_of(surface), kinds, pc_ord))
    return surface_rows, entry_rows


def save_cache(
    cache: CacheReader, path: Union[str, Path]
) -> Dict[str, object]:
    """Persist ``cache`` at ``path`` as the one cache-file format.

    The file is built whole in a scratch file — dictionary rows through
    the storage engine, then the cache tables and their meta rows — and
    published with :func:`_publish`, so a crash at any point leaves the
    previous good cache (rebuilding it means re-running initialization).
    The FTS5 substring table is written when the linked SQLite has the
    trigram tokenizer; the file records which.  A tiered cache is
    already a file: it is copied with SQLite's online backup instead of
    being walked through Python (and saving it over itself is a no-op).
    Returns ``{"version", "built_s", "fts"}`` for the state manifest.
    """
    if isinstance(cache, TieredSapphireCache):
        info = {"version": _VERSION, "built_s": 0.0, "fts": cache.term_index.fts}
        if Path(path).exists() and os.path.samefile(cache.path, path):
            return info
        scratch = _scratch(path)
        cache.backup_to(scratch)
        _publish(scratch, path)
        return info
    t0 = time.perf_counter()
    scratch = _scratch(path)
    backend = SQLiteBackend(scratch)
    try:
        surface_rows, entry_rows = _cache_rows(cache, backend.dictionary.encode)
    finally:
        backend.close()
    conn = sqlite3.connect(str(scratch))
    try:
        use_fts = term_tables.fts5_trigram_available(conn)
        term_tables.create_index_tables(conn, use_fts)
        term_tables.populate_index_tables(
            conn, surface_rows, entry_rows, use_fts)
        built_s = round(time.perf_counter() - t0, 6)
        conn.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (
                (term_tables.META_INDEX_FTS, "1" if use_fts else "0"),
                (term_tables.META_INDEX_BUILT, str(built_s)),
                (term_tables.META_CACHE_VERSION, term_tables.CACHE_VERSION),
            ))
        conn.commit()
    finally:
        conn.close()
    _publish(scratch, path)
    return {"version": _VERSION, "built_s": built_s, "fts": use_fts}


def load_cache(
    path: Union[str, Path],
    config: Optional[SapphireConfig] = None,
    read_only: bool = False,
) -> TieredSapphireCache:
    """Open a cache file written by :func:`save_cache`.

    No rebuild: boot cost is proportional to ``suffix_tree_capacity``
    (a load-time choice), the tail stays on disk.  ``read_only=True``
    opens the file with ``mode=ro`` (replica boot over a shared
    snapshot).  Anything that is not a cache file — a JSON document, a
    SQLite file without the cache tables, another format version —
    raises ``ValueError`` saying what was found; nothing partial is
    served.  ``load_report`` on the result records the boot time.
    """
    t0 = time.perf_counter()
    cache = TieredSapphireCache(path, config, read_only=read_only)
    cache.load_report = {
        "mode": "tiered",
        "seconds": round(time.perf_counter() - t0, 6),
    }
    return cache


# ----------------------------------------------------------------------
# Dataset (triple store) persistence
# ----------------------------------------------------------------------


def save_store(store: TripleStore, path: Union[str, Path]) -> int:
    """Snapshot ``store`` into a SQLite file; returns the triple count.

    If the store already sits on a SQLite backend at ``path`` it is
    already durable (every write commits into the WAL) and nothing needs
    copying; otherwise the store is copied by IDs
    (``TripleStore.copy_into``: the IDs ``add_all(store.triples())``
    would mint, each term written once) into a scratch database,
    published at ``path`` when complete.
    """
    backend = store.backend
    if (
        isinstance(backend, SQLiteBackend)
        and backend.path != ":memory:"
        and Path(backend.path).resolve() == Path(path).resolve()
    ):
        return len(store)
    scratch = _scratch(path)
    snapshot = SQLiteBackend(scratch)
    target = TripleStore(backend=snapshot)
    store.copy_into(target)
    for key, value in store.backend.meta_items().items():
        snapshot.set_meta(key, value)  # provenance travels with the data
    count = len(target)
    target.close()
    _publish(scratch, path)
    return count


def load_store(path: Union[str, Path]) -> TripleStore:
    """Reopen a dataset written by :func:`save_store` (or any run with a
    SQLite-backed store)."""
    target = Path(path)
    if not target.exists():
        raise FileNotFoundError(f"no persisted store at {target}")
    return TripleStore(backend=SQLiteBackend(target))
