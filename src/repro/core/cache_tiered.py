"""Tiered Sapphire cache: hot suffix tree in memory, tail on disk.

:class:`TieredSapphireCache` opens a cache file (see
``core/persistence.py`` and ``store/term_tables.py``) and serves the
lookup surface of :class:`~repro.core.cache.CacheReader` with a
two-tier layout:

* the **hot tier** is the paper's suffix tree over all predicate/class
  surfaces plus the top-``suffix_tree_capacity`` literals — built at
  open from at most ``capacity`` rows, never from the full lexicon;
* the **tail tier** is the on-disk term index
  (:class:`~repro.text.term_index.SqliteTermIndex`): the residual
  literals stay on disk and substring candidate lookups run as SQL,
  spliced into the QCM path through the ``residual_*`` dispatch points
  of the base class;
* between the two, the QSM's **literal window**: the residual literals
  of one length are read from the file the first time a repair's α/β
  window covers that length and kept as a
  :class:`~repro.text.bins.ColumnBin` — the shape the in-memory bins
  have — so ``residual_scored`` is the base class's, one bulk kernel for
  both caches.  Resident rows are bounded by the memo budget; past it
  the least recently scanned lengths are unlinked (a scan that already
  picked one up finishes on it), and a bin larger than the budget is
  scored and dropped at the next load.

Memory is therefore bounded by the tree capacity (plus the bounded
memos: recently decoded surface buckets, recently scanned window
bins), not the lexicon size, and boot cost is proportional to the
tree — nothing of the window is read at open, and a read-only replica
serves its first completion seconds after opening the file, no rebuild.

The cache is a **reader by type**: the file is the source of truth and
the class has no mutator.  ``SapphireCache(config).merge(tiered)``
enumerates it through SQL into a mutable in-memory cache, and
``save_cache`` snapshots the backing file directly.

Tree membership is derived per open: literals rank by
``(significance DESC, length, surface)``, exactly the tuple order
``build_indexes`` sorts by (UTF-8 byte order preserves code-point
order, so SQLite's BINARY collation agrees with Python ``str``
comparison), which keeps the suffix-tree capacity a load-time choice.
"""

from __future__ import annotations

import sqlite3
import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional
from urllib.parse import quote

from ..rdf.terms import Term, flatten_term, unflatten_term
from ..store.dictionary import NO_ID
from ..store.term_tables import (
    CACHE_VERSION,
    KIND_MASK,
    META_CACHE_VERSION,
    META_INDEX_FTS,
    has_index_tables,
)
from ..text.bins import ColumnBin
from ..text.suffix_tree import GeneralizedSuffixTree
from ..text.term_index import SqliteTermIndex
from .cache import CachedTerm, CacheReader
from .config import SapphireConfig

__all__ = ["LazyTermDictionary", "TieredSapphireCache"]


class LazyTermDictionary:
    """Decodes term IDs against the cache file's ``terms`` table on
    demand, memoizing what it sees.

    IDs are the *file's* term IDs, so a :class:`CachedTerm` built from a
    persisted entry row decodes through the dictionary rows the storage
    engine wrote.  There is no interning: the file is read-only."""

    __slots__ = ("_index", "_by_id", "_ids")

    def __init__(self, index: SqliteTermIndex) -> None:
        self._index = index
        self._by_id: Dict[int, Term] = {}
        self._ids: Dict[Term, int] = {}

    def decode(self, term_id: int) -> Term:
        term = self._by_id.get(term_id)
        if term is None:
            row = self._index.term_row(term_id)
            if row is None:
                raise KeyError(f"no term {term_id} in the cache file")
            term = unflatten_term(*row)
            self._by_id[term_id] = term
            self._ids[term] = term_id
        return term

    def lookup(self, term: Term) -> int:
        term_id = self._ids.get(term)
        if term_id is not None:
            return term_id
        found = self._index.term_id_of(flatten_term(term))
        if found is None:
            return NO_ID
        self._ids[term] = found
        self._by_id[found] = term
        return found


class TieredSapphireCache(CacheReader):
    """A :class:`CacheReader` served from a cache file."""

    def __init__(
        self,
        path,
        config: Optional[SapphireConfig] = None,
        read_only: bool = False,
    ) -> None:
        self.path = Path(path)
        self._read_only = bool(read_only)
        self._sql_lock = threading.RLock()
        if not self.path.is_file():
            raise FileNotFoundError(f"no cache file at {self.path}")
        if read_only:
            uri = "file:" + quote(str(self.path.resolve())) + "?mode=ro"
            conn = sqlite3.connect(uri, uri=True, check_same_thread=False)
        else:
            conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            found = self._found_instead(conn)
            if found is not None:
                raise ValueError(
                    f"{self.path} is not a suggestion-cache file: found "
                    f"{found} — rebuild it with `repro init --save <path>`"
                )
            fts = self._read_meta(conn, META_INDEX_FTS) == "1"
            index = SqliteTermIndex(conn, self._sql_lock, fts=fts)
            super().__init__(config, LazyTermDictionary(index))
            self.term_index = index
            self._conn = conn
            # The surface table and entry buckets are bounded memos of
            # the file's rows here, shed outside the hot tier; so are
            # the residual window's column bins (length -> bin, least
            # recently scanned first), counted in rows.
            self._memo_limit = max(
                4096, 4 * self.config.suffix_tree_capacity
            )
            self._window: "OrderedDict[int, ColumnBin]" = OrderedDict()
            self._window_rows = 0
            self._window_loads = 0
            self._boot()
        except Exception:
            conn.close()
            raise

    @staticmethod
    def _read_meta(conn: sqlite3.Connection, key: str) -> Optional[str]:
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.OperationalError:
            return None
        return row[0] if row else None

    @classmethod
    def _found_instead(cls, conn: sqlite3.Connection) -> Optional[str]:
        """What the file is when it is not a cache file this build
        serves (``None`` when it is).  Nothing else is attempted: one
        format, refused rather than sniffed and converted."""
        try:
            tables = has_index_tables(conn)
        except sqlite3.DatabaseError:
            return "a file that is not a SQLite database (a JSON cache document?)"
        if not tables:
            return ("a SQLite file without the cache tables (a dataset "
                    "store, or a cache saved without its index)")
        version = cls._read_meta(conn, META_CACHE_VERSION)
        if version != CACHE_VERSION:
            return (f"cache format version {version!r} "
                    f"(this build reads {CACHE_VERSION!r})")
        return None

    # ------------------------------------------------------------------
    # Boot: build the hot tier from at most ``capacity`` rows
    # ------------------------------------------------------------------

    def _boot(self) -> None:
        pc_rows, literal_rows = self.term_index.tree_plan(
            self.config.suffix_tree_capacity
        )
        tree_sids: List[int] = []
        for sid, surface, significance, kinds in pc_rows:
            tree_sids.append(sid)
            self._surfaces[sid] = surface
            self._surface_ids[surface] = sid
            if significance:
                self._significance[sid] = significance
            for kind, bit in KIND_MASK.items():
                if kind != "literal" and kinds & bit:
                    self._kind_sids[kind].setdefault(sid)
            self._load_bucket(sid)
        seen = set(tree_sids)
        tree_literals: List[int] = []
        for sid, surface, significance in literal_rows:
            self._surfaces.setdefault(sid, surface)
            self._surface_ids.setdefault(surface, sid)
            if significance:
                self._significance[sid] = significance
            if sid not in seen:
                tree_literals.append(sid)
        tree_sids.extend(tree_literals)
        self._tree_sids = tree_sids
        self._tree_sid_set = set(tree_sids)
        self.tree = GeneralizedSuffixTree(
            [self._surfaces[sid] for sid in tree_sids]
        )
        self._derive_scan_inputs(tree_literals)
        self._indexed = True

    def _load_bucket(self, sid: int) -> List[CachedTerm]:
        bucket = [
            CachedTerm(
                display, term_id, kind, self.dictionary,
                significance=significance, source_predicate_id=source_id,
            )
            for kind, term_id, source_id, significance, display
            in self.term_index.entry_rows(sid)
        ]
        self._entries[sid] = bucket
        return bucket

    def _shed_memos(self) -> None:
        """Bound the lazy memos: drop every bucket and surface outside
        the hot tier once the memo outgrows its budget."""
        if len(self._entries) <= self._memo_limit:
            return
        protected = self._tree_sid_set
        for sid in [s for s in self._entries if s not in protected]:
            del self._entries[sid]
        for sid in [s for s in self._surfaces if s not in protected]:
            surface = self._surfaces.pop(sid)
            self._surface_ids.pop(surface, None)

    # ------------------------------------------------------------------
    # Lazy lookups
    # ------------------------------------------------------------------

    def surface_of(self, sid: int) -> str:
        with self.lock:
            surface = self._surfaces.get(sid)
            if surface is None:
                surface = self.term_index.surface_of(sid)
                if surface is None:
                    raise KeyError(f"no surface {sid} in the cache file")
                self._surfaces[sid] = surface
            return surface

    def surface_id(self, surface: str) -> Optional[int]:
        key = surface.lower()
        with self.lock:
            sid = self._surface_ids.get(key)
            if sid is not None:
                return sid
        row = self.term_index.surface_row(key)
        return row[0] if row else None

    def entries_for_surface(self, surface: str) -> List[CachedTerm]:
        sid = self.surface_id(surface)
        if sid is None:
            return []
        return self.entries_for_surface_id(sid)

    def entries_for_surface_id(self, sid: int) -> List[CachedTerm]:
        with self.lock:
            bucket = self._entries.get(sid)
            if bucket is None:
                self._shed_memos()
                bucket = self._load_bucket(sid)
            return list(bucket)

    def literal_surfaces(self) -> List[str]:
        """Every literal surface, via SQL — export paths only; this
        deliberately walks the whole tail."""
        return [
            surface
            for _, surface in self.term_index.literal_surface_rows()
        ]

    def significance_of(self, surface: str) -> int:
        key = surface.lower()
        with self.lock:
            sid = self._surface_ids.get(key)
            if sid is not None:
                return self._significance.get(sid, 0)
        row = self.term_index.surface_row(key)
        return int(row[1]) if row else 0

    # ------------------------------------------------------------------
    # Residual tier: answer from the on-disk index
    # ------------------------------------------------------------------

    def residual_candidates(self, needle, min_len, max_len, processes,
                            bins, limit=None):
        del bins, processes  # the tail lives on disk, not in bins
        return self.term_index.substring_sids(
            needle, min_len, max_len, limit
        )

    def residual_searched_fraction(self, min_len, max_len, bins):
        del bins
        return 1.0 - self.term_index.selectivity(min_len, max_len)

    def residual_window(self, min_len, max_len, bins) -> Iterator[ColumnBin]:
        del bins  # the tail lives in the file, one resident bin per length
        for length in self.term_index.residual_lengths(min_len, max_len):
            with self.lock:
                column_bin = self._window.get(length)
                if column_bin is None:
                    column_bin = self._load_window_bin(length)
                else:
                    self._window.move_to_end(length)
            yield column_bin

    def _load_window_bin(self, length: int) -> ColumnBin:
        """Read one length of the residual tail into a resident bin and
        shed the least recently scanned ones past the budget.  The bin
        in hand stays linked, so resident rows never exceed the budget
        by more than one bin."""
        column_bin = ColumnBin(self.term_index.window_rows(length, length))
        self._window[length] = column_bin
        self._window_rows += len(column_bin)
        self._window_loads += 1
        while self._window_rows > self._memo_limit and len(self._window) > 1:
            _, shed = self._window.popitem(last=False)
            self._window_rows -= len(shed)
        return column_bin

    def note_lookup(self, tree_hit: bool, residual_hit: bool) -> None:
        with self.lock:
            if tree_hit:
                self.tree_hits += 1
            elif residual_hit:
                self.index_hits += 1
            else:
                self.misses += 1

    def index_gauges(self) -> Dict[str, int]:
        gauges = self.term_index.gauges()
        with self.lock:
            gauges["window_rows_resident"] = self._window_rows
            gauges["window_bin_loads"] = self._window_loads
        return gauges

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def n_predicates(self) -> int:
        return self.term_index.count_kind("predicate")

    @property
    def n_classes(self) -> int:
        return self.term_index.count_kind("class")

    @property
    def n_literals(self) -> int:
        return self.term_index.count_kind("literal")

    @property
    def n_residual_literals(self) -> int:
        return self.term_index.residual_count

    @property
    def n_residual_bins(self) -> int:
        return self.term_index.residual_bin_count

    def copy_with_capacity(self, capacity: int) -> "TieredSapphireCache":
        """Reopen the same file at a different tree budget (ablations)."""
        return TieredSapphireCache(
            self.path,
            replace(self.config, suffix_tree_capacity=capacity),
            read_only=self._read_only,
        )

    def backup_to(self, path) -> None:
        """Copy the backing file into a fresh database at ``path``
        (SQLite online backup; the caller publishes it)."""
        dest = sqlite3.connect(str(path))
        try:
            with self._sql_lock:
                self._conn.backup(dest)
        finally:
            dest.close()

    def close(self) -> None:
        self._conn.close()
