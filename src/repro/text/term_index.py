"""Tiered term index: on-disk candidate lookups for the cache tail.

:class:`SqliteTermIndex` is the query-side companion of
:mod:`repro.store.term_tables`: it wraps one SQLite connection to a
cache file and serves the lookups the tiered cache routes past its hot
suffix tree —

* **substring** candidates over the *residual* literal surfaces
  (``substring_sids``), FTS5-trigram prefiltered where the file has the
  table and always ``instr``-verified, streamed shortest-first so the results
  splice into the QCM's shortest-first fill exactly where a
  ``bins.scan_keyed`` result would;
* **fuzzy** candidates (``window_rows``, ``residual_lengths``): the
  *loader* of the QSM's alternative-literal search.  The tiered cache
  reads one length of the residual tail at a time, on first touch, into
  a resident column bin (:class:`repro.text.bins.ColumnBin`) and scores
  that with the same bulk kernel the in-memory bins use
  (:meth:`repro.text.similarity.ThresholdScorer.score_bin`); a repair
  round whose window is resident issues no statement here.

Residual membership is *derived*, not stored: the loader hands the
index the ranking boundary — the ``(significance, length, surface)``
tuple of the last literal that made the suffix tree at the configured
capacity — and residual rows are exactly the literal rows ranking
strictly after it.  This keeps tree capacity a load-time choice while
letting SQL filter the tail.

The trigram prefilter is sound for *substring* search (every trigram of a
substring appears in the containing string) and is used for nothing
else here: it is **not** sound for Jaro–Winkler.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Dict, List, Optional, Tuple

from ..store.term_tables import KIND_MASK

__all__ = ["SqliteTermIndex"]

_LITERAL = KIND_MASK["literal"]

#: Residual-set descriptors: every literal row, no row, or the rows
#: ranking strictly after a ``(significance, length, surface)`` boundary.
_ALL = ("all",)
_NONE = ("none",)


class SqliteTermIndex:
    """Candidate lookups over one cache file's index tables."""

    def __init__(
        self,
        conn: sqlite3.Connection,
        lock: Optional[threading.RLock] = None,
        fts: bool = False,
    ) -> None:
        self._conn = conn
        #: Serializes statements on the shared connection — completion
        #: handler threads and QSM scans share it.
        self._lock = lock if lock is not None else threading.RLock()
        self.fts = fts
        self._residual: tuple = _ALL
        self._histogram: Dict[int, int] = {}
        self._residual_count = 0

    # ------------------------------------------------------------------
    # Load-time configuration
    # ------------------------------------------------------------------

    def tree_plan(self, capacity: int):
        """The tree membership for ``capacity``, ranked exactly like
        ``SapphireCache.build_indexes``.

        Returns ``(pc_rows, literal_rows)``: ``(sid, surface,
        significance, kinds)`` tuples for the predicate/class surfaces
        in first-seen order, then ``(sid, surface, significance)`` for
        the top-ranked literals filling the remaining budget — and
        records the residual boundary.
        """
        with self._lock:
            pc_rows = self._conn.execute(
                "SELECT sid, surface, significance, kinds "
                "FROM cache_surfaces "
                "WHERE pc_ord IS NOT NULL ORDER BY pc_ord"
            ).fetchall()
            budget = max(0, capacity - len(pc_rows))
            if budget == 0:
                self._residual = _ALL
                literal_rows: list = []
            else:
                literal_rows = self._conn.execute(
                    "SELECT sid, surface, significance FROM cache_surfaces "
                    "WHERE (kinds & ?) != 0 "
                    "ORDER BY significance DESC, length, surface LIMIT ?",
                    (_LITERAL, budget),
                ).fetchall()
                if len(literal_rows) < budget:
                    self._residual = _NONE
                else:
                    sid, surface, significance = literal_rows[-1]
                    self._residual = (
                        "after", significance, len(surface), surface
                    )
            self._load_histogram()
        return pc_rows, literal_rows

    def _residual_sql(self) -> Tuple[str, tuple]:
        """The residual-membership predicate as ``(clause, params)``."""
        if self._residual == _NONE:
            return "0", ()
        clause = "(kinds & ?) != 0"
        params: tuple = (_LITERAL,)
        if self._residual[0] == "after":
            _, significance, length, surface = self._residual
            clause += (
                " AND (significance < ? OR (significance = ?"
                " AND (length > ? OR (length = ? AND surface > ?))))"
            )
            params += (significance, significance, length, length, surface)
        return clause, params

    def _load_histogram(self) -> None:
        clause, params = self._residual_sql()
        rows = self._conn.execute(
            f"SELECT length, COUNT(*) FROM cache_surfaces WHERE {clause} "
            "GROUP BY length ORDER BY length",
            params,
        ).fetchall()
        # Ascending keys: ``residual_lengths`` reads them in this order.
        self._histogram = {length: count for length, count in rows}
        self._residual_count = sum(self._histogram.values())

    # ------------------------------------------------------------------
    # Residual statistics (QCM's bins_searched_fraction parity)
    # ------------------------------------------------------------------

    @property
    def residual_count(self) -> int:
        return self._residual_count

    @property
    def residual_bin_count(self) -> int:
        return len(self._histogram)

    def selectivity(self, min_len: int, max_len: int) -> float:
        """Fraction of residual literals *eliminated* by the length
        filter — same convention as ``LiteralBins.selectivity``."""
        if self._residual_count == 0:
            return 0.0
        searched = sum(
            count for length, count in self._histogram.items()
            if min_len <= length <= max_len
        )
        return 1.0 - searched / self._residual_count

    def residual_lengths(self, min_len: int, max_len: int) -> List[int]:
        """The lengths in the window that hold residual rows, ascending."""
        return [
            length for length in self._histogram
            if min_len <= length <= max_len
        ]

    # ------------------------------------------------------------------
    # Substring candidates (QCM tail lookup)
    # ------------------------------------------------------------------

    def substring_sids(
        self,
        needle: str,
        min_len: int,
        max_len: int,
        limit: Optional[int] = None,
    ) -> List[Tuple[int, str]]:
        """Residual surfaces containing ``needle`` within the length
        window, ordered ``(length, surface)`` — the QCM's shortest-first
        fill order — so a ``LIMIT`` keeps exactly the rows the in-memory
        sort would keep."""
        clause, params = self._residual_sql()
        if clause == "0":
            return []
        sql = (
            "SELECT sid, surface FROM cache_surfaces "
            f"WHERE length BETWEEN ? AND ? AND {clause} "
            "AND instr(surface, ?) > 0"
        )
        query_params: tuple = (min_len, max_len) + params + (needle,)
        if self.fts and len(needle) >= 3:
            sql += (
                " AND sid IN (SELECT rowid FROM cache_fts "
                "WHERE cache_fts MATCH ?)"
            )
            query_params += ('"' + needle.replace('"', '""') + '"',)
        sql += " ORDER BY length, surface"
        if limit is not None:
            sql += " LIMIT ?"
            query_params += (limit,)
        with self._lock:
            return self._conn.execute(sql, query_params).fetchall()

    # ------------------------------------------------------------------
    # Fuzzy candidates (QSM literal window)
    # ------------------------------------------------------------------

    def window_rows(self, min_len: int, max_len: int) -> List[Tuple[int, str]]:
        """All residual ``(sid, surface)`` rows in a length window, in
        ``(length, surface)`` order — the same rows in the same order on
        every read, so a bin shed and loaded again has the same columns.

        A loader, not a per-round scan: the tiered cache calls it once
        per length (``min_len == max_len``) and keeps the rows as a
        column bin.
        """
        clause, params = self._residual_sql()
        if clause == "0":
            return []
        with self._lock:
            return self._conn.execute(
                "SELECT sid, surface FROM cache_surfaces "
                f"WHERE length BETWEEN ? AND ? AND {clause} "
                "ORDER BY length, surface",
                (min_len, max_len) + params,
            ).fetchall()

    # ------------------------------------------------------------------
    # Dictionary / entry fetches (lazy cache tier)
    # ------------------------------------------------------------------

    def entry_rows(self, sid: int):
        """``(kind, term_id, source_id, significance, display)`` rows of
        one surface bucket, in persisted (kind-rank) order."""
        with self._lock:
            return self._conn.execute(
                "SELECT kind, term_id, source_id, significance, display "
                "FROM cache_entries WHERE sid = ? ORDER BY seq",
                (sid,),
            ).fetchall()

    def surface_of(self, sid: int) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT surface FROM cache_surfaces WHERE sid = ?", (sid,)
            ).fetchone()
        return row[0] if row else None

    def surface_row(self, surface: str):
        """``(sid, significance)`` for a lower-cased surface, if interned."""
        with self._lock:
            return self._conn.execute(
                "SELECT sid, significance FROM cache_surfaces "
                "WHERE surface = ?",
                (surface,),
            ).fetchone()

    def term_row(self, term_id: int):
        with self._lock:
            return self._conn.execute(
                "SELECT kind, lexical, lang, datatype FROM terms "
                "WHERE id = ?",
                (term_id,),
            ).fetchone()

    def term_id_of(self, flat: tuple) -> Optional[int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT id FROM terms WHERE kind = ? AND lexical = ? "
                "AND lang = ? AND datatype = ?",
                flat,
            ).fetchone()
        return row[0] if row else None

    def literal_surface_rows(self) -> List[Tuple[int, str]]:
        """Every literal ``(sid, surface)`` row, first-interned order —
        the (slow, export-only) full enumeration."""
        with self._lock:
            return self._conn.execute(
                "SELECT sid, surface FROM cache_surfaces "
                "WHERE (kinds & ?) != 0 ORDER BY sid",
                (_LITERAL,),
            ).fetchall()

    # ------------------------------------------------------------------
    # Counts and gauges (/stats)
    # ------------------------------------------------------------------

    def count_kind(self, kind: str) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM cache_entries WHERE kind = ?",
                (kind,),
            ).fetchone()
        return int(row[0])

    def n_surfaces(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM cache_surfaces"
            ).fetchone()
        return int(row[0])

    def gauges(self) -> Dict[str, int]:
        """Index size gauges for the ``/stats`` cache block."""
        with self._lock:
            pages = self._conn.execute("PRAGMA page_count").fetchone()[0]
            page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
            surfaces = self._conn.execute(
                "SELECT COUNT(*) FROM cache_surfaces"
            ).fetchone()[0]
        return {
            "index_surfaces": int(surfaces),
            "index_bytes": int(pages) * int(page_size),
            "index_fts": 1 if self.fts else 0,
        }
