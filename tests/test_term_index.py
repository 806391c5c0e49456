"""Unit tests for the on-disk term index (PR 10).

The index's substring prefilter (FTS5 trigram) carries a soundness
obligation: it must be a *superset* of the ``instr`` truth for every
needle — including needles shorter than a trigram (no prefilter
possible) and needles with SQL-meaningful characters (``%``, ``_``,
quotes), since the verification uses ``instr``, never ``LIKE``.  Every
case also runs against a file saved with the tokenizer probe patched to
fail: no prefilter table, the window scan alone, same answers.
(The Jaro–Winkler prune lives in the scorer: ``test_similarity.py``.)
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core import SapphireCache, SapphireConfig, save_cache
from repro.rdf import DBO, FOAF, Literal, RDFS_LABEL
from repro.store import term_tables
from repro.store.term_tables import (
    KIND_MASK,
    create_index_tables,
    fts5_trigram_available,
    has_index_tables,
)
from repro.text.term_index import SqliteTermIndex

LITERALS = [
    ("Kennedy", 50), ("New York", 40), ("Sydney", 30),
    ("Kennedy Road", 0), ("Kensington", 0), ("Ken", 0),
    ("100% organic", 0), ("under_score", 0), ('she said "hi"', 0),
    ("Škoda Auto café", 0), ("aaa", 0), ("aab", 0), ("abcdef", 0),
    ("badcfe", 0), ("a very specific residual literal", 0),
]


def _fts_available() -> bool:
    conn = sqlite3.connect(":memory:")
    try:
        return fts5_trigram_available(conn)
    finally:
        conn.close()


def build_cache() -> SapphireCache:
    cache = SapphireCache(SapphireConfig(suffix_tree_capacity=6))
    for predicate in (DBO.spouse, DBO.almaMater, DBO.birthPlace, FOAF.name):
        cache.add_predicate(predicate)
    cache.add_class(DBO.term("Person"))
    for text, significance in LITERALS:
        cache.add_literal(Literal(text, lang="en"), RDFS_LABEL, significance)
    cache.build_indexes()
    return cache


@pytest.fixture(scope="module", params=["tokenizer", "no-tokenizer"])
def indexed(request, tmp_path_factory):
    """``(index, cache)`` over a freshly saved cache file."""
    present = request.param == "tokenizer"
    if present and not _fts_available():
        pytest.skip("linked SQLite has no FTS5 trigram tokenizer")
    cache = build_cache()
    path = tmp_path_factory.mktemp("index") / "cache.sqlite"
    with pytest.MonkeyPatch.context() as patch:
        if not present:
            patch.setattr(
                term_tables, "fts5_trigram_available", lambda conn: False)
        info = save_cache(cache, path)
    assert info["fts"] is present
    conn = sqlite3.connect(str(path), check_same_thread=False)
    tables = {row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' "
        "AND name LIKE 'cache_%' AND name NOT LIKE 'cache_fts_%'")}
    assert tables == {"cache_surfaces", "cache_entries"} | (
        {"cache_fts"} if present else set())
    index = SqliteTermIndex(conn, fts=bool(info["fts"]))
    index.tree_plan(cache.config.suffix_tree_capacity)
    yield index, cache
    conn.close()


def residual_surfaces(cache):
    """Ground truth: the lowered literal surfaces outside the tree."""
    tree = set(cache._tree_sid_set)
    return {
        cache.surface_of(sid)
        for sid in cache._kind_sids["literal"]
        if sid not in tree
    }


class TestSchema:
    def test_kind_mask_bits_are_disjoint(self):
        bits = list(KIND_MASK.values())
        assert len(bits) == len(set(bits))
        for a in bits:
            for b in bits:
                if a != b:
                    assert a & b == 0

    def test_create(self):
        conn = sqlite3.connect(":memory:")
        assert not has_index_tables(conn)
        create_index_tables(conn, use_fts=False)
        assert has_index_tables(conn)
        conn.close()

    def test_fts_probe_does_not_leave_tables(self):
        conn = sqlite3.connect(":memory:")
        fts5_trigram_available(conn)
        rows = conn.execute(
            "SELECT name FROM sqlite_master WHERE name LIKE '%fts%'"
        ).fetchall()
        assert rows == []
        conn.close()


class TestSubstringSoundness:
    NEEDLES = [
        "ken", "Ken", "nedy", "e", "ne", "%", "_", '"hi"', "100%",
        "café", "Škoda", "a v", "zzz", "aa",
    ]

    def test_matches_brute_force(self, indexed):
        index, cache = indexed
        truth_pool = residual_surfaces(cache)
        for needle in self.NEEDLES:
            lowered = needle.lower()
            expected = sorted(
                (surface for surface in truth_pool
                 if lowered in surface and
                 len(lowered) <= len(surface) <= len(lowered) + 30),
                key=lambda s: (len(s), s),
            )
            got = [
                surface for _, surface in index.substring_sids(
                    lowered, len(lowered), len(lowered) + 30
                )
            ]
            assert got == expected, needle

    def test_limit_keeps_shortest_first_prefix(self, indexed):
        index, _ = indexed
        full = index.substring_sids("e", 1, 40)
        limited = index.substring_sids("e", 1, 40, limit=3)
        assert limited == full[:3]

    def test_length_window_filters(self, indexed):
        index, _ = indexed
        rows = index.substring_sids("ken", 3, 3)
        assert [surface for _, surface in rows] == ["ken"]


class TestWindowRows:
    def test_only_residual_rows_in_window(self, indexed):
        index, cache = indexed
        truth = {
            surface for surface in residual_surfaces(cache)
            if 3 <= len(surface) <= 12
        }
        got = {surface for _, surface in index.window_rows(3, 12)}
        assert got == truth


class TestTreePlan:
    def _index(self, indexed):
        return indexed

    def test_huge_capacity_leaves_no_residual(self, indexed):
        index, cache = indexed
        index.tree_plan(10_000)
        try:
            assert index.residual_count == 0
            assert index.substring_sids("ken", 1, 40) == []
            assert index.window_rows(1, 40) == []
        finally:
            index.tree_plan(cache.config.suffix_tree_capacity)

    def test_pc_only_capacity_makes_every_literal_residual(self, indexed):
        index, cache = indexed
        n_pc = len(cache._kind_sids["predicate"]) + len(cache._kind_sids["class"])
        index.tree_plan(n_pc)
        try:
            assert index.residual_count == len(LITERALS)
        finally:
            index.tree_plan(cache.config.suffix_tree_capacity)

    def test_residual_statistics_match_bins(self, indexed):
        index, cache = indexed
        assert index.residual_count == cache.n_residual_literals
        assert index.residual_bin_count == cache.n_residual_bins

    def test_selectivity_convention_matches_bins(self, indexed):
        index, cache = indexed
        for window in ((1, 40), (3, 8), (100, 200)):
            assert index.selectivity(*window) == pytest.approx(
                cache.bins.selectivity(*window)
            )


class TestGauges:
    def test_counts_match_cache(self, indexed):
        index, cache = indexed
        assert index.count_kind("predicate") == cache.n_predicates
        assert index.count_kind("class") == cache.n_classes
        assert index.count_kind("literal") == cache.n_literals
        gauges = index.gauges()
        assert gauges["index_bytes"] > 0
        assert gauges["index_surfaces"] == index.n_surfaces()
