"""Unit tests for cache persistence (save once, reload across restarts)."""

import json
import sqlite3

import pytest

from repro.core import (
    QueryCompletionModule,
    SapphireCache,
    SapphireConfig,
    TieredSapphireCache,
    load_cache,
    save_cache,
    save_store,
)
from repro.rdf import DBO, Literal, RDFS_LABEL, Triple
from repro.store import TripleStore, term_tables


@pytest.fixture(scope="module")
def saved(cache, tmp_path_factory):
    path = tmp_path_factory.mktemp("persistence") / "cache.sqlite"
    save_cache(cache, path)
    return path


@pytest.fixture(scope="module")
def restored(cache, saved):
    reader = load_cache(saved, cache.config)
    yield reader
    reader.close()


def completions(cache, terms=("Kenn", "spou", "Vik", "alma")):
    qcm = QueryCompletionModule(cache)
    return [qcm.complete(term).surfaces() for term in terms]


class TestRoundtrip:
    def test_counts_preserved(self, cache, restored):
        assert restored.n_predicates == cache.n_predicates
        assert restored.n_classes == cache.n_classes
        assert restored.n_literals == cache.n_literals

    def test_significance_preserved(self, cache, restored):
        assert cache.significance_of("New York") > 0
        assert restored.significance_of("New York") == cache.significance_of("New York")

    def test_terms_preserved_exactly(self, cache, restored):
        original_terms = {e.term for s in cache.literal_surfaces()
                          for e in cache.entries_for_surface(s) if e.kind == "literal"}
        restored_terms = {e.term for s in restored.literal_surfaces()
                          for e in restored.entries_for_surface(s) if e.kind == "literal"}
        assert restored_terms == original_terms

    def test_source_predicates_preserved(self, cache, restored):
        surface = next(iter(cache.literal_surfaces()))
        original = {e.source_predicate for e in cache.entries_for_surface(surface)
                    if e.kind == "literal"}
        recovered = {e.source_predicate for e in restored.entries_for_surface(surface)
                     if e.kind == "literal"}
        assert recovered == original

    def test_restored_cache_is_indexed(self, restored):
        assert restored.is_indexed
        assert restored.tree is not None

    def test_qcm_answers_identically_after_reload(self, cache, restored):
        assert completions(restored) == completions(cache)


class TestFiles:
    def test_load_with_different_config(self, cache, saved):
        """The tree capacity is a load-time choice, not a stored one."""
        small = load_cache(saved, SapphireConfig(suffix_tree_capacity=10))
        try:
            assert small.n_tree_strings < cache.n_tree_strings
            assert small.n_literals == cache.n_literals
        finally:
            small.close()

    def test_unicode_literals_survive(self, tmp_path):
        cache = SapphireCache(SapphireConfig(suffix_tree_capacity=10))
        cache.add_literal(Literal("Škoda Auto café", lang="en"), RDFS_LABEL, 3)
        cache.build_indexes()
        path = tmp_path / "cache.sqlite"
        save_cache(cache, path)
        restored = load_cache(path)
        try:
            assert restored.entries_for_surface("Škoda Auto café")
        finally:
            restored.close()

    def test_one_format_no_triples(self, cache, saved):
        """The file holds the dictionary and the cache tables, once."""
        info = save_cache(cache, saved)
        assert info["version"] == 3 and info["built_s"] >= 0.0
        conn = sqlite3.connect(str(saved))
        try:
            assert conn.execute("SELECT COUNT(*) FROM triples").fetchone()[0] == 0
            assert conn.execute("SELECT COUNT(*) FROM terms").fetchone()[0] > 0
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name LIKE 'cache_%' AND name NOT LIKE 'cache_fts_%'")}
        finally:
            conn.close()
        assert tables - {"cache_fts"} == {"cache_surfaces", "cache_entries"}

    def test_file_with_unrelated_triples_serves_identically(
            self, cache, saved, restored, tmp_path):
        """What a PR 10–17 file looks like: the same tables beside
        reified triples nobody reads any more."""
        old = tmp_path / "old.sqlite"
        old.write_bytes(saved.read_bytes())
        conn = sqlite3.connect(str(old))
        conn.execute("INSERT INTO triples (s, p, o) VALUES (0, 1, 2), (3, 1, 4)")
        conn.commit()
        conn.close()
        reopened = load_cache(old, cache.config)
        try:
            assert reopened.stats() == restored.stats()
            assert completions(reopened) == completions(cache)
        finally:
            reopened.close()

    def test_load_report_records_boot(self, restored):
        assert isinstance(restored, TieredSapphireCache)
        assert restored.load_report["mode"] == "tiered"
        assert restored.load_report["seconds"] >= 0.0

    def test_tiered_snapshot_roundtrips(self, cache, saved, restored, tmp_path):
        """save_cache on a tiered cache copies the backing file — the
        copy must serve identically; over itself it is a no-op."""
        second = tmp_path / "second.sqlite"
        assert save_cache(restored, second)["version"] == 3
        assert save_cache(restored, saved)["fts"] == restored.term_index.fts
        copy = load_cache(second, cache.config)
        try:
            assert copy.stats() == restored.stats()
            assert completions(copy) == completions(cache)
        finally:
            copy.close()


class TestRefusal:
    """Anything but the one format is refused with the remedy."""

    def refused(self, path, found):
        with pytest.raises(ValueError, match="repro init --save") as refusal:
            load_cache(path)
        assert found in str(refusal.value)
        assert str(path) in str(refusal.value)

    def test_json_document(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 1, "predicates": []}))
        self.refused(path, "not a SQLite database")
        assert json.loads(path.read_text())["version"] == 1  # untouched

    def test_sqlite_file_without_cache_tables(self, tmp_path):
        path = tmp_path / "dataset.sqlite"
        store = TripleStore()
        store.add(Triple(DBO.term("a"), DBO.spouse, DBO.term("b")))
        save_store(store, path)
        self.refused(path, "without the cache tables")

    def test_wrong_version(self, saved, tmp_path):
        path = tmp_path / "future.sqlite"
        path.write_bytes(saved.read_bytes())
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value = '99' WHERE key = ?",
                     (term_tables.META_CACHE_VERSION,))
        conn.commit()
        conn.close()
        self.refused(path, "version '99'")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cache(tmp_path / "absent.sqlite")
        assert not (tmp_path / "absent.sqlite").exists()


class TestPublish:
    """One publish step for every writer: built in a scratch file,
    stale WAL absorbed, then an atomic replace."""

    def test_failed_save_keeps_the_previous_file(
            self, cache, restored, tmp_path, monkeypatch):
        path = tmp_path / "cache.sqlite"
        save_cache(cache, path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise sqlite3.OperationalError("disk full")

        monkeypatch.setattr(term_tables, "populate_index_tables", boom)
        with pytest.raises(sqlite3.OperationalError):
            save_cache(cache, path)
        assert path.read_bytes() == before
        survivor = load_cache(path, cache.config)
        try:
            assert survivor.stats() == restored.stats()
            assert completions(survivor) == completions(cache)
        finally:
            survivor.close()

    def test_tiered_save_leaves_no_stale_wal(self, cache, restored, tmp_path):
        path = tmp_path / "cache.sqlite"
        conn = sqlite3.connect(str(path))  # an old file with a live WAL
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("CREATE TABLE old (x)")
        conn.execute("INSERT INTO old VALUES (1)")
        conn.commit()
        wal = tmp_path / "cache.sqlite-wal"
        stale = wal.read_bytes()
        conn.close()
        wal.write_bytes(stale)  # as a crash would leave it
        save_cache(restored, path)
        assert not wal.exists()
        copy = load_cache(path, cache.config)
        try:
            assert copy.stats() == restored.stats()
        finally:
            copy.close()
