"""A store is copied by IDs (``TripleStore.copy_into``), and SQLite
writes a write's new terms inside that write's transaction.

The copy must give exactly what ``target.add_all(source.triples())``
gives — the same IDs, so the same files, shard routing and row orders —
without decoding a triple: the 2-shard SQLite snapshot a pre-fork
replica boots from, one SQLite file through ``save_store``, and 2-shard
memory.  Cache files written through the pending terms keep the rows
they had when each term was one INSERT (golden digests, captured on
that engine).
"""

from __future__ import annotations

import hashlib
import sqlite3

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.core.persistence import save_cache, save_store
from repro.data import DatasetConfig, build_dataset
from repro.net import prepare_snapshots
from repro.rdf import IRI, Literal, Triple
from repro.store import SQLiteBackend, TermDictionary, TripleStore, create_sharded_backend
from repro.store import triplestore
from repro.store.sharded import shard_path

SCALES = ("tiny", "small")
STORE_TABLES = (("terms", "id"), ("triples", "s, p, o"), ("meta", "key"))


def _rows(path, table: str, order: str) -> list:
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(f"SELECT * FROM {table} ORDER BY {order}").fetchall()
    finally:
        conn.close()


def _store_rows(path) -> dict:
    return {table: _rows(path, table, order) for table, order in STORE_TABLES}


@pytest.fixture(scope="module", params=SCALES)
def source(request):
    return build_dataset(getattr(DatasetConfig, request.param)()).store


def _sharded_sqlite(base, fill) -> None:
    backend = create_sharded_backend(2, "sqlite", base)
    fill(TripleStore(backend=backend))
    backend.close()


class TestCopyEqualsAddAll:
    def test_sharded_sqlite_snapshot(self, source, tmp_path):
        _sharded_sqlite(tmp_path / "old", lambda target: target.add_all(source.triples()))
        _sharded_sqlite(tmp_path / "new", source.copy_into)
        for shard in range(2):
            old = _store_rows(shard_path(tmp_path / "old", shard))
            assert _store_rows(shard_path(tmp_path / "new", shard)) == old
            assert old["triples"] and bool(old["terms"]) == (shard == 0)  # shard 0 owns the terms

    def test_save_store_file(self, source, tmp_path):
        old = SQLiteBackend(tmp_path / "old.sqlite")
        added = TripleStore(backend=old).add_all(source.triples())
        old.close()
        assert save_store(source, tmp_path / "new.sqlite") == added == len(source)
        assert _store_rows(tmp_path / "new.sqlite") == _store_rows(tmp_path / "old.sqlite")

    def test_sharded_memory(self, source):
        old = TripleStore(backend=create_sharded_backend(2, "memory"))
        old.add_all(source.triples())
        new = TripleStore(backend=create_sharded_backend(2, "memory"))
        assert source.copy_into(new) == len(source)
        for field in ("terms", "lang_codes", "lengths"):
            assert getattr(new.dictionary, field) == getattr(old.dictionary, field)
        for old_shard, new_shard in zip(old.backend.shards, new.backend.shards):
            assert list(new_shard.match_ids(None, None, None)) == list(
                old_shard.match_ids(None, None, None))


def test_a_target_keeps_the_ids_it_holds(store):
    """Terms the target already holds keep their IDs; new ones are
    appended densely; the target then holds every source triple."""
    first = next(iter(store.triples()))
    held = Triple(IRI("http://x/held"), first.predicate, first.subject)
    target = TripleStore([held])
    before = list(target.dictionary.terms)
    added = store.copy_into(target)
    assert target.dictionary.terms[:len(before)] == before
    assert added == len(store) and len(target) == len(store) + 1
    assert set(target.triples()) == set(store.triples()) | {held}
    assert len(target.dictionary) == len(set(target.dictionary.terms))


def test_the_copy_interns_once_and_decodes_nothing(store, monkeypatch):
    """Writing a 2-shard SQLite snapshot: one ``encode`` per distinct
    term, no ``Triple`` built, no single-row term INSERT (counted by
    wrapping; on ``medium`` the old path made 32,506 / 97,518 / 10,979
    and this one 0 / 10,979 / 0)."""
    counts = {"triples": 0, "encodes": 0, "term_inserts": 0}
    built = triplestore.Triple

    def counting_triple(*args):
        counts["triples"] += 1
        return built(*args)

    encode = TermDictionary.encode

    def counting_encode(self, term):
        counts["encodes"] += 1
        return encode(self, term)

    monkeypatch.setattr(triplestore, "Triple", counting_triple)
    monkeypatch.setattr(TermDictionary, "encode", counting_encode)
    backend = create_sharded_backend(2, "sqlite")
    owner = backend.shards[0]
    owner._conn = _CountingConnection(owner._conn, counts)
    store.copy_into(TripleStore(backend=backend))
    distinct = len(owner.dictionary)
    backend.close()
    assert counts == {"triples": 0, "encodes": distinct, "term_inserts": 0}
    assert distinct == len({term for triple in store.triples() for term in triple.as_tuple()})


class _CountingConnection:
    """A sqlite3 connection that counts single-row ``terms`` INSERTs."""

    def __init__(self, conn, counts) -> None:
        self._conn, self._counts = conn, counts

    def execute(self, sql, *args):
        if sql.startswith("INSERT INTO terms"):
            self._counts["term_inserts"] += 1
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_every_interned_term_reaches_the_file(tmp_path):
    """Terms interned by ``add``, by ``add_all`` and by a bare
    ``dictionary.encode`` followed by ``close`` are all in the reopened
    file, under dense IDs."""
    path = tmp_path / "terms.sqlite"
    p = IRI("http://x/p")
    store = TripleStore(backend=SQLiteBackend(path))
    store.add(Triple(IRI("http://x/a"), p, Literal("one", lang="en")))
    store.add_all([Triple(IRI("http://x/b"), p, Literal("two")),
                   Triple(IRI("http://x/a"), p, IRI("http://x/c"))])
    bare = store.dictionary.encode(Literal("only encoded"))
    terms = list(store.dictionary.terms)
    store.close()
    assert [row[0] for row in _rows(path, "terms", "id")] == list(range(len(terms)))
    reopened = SQLiteBackend(path)
    assert reopened.dictionary.terms == terms and reopened.dictionary.lookup(Literal("only encoded")) == bare
    assert reopened.size() == 3
    reopened.close()


def test_a_read_only_replica_writes_nothing(store, tmp_path):
    base = tmp_path / "snapshot"
    _sharded_sqlite(base, store.copy_into)
    files = [shard_path(base, shard) for shard in range(2)]
    before = [open(path, "rb").read() for path in files]
    replica = TripleStore(backend=create_sharded_backend(2, "sqlite", base, read_only=True))
    fresh = replica.dictionary.encode(Literal("interned at run time"))
    assert fresh == len(store.dictionary)
    assert len(replica) == len(store)
    replica.close()
    assert [open(path, "rb").read() for path in files] == before
    assert len(_rows(files[0], "terms", "id")) == len(store.dictionary)


#: sha256 over a cache file's ``terms``, ``meta`` (less the build time
#: and the FTS5 flag, which depend on the run and the SQLite build),
#: ``cache_surfaces`` and ``cache_entries`` rows, written by ``save_cache``
#: after a default registration — captured when every term was its own
#: INSERT and every ``cache_surfaces`` row too.  ``prepare_snapshots``
#: writes the same file from the crawl's cache alone.
CACHE_DIGESTS = {
    "tiny": "2acf3b1d6f92e4f47e69dfeecdb4d4cbbbe7efb752dae272e448e4a1fee71b85",
    "medium": "1288aabe356a8f84ae798e604f59285c018c2dda42f6ce2fae951f7847cb1203",
}
CACHE_TABLES = (("terms", "id"), ("meta", "key"), ("cache_surfaces", "sid"),
                ("cache_entries", "sid, seq"))
BUILD_DEPENDENT = ("sapphire_index_built_s", "sapphire_index_fts")


def _registered_cache_file(scale, tmp_path):
    dataset = build_dataset(getattr(DatasetConfig, scale)())
    server = SapphireServer(SapphireConfig())
    server.register_endpoint(SparqlEndpoint(dataset.store, EndpointConfig(), name="golden"))
    path = tmp_path / "cache.sqlite"
    save_cache(server.cache, path)
    return path


def _prepared_cache_file(scale, tmp_path):
    """The replica's cache file: the crawl's cache, never indexed."""
    spec = prepare_snapshots({"scale": scale, "sapphire": True, "n_shards": 2},
                             str(tmp_path / "snapshot"))
    return spec["cache_snapshot"]


@pytest.mark.parametrize("write", [_registered_cache_file, _prepared_cache_file],
                         ids=["save_cache", "prepare_snapshots"])
@pytest.mark.parametrize("scale", sorted(CACHE_DIGESTS))
def test_cache_files_keep_their_rows(scale, write, tmp_path):
    path = write(scale, tmp_path)
    digest = hashlib.sha256()
    for table, order in CACHE_TABLES:
        for row in _rows(path, table, order):
            if table != "meta" or row[0] not in BUILD_DEPENDENT:
                digest.update(repr(row).encode())
    assert digest.hexdigest() == CACHE_DIGESTS[scale]
    if ("sapphire_index_fts", "1") in _rows(path, "meta", "key"):
        # The substring table indexes exactly the literal surfaces.
        conn = sqlite3.connect(str(path))
        indexed = conn.execute("SELECT rowid FROM cache_fts ORDER BY rowid").fetchall()
        literal = conn.execute("SELECT sid FROM cache_surfaces WHERE kinds & 4 ORDER BY sid").fetchall()
        conn.close()
        assert indexed == literal
