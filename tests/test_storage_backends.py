"""Storage-engine seam tests: dictionary, SQLite persistence, parity.

Covers what the parametrized store tests cannot: that the SQLite backend
actually persists (build → close → reopen → identical results), that the
two backends produce identical query results over a real dataset, and
that the server-level save/load state round-trip restores a working
Sapphire without re-running initialization.
"""

import sqlite3

import pytest

from repro import (
    EndpointConfig,
    SapphireConfig,
    SapphireServer,
    SparqlEndpoint,
    load_store,
    save_store,
)
from repro.data import DatasetConfig, build_dataset
from repro.rdf import IRI, RDF_TYPE, RDFS_LABEL, BlankNode, Literal, Triple, Variable
from repro.rdf.terms import flatten_term, unflatten_term
from repro.sparql import evaluate
from repro.store import (
    NO_ID,
    MemoryBackend,
    SQLiteBackend,
    TermDictionary,
    TripleStore,
    compute_stats,
)

QUERIES = [
    'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
    "SELECT ?s ?o WHERE { ?s rdfs:label ?o } LIMIT 20",
    "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)",
    "ASK { ?s a dbo:Person }",
]


def _result_key(result):
    if hasattr(result, "rows"):
        return sorted(
            tuple(sorted((k, v.n3()) for k, v in row.items())) for row in result.rows
        )
    return result.value


class TestTermDictionary:
    def test_encode_is_idempotent(self):
        d = TermDictionary()
        a = d.encode(IRI("http://x/a"))
        assert d.encode(IRI("http://x/a")) == a
        assert len(d) == 1

    def test_lookup_unknown_is_no_id(self):
        d = TermDictionary()
        assert d.lookup(IRI("http://x/a")) == NO_ID

    def test_ids_dense_in_intern_order(self):
        d = TermDictionary()
        ids = [d.encode(IRI(f"http://x/{i}")) for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert d.terms == [IRI(f"http://x/{i}") for i in range(5)]

    def test_restore_requires_density(self):
        d = TermDictionary()
        d.restore(0, IRI("http://x/a"))
        with pytest.raises(ValueError, match="non-dense"):
            d.restore(5, IRI("http://x/b"))


class TestTermFlattening:
    @pytest.mark.parametrize(
        "term",
        [
            IRI("http://x/a"),
            Literal("plain"),
            Literal("Boston", lang="en"),
            Literal("42", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
            Literal("Škoda café", lang="cs"),
            BlankNode("b0"),
        ],
    )
    def test_round_trip(self, term):
        assert unflatten_term(*flatten_term(term)) == term

    def test_variables_are_rejected(self):
        with pytest.raises(TypeError):
            flatten_term(Variable("x"))

    def test_empty_lang_normalizes_to_absent(self):
        """Literal('x', lang='') must BE Literal('x'): the flat persisted
        form uses '' for 'absent' and could not tell them apart."""
        assert Literal("x", lang="") == Literal("x")
        assert Literal("x", lang="").lang is None
        # And the SQLite backend can store both spellings without a
        # UNIQUE-constraint collision (they intern to one ID).
        store = TripleStore(backend=SQLiteBackend(":memory:"))
        p = IRI("http://x/p")
        store.add(Triple(IRI("http://x/a"), p, Literal("x", lang="")))
        store.add(Triple(IRI("http://x/b"), p, Literal("x")))
        assert len(store) == 2
        assert store.term_id(Literal("x", lang="")) == store.term_id(Literal("x"))
        store.close()


class TestSQLitePersistence:
    def test_file_round_trip(self, tmp_path):
        """Build dataset → persist → reopen → identical query results."""
        path = tmp_path / "dataset.sqlite"
        dataset = build_dataset(DatasetConfig.tiny())
        expected = {q: _result_key(evaluate(dataset.store, q)) for q in QUERIES}

        assert save_store(dataset.store, path) == len(dataset.store)
        reopened = load_store(path)
        assert len(reopened) == len(dataset.store)
        for query, key in expected.items():
            assert _result_key(evaluate(reopened, query)) == key
        reopened.close()

    def test_reopen_preserves_dictionary_ids(self, tmp_path):
        path = tmp_path / "ids.sqlite"
        store = TripleStore(backend=SQLiteBackend(path))
        a, p, b = IRI("http://x/a"), IRI("http://x/p"), Literal("b", lang="en")
        store.add(Triple(a, p, b))
        ids = (store.term_id(a), store.term_id(p), store.term_id(b))
        store.close()

        reopened = load_store(path)
        assert (reopened.term_id(a), reopened.term_id(p), reopened.term_id(b)) == ids
        assert Triple(a, p, b) in reopened
        reopened.close()

    def test_wal_mode_and_schema(self, tmp_path):
        path = tmp_path / "schema.sqlite"
        store = TripleStore(backend=SQLiteBackend(path))
        store.add(Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")))
        store.close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        indexes = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )}
        assert {"idx_triples_pos", "idx_triples_osp"} <= indexes
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
        assert {"terms", "triples"} <= tables
        conn.close()

    def test_save_store_copies_metadata(self, tmp_path):
        """Provenance (e.g. the dataset fingerprint) travels with the
        snapshot instead of being silently dropped."""
        source = TripleStore([Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))])
        source.backend.set_meta("dataset_fingerprint", "abc123")
        path = tmp_path / "snap.sqlite"
        save_store(source, path)
        reopened = load_store(path)
        assert reopened.backend.meta_items().get("dataset_fingerprint") == "abc123"
        reopened.close()

    def test_save_store_overwrites_stale_file(self, tmp_path):
        path = tmp_path / "stale.sqlite"
        first = TripleStore([Triple(IRI("http://x/old"), IRI("http://x/p"), IRI("http://x/o"))])
        save_store(first, path)
        second = TripleStore([Triple(IRI("http://x/new"), IRI("http://x/p"), IRI("http://x/o"))])
        save_store(second, path)
        reopened = load_store(path)
        assert set(reopened.triples()) == set(second.triples())
        reopened.close()

    def test_load_store_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_store(tmp_path / "absent.sqlite")

    def test_save_store_over_a_file_held_open_elsewhere(self, tmp_path):
        """Snapshotting is an atomic replace: a connection holding the
        old file keeps reading its inode consistently (it must reopen to
        see the snapshot — single-writer assumption), fresh opens see
        exactly the new snapshot, and no scratch file is left behind."""
        path = tmp_path / "shared.sqlite"
        old = Triple(IRI("http://x/old"), IRI("http://x/p"), IRI("http://x/o"))
        new = Triple(IRI("http://x/new"), IRI("http://x/p"), IRI("http://x/o"))
        holder = TripleStore(backend=SQLiteBackend(path))
        holder.add(old)
        save_store(TripleStore([new]), path)  # overwrite while held open
        reopened = load_store(path)
        assert set(reopened.triples()) == {new}
        reopened.close()
        # The holder still reads its (old) snapshot consistently.
        assert set(holder.triples()) == {old}
        holder.close()
        assert not (tmp_path / "shared.sqlite.tmp").exists()

    def test_interrupted_save_store_preserves_previous_snapshot(self, tmp_path):
        """A crash mid-copy must not destroy the last good snapshot."""
        path = tmp_path / "snap.sqlite"
        good = Triple(IRI("http://x/good"), IRI("http://x/p"), IRI("http://x/o"))
        save_store(TripleStore([good]), path)

        class Exploding(MemoryBackend):
            """Its scan dies after one row, mid-copy."""

            def match_ids(self, s, p, o):
                rows = super().match_ids(s, p, o)
                yield next(rows)
                raise RuntimeError("disk died")

        partial = [Triple(IRI(f"http://x/partial{i}"), IRI("http://x/p"), IRI("http://x/o"))
                   for i in range(2)]
        with pytest.raises(RuntimeError, match="disk died"):
            save_store(TripleStore(partial, backend=Exploding()), path)
        reopened = load_store(path)
        assert set(reopened.triples()) == {good}  # old snapshot intact
        reopened.close()

    def test_save_store_onto_itself_spelled_differently(self, tmp_path, monkeypatch):
        """Saving a SQLite store to its own file via another path spelling
        must not unlink the live database."""
        monkeypatch.chdir(tmp_path)
        store = TripleStore(backend=SQLiteBackend("self.sqlite"))
        store.add(Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")))
        assert save_store(store, tmp_path / "self.sqlite") == 1  # absolute spelling
        assert len(store) == 1 and Triple(
            IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")
        ) in store
        store.close()


class TestBackendParity:
    """The two backends must be indistinguishable through the evaluator."""

    @pytest.fixture(scope="class")
    def stores(self):
        dataset = build_dataset(DatasetConfig.tiny())
        encoded = TripleStore(backend=MemoryBackend())
        encoded.add_all(dataset.store.triples())
        persistent = TripleStore(backend=SQLiteBackend(":memory:"))
        persistent.add_all(dataset.store.triples())
        return dataset.store, encoded, persistent

    @pytest.mark.parametrize("query", QUERIES)
    def test_query_results_identical(self, stores, query):
        baseline, encoded, persistent = stores
        expected = _result_key(evaluate(baseline, query))
        assert _result_key(evaluate(encoded, query)) == expected
        assert _result_key(evaluate(persistent, query)) == expected

    def test_stats_identical(self, stores):
        baseline, _, persistent = stores
        a, b = compute_stats(baseline), compute_stats(persistent)
        assert a.n_triples == b.n_triples
        assert a.n_predicates == b.n_predicates
        assert a.n_literals == b.n_literals
        assert a.n_entities == b.n_entities
        assert a.max_in_degree == b.max_in_degree
        assert a.predicate_frequencies == b.predicate_frequencies


def _old_where_clause(s, p, o):
    """The ``WHERE`` builder every SQLite probe ran before its eight
    statements were built once, kept as the reference for their text."""
    clauses = [f"{column} = ?" for column, value in
               (("s", s), ("p", p), ("o", o)) if value is not None]
    params = tuple(value for value in (s, p, o) if value is not None)
    if not clauses:
        return "", ()
    return " WHERE " + " AND ".join(clauses), params


class TestStatementTexts:
    """The SQLite probes' statements, one per mask of bound positions,
    are byte for byte what the per-probe builder made, and bind the
    values it bound."""

    MASKS = [(s, p, o) for s in (None, 7) for p in (None, 8) for o in (None, 9)]

    @pytest.mark.parametrize("ids", MASKS)
    def test_each_mask_builds_the_old_text(self, ids):
        from repro.store import sqlite_backend as sb

        mask = sb._mask(*ids)
        where, params = _old_where_clause(*ids)
        assert (sb._WHERE[mask], sb._PARAMS[mask](*ids)) == (where, params)
        assert sb._MATCH_SQL[mask] == f"SELECT s, p, o FROM triples{where}"
        assert sb._COUNT_SQL[mask] == f"SELECT COUNT(*) FROM triples{where}"
        assert sb._HAS_MATCH_SQL[mask] == f"SELECT 1 FROM triples{where} LIMIT 1"


class TestServerStatePersistence:
    def test_save_and_load_state(self, tmp_path):
        dataset = build_dataset(DatasetConfig.tiny())
        endpoint = SparqlEndpoint(
            dataset.store, EndpointConfig(timeout_s=1.0), name="dbpedia-mini"
        )
        config = SapphireConfig(suffix_tree_capacity=500)
        server = SapphireServer(config)
        server.register_endpoint(endpoint)

        counts = server.save_state(tmp_path / "state")
        assert counts == {"dbpedia-mini": len(dataset.store)}

        restored = SapphireServer.load_state(
            tmp_path / "state", config, EndpointConfig(timeout_s=1.0)
        )
        assert [e.name for e in restored.endpoints] == ["dbpedia-mini"]
        # No re-initialization happened: the restored server has no reports.
        assert restored.reports == {}
        for query in QUERIES[:2]:
            assert _result_key(restored.run_query(query, suggest=False).answers) == \
                _result_key(server.run_query(query, suggest=False).answers)
        # The restored cache drives the QCM exactly like the original.
        for typed in ("Kenn", "spou"):
            assert set(restored.complete(typed).surfaces()) == \
                set(server.complete(typed).surfaces())

    def _restored_with_islands(self, tmp_path):
        """A server restored from a saved state, plus a second endpoint
        (one class, one predicate, two literals) not yet registered."""
        dataset = build_dataset(DatasetConfig.tiny())
        config = SapphireConfig(suffix_tree_capacity=500)
        server = SapphireServer(config)
        server.register_endpoint(SparqlEndpoint(
            dataset.store, EndpointConfig(timeout_s=1.0), name="dbpedia-mini"))
        server.save_state(tmp_path / "state")
        restored = SapphireServer.load_state(
            tmp_path / "state", config, EndpointConfig(timeout_s=1.0))
        example = "http://example.org/"
        zanzibar = IRI(example + "zanzibar")
        islands = TripleStore()
        islands.add(Triple(zanzibar, RDF_TYPE, IRI(example + "Archipelago")))
        islands.add(Triple(zanzibar, RDFS_LABEL, Literal("Zanzibar", lang="en")))
        islands.add(Triple(zanzibar, IRI(example + "harbourDepth"),
                           Literal("Twelve fathoms", lang="en")))
        return restored, SparqlEndpoint(
            islands, EndpointConfig(timeout_s=1.0), name="islands")

    def test_register_endpoint_after_load_state(self, tmp_path):
        """A restored server holds the file's reader; registering another
        endpoint promotes it to a builder and merges — terms of both
        endpoints complete and repair afterwards."""
        from repro.core import SapphireCache

        restored, islands = self._restored_with_islands(tmp_path)
        assert not isinstance(restored.cache, SapphireCache)
        assert restored.complete("Zanz").surfaces() == []
        report = restored.register_endpoint(islands)
        assert report.total_queries > 0
        assert isinstance(restored.cache, SapphireCache)
        assert [e.name for e in restored.endpoints] == ["dbpedia-mini", "islands"]
        assert list(restored.reports) == ["islands"]
        assert restored.complete("Zanz").surfaces() == ["Zanzibar"]
        assert "harbourDepth" in restored.complete("harbourD").surfaces()
        assert restored.complete("Kenn").surfaces()
        for query, repair in (
            ('SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }', "Kennedy"),
            ('SELECT ?i WHERE { ?i rdfs:label "Zanzibarr"@en }', "Zanzibar"),
        ):
            outcome = restored.run_query(query)
            assert not outcome.has_answers
            best = outcome.all_suggestions[0]
            assert best.replacement.lexical == repair and best.n_answers > 0

    def test_failed_initialization_leaves_server_as_it_was(
            self, tmp_path, monkeypatch):
        from repro.core import sapphire as sapphire_module

        restored, islands = self._restored_with_islands(tmp_path)
        cache, federation = restored.cache, restored.federation
        before = restored.complete("Kenn").surfaces()

        def crawl_fails(self):
            raise ConnectionError("endpoint went away mid-crawl")

        monkeypatch.setattr(
            sapphire_module.EndpointInitializer, "run", crawl_fails)
        with pytest.raises(ConnectionError):
            restored.register_endpoint(islands)
        assert [e.name for e in restored.endpoints] == ["dbpedia-mini"]
        assert restored.reports == {}
        assert restored.federation is federation
        assert restored.cache is cache
        assert restored.complete("Kenn").surfaces() == before

    def test_save_state_rejects_pathy_endpoint_names(self, tmp_path):
        store = TripleStore([Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))])
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=10))
        server.attach_endpoint(SparqlEndpoint(store, name="evil/../name"))
        with pytest.raises(ValueError, match="path separator"):
            server.save_state(tmp_path / "state")
        assert not (tmp_path / "state").exists()  # nothing partially written

    def test_save_state_leaves_unrelated_sqlite_files_alone(self, tmp_path):
        """Stale-state cleanup is manifest-driven: a foreign .sqlite file
        in the state directory must never be deleted."""
        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        state = tmp_path / "state"
        state.mkdir()
        foreign = state / "customer-records.sqlite"
        foreign.write_bytes(b"precious")
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=10))
        server.attach_endpoint(SparqlEndpoint(TripleStore([t]), name="mine"))
        server.save_state(state)
        server.save_state(state)  # second save exercises the cleanup path
        assert foreign.read_bytes() == b"precious"

    def test_save_state_drops_stale_endpoint_files(self, tmp_path):
        """Re-saving after an endpoint is removed must not resurrect it
        on the next load."""
        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        config = SapphireConfig(suffix_tree_capacity=10)
        server = SapphireServer(config)
        server.attach_endpoint(SparqlEndpoint(TripleStore([t]), name="keep"))
        server.attach_endpoint(SparqlEndpoint(TripleStore([t]), name="drop"))
        server.save_state(tmp_path / "state")
        server.endpoints = [e for e in server.endpoints if e.name == "keep"]
        server._refresh_modules()
        server.save_state(tmp_path / "state")
        restored = SapphireServer.load_state(tmp_path / "state", config)
        assert [e.name for e in restored.endpoints] == ["keep"]

    def test_tampered_manifest_cannot_escape_state_directory(self, tmp_path):
        """Path-traversal names in state.json are never followed: the
        cleanup skips them and load_state refuses to open them."""
        import json

        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        outside = tmp_path / "precious.sqlite"
        outside.write_bytes(b"keep me")
        state = tmp_path / "state"
        config = SapphireConfig(suffix_tree_capacity=10)
        server = SapphireServer(config)
        server.attach_endpoint(SparqlEndpoint(TripleStore([t]), name="mine"))
        server.save_state(state)

        manifest = json.loads((state / "state.json").read_text())
        manifest["endpoints"].append("../precious")
        (state / "state.json").write_text(json.dumps(manifest))

        server.save_state(state)  # cleanup must skip the traversal name
        assert outside.read_bytes() == b"keep me"

        # save_state rewrote a clean manifest; tamper again for the
        # load-side check.
        (state / "state.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsafe endpoint"):
            SapphireServer.load_state(state, config)

    def test_non_string_manifest_entries_are_ignored_safely(self, tmp_path):
        import json

        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        state = tmp_path / "state"
        config = SapphireConfig(suffix_tree_capacity=10)
        server = SapphireServer(config)
        server.attach_endpoint(SparqlEndpoint(TripleStore([t]), name="mine"))
        server.save_state(state)
        manifest = json.loads((state / "state.json").read_text())
        manifest["endpoints"].append(123)
        (state / "state.json").write_text(json.dumps(manifest))
        server.save_state(state)  # must not raise TypeError
        with pytest.raises(ValueError, match="unsafe endpoint"):
            (state / "state.json").write_text(json.dumps(manifest))
            SapphireServer.load_state(state, config)

    def test_truncated_manifest_does_not_brick_saves(self, tmp_path):
        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        state = tmp_path / "state"
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=10))
        server.attach_endpoint(SparqlEndpoint(TripleStore([t]), name="mine"))
        server.save_state(state)
        (state / "state.json").write_text('{"version": 1, "endpo')  # crash artifact
        server.save_state(state)  # must recover, not raise
        restored = SapphireServer.load_state(state, SapphireConfig(suffix_tree_capacity=10))
        assert [e.name for e in restored.endpoints] == ["mine"]

    def test_manifest_without_cache_file_is_refused(self, tmp_path):
        """A version-1 manifest named no cache file (it meant a JSON
        document beside it): refused, not guessed at."""
        import json

        state = tmp_path / "state"
        state.mkdir()
        (state / "cache.json").write_text('{"version": 1}')
        (state / "state.json").write_text(json.dumps(
            {"version": 1, "endpoints": []}))
        with pytest.raises(ValueError, match="cache file"):
            SapphireServer.load_state(state)

    def test_restored_server_saves_again(self, tmp_path):
        """Saving a restored server writes its (immutable) cache file
        over itself — a no-op — and the state still loads."""
        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        state = tmp_path / "state"
        config = SapphireConfig(suffix_tree_capacity=10)
        server = SapphireServer(config)
        server.register_endpoint(SparqlEndpoint(TripleStore([t]), name="mine"))
        server.save_state(state)
        restored = SapphireServer.load_state(state, config)
        before = (state / "cache.sqlite").read_bytes()
        restored.save_state(state)
        assert (state / "cache.sqlite").read_bytes() == before
        again = SapphireServer.load_state(state, config)
        assert again.cache_stats() == server.cache_stats()

    def test_save_state_rejects_duplicate_endpoint_names(self, tmp_path):
        """Two endpoints with the same (default) name would overwrite
        each other's state files."""
        t = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=10))
        server.attach_endpoint(SparqlEndpoint(TripleStore([t])))
        server.attach_endpoint(SparqlEndpoint(TripleStore([t])))
        with pytest.raises(ValueError, match="share the name"):
            server.save_state(tmp_path / "state")
        assert not (tmp_path / "state").exists()
