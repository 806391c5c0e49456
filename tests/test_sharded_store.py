"""Sharded store tests: routing parity, stats aggregation, snapshots.

A :class:`ShardedBackend` must be indistinguishable from one flat
backend through every read path the planner and evaluator use — for
any shard count, with memory or SQLite children.  Subject-hash
partitioning makes subject sets disjoint across shards, so these tests
also pin the places where that property is load-bearing (exactly
additive subject stats, single-shard routing for subject-bound probes).
"""

import pytest

from repro.data import DatasetConfig, build_dataset
from repro.endpoint.endpoint import EndpointConfig, SparqlEndpoint
from repro.rdf import IRI, Literal, Triple
from repro.sparql import evaluate
from repro.store import (
    NO_ID,
    MemoryBackend,
    ShardedBackend,
    TripleStore,
    compute_stats,
    create_sharded_backend,
    shard_path,
)

SHARD_COUNTS = [1, 2, 3, 7]

#: Every bound/wildcard combination of (s, p, o) — the planner probes
#: all of them (None = wildcard); subject-bound shapes route to one
#: shard, the rest scatter-gather.
SHAPES = ["spo", "sp?", "s?o", "s??", "?po", "?p?", "??o", "???"]

QUERIES = [
    "SELECT ?s ?n WHERE { ?s foaf:name ?n }",
    "SELECT DISTINCT ?t WHERE { ?s a ?t }",
    "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)",
    "SELECT ?b ?k WHERE { ?b dbo:author ?a . ?a dbo:birthPlace ?c . ?c dbo:country ?k }",
    "ASK { ?s a dbo:Person }",
]


def _result_key(result):
    if hasattr(result, "rows"):
        return sorted(
            tuple(sorted((k, v.n3()) for k, v in row.items())) for row in result.rows
        )
    return result.value


def _triples():
    """Deterministic mixed-shape set: shared predicates, repeated
    objects, multi-valued subjects — every match shape has hits."""
    p_type = IRI("http://x/type")
    p_name = IRI("http://x/name")
    p_knows = IRI("http://x/knows")
    person = IRI("http://x/Person")
    out = []
    for i in range(40):
        s = IRI(f"http://x/e{i}")
        out.append(Triple(s, p_type, person))
        out.append(Triple(s, p_name, Literal(f"entity {i}", lang="en")))
        out.append(Triple(s, p_knows, IRI(f"http://x/e{(i * 7 + 3) % 40}")))
        if i % 3 == 0:
            out.append(Triple(s, p_knows, IRI(f"http://x/e{(i + 1) % 40}")))
    return out


@pytest.fixture(scope="module")
def baseline():
    store = TripleStore(backend=MemoryBackend())
    store.add_all(_triples())
    return store


def _sharded(storage, n_shards, tmp_path):
    if storage == "sqlite":
        backend = create_sharded_backend(
            n_shards, "sqlite", str(tmp_path / "data.sqlite"))
    else:
        backend = create_sharded_backend(n_shards, "memory")
    store = TripleStore(backend=backend)
    store.add_all(_triples())
    return store


def _probe(store, shape):
    """Encode a probe for ``shape`` using terms known to be present."""
    s = store.term_id(IRI("http://x/e3"))
    p = store.term_id(IRI("http://x/knows"))
    o = store.term_id(IRI("http://x/e24"))  # e3 knows e24 (3*7+3)
    assert NO_ID not in (s, p, o)
    return (s if "s" in shape else None,
            p if "p" in shape else None,
            o if "o" in shape else None)


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
class TestRoutingParity:
    """Sharded and flat backends agree on every read, shape by shape."""

    @pytest.fixture()
    def sharded(self, storage, n_shards, tmp_path):
        store = _sharded(storage, n_shards, tmp_path)
        yield store
        store.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_match_ids_multiset_identical(self, baseline, sharded, shape):
        # Identical insertion order + one shared dictionary per store
        # means term IDs agree between the two stores.
        probe = _probe(baseline, shape)
        assert probe == _probe(sharded, shape)
        expected = sorted(baseline.backend.match_ids(*probe))
        assert sorted(sharded.backend.match_ids(*probe)) == expected

    @pytest.mark.parametrize("shape", SHAPES)
    def test_count_ids_identical(self, baseline, sharded, shape):
        probe = _probe(baseline, shape)
        assert (sharded.backend.count_ids(*probe)
                == baseline.backend.count_ids(*probe))
        absent = tuple(None if v is None else v + 10_000 for v in probe)
        for ids in (probe, absent):
            assert sharded.backend.has_match(*ids) is (sharded.backend.count_ids(*ids) > 0)

    def test_size_and_shard_sizes(self, baseline, sharded, n_shards):
        backend = sharded.backend
        assert backend.size() == baseline.backend.size()
        sizes = backend.shard_sizes()
        assert len(sizes) == n_shards
        assert sum(sizes) == backend.size()

    def test_subject_hash_routing(self, sharded, n_shards):
        """Every triple lives in the shard its subject hashes to."""
        backend = sharded.backend
        for index, shard in enumerate(backend.shards):
            for s, _, _ in shard.iter_ids():
                assert backend.shard_of(s) == index == s % n_shards

    def test_vocabulary_views_identical(self, baseline, sharded):
        for view in ("subject_ids", "predicate_ids", "object_ids"):
            assert (sorted(set(getattr(sharded.backend, view)()))
                    == sorted(set(getattr(baseline.backend, view)())))
        assert (sharded.backend.predicate_fanouts()
                == baseline.backend.predicate_fanouts())

    def test_predicate_stats_aggregation(self, baseline, sharded):
        flat = baseline.backend.predicate_stats()
        merged = sharded.backend.predicate_stats()
        assert set(merged) == set(flat)
        for p, (count, n_s, n_o) in merged.items():
            f_count, f_ns, f_no = flat[p]
            assert count == f_count
            # Subject sets are disjoint across shards: exactly additive.
            assert n_s == f_ns
            # Distinct objects can repeat across shards: the merge is an
            # upper bound, never below the true count, capped at count.
            assert f_no <= n_o <= count

    def test_compute_stats_parity(self, baseline, sharded):
        a, b = compute_stats(baseline), compute_stats(sharded)
        assert a.n_triples == b.n_triples
        assert a.n_predicates == b.n_predicates
        assert a.predicate_frequencies == b.predicate_frequencies


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
class TestQueryParity:
    """End-to-end: the evaluator sees identical results over a real
    dataset, sharded or not (memory children; the SQLite engine's
    parity is covered by TestRoutingParity and the snapshot tests)."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset(DatasetConfig.tiny())

    @pytest.fixture()
    def sharded(self, dataset, n_shards):
        store = TripleStore(backend=create_sharded_backend(n_shards, "memory"))
        store.add_all(dataset.store.triples())
        return store

    @pytest.mark.parametrize("query", QUERIES)
    def test_results_multiset_identical(self, dataset, sharded, query):
        expected = _result_key(evaluate(dataset.store, query))
        assert _result_key(evaluate(sharded, query)) == expected

    def test_limit_cuts_are_valid_subsets(self, dataset, sharded):
        """LIMIT picks scan-order-dependent rows — the cut must have the
        right cardinality and draw only from the full result set."""
        full = "SELECT ?s ?n WHERE { ?s foaf:name ?n }"
        cut = full + " LIMIT 10"
        universe = set(_result_key(evaluate(dataset.store, full)))
        rows = _result_key(evaluate(sharded, cut))
        assert len(rows) == 10
        assert set(rows) <= universe

    def test_distinct_after_scatter_gather(self, dataset, sharded):
        """DISTINCT dedupes across shard streams, not per shard."""
        query = "SELECT DISTINCT ?t WHERE { ?s a ?t }"
        expected = _result_key(evaluate(dataset.store, query))
        got = _result_key(evaluate(sharded, query))
        assert got == expected
        assert len(got) == len(set(got))


class TestExplainRendering:
    def test_explain_shows_fan_out(self):
        store = TripleStore(backend=create_sharded_backend(3, "memory"))
        store.add_all(_triples())
        endpoint = SparqlEndpoint(store, EndpointConfig(timeout_s=5.0), name="t")
        plan = endpoint.explain("SELECT ?s ?n WHERE { ?s <http://x/name> ?n }")
        assert "ShardScan(" in plan
        assert "x3/3" in plan

    def test_analyze_shows_per_shard_rows(self):
        store = TripleStore(backend=create_sharded_backend(3, "memory"))
        store.add_all(_triples())
        endpoint = SparqlEndpoint(store, EndpointConfig(timeout_s=5.0), name="t")
        text = endpoint.explain(
            "SELECT ?s ?n WHERE { ?s <http://x/name> ?n }", analyze=True)
        assert text.count("shard-scan") == 3
        for shard in range(3):
            assert f"shard={shard}" in text

    def test_subject_bound_probe_routes_to_one_shard(self):
        store = TripleStore(backend=create_sharded_backend(3, "memory"))
        store.add_all(_triples())
        endpoint = SparqlEndpoint(store, EndpointConfig(timeout_s=5.0), name="t")
        plan = endpoint.explain(
            "SELECT ?o WHERE { <http://x/e3> <http://x/knows> ?o }")
        assert "x1/3" in plan


class TestSnapshots:
    def test_shard_path_layout(self):
        assert shard_path("/a/b.sqlite", 0) == "/a/b.sqlite.shard0"
        assert shard_path("/a/b.sqlite", 6) == "/a/b.sqlite.shard6"

    def test_read_only_reopen_round_trip(self, tmp_path):
        """Write sharded snapshot files, close (checkpoints the WAL),
        reopen read-only — the replica answers identically."""
        base = str(tmp_path / "snap.sqlite")
        writer = TripleStore(backend=create_sharded_backend(3, "sqlite", base))
        writer.add_all(_triples())
        probe_shape = _probe(writer, "?p?")
        expected = sorted(writer.backend.match_ids(*probe_shape))
        expected_sizes = writer.backend.shard_sizes()
        writer.close()
        for shard in range(3):
            assert (tmp_path / f"snap.sqlite.shard{shard}").exists()

        replica = TripleStore(backend=create_sharded_backend(
            3, "sqlite", base, read_only=True))
        try:
            assert replica.backend.shard_sizes() == expected_sizes
            assert sorted(replica.backend.match_ids(*probe_shape)) == expected
            # Terms decode on the replica (shard 0's dictionary is
            # canonical and loads read-only).
            assert replica.term_id(IRI("http://x/e3")) != NO_ID
        finally:
            replica.close()

    def test_shard_zero_owns_terms_and_meta(self, tmp_path):
        """Only shard 0 persists the dictionary and metadata — replicas
        would otherwise see N conflicting copies."""
        import sqlite3

        base = str(tmp_path / "owner.sqlite")
        store = TripleStore(backend=create_sharded_backend(2, "sqlite", base))
        store.add_all(_triples())
        store.backend.set_meta("k", "v")
        assert store.backend.get_meta("k") == "v"
        store.close()
        counts = []
        for shard in range(2):
            conn = sqlite3.connect(shard_path(base, shard))
            counts.append(conn.execute("SELECT COUNT(*) FROM terms").fetchone()[0])
            conn.close()
        assert counts[0] > 0
        assert counts[1] == 0

    def test_single_shard_sharded_backend_is_flat_compatible(self):
        store = TripleStore(backend=create_sharded_backend(1, "memory"))
        store.add_all(_triples())
        assert isinstance(store.backend, ShardedBackend)
        assert store.backend.shard_sizes() == [store.backend.size()]
