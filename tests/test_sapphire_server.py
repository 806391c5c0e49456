"""Unit tests for the Sapphire server façade and query builder."""

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.core import QueryBuilder
from repro.data import DatasetConfig, build_dataset
from repro.rdf import DBO, FOAF, Literal, Variable
from repro.sparql import parse_query


class TestQueryBuilder:
    def test_triples_and_star_projection(self):
        query = (QueryBuilder()
                 .triple(Variable("s"), DBO.spouse, Variable("o"))
                 .build())
        assert query.select_star
        assert len(query.where.patterns) == 1
        assert query.distinct

    def test_compare_filter(self):
        query = (QueryBuilder()
                 .triple(Variable("b"), DBO.numberOfPages, Variable("p"))
                 .compare("p", ">", 300)
                 .build())
        assert len(query.where.filters) == 1

    def test_starts_filter(self):
        query = (QueryBuilder()
                 .triple(Variable("x"), DBO.birthDate, Variable("bd"))
                 .compare("bd", "starts", "1945")
                 .build())
        from repro.sparql.serializer import serialize_query

        assert "STRSTARTS" in serialize_query(query)

    def test_count(self):
        query = (QueryBuilder()
                 .triple(Variable("p"), FOAF.surname, Literal("Kennedy", lang="en"))
                 .count("p")
                 .build())
        assert query.has_aggregates()
        assert query.select_items[0].output_name == "count"

    def test_aggregate(self):
        query = (QueryBuilder()
                 .triple(Variable("b"), DBO.numberOfPages, Variable("p"))
                 .aggregate("avg", "p")
                 .build())
        assert query.select_items[0].expression.name == "AVG"

    def test_order_and_limit(self):
        query = (QueryBuilder()
                 .triple(Variable("c"), DBO.populationTotal, Variable("pop"))
                 .order_by("pop", descending=True)
                 .limit(1)
                 .build())
        assert query.limit == 1
        assert not query.order_by[0].ascending


class TestServerLifecycle:
    def test_register_initializes_and_indexes(self, tiny_dataset):
        endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=1.0))
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=300))
        report = server.register_endpoint(endpoint)
        assert report.total_queries > 0
        assert server.cache.is_indexed
        assert server.cache_stats()["predicates"] > 0

    def test_query_before_registration_fails(self):
        server = SapphireServer()
        with pytest.raises(RuntimeError):
            server.run_query("SELECT ?s { ?s ?p ?o }")

    def test_two_endpoints_merge_caches(self):
        a = build_dataset(DatasetConfig.tiny(seed=1))
        b = build_dataset(DatasetConfig.tiny(seed=2))
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=300))
        server.register_endpoint(SparqlEndpoint(a.store, EndpointConfig(timeout_s=1.0), name="a"))
        single = server.cache_stats()["literals"]
        server.register_endpoint(SparqlEndpoint(b.store, EndpointConfig(timeout_s=1.0), name="b"))
        assert server.cache_stats()["literals"] > single
        assert len(server.reports) == 2


class _FailsOnNthQuery(SparqlEndpoint):
    """An endpoint whose ``n``-th query raises something the
    initializer does not treat as a timeout or a rejection."""

    def __init__(self, store, n):
        super().__init__(store, EndpointConfig(timeout_s=1.0), name="flaky")
        self.remaining = n

    def select(self, query):
        self.remaining -= 1
        if self.remaining == 0:
            raise RuntimeError("endpoint fell over mid-crawl")
        return super().select(query)


class TestRegistrationIndexesOnce:
    """One ``register_endpoint`` is one index build (Section 5.2): one
    suffix tree, one set of residual bins."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.core import cache as cache_module

        built = {"trees": 0, "indexes": 0}

        class CountedTree(cache_module.GeneralizedSuffixTree):
            def __init__(self, *args, **kwargs):
                built["trees"] += 1
                super().__init__(*args, **kwargs)

        build_indexes = cache_module.SapphireCache.build_indexes

        def counted_build(self):
            built["indexes"] += 1
            build_indexes(self)

        monkeypatch.setattr(cache_module, "GeneralizedSuffixTree", CountedTree)
        monkeypatch.setattr(cache_module.SapphireCache, "build_indexes", counted_build)
        return built

    def test_first_and_second_endpoint(self, built):
        a = build_dataset(DatasetConfig.tiny(seed=1))
        b = build_dataset(DatasetConfig.tiny(seed=2))
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=300))
        report = server.register_endpoint(
            SparqlEndpoint(a.store, EndpointConfig(timeout_s=1.0), name="a"))
        assert built == {"trees": 1, "indexes": 1}
        assert report.cache_stats == server.cache_stats()
        report = server.register_endpoint(
            SparqlEndpoint(b.store, EndpointConfig(timeout_s=1.0), name="b"))
        assert built == {"trees": 2, "indexes": 2}
        # The report describes the cache that was indexed: the merged one.
        assert report.cache_stats == server.cache_stats()
        assert set(report.stage_seconds) == (
            set(report.stages_completed) | {"index", "qsm-vocabulary"})

    def test_server_restored_from_a_cache_file(self, tmp_path, tiny_dataset, built):
        config = SapphireConfig(suffix_tree_capacity=300)
        server = SapphireServer(config)
        server.register_endpoint(
            SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=1.0), name="a"))
        server.save_state(tmp_path / "state")
        restored = SapphireServer.load_state(
            tmp_path / "state", config, EndpointConfig(timeout_s=1.0))
        other = build_dataset(DatasetConfig.tiny(seed=2))
        built.update(trees=0, indexes=0)
        restored.register_endpoint(
            SparqlEndpoint(other.store, EndpointConfig(timeout_s=1.0), name="b"))
        assert built == {"trees": 1, "indexes": 1}

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_an_initializer_that_raises_part_way_changes_nothing(self, tiny_dataset, built, n):
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=300))
        server.register_endpoint(
            SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=1.0), name="a"))
        other = build_dataset(DatasetConfig.tiny(seed=2))
        stats, cache, federation = server.cache_stats(), server.cache, server.federation
        served = {prefix: server.complete(prefix).surfaces() for prefix in ("Kenn", "spou", "a")}
        built.update(trees=0, indexes=0)
        with pytest.raises(RuntimeError, match="fell over"):
            server.register_endpoint(_FailsOnNthQuery(other.store, n))
        assert built == {"trees": 0, "indexes": 0}
        assert server.cache_stats() == stats and server.cache is cache
        assert [endpoint.name for endpoint in server.endpoints] == ["a"]
        assert list(server.reports) == ["a"] and server.federation is federation
        assert {prefix: server.complete(prefix).surfaces() for prefix in served} == served


class TestRunQuery:
    def test_accepts_text(self, server):
        outcome = server.run_query(
            'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
            suggest=False,
        )
        assert len(outcome.answers) == 1

    def test_accepts_builder(self, server):
        builder = (QueryBuilder()
                   .triple(Variable("t"), FOAF.name, Literal("Tom Hanks", lang="en"))
                   .triple(Variable("t"), DBO.spouse, Variable("w")))
        outcome = server.run_query(builder, suggest=False)
        assert outcome.has_answers

    def test_accepts_parsed_ast(self, server):
        query = parse_query("SELECT ?s { ?s a dbo:Book }")
        outcome = server.run_query(query, suggest=False)
        assert outcome.has_answers

    def test_suggest_false_skips_qsm(self, server):
        outcome = server.run_query("SELECT ?s { ?s a dbo:Book }", suggest=False)
        assert outcome.term_suggestions == []
        assert outcome.relaxations == []
        assert outcome.qsm_seconds == 0.0

    def test_outcome_query_text_round_trips(self, server):
        outcome = server.run_query("SELECT ?s { ?s a dbo:Book }", suggest=False)
        reparsed = parse_query(outcome.query_text)
        assert len(reparsed.where.patterns) == 1

    def test_all_suggestions_ordering(self, server):
        builder = QueryBuilder().triple(
            Variable("p"), FOAF.surname, Literal("Kennedys", lang="en")
        )
        outcome = server.run_query(builder)
        combined = outcome.all_suggestions
        assert len(combined) == len(outcome.term_suggestions) + len(outcome.relaxations)


class TestCompletionThroughServer:
    def test_complete_delegates_to_qcm(self, server):
        result = server.complete("spo")
        assert "spouse" in result.surfaces()

    def test_complete_k_override(self, server):
        assert len(server.complete("e", k=2)) <= 2
