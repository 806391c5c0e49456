"""Unit tests for the endpoint simulator."""

import pytest

from repro.endpoint import (
    EndpointConfig,
    EndpointTimeout,
    QueryRejected,
    SparqlEndpoint,
)
from repro.endpoint.endpoint import QUERY_LOG_SIZE
from repro.rdf import DBO, DBR, Literal, RDF_TYPE, Triple
from repro.store import TripleStore


@pytest.fixture
def big_store():
    store = TripleStore()
    for i in range(2000):
        entity = DBR.term(f"E{i}")
        store.add(Triple(entity, RDF_TYPE, DBO.Thing))
        store.add(Triple(entity, DBO.value, Literal(str(i))))
    return store


class TestExecution:
    def test_select_works(self, big_store):
        endpoint = SparqlEndpoint(big_store, EndpointConfig.warehouse())
        result = endpoint.select("SELECT (COUNT(*) AS ?n) { ?s ?p ?o }")
        assert result.rows[0]["n"].lexical == "4000"

    def test_ask_works(self, big_store):
        endpoint = SparqlEndpoint(big_store, EndpointConfig.warehouse())
        assert endpoint.ask("ASK { ?s a dbo:Thing }")

    def test_select_on_ask_query_raises(self, big_store):
        endpoint = SparqlEndpoint(big_store, EndpointConfig.warehouse())
        from repro.sparql import SparqlError

        with pytest.raises(SparqlError):
            endpoint.select("ASK { ?s ?p ?o }")


class TestTimeout:
    def test_small_budget_times_out(self, big_store):
        config = EndpointConfig(timeout_s=0.01, cost_units_per_second=1000)
        endpoint = SparqlEndpoint(big_store, config)
        with pytest.raises(EndpointTimeout):
            endpoint.select("SELECT * { ?s ?p ?o }")

    def test_selective_query_fits_budget(self, big_store):
        config = EndpointConfig(timeout_s=0.01, cost_units_per_second=1000)
        endpoint = SparqlEndpoint(big_store, config)
        result = endpoint.select('SELECT ?o { <http://dbpedia.org/resource/E5> dbo:value ?o }')
        assert len(result) == 1

    def test_pagination_avoids_timeout_like_appendix_a(self, big_store):
        """LIMIT/OFFSET decomposition is what keeps Q7 under the timeout —
        the simulator must reproduce that property for the same query."""
        config = EndpointConfig(timeout_s=0.2, cost_units_per_second=20_000)
        endpoint = SparqlEndpoint(big_store, config)
        seen = 0
        offset = 0
        while True:
            result = endpoint.select(
                f"SELECT ?o {{ ?s dbo:value ?o }} LIMIT 500 OFFSET {offset}"
            )
            seen += len(result)
            if len(result) < 500:
                break
            offset += 500
        assert seen == 2000

    def test_timeout_is_logged(self, big_store):
        config = EndpointConfig(timeout_s=0.01, cost_units_per_second=1000)
        endpoint = SparqlEndpoint(big_store, config)
        with pytest.raises(EndpointTimeout):
            endpoint.select("SELECT * { ?s ?p ?o }")
        assert endpoint.timeout_count == 1
        assert endpoint.log[-1].outcome == "timeout"


class TestRejection:
    def test_reject_threshold(self, big_store):
        config = EndpointConfig(reject_threshold=100)
        endpoint = SparqlEndpoint(big_store, config)
        with pytest.raises(QueryRejected):
            endpoint.select("SELECT * { ?s ?p ?o }")
        assert endpoint.log[-1].outcome == "rejected"

    def test_selective_query_admitted(self, big_store):
        config = EndpointConfig(reject_threshold=100)
        endpoint = SparqlEndpoint(big_store, config)
        result = endpoint.select("SELECT ?o { <http://dbpedia.org/resource/E5> dbo:value ?o }")
        assert len(result) == 1


class TestRowCapAndLog:
    def test_row_cap_truncates(self, big_store):
        config = EndpointConfig.warehouse()
        capped = EndpointConfig(
            timeout_s=config.timeout_s,
            cost_units_per_second=config.cost_units_per_second,
            max_rows=10,
            latency_s=0.0,
        )
        endpoint = SparqlEndpoint(big_store, capped)
        result = endpoint.select("SELECT ?o { ?s dbo:value ?o }")
        assert len(result) == 10
        assert result.truncated
        assert endpoint.log[-1].truncated

    def test_query_count_and_reset(self, big_store):
        endpoint = SparqlEndpoint(big_store, EndpointConfig.warehouse())
        endpoint.ask("ASK { ?s ?p ?o }")
        endpoint.ask("ASK { ?s ?p ?o }")
        assert endpoint.query_count == 2
        endpoint.reset_log()
        assert endpoint.query_count == 0
        assert endpoint.simulated_seconds == 0.0

    def test_log_keeps_recent_queries_and_exact_counts(self, big_store):
        """A serving endpoint answers forever: the log holds the last
        ``QUERY_LOG_SIZE`` queries, the counts every one of them."""
        from repro.sparql.parser import parse_query

        config = EndpointConfig(timeout_s=0.01, cost_units_per_second=1000)
        endpoint = SparqlEndpoint(big_store, config)
        fits = parse_query("SELECT ?o { <http://dbpedia.org/resource/E5> dbo:value ?o }")
        too_big = parse_query("SELECT * { ?s ?p ?o }")
        for n in range(2 * QUERY_LOG_SIZE):
            if n % 4:
                endpoint.select(fits)
            else:
                with pytest.raises(EndpointTimeout):
                    endpoint.select(too_big)
        assert len(endpoint.log) == QUERY_LOG_SIZE
        assert endpoint.query_count == 2 * QUERY_LOG_SIZE
        assert endpoint.timeout_count == QUERY_LOG_SIZE // 2
        assert endpoint.log[0].outcome == "timeout" and endpoint.log[-1].outcome == "ok"
        endpoint.reset_log()
        assert (len(endpoint.log), endpoint.query_count, endpoint.timeout_count) == (0, 0, 0)

    def test_wire_client_log_is_bounded_too(self):
        import time

        from repro.net.client import HttpSparqlEndpoint

        client = HttpSparqlEndpoint("http://127.0.0.1:9/sparql")
        for n in range(2 * QUERY_LOG_SIZE):
            client._record("ASK {}", "timeout" if n % 2 else "ok", time.perf_counter())
        assert len(client.log) == QUERY_LOG_SIZE
        assert (client.query_count, client.timeout_count) == (2 * QUERY_LOG_SIZE, QUERY_LOG_SIZE)
        client.reset_log()
        assert (len(client.log), client.query_count, client.timeout_count) == (0, 0, 0)

    def test_latency_accumulates(self, big_store):
        config = EndpointConfig(latency_s=0.5, timeout_s=10.0)
        endpoint = SparqlEndpoint(big_store, config)
        endpoint.ask("ASK { ?s a dbo:Thing }")
        endpoint.ask("ASK { ?s a dbo:Thing }")
        assert endpoint.simulated_seconds >= 1.0

    def test_warehouse_has_no_limits(self):
        config = EndpointConfig.warehouse()
        assert config.cost_budget is None
        assert config.max_rows is None
        assert config.latency_s == 0.0
