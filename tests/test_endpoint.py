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
        from repro.net.client import HttpSparqlEndpoint

        client = HttpSparqlEndpoint("http://127.0.0.1:9/sparql")
        for n in range(2 * QUERY_LOG_SIZE):
            client._record("ASK {}", "timeout" if n % 2 else "ok", 0, 0.0)
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


def _warehouse_endpoint(store):
    return SparqlEndpoint(store, EndpointConfig.warehouse())


@pytest.fixture(params=["memory", "federation", "http"])
def service(request, big_store):
    """One backend behind the ``QueryService`` face, and the query log
    that counts its runs (a one-member federation ships each query
    whole, so its member's log does)."""
    from repro.federation import FederatedQueryProcessor
    from repro.net import HttpSparqlEndpoint, SparqlHttpServer

    if request.param == "memory":
        endpoint = _warehouse_endpoint(big_store)
        yield endpoint, endpoint
    elif request.param == "federation":
        member = _warehouse_endpoint(big_store)
        yield FederatedQueryProcessor([member]), member
    else:
        with SparqlHttpServer(_warehouse_endpoint(big_store)) as server:
            client = HttpSparqlEndpoint(server.url)
            yield client, client


class TestOneFaceThreeBackends:
    """``select`` / ``ask`` / ``explain`` / ``analyze`` are written once
    (``QueryService``): every backend answers them alike."""

    SELECT = "SELECT ?s ?o { ?s a dbo:Thing . ?s dbo:value ?o } ORDER BY ?o LIMIT 3"

    def test_select_and_ask_give_the_same_answers(self, service, big_store):
        backend, _ = service
        reference = _warehouse_endpoint(big_store)
        assert backend.select(self.SELECT).rows == reference.select(self.SELECT).rows
        assert len(backend.select(self.SELECT)) == 3
        assert backend.ask("ASK { ?s a dbo:Thing }").value is True
        assert backend.ask("ASK { ?s a dbo:Nothing }").value is False

    def test_explain_prints_operators_and_analyze_appends_a_trace(self, service):
        backend, _ = service
        plan = backend.explain(self.SELECT)
        assert "HashJoin(on ?s)" in plan and "Scan(" in plan
        assert "\ntrace " not in plan
        analyzed = backend.explain(self.SELECT, analyze=True)
        head, _, trace = analyzed.partition("\n\ntrace ")
        assert head == plan
        assert "HashJoin(on ?s)" in trace and "rows=2000" in trace

    def test_analyze_returns_the_result_and_its_trace(self, service):
        backend, _ = service
        result, trace = backend.analyze(self.SELECT)
        assert len(result) == 3
        assert trace.wall_ms >= 0.0

    def test_query_count_is_one_per_run(self, service):
        backend, log = service
        log.reset_log()
        backend.select(self.SELECT)
        backend.ask("ASK { ?s a dbo:Thing }")
        assert log.query_count == len(log.log) == 2
        assert [entry.outcome for entry in log.log] == ["ok", "ok"]
        assert log.log[0].rows == 3
        backend.explain(self.SELECT)  # plans run nothing
        assert log.query_count == 2


class TestWrongFormRunsNothing:
    """A query of the other form is refused before it runs: no cost, no
    log entry, one message on every backend."""

    @pytest.mark.parametrize("method, text", [
        ("select", "ASK { ?s ?p ?o }"),
        ("ask", "SELECT ?s { ?s ?p ?o }"),
    ])
    @pytest.mark.parametrize("parsed", [False, True], ids=["text", "parsed"])
    def test_in_process_backends(self, big_store, method, text, parsed):
        from repro.federation import FederatedQueryProcessor
        from repro.sparql import SparqlError
        from repro.sparql.parser import parse_query

        query = parse_query(text) if parsed else text
        expected = "expected a SELECT" if method == "select" else "expected an ASK"
        endpoint = _warehouse_endpoint(big_store)
        with pytest.raises(SparqlError, match=expected):
            getattr(endpoint, method)(query)
        assert endpoint.query_count == 0 and not endpoint.log
        assert endpoint.simulated_seconds == 0.0

        member = _warehouse_endpoint(big_store)
        federation = FederatedQueryProcessor([member])
        with pytest.raises(SparqlError, match=expected):
            getattr(federation, method)(query)
        assert federation.counters.snapshot()["queries"] == 0
        assert member.query_count == 0 and not member.log

    def test_text_of_the_right_form_is_logged_as_written(self, big_store):
        endpoint = _warehouse_endpoint(big_store)
        endpoint.ask("ASK { ?s a dbo:Thing }")
        assert [entry.query for entry in endpoint.log] == ["ASK { ?s a dbo:Thing }"]

    def test_wire_client_refuses_parsed_before_sending(self, big_store):
        from repro.net import HttpSparqlEndpoint, SparqlHttpServer
        from repro.sparql import SparqlError
        from repro.sparql.parser import parse_query

        served = _warehouse_endpoint(big_store)
        with SparqlHttpServer(served) as server:
            client = HttpSparqlEndpoint(server.url)
            with pytest.raises(SparqlError, match="expected a SELECT"):
                client.select(parse_query("ASK { ?s ?p ?o }"))
            assert client.query_count == served.query_count == 0
            # Text is never parsed client-side: it is checked by what
            # comes back, and logged under its own text.
            with pytest.raises(SparqlError, match="expected a SELECT"):
                client.select("ASK { ?s ?p ?o }")
            assert [entry.query for entry in client.log] == ["ASK { ?s ?p ?o }"]
