"""SPARQL 1.1 Protocol subsystem: server behaviour, client mapping, and
the federation parity gate.

The parity gate is the acceptance bar for the network layer: a
:class:`FederatedQueryProcessor` whose members are two
:class:`HttpSparqlEndpoint` clients talking to loopback
:class:`SparqlHttpServer` instances must return *identical* rows to the
same federation built over the in-process endpoints — the protocol,
serialization, and client must be collectively invisible.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import EndpointConfig, FederatedQueryProcessor, SparqlEndpoint
from repro.endpoint.endpoint import EndpointError, EndpointTimeout, QueryRejected
from repro.net import HttpSparqlEndpoint, SparqlHttpServer
from repro.rdf import DBO, RDF_TYPE
from repro.sparql.errors import SparqlError
from repro.sparql.results import AskResult, SelectResult
from repro.store import TripleStore

WORK_CLASSES = {DBO.Book, DBO.Film, DBO.TelevisionShow, DBO.Album,
                DBO.Website, DBO.Work}

#: Queries whose joins cross the people/works endpoint boundary, plus
#: modifier-heavy shapes that exercise the mediator pipeline.
PARITY_QUERIES = [
    'SELECT ?title ?publisher WHERE { ?book dbo:author ?jk . '
    '?jk foaf:name "Jack Kerouac"@en . ?book rdfs:label ?title . '
    '?book dbo:publisher ?p . ?p rdfs:label ?publisher }',
    "SELECT ?name ?city WHERE { ?b dbo:author ?a . ?a foaf:name ?name . "
    "?a dbo:birthPlace ?c . ?c rdfs:label ?city }",
    "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY DESC(?n) ?t",
    "SELECT DISTINCT ?name WHERE { ?f dbo:starring ?p . ?p foaf:name ?name } "
    "ORDER BY ?name LIMIT 5",
    "SELECT ?name ?pages WHERE { ?b dbo:author ?a . ?a foaf:name ?name "
    "OPTIONAL { ?b dbo:numberOfPages ?pages } }",
]


def split_dataset(store):
    """People/places on one store, creative works on the other."""
    works_subjects = {
        t.subject for t in store.triples()
        if t.predicate == RDF_TYPE and t.object in WORK_CLASSES
    }
    people, works = TripleStore(), TripleStore()
    for triple in store.triples():
        (works if triple.subject in works_subjects else people).add(triple)
    return people, works


def row_key(result):
    """Order-insensitive, comparable view of a SELECT result."""
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


@pytest.fixture(scope="module")
def local_endpoints(tiny_dataset):
    people, works = split_dataset(tiny_dataset.store)
    return (
        SparqlEndpoint(people, EndpointConfig.warehouse(), name="people"),
        SparqlEndpoint(works, EndpointConfig.warehouse(), name="works"),
    )


@pytest.fixture(scope="module")
def servers(local_endpoints):
    started = [SparqlHttpServer(endpoint).start() for endpoint in local_endpoints]
    yield started
    for server in started:
        server.stop()


@pytest.fixture(scope="module")
def http_endpoints(servers):
    return [
        HttpSparqlEndpoint(server.url, name=f"http-{i}",
                           rng=random.Random(7), timeout_s=10.0)
        for i, server in enumerate(servers)
    ]


@pytest.fixture(scope="module")
def url(servers):
    return servers[0].url


def http_get(url, accept=None):
    request = urllib.request.Request(
        url, headers={"Accept": accept} if accept else {})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, dict(response.headers), response.read()


# ----------------------------------------------------------------------
# Federation parity gate
# ----------------------------------------------------------------------

class TestFederationParity:
    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_http_federation_matches_in_process(
        self, query, local_endpoints, http_endpoints
    ):
        local = FederatedQueryProcessor(list(local_endpoints))
        remote = FederatedQueryProcessor(list(http_endpoints))
        local_rows = row_key(local.select(query))
        remote_rows = row_key(remote.select(query))
        assert local_rows, f"parity query returned nothing locally: {query}"
        assert remote_rows == local_rows

    def test_ask_parity(self, local_endpoints, http_endpoints):
        queries = ['ASK { ?b dbo:author ?a }', 'ASK { ?x dbo:noSuchEdge ?y }']
        local = FederatedQueryProcessor(list(local_endpoints))
        remote = FederatedQueryProcessor(list(http_endpoints))
        for query in queries:
            assert bool(remote.ask(query)) == bool(local.ask(query))

    def test_single_http_member_gets_one_request_per_query(
        self, local_endpoints, servers, analytic_queries
    ):
        """A federation of one network member ships each query whole —
        modifiers included — as exactly one HTTP request, and the answer
        is the in-process member's, row for row."""
        local = local_endpoints[0]
        client = HttpSparqlEndpoint(servers[0].url, name="solo", timeout_s=10.0)
        federation = FederatedQueryProcessor([client])
        queries = analytic_queries + PARITY_QUERIES[2:4] + ["ASK { ?a dbo:birthPlace ?c }"]
        for query in queries:
            served_before = servers[0].app.stats.snapshot()["requests"]
            result = federation.run(query)
            assert servers[0].app.stats.snapshot()["requests"] == served_before + 1
            expected = local.ask(query) if query.startswith("ASK") else local.select(query)
            if query.startswith("ASK"):
                assert bool(result) == bool(expected)
            else:
                assert result.variables == expected.variables
                assert result.rows == expected.rows  # the member's rows, in its order
        assert client.query_count == len(queries)
        assert federation.counters.snapshot()["single_source"] == len(queries)

    def test_source_selection_over_the_wire(self, http_endpoints):
        from repro.rdf import TriplePattern, Variable

        federation = FederatedQueryProcessor(list(http_endpoints))
        pattern = TriplePattern(Variable("b"), DBO.numberOfPages, Variable("n"))
        sources = federation.relevant_sources(pattern)
        assert [s.name for s in sources] == ["http-1"]  # works endpoint only

    def test_concurrent_federated_queries(self, http_endpoints):
        """Many handler threads sharing one federation (and its source
        cache, now lock-guarded) must all see identical rows."""
        federation = FederatedQueryProcessor(list(http_endpoints))
        query = PARITY_QUERIES[1]
        expected = row_key(federation.select(query))
        results, errors = [], []

        def worker():
            try:
                results.append(row_key(federation.select(query)))
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(rows == expected for rows in results)


# ----------------------------------------------------------------------
# Protocol surface
# ----------------------------------------------------------------------

class TestProtocol:
    def test_get_query(self, url):
        query = urllib.parse.quote("SELECT ?s WHERE { ?s a dbo:Person } LIMIT 3")
        status, headers, body = http_get(f"{url}?query={query}")
        assert status == 200
        assert headers["Content-Type"].startswith("application/sparql-results+json")
        document = json.loads(body)
        assert document["head"]["vars"] == ["s"]
        assert len(document["results"]["bindings"]) == 3

    def test_post_form(self, url):
        body = urllib.parse.urlencode(
            {"query": "ASK { ?s a dbo:Person }"}).encode()
        request = urllib.request.Request(url, data=body, headers={
            "Content-Type": "application/x-www-form-urlencoded"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert json.loads(response.read())["boolean"] is True

    def test_post_sparql_query_body(self, url):
        request = urllib.request.Request(
            url, data=b"ASK { ?s a dbo:Person }",
            headers={"Content-Type": "application/sparql-query"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert json.loads(response.read())["boolean"] is True

    @pytest.mark.parametrize("accept,expected_type", [
        ("application/sparql-results+xml", "application/sparql-results+xml"),
        ("text/csv", "text/csv"),
        ("text/tab-separated-values", "text/tab-separated-values"),
    ])
    def test_content_negotiation(self, url, accept, expected_type):
        query = urllib.parse.quote("SELECT ?s WHERE { ?s a dbo:Person } LIMIT 1")
        status, headers, _ = http_get(f"{url}?query={query}", accept=accept)
        assert status == 200
        assert headers["Content-Type"].startswith(expected_type)

    @pytest.mark.parametrize("query, bindings", [
        # FILTER drops the row, a projection leaves the cell unbound.
        ("SELECT ?s WHERE { ?s foaf:name ?n FILTER(%s * 1.5 > 1) }", []),
        ("SELECT ((%s / 3.0) AS ?x) WHERE { ?s foaf:name ?n } LIMIT 2", [{}, {}]),
    ])
    def test_integer_too_large_for_a_double_is_not_a_500(self, url, query, bindings):
        """``OverflowError: int too large to convert to float`` used to
        escape the expression evaluator as a 500."""
        text = urllib.parse.quote(query % ("9" * 400))
        status, _, body = http_get(f"{url}?query={text}")
        assert status == 200
        assert json.loads(body)["results"]["bindings"] == bindings

    def test_root_path_is_endpoint_alias(self, servers):
        base = f"http://{servers[0].host}:{servers[0].port}/"
        query = urllib.parse.quote("ASK { ?s a dbo:Person }")
        status, _, body = http_get(f"{base}?query={query}")
        assert status == 200 and json.loads(body)["boolean"] is True

    def test_health(self, servers):
        status, _, body = http_get(
            f"http://{servers[0].host}:{servers[0].port}/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_stats_counts_requests(self, servers):
        server = servers[0]
        before = server.stats.snapshot()
        query = urllib.parse.quote("SELECT ?s WHERE { ?s a dbo:Person } LIMIT 2")
        http_get(f"{server.url}?query={query}")
        after = server.stats.snapshot()
        assert after["requests"] == before["requests"] + 1
        assert after["ok"] == before["ok"] + 1
        assert after["rows_served"] == before["rows_served"] + 2

    def test_stats_endpoint_serves_json(self, servers):
        status, _, body = http_get(
            f"http://{servers[0].host}:{servers[0].port}/stats")
        document = json.loads(body)
        assert status == 200
        assert {"requests", "ok", "rejected", "timeouts", "rows_served",
                "latency_p50_ms", "latency_p99_ms"} <= set(document)

    # -- error paths ---------------------------------------------------

    def expect_http_error(self, request):
        """The status and body of an error response, its socket closed."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        with excinfo.value as error:
            return error.code, error.read()

    def test_missing_query_is_400(self, url):
        code, body = self.expect_http_error(urllib.request.Request(url))
        assert code == 400
        assert "query" in json.loads(body)["error"]["message"]

    def test_parse_error_is_400(self, url):
        query = urllib.parse.quote("SELECT WHERE garbage {{{")
        code, _ = self.expect_http_error(
            urllib.request.Request(f"{url}?query={query}"))
        assert code == 400

    @pytest.mark.parametrize("text, name", [
        ("SELECT * WHERE { ?s ?p ?o FILTER(isliteral()) } LIMIT 3", "ISLITERAL"),
        ("SELECT * WHERE { ?s ?p ?o FILTER(contains(?o)) } LIMIT 3", "CONTAINS"),
        ("SELECT * WHERE { ?s ?p ?o FILTER(strlen() > 2) } LIMIT 3", "STRLEN"),
        ("SELECT (strlen() AS ?n) WHERE { ?s ?p ?o } LIMIT 3", "STRLEN"),
    ])
    def test_wrong_arity_is_400_not_500(self, url, text, name):
        code, body = self.expect_http_error(
            urllib.request.Request(f"{url}?query={urllib.parse.quote(text)}"))
        assert code == 400
        assert name in json.loads(body)["error"]["message"]

    def test_every_function_off_its_arity_is_400(self, url):
        from repro.sparql.functions import FUNCTIONS

        for name, signature in FUNCTIONS.items():
            for n_args in (signature.min_args - 1, signature.max_args + 1):
                text = "SELECT * WHERE { ?s ?p ?o FILTER(%s(%s)) } LIMIT 3" % (
                    name, ", ".join(["?o"] * n_args))
                code, body = self.expect_http_error(
                    urllib.request.Request(f"{url}?query={urllib.parse.quote(text)}"))
                assert code == 400, text
                message = json.loads(body)["error"]["message"]
                assert name in message and f"got {n_args}" in message

    def test_unknown_path_is_404(self, servers):
        code, _ = self.expect_http_error(urllib.request.Request(
            f"http://{servers[0].host}:{servers[0].port}/nope"))
        assert code == 404

    def test_unacceptable_accept_is_406(self, url):
        query = urllib.parse.quote("ASK { ?s ?p ?o }")
        code, _ = self.expect_http_error(urllib.request.Request(
            f"{url}?query={query}", headers={"Accept": "text/html"}))
        assert code == 406

    def test_bad_content_type_is_415(self, url):
        code, _ = self.expect_http_error(urllib.request.Request(
            url, data=b"{}", headers={"Content-Type": "application/json"}))
        assert code == 415

    def test_non_utf8_body_is_400(self, url):
        code, body = self.expect_http_error(urllib.request.Request(
            url, data=b"\xff\xfe\xfa",
            headers={"Content-Type": "application/sparql-query"}))
        assert code == 400
        assert "UTF-8" in json.loads(body)["error"]["message"]

    def test_oversized_body_is_413_without_buffering(self, servers):
        """A huge Content-Length is refused before the body is read."""
        app = servers[0].app
        huge = app.max_query_bytes + 1
        code, _ = self.expect_http_error(urllib.request.Request(
            servers[0].url, data=b"x" * huge,
            headers={"Content-Type": "application/sparql-query"}))
        assert code == 413

    def test_multi_megabyte_body_still_receives_the_413(self, servers):
        """The server drains what the client is sending, so the 413
        arrives instead of a broken pipe (which the client would retry)."""
        code, _ = self.expect_http_error(urllib.request.Request(
            servers[0].url, data=b"x" * (5 * 1024 * 1024),
            headers={"Content-Type": "application/sparql-query"}))
        assert code == 413

    def test_413_is_not_retried_by_the_client(self, servers):
        client = HttpSparqlEndpoint(servers[0].url, max_retries=3,
                                    backoff_s=0.01, timeout_s=10.0)
        before = servers[0].stats.snapshot()["requests"]
        with pytest.raises(EndpointError, match="413"):
            client.select("SELECT * WHERE { ?s ?p ?o } #" + "x" * (300 * 1024))
        assert servers[0].stats.snapshot()["requests"] == before + 1


# ----------------------------------------------------------------------
# The query route across storage backends
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def backend_server(request, tiny_dataset):
    from repro.store.sqlite_backend import SQLiteBackend

    if request.param == "sqlite":
        store = TripleStore(backend=SQLiteBackend(":memory:"))
        store.add_all(tiny_dataset.store.triples())
    else:
        store = tiny_dataset.store
    endpoint = SparqlEndpoint(
        store, EndpointConfig.warehouse(), name=request.param)
    with SparqlHttpServer(endpoint) as server:
        yield request.param, server
    if request.param == "sqlite":
        store.close()


class TestSparqlRouteAcrossBackends:
    """The wire behaviour of ``/sparql`` is backend-invariant, and the
    per-route ``/stats`` counters book each request identically."""

    QUERY = "SELECT ?s WHERE { ?s a dbo:Person } ORDER BY ?s LIMIT 5"

    def test_route_serves_and_books_identically(self, backend_server, tiny_dataset):
        backend, server = backend_server
        before = server.stats.snapshot()["routes"].get("sparql", {})
        status, _, body = http_get(
            f"{server.url}?query={urllib.parse.quote(self.QUERY)}")
        assert status == 200, backend
        bindings = json.loads(body)["results"]["bindings"]
        # Deterministic ORDER BY: both backends must serve these rows.
        expected = SparqlEndpoint(
            tiny_dataset.store, EndpointConfig.warehouse()
        ).select(self.QUERY).rows
        assert [b["s"]["value"] for b in bindings] == \
            [row["s"].value for row in expected]
        after = server.stats.snapshot()["routes"]["sparql"]
        assert after["requests"] == before.get("requests", 0) + 1
        assert after["ok"] == before.get("ok", 0) + 1
        assert after["rows_served"] == before.get("rows_served", 0) + 5


# ----------------------------------------------------------------------
# Admission control and failure mapping
# ----------------------------------------------------------------------

class _StubBackend:
    """Endpoint-shaped stub whose behaviour is a callable."""

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def run(self, query, tracer=None):
        return self.behaviour(query)


class TestAdmissionAndErrors:
    def test_overload_returns_503_and_client_maps_rejection(self):
        release = threading.Event()
        entered = threading.Event()

        def slow(query):
            entered.set()
            release.wait(timeout=10.0)
            return SelectResult(variables=["s"], rows=[])

        with SparqlHttpServer(_StubBackend(slow), max_workers=1,
                              queue_limit=0, deadline_s=5.0) as server:
            blocker = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            background = threading.Thread(
                target=lambda: blocker.select("SELECT * WHERE { ?s ?p ?o }"))
            background.start()
            try:
                assert entered.wait(timeout=5.0)
                client = HttpSparqlEndpoint(server.url, max_retries=1,
                                            backoff_s=0.01, timeout_s=10.0,
                                            rng=random.Random(3))
                with pytest.raises(QueryRejected):
                    client.select("SELECT * WHERE { ?s ?p ?o }")
                # 1 initial + 1 retry, both rejected.
                assert server.stats.snapshot()["rejected"] == 2
                assert [e.outcome for e in client.log] == ["rejected"]
            finally:
                release.set()
                background.join(timeout=10.0)
            assert server.stats.snapshot()["ok"] == 1

    @pytest.mark.parametrize("queue_limit, message", [
        (4, "past the 0.20s deadline"),
        (0, "worker pool and queue are full"),
    ])
    def test_503_says_why_the_request_was_refused(self, queue_limit, message):
        """A request that waited out its deadline in a queue with room is
        told so; only a full queue is reported as full."""
        release = threading.Event()
        entered = threading.Event()

        def slow(query):
            entered.set()
            release.wait(timeout=1.0)
            return SelectResult(variables=["s"], rows=[])

        with SparqlHttpServer(_StubBackend(slow), max_workers=1,
                              queue_limit=queue_limit, deadline_s=0.2) as server:
            blocker = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            background = threading.Thread(
                target=lambda: blocker.select("SELECT * WHERE { ?s ?p ?o }"))
            background.start()
            try:
                assert entered.wait(timeout=5.0)
                request = urllib.request.Request(
                    server.url + "?" + urllib.parse.urlencode(
                        {"query": "SELECT * WHERE { ?s ?p ?o }"}))
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request, timeout=10.0)
                with refused.value as error:
                    assert error.code == 503
                    body = json.loads(error.read().decode("utf-8"))
                assert message in body["error"]["message"]
            finally:
                release.set()
                background.join(timeout=10.0)

    def test_backend_timeout_maps_to_504_and_endpoint_timeout(self):
        def timing_out(query):
            raise EndpointTimeout("stub: query exceeded 2.0s")

        with SparqlHttpServer(_StubBackend(timing_out),
                              deadline_s=5.0) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            with pytest.raises(EndpointTimeout):
                client.select("SELECT * WHERE { ?s ?p ?o }")
            assert server.stats.snapshot()["timeouts"] == 1
            assert client.timeout_count == 1

    def test_client_retries_503_then_succeeds(self):
        calls = {"n": 0}

        def flaky(query):
            calls["n"] += 1
            if calls["n"] == 1:
                raise QueryRejected("stub: try again")
            return AskResult(True)

        with SparqlHttpServer(_StubBackend(flaky), deadline_s=5.0) as server:
            client = HttpSparqlEndpoint(server.url, max_retries=2,
                                        backoff_s=0.01, timeout_s=10.0,
                                        rng=random.Random(5))
            assert client.ask("ASK { ?s ?p ?o }").value is True
        assert calls["n"] == 2
        assert [e.outcome for e in client.log] == ["ok"]

    def test_backend_crash_is_500(self):
        def broken(query):
            raise RuntimeError("index corrupted")

        with SparqlHttpServer(_StubBackend(broken), deadline_s=5.0) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            with pytest.raises(EndpointError, match="HTTP 500"):
                client.ask("ASK { ?s ?p ?o }")
            assert server.stats.snapshot()["server_errors"] == 1

    def test_unserializable_backend_result_is_500(self):
        """A backend returning garbage still yields a JSON 500 (and a
        stats record), never a crashed handler thread."""
        def garbage(query):
            return object()

        with SparqlHttpServer(_StubBackend(garbage), deadline_s=5.0) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            with pytest.raises(EndpointError, match="HTTP 500"):
                client.ask("ASK { ?s ?p ?o }")
            assert server.stats.snapshot()["server_errors"] == 1
            assert server.stats.snapshot()["requests"] == 1

    def test_malformed_results_document_maps_to_endpoint_error(self):
        """A 200 whose document is JSON but not a results document is the
        endpoint's failure, not a TypeError in the caller."""
        import http.server

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = b'{"head": {"vars": ["s"]}, "results": {"bindings": null}}'
                self.send_response(200)
                self.send_header("Content-Type", "application/sparql-results+json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpSparqlEndpoint(
                f"http://127.0.0.1:{stub.server_address[1]}/sparql",
                timeout_s=10.0, max_retries=0)
            with pytest.raises(EndpointError, match="unparseable response"):
                client.select("SELECT ?s WHERE { ?s ?p ?o }")
            assert [e.outcome for e in client.log] == ["error"]
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_client_bad_query_maps_to_sparql_error(self, url):
        client = HttpSparqlEndpoint(url, timeout_s=10.0)
        with pytest.raises(SparqlError):
            client.select("SELECT WHERE {{{ nope")

    def test_connection_refused_maps_to_endpoint_error(self):
        client = HttpSparqlEndpoint("http://127.0.0.1:1/sparql",
                                    max_retries=0, timeout_s=1.0)
        with pytest.raises(EndpointError):
            client.ask("ASK { ?s ?p ?o }")
        assert [e.outcome for e in client.log] == ["error"]

    def test_client_socket_timeout_is_endpoint_timeout_not_retried(self):
        release = threading.Event()
        calls = {"n": 0}

        def slow(query):
            calls["n"] += 1
            release.wait(timeout=30.0)
            return SelectResult(variables=["s"], rows=[])

        with SparqlHttpServer(_StubBackend(slow), deadline_s=30.0) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=0.3,
                                        max_retries=3, backoff_s=0.01)
            try:
                with pytest.raises(EndpointTimeout):
                    client.select("SELECT * WHERE { ?s ?p ?o }")
                # Not retried: a retrying client would have re-posted the
                # query (and timed out) max_retries more times by now.
                assert calls["n"] == 1
                assert [e.outcome for e in client.log] == ["timeout"]
            finally:
                release.set()

    def test_row_cap_truncation_survives_the_wire(self, tiny_dataset):
        endpoint = SparqlEndpoint(
            tiny_dataset.store,
            EndpointConfig(timeout_s=30.0, max_rows=3),
            name="capped",
        )
        direct = endpoint.select("SELECT ?s ?p ?o WHERE { ?s ?p ?o } ")
        assert direct.truncated
        with SparqlHttpServer(endpoint) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            remote = client.select("SELECT ?s ?p ?o WHERE { ?s ?p ?o } ")
            assert remote.truncated
            assert len(remote.rows) == 3
            assert client.log[-1].truncated

    def test_select_on_ask_result_raises(self, url):
        client = HttpSparqlEndpoint(url, timeout_s=10.0)
        with pytest.raises(SparqlError):
            client.select("ASK { ?s ?p ?o }")
        with pytest.raises(SparqlError):
            client.ask("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")


class _StubSapphire:
    """Sapphire-shaped stub: has the PUM surface, behaviour injectable."""

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def complete(self, text, k=None, tracer=None, boost_surfaces=None):
        return self.behaviour(text)

    def run_query(self, query, suggest=True, tracer=None):
        return self.behaviour(query)


class TestSuggestionRouteAdmission:
    def test_complete_respects_admission_control(self):
        """/complete occupies a worker slot like a query: with the pool
        full and no queue, a concurrent call gets the same 503."""
        from repro.core.qcm import CompletionResult
        from repro.net import HttpSapphireClient

        release = threading.Event()
        entered = threading.Event()

        def slow(text):
            entered.set()
            release.wait(timeout=10.0)
            return CompletionResult(term=text)

        with SparqlHttpServer(_StubSapphire(slow), max_workers=1,
                              queue_limit=0, deadline_s=5.0) as server:
            blocker = HttpSapphireClient(server.url, timeout_s=10.0)
            background = threading.Thread(target=lambda: blocker.complete("Kenn"))
            background.start()
            try:
                assert entered.wait(timeout=5.0)
                client = HttpSapphireClient(server.url, max_retries=0,
                                            timeout_s=10.0)
                with pytest.raises(QueryRejected):
                    client.complete("spou")
                assert server.stats.snapshot()["rejected"] == 1
            finally:
                release.set()
                background.join(timeout=10.0)
            assert server.stats.snapshot()["ok"] == 1

    def test_suggest_maps_backend_timeout_to_504(self):
        from repro.net import HttpSapphireClient

        def timing_out(query):
            raise EndpointTimeout("stub: QSM round exceeded the budget")

        with SparqlHttpServer(_StubSapphire(timing_out),
                              deadline_s=5.0) as server:
            client = HttpSapphireClient(server.url, timeout_s=10.0)
            with pytest.raises(EndpointTimeout):
                client.suggest("SELECT * WHERE { ?s ?p ?o }")
            assert server.stats.snapshot()["timeouts"] == 1


class TestStats:
    def test_fragment_builds_stop_growing_on_a_repeated_query(self, servers):
        from repro.net import fetch_stats, formats

        formats._FRAGMENTS.clear()
        client = HttpSparqlEndpoint(servers[0].url, timeout_s=10.0)
        query = "SELECT ?s ?n WHERE { ?s foaf:surname ?n } LIMIT 25"
        cold = fetch_stats(servers[0].url)["formats"]
        rows = client.select(query).rows
        first = fetch_stats(servers[0].url)["formats"]
        assert client.select(query).rows == rows
        second = fetch_stats(servers[0].url)["formats"]
        distinct = len({term for row in rows for term in row.values()})
        assert first["fragment_builds"] - cold["fragment_builds"] == distinct
        assert first["fragment_entries"] == distinct
        assert second == first

    def test_keep_alive_reuses_one_connection(self, servers):
        import http.client

        connection = http.client.HTTPConnection(
            servers[0].host, servers[0].port, timeout=10.0)
        try:
            query = urllib.parse.quote("ASK { ?s a dbo:Person }")
            for _ in range(3):  # raises if the server closed the socket
                connection.request("GET", f"/sparql?query={query}")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["boolean"] is True
        finally:
            connection.close()

    def test_rejects_do_not_pollute_latency_percentiles(self):
        """Microsecond 503 rejects must not collapse p50 toward zero.

        The histogram buckets grow ~12% per step, so the percentile is a
        bucket-geomean estimate — assert within the ±~6% bucket error,
        not exact equality.
        """
        from repro.net.wsgi import ServerStats

        stats = ServerStats()
        stats.record(200, 0.100, rows=1)
        for _ in range(50):
            stats.record(503, 0.0001)
        snapshot = stats.snapshot()
        assert snapshot["rejected"] == 50
        assert snapshot["latency_p50_ms"] == pytest.approx(100.0, rel=0.07)
        assert snapshot["latency_p99_ms"] == pytest.approx(100.0, rel=0.07)

    def test_percentiles_survive_mixed_traffic_per_route(self):
        """Heavy reject traffic on one route must not drag another
        route's latency percentiles — and the aggregate percentile only
        covers served (200) requests."""
        from repro.net.wsgi import ServerStats

        stats = ServerStats()
        # 100 healthy ~100ms queries...
        for _ in range(100):
            stats.record(200, 0.100, rows=1, route="sparql")
        # ...drowned by 1000 microsecond rejects on /complete.
        for _ in range(1000):
            stats.record(503, 0.000002, route="complete")
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 1100
        assert snapshot["rejected"] == 1000
        assert snapshot["latency_p50_ms"] == pytest.approx(100.0, rel=0.07)
        routes = snapshot["routes"]
        assert routes["sparql"]["latency"]["p50_ms"] == pytest.approx(100.0, rel=0.07)
        # The reject route served nothing: empty histogram, zero p50.
        assert routes["complete"]["latency"]["count"] == 0
        assert routes["complete"]["latency"]["p50_ms"] == 0.0
        assert routes["complete"]["rejected"] == 1000

    def test_deadline_inferred_from_federation_members(self, tiny_dataset):
        from repro.net.wsgi import SparqlWsgiApp

        members = [
            SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=1.0)),
            SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=2.5)),
        ]
        app = SparqlWsgiApp(FederatedQueryProcessor(members))
        # The largest member budget: a federated query fans out into
        # several sub-queries, so one member's timeout is only a floor.
        assert app.deadline_s == 2.5


class TestServerLifecycle:
    def test_context_manager_releases_port(self, local_endpoints):
        with SparqlHttpServer(local_endpoints[0]) as server:
            port = server.port
            assert port > 0
        # The port is free again: a new server can bind it immediately.
        second = SparqlHttpServer(local_endpoints[0], port=port)
        second.start()
        second.stop()

    def test_stop_without_start(self, local_endpoints):
        server = SparqlHttpServer(local_endpoints[0])
        server.stop()  # must not hang or raise

    def test_start_after_stop_rejected(self, local_endpoints):
        """The socket is gone after stop(); a restart on it would serve
        nothing while looking alive."""
        server = SparqlHttpServer(local_endpoints[0])
        server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="closed"):
            server.start()

    def test_double_start_rejected(self, local_endpoints):
        with SparqlHttpServer(local_endpoints[0]) as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_deadline_defaults_from_endpoint_config(self, tiny_dataset):
        endpoint = SparqlEndpoint(tiny_dataset.store,
                                  EndpointConfig(timeout_s=1.5))
        server = SparqlHttpServer(endpoint)
        assert server.app.deadline_s == 1.5
        server.stop()

    def test_warehouse_config_means_no_deadline(self, tiny_dataset):
        endpoint = SparqlEndpoint(tiny_dataset.store,
                                  EndpointConfig.warehouse())
        server = SparqlHttpServer(endpoint)
        assert server.app.deadline_s is None
        server.stop()
