"""Persistent connections end to end (docs/server.md, *Connections*).

The wire clients share one process-wide pool of keep-alive connections
and the server keeps a registry of the connections it holds.  These
tests pin the lifecycle on both sides of the socket: reuse, the one
write per response, recycling after ``RESPONSES_PER_CONNECTION``, the
idle timeout and the single re-send it costs a client, what ``stop()``
and the pre-fork drain do to idle and in-flight connections, and the
failure mapping that must not have moved (``ConnectionFailed`` still
means "never reached the server").
"""

from __future__ import annotations

import http.client
import http.server
import json
import shutil
import socket
import ssl
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse

import pytest

from repro import EndpointConfig, SparqlEndpoint
from repro.endpoint.endpoint import EndpointTimeout
from repro.eval.replay import ReplayLedger, reconcile
from repro.net import (
    ConnectionFailed,
    HttpSapphireClient,
    HttpSparqlEndpoint,
    PreforkServer,
    SparqlHttpServer,
    build_backend_from_spec,
    fetch_stats,
    merge_stats_bodies,
    prepare_snapshots,
)
from repro.net import client as client_module
from repro.net import server as server_module
from repro.net.server import RESPONSES_PER_CONNECTION
from repro.sparql.results import AskResult

ASK = "ASK { ?s a dbo:Person }"


@pytest.fixture()
def local_endpoint(tiny_dataset):
    """A fresh endpoint per test, not the session-wide one."""
    return SparqlEndpoint(tiny_dataset.store, EndpointConfig.warehouse(),
                          name="connections")


class _Stalling:
    """Endpoint-shaped backend whose every entry waits on ``release``."""

    def __init__(self):
        self.release = threading.Event()

    def _wait(self):
        self.release.wait(timeout=30.0)
        return AskResult(True)

    def run(self, query, tracer=None):
        return self._wait()

    def explain(self, query):
        self._wait()
        return "Plan"


class _RawClient:
    """A keep-alive HTTP/1.1 client on a bare socket: no TCP_NODELAY of
    its own, one ``sendall`` per request — what a browser looks like to
    the server."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.file = self.sock.makefile("rb")

    def send(self, method, path, body=b"", headers=()):
        head = [f"{method} {path} HTTP/1.1", "Host: test"]
        if not any(name.lower() == "content-length" for name, _ in headers):
            head.append(f"Content-Length: {len(body)}")
        head += [f"{name}: {value}" for name, value in headers]
        self.sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)

    def read_response(self):
        """``(status, headers, body)``, or None at end of stream."""
        status_line = self.file.readline()
        if not status_line:
            return None
        headers = {}
        while True:
            line = self.file.readline().strip()
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        body = self.file.read(int(headers.get("content-length", 0)))
        return int(status_line.split()[1]), headers, body

    def close(self):
        self.file.close()
        self.sock.close()


def _complete_body(text="Kenn"):
    return json.dumps({"text": text, "k": 5}).encode("utf-8")


JSON_BODY = (("Content-Type", "application/json"),)
FORM_BODY = (("Content-Type", "application/x-www-form-urlencoded"),)


class TestReuse:
    def test_sequential_calls_share_one_connection(self, server):
        with SparqlHttpServer(server) as http_server:
            pum = HttpSapphireClient(http_server.url, session="s1", timeout_s=10.0)
            other = HttpSapphireClient(http_server.url, session="s2", timeout_s=10.0)
            sparql = HttpSparqlEndpoint(http_server.url, timeout_s=10.0)
            for _ in range(5):
                pum.complete("Kenn", 5)
                other.complete("spou", 5)
                assert sparql.ask(ASK).value is True
                fetch_stats(http_server.url)
            sparql.explain(ASK)
            connections = fetch_stats(http_server.url)["connections"]
        assert connections["accepted"] == 1
        assert connections["open"] == 1
        assert connections["requests"] == 22
        assert connections["recycled"] == connections["idle_closed"] == 0

    def test_raw_keep_alive_client_is_not_stalled(self, server, monkeypatch):
        """Headers and body in two writes cost a keep-alive client one
        Nagle × delayed-ACK stall per request: 44 ms per ``/complete``
        measured against the two-write server."""
        monkeypatch.setattr(server_module, "RESPONSES_PER_CONNECTION", 64)
        with SparqlHttpServer(server) as http_server:
            raw = _RawClient(http_server.host, http_server.port)
            try:
                seconds = []
                for _ in range(50):
                    started = time.perf_counter()
                    raw.send("POST", "/complete", _complete_body(), JSON_BODY)
                    status, headers, body = raw.read_response()
                    seconds.append(time.perf_counter() - started)
                    assert status == 200 and "connection" not in headers
                    assert json.loads(body)["completions"]
            finally:
                raw.close()
            assert http_server.app.connections.snapshot()["accepted"] == 1
        assert statistics.median(seconds) < 0.010

    def test_nth_response_closes_the_connection(self, local_endpoint):
        with SparqlHttpServer(local_endpoint) as server:
            raw = _RawClient(server.host, server.port)
            try:
                for index in range(1, RESPONSES_PER_CONNECTION + 1):
                    raw.send("GET", "/health")
                    status, headers, _ = raw.read_response()
                    assert status == 200
                    closing = headers.get("connection") == "close"
                    assert closing == (index == RESPONSES_PER_CONNECTION)
                assert raw.read_response() is None  # and the server hung up
            finally:
                raw.close()
            # The pooled client takes the hint: next request, new connection.
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            for _ in range(RESPONSES_PER_CONNECTION + 1):
                assert client.ask(ASK).value is True
            connections = server.app.connections.snapshot()
            assert connections["accepted"] == 3
            assert connections["recycled"] == 2
            assert [entry.outcome for entry in client.log] == \
                ["ok"] * (RESPONSES_PER_CONNECTION + 1)


class TestStaleConnection:
    def test_idle_close_costs_exactly_one_resend(self, local_endpoint, monkeypatch):
        monkeypatch.setattr(server_module._WsgiRequestHandler, "timeout", 0.2)
        with SparqlHttpServer(local_endpoint) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0, max_retries=0)
            before = server.app.stats_body()
            ledger = ReplayLedger()
            for pause_s in (0.0, 0.6):
                time.sleep(pause_s)  # the second call finds its connection closed
                started = time.perf_counter()
                assert client.ask(ASK).value is True
                ledger.note("sparql", "ok", time.perf_counter() - started)
            after = server.app.stats_body()
            connections = after["connections"]
        assert [entry.outcome for entry in client.log] == ["ok", "ok"]
        assert reconcile(before, after, ledger, check_sessions=False) == []
        assert connections["idle_closed"] == 1
        assert connections["accepted"] == 2
        assert connections["requests"] == 2  # the dead connection carried nothing

    def test_refused_fresh_connection_is_connection_failed(self, monkeypatch):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        exchanges = []
        real = client_module._exchange
        monkeypatch.setattr(
            client_module, "_exchange",
            lambda *args, **kwargs: exchanges.append(1) or real(*args, **kwargs))
        url = f"http://127.0.0.1:{port}/sparql"
        with pytest.raises(ConnectionFailed):
            HttpSparqlEndpoint(url, timeout_s=2.0, max_retries=0).ask(ASK)
        assert len(exchanges) == 1  # max_retries=0: no second attempt
        with pytest.raises(ConnectionFailed):
            HttpSapphireClient(url, timeout_s=2.0, max_retries=2,
                               backoff_s=0.001).complete("Kenn")
        assert len(exchanges) == 1 + 3

    def test_stop_closes_idle_connections_at_once(self, local_endpoint):
        server = SparqlHttpServer(local_endpoint).start()
        client = HttpSparqlEndpoint(server.url, timeout_s=5.0, max_retries=0)
        raw = _RawClient(server.host, server.port)
        try:
            assert client.ask(ASK).value is True  # leaves a pooled connection
            raw.send("GET", "/health")
            assert raw.read_response()[0] == 200
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 1.0
            # A stopped server answers nobody: not on the connection it
            # had open, not on a new one.
            raw.sock.settimeout(2.0)
            try:
                raw.send("GET", "/health")
                assert raw.read_response() is None
            except ConnectionError:
                pass
            with pytest.raises(ConnectionFailed):
                client.ask(ASK)
        finally:
            raw.close()
            server.stop()
        assert [entry.outcome for entry in client.log] == ["ok", "error"]


class TestCheckout:
    def test_threads_never_share_a_connection(self, local_endpoint, monkeypatch):
        in_use, clashes = set(), []
        guard = threading.Lock()

        def checkout(key, _real=client_module._POOL.checkout):
            connection = _real(key)  # None: the caller opens a fresh one
            if connection is not None:
                with guard:
                    if connection in in_use:
                        clashes.append(connection)
                    in_use.add(connection)
            return connection

        def checkin(key, connection, _real=client_module._POOL.checkin):
            with guard:
                in_use.discard(connection)
            _real(key, connection)

        monkeypatch.setattr(client_module._POOL, "checkout", checkout)
        monkeypatch.setattr(client_module._POOL, "checkin", checkin)
        lanes, calls = 4, 25  # more lanes than this box has cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SparqlHttpServer(local_endpoint) as server:
                client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
                failures = []

                def lane():
                    try:
                        for _ in range(calls):
                            assert client.ask(ASK).value is True
                    except Exception as error:  # noqa: BLE001 - reported below
                        failures.append(error)

                threads = [threading.Thread(target=lane) for _ in range(lanes)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                accepted = server.app.connections.snapshot()["accepted"]
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not clashes
        assert len(client.log) == lanes * calls
        # A connection per lane (plus their recycling) — not one per call.
        assert accepted <= lanes + lanes * calls // RESPONSES_PER_CONNECTION + lanes

    def test_timeout_is_the_callers_not_the_connections(self):
        backend = _Stalling()
        backend.release.set()
        with SparqlHttpServer(backend, deadline_s=30.0) as server:
            patient = HttpSparqlEndpoint(server.url, timeout_s=10.0, max_retries=0)
            hasty = HttpSparqlEndpoint(server.url, timeout_s=0.3, max_retries=0)
            assert patient.ask(ASK).value is True  # pools a 10 s connection
            backend.release.clear()
            started = time.perf_counter()
            with pytest.raises(EndpointTimeout):
                hasty.ask(ASK)  # same pooled connection, its own 0.3 s
            assert time.perf_counter() - started < 2.0
            backend.release.set()
            assert hasty.ask(ASK).value is True  # pools a 0.3 s connection
            backend.release.clear()
            releaser = threading.Timer(0.8, backend.release.set)
            releaser.start()
            try:
                assert patient.ask(ASK).value is True  # waits 0.8 s on it
            finally:
                releaser.cancel()
                backend.release.set()

    @pytest.mark.parametrize("analyze", [False, True])
    def test_plan_calls_time_out_as_endpoint_timeout(self, analyze):
        backend = _Stalling()
        with SparqlHttpServer(backend, deadline_s=30.0) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=0.3)
            try:
                with pytest.raises(EndpointTimeout):
                    client.explain(ASK, analyze=analyze)
            finally:
                backend.release.set()


class TestMalformedContentLength:
    @pytest.mark.parametrize("claimed", ["-5", "abc"])
    def test_is_one_400_and_a_closed_connection(self, local_endpoint, claimed):
        with SparqlHttpServer(local_endpoint) as server:
            raw = _RawClient(server.host, server.port)
            try:
                raw.send("POST", "/sparql", b"query=" + ASK.encode("utf-8"),
                         (("Content-Type", "application/x-www-form-urlencoded"),
                          ("Content-Length", claimed)))
                status, headers, body = raw.read_response()
                assert status == 400
                assert headers["connection"] == "close"
                assert "Content-Length" in json.loads(body)["error"]["message"]
                # One request, one response: the unread body is not a
                # second request.
                assert raw.read_response() is None
            finally:
                raw.close()
            stats = server.stats.snapshot()
        assert stats["requests"] == 1
        assert stats["client_errors"] == 1


    def test_conflicting_lengths_are_one_400_and_a_close(self, local_endpoint):
        """First-wins would read ``que`` and leave the other bytes on the
        connection as the start of the "next request"."""
        body = b"query=" + urllib.parse.quote(ASK).encode("ascii")
        with SparqlHttpServer(local_endpoint) as server:
            raw = _RawClient(server.host, server.port)
            try:
                raw.send("POST", "/sparql", body, (FORM_BODY[0], ("Content-Length", "3"),
                                                   ("Content-Length", str(len(body)))))
                status, headers, payload = raw.read_response()
                assert status == 400
                assert headers["connection"] == "close"
                assert "Content-Length" in json.loads(payload)["error"]["message"]
                assert raw.read_response() is None
            finally:
                raw.close()
            stats = server.stats.snapshot()
        assert stats["requests"] == 1
        assert stats["client_errors"] == 1

    def test_identical_duplicates_are_one_length(self, local_endpoint):
        body = b"query=" + urllib.parse.quote(ASK).encode("ascii")
        with SparqlHttpServer(local_endpoint) as server:
            raw = _RawClient(server.host, server.port)
            try:
                for _ in range(2):  # and the connection carries on
                    raw.send("POST", "/sparql", body, (FORM_BODY[0],
                                                       ("Content-Length", str(len(body))),
                                                       ("content-length", str(len(body)))))
                    status, headers, payload = raw.read_response()
                    assert status == 200 and "connection" not in headers
                    assert json.loads(payload)["boolean"] is True
            finally:
                raw.close()


class TestRequestHead:
    """Request heads answered other than by the app: the stdlib's outcomes
    (431, 505, the HTTP/1.0 close, ``100 Continue``) and a chunked body."""

    def _exchange(self, server, head: bytes):
        raw = _RawClient(server.host, server.port)
        try:
            raw.sock.sendall(head)
            first = raw.read_response()
            return first, raw.read_response()
        finally:
            raw.close()

    def test_chunked_request_is_one_501_and_a_close(self, local_endpoint):
        body = b"query=" + urllib.parse.quote(ASK).encode("ascii")
        head = (b"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/x-www-form-urlencoded\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n")
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        with SparqlHttpServer(local_endpoint) as server:
            (status, headers, _), after = self._exchange(server, head + chunked)
            served = server.stats.snapshot()["requests"]
        assert status == 501
        assert headers["connection"] == "close"
        assert after is None  # the chunk bytes are not a second request
        assert served == 0

    @pytest.mark.parametrize("fields", [
        [f"X-Fill-{index}: {index}" for index in range(101)],
        ["X-Long: " + "a" * 70_000],
    ], ids=["101-lines", "70000-byte-line"])
    def test_head_over_the_limits_is_431_and_a_close(self, local_endpoint, fields):
        head = "\r\n".join(["GET /health HTTP/1.1", "Host: test", *fields]) + "\r\n\r\n"
        with SparqlHttpServer(local_endpoint) as server:
            (status, headers, _), after = self._exchange(server, head.encode("latin-1"))
        assert status == 431
        assert headers["connection"] == "close"
        assert after is None

    def test_http_2_is_505(self, local_endpoint):
        """A version we do not speak is refused in one we do: an
        HTTP/1.1 status line and headers, then the close."""
        with SparqlHttpServer(local_endpoint) as server:
            (status, headers, body), after = self._exchange(
                server, b"GET /health HTTP/2.0\r\nHost: test\r\n\r\n")
        assert status == 505
        assert headers["connection"] == "close"
        assert b"Error code: 505" in body
        assert after is None

    def test_http_1_0_is_answered_and_closed(self, local_endpoint):
        with SparqlHttpServer(local_endpoint) as server:
            (status, headers, body), after = self._exchange(
                server, b"GET /health HTTP/1.0\r\nHost: test\r\n\r\n")
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["connection"] == "close"
        assert after is None

    def test_expect_100_continue_then_200_on_one_connection(self, server):
        body = _complete_body()
        head = ("POST /complete HTTP/1.1\r\nHost: test\r\n"
                "Content-Type: application/json\r\nExpect: 100-continue\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        with SparqlHttpServer(server) as http_server:
            raw = _RawClient(http_server.host, http_server.port)
            try:
                raw.sock.sendall(head)
                assert raw.read_response()[0] == 100
                raw.sock.sendall(body)
                status, headers, payload = raw.read_response()
                assert status == 200 and "connection" not in headers
                assert json.loads(payload)["completions"]
                raw.send("GET", "/health")
                assert raw.read_response()[0] == 200
            finally:
                raw.close()
            assert http_server.app.connections.snapshot()["accepted"] == 1


_RESULTS = {"head": {"vars": ["s"]}, "results": {"bindings": [
    {"s": {"type": "uri", "value": f"http://example.org/thing/{index}"}}
    for index in range(40)]}}


class _ThirdPartyHandler(http.server.BaseHTTPRequestHandler):
    """A SPARQL endpoint that is not ours: the stdlib server, framing its
    answer as ``server.framing`` says — ``chunked`` (with a trailer) or a
    ``Content-Length`` response that says ``Connection: close``."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(_RESULTS).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        if self.server.framing == "chunked":
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for start in range(0, len(body), 700):
                piece = body[start:start + 700]
                self.wfile.write(b"%x; piece\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\nX-Trailer: done\r\n\r\n")
        else:
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


@pytest.fixture()
def third_party():
    """``third_party(framing, tls=None)``: a started stdlib endpoint; its
    ``connections`` counts what it accepted."""
    started = []

    def start(framing, tls=None):
        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ThirdPartyHandler)
        httpd.daemon_threads = True
        httpd.framing, httpd.connections = framing, 0
        if tls is not None:
            httpd.socket = tls.wrap_socket(httpd.socket, server_side=True)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        started.append(httpd)
        return httpd

    yield start
    for httpd in started:
        httpd.shutdown()
        httpd.server_close()


def _pooled_to(port):
    return [entry for entry in client_module._POOL._idle if entry[0][2] == port]


class TestThirdPartyEndpoints:
    """Federation members that are not this server frame their answers
    as any HTTP/1.1 server may."""

    def test_chunked_answer_is_read_and_the_connection_reused(self, third_party):
        httpd = third_party("chunked")
        member = HttpSparqlEndpoint(f"http://127.0.0.1:{httpd.server_port}/sparql",
                                    timeout_s=10.0, max_retries=0)
        for _ in range(3):
            rows = member.select("SELECT ?s WHERE { ?s ?p ?o }").rows
            assert [str(row["s"]) for row in rows] == [
                binding["s"]["value"] for binding in _RESULTS["results"]["bindings"]]
        assert httpd.connections == 1
        assert len(_pooled_to(httpd.server_port)) == 1

    def test_connection_close_answer_is_not_pooled(self, third_party):
        httpd = third_party("close")
        member = HttpSparqlEndpoint(f"http://127.0.0.1:{httpd.server_port}/sparql",
                                    timeout_s=10.0, max_retries=0)
        for _ in range(3):
            assert len(member.select("SELECT ?s WHERE { ?s ?p ?o }").rows) == 40
        assert httpd.connections == 3
        assert _pooled_to(httpd.server_port) == []

    @pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl CLI")
    def test_https_wraps_the_pooled_socket(self, third_party, tmp_path, monkeypatch):
        key, cert = tmp_path / "key.pem", tmp_path / "cert.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
             "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
             "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost",
             "-keyout", str(key), "-out", str(cert)],
            check=True, capture_output=True, timeout=60)
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(cert, key)
        httpd = third_party("chunked", tls)
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # the client's trust store
        member = HttpSparqlEndpoint(f"https://localhost:{httpd.server_port}/sparql",
                                    timeout_s=10.0, max_retries=0)
        for _ in range(2):
            assert len(member.select("SELECT ?s WHERE { ?s ?p ?o }").rows) == 40
        assert httpd.connections == 1  # a TLS connection, pooled


class TestNoEmailParser:
    def test_all_three_routes_without_the_stdlib_header_parser(self, server, monkeypatch):
        """Neither end of the wire parses a head with ``email``."""
        with SparqlHttpServer(server) as http_server:
            pum = HttpSapphireClient(http_server.url, timeout_s=10.0, max_retries=0)
            sparql = HttpSparqlEndpoint(http_server.url, timeout_s=10.0, max_retries=0)

            def refuse(*args, **kwargs):
                raise AssertionError("http.client.parse_headers was called")

            monkeypatch.setattr(http.client, "parse_headers", refuse)
            assert pum.complete("Kenn", 5).completions
            outcome = pum.suggest('SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }')
            assert outcome.all_suggestions
            assert sparql.ask(ASK).value is True
            assert [entry.outcome for entry in sparql.log] == ["ok"]


class TestStatsBlock:
    def test_connections_blocks_sum(self):
        block = {"accepted": 3, "open": 1, "requests": 40, "recycled": 1,
                 "idle_closed": 0}
        merged = merge_stats_bodies([{"connections": block},
                                     {"connections": block}, {}])
        assert merged["connections"] == {name: 2 * count
                                         for name, count in block.items()}
        assert "connections" not in merge_stats_bodies([{}])


# ----------------------------------------------------------------------
# Pre-fork pool: recycling spreads load, drain does not wait on idlers
# ----------------------------------------------------------------------


def slow_backend_from_spec(spec):
    """Worker factory (module-level: spawn pickles it by name) whose
    ``run`` takes ``spec["slow_s"]`` seconds."""
    backend = build_backend_from_spec(spec)
    run = backend.run

    def slow_run(query, tracer=None):
        time.sleep(float(spec["slow_s"]))
        return run(query, tracer=tracer)

    backend.run = slow_run
    return backend


@pytest.fixture(scope="module")
def snapshot_spec(tmp_path_factory):
    base = tmp_path_factory.mktemp("connections") / "data.sqlite"
    return prepare_snapshots(
        {"scale": "tiny", "seed": 42, "timeout_s": 10.0,
         "sapphire": False, "n_shards": 1},
        str(base),
    )


class TestPreforkPool:
    def test_one_client_reaches_both_workers(self, snapshot_spec):
        with PreforkServer(build_backend_from_spec, snapshot_spec,
                           n_workers=2) as pool:
            client = HttpSparqlEndpoint(pool.url, timeout_s=10.0)
            seen = set()
            # 200 requests are 7 connections; the odd run whose first 7
            # all hash to one worker gets a few more.
            for sent in range(1, 641):
                assert client.ask(ASK).value is True
                seen.add(client.last_worker)
                if sent >= 200 and len(seen) == 2:
                    break
            assert seen == {"0", "1"}
            connections = fetch_stats(pool.stats_url)["connections"]
            assert connections["requests"] == sent
            assert connections["recycled"] == sent // RESPONSES_PER_CONNECTION
            assert connections["accepted"] == connections["recycled"] + 1

    def test_drain_closes_idlers_and_answers_the_request_in_flight(self, snapshot_spec):
        pool = PreforkServer(slow_backend_from_spec,
                             {**snapshot_spec, "slow_s": 0.8}, n_workers=2)
        pool.start()
        idlers = []
        answered = []
        try:
            client = HttpSparqlEndpoint(pool.url, timeout_s=10.0, max_retries=0)
            assert client.ask(ASK).value is True  # pooled, then idle
            workers = set()
            # The kernel picks a connection's worker by hashing its
            # address pair: six now and then all land on one, so the
            # odd run opens a few more.
            while len(idlers) < 6 or (len(workers) < 2 and len(idlers) < 24):
                raw = _RawClient(pool.host, pool.port)
                idlers.append(raw)
                raw.send("GET", "/health")
                status, headers, _ = raw.read_response()
                assert status == 200
                workers.add(headers["x-repro-worker"])
            assert workers == {"0", "1"}  # both workers hold idle connections
            in_flight = threading.Thread(target=lambda: answered.append(
                client.select("SELECT ?s WHERE { ?s a dbo:Person } LIMIT 3")))
            in_flight.start()
            time.sleep(0.3)
            started = time.perf_counter()
            pool.stop()
            elapsed = time.perf_counter() - started
            in_flight.join(timeout=10.0)
        finally:
            for raw in idlers:
                raw.close()
            pool.stop()
        assert len(answered) == 1 and len(answered[0].rows) == 3
        # Parked idle connections would hold each worker for the idle
        # timeout (5 s); drained, a worker leaves as soon as it owes
        # nothing: under 2 s each.
        assert elapsed < 2.0 * 2
