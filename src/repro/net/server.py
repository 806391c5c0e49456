"""Threaded stdlib HTTP server for the SPARQL 1.1 Protocol.

:class:`SparqlHttpServer` binds a :class:`~repro.net.wsgi.SparqlWsgiApp`
to a real socket using ``http.server.ThreadingHTTPServer`` — one thread
per connection, admission control inside the app bounding actual query
concurrency.  It is the piece that turns any in-process
:class:`~repro.endpoint.endpoint.SparqlEndpoint` (or a whole federation)
into something DBpedia-shaped: reachable over the network, guarded by
queue limits and deadlines, and observable through ``/health`` and
``/stats``.

Typical use::

    endpoint = SparqlEndpoint(store, EndpointConfig(timeout_s=1.0))
    with SparqlHttpServer(endpoint, port=0) as server:   # ephemeral port
        client = HttpSparqlEndpoint(server.url)
        rows = client.select("SELECT * WHERE { ?s ?p ?o } LIMIT 5").rows

``port=0`` asks the kernel for an ephemeral port (read it back from
``server.port``) so tests and benchmarks never collide.  The server
always serves from a background thread: :meth:`start` (or the ``with``
block) begins, :meth:`stop` drains and releases the socket.  ``repro
serve --workers 1`` is this class, ``--workers N`` a
:class:`~repro.net.prefork.PreforkServer`; both are started, waited on
and stopped by the same CLI code.

Connections (docs/server.md, *Connections*) are persistent: a
connection carries request after request, each request's head is read by
:mod:`repro.net.http11`, each response leaves in one
write on a ``TCP_NODELAY`` socket, and the server closes a connection
that sent nothing for :data:`IDLE_TIMEOUT_S` or has been answered
:data:`RESPONSES_PER_CONNECTION` times (the last response says
``Connection: close``).  :class:`WsgiServer` — the one server class, also
behind the pre-fork workers and their coordinator — keeps a
:class:`ConnectionRegistry` of what it holds open, so closing the server
closes idle connections at once and in-flight ones after their response.
"""

from __future__ import annotations

import gc
import io
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .http11 import MAX_LINE, FramingError, parse_version, read_fields
from .wsgi import SparqlWsgiApp

__all__ = ["IDLE_TIMEOUT_S", "RESPONSES_PER_CONNECTION", "SparqlHttpServer"]

#: Most bytes we will read-and-discard to deliver a 413 to a client that
#: overshot ``max_query_bytes``; claims beyond this get the socket closed.
_DRAIN_CAP = 64 * 1024 * 1024

#: Seconds a connection may sit without a request before the server
#: closes it (also the socket timeout of a body read or response write).
#: An idle connection parks one thread; the longest pause between two
#: requests of a scripted session (``repro.eval.replay``, 2,000 sessions
#: over ten seeds) is 2.9 s, so 5 s keeps a composing user on one
#: connection and frees an abandoned one soon.
IDLE_TIMEOUT_S = 5.0

#: Responses after which the server closes a connection.  Balancing in a
#: pre-fork pool is per *connection* (``SO_REUSEPORT`` hashes the
#: 4-tuple), so load spreads only as fast as connections are replaced:
#: never recycled, the two ``replica_mix`` lanes sat on one of two
#: workers from start to end in 2 runs of 6; at 32 all ten seeds spread,
#: and the extra connects are below the run-to-run noise on
#: ``session_mix`` (docs/server.md has the numbers).
RESPONSES_PER_CONNECTION = 32


class _ProcessFreeze:
    """``gc.freeze()`` for as long as any server of this process serves.

    The freeze is process-wide and one process may run several servers
    (a federation's members beside its mediator): the first to start
    collects and freezes what the process holds, the last to stop thaws
    it.  A process frozen before its first server keeps its own freeze.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._ours = False

    def hold(self) -> None:
        with self._lock:
            self._holders += 1
            if self._holders == 1 and gc.get_freeze_count() == 0:
                gc.collect()
                gc.freeze()
                self._ours = True

    def release(self) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._ours:
                gc.unfreeze()
                self._ours = False


_FREEZE = _ProcessFreeze()


class ConnectionRegistry:
    """The connections a server holds open, and what became of the rest.

    A connection is *idle* while its thread waits for a request line and
    *busy* from the first byte of a request to the end of its response.
    :meth:`drain` is what lets a server stop without waiting out idle
    keep-alive connections: those are shut down at once (their threads
    wake on EOF), busy ones close after the response they owe.  The
    counters are the ``connections`` block of ``/stats``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._busy: Dict[object, bool] = {}     # open handler -> in a request
        self._draining = False
        self._counts = dict.fromkeys(
            ("accepted", "requests", "recycled", "idle_closed", "stalled"), 0)

    def opened(self, handler) -> bool:
        """Register an accepted connection; False once draining."""
        with self._lock:
            self._counts["accepted"] += 1
            if self._draining:
                return False
            self._busy[handler] = False
            return True

    def begin(self, handler) -> bool:
        """A request line arrived.  False when :meth:`drain` already took
        the connection: the request is dropped unanswered and uncounted,
        and the client re-sends it elsewhere."""
        with self._lock:
            if self._draining:
                return False
            self._busy[handler] = True
            self._counts["requests"] += 1
            return True

    def end(self, handler) -> bool:
        """The response is out; True when the connection must now close."""
        with self._lock:
            self._busy[handler] = False
            return self._draining

    def closed(self, handler) -> None:
        with self._lock:
            self._busy.pop(handler, None)

    def count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Close idle connections now, busy ones after their response."""
        with self._lock:
            self._draining = True
            idle = [handler for handler, busy in self._busy.items() if not busy]
        for handler in idle:
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {**self._counts, "open": len(self._busy)}


class _WsgiRequestHandler(BaseHTTPRequestHandler):
    """Serves one connection: each HTTP request becomes a WSGI call on
    the server's app, until either side closes."""

    protocol_version = "HTTP/1.1"
    server_version = "SapphireSparql/1.0"
    timeout = IDLE_TIMEOUT_S
    # What removes the keep-alive stall is the one write per response
    # (_dispatch); this keeps it away from the replies the stdlib still
    # sends in two (send_error, 100 Continue).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self._responses = 0
        self._registered = self.server.connections.opened(self)

    def finish(self) -> None:
        self.server.connections.closed(self)
        super().finish()

    def handle(self) -> None:
        self.close_connection = not self._registered
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        connections = self.server.connections
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE + 1)
        except TimeoutError:
            connections.count("idle_closed")
            self.raw_requestline = b""
        except OSError:  # reset by the peer while idle
            self.raw_requestline = b""
        if not self.raw_requestline or not connections.begin(self):
            self.close_connection = True
            return
        try:
            if len(self.raw_requestline) > MAX_LINE:
                self.requestline = self.request_version = self.command = ""
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            elif not self.parse_request():
                pass  # parse_request answered the error itself
            elif self.command in ("GET", "POST"):
                self._dispatch()
            else:
                self.send_error(HTTPStatus.NOT_IMPLEMENTED,
                                f"Unsupported method ({self.command!r})")
        except TimeoutError:  # the peer stalled mid-request: no response is owed
            connections.count("stalled")
            self.close_connection = True
        except OSError:  # the peer went away mid-request
            self.close_connection = True
        finally:
            if connections.end(self):
                self.close_connection = True

    def parse_request(self) -> bool:
        """The stdlib's request-line outcomes (400, 505, HTTP/1.0 closes, 100 Continue),
        the head read by :mod:`repro.net.http11` (431; 501 for a chunked body) into
        :attr:`environ` and :attr:`lengths`."""
        self.command, self.request_version = None, self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        number = parse_version(words[-1]) if len(words) >= 3 else (0, 9)
        if len(words) >= 3 and number is not None and number < (2, 0):
            self.request_version, self.close_connection = words[-1], number < (1, 1)
        if not words:
            return False
        if number is not None and number >= (2, 0):
            # Framed as the version we do speak, so the client reads a status line.
            self.request_version = "HTTP/1.1"
            self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({words[-1]})")
            return False
        if number is None or not 2 <= len(words) <= 3 or (len(words) == 2 and words[0] != "GET"):
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request line ({self.requestline!r})")
            return False
        self.command, self.path = words[:2]
        if self.path.startswith("//"):  # not an absolute URI (gh-87389)
            self.path = "/" + self.path.lstrip("/")
        try:
            fields = read_fields(self.rfile)
        except FramingError as error:  # over MAX_LINE or MAX_HEADERS
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, str(error))
            return False
        # One pass: every header as HTTP_<NAME> (Accept, the trace ids of
        # docs/tracing.md), the first occurrence winning as in
        # Headers.get; every Content-Length field kept for _dispatch.
        self.environ = environ = {}
        self.lengths = lengths = []
        for name, value in fields:
            key = "HTTP_" + name.upper().replace("-", "_")
            if key not in environ:
                environ[key] = value
            if key == "HTTP_CONTENT_LENGTH" and "_" not in name:
                lengths.append(value)
        if "HTTP_TRANSFER_ENCODING" in environ:
            self.send_error(HTTPStatus.NOT_IMPLEMENTED, "Transfer-Encoding is not supported")
            return False
        connection = environ.get("HTTP_CONNECTION", "").lower()
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        if environ.get("HTTP_EXPECT", "").lower() == "100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    # The app is attached to the server object by WsgiServer.
    def _dispatch(self) -> None:
        app: SparqlWsgiApp = self.server.wsgi_app  # type: ignore[attr-defined]
        path, _, query_string = self.path.partition("?")
        # Identical duplicates are one length, conflicting ones not a length (RFC 9112 §6.3).
        claimed = ", ".join(dict.fromkeys(self.lengths)) or "0"
        try:
            length = int(claimed)
        except ValueError:
            length = -1
        # Never buffer an oversized body: pass the claimed length through
        # unread and let the app's max_query_bytes check answer 413 —
        # memory stays bounded no matter what Content-Length claims.
        if length < 0:
            # Not a length: where this request ends is unknown, so the
            # app answers 400 (it sees the same header) and the
            # connection cannot carry another request.
            body = b""
            self.close_connection = True
        elif length <= app.max_query_bytes:
            body = self.rfile.read(length) if length else b""
        else:
            # Drain-and-discard in bounded chunks: if the client is still
            # blocked sending when we respond, the close RSTs the socket
            # and the 413 never arrives (the client would see a broken
            # pipe and retry the whole upload).  Truly absurd claims are
            # cut off at _DRAIN_CAP and the connection dropped instead.
            remaining = min(length, _DRAIN_CAP)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            body = b""
            # The body may be only partially drained (_DRAIN_CAP); the
            # connection cannot carry another request.
            self.close_connection = True
        environ = self.environ
        environ["REQUEST_METHOD"] = self.command
        environ["PATH_INFO"] = path
        environ["QUERY_STRING"] = query_string
        environ["CONTENT_TYPE"] = environ.get("HTTP_CONTENT_TYPE", "")
        environ["CONTENT_LENGTH"] = claimed
        environ["wsgi.input"] = io.BytesIO(body)

        head = []

        def start_response(status_line: str, headers) -> None:
            head.append(f"HTTP/1.1 {status_line}\r\n")
            for name, value in headers:
                head.append(f"{name}: {value}\r\n")

        payload = b"".join(app(environ, start_response))
        if not head:  # pragma: no cover - app always responds
            head.append("HTTP/1.1 500 Internal Server Error\r\n"
                        "Content-Length: 0\r\n")
            payload = b""
            self.close_connection = True
        connections = self.server.connections
        self._responses += 1
        if self._responses >= RESPONSES_PER_CONNECTION and not self.close_connection:
            connections.count("recycled")
            self.close_connection = True
        if self.close_connection or connections.draining:
            head.append("Connection: close\r\n")
            self.close_connection = True
        head.append("\r\n")
        # Every response carries Content-Length and leaves in ONE write,
        # straight onto the socket: headers and body in two cost a
        # keep-alive client a Nagle × delayed-ACK stall per request
        # (44 ms per /complete, measured).
        self.connection.sendall("".join(head).encode("latin-1") + payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silent: ``/stats`` and the slow-query log are the request log."""


class WsgiServer(ThreadingHTTPServer):
    """One listening socket serving one WSGI app over persistent
    connections it keeps track of — behind :class:`SparqlHttpServer`,
    the pre-fork workers and their coordinator alike."""

    daemon_threads = True
    # Loopback benchmarks churn through many short-lived client sockets;
    # without this, TIME_WAIT from a previous run can block the bind.
    allow_reuse_address = True

    def __init__(self, address, app) -> None:
        self.wsgi_app = app
        self.connections = ConnectionRegistry()
        app.connections = self.connections   # the /stats ``connections`` block
        super().__init__(address, _WsgiRequestHandler)

    def server_close(self) -> None:
        """Release the socket and the connections: idle ones now, each
        in-flight one after its response (a server with non-daemon
        threads waits for those here)."""
        self.connections.drain()
        super().server_close()


class SparqlHttpServer:
    """A SPARQL 1.1 Protocol endpoint served over HTTP.

    ``app_kwargs`` are :class:`~repro.net.wsgi.SparqlWsgiApp`'s settings
    (``max_workers``, ``queue_limit``, ``deadline_s``, ...), forwarded
    as given; the app declares them and their defaults.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0,
                 **app_kwargs) -> None:
        self.app = SparqlWsgiApp(backend, **app_kwargs)
        self._httpd = WsgiServer((host, port), self.app)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The query endpoint URL clients should talk to."""
        return f"http://{self.host}:{self.port}/sparql"

    @property
    def stats(self):
        """Live serving counters (same data ``/stats`` returns)."""
        return self.app.stats

    @property
    def slow_log(self):
        """The bounded slow-query log behind ``/stats/slow``."""
        return self.app.slow_log

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SparqlHttpServer":
        """Serve in a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server is already running")
        if self._closed:
            raise RuntimeError(
                "server socket is closed (stop() was called); "
                "build a new SparqlHttpServer to serve again")
        # What the process holds now (the backend it serves, above all)
        # lives as long as the server: collected once, then frozen, it
        # is never walked again by a full collection inside a request.
        _FREEZE.hold()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"sparql-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._closed = True
        if self._thread is not None:
            # shutdown() blocks on the serve_forever loop acknowledging;
            # calling it on a server that never served would hang.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            # A process that builds server after server (a test suite)
            # must not keep each one's garbage for good.
            _FREEZE.release()

    def __enter__(self) -> "SparqlHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
