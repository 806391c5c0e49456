"""HTTP client endpoint speaking the SPARQL 1.1 Protocol.

:class:`HttpSparqlEndpoint` presents the query face of the
in-process :class:`~repro.endpoint.endpoint.SparqlEndpoint` — the
:class:`~repro.endpoint.endpoint.QueryService` methods (``select`` /
``ask`` / ``explain`` accepting text or a parsed AST) and its query
log — but executes every query against a remote endpoint over HTTP.
Because the face is the same, a
:class:`~repro.federation.fedx.FederatedQueryProcessor` built over
``HttpSparqlEndpoint`` instances federates over live network endpoints
with no code changes: source-selection ASK probes, exclusive groups and
bound joins all go over the wire.

Failure mapping keeps the endpoint error hierarchy intact:

* HTTP **503** (overload/admission control) → retried with capped
  exponential backoff + jitter, then :class:`QueryRejected`;
* HTTP **504** (endpoint killed the query) → :class:`EndpointTimeout`
  immediately — a query that exhausts the remote budget once will do it
  again, so retrying only adds load;
* HTTP **400** → :class:`~repro.sparql.errors.SparqlError`;
* client-side read timeout → :class:`EndpointTimeout`, not retried (the
  query would just burn the same budget again);
* connection failures → retried, then :class:`ConnectionFailed` (an
  :class:`EndpointError` subclass).  The distinction matters for load
  harnesses: a ``ConnectionFailed`` request never reached the server,
  so it must be excluded when reconciling client ledgers against the
  server's ``/stats`` counters; every other failure *was* counted
  server-side.

Results travel as SPARQL Results JSON and are parsed back into the
library's result containers, so rows coming off the wire are
indistinguishable from rows produced in-process.

Transport (docs/server.md, *Connections*): every call of both clients
and of the ``fetch_*`` helpers is one :func:`_exchange` — one write out,
the response framed by :mod:`repro.net.http11` — on a keep-alive socket
of a **process-wide** pool, returned once the body is read.  A pooled
connection found dead before the response head is dropped and the
request re-sent once on a fresh one; that is not a retry (``max_retries``
does not count it) and a refused fresh connection still raises
:class:`ConnectionFailed`.
"""

from __future__ import annotations

import json
import os
import random
import socket
import ssl
import threading
import time
import urllib.parse
from typing import List, Optional, Tuple, Union

from ..endpoint.endpoint import (
    EndpointError,
    EndpointTimeout,
    LoggedQueryService,
    QueryRejected,
)
from ..sparql.ast_nodes import Query
from ..sparql.errors import SparqlError
from ..sparql.results import AskResult, SelectResult
from ..sparql.serializer import serialize_query
from ..sparql.trace import PARENT_SPAN_HEADER, TRACE_ID_HEADER, Tracer
from .formats import MIME_JSON, FormatError, parse_json
from .http11 import FramingError, Headers, Response, read_response
from .suggest import (
    MIME_JSON_BODY,
    RemoteCompletionResult,
    RemoteOutcome,
    parse_completion,
    parse_outcome,
)
from .server import IDLE_TIMEOUT_S
from .wsgi import MIME_FORM, WORKER_HEADER

__all__ = [
    "ConnectionFailed",
    "HttpSparqlEndpoint",
    "HttpSapphireClient",
    "fetch_slow_log",
    "fetch_stats",
    "fetch_stats_series",
    "server_root",
]


class ConnectionFailed(EndpointError):
    """The request never reached the server (refused/reset/unroutable).

    Distinct from other :class:`EndpointError`\\ s so reconciliation can
    subtract these attempts from the client ledger: the server has no
    corresponding ``/stats`` increment.
    """


_USER_AGENT = "sapphire-repro-client/1.0"

#: Idle connections this process keeps, over all servers; past it the
#: one returned longest ago is closed.  A closed-loop caller holds at
#: most one connection per thread, so eight covers a replay driver's
#: lanes and a federation's members with room to spare, and bounds what
#: servers that went away can leave behind.
MAX_IDLE_CONNECTIONS = 8

#: A connection returned longer ago than this is closed, not tried: the
#: server (``IDLE_TIMEOUT_S``) has dropped it or is about to.
_REUSE_WITHIN_S = 0.8 * IDLE_TIMEOUT_S


def _connect(split: urllib.parse.SplitResult, timeout_s: float) -> socket.socket:
    """A ``TCP_NODELAY`` socket connected under ``timeout_s``; ``https`` wraps it."""
    https = split.scheme == "https"
    sock = socket.create_connection(
        (split.hostname, split.port or (443 if https else 80)), timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if https:  # a failed handshake closes the socket it took over
        sock = ssl.create_default_context().wrap_socket(sock, server_hostname=split.hostname)
    return sock


class _ConnectionPool:
    """The idle keep-alive connections of this process, oldest first.

    A connection is in the pool only between two exchanges: checked out
    it belongs to one thread, so concurrent callers never share one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: List[Tuple[tuple, socket.socket, float]] = []

    def checkout(self, key: tuple) -> Optional[socket.socket]:
        """The most recently returned connection to ``key`` still worth
        trying, or None; expired ones (to any server) are closed."""
        oldest = time.monotonic() - _REUSE_WITHIN_S
        found = None
        with self._lock:
            expired = [entry for entry in self._idle if entry[2] < oldest]
            del self._idle[:len(expired)]
            for index in range(len(self._idle) - 1, -1, -1):
                if self._idle[index][0] == key:
                    found = self._idle.pop(index)[1]
                    break
        for _, connection, _ in expired:
            connection.close()
        return found

    def checkin(self, key: tuple, connection: socket.socket) -> None:
        with self._lock:
            self._idle.append((key, connection, time.monotonic()))
            overflow = self._idle[:-MAX_IDLE_CONNECTIONS]
            del self._idle[:-MAX_IDLE_CONNECTIONS]
        for _, dropped, _ in overflow:
            dropped.close()


_POOL = _ConnectionPool()
# A forked child must not answer on its parent's connections.
os.register_at_fork(after_in_child=_POOL.__init__)


def _exchange(
    name: str, url: str, timeout_s: float,
    body: Optional[bytes] = None, headers: Optional[dict] = None,
) -> Tuple[Response, bytes]:
    """One HTTP exchange (POST when there is a ``body``) on a pooled
    connection: the response, whatever its status, and its body.

    Raises :class:`EndpointTimeout` when ``timeout_s`` ran out connecting
    or waiting, :class:`ConnectionFailed` when the server could not be
    reached or went away, :class:`EndpointError` when the response cannot
    be framed.  A *pooled* connection found dead before the response head
    is dropped and the request sent once more, on a fresh connection.
    """
    split = urllib.parse.urlsplit(url)
    key = (split.scheme, split.hostname, split.port)
    target = (split.path or "/") + ("?" + split.query if split.query else "")
    fields = {"Host": split.netloc.rpartition("@")[2], "User-Agent": _USER_AGENT,
              "Accept-Encoding": "identity", **(headers or {})}
    if body is not None:
        fields["Content-Length"] = str(len(body))
    lines = [f"{'GET' if body is None else 'POST'} {target} HTTP/1.1",
             *(f"{field}: {value}" for field, value in fields.items())]
    if any("\r" in line or "\n" in line for line in lines):
        raise ValueError(f"{name}: a line break inside the request head")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")
    for connection in (_POOL.checkout(key), None):
        reused = connection is not None
        response, keep = None, False
        try:
            if not reused:
                connection = _connect(split, timeout_s)
            connection.settimeout(timeout_s)
            connection.sendall(request)
            with connection.makefile("rb") as rfile:  # nothing is pipelined
                response = read_response(rfile)
                payload = response.read_body(rfile)
            keep = not response.will_close
        except TimeoutError as exc:
            # The query outlived our read timeout; retrying would re-run
            # it and burn the same budget again — same policy as a 504.
            raise EndpointTimeout(
                f"{name}: no response within {timeout_s}s: {exc}") from None
        except FramingError as exc:
            raise EndpointError(f"{name}: malformed response: {exc}") from None
        except OSError as exc:
            if reused and response is None and isinstance(exc, ConnectionError):
                continue
            raise ConnectionFailed(f"{name}: connection failed: {exc}") from None
        finally:
            if keep:
                _POOL.checkin(key, connection)
            elif connection is not None:
                connection.close()
        return response, payload
    raise AssertionError("unreachable: a fresh connection returns or raises")


class _WireClient:
    """What the two wire clients share: the failure mapping of one call,
    ``last_worker``, and the retry policy.

    ``max_retries`` bounds *re*-tries after the first attempt; backoff
    doubles from ``backoff_s`` up to ``backoff_cap_s`` with full jitter.
    """

    def __init__(self, name: str, rng: random.Random, timeout_s: float,
                 max_retries: int, backoff_s: float, backoff_cap_s: float) -> None:
        self.name = name
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = rng
        #: Pre-fork worker id (``X-Repro-Worker``) of the most recent
        #: response, or None against single-process servers.  Best-effort
        #: last-write-wins under concurrency — the replay harness reads
        #: it per-request from its single-threaded session clients.
        self.last_worker: Optional[str] = None

    def _once(self, url: str, body: bytes, headers: dict) -> Tuple[Headers, bytes]:
        """POST ``body``: the headers and body of a 200, else the mapped
        error."""
        response, payload = _exchange(self.name, url, self.timeout_s, body, headers)
        self.last_worker = response.headers.get(WORKER_HEADER)
        if response.status != 200:
            raise _http_error(self.name, response, payload)
        return response.headers, payload

    def _call(self, url: str, body: bytes, headers: dict) -> Tuple[Headers, bytes]:
        """:meth:`_once`, re-tried up to ``max_retries`` times after a
        503 or a connection failure."""
        attempt = 0
        while True:
            try:
                return self._once(url, body, headers)
            except (ConnectionFailed, QueryRejected):
                if attempt >= self.max_retries:
                    raise
                # Full-jitter exponential backoff, capped.
                ceiling = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
                time.sleep(self._rng.uniform(0, ceiling))
                attempt += 1


class HttpSparqlEndpoint(_WireClient, LoggedQueryService):
    """A remote SPARQL endpoint reached over the SPARQL 1.1 Protocol.

    Drop-in replacement for :class:`SparqlEndpoint` wherever only the
    :class:`QueryService` face is used (the federation, initialization
    probes).  Retry knobs as in :class:`_WireClient`; pass a seeded
    ``random.Random`` as ``rng`` for deterministic tests.
    """

    def __init__(
        self,
        url: str,
        name: Optional[str] = None,
        *,
        timeout_s: float = 30.0,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.url = url
        name = name or urllib.parse.urlsplit(url).netloc or url
        # Seeded by default (stable per endpoint name): backoff jitter
        # is the only stochastic client path, and a replay must be
        # reproducible end to end.  Pass your own rng to decorrelate
        # concurrent clients sharing a name.
        _WireClient.__init__(self, name, rng or random.Random(f"endpoint:{name}"),
                             timeout_s, max_retries, backoff_s, backoff_cap_s)
        LoggedQueryService.__init__(self)
        # Distributed-trace context (docs/tracing.md): when set by
        # Tracer.remote_call, outgoing queries carry the trace id and
        # the calling span's id as headers so the remote server records
        # its spans under the same trace.  Thread-local because one
        # endpoint object may serve concurrent federated queries.
        self._trace_context = threading.local()

    def run(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> Union[SelectResult, AskResult]:
        """Run a query of either form remotely; raises on
        timeout/rejection.  The remote server records the spans:
        ``tracer`` continues there through the context
        :meth:`Tracer.remote_call` sets (:meth:`set_trace_context`)."""
        text = query if isinstance(query, str) else serialize_query(query)
        # Remote cost is invisible to the client: logged as 0, with the
        # elapsed wall time as the entry's seconds.
        started = time.perf_counter()
        try:
            headers, payload = self._call(self.url, _form(text), {
                "Content-Type": MIME_FORM,
                "Accept": MIME_JSON,
                **self._trace_headers(),
            })
            try:
                result = parse_json(payload)
            except FormatError as exc:
                raise EndpointError(f"{self.name}: unparseable response: {exc}") from None
        except (EndpointError, SparqlError) as exc:
            outcome = ("timeout" if isinstance(exc, EndpointTimeout) else
                       "rejected" if isinstance(exc, QueryRejected) else "error")
            self._record(text, outcome, 0, time.perf_counter() - started)
            raise
        if headers.get("X-Result-Truncated") == "true" and isinstance(result, SelectResult):
            result.truncated = True
        self._record(text, "ok", 0, time.perf_counter() - started, result)
        return result

    def set_trace_context(self, trace_id: Optional[str],
                          parent_span_id: Optional[str]) -> None:
        """Install (or clear, with ``None``s) the distributed-trace
        context stamped onto outgoing requests.

        Called by :meth:`~repro.sparql.trace.Tracer.remote_call` around
        each remote round so the server side continues the same trace —
        its spans come back stitchable under the calling span.
        """
        if trace_id is None:
            self._trace_context.value = None
        else:
            self._trace_context.value = (trace_id, parent_span_id)

    def _trace_headers(self) -> dict:
        context = getattr(self._trace_context, "value", None)
        if context is None:
            return {}
        trace_id, parent_span_id = context
        headers = {TRACE_ID_HEADER: trace_id}
        if parent_span_id:
            headers[PARENT_SPAN_HEADER] = parent_span_id
        return headers

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------

    def _form_of(self, query: Union[str, Query]) -> Optional[str]:
        # Text is sent as written, never parsed here: its form shows in
        # the result that comes back.
        return None if isinstance(query, str) else query.form

    def _plan_text(self, query: Union[str, Query], flag: str = "explain") -> str:
        """The server's plan dump (``explain=true``), or with ``flag``
        ``"analyze"`` its rendered trace of one execution.  Both are
        unlogged on the client; an ANALYZE runs on the server, through
        its admission control and deadline."""
        # One attempt: a plan is cheap to ask for again, and an ANALYZE
        # that was rejected should say so.
        _, payload = self._once(self.url, _form(query, **{flag: "true"}), {
            "Content-Type": MIME_FORM,
            "Accept": "text/plain",
            **self._trace_headers(),
        })
        return payload.decode("utf-8")

    def _trace_text(self, query: Union[str, Query]) -> str:
        # The server renders the trace of its own execution.
        return self._plan_text(query, "analyze")


class HttpSapphireClient(_WireClient):
    """Drive a *remote* Sapphire's Predictive User Model over HTTP.

    Talks to the ``/complete`` and ``/suggest`` routes a
    :class:`~repro.net.wsgi.SparqlWsgiApp` exposes when its backend is a
    :class:`~repro.core.sapphire.SapphireServer`.  The call surface
    mirrors the in-process server — ``complete(text, k)`` and
    ``suggest(query)`` — so a UI (or another SapphireServer) can swap a
    local PUM for a network one without code changes.

    ``base_url`` may be the server root or its ``/sparql`` endpoint URL;
    the suggestion routes are derived from it.  Failure mapping follows
    :class:`HttpSparqlEndpoint`: 503 → :class:`QueryRejected` after
    capped jittered retries, 504 → :class:`EndpointTimeout`, 400 →
    :class:`~repro.sparql.errors.SparqlError`.
    """

    def __init__(
        self,
        base_url: str,
        *,
        session: Optional[str] = None,
        timeout_s: float = 30.0,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.root = server_root(base_url)
        self.session = session
        name = urllib.parse.urlsplit(base_url).netloc or base_url
        # Same contract as HttpSparqlEndpoint: jitter is seeded, never
        # drawn from OS entropy, so replays reproduce byte-for-byte.
        super().__init__(
            name, rng or random.Random(f"sapphire:{name}:{session or ''}"),
            timeout_s, max_retries, backoff_s, backoff_cap_s)

    # ------------------------------------------------------------------
    # PUM surface (mirrors SapphireServer)
    # ------------------------------------------------------------------

    def complete(self, text: str, k: Optional[int] = None) -> RemoteCompletionResult:
        """QCM auto-completion from the remote cache."""
        return parse_completion(self.complete_raw(text, k))

    def complete_raw(self, text: str, k: Optional[int] = None) -> bytes:
        """The exact ``/complete`` response bytes (the parity surface:
        byte-identical to the in-process canonical encoding)."""
        body: dict = {"text": text}
        if k is not None:
            body["k"] = k
        return self._post("/complete", body)

    def suggest(self, query: str, suggest: bool = True) -> RemoteOutcome:
        """Run ``query`` remotely and collect the QSM's suggestions
        (answers and prefetched suggestion answers included)."""
        return parse_outcome(self._post("/suggest", {"query": query, "suggest": suggest}))

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _post(self, route: str, body: dict) -> bytes:
        if self.session is not None:
            body = dict(body, session=self.session)
        _, payload = self._call(self.root + route, json.dumps(body).encode("utf-8"), {
            "Content-Type": MIME_JSON_BODY,
            "Accept": MIME_JSON_BODY,
        })
        return payload


def _fetch_json(url: str, timeout_s: float) -> dict:
    response, payload = _exchange(url, url, timeout_s,
                                  headers={"Accept": "application/json"})
    if response.status != 200:
        raise EndpointError(f"{url}: HTTP {response.status}: "
                            f"{_error_detail(response, payload)}")
    return json.loads(payload.decode("utf-8"))


def server_root(url: str) -> str:
    """The server root for a base or ``/sparql`` endpoint URL."""
    split = urllib.parse.urlsplit(url)
    path = split.path
    if path.endswith("/sparql"):
        path = path[: -len("/sparql")]
    return urllib.parse.urlunsplit(
        (split.scheme, split.netloc, path.rstrip("/"), "", "")
    )


def fetch_stats(url: str, timeout_s: float = 10.0) -> dict:
    """GET ``/stats`` from a server root (or ``/sparql``) URL."""
    return _fetch_json(server_root(url) + "/stats", timeout_s)


def fetch_slow_log(url: str, timeout_s: float = 10.0) -> dict:
    """GET ``/stats/slow`` — the server's slow-query log with full
    traces, slowest first (docs/tracing.md)."""
    return _fetch_json(server_root(url) + "/stats/slow", timeout_s)


def fetch_stats_series(url: str, timeout_s: float = 10.0) -> dict:
    """GET ``/stats/series`` — appends one sample point server-side and
    returns ``{"points": [...], "max_points": N}``; the caller's polling
    cadence is the series' sampling clock."""
    return _fetch_json(server_root(url) + "/stats/series", timeout_s)


def _form(query: Union[str, Query], **fields: str) -> bytes:
    """The url-encoded protocol body for ``query`` plus flag fields."""
    text = query if isinstance(query, str) else serialize_query(query)
    return urllib.parse.urlencode({"query": text, **fields}).encode("utf-8")


def _http_error(name: str, response: Response,
                payload: bytes) -> Exception:
    """Shared status → endpoint-error mapping for the wire clients."""
    detail = _error_detail(response, payload)
    if response.status == 503:
        return QueryRejected(f"{name}: rejected (503): {detail}")
    if response.status == 504:
        return EndpointTimeout(f"{name}: remote timeout (504): {detail}")
    if response.status == 400:
        return SparqlError(f"{name}: bad query (400): {detail}")
    return EndpointError(f"{name}: HTTP {response.status}: {detail}")


def _error_detail(response: Response, payload: bytes) -> str:
    """Best-effort extraction of the server's JSON error message."""
    try:
        document = json.loads(payload.decode("utf-8", "replace"))
        return str(document["error"]["message"])
    except Exception:  # noqa: BLE001 - any malformed body falls through
        return response.reason
