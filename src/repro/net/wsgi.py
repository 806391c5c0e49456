"""WSGI application implementing the SPARQL 1.1 Protocol.

The protocol logic lives here, framework-free, so the same application
object runs under the bundled :class:`~repro.net.server.SparqlHttpServer`
(stdlib ``ThreadingHTTPServer``), under ``wsgiref``, or under any
production WSGI container.

Routes
------

``GET  /sparql?query=...``          — query via query string
``POST /sparql`` (url-encoded)      — query via ``query=`` form field
``POST /sparql`` (sparql-query)     — raw query text as the request body
``POST /complete`` (JSON)           — QCM auto-completion (Sapphire backends)
``POST /suggest`` (JSON)            — run + QSM suggestions (Sapphire backends)
``GET  /health``                    — liveness probe (JSON)
``GET  /stats``                     — serving counters (JSON)
``GET  /stats/series``              — append + return a stats time series
``GET  /stats/slow``                — slow-query log with full traces (JSON)

``/`` is an alias for ``/sparql`` so a bare endpoint URL works.

The suggestion routes exist when the backend is a
:class:`~repro.core.sapphire.SapphireServer` (anything with
``complete``/``run_query``); plain endpoints answer 404 for them.
Bodies are JSON — ``{"text": ..., "k": ..., "session": ...}`` for
``/complete``, ``{"query": ..., "suggest": ..., "session": ...}`` for
``/suggest`` — and responses use the canonical encoding of
:mod:`repro.net.suggest`, so a loopback ``/complete`` is byte-identical
to the in-process completion.  An optional ``session`` token groups a
user's calls; per-session activity counters surface in ``/stats``.
Both routes pass through the same admission control and deadline rules
as queries — a suggestion round occupies a worker slot exactly like a
query does.

Admission control
-----------------

A bounded worker pool (``max_workers`` concurrent queries) with a
bounded wait queue (``queue_limit``): when all workers are busy and the
queue is full, the request is rejected immediately with **503** — the
same shape public endpoints like DBpedia present under load, and the
behaviour :class:`~repro.net.client.HttpSparqlEndpoint` retries with
jitter; a request that waits in the queue past the deadline gets a 503
that says so.  A query the backend kills for exceeding its timeout budget
surfaces as **504** with a JSON error body.  Both outcomes are counted
in ``/stats`` so a load test can reconcile client and server totals.

Observability
-------------

Counters are kept **per route** by :class:`~repro.net.metrics.ServerStats`
(fixed log-scale latency histograms, not reservoir samples), with
queue-depth/admission high-water gauges and — when the backend is a
``SapphireServer`` — suggestion-cache hit/miss counters.  Each ``GET
/stats/series`` appends the current counters as one point in a bounded
server-side time series and returns the whole series, so a load
driver's polling tick is the sampling clock.

Tracing (docs/tracing.md): a request is executed under an
operator-level :class:`~repro.sparql.trace.Tracer` when it asks for
``analyze=true``, when it arrives with an ``X-Repro-Trace-Id`` header
(an upstream federated query is already tracing — the server continues
that trace id), or when it loses the ``trace_sample_rate`` coin flip.
Finished traces feed the bounded :class:`~repro.net.metrics.SlowQueryLog`
served under ``GET /stats/slow``; ``analyze=true`` responses are the
rendered trace tree as ``text/plain``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs

from ..endpoint.endpoint import EndpointTimeout, QueryRejected
from ..sparql.ast_nodes import Query
from ..sparql.errors import SparqlError
from ..sparql.parser import parse_query
from ..sparql.results import SelectResult
from ..sparql.trace import Tracer
from .formats import NotAcceptable, memo_stats, negotiate
from .metrics import GC_WATCH, ServerStats, SlowQueryLog, StatsTimeSeries
from .suggest import MIME_JSON_BODY, dump_document, encode_completion, outcome_document

__all__ = ["ServerStats", "SparqlWsgiApp", "WORKER_HEADER"]

StartResponse = Callable[..., None]

#: Media type for SPARQL queries shipped as a raw POST body.
MIME_SPARQL_QUERY = "application/sparql-query"
MIME_FORM = "application/x-www-form-urlencoded"

#: Response header naming the pre-fork worker that served the request.
#: Echoed on every response when the app was built with a ``worker_id``,
#: so load drivers can attribute responses to workers (docs/server.md).
WORKER_HEADER = "X-Repro-Worker"

_MIME_JSON_UTF8 = f"{MIME_JSON_BODY}; charset=utf-8"

_STATUS_LINES = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    406: "406 Not Acceptable",
    413: "413 Payload Too Large",
    415: "415 Unsupported Media Type",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
    504: "504 Gateway Timeout",
}


class SparqlWsgiApp:
    """WSGI callable speaking the SPARQL 1.1 Protocol for one backend.

    ``backend`` is a :class:`~repro.endpoint.endpoint.QueryService` —
    a :class:`~repro.endpoint.endpoint.SparqlEndpoint`, a
    :class:`~repro.federation.fedx.FederatedQueryProcessor`, or a
    :class:`~repro.core.sapphire.SapphireServer` (served through its
    federation).  Parsed queries go to the backend's one execution
    entry, ``run(query, tracer=None)``; the tracer is an argument on
    every call, ``None`` when the request is not traced.
    """

    def __init__(
        self,
        backend,
        *,
        max_workers: int = 8,
        queue_limit: int = 16,
        deadline_s: Optional[float] = None,
        max_query_bytes: int = 256 * 1024,
        trace_sample_rate: float = 0.0,
        slow_query_threshold_s: float = 0.5,
        worker_id: Optional[str] = None,
    ) -> None:
        # A SapphireServer fronts its endpoints with a federation; serve
        # that for /sparql, and keep the server itself as the Predictive
        # User Model behind /complete and /suggest.
        self.suggester = (
            backend
            if hasattr(backend, "complete") and hasattr(backend, "run_query")
            else None
        )
        federation = getattr(backend, "federation", None)
        self.backend = federation if federation is not None else backend
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_workers = max_workers
        self.queue_limit = queue_limit
        if deadline_s is None:
            deadline_s = _default_deadline(self.backend)
        if deadline_s is not None and deadline_s == float("inf"):
            deadline_s = None
        self.deadline_s = deadline_s
        self.max_query_bytes = max_query_bytes
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
        self.trace_sample_rate = trace_sample_rate
        self.worker_id = worker_id
        self.slow_log = SlowQueryLog(threshold_s=slow_query_threshold_s)
        self._trace_rng = random.Random()
        self.stats = ServerStats()
        self.series = StatsTimeSeries()
        GC_WATCH.install()
        #: The serving :class:`~repro.net.server.ConnectionRegistry`
        #: (``/stats`` → ``connections``); set by the HTTP server that
        #: binds this app, None under a foreign WSGI container.
        self.connections = None
        # Admission state: requests holding a worker slot (``_in_flight``)
        # and waiting for one (``_queued``), under one lock; a waiter
        # sleeps on the condition until a release frees a slot.
        self._admission = threading.Lock()
        self._slots = threading.Condition(self._admission)
        self._queued = 0
        self._in_flight = 0
        # Suggestion-API sessions: token -> activity counters, bounded
        # (oldest-evicted) so an unauthenticated client cannot grow
        # server memory by minting tokens.
        self._sessions: Dict[str, Dict[str, int]] = {}
        self._sessions_lock = threading.Lock()
        self.max_sessions = 1024

    # ------------------------------------------------------------------
    # WSGI entry point
    # ------------------------------------------------------------------

    def __call__(self, environ, start_response: StartResponse) -> Iterable[bytes]:
        path = environ.get("PATH_INFO", "/") or "/"
        method = environ.get("REQUEST_METHOD", "GET").upper()

        if self.worker_id is not None:
            # Stamp every response — including errors — with this
            # worker's id so clients can attribute load spreading.
            original = start_response

            def start_response(status, headers, _orig=original):  # type: ignore[misc]
                return _orig(status, list(headers)
                             + [(WORKER_HEADER, self.worker_id)])

        if path == "/health":
            in_flight, queued = self._gauges()
            body = {
                "status": "ok",
                "in_flight": in_flight,
                "queued": queued,
                "max_workers": self.max_workers,
                "queue_limit": self.queue_limit,
            }
            if self.worker_id is not None:
                body["worker"] = self.worker_id
            return self._json_response(start_response, 200, body)
        if path == "/stats":
            return self._json_response(start_response, 200, self._stats_body())
        if path == "/stats/slow":
            return self._json_response(start_response, 200,
                                       self.slow_log.snapshot())
        if path == "/stats/series":
            # Appending on GET makes the caller's polling tick the
            # sampling clock: no server-side timer thread to manage.
            points = self.series.sample(self._stats_body())
            return self._json_response(start_response, 200, {
                "points": points,
                "max_points": self.series.max_points,
            })
        suggestion = path in ("/complete", "/suggest")
        if suggestion and method != "POST":
            return self._error(start_response, 405,
                               "use POST with a JSON body",
                               extra_headers=[("Allow", "POST")])
        if not suggestion and path not in ("/", "/sparql"):
            return self._error(start_response, 404, f"no such resource: {path}")
        if method not in ("GET", "POST"):
            return self._error(start_response, 405,
                               "use GET ?query= or POST a query",
                               extra_headers=[("Allow", "GET, POST")])

        started = time.perf_counter()
        try:
            if suggestion:
                status, headers, payload, rows = self._handle_suggestion(path, environ)
            else:
                status, headers, payload, rows = self._handle_query(environ, method)
        except _HttpFail as fail:
            status, payload, rows = fail.status, _error_body(fail.status, str(fail)), 0
            headers = _json_headers(retry_after=status == 503)
        self.stats.record(status, time.perf_counter() - started, rows=rows,
                          route=path.lstrip("/") or "sparql")
        headers.setdefault("Content-Length", str(len(payload)))
        start_response(_STATUS_LINES[status], list(headers.items()))
        return [payload]

    def _gauges(self) -> Tuple[int, int]:
        """``(in_flight, queued)`` read under one lock acquisition.

        Bare attribute reads could interleave with an admission in
        progress and report a request in neither gauge; the replay
        harness reconciles against these numbers, so they must be a
        consistent pair.
        """
        with self._admission:
            return self._in_flight, self._queued

    def stats_body(self) -> Dict[str, object]:
        """Public form of the ``/stats`` document (pre-fork workers ship
        this over their control pipe for the coordinator's merged view)."""
        return self._stats_body()

    def _stats_body(self) -> Dict[str, object]:
        """The ``/stats`` document: counters + gauges + cache + sessions.

        Counters come from one :meth:`ServerStats.snapshot` (a single
        lock acquisition — never torn per-field reads) and the admission
        gauges from one :meth:`_gauges` read, so a ``/stats`` poll taken
        mid-load is internally consistent.
        """
        body = self.stats.snapshot()
        in_flight, queued = self._gauges()
        body["in_flight"] = in_flight
        body["queued"] = queued
        body["max_workers"] = self.max_workers
        body["queue_limit"] = self.queue_limit
        if self.worker_id is not None:
            body["worker"] = self.worker_id
        with self._sessions_lock:
            body["sessions"] = len(self._sessions)
            body["session_activity"] = sum(
                sum(counters.values()) for counters in self._sessions.values()
            )
        shards = self._shard_depths()
        if shards is not None:
            body["shards"] = {"n_shards": len(shards), "depths": shards}
        cache = getattr(self.suggester, "cache", None)
        lookup_stats = getattr(cache, "lookup_stats", None)
        if lookup_stats is not None:
            body["cache"] = lookup_stats()
        body["formats"] = memo_stats()
        body["gc"] = GC_WATCH.snapshot()
        if self.connections is not None:
            body["connections"] = self.connections.snapshot()
        counters = getattr(self.backend, "counters", None)
        if counters is not None:
            # A federation backend: queries, single-source pushes,
            # fallbacks, member requests and swallowed member errors.
            body["federation"] = counters.snapshot()
        # Summary only — full traces live under GET /stats/slow.
        slow = self.slow_log.snapshot()
        body["slow_queries"] = {
            "entries": len(slow["entries"]),  # type: ignore[arg-type]
            "slow_count": slow["slow_count"],
            "offered": slow["offered"],
            "threshold_s": slow["threshold_s"],
            "sample_rate": self.trace_sample_rate,
        }
        return body

    def _shard_depths(self) -> Optional[List[int]]:
        """Per-shard triple counts when the backend's store is sharded.

        Duck-typed like the planner's shard detection: any backend whose
        store exposes ``shard_sizes()`` (one endpoint, or the first
        member of a federation) contributes its depths to ``/stats``.
        """
        candidates = [self.backend]
        candidates.extend(getattr(self.backend, "endpoints", None) or ())
        for candidate in candidates:
            store = getattr(candidate, "store", None)
            sizes = getattr(getattr(store, "backend", None),
                            "shard_sizes", None)
            if sizes is not None:
                return sizes()
        return None

    # ------------------------------------------------------------------
    # Query handling
    # ------------------------------------------------------------------

    def _handle_query(
        self, environ, method: str
    ) -> Tuple[int, Dict[str, str], bytes, int]:
        text, explain, analyze = self._extract_query(environ, method)
        if text is None:
            raise _HttpFail(400, "missing required 'query' parameter")

        if explain and not analyze:
            return self._handle_explain(text)

        mime = writer = None
        if not analyze:
            try:
                mime, writer = negotiate(environ.get("HTTP_ACCEPT"))
            except NotAcceptable as exc:
                raise _HttpFail(406, str(exc)) from exc

        try:
            parsed = parse_query(text)
        except SparqlError as exc:
            raise _HttpFail(400, f"parse error: {exc}") from exc

        # ANALYZE *executes*, so unlike EXPLAIN it goes through the same
        # admission control and deadline as any query.
        result, trace_doc = self._admitted(
            environ, text, analyze, "sparql",
            lambda tracer: self.backend.run(parsed, tracer=tracer))
        rows = len(result.rows) if isinstance(result, SelectResult) else 0

        if analyze:
            from ..eval.reporting import format_trace

            payload = (format_trace(trace_doc) + "\n").encode("utf-8")
            return 200, {"Content-Type": "text/plain; charset=utf-8"}, payload, rows

        try:
            payload = writer(result).encode("utf-8")
        except Exception as exc:  # noqa: BLE001 — malformed backend result
            raise _HttpFail(500, f"result serialization failed: "
                                 f"{type(exc).__name__}: {exc}") from exc
        headers = {"Content-Type": f"{mime}; charset=utf-8"}
        if isinstance(result, SelectResult) and result.truncated:
            # The W3C result formats carry no truncation marker, but
            # the endpoint's row cap must stay visible to clients —
            # HttpSparqlEndpoint restores the flag from this header.
            headers["X-Result-Truncated"] = "true"
        return 200, headers, payload, rows

    def _admitted(self, environ, text: str, analyze: bool, route: str,
                  run: Callable[[Optional[Tracer]], object]) -> Tuple[object, Optional[Dict]]:
        """``run(tracer)`` in a worker slot: the one admission path of
        ``/sparql``, ``/complete`` and ``/suggest``.

        Decides tracing, claims a slot — 503 when the pool and queue are
        full, or when the wait reached the deadline — keeps the in-flight
        gauge, maps the backend's failures to 503/504/400/500 (raised as
        :class:`_HttpFail`), releases the slot, and offers a finished
        trace to the slow-query log.  Returns ``(result, trace document
        or None)``.
        """
        tracer = self._maybe_tracer(environ, text, analyze)
        self._admit()
        try:
            result = run(tracer)
        except _HttpFail:
            raise
        except QueryRejected as exc:
            raise _HttpFail(503, str(exc)) from exc
        except EndpointTimeout as exc:
            raise _HttpFail(504, str(exc)) from exc
        except SparqlError as exc:
            raise _HttpFail(400, str(exc)) from exc
        except Exception as exc:  # noqa: BLE001 — a handler must not crash the server
            raise _HttpFail(500, f"{type(exc).__name__}: {exc}") from exc
        finally:
            with self._admission:
                self._in_flight -= 1
                if self._queued:
                    self._slots.notify()
        if tracer is None:
            return result, None
        trace = tracer.finish()
        trace_doc = trace.to_dict()
        self.slow_log.offer(text, trace.wall_ms / 1000.0, trace_doc, route=route)
        return result, trace_doc

    def _maybe_tracer(
        self, environ, text: str, analyze: bool
    ) -> Optional[Tracer]:
        """The tracing decision for one request.

        Traced when: ANALYZE was requested, an upstream trace id arrived
        (a federated caller is tracing — continue its trace id so the
        spans stitch), or the sample-rate coin flip wins.
        """
        inbound = (environ.get("HTTP_X_REPRO_TRACE_ID") or "").strip()
        if not (analyze or inbound or (
            self.trace_sample_rate > 0.0
            and self._trace_rng.random() < self.trace_sample_rate
        )):
            return None
        parent = (environ.get("HTTP_X_REPRO_PARENT_SPAN") or "").strip()
        return Tracer(inbound or None, parent_span_id=parent or None, query=text)

    # ------------------------------------------------------------------
    # Suggestion API (the Predictive User Model over HTTP)
    # ------------------------------------------------------------------

    def _handle_suggestion(
        self, path: str, environ
    ) -> Tuple[int, Dict[str, str], bytes, int]:
        if self.suggester is None:
            raise _HttpFail(
                404, "this endpoint has no predictive model: serve a "
                     "SapphireServer to enable /complete and /suggest")
        document = self._read_json_body(environ)

        session = document.get("session")
        if session is not None and not isinstance(session, str):
            raise _HttpFail(400, "'session' must be a string token")

        route = path[1:]
        snippet = document.get("query") or document.get("text") or ""
        run = self._run_complete if route == "complete" else self._run_suggest
        payload, _ = self._admitted(
            environ, snippet if isinstance(snippet, str) else "", False, route,
            lambda tracer: run(document, tracer))
        if session is not None:
            self._touch_session(session, route)
        return 200, {"Content-Type": _MIME_JSON_UTF8}, payload, 0

    def _run_complete(self, document: Dict, tracer: Optional[Tracer] = None) -> bytes:
        text = document.get("text")
        if not isinstance(text, str):
            raise _HttpFail(400, "missing required 'text' string")
        k = document.get("k")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
            raise _HttpFail(400, "'k' must be a positive integer")
        recent = document.get("recent")
        if recent is not None:
            if not isinstance(recent, list) or not all(
                isinstance(surface, str) for surface in recent
            ):
                raise _HttpFail(400, "'recent' must be a list of strings")
            recent = recent[-32:]  # bounded, like SapphireSession history
        return encode_completion(
            self.suggester.complete(text, k, tracer, boost_surfaces=recent))

    def _run_suggest(self, document: Dict, tracer: Optional[Tracer] = None) -> bytes:
        query = document.get("query")
        if not isinstance(query, str):
            raise _HttpFail(400, "missing required 'query' string")
        suggest = document.get("suggest", True)
        if not isinstance(suggest, bool):
            raise _HttpFail(400, "'suggest' must be a boolean")
        return dump_document(outcome_document(
            self.suggester.run_query(query, suggest=suggest, tracer=tracer)))

    def _read_json_body(self, environ) -> Dict:
        """The request body as a JSON object (suggestion routes)."""
        content_type = (environ.get("CONTENT_TYPE") or "").split(";")[0].strip().lower()
        if content_type not in (MIME_JSON_BODY, ""):
            raise _HttpFail(
                415, f"unsupported Content-Type {content_type!r}: "
                     f"use {MIME_JSON_BODY}")
        body = self._read_body(environ)
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpFail(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise _HttpFail(400, "request body must be a JSON object")
        return document

    def _read_body(self, environ) -> bytes:
        """The request body, as long as ``Content-Length`` claims."""
        claimed = environ.get("CONTENT_LENGTH") or "0"
        try:
            length = int(claimed)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpFail(400, f"malformed Content-Length {claimed!r}")
        if length > self.max_query_bytes:
            raise _HttpFail(413, f"request body exceeds {self.max_query_bytes} bytes")
        return environ["wsgi.input"].read(length) if length else b""

    def _touch_session(self, token: str, route: str) -> None:
        """Record one call against a session token (bounded table)."""
        with self._sessions_lock:
            counters = self._sessions.get(token)
            if counters is None:
                while len(self._sessions) >= self.max_sessions:
                    self._sessions.pop(next(iter(self._sessions)))
                counters = self._sessions[token] = {}
            counters[route] = counters.get(route, 0) + 1

    def session_counters(self, token: str) -> Dict[str, int]:
        """Activity counters for one session token (empty if unknown)."""
        with self._sessions_lock:
            return dict(self._sessions.get(token, ()))

    def _handle_explain(self, text: str) -> Tuple[int, Dict[str, str], bytes, int]:
        """EXPLAIN over the protocol: ``explain=true`` alongside the query.

        Estimation-only by the store's meter-free contract, so it
        bypasses admission control — an EXPLAIN can never occupy a
        worker slot or trip the deadline.  The plan travels as plain
        text, the same dump the in-process ``explain()`` surfaces
        return.
        """
        try:
            plan = self.backend.explain(text)
        except SparqlError as exc:
            raise _HttpFail(400, f"parse error: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 — a handler must not crash the server
            raise _HttpFail(500, f"{type(exc).__name__}: {exc}") from exc
        payload = plan.encode("utf-8")
        return 200, {"Content-Type": "text/plain; charset=utf-8"}, payload, 0

    @staticmethod
    def _flag(params: Dict[str, List[str]], name: str) -> bool:
        values = params.get(name)
        return bool(values) and values[0].strip().lower() in ("1", "true", "yes")

    def _extract_query(
        self, environ, method: str
    ) -> Tuple[Optional[str], bool, bool]:
        """The query text plus the EXPLAIN and ANALYZE request flags."""
        if method == "GET":
            params = parse_qs(environ.get("QUERY_STRING", ""))
            values = params.get("query")
            return (
                values[0] if values else None,
                self._flag(params, "explain"),
                self._flag(params, "analyze"),
            )

        content_type = (environ.get("CONTENT_TYPE") or "").split(";")[0].strip().lower()
        body = self._read_body(environ)
        try:
            decoded = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _HttpFail(400, f"request body is not valid UTF-8: {exc}") from exc
        if content_type == MIME_SPARQL_QUERY:
            return decoded or None, False, False
        if content_type in (MIME_FORM, ""):
            params = parse_qs(decoded)
            values = params.get("query")
            return (
                values[0] if values else None,
                self._flag(params, "explain"),
                self._flag(params, "analyze"),
            )
        raise _HttpFail(
            415, f"unsupported Content-Type {content_type!r}: "
                 f"use {MIME_FORM} or {MIME_SPARQL_QUERY}")

    def _admit(self) -> None:
        """Claim a worker slot, counted in flight at once: a 503 when the
        pool and queue are full, or when the wait for a slot reached the
        deadline (refused without a wait: the queue was full; refused
        after one: the wait ran out with the queue not full)."""
        with self._admission:
            queued_s = 0.0
            if self._in_flight >= self.max_workers:
                if self._queued >= self.queue_limit:
                    raise _HttpFail(503, "server overloaded: worker pool and queue are full")
                self._queued += 1
                self.stats.observe_queue(self._queued, self._in_flight)
                started = time.perf_counter()
                try:
                    # Cap the queue wait at the request deadline: waiting longer
                    # can only produce a response the client has given up on.
                    self._slots.wait_for(lambda: self._in_flight < self.max_workers,
                                         self.deadline_s)
                finally:
                    self._queued -= 1
                queued_s = time.perf_counter() - started
            free = self._in_flight < self.max_workers
            if not free or (self.deadline_s is not None and queued_s >= self.deadline_s):
                if free and self._queued:
                    self._slots.notify()  # the slot this request leaves is the next waiter's
                raise _HttpFail(503, f"queued {queued_s:.2f}s, past the {self.deadline_s:.2f}s deadline")
            self._in_flight += 1
            self.stats.observe_queue(self._queued, self._in_flight)

    # ------------------------------------------------------------------
    # Response helpers
    # ------------------------------------------------------------------

    def _json_response(self, start_response: StartResponse, status: int,
                       body: Dict[str, object]) -> Iterable[bytes]:
        payload = json.dumps(body).encode("utf-8")
        start_response(_STATUS_LINES[status], list(_json_headers(len(payload)).items()))
        return [payload]

    def _error(self, start_response: StartResponse, status: int, message: str,
               extra_headers: Optional[List[Tuple[str, str]]] = None) -> Iterable[bytes]:
        payload = _error_body(status, message)
        headers = list(_json_headers(len(payload)).items()) + (extra_headers or [])
        start_response(_STATUS_LINES[status], headers)
        return [payload]


def _default_deadline(backend) -> Optional[float]:
    """A request deadline inferred from the backend's endpoint config(s).

    A bare endpoint contributes its own ``EndpointConfig.timeout_s``; a
    federation contributes the largest member timeout (one federated
    query fans out into several sub-queries, so any single member's
    budget is a floor, not a cap).  Returns None when nothing is
    configured — queue waits are then unbounded by deadline.
    """
    timeout = getattr(getattr(backend, "config", None), "timeout_s", None)
    if isinstance(timeout, (int, float)):
        return float(timeout)
    member_timeouts = [
        getattr(getattr(member, "config", None), "timeout_s", None)
        for member in getattr(backend, "endpoints", None) or ()
    ]
    member_timeouts = [t for t in member_timeouts if isinstance(t, (int, float))]
    if member_timeouts:
        return float(max(member_timeouts))
    return None


class _HttpFail(Exception):
    """Internal: abort request processing with a specific HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_headers(length: Optional[int] = None,
                  retry_after: bool = False) -> Dict[str, str]:
    headers = {"Content-Type": _MIME_JSON_UTF8}
    if length is not None:
        headers["Content-Length"] = str(length)
    if retry_after:
        headers["Retry-After"] = "1"
    return headers


def _error_body(status: int, message: str) -> bytes:
    """The JSON error document used for every non-200 response."""
    return json.dumps(
        {"error": {"status": status, "message": message}}
    ).encode("utf-8")
