"""EXPLAIN ANALYZE: operator tracing, slow-query log, and propagation.

Covers the tracing subsystem end to end (docs/tracing.md):

* exact ``to_dict``/``from_dict``/JSON round-trips for :class:`Span`
  and :class:`QueryTrace` (the ``LatencyHistogram`` wire contract);
* operator spans on the batch path — per-operator wall time, rows,
  batches, est→actual — plus plan-cache hit/miss events;
* estimate freshness: ANALYZE re-resolves leaf estimates against
  generation-current store statistics after mutations;
* the ASCII trace renderer (:func:`repro.eval.reporting.format_trace`);
* the bounded :class:`~repro.net.metrics.SlowQueryLog`;
* the protocol surface: ``analyze=true``, ``GET /stats/slow``, the
  ``/stats`` summary block, and sampled tracing;
* distributed propagation: one federated query over three loopback
  HTTP servers produces a single stitched trace;
* QCM/QSM spans through ``SapphireServer.analyze``.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.eval.reporting import format_trace
from repro.federation.fedx import FederatedQueryProcessor
from repro.net.client import HttpSparqlEndpoint, fetch_slow_log
from repro.net.metrics import SlowQueryLog
from repro.net.server import SparqlHttpServer
from repro.rdf.terms import IRI
from repro.rdf.triples import Triple
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.trace import (
    MAX_CHILDREN,
    MAX_DEPTH,
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    QueryTrace,
    Span,
    Tracer,
)
from repro.store.triplestore import TripleStore
from repro.endpoint.endpoint import SparqlEndpoint


def _store(n: int = 30) -> TripleStore:
    store = TripleStore()
    for i in range(n):
        s = IRI(f"http://x/s{i}")
        store.add(Triple(s, IRI("http://x/p1"), IRI(f"http://x/a{i}")))
        store.add(Triple(s, IRI("http://x/p2"), IRI(f"http://x/b{i % 5}")))
        store.add(Triple(IRI(f"http://x/b{i % 5}"), IRI("http://x/p3"),
                         IRI("http://x/root")))
    return store


THREE_PATTERN = (
    "SELECT ?s ?a ?b WHERE { ?s <http://x/p1> ?a . ?s <http://x/p2> ?b . "
    "?b <http://x/p3> <http://x/root> }"
)


# ----------------------------------------------------------------------
# Wire round-trips
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_span_dict_round_trip_exact(self):
        span = Span("ab12cd34-1", "Scan(?s ?p ?o)", start_ms=0.125,
                    wall_ms=3.5, attrs={"est": 10, "rows": 7})
        span.children.append(Span("ab12cd34-2", "child", 0.5, 1.25))
        document = span.to_dict()
        assert Span.from_dict(document).to_dict() == document

    def test_empty_attrs_and_children_do_not_travel(self):
        document = Span("x-1", "leaf").to_dict()
        assert "attrs" not in document and "children" not in document
        restored = Span.from_dict(document)
        assert restored.attrs == {} and restored.children == []

    def test_trace_json_round_trip_exact(self):
        tracer = Tracer(query="SELECT * WHERE { ?s ?p ?o }")
        with tracer.span("plan", budget=100):
            tracer.event("plan-cache", hit=False)
        with tracer.span("exec") as span:
            span.attrs["rows"] = 42
        trace = tracer.finish()
        document = trace.to_dict()
        wire = json.loads(json.dumps(document))
        assert wire == document
        assert QueryTrace.from_dict(wire).to_dict() == document

    def test_random_traces_round_trip_exactly(self):
        # Property-style sweep: times snap to 3 decimals at finish(),
        # which is what makes float round-trips exact over JSON.
        rng = random.Random(2016)
        for _ in range(25):
            tracer = Tracer(query="q" * rng.randrange(0, 40))
            for _ in range(rng.randrange(1, 12)):
                depth = rng.randrange(0, 3)
                opened = []
                for level in range(depth):
                    ctx = tracer.span(f"s{level}", i=rng.randrange(100))
                    ctx.__enter__()
                    opened.append(ctx)
                tracer.event("e", flag=bool(rng.randrange(2)),
                             ratio=round(rng.random(), 3))
                for ctx in reversed(opened):
                    ctx.__exit__(None, None, None)
            document = tracer.finish().to_dict()
            wire = json.loads(json.dumps(document))
            assert QueryTrace.from_dict(wire).to_dict() == document

    def test_finish_is_idempotent_for_the_wire_form(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        first = tracer.finish().to_dict()
        again = tracer.finish().to_dict()
        assert again["spans"] == first["spans"]


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_stack_parents_nested_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("leaf")
        trace = tracer.finish()
        assert [s.name for s in trace.spans] == ["outer"]
        outer = trace.spans[0]
        assert [s.name for s in outer.children] == ["inner"]
        assert [s.name for s in outer.children[0].children] == ["leaf"]

    def test_depth_bound_drops_and_counts(self):
        tracer = Tracer(max_depth=2)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c") as span:
                    assert span is None
        trace = tracer.finish()
        assert trace.attrs["dropped_spans"] == 1
        assert MAX_DEPTH >= 2

    def test_children_bound_drops_and_counts(self):
        tracer = Tracer(max_children=3)
        for i in range(5):
            tracer.event(f"e{i}")
        trace = tracer.finish()
        assert len(trace.spans) == 3
        assert trace.attrs["dropped_spans"] == 2
        assert MAX_CHILDREN >= 3

    def test_span_ids_unique(self):
        tracer = Tracer()
        for i in range(10):
            tracer.event(f"e{i}")
        trace = tracer.finish()
        ids = [s.span_id for s in trace.walk()]
        assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Operator-level ANALYZE on the batch path
# ----------------------------------------------------------------------

class TestAnalyze:
    def test_three_pattern_join_records_operator_spans(self):
        evaluator = QueryEvaluator(_store())
        result, trace = evaluator.analyze(THREE_PATTERN)
        assert len(result.rows) == 30
        spans = list(trace.walk())
        names = [s.name for s in spans]
        assert any("Join" in n for n in names)
        assert sum("Scan(" in n for n in names) >= 3
        operator = [s for s in spans if "Scan(" in s.name]
        for span in operator:
            assert span.attrs["rows"] >= 0
            assert span.attrs["batches"] >= 1
            assert "est" in span.attrs
            assert span.wall_ms >= 0.0
        assert trace.wall_ms >= max(s.wall_ms for s in spans)
        assert "cost" in trace.attrs

    def test_plan_cache_events(self):
        from repro.sparql.parser import parse_query

        evaluator = QueryEvaluator(_store())
        # The plan cache keys on the parsed group object, so reuse it.
        parsed = parse_query(THREE_PATTERN)
        _, first = evaluator.analyze(parsed)
        events = [s for s in first.walk() if s.name == "plan-cache"]
        assert events and events[0].attrs["hit"] is False
        _, second = evaluator.analyze(parsed)
        events = [s for s in second.walk() if s.name == "plan-cache"]
        assert events and all(e.attrs["hit"] is True for e in events)

    def test_untraced_evaluation_unchanged(self):
        from repro.sparql.parser import parse_query

        store = _store()
        plain = QueryEvaluator(store).evaluate(parse_query(THREE_PATTERN))
        traced, _ = QueryEvaluator(store).analyze(THREE_PATTERN)
        key = lambda rows: sorted(  # noqa: E731
            tuple(sorted((k, str(v)) for k, v in row.items())) for row in rows)
        assert key(plain.rows) == key(traced.rows)

    def test_estimates_refresh_after_store_mutation(self):
        from repro.sparql.parser import parse_query

        store = _store(10)
        evaluator = QueryEvaluator(store)
        query = parse_query("SELECT ?s ?a WHERE { ?s <http://x/p1> ?a }")
        evaluator.evaluate(query)  # plan now cached
        generation = store.generation
        for i in range(100, 140):
            store.add(Triple(IRI(f"http://x/s{i}"), IRI("http://x/p1"),
                             IRI(f"http://x/a{i}")))
        assert store.generation > generation
        result, trace = evaluator.analyze(query)
        scan = next(s for s in trace.walk() if s.name.startswith("Scan("))
        # est must describe the mutated store, not the plan-time stats.
        assert scan.attrs["est"] == 50
        assert scan.attrs["rows"] == len(result.rows) == 50

    def test_endpoint_analyze_and_explain(self):
        endpoint = SparqlEndpoint(_store())
        result, trace = endpoint.analyze(THREE_PATTERN)
        assert len(result.rows) == 30
        assert trace.wall_ms > 0.0
        text = endpoint.explain(THREE_PATTERN, analyze=True)
        assert "trace " in text and "rows=" in text
        # The plain explain stays execution-free and trace-free.
        assert "trace " not in endpoint.explain(THREE_PATTERN)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

class TestFormatTrace:
    def test_renders_tree_with_metrics(self):
        evaluator = QueryEvaluator(_store())
        _, trace = evaluator.analyze(THREE_PATTERN)
        rendered = format_trace(trace)
        lines = rendered.splitlines()
        assert lines[0].startswith(f"trace {trace.trace_id}")
        assert "ms]" in lines[0]
        assert any("rows=" in line and "est=" in line for line in lines)
        # est→actual ratio annotated on operator spans.
        assert any("x)" in line for line in lines)
        # Children indent below their parents.
        assert any(line.startswith("    ") for line in lines)

    def test_accepts_wire_dict(self):
        tracer = Tracer(query="SELECT 1")
        tracer.event("e")
        trace = tracer.finish()
        assert format_trace(trace.to_dict()) == format_trace(trace)


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------

class TestSlowQueryLog:
    def test_keeps_top_n_by_wall_time(self):
        log = SlowQueryLog(capacity=3, threshold_s=0.25)
        for i, wall in enumerate([0.1, 0.5, 0.05, 0.9, 0.3]):
            log.offer(f"q{i}", wall, {"trace_id": str(i), "wall_ms": 0.0,
                                      "spans": []})
        snapshot = log.snapshot()
        assert snapshot["offered"] == 5
        assert [e["wall_s"] for e in snapshot["entries"]] == [0.9, 0.5, 0.3]
        assert snapshot["slow_count"] == 3
        assert all(e["slow"] for e in snapshot["entries"])

    def test_query_text_truncated_and_route_kept(self):
        log = SlowQueryLog(capacity=2, threshold_s=10.0)
        log.offer("S" * 2000, 0.01, {"trace_id": "t", "wall_ms": 0.0,
                                     "spans": []}, route="suggest")
        entry = log.snapshot()["entries"][0]
        assert len(entry["query"]) == 500
        assert entry["route"] == "suggest"
        assert entry["slow"] is False

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


# ----------------------------------------------------------------------
# Protocol surface (in-process WSGI)
# ----------------------------------------------------------------------

def _call(app, method="GET", path="/sparql", qs="", body=b"",
          content_type="", headers=None):
    import io
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": qs,
        "CONTENT_TYPE": content_type,
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
    }
    environ.update(headers or {})
    captured = {}

    def start_response(status, response_headers):
        captured["status"] = int(status.split(" ")[0])
        captured["headers"] = dict(response_headers)

    payload = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], payload


class TestWsgiAnalyze:
    @pytest.fixture()
    def app(self):
        from repro.net.wsgi import SparqlWsgiApp

        return SparqlWsgiApp(SparqlEndpoint(_store()), trace_sample_rate=0.0)

    def test_analyze_returns_rendered_trace(self, app):
        from urllib.parse import urlencode

        status, headers, payload = _call(
            app, qs=urlencode({"query": THREE_PATTERN, "analyze": "true"}))
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = payload.decode()
        assert text.startswith("trace ") and "rows=" in text

    def test_analyze_feeds_slow_log_and_stats(self, app):
        from urllib.parse import urlencode

        _call(app, qs=urlencode({"query": THREE_PATTERN, "analyze": "1"}))
        status, _, payload = _call(app, path="/stats/slow")
        assert status == 200
        snapshot = json.loads(payload)
        assert snapshot["offered"] == 1
        entry = snapshot["entries"][0]
        assert entry["route"] == "sparql"
        assert entry["trace"]["spans"]
        _, _, stats = _call(app, path="/stats")
        summary = json.loads(stats)["slow_queries"]
        assert summary["offered"] == 1

    def test_untraced_request_skips_slow_log(self, app):
        from urllib.parse import urlencode

        status, _, _ = _call(app, qs=urlencode({"query": THREE_PATTERN}))
        assert status == 200
        assert app.slow_log.snapshot()["offered"] == 0

    def test_inbound_trace_header_continues_the_trace(self, app):
        from urllib.parse import urlencode

        _call(app, qs=urlencode({"query": THREE_PATTERN}),
              headers={"HTTP_X_REPRO_TRACE_ID": "feedface00000001",
                       "HTTP_X_REPRO_PARENT_SPAN": "abc-1"})
        snapshot = app.slow_log.snapshot()
        assert snapshot["offered"] == 1
        trace = snapshot["entries"][0]["trace"]
        assert trace["trace_id"] == "feedface00000001"
        assert trace["attrs"]["parent_span"] == "abc-1"

    def test_sample_rate_one_traces_every_request(self):
        from urllib.parse import urlencode

        from repro.net.wsgi import SparqlWsgiApp

        app = SparqlWsgiApp(SparqlEndpoint(_store()), trace_sample_rate=1.0)
        status, headers, _ = _call(app, qs=urlencode({"query": THREE_PATTERN}))
        assert status == 200
        # Sampled tracing must not change the response shape.
        assert headers["Content-Type"].startswith("application/sparql-results")
        assert app.slow_log.snapshot()["offered"] == 1

    def test_header_constants_match_the_wsgi_keys(self):
        assert TRACE_ID_HEADER == "X-Repro-Trace-Id"
        assert PARENT_SPAN_HEADER == "X-Repro-Parent-Span"


# ----------------------------------------------------------------------
# Distributed propagation over real sockets
# ----------------------------------------------------------------------

class TestDistributedTrace:
    @pytest.fixture()
    def loopback(self):
        specs = [("p1", "a"), ("p2", "b"), ("p3", "c")]
        servers = []
        sources = []
        for pred, prefix in specs:
            store = TripleStore()
            for i in range(8):
                store.add(Triple(IRI(f"http://x/s{i}"),
                                 IRI(f"http://x/{pred}"),
                                 IRI(f"http://x/{prefix}{i}")))
            server = SparqlHttpServer(SparqlEndpoint(store)).start()
            servers.append(server)
            sources.append(
                HttpSparqlEndpoint(server.url, name=f"ep-{pred}"))
        yield servers, sources
        for server in servers:
            server.stop()

    def test_federated_query_produces_one_stitched_trace(self, loopback):
        servers, sources = loopback
        fed = FederatedQueryProcessor(sources)
        query = ("SELECT ?s ?a ?b WHERE { ?s <http://x/p1> ?a . "
                 "?s <http://x/p2> ?b }")
        result, trace = fed.analyze(query)
        assert len(result.rows) == 8

        remote_docs = []
        for server in servers:
            for entry in server.slow_log.snapshot()["entries"]:
                remote_docs.append(entry["trace"])
        matching = [d for d in remote_docs if d["trace_id"] == trace.trace_id]
        # The two contributing endpoints each continued the trace id.
        assert len(matching) >= 2

        grafted = trace.stitch(remote_docs)
        assert grafted >= 2
        names = [s.name for s in trace.walk()]
        # Remote operator spans now hang under the local remote: spans.
        assert any(n.startswith("remote:") for n in names)
        assert sum(n.startswith("Scan(") for n in names) >= 2
        rendered = format_trace(trace)
        assert rendered.count("remote:") >= 2

    def test_slow_log_visible_over_http(self, loopback):
        servers, sources = loopback
        fed = FederatedQueryProcessor(sources)
        fed.analyze("SELECT ?s ?a WHERE { ?s <http://x/p1> ?a }")
        seen = 0
        for server in servers:
            snapshot = fetch_slow_log(server.url)
            seen += len(snapshot["entries"])
        assert seen >= 1


# ----------------------------------------------------------------------
# PUM spans (QCM completion + QSM suggestion round)
# ----------------------------------------------------------------------

class TestSapphireSpans:
    def test_complete_records_qcm_span(self, server):
        tracer = Tracer()
        server.complete("Ke", tracer=tracer)
        trace = tracer.finish()
        span = next(s for s in trace.walk() if s.name == "qcm-complete")
        assert span.attrs["chars"] == 2
        assert "completions" in span.attrs
        assert "tree_hit" in span.attrs

    def test_analyze_with_suggestions_records_qsm_phases(self, server):
        query = 'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }'
        outcome, trace = server.analyze(query, suggest=True)
        names = [s.name for s in trace.walk()]
        assert "qsm-terms" in names and "qsm-relax" in names
        terms = next(s for s in trace.walk() if s.name == "qsm-terms")
        assert "suggestions" in terms.attrs
        # Probe batches (when the round shipped any) nest under phases.
        probes = [s for s in trace.walk() if s.name == "qsm-probe-batch"]
        for probe in probes:
            assert probe.attrs["candidates"] >= 1

    def test_alternatives_span_accounts_for_the_scan(self, server):
        query = 'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }'
        _, trace = server.analyze(query, suggest=True)
        terms = next(s for s in trace.walk() if s.name == "qsm-terms")
        span = next(s for s in terms.children if s.name == "qsm-alternatives")
        attrs = span.attrs
        assert attrs["scanned"] == attrs["bounded_out"] + attrs["scored"]
        assert attrs["scanned"] > attrs["scored"] >= attrs["kept"] >= 1
        # One discovery per round: the relaxer is seeded from it.
        assert [s.name for s in trace.walk()].count("qsm-alternatives") == 1

    def test_concurrent_untraced_round_stays_out_of_the_trace(self, server, monkeypatch):
        """Handler threads share one finder and one batcher: a traced
        round records its own ``qsm-probe-batch`` spans, and an untraced
        round running inside it records none — in anyone's trace."""
        query = 'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }'
        batcher = server.terms_finder._batcher
        barrier = threading.Barrier(2, timeout=30)
        probes = {"traced": 0, "untraced": 0}
        run_probe = batcher.runner

        def synchronized_probe(probe):
            name = threading.current_thread().name
            probes[name] += 1
            if name == "traced" and probes[name] == 1:
                barrier.wait()  # let the untraced round start ...
                barrier.wait()  # ... and hold this probe open until it is done
            return run_probe(probe)

        monkeypatch.setattr(batcher, "runner", synchronized_probe)
        tracer = Tracer(query=query)

        def untraced_round():
            barrier.wait()
            try:
                server.run_query(query)
            finally:
                barrier.wait()

        threads = [
            threading.Thread(
                name="traced", target=server.run_query, args=(query,),
                kwargs={"tracer": tracer},
            ),
            threading.Thread(name="untraced", target=untraced_round),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        spans = [s for s in tracer.finish().walk() if s.name == "qsm-probe-batch"]
        assert probes["untraced"] >= 1
        assert len(spans) == probes["traced"] >= 1
