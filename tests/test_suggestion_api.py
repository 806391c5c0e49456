"""The Predictive User Model as a servable subsystem (PR 5).

Four gates:

* **Backend parity** — QCM completions and QSM suggestions are identical
  whether the dataset sits on the memory backend or the SQLite backend.
* **Wire parity** — ``POST /complete`` over loopback HTTP returns
  *byte-identical* documents to the in-process canonical encoding, and
  ``/suggest`` round-trips the whole outcome (answers, suggestions,
  prefetched answers).
* **Batched probes** — one suggestion round issues at least 2x fewer
  endpoint requests batched than per-candidate, with identical
  suggestions (the CI benchmark gates the same bound over real HTTP).
* **Concurrency** — HTTP-driven ``/complete`` calls racing an index
  rebuild never corrupt the cache.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.core import ProbeBatcher, initialize_endpoint
from repro.core.probes import PROBE_VAR, build_probe_query
from repro.core.qcm import QueryCompletionModule
from repro.endpoint.endpoint import QueryRejected, QueryService
from repro.net import (
    HttpSapphireClient,
    SparqlHttpServer,
    completion_document,
    dump_document,
    fetch_stats,
    route_deltas,
)
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.ast_nodes import ValuesClause
from repro.sparql.parser import parse_query
from repro.sparql.serializer import serialize_query
from repro.store import TripleStore
from repro.store.sqlite_backend import SQLiteBackend

COMPLETE_TERMS = ["Kenn", "spou", "alma", "New", "Vik", "press", "j"]

SUGGEST_QUERIES = [
    'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }',
    'SELECT ?b WHERE { ?b dbo:wifes ?w . ?b foaf:name "Tom Hanks"@en }',
]


def build_sapphire(store):
    endpoint = SparqlEndpoint(store, EndpointConfig(timeout_s=5.0), name="mini")
    server = SapphireServer(SapphireConfig(suffix_tree_capacity=500))
    server.register_endpoint(endpoint)
    return server, endpoint


def refuse_batches(server):
    """Make every ``VALUES`` batch of a round fail before it is sent, so
    each candidate (and each seed expansion) runs on its own — the
    per-candidate Algorithm 2 loop, reached the way production reaches
    it: through a batch that failed."""

    def runner(query, tracer=None):
        if query.where.values:
            raise RuntimeError("batch refused")
        return server._run_ast(query, tracer)

    finder, relaxer = server.terms_finder, server.relaxer
    finder.runner = finder._batcher.runner = relaxer.runner = runner
    return server


def hold_proof_off(monkeypatch):
    """Every in-process member proves nothing, as a network one, so
    every candidate ships."""
    monkeypatch.setattr(SparqlEndpoint, "unproven", QueryService.unproven)


def suggestion_signature(outcome):
    return [
        (s.message(), s.n_answers, len(s.prefetched.rows) if s.prefetched else 0)
        for s in outcome.all_suggestions
    ]


# ----------------------------------------------------------------------
# Backend parity: memory vs SQLite
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sqlite_store(tiny_dataset):
    store = TripleStore(backend=SQLiteBackend(":memory:"))
    store.add_all(tiny_dataset.store.triples())
    yield store
    store.close()


class TestBackendParity:
    def test_qcm_same_suggestions_both_backends(self, tiny_dataset, sqlite_store):
        memory, _ = build_sapphire(tiny_dataset.store)
        sqlite, _ = build_sapphire(sqlite_store)
        for term in COMPLETE_TERMS:
            assert memory.complete(term).surfaces() == sqlite.complete(term).surfaces()

    def test_qsm_same_suggestions_both_backends(self, tiny_dataset, sqlite_store):
        memory, _ = build_sapphire(tiny_dataset.store)
        sqlite, _ = build_sapphire(sqlite_store)
        for query in SUGGEST_QUERIES:
            assert suggestion_signature(memory.run_query(query)) == \
                suggestion_signature(sqlite.run_query(query))


# ----------------------------------------------------------------------
# Batched VALUES probes
# ----------------------------------------------------------------------


class TestBatchedProbes:
    def test_batched_round_uses_at_least_2x_fewer_requests(self, tiny_dataset, monkeypatch):
        # The no-match proof would empty positions in both modes alike
        # (tests/test_probe_proof.py); this test measures batching.
        hold_proof_off(monkeypatch)
        batched_server, batched_ep = build_sapphire(tiny_dataset.store)
        classic_server, classic_ep = build_sapphire(tiny_dataset.store)
        refuse_batches(classic_server)
        for query in SUGGEST_QUERIES:
            parsed = parse_query(query)
            batched_ep.reset_log()
            batched_suggestions = batched_server.terms_finder.suggest(parsed)
            batched_requests = batched_ep.query_count
            classic_ep.reset_log()
            classic_suggestions = classic_server.terms_finder.suggest(parsed)
            classic_requests = classic_ep.query_count
            # Identical suggestions, at least 2x fewer endpoint requests.
            assert [s.message() for s in batched_suggestions] == \
                [s.message() for s in classic_suggestions]
            assert batched_requests * 2 <= classic_requests, (
                f"{query}: batched={batched_requests} classic={classic_requests}"
            )

    def test_batched_and_classic_full_outcomes_agree(self, tiny_dataset, monkeypatch):
        hold_proof_off(monkeypatch)
        batched_server, batched_ep = build_sapphire(tiny_dataset.store)
        classic_server, classic_ep = build_sapphire(tiny_dataset.store)
        refuse_batches(classic_server)
        for query in SUGGEST_QUERIES:
            batched_ep.reset_log()
            batched_outcome = batched_server.run_query(query)
            batched_requests = batched_ep.query_count
            classic_ep.reset_log()
            classic_outcome = classic_server.run_query(query)
            classic_requests = classic_ep.query_count
            assert suggestion_signature(batched_outcome) == \
                suggestion_signature(classic_outcome)
            # The whole round (terms + relaxation) still gets cheaper.
            assert batched_requests < classic_requests

    def test_probe_batcher_matches_per_candidate_execution(self, tiny_dataset):
        server, _ = build_sapphire(tiny_dataset.store)
        query = parse_query(SUGGEST_QUERIES[0])
        finder = server.terms_finder
        positions = finder.candidate_positions(query)
        assert positions, "expected candidates for the Kennedys query"
        batcher = ProbeBatcher(server._run_ast, server._unproven)
        for index, position, _, found in positions:
            candidates = [entry.term for entry, _ in found]
            grouped = batcher.run(query, index, position, candidates)
            assert grouped is not None
            for entry, _ in found:
                from repro.core.qsm_terms import _replace_term

                single = server._run_ast(
                    _replace_term(query, index, position, entry.term)
                )
                batch_result = grouped.get(entry.term)
                if single.rows:
                    assert batch_result is not None
                    assert sorted(map(repr, batch_result.rows)) == \
                        sorted(map(repr, single.rows))
                else:
                    assert batch_result is None

    @staticmethod
    def deepcopied_probe(query, triple_index, position, candidates):
        """The reference: the probe as it was built before it shared
        structure with its query — a deep copy, edited in place."""
        import copy

        probe = copy.deepcopy(query)
        pattern = probe.where.patterns[triple_index]
        parts = {"subject": pattern.subject, "predicate": pattern.predicate,
                 "object": pattern.object}
        parts[position] = Variable(PROBE_VAR)
        probe.where.patterns[triple_index] = TriplePattern(**parts)
        probe.where.values.append(
            ValuesClause((PROBE_VAR,), tuple((term,) for term in candidates)))
        probe.select_items, probe.select_star, probe.distinct = [], True, False
        probe.order_by, probe.limit, probe.offset, probe.group_by = [], None, None, []
        return probe

    def test_shared_structure_probes_match_deepcopied_ones(self, server, gold_queries, probe_queries):
        """Byte-identical probes, and the query they are built from is
        left as it was: patterns, VALUES and modifiers."""
        import copy
        import re

        typos = []
        for gold in gold_queries:
            match = re.search(r"dbo:([A-Za-z]{5,})", gold)
            if match is not None:  # the ``probe_queries`` fixture's typo
                cut = match.start(1) + 2
                typos.append(gold[:cut] + gold[cut + 1:])
        # And one with VALUES, OPTIONAL and every modifier to leave alone.
        typos.append('SELECT DISTINCT ?p WHERE { ?p foaf:surname "Kennedys"@en . VALUES (?p) { (dbr:a) } '
                     "OPTIONAL { ?p dbo:spuse ?w } } ORDER BY ?p LIMIT 3 OFFSET 1")
        texts, of_last = [], 0
        for typo in typos:
            broken = parse_query(typo)
            before = copy.deepcopy(broken)
            positions = server.terms_finder.candidate_positions(broken)
            of_last = len(positions)
            for index, position, _, found in positions:
                candidates = [entry.term for entry, _ in found]
                probe = build_probe_query(broken, index, position, candidates)
                reference = self.deepcopied_probe(before, index, position, candidates)
                assert broken == before
                assert probe == reference and serialize_query(probe) == serialize_query(reference)
                texts.append(serialize_query(probe))
        assert of_last and len(probe_queries) == 180
        assert texts[:-of_last] == [serialize_query(probe) for probe in probe_queries]

    def test_suggestion_round_never_deep_copies(self, server, monkeypatch):
        import copy

        def refuse(*args, **kwargs):
            raise AssertionError("copy.deepcopy on the /suggest path")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        outcome = server.run_query(SUGGEST_QUERIES[0], suggest=True)
        assert any(s.replacement.lexical == "Kennedy" for s in outcome.term_suggestions)
        # The single-literal grounding of the relaxer builds a query too.
        grounded = server.run_query(
            'SELECT ?sci WHERE { ?sci dbo:almaMater "Princeton University"@en }', suggest=True)
        assert any(not r.tree_edges for r in grounded.relaxations)

    def test_aggregate_queries_fall_back_to_per_candidate(self, tiny_dataset):
        server, _ = build_sapphire(tiny_dataset.store)
        batcher = ProbeBatcher(server._run_ast, server._unproven)
        query = parse_query(
            'SELECT (COUNT(?p) AS ?n) WHERE { ?p foaf:surname "Kennedys"@en }'
        )
        from repro.rdf import Literal

        assert batcher.run(query, 0, "object", [Literal("Kennedy", lang="en")]) is None

    def test_explain_suggestions_shows_batched_plan(self, server):
        text = server.explain_suggestions(SUGGEST_QUERIES[0])
        assert "sapphire_probe" in text
        assert "ValuesScan" in text
        # One member: each probe ships whole, and the plan shown under
        # SingleSource is the member's own — no remote operators.
        assert "SingleSource(@" in text
        assert "RemoteBindJoin" not in text and "RemoteScan" not in text


# ----------------------------------------------------------------------
# Wire parity: the HTTP suggestion API
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def http_stack(server):
    with SparqlHttpServer(server) as http:
        yield server, http


class TestSuggestionApi:
    def test_complete_is_byte_identical_over_http(self, http_stack):
        sapphire, http = http_stack
        client = HttpSapphireClient(http.url, timeout_s=10.0)
        for term in COMPLETE_TERMS:
            for k in (3, 10):
                wire = client.complete_raw(term, k)
                local = dump_document(
                    completion_document(sapphire.complete(term, k))
                )
                assert wire == local

    def test_suggest_round_trips_the_outcome(self, http_stack):
        sapphire, http = http_stack
        client = HttpSapphireClient(http.url, timeout_s=30.0)
        for query in SUGGEST_QUERIES:
            remote = client.suggest(query)
            local = sapphire.run_query(query)
            assert len(remote.answers) == len(local.answers)
            assert [s.message() for s in remote.all_suggestions] == \
                [s.message() for s in local.all_suggestions]
            for remote_s, local_s in zip(remote.all_suggestions,
                                         local.all_suggestions):
                assert remote_s.n_answers == local_s.n_answers
                if local_s.prefetched is not None:
                    assert remote_s.prefetched is not None
                    assert len(remote_s.prefetched.rows) == \
                        len(local_s.prefetched.rows)

    def test_false_ask_is_repaired_over_http(self, http_stack):
        """A false ASK is repaired like a SELECT without rows: each
        suggestion comes back as an ASK, with the solutions of its
        SELECT form prefetched (the round used to be a 500)."""
        sapphire, http = http_stack
        query = 'ASK { ?s foaf:surname "Kennedys"@en }'
        remote = HttpSapphireClient(http.url, timeout_s=30.0).suggest(query)
        local = sapphire.run_query(query)
        assert remote.answers.value is False and not remote.has_answers
        assert [s.message() for s in remote.all_suggestions] == \
            [s.message() for s in local.all_suggestions]
        assert all(s.query.form == "ASK" for s in local.term_suggestions)
        fix = next(s for s in remote.term_suggestions if '"Kennedy"@en' in s.query_text)
        assert fix.query_text.startswith("ASK")
        assert fix.n_answers == len(fix.prefetched.rows) > 0

    def test_session_tokens_are_tracked(self, http_stack):
        _, http = http_stack
        client = HttpSapphireClient(http.url, session="alice", timeout_s=30.0)
        client.complete("Kenn")
        client.complete("spou")
        client.suggest(SUGGEST_QUERIES[0])
        assert http.app.session_counters("alice") == {"complete": 2, "suggest": 1}
        stats = http.app.stats.snapshot()
        assert stats  # /stats sees the session table through the app
        with urllib.request.urlopen(
            f"http://{http.host}:{http.port}/stats", timeout=10.0
        ) as response:
            document = json.load(response)
        assert document["sessions"] >= 1
        assert document["session_activity"] >= 3

    def test_suggestion_requests_count_in_stats(self, http_stack):
        _, http = http_stack
        before = http.app.stats.snapshot()["ok"]
        HttpSapphireClient(http.url, timeout_s=10.0).complete("Kenn")
        assert http.app.stats.snapshot()["ok"] == before + 1

    def test_recent_surfaces_boost_over_http(self, http_stack):
        sapphire, http = http_stack
        baseline = sapphire.complete("enn")
        if len(baseline) < 2:
            pytest.skip("needle serves fewer than 2 completions")
        target = baseline.surfaces()[-1]
        body = json.dumps({"text": "enn", "recent": [target]}).encode()
        request = urllib.request.Request(
            f"http://{http.host}:{http.port}/complete", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            wire = response.read()
        local = dump_document(completion_document(
            sapphire.complete("enn", boost_surfaces=[target])
        ))
        assert wire == local
        assert json.loads(wire)["completions"][0]["surface"] == target

    def test_stats_exposes_per_tier_cache_block(self, http_stack):
        _, http = http_stack
        HttpSapphireClient(http.url, timeout_s=10.0).complete("Kenn")
        with urllib.request.urlopen(
            f"http://{http.host}:{http.port}/stats", timeout=10.0
        ) as response:
            document = json.load(response)
        cache_block = document["cache"]
        for key in ("lookups", "tree_hits", "bin_hits", "index_hits",
                    "misses", "served", "tree_hit_rate", "bin_hit_rate",
                    "index_hit_rate", "index_surfaces", "index_bytes",
                    "index_fts", "window_rows_resident", "window_bin_loads"):
            assert key in cache_block, key
        assert cache_block["lookups"] >= 1
        assert cache_block["lookups"] == (
            cache_block["tree_hits"] + cache_block["bin_hits"]
            + cache_block["index_hits"] + cache_block["misses"]
        )

    # -- error paths ---------------------------------------------------

    def post_raw(self, http, route, body: bytes, content_type="application/json"):
        request = urllib.request.Request(
            f"http://{http.host}:{http.port}{route}",
            data=body, headers={"Content-Type": content_type}, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status
        except urllib.error.HTTPError as error:
            return error.code

    def test_missing_text_is_400(self, http_stack):
        _, http = http_stack
        assert self.post_raw(http, "/complete", b"{}") == 400

    def test_bad_k_is_400(self, http_stack):
        _, http = http_stack
        body = json.dumps({"text": "Kenn", "k": 0}).encode()
        assert self.post_raw(http, "/complete", body) == 400
        body = json.dumps({"text": "Kenn", "k": True}).encode()
        assert self.post_raw(http, "/complete", body) == 400

    def test_bad_recent_is_400(self, http_stack):
        _, http = http_stack
        body = json.dumps({"text": "Kenn", "recent": "Kennedy"}).encode()
        assert self.post_raw(http, "/complete", body) == 400
        body = json.dumps({"text": "Kenn", "recent": [1, 2]}).encode()
        assert self.post_raw(http, "/complete", body) == 400

    def test_non_json_body_is_400(self, http_stack):
        _, http = http_stack
        assert self.post_raw(http, "/complete", b"not json") == 400

    def test_wrong_content_type_is_415(self, http_stack):
        _, http = http_stack
        assert self.post_raw(http, "/complete", b"{}",
                             content_type="text/plain") == 415

    def test_get_is_405(self, http_stack):
        _, http = http_stack
        try:
            urllib.request.urlopen(
                f"http://{http.host}:{http.port}/complete", timeout=10.0)
            status = 200
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 405

    def test_parse_error_in_suggest_is_400(self, http_stack):
        _, http = http_stack
        body = json.dumps({"query": "SELEKT nope {{{"}).encode()
        assert self.post_raw(http, "/suggest", body) == 400
        # A call off its arity is a parse error too, not a 500.
        body = json.dumps(
            {"query": "SELECT * WHERE { ?s ?p ?o FILTER(strlen() > 2) }"}).encode()
        assert self.post_raw(http, "/suggest", body) == 400

    def test_plain_endpoint_has_no_suggestion_routes(self, tiny_dataset):
        endpoint = SparqlEndpoint(
            tiny_dataset.store, EndpointConfig.warehouse(), name="bare"
        )
        with SparqlHttpServer(endpoint) as http:
            body = json.dumps({"text": "Kenn"}).encode()
            assert self.post_raw(http, "/complete", body) == 404


# ----------------------------------------------------------------------
# Route parity across storage backends (served over HTTP)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def backend_http_stack(request, tiny_dataset):
    """The full served stack (Sapphire + HTTP) over each storage backend."""
    if request.param == "sqlite":
        store = TripleStore(backend=SQLiteBackend(":memory:"))
        store.add_all(tiny_dataset.store.triples())
    else:
        store = tiny_dataset.store
    sapphire, _ = build_sapphire(store)
    with SparqlHttpServer(sapphire) as http:
        yield request.param, sapphire, http
    if request.param == "sqlite":
        store.close()


class TestRoutesAcrossBackends:
    """``/complete`` and ``/suggest`` must serve identical answers no
    matter which backend holds the triples, and the session-token
    counters in ``/stats`` must reconcile exactly with what the driver
    actually sent — the same invariant the replay harness gates on."""

    def test_complete_route_parity(self, backend_http_stack):
        backend, sapphire, http = backend_http_stack
        client = HttpSapphireClient(http.url, timeout_s=30.0)
        for term in COMPLETE_TERMS:
            assert client.complete(term).surfaces() == \
                sapphire.complete(term).surfaces(), f"{backend}: {term}"

    def test_suggest_route_parity(self, backend_http_stack):
        backend, sapphire, http = backend_http_stack
        client = HttpSapphireClient(http.url, timeout_s=30.0)
        for query in SUGGEST_QUERIES:
            remote = client.suggest(query)
            local = sapphire.run_query(query)
            assert [s.message() for s in remote.all_suggestions] == \
                [s.message() for s in local.all_suggestions], backend

    def test_stats_session_counters_match_driver(self, backend_http_stack):
        backend, _, http = backend_http_stack
        session = f"driver-{backend}"
        before = fetch_stats(http.url)
        client = HttpSapphireClient(http.url, session=session, timeout_s=30.0)
        driver = {"complete": 0, "suggest": 0}
        for term in COMPLETE_TERMS[:4]:
            client.complete(term)
            driver["complete"] += 1
        client.suggest(SUGGEST_QUERIES[0])
        driver["suggest"] += 1
        after = fetch_stats(http.url)
        # Per-session token counters: exactly what the driver issued.
        assert http.app.session_counters(session) == driver
        # The aggregate activity gauge moved by the same amount...
        assert after["session_activity"] - before["session_activity"] == \
            sum(driver.values())
        # ...and each call was booked on its own route.
        deltas = route_deltas(before, after)
        assert deltas["complete"]["ok"] == driver["complete"]
        assert deltas["suggest"]["ok"] == driver["suggest"]

    def test_stats_federation_block_counts_member_requests(self, backend_http_stack):
        """``/stats`` serves the processor's counters: one member and no
        failure, so every query (a Run click, a probe, a relaxation)
        shipped whole — as many pushes and member requests as queries."""
        _, sapphire, http = backend_http_stack
        before = fetch_stats(http.url)["federation"]
        HttpSapphireClient(http.url, timeout_s=30.0).suggest(SUGGEST_QUERIES[1])
        urllib.request.urlopen(
            http.url + "?query=ASK%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D", timeout=30.0
        ).read()
        after = fetch_stats(http.url)["federation"]
        assert after == sapphire.federation.counters.snapshot()
        assert set(after) == {"queries", "single_source", "fallbacks",
                              "subqueries", "member_errors"}
        sent = after["queries"] - before["queries"]
        assert sent > 2  # the query, its probes and relaxations, the ASK
        assert after["single_source"] - before["single_source"] == sent
        assert after["subqueries"] - before["subqueries"] == sent
        assert after["fallbacks"] == after["member_errors"] == 0


# ----------------------------------------------------------------------
# Initialization retry path
# ----------------------------------------------------------------------


class FlakyRejectingEndpoint(SparqlEndpoint):
    """Rejects the first ``flake_per_query`` attempts of every distinct
    query — the 503-storm shape a public endpoint shows under load."""

    def __init__(self, store, flake_per_query=1, **kwargs):
        super().__init__(store, EndpointConfig(timeout_s=5.0), **kwargs)
        self._flakes = {}
        self._flake_per_query = flake_per_query

    def _run(self, parsed, text, tracer=None):
        key = id(parsed) if text is None else text
        seen = self._flakes.get(key, 0)
        if seen < self._flake_per_query:
            self._flakes[key] = seen + 1
            self._record("<flaky>", "rejected", 0, 0.0)
            raise QueryRejected(f"{self.name}: injected 503")
        return super()._run(parsed, text, tracer)


class TestInitializationRetries:
    def test_rejections_are_retried_and_recovered(self, tiny_dataset, monkeypatch):
        from repro.core import initialization
        from repro.core.initialization import EndpointInitializer

        monkeypatch.setattr(initialization, "INIT_RETRY_REJECTED", 2)
        endpoint = FlakyRejectingEndpoint(tiny_dataset.store, name="flaky503")
        config = SapphireConfig(suffix_tree_capacity=300)
        initializer = EndpointInitializer(endpoint, config, sleep=lambda s: None)
        cache = initializer.run()
        report = initializer.report
        assert cache.n_predicates > 0
        assert cache.n_literals > 0
        assert report.n_retries > 0
        assert report.n_rejected > 0
        # Every attempt is visible in both ledgers.
        assert report.total_queries == endpoint.query_count

    def test_without_retries_a_503_aborts_the_stage(self, tiny_dataset, monkeypatch):
        from repro.core import initialization

        monkeypatch.setattr(initialization, "INIT_RETRY_REJECTED", 0)
        endpoint = FlakyRejectingEndpoint(tiny_dataset.store, name="flaky503")
        config = SapphireConfig(suffix_tree_capacity=300)
        cache, report = initialize_endpoint(endpoint, config)
        # Q1 is rejected once and never retried: no predicates survive.
        assert cache.n_predicates == 0
        assert report.n_retries == 0

    def test_stages_recorded_for_full_run(self, tiny_dataset):
        endpoint = SparqlEndpoint(
            tiny_dataset.store, EndpointConfig(timeout_s=5.0), name="ok"
        )
        _, report = initialize_endpoint(
            endpoint, SapphireConfig(suffix_tree_capacity=300)
        )
        assert report.stages_completed == [
            "predicates", "hierarchy", "probes", "literals", "significance",
        ]

    def test_partial_progress_recorded_when_budget_dies(self, tiny_dataset):
        endpoint = SparqlEndpoint(
            tiny_dataset.store, EndpointConfig(timeout_s=5.0), name="ok"
        )
        _, report = initialize_endpoint(
            endpoint,
            SapphireConfig(suffix_tree_capacity=300, init_query_limit=20),
        )
        assert report.query_limit_hit
        assert "predicates" in report.stages_completed
        assert "significance" not in report.stages_completed


# ----------------------------------------------------------------------
# Thread safety: concurrent completion vs index rebuild
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_complete_and_rebuild(self, tiny_dataset):
        server, _ = build_sapphire(tiny_dataset.store)
        qcm = QueryCompletionModule(server.cache, server.config)
        expected = {term: qcm.complete(term).surfaces() for term in COMPLETE_TERMS}
        errors = []
        stop = threading.Event()

        def complete_worker():
            try:
                while not stop.is_set():
                    for term in COMPLETE_TERMS:
                        result = qcm.complete(term).surfaces()
                        assert result == expected[term]
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        def rebuild_worker():
            try:
                for _ in range(10):
                    server.cache.build_indexes()
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        workers = [threading.Thread(target=complete_worker) for _ in range(4)]
        rebuilder = threading.Thread(target=rebuild_worker)
        for worker in workers:
            worker.start()
        rebuilder.start()
        rebuilder.join(timeout=30.0)
        stop.set()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not errors

    def test_concurrent_http_complete(self, http_stack):
        _, http = http_stack
        client = HttpSapphireClient(http.url, timeout_s=30.0)
        expected = client.complete("Kenn").surfaces()
        results, errors = [], []

        def worker():
            try:
                results.append(client.complete("Kenn").surfaces())
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert all(result == expected for result in results)
