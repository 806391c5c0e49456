"""Failure-injection tests: flaky endpoints, exhausted budgets, bad input.

The paper's setting is adversarial by nature — remote endpoints time out,
reject queries and truncate results.  These tests verify that every layer
degrades instead of breaking.
"""

import pytest

from repro.core import SapphireConfig, initialize_endpoint
from repro.data import DatasetConfig, build_dataset
from repro.endpoint import EndpointConfig, EndpointTimeout, SparqlEndpoint
from repro.federation import FederatedQueryProcessor
from repro.rdf import DBO, DBR, Literal, RDF_TYPE, Triple, TriplePattern, Variable
from repro.store import TripleStore


class FlakyEndpoint(SparqlEndpoint):
    """Times out every ``period``-th query regardless of cost."""

    def __init__(self, store, period=3, **kwargs):
        super().__init__(store, EndpointConfig(timeout_s=1.0), **kwargs)
        self._period = period
        self._calls = 0

    def _run(self, query, tracer=None):
        self._calls += 1
        if self._calls % self._period == 0:
            self._record("<flaky>", "timeout", 0, 1.0)
            raise EndpointTimeout(f"{self.name}: injected timeout")
        return super()._run(query, tracer)


@pytest.fixture
def flaky_dataset():
    return build_dataset(DatasetConfig.tiny())


class TestInitializationUnderFailure:
    def test_flaky_endpoint_still_yields_cache(self, flaky_dataset):
        endpoint = FlakyEndpoint(flaky_dataset.store, period=4, name="flaky")
        cache, report = initialize_endpoint(
            endpoint, SapphireConfig(suffix_tree_capacity=300)
        )
        assert report.n_timeouts > 0
        assert cache.n_predicates > 0
        assert cache.n_literals > 0
        assert cache.is_indexed

    def test_always_failing_endpoint_gives_empty_cache(self, flaky_dataset):
        endpoint = FlakyEndpoint(flaky_dataset.store, period=1, name="dead")
        cache, report = initialize_endpoint(endpoint)
        assert cache.n_predicates == 0
        assert cache.n_literals == 0
        # Still indexed (empty) and usable.
        assert cache.is_indexed

    def test_zero_query_budget(self, flaky_dataset):
        endpoint = SparqlEndpoint(flaky_dataset.store, EndpointConfig(timeout_s=1.0))
        cache, report = initialize_endpoint(
            endpoint, SapphireConfig(init_query_limit=0)
        )
        assert report.total_queries == 0
        assert report.query_limit_hit


class TestFederationUnderFailure:
    def test_flaky_member_does_not_lose_other_answers(self, flaky_dataset):
        healthy = SparqlEndpoint(
            flaky_dataset.store, EndpointConfig.warehouse(), name="healthy"
        )
        dead_store = TripleStore()
        dead_store.add(Triple(DBR.term("X"), RDF_TYPE, DBO.Person))
        flaky = FlakyEndpoint(dead_store, period=1, name="flaky")
        federation = FederatedQueryProcessor([healthy, flaky])
        result = federation.select(
            'SELECT ?w { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
        )
        assert len(result) == 1

    def test_all_members_failing_returns_empty(self, flaky_dataset):
        flaky = FlakyEndpoint(flaky_dataset.store, period=1, name="flaky")
        federation = FederatedQueryProcessor([flaky])
        result = federation.select("SELECT ?s { ?s a dbo:Person }")
        assert len(result) == 0


class TestQsmUnderFailure:
    def test_relaxation_with_impossible_budget(self, server):
        """A one-query budget cannot even expand a literal pair."""
        import dataclasses

        from repro.core import StructureRelaxer
        from repro.sparql.serializer import select_query

        config = dataclasses.replace(server.config, relaxation_query_budget=0)
        relaxer = StructureRelaxer(server.cache, server._run_ast, config)
        query = select_query([
            TriplePattern(Variable("b"), DBO.term("writer"), Literal("Jack Kerouac", lang="en")),
            TriplePattern(Variable("b"), DBO.publisher, Literal("Viking Press", lang="en")),
        ])
        assert relaxer.relax(query) == []

    def test_suggestions_with_unknown_terms_everywhere(self, server):
        """A query made of terms the cache has never seen produces no
        suggestions but must not crash."""
        from repro.core import QueryBuilder

        builder = (QueryBuilder()
                   .triple(Variable("x"), DBO.term("zzzzz"),
                           Literal("qqqq wwww eeee", lang="en")))
        outcome = server.run_query(builder)
        assert not outcome.has_answers
        assert outcome.term_suggestions == []
        assert outcome.relaxations == []


class TestReplayChaos:
    """save_state/restart mid-replay: clients degrade cleanly and the
    request ledger still reconciles against both server incarnations."""

    def _stack(self, dataset, tmp_path=None):
        from repro.core import SapphireServer
        from repro.net import SparqlHttpServer

        sapphire = SapphireServer(
            SapphireConfig(suffix_tree_capacity=300)
        )
        endpoint = SparqlEndpoint(
            dataset.store, EndpointConfig.warehouse(), name="chaos"
        )
        sapphire.register_endpoint(endpoint)
        return sapphire, SparqlHttpServer(sapphire).start()

    def test_restart_mid_replay_reconciles(self, flaky_dataset, tmp_path):
        from repro.core import SapphireConfig as SC, SapphireServer
        from repro.eval.replay import (
            ReplayConfig,
            ReplayLedger,
            generate_scripts,
            replay_session,
        )
        from repro.net import SparqlHttpServer, fetch_stats, route_deltas

        scripts = generate_scripts(ReplayConfig(seed=5, n_sessions=6))
        ledger = ReplayLedger()

        # Phase 1: two sessions against the first server incarnation.
        sapphire_a, http_a = self._stack(flaky_dataset)
        for script in scripts[:2]:
            replay_session(script, http_a.url, ledger)
        stats_a = fetch_stats(http_a.url)
        sapphire_a.save_state(tmp_path)
        dead_url = http_a.url
        http_a.stop()

        # Phase 2: the server is down.  Every request fails *cleanly* —
        # ConnectionFailed, no hang, no crash — and the ledger books the
        # whole session as unreachable (the server never saw it).
        before_unreachable = ledger.total("unreachable")
        replay_session(scripts[2], dead_url, ledger)
        unreachable = ledger.total("unreachable") - before_unreachable
        assert unreachable == len(scripts[2].events)
        assert ledger.total("ok") + ledger.total("unreachable") == ledger.attempts

        # Phase 3: restore from the saved state and finish the replay.
        sapphire_b = SapphireServer.load_state(
            tmp_path, SC(suffix_tree_capacity=300)
        )
        http_b = SparqlHttpServer(sapphire_b).start()
        try:
            for script in scripts[3:]:
                replay_session(script, http_b.url, ledger)
            stats_b = fetch_stats(http_b.url)
        finally:
            http_b.stop()

        # The restored cache still serves the PUM: post-restart sessions
        # completed fully (every event of sessions 3-5 got a 200).
        later_events = sum(len(s.events) for s in scripts[3:])
        assert stats_b["ok"] == later_events

        # Reconciliation across the restart: summing both incarnations'
        # per-route counters must match the ledger minus the unreachable
        # attempts — no request lost, none double-counted.
        empty = {"routes": {}}
        combined = {
            route: counts
            for route, counts in route_deltas(empty, stats_a).items()
        }
        for route, counts in route_deltas(empty, stats_b).items():
            if route in combined:
                combined[route] = {
                    key: combined[route][key] + value
                    for key, value in counts.items()
                }
            else:
                combined[route] = counts
        for route in ledger.routes:
            assert combined[route]["requests"] == ledger.server_visible(route)
            assert combined[route]["ok"] == ledger.routes[route]["ok"]
            assert combined[route]["rejected"] == ledger.routes[route]["rejected"]
        session_activity = (stats_a["session_activity"]
                           + stats_b["session_activity"])
        assert session_activity == ledger.session_ok_calls

    def test_down_server_raises_connection_failed(self, flaky_dataset):
        from repro.net import ConnectionFailed, HttpSapphireClient

        _, http = self._stack(flaky_dataset)
        url = http.url
        http.stop()
        client = HttpSapphireClient(url, max_retries=0, timeout_s=5.0)
        with pytest.raises(ConnectionFailed):
            client.complete("kenn", 5)

    def test_admission_pressure_books_as_rejected(self, flaky_dataset):
        """A tight server sheds replay load as 503s; the ledger books
        them as `rejected` and the server's counter agrees exactly."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import SapphireServer
        from repro.eval.replay import ReplayConfig, ReplayLedger, generate_scripts, replay_session
        from repro.net import SparqlHttpServer, fetch_stats

        sapphire = SapphireServer(
            SapphireConfig(suffix_tree_capacity=300)
        )
        endpoint = SparqlEndpoint(
            flaky_dataset.store, EndpointConfig.warehouse(), name="tight"
        )
        sapphire.register_endpoint(endpoint)
        http = SparqlHttpServer(sapphire, max_workers=1, queue_limit=0).start()
        try:
            scripts = generate_scripts(ReplayConfig(seed=9, n_sessions=8))
            ledgers = [ReplayLedger() for _ in scripts]
            with ThreadPoolExecutor(max_workers=len(scripts)) as pool:
                list(pool.map(
                    lambda pair: replay_session(pair[0], http.url, pair[1]),
                    zip(scripts, ledgers),
                ))
            merged = ReplayLedger()
            for ledger in ledgers:
                merged.merge(ledger)
            stats = fetch_stats(http.url)
            # Every attempt is accounted for: served or cleanly 503'd.
            assert merged.total("unreachable") == 0
            assert (merged.total("ok") + merged.total("rejected")
                    == merged.attempts)
            assert stats["ok"] == merged.total("ok")
            assert stats["rejected"] == merged.total("rejected")
            assert stats["requests"] == merged.attempts
        finally:
            http.stop()


class TestBadInput:
    def test_server_rejects_malformed_sparql(self, server):
        from repro.sparql import ParseError

        with pytest.raises(ParseError):
            server.run_query("SELEKT ?x WHERE { }")

    def test_completion_of_whitespace(self, server):
        assert server.complete("   ").surfaces() == []

    def test_completion_of_very_long_string(self, server):
        assert server.complete("x" * 500).surfaces() == []

    def test_empty_query_builder(self, server):
        """SPARQL: an empty group pattern yields one empty solution."""
        from repro.core import QueryBuilder

        outcome = server.run_query(QueryBuilder(), suggest=False)
        assert outcome.answers.variables == []
        assert outcome.answers.rows in ([], [{}])
