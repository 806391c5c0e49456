"""Session-replay harness: deterministic generation, the metrics layer,
and end-to-end reconciliation against a live HTTP server.

The acceptance bar for the harness is twofold:

* **Determinism** — two runs of :func:`generate_scripts` with the same
  :class:`ReplayConfig` produce *byte-identical* script JSON; the
  workload is part of the experiment's identity.
* **Reconciliation** — after a replay against a loopback server, inline
  or from spawned client processes, the client-side ledger and the
  server's per-route ``/stats`` deltas must agree exactly (requests,
  outcomes, rows, session tokens).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.eval.replay import (
    ReplayConfig,
    ReplayLedger,
    SessionScript,
    _classify,
    corrupt_literal,
    generate_scripts,
    reconcile,
    run_replay,
    scripts_from_json,
    scripts_to_json,
)
from repro.eval.reporting import format_route_series
from repro.net import SparqlHttpServer
from repro.net.client import ConnectionFailed
from repro.net.metrics import (
    BUCKET_BOUNDS_S,
    LatencyHistogram,
    ServerStats,
    StatsTimeSeries,
    route_deltas,
)

import random

CONFIG = ReplayConfig(seed=11, n_sessions=6)

#: Sustained-throughput floor of a replay from spawned client processes,
#: requests/second with spawn start-up included.  Loopback sustains
#: far more; the floor catches requests serialised behind one another.
MIN_RPS = 40.0


# ----------------------------------------------------------------------
# Deterministic generation
# ----------------------------------------------------------------------


class TestGeneration:
    def test_identical_seeds_are_byte_identical(self):
        first = scripts_to_json(generate_scripts(CONFIG), CONFIG)
        second = scripts_to_json(generate_scripts(CONFIG), CONFIG)
        assert first == second

    def test_different_seeds_differ(self):
        other = dataclasses.replace(CONFIG, seed=CONFIG.seed + 1)
        assert scripts_to_json(generate_scripts(CONFIG)) != \
            scripts_to_json(generate_scripts(other))

    def test_prefix_stability(self):
        """Adding sessions never perturbs earlier sessions — the master
        rng only derives seeds, it is not shared with session bodies."""
        short = generate_scripts(CONFIG)
        longer = generate_scripts(
            dataclasses.replace(CONFIG, n_sessions=CONFIG.n_sessions + 4))
        for a, b in zip(short, longer):
            assert a.to_dict() == b.to_dict()

    def test_script_shape(self):
        scripts = generate_scripts(CONFIG)
        assert len(scripts) == CONFIG.n_sessions
        assert len({s.session for s in scripts}) == CONFIG.n_sessions
        for script in scripts:
            offsets = [event["at"] for event in script.events]
            assert offsets == sorted(offsets), "timestamps must be monotone"
            counts = script.counts()
            # Every session composes (completes), runs the gold query
            # (suggest round) and closes with a plain protocol query.
            assert counts["complete"] >= 2
            assert counts["suggest"] >= 1
            assert counts["sparql"] == 1
            assert script.events[-1]["route"] == "sparql"

    def test_zipf_skew_repeats_popular_questions(self):
        scripts = generate_scripts(
            dataclasses.replace(CONFIG, n_sessions=40))
        qids = [script.qid for script in scripts]
        top = max(qids, key=qids.count)
        # Zipf s=1.1 over the study pool: the head question dominates.
        assert qids.count(top) >= 5

    def test_json_round_trip(self):
        scripts = generate_scripts(CONFIG)
        text = scripts_to_json(scripts, CONFIG)
        loaded = scripts_from_json(text)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in scripts]
        assert json.loads(text)["config"]["seed"] == CONFIG.seed

    def test_corrupt_literal_typos_exactly_one_word(self):
        rng = random.Random(3)
        query = 'SELECT ?p WHERE { ?p foaf:surname "Kennedy"@en }'
        broken = corrupt_literal(query, rng)
        assert broken is not None and broken != query
        assert '"Kennedy"@en' not in broken
        # Structure outside the literal is untouched.
        assert broken.startswith('SELECT ?p WHERE { ?p foaf:surname "')
        assert broken.endswith('"@en }')

    def test_corrupt_literal_without_literal_is_none(self):
        assert corrupt_literal("SELECT ?s WHERE { ?s a dbo:Person }",
                               random.Random(1)) is None


# ----------------------------------------------------------------------
# The metrics layer
# ----------------------------------------------------------------------


class TestLatencyHistogram:
    def test_percentile_within_bucket_error(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(0.050)
        assert histogram.percentile(0.5) == pytest.approx(0.050, rel=0.07)
        assert histogram.percentile(0.99) == pytest.approx(0.050, rel=0.07)

    def test_overflow_reports_observed_max(self):
        histogram = LatencyHistogram()
        histogram.record(500.0)  # beyond the 120s top bucket
        assert histogram.percentile(0.5) == 500.0

    def test_merge_equals_combined_recording(self):
        a, b, combined = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for seconds in (0.001, 0.010, 0.100):
            a.record(seconds)
            combined.record(seconds)
        for seconds in (0.002, 0.020, 0.200):
            b.record(seconds)
            combined.record(seconds)
        a.merge(b)
        assert a.to_dict() == combined.to_dict()

    def test_dict_round_trip_is_exact(self):
        histogram = LatencyHistogram()
        for index, seconds in enumerate((0.0001, 0.003, 0.4, 12.0, 300.0)):
            for _ in range(index + 1):
                histogram.record(seconds)
        restored = LatencyHistogram.from_dict(histogram.to_dict())
        assert restored.to_dict() == histogram.to_dict()
        assert restored.percentile(0.5) == histogram.percentile(0.5)

    def test_bounds_are_log_spaced(self):
        ratios = {round(b / a, 6) for a, b in
                  zip(BUCKET_BOUNDS_S, BUCKET_BOUNDS_S[1:])}
        assert len(ratios) == 1  # constant growth factor


class TestServerStats:
    def test_routes_are_independent(self):
        stats = ServerStats()
        stats.record(200, 0.010, rows=3, route="sparql")
        stats.record(503, 0.0001, route="complete")
        stats.record(504, 0.5, route="suggest")
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["ok"] == 1 and snapshot["rejected"] == 1
        assert snapshot["timeouts"] == 1
        assert snapshot["routes"]["sparql"]["rows_served"] == 3
        assert snapshot["routes"]["complete"]["rejected"] == 1
        assert snapshot["routes"]["suggest"]["timeouts"] == 1

    def test_queue_peaks_are_high_water_marks(self):
        stats = ServerStats()
        stats.observe_queue(2, 5)
        stats.observe_queue(1, 9)
        stats.observe_queue(4, 0)
        snapshot = stats.snapshot()
        assert snapshot["queued_peak"] == 4
        assert snapshot["in_flight_peak"] == 9


class TestStatsTimeSeries:
    def test_ring_drops_oldest(self):
        series = StatsTimeSeries(max_points=3, clock=lambda: 0.0)
        for index in range(5):
            series.sample({"tick_payload": index})
        payloads = [point["tick_payload"] for point in series.points()]
        assert payloads == [2, 3, 4]
        assert len(series) == 3

    def test_ticks_are_monotone(self):
        series = StatsTimeSeries(max_points=8, clock=lambda: 1.0)
        for _ in range(4):
            series.sample({})
        ticks = [point["tick"] for point in series.points()]
        assert ticks == sorted(ticks) and len(set(ticks)) == 4


class TestRouteDeltas:
    def test_deltas_subtract_per_route(self):
        before = {"routes": {"sparql": {"requests": 5, "ok": 4, "rejected": 1,
                                        "timeouts": 0, "client_errors": 0,
                                        "server_errors": 0, "rows_served": 9}}}
        after = {"routes": {"sparql": {"requests": 8, "ok": 6, "rejected": 2,
                                       "timeouts": 0, "client_errors": 0,
                                       "server_errors": 0, "rows_served": 12},
                            "complete": {"requests": 3, "ok": 3, "rejected": 0,
                                         "timeouts": 0, "client_errors": 0,
                                         "server_errors": 0, "rows_served": 0}}}
        deltas = route_deltas(before, after)
        assert deltas["sparql"]["requests"] == 3
        assert deltas["sparql"]["rows_served"] == 3
        assert deltas["complete"]["ok"] == 3  # absent before == zero


# ----------------------------------------------------------------------
# The ledger and error classification
# ----------------------------------------------------------------------


class TestLedger:
    def test_merge_and_totals(self):
        a, b = ReplayLedger(), ReplayLedger()
        a.note("complete", "ok", 0.01, rows=5)
        a.note("sparql", "rejected", 0.001)
        b.note("complete", "unreachable", 0.0)
        b.note("suggest", "ok", 0.2, rows=2)
        a.merge(b)
        assert a.attempts == 4
        assert a.total("ok") == 2
        assert a.server_visible("complete") == 1  # unreachable excluded
        assert a.rows == 7  # only ok attempts serve rows

    def test_dict_round_trip(self):
        ledger = ReplayLedger()
        ledger.note("complete", "ok", 0.01, rows=1)
        ledger.note("suggest", "timeouts", 1.5)
        ledger.sessions = 2
        ledger.session_ok_calls = 1
        restored = ReplayLedger.from_dict(ledger.to_dict())
        assert restored.to_dict() == ledger.to_dict()

    def test_classify_maps_failures_to_outcomes(self):
        from repro.endpoint.endpoint import (
            EndpointError,
            EndpointTimeout,
            QueryRejected,
        )
        from repro.sparql.errors import SparqlError

        assert _classify(ConnectionFailed("down")) == "unreachable"
        assert _classify(QueryRejected("503")) == "rejected"
        assert _classify(EndpointTimeout("504")) == "timeouts"
        assert _classify(SparqlError("bad query")) == "client_errors"
        assert _classify(EndpointError("500")) == "server_errors"
        with pytest.raises(ValueError):
            _classify(ValueError("not a transport failure"))

    def test_worker_attribution(self):
        ledger = ReplayLedger()
        ledger.note("sparql", "ok", 0.01, rows=1, worker="0")
        ledger.note("sparql", "ok", 0.01, rows=1, worker="1")
        ledger.note("sparql", "rejected", 0.0, worker="1")
        # Unreachable = the connection never hit a worker; a stale
        # last-seen header must not be attributed.
        ledger.note("sparql", "unreachable", 0.0, worker="0")
        ledger.note("sparql", "ok", 0.01, rows=1)  # single-process server
        assert ledger.workers == {"0": 1, "1": 2}

    def test_worker_counts_merge_and_round_trip(self):
        a, b = ReplayLedger(), ReplayLedger()
        a.note("sparql", "ok", 0.01, worker="0")
        b.note("sparql", "ok", 0.01, worker="0")
        b.note("complete", "ok", 0.01, worker="3")
        a.merge(b)
        assert a.workers == {"0": 2, "3": 1}
        restored = ReplayLedger.from_dict(a.to_dict())
        assert restored.workers == a.workers
        assert restored.to_dict() == a.to_dict()

    def test_reconcile_flags_unspread_multiworker_load(self):
        n = 20
        route = {"requests": n, "ok": n, "rejected": 0, "timeouts": 0,
                 "client_errors": 0, "server_errors": 0, "rows_served": n}
        before = {"routes": {}, "rows_served": 0, "session_activity": 0,
                  "n_workers": 2, "connections": {"accepted": 0}}
        after = {"routes": {"sparql": dict(route)}, "rows_served": n,
                 "session_activity": 0, "n_workers": 2,
                 "connections": {"accepted": n}}
        skewed = ReplayLedger()
        for _ in range(n):
            skewed.note("sparql", "ok", 0.01, rows=1, worker="0")
        mismatches = reconcile(before, after, skewed, check_sessions=False)
        assert any("worker spread" in line for line in mismatches)

        spread = ReplayLedger()
        for i in range(n):
            spread.note("sparql", "ok", 0.01, rows=1, worker=str(i % 2))
        assert reconcile(before, after, spread, check_sessions=False) == []

    def test_reconcile_ignores_spread_over_too_few_connections(self):
        """The kernel balances connections, not responses: two recycled
        connections land on one of two workers half the time."""
        from repro.eval.replay import SPREAD_MIN_CONNECTIONS

        n = 55
        route = {"requests": n, "ok": n, "rejected": 0, "timeouts": 0,
                 "client_errors": 0, "server_errors": 0, "rows_served": n}
        before = {"routes": {}, "rows_served": 0, "session_activity": 0,
                  "n_workers": 2, "connections": {"accepted": 3}}
        after = {"routes": {"sparql": dict(route)}, "rows_served": n,
                 "session_activity": 0, "n_workers": 2,
                 "connections": {"accepted": 5}}
        skewed = ReplayLedger()
        for _ in range(n):
            skewed.note("sparql", "ok", 0.01, rows=1, worker="1")
        assert reconcile(before, after, skewed, check_sessions=False) == []
        after["connections"]["accepted"] = 3 + SPREAD_MIN_CONNECTIONS
        assert any("worker spread" in line for line in
                   reconcile(before, after, skewed, check_sessions=False))

    def test_reconcile_ignores_spread_on_single_worker(self):
        route = {"requests": 2, "ok": 2, "rejected": 0, "timeouts": 0,
                 "client_errors": 0, "server_errors": 0, "rows_served": 2}
        before = {"routes": {}, "rows_served": 0, "session_activity": 0}
        after = {"routes": {"sparql": dict(route)}, "rows_served": 2,
                 "session_activity": 0}
        ledger = ReplayLedger()
        ledger.note("sparql", "ok", 0.01, rows=1, worker="0")
        ledger.note("sparql", "ok", 0.01, rows=1, worker="0")
        assert reconcile(before, after, ledger, check_sessions=False) == []

    def test_reconcile_flags_tampered_ledger(self):
        before = {"routes": {}, "rows_served": 0, "session_activity": 0}
        after = {"routes": {"sparql": {"requests": 2, "ok": 2, "rejected": 0,
                                       "timeouts": 0, "client_errors": 0,
                                       "server_errors": 0, "rows_served": 4}},
                 "rows_served": 4, "session_activity": 0}
        ledger = ReplayLedger()
        ledger.note("sparql", "ok", 0.01, rows=4)  # one attempt short
        mismatches = reconcile(before, after, ledger, check_sessions=False)
        assert any("sparql" in line for line in mismatches)


# ----------------------------------------------------------------------
# End-to-end: inline replay against a live loopback server
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def replay_stack(tiny_dataset):
    sapphire = SapphireServer(SapphireConfig(suffix_tree_capacity=500))
    endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig.warehouse(),
                              name="replay-test")
    sapphire.register_endpoint(endpoint)
    with SparqlHttpServer(sapphire) as http:
        yield http


class TestInlineReplay:
    def test_replay_reconciles_and_samples_series(self, replay_stack):
        scripts = generate_scripts(CONFIG)
        report = run_replay(scripts, replay_stack.url, processes=0)
        assert report.mismatches == [], "\n".join(report.mismatches)
        assert report.ledger.sessions == CONFIG.n_sessions
        assert report.ledger.attempts == sum(
            len(script.events) for script in scripts)
        # Every event either succeeded or was cleanly classified.
        assert report.ledger.total("unreachable") == 0
        # The series carries per-route histograms, not reservoirs.
        assert report.series, "inline mode must still sample the series"
        last = report.series[-1]
        assert last["routes"]["complete"]["latency"]["count"] > 0
        rendered = format_route_series(report.series)
        assert "complete" in rendered and "tick" in rendered
        # The report serializes (CLI --json path).
        payload = report.to_dict()
        assert payload["mismatches"] == []
        assert payload["ledger"]["sessions"] == CONFIG.n_sessions

    def test_replay_is_idempotent_under_reruns(self, replay_stack):
        """A second replay of the same scripts still reconciles — the
        deltas are computed against fresh before/after snapshots."""
        scripts = generate_scripts(dataclasses.replace(CONFIG, n_sessions=2))
        first = run_replay(scripts, replay_stack.url, processes=0)
        second = run_replay(scripts, replay_stack.url, processes=0)
        assert first.mismatches == []
        assert second.mismatches == []


class TestSpawnedReplay:
    def test_spawned_clients_reconcile_above_the_throughput_floor(self, replay_stack):
        """Two client processes replay at once; the merged ledger
        reconciles with ``/stats`` as an inline replay does, every event
        of every script was sent, and the run stays above MIN_RPS."""
        scripts = generate_scripts(dataclasses.replace(CONFIG, n_sessions=20))
        report = run_replay(scripts, replay_stack.url, processes=2)
        assert report.processes == 2
        assert report.mismatches == [], "\n".join(report.mismatches)
        assert report.ledger.sessions == len(scripts)
        assert report.ledger.attempts == sum(len(script.events) for script in scripts)
        assert report.throughput_rps >= MIN_RPS, report.throughput_rps
        last = report.series[-1]["routes"]
        for route in ("sparql", "complete", "suggest"):
            assert last[route]["latency"]["buckets"], route


    def test_a_client_process_that_dies_unreported_is_a_mismatch(
            self, replay_stack, monkeypatch, capsys):
        """A spawned client that dies before it reports leaves a hole in
        the ledger that the server's counters cannot show: the report
        names it, and ``repro replay`` exits 1.  An ``at`` that is not a
        number kills the replay loop outside its per-request ``try``."""
        from repro.cli import main
        from repro.eval import replay as replay_module

        scripts = generate_scripts(dataclasses.replace(CONFIG, n_sessions=2))
        broken = dataclasses.replace(
            scripts[1], events=[dict(scripts[1].events[0], at="soon")])
        report = run_replay([scripts[0], broken], replay_stack.url, processes=2)
        assert report.mismatches == ["client process 1 sent no ledger (exitcode 1)"]
        assert report.ledger.sessions == 1

        monkeypatch.setattr(replay_module, "generate_scripts",
                            lambda config: [scripts[0], broken])
        assert main(["--scale", "tiny", "replay", "--sessions", "2",
                     "--processes", "2"]) == 1
        assert "client process 1 sent no ledger" in capsys.readouterr().out


class TestSessionScriptCounts:
    def test_counts_match_events(self):
        script = SessionScript(session="s1", pid=0, qid="q1", events=[
            {"at": 0.1, "route": "complete", "text": "ke", "k": 5},
            {"at": 0.2, "route": "complete", "text": "ken", "k": 5},
            {"at": 0.9, "route": "suggest", "query": "ASK {}", "suggest": False},
            {"at": 1.5, "route": "sparql", "query": "ASK {}"},
        ])
        assert script.counts() == {"complete": 2, "suggest": 1, "sparql": 1}
