"""Pre-fork worker pool tests: boot, serve, merge, respawn, drain.

A :class:`PreforkServer` forks workers over read-only sharded SQLite
snapshots behind one port.  These tests drive a real pool over
loopback: correctness of served rows, worker attribution via the
``X-Repro-Worker`` header, coordinator-merged ``/stats``, dead-worker
respawn, the refusal where ``SO_REUSEPORT`` is unavailable, and the
preloaded forkserver the workers come from.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.net import (
    HttpSparqlEndpoint,
    PreforkServer,
    build_backend_from_spec,
    merge_stats_bodies,
    prepare_snapshots,
)
from repro.net.metrics import LatencyHistogram
from repro.net.wsgi import WORKER_HEADER

QUERIES = [
    "SELECT ?s ?n WHERE { ?s foaf:name ?n }",
    "SELECT DISTINCT ?t WHERE { ?s a ?t }",
    "SELECT ?p ?c WHERE { ?p dbo:birthPlace ?c }",
]


def _row_key(result):
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


@pytest.fixture(scope="module")
def snapshot_spec(tmp_path_factory):
    base = tmp_path_factory.mktemp("prefork") / "data.sqlite"
    return prepare_snapshots(
        {"scale": "tiny", "seed": 42, "timeout_s": 10.0,
         "sapphire": False, "n_shards": 2},
        str(base),
    )


@pytest.fixture(scope="module")
def expected(snapshot_spec):
    origin = build_backend_from_spec(snapshot_spec)
    return {query: _row_key(origin.select(query)) for query in QUERIES}


@pytest.fixture(scope="module")
def pool(snapshot_spec):
    server = PreforkServer(
        build_backend_from_spec, snapshot_spec, n_workers=2,
    )
    server.start()
    yield server
    server.stop()


def _fetch(url, timeout_s=10.0):
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.load(response), dict(response.headers)


def _root(pool):
    return pool.url.rsplit("/", 1)[0]


class TestServing:
    def test_workers_boot_and_serve_correct_rows(self, pool, expected):
        client = HttpSparqlEndpoint(pool.url, name="t", timeout_s=10.0)
        for query, rows in expected.items():
            assert _row_key(client.select(query)) == rows

    def test_every_response_is_worker_stamped(self, pool):
        client = HttpSparqlEndpoint(pool.url, name="t", timeout_s=10.0)
        client.select(QUERIES[0])
        assert client.last_worker in {"0", "1"}
        _, headers = _fetch(_root(pool) + "/health")
        assert headers.get(WORKER_HEADER) in {"0", "1"}

    def test_connections_spread_across_workers(self, pool):
        seen = set()
        for _ in range(24):
            _, headers = _fetch(_root(pool) + "/health")
            seen.add(headers.get(WORKER_HEADER))
        assert seen == {"0", "1"}

    def test_merged_stats_account_for_all_workers(self, pool, expected):
        """Each request on a fresh connection, so the kernel spreads them
        over both workers (as in ``test_connections_spread_across_workers``):
        the merged counters must account for every request and row."""
        before = pool.stats()
        n = 24
        rows = 0
        for i in range(n):
            query = urllib.parse.urlencode({"query": QUERIES[i % len(QUERIES)]})
            body, _ = _fetch(pool.url + "?" + query)
            rows += len(body["results"]["bindings"])
        after = pool.stats()
        assert after["requests"] - before["requests"] == n
        assert after["ok"] - before["ok"] == n
        assert after["rows_served"] - before["rows_served"] == rows
        assert after["n_workers"] == 2
        assert len(after["workers"]) == 2
        # Each worker was forked with repro imported, and timed its boot.
        assert all(view["preloaded"] and view["boot_s"] > 0 for view in after["workers"])
        # Shard depths come from one worker's snapshot view (every
        # worker opens the same files), never summed across workers.
        assert after["shards"]["n_shards"] == 2
        assert sum(after["shards"]["depths"]) == sum(before["shards"]["depths"])

    def test_coordinator_serves_merged_stats_over_http(self, pool):
        body, _ = _fetch(pool.stats_url + "/stats")
        assert body["n_workers"] == 2
        assert "routes" in body
        health, _ = _fetch(pool.stats_url + "/health")
        assert health["status"] == "ok"

    def test_dead_worker_is_respawned(self, pool, expected):
        victim = pool.workers_view()[0]
        os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            view = pool.workers_view()[0]
            if view["alive"] and view["restarts"] == 1 and view["pid"] != victim["pid"]:
                break
            time.sleep(0.1)
        else:
            pytest.fail("worker was not respawned within 30s")
        # The pool keeps serving correct rows through and after respawn.
        client = HttpSparqlEndpoint(pool.url, name="t", timeout_s=10.0)
        query = QUERIES[0]
        for _ in range(6):
            assert _row_key(client.select(query)) == expected[query]


class TestWithoutReusePort:
    def test_start_refuses_and_names_the_remedy(self, snapshot_spec, monkeypatch):
        import socket

        monkeypatch.delattr(socket, "SO_REUSEPORT")
        pool = PreforkServer(build_backend_from_spec, snapshot_spec, n_workers=2)
        with pytest.raises(RuntimeError, match="--workers 1"):
            pool.start()
        assert pool.workers_view() == []  # nothing was spawned


class TestSapphirePool:
    """Suggestion-serving pools: every worker boots a read-only tiered
    replica from the shared cache snapshot — no per-worker rebuild."""

    @pytest.fixture(scope="class")
    def sapphire_spec(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("prefork-pum") / "data.sqlite"
        return prepare_snapshots(
            {"scale": "tiny", "seed": 42, "timeout_s": 10.0,
             "sapphire": True, "n_shards": 2},
            str(base),
        )

    def test_spec_carries_cache_snapshot(self, sapphire_spec):
        snapshot = sapphire_spec["cache_snapshot"]
        assert snapshot and os.path.exists(snapshot)

    def test_replicas_serve_byte_identical_completions(self, sapphire_spec):
        from repro.net import completion_document, dump_document

        origin = build_backend_from_spec(sapphire_spec)
        server = PreforkServer(
            build_backend_from_spec, sapphire_spec, n_workers=2)
        server.start()
        try:
            root = server.url.rsplit("/", 1)[0]
            workers = set()
            for term in ("Kenn", "spou", "New", "alma", "e"):
                body = json.dumps({"text": term}).encode()
                request = urllib.request.Request(
                    root + "/complete", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=10.0) as response:
                    wire = response.read()
                    workers.add(response.headers.get(WORKER_HEADER))
                local = dump_document(
                    completion_document(origin.complete(term))
                )
                assert wire == local, term
            assert workers  # served by the pool, not the origin
        finally:
            server.stop()
            origin.cache.close()


class TestGracefulDrain:
    def test_stop_reaps_every_worker(self, snapshot_spec):
        server = PreforkServer(
            build_backend_from_spec, snapshot_spec, n_workers=2)
        server.start()
        pids = [view["pid"] for view in server.workers_view()]
        server.stop()
        for pid in pids:
            # A reaped child is gone; signal 0 must fail.
            with pytest.raises(OSError):
                os.kill(pid, 0)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _parent(pid):
    """``pid``'s parent, off ``/proc`` (the field after the parenthesized name)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[1])


def _running(pid):
    """Whether ``pid`` is a live process: gone and zombie both count as ended."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _run_child(script, timeout_s=60):
    """``script`` in a fresh interpreter with ``PYTHONPATH`` unset, as the
    spine runs: the script puts ``src`` on ``sys.path`` itself."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=timeout_s)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestForkserver:
    """Workers are forked by a forkserver that has ``repro`` imported."""

    def test_workers_are_preloaded_with_src_on_sys_path_only(self, tmp_path):
        """Python's forkserver ignores the ``sys.path`` it is sent and
        drops a failed preload silently: without the hand-off, each
        worker would import ``repro`` itself and report not preloaded."""
        out = _run_child(f"""
import json, sys
sys.path.insert(0, {SRC!r})
from repro.net import HttpSparqlEndpoint, PreforkServer, build_backend_from_spec, prepare_snapshots
spec = prepare_snapshots({{"scale": "tiny", "n_shards": 2}}, {str(tmp_path / "data.sqlite")!r})
with PreforkServer(build_backend_from_spec, spec, n_workers=2) as pool:
    answer = HttpSparqlEndpoint(pool.url, timeout_s=10.0).ask("ASK {{ ?s ?p ?o }}").value
    print(json.dumps({{"workers": pool.workers_view(), "answer": answer}}))
""")
        assert out["answer"] is True
        assert [view["preloaded"] for view in out["workers"]] == [True, True]
        assert all(view["boot_s"] > 0 for view in out["workers"])

    def test_a_dead_forkserver_is_restarted_by_the_respawn(self, snapshot_spec, expected):
        """Killing the forkserver ends the exit status of every worker it
        forked, so the monitor reads them all as dead: it drains them and
        forks each replacement from a new, preloaded forkserver."""
        with PreforkServer(build_backend_from_spec, snapshot_spec, n_workers=2) as pool:
            before = pool.workers_view()
            forkserver = _parent(before[0]["pid"])
            os.kill(forkserver, signal.SIGKILL)
            os.kill(before[0]["pid"], signal.SIGKILL)
            old = {view["pid"] for view in before}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                views = pool.workers_view()
                if all(view["alive"] and view["pid"] not in old for view in views):
                    break
                time.sleep(0.1)
            else:
                pytest.fail(f"workers were not respawned within 30s: {pool.workers_view()}")
            assert all(view["restarts"] == 1 and view["preloaded"] for view in views)
            parents = {_parent(view["pid"]) for view in views}
            assert len(parents) == 1 and forkserver not in parents
            client = HttpSparqlEndpoint(pool.url, name="t", timeout_s=10.0)
            for _ in range(6):
                assert _row_key(client.select(QUERIES[0])) == expected[QUERIES[0]]

    def test_no_helper_process_outlives_the_pools_process(self, tmp_path):
        """A process that started and stopped a pool exits, and its
        forkserver and resource tracker follow it within 5 s."""
        out = _run_child(f"""
import json, os, sys
sys.path.insert(0, {SRC!r})
from repro.net import PreforkServer, build_backend_from_spec, prepare_snapshots
spec = prepare_snapshots({{"scale": "tiny", "n_shards": 1}}, {str(tmp_path / "data.sqlite")!r})
PreforkServer(build_backend_from_spec, spec, n_workers=2).start().stop()
helpers = {{}}
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{{pid}}/stat") as stat, open(f"/proc/{{pid}}/cmdline") as cmdline:
            if int(stat.read().rsplit(")", 1)[1].split()[1]) == os.getpid():
                helpers[pid] = cmdline.read()
    except OSError:
        pass
print(json.dumps(helpers))
""")
        names = sorted(name for cmdline in out.values()
                       for name in ("forkserver", "resource_tracker") if name in cmdline)
        assert names == ["forkserver", "resource_tracker"], out
        deadline = time.monotonic() + 5.0
        while any(_running(int(pid)) for pid in out) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in out if _running(int(pid))], out


def gated_backend_from_spec(spec):
    """Worker factory (module-level: it is pickled by name) that fails
    while the file ``spec["gate"]`` exists."""
    if os.path.exists(str(spec["gate"])):
        raise RuntimeError("the gate is closed")
    return build_backend_from_spec(spec)


class TestFailedRespawn:
    def test_a_failed_respawn_is_tried_again(self, snapshot_spec, tmp_path):
        """A replacement that fails to boot leaves its slot empty only
        until the next check: the monitor tries again, and counts the
        death once."""
        gate = tmp_path / "gate"
        with PreforkServer(gated_backend_from_spec, {**snapshot_spec, "gate": str(gate)},
                           n_workers=1) as pool:
            victim = pool.workers_view()[0]["pid"]
            gate.touch()
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                view = pool.workers_view()[0]
                if view["pid"] != victim and not view["alive"]:
                    break  # a replacement was forked, and failed
                time.sleep(0.05)
            else:
                pytest.fail("no replacement was tried within 30s")
            gate.unlink()
            while time.monotonic() < deadline:
                # stats() waits on the worker's lock, which the monitor
                # holds through an attempt: the view is of a finished one.
                view = pool.stats()["workers"][0]
                if view["alive"]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"the failed respawn was not tried again: {view}")
            assert pool.stats()["workers"][0]["restarts"] == 1
            assert HttpSparqlEndpoint(pool.url, timeout_s=10.0).ask("ASK { ?s ?p ?o }").value


class TestMergeStatsBodies:
    @staticmethod
    def _body(requests, ok, rows, peak, latencies_s):
        histogram = LatencyHistogram()
        for seconds in latencies_s:
            histogram.record(seconds)
        return {
            "requests": requests, "ok": ok, "rejected": 0, "timeouts": 0,
            "client_errors": 0, "server_errors": 0, "rows_served": rows,
            "in_flight": 0, "queued": 0, "queued_peak": peak,
            "in_flight_peak": peak,
            "routes": {"sparql": {
                "requests": requests, "ok": ok, "rejected": 0,
                "timeouts": 0, "client_errors": 0, "server_errors": 0,
                "rows_served": rows, "latency": histogram.to_dict(),
            }},
        }

    def test_counters_sum_and_peaks_max(self):
        merged = merge_stats_bodies([
            self._body(10, 9, 100, 3, [0.001] * 10),
            self._body(5, 5, 50, 7, [0.002] * 5),
        ])
        assert merged["requests"] == 15
        assert merged["ok"] == 14
        assert merged["rows_served"] == 150
        assert merged["queued_peak"] == 7
        route = merged["routes"]["sparql"]
        assert route["requests"] == 15
        assert route["latency"]["count"] == 15

    def test_percentiles_merge_samples_not_averages(self):
        # One fast worker, one slow worker: the merged p99 must sit in
        # the slow worker's range, which per-worker averaging would lose.
        merged = merge_stats_bodies([
            self._body(50, 50, 0, 0, [0.001] * 50),
            self._body(50, 50, 0, 0, [0.5] * 50),
        ])
        assert merged["latency_p99_ms"] >= 400.0
        assert merged["latency_p50_ms"] <= 10.0

    def test_empty_input(self):
        merged = merge_stats_bodies([])
        assert merged["requests"] == 0
        assert merged["routes"] == {}

    @staticmethod
    def _cache_block(lookups, tree, bins, index, misses, served,
                     surfaces, size):
        return {
            "lookups": lookups, "tree_hits": tree, "bin_hits": bins,
            "index_hits": index, "misses": misses, "served": served,
            "tree_hit_rate": tree / lookups if lookups else 0.0,
            "bin_hit_rate": bins / lookups if lookups else 0.0,
            "index_hit_rate": index / lookups if lookups else 0.0,
            "index_surfaces": surfaces, "index_bytes": size,
            "index_fts": 1,
        }

    def test_cache_blocks_sum_counters_and_max_gauges(self):
        body_a = self._body(10, 10, 0, 0, [0.001] * 10)
        body_b = self._body(10, 10, 0, 0, [0.001] * 10)
        # Replica A is cold (pure tree), replica B serves its tail from
        # the index: rates must be recomputed from the summed counters,
        # never averaged per worker.
        body_a["cache"] = self._cache_block(8, 8, 0, 0, 0, 80, 500, 4096)
        body_b["cache"] = self._cache_block(2, 0, 0, 1, 1, 10, 500, 8192)
        body_a["cache"].update(window_rows_resident=900, window_bin_loads=6)
        body_b["cache"].update(window_rows_resident=400, window_bin_loads=9)
        merged = merge_stats_bodies([body_a, body_b])
        cache = merged["cache"]
        assert cache["lookups"] == 10
        assert cache["tree_hits"] == 8
        assert cache["index_hits"] == 1
        assert cache["misses"] == 1
        assert cache["served"] == 90
        assert cache["tree_hit_rate"] == pytest.approx(0.8)
        assert cache["index_hit_rate"] == pytest.approx(0.1)
        assert cache["bin_hit_rate"] == pytest.approx(0.0)
        # Gauges describe the shared file, not per-worker work: max.
        assert cache["index_surfaces"] == 500
        assert cache["index_bytes"] == 8192
        assert cache["index_fts"] == 1
        # Each worker keeps its own window bins: sum.
        assert cache["window_rows_resident"] == 1300
        assert cache["window_bin_loads"] == 15

    def test_federation_blocks_sum(self):
        body_a = self._body(5, 5, 0, 0, [0.001] * 5)
        body_b = self._body(5, 5, 0, 0, [0.001] * 5)
        body_a["federation"] = {"queries": 5, "single_source": 4, "fallbacks": 1,
                                "subqueries": 9, "member_errors": 1}
        body_b["federation"] = {"queries": 5, "single_source": 5, "fallbacks": 0,
                                "subqueries": 5, "member_errors": 0}
        # Each worker has its own fragment memo: entries and builds sum.
        body_a["formats"] = {"fragment_entries": 120, "fragment_builds": 300}
        body_b["formats"] = {"fragment_entries": 80, "fragment_builds": 80}
        merged = merge_stats_bodies([body_a, body_b, self._body(1, 1, 0, 0, [0.001])])
        assert merged["federation"] == {"queries": 10, "single_source": 9, "fallbacks": 1,
                                        "subqueries": 14, "member_errors": 1}
        assert merged["formats"] == {"fragment_entries": 200, "fragment_builds": 380}
        plain = merge_stats_bodies([self._body(5, 5, 0, 0, [0.001] * 5)])
        assert "federation" not in plain

    def test_workers_without_cache_block_merge_cleanly(self):
        body_a = self._body(5, 5, 0, 0, [0.001] * 5)
        body_b = self._body(5, 5, 0, 0, [0.001] * 5)
        body_b["cache"] = self._cache_block(4, 3, 1, 0, 0, 40, 100, 1024)
        merged = merge_stats_bodies([body_a, body_b])
        assert merged["cache"]["lookups"] == 4
        assert merged["cache"]["tree_hit_rate"] == pytest.approx(0.75)
        plain = merge_stats_bodies([self._body(5, 5, 0, 0, [0.001] * 5)])
        assert "cache" not in plain
