"""One lifecycle for every listening server.

:class:`~repro.net.server.WsgiServer` owns ``start`` / ``stop`` and the
``with`` block; the single-process :class:`SparqlHttpServer`, each
pre-fork worker and the pool's coordinator all serve through it.  A
server that serves a backend freezes the process's collector while it
serves (after its app is built, so a worker's boot collection reaches
``/stats``); the coordinator, which serves merged stats, does not.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import EndpointConfig, SparqlEndpoint
from repro.net import PreforkServer, SparqlHttpServer, build_backend_from_spec
from repro.net.client import fetch_stats
from repro.net.server import WsgiServer


def stats_app(environ, start_response):
    payload = json.dumps({"ok": True}).encode("utf-8")
    start_response("200 OK", [("Content-Type", "application/json"),
                              ("Content-Length", str(len(payload)))])
    return [payload]


stats_app.max_query_bytes = 1 << 10


def serving_threads(server):
    return [thread for thread in threading.enumerate()
            if thread.name == f"sparql-http-{server.port}"]


class TestWsgiServer:
    def test_a_second_start_and_a_start_after_stop_are_refused(self):
        server = WsgiServer(("127.0.0.1", 0), stats_app).start()
        with pytest.raises(RuntimeError, match="already running"):
            server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="stop\\(\\) was called"):
            server.start()

    def test_stop_is_idempotent_and_joins_the_serving_thread(self):
        server = WsgiServer(("127.0.0.1", 0), stats_app).start()
        assert serving_threads(server)
        server.stop()
        server.stop()
        assert not serving_threads(server)

    def test_a_server_that_never_served_stops_at_once(self):
        WsgiServer(("127.0.0.1", 0), stats_app).stop()

    def test_the_with_block_serves_and_stops(self):
        with WsgiServer(("127.0.0.1", 0), stats_app) as server:
            assert fetch_stats(f"http://{server.host}:{server.port}/stats") == {"ok": True}
        assert not serving_threads(server)

    def test_serving_stats_does_not_freeze(self):
        with WsgiServer(("127.0.0.1", 0), stats_app):
            assert gc.get_freeze_count() == 0

    def test_a_second_stop_leaves_the_freeze_alone(self, tiny_dataset):
        """Only a stop that ended serving thaws: a repeated one must not
        take the freeze from a server that still serves."""
        endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig.warehouse())
        with SparqlHttpServer(endpoint):
            other = SparqlHttpServer(endpoint).start()
            other.stop()
            other.stop()
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0


class TestPool:
    @pytest.fixture(scope="class")
    def pool(self):
        server = PreforkServer(build_backend_from_spec, {"scale": "tiny", "n_shards": 1},
                               n_workers=2)
        server.start()
        yield server
        server.stop()

    def test_each_workers_boot_collection_is_counted(self, pool):
        """Each worker freezes after building its app, whose collector
        watch then counts the boot collection: two workers, two."""
        assert pool.stats()["gc"]["gen2_collections"] >= 2

    def test_stop_joins_the_coordinators_thread(self):
        pool = PreforkServer(build_backend_from_spec, {"scale": "tiny", "n_shards": 1},
                             n_workers=1).start()
        try:
            coordinator = pool._coordinator
            assert serving_threads(coordinator)
        finally:
            pool.stop()
        assert not serving_threads(coordinator)

    def test_idle_workers_drain_at_once(self):
        """``stop()`` closes every worker's pipe before it joins any, so
        the workers' drains overlap: three take about as long as one
        (~0.5 s, the poll of each ``serve_forever``).  One after another,
        a worker's poll and then the coordinator's would already take
        1.0 s."""
        pool = PreforkServer(build_backend_from_spec, {"scale": "tiny", "n_shards": 1},
                             n_workers=3).start()
        began = time.perf_counter()
        pool.stop()
        assert time.perf_counter() - began < 0.9

    def test_a_pool_its_process_forgets_to_stop_drains_at_exit(self):
        """A process that returns without ``stop()`` still exits, and
        takes its worker with it: ``start`` registered ``stop`` to run
        at exit, before ``multiprocessing`` joins the workers."""
        script = (
            "from repro.net import PreforkServer, build_backend_from_spec\n"
            "pool = PreforkServer(build_backend_from_spec,\n"
            "                     {'scale': 'tiny', 'n_shards': 1}, n_workers=1).start()\n"
            "print(pool.workers_view()[0]['pid'], flush=True)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            # The killed child's pipe closes, so its worker drains too.
            child.kill()
            child.communicate()
            pytest.fail("the process that started the pool did not exit")
        assert child.returncode == 0
        with pytest.raises(OSError):
            os.kill(int(out.split()[0]), 0)
