"""Pre-fork worker pool: K processes serving one SPARQL endpoint port.

One Python process behind :class:`~repro.net.server.SparqlHttpServer`
caps throughput at a single core no matter how many threads it runs —
query execution is pure Python, so the GIL serializes it.
:class:`PreforkServer` is the scale-out answer: K **worker processes**
(spawn-compatible, so it works where ``fork`` is unsafe), each running
its own :class:`~repro.net.wsgi.SparqlWsgiApp` over its own read-only
store replica, all accepting from ONE address.

Socket sharing
--------------
``SO_REUSEPORT`` (Linux/BSD): every worker binds its *own* listening
socket to the shared address; the kernel load-balances incoming
connections across them.  The parent binds first (without listening)
only to resolve an ephemeral port, then closes its socket once the
workers are up.  Where the platform lacks the option,
:meth:`PreforkServer.start` refuses with the remedy: serve from one
process (``repro serve --workers 1``).

Replica discipline
------------------
Workers never share a store object.  For SQLite-backed datasets the
parent materializes the sharded database files once
(:func:`prepare_snapshots`) and every worker opens them **read-only**
(``mode=ro`` over WAL — see :class:`~repro.store.sqlite_backend.SQLiteBackend`),
so N processes read one snapshot with zero coordination.  Memory-backed
specs rebuild the deterministic synthetic dataset per worker instead.

Control plane
-------------
Each worker keeps a :class:`multiprocessing.Pipe` to the parent: the
parent requests stats snapshots (merged bucket-wise into one
coordinator ``/stats`` view by
:func:`~repro.net.metrics.merge_stats_bodies`), pings for liveness, and
signals graceful drain.  A monitor thread respawns workers that die.
The merged view is also served over HTTP on the coordinator's own port
(``/stats``, ``/stats/series``, ``/health``) so the replay harness
reconciles against cluster totals, not one worker's share.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import threading
import time
from multiprocessing.connection import Connection
from typing import Callable, Dict, List, Optional, Tuple

from .metrics import StatsTimeSeries, merge_stats_bodies
from .server import SparqlHttpServer, WsgiServer
from .wsgi import _error_body, _json_headers

__all__ = ["PreforkServer", "build_backend_from_spec", "prepare_snapshots"]

#: Seconds every worker gets to build its backend and report ready.
START_TIMEOUT_S = 120.0
#: Seconds a worker gets to answer the shutdown request, then to exit.
DRAIN_TIMEOUT_S = 10.0


# ----------------------------------------------------------------------
# Worker-side backend construction (module-level: spawn must pickle it)
# ----------------------------------------------------------------------


def build_backend_from_spec(spec: Dict[str, object]):
    """Build one worker's serving backend from a picklable spec dict.

    Keys: ``scale``/``seed`` (synthetic dataset), ``timeout_s``,
    ``tree_capacity``, ``sapphire`` (serve the suggestion API too),
    ``n_shards``, and the two :func:`prepare_snapshots` adds:
    ``snapshot_base`` — the worker opens the sharded SQLite snapshot
    files at that base path **read-only** instead of rebuilding the
    dataset in memory — and ``cache_snapshot`` — a ``sapphire`` worker
    opens that persisted cache read-only instead of running Section 5
    initialization.
    """
    from ..store import TripleStore, create_sharded_backend

    scale = str(spec.get("scale", "tiny"))
    n_shards = int(spec.get("n_shards", 1))  # type: ignore[arg-type]
    snapshot_base = spec.get("snapshot_base")

    if snapshot_base is not None:
        backend = create_sharded_backend(
            n_shards, "sqlite", str(snapshot_base), read_only=True)
        store = TripleStore(backend=backend)
    else:
        dataset = _build_dataset(spec)
        if n_shards > 1:
            store = TripleStore(
                backend=create_sharded_backend(n_shards, "memory"))
            store.add_all(dataset.store.triples())
        else:
            store = dataset.store
    return _serve_store(store, spec, f"dbpedia-{scale}")


def _build_dataset(spec: Dict[str, object]):
    from ..data import DatasetConfig, build_dataset

    factory = getattr(DatasetConfig, str(spec.get("scale", "tiny")))
    return build_dataset(factory(seed=int(spec.get("seed", 42))))  # type: ignore[arg-type]


def _serve_store(store, spec: Dict[str, object], name: str):
    """The spec's backend over ``store``: its :class:`SparqlEndpoint`, or
    with ``sapphire`` a :class:`SapphireServer` in front of it — booted
    from the spec's ``cache_snapshot`` when there is one, else
    initialized (registered) against the endpoint."""
    from ..core.config import SapphireConfig
    from ..core.sapphire import SapphireServer
    from ..endpoint.endpoint import EndpointConfig, SparqlEndpoint

    endpoint = SparqlEndpoint(
        store,
        EndpointConfig(timeout_s=float(spec.get("timeout_s", 2.0))),  # type: ignore[arg-type]
        name=name,
    )
    if not spec.get("sapphire"):
        return endpoint
    config = SapphireConfig(
        suffix_tree_capacity=int(spec.get("tree_capacity", 500)),  # type: ignore[arg-type]
    )
    server = SapphireServer(config)
    cache_snapshot = spec.get("cache_snapshot")
    if cache_snapshot is None:
        server.register_endpoint(endpoint)
    else:
        # Instant replica boot: open the parent's persisted cache file
        # (dictionary, cache tables, on-disk term index) read-only
        # instead of re-running Section 5 initialization in every worker.
        from ..core.persistence import load_cache

        server.cache = load_cache(str(cache_snapshot), config, read_only=True)
        server.attach_endpoint(endpoint)
    return server


def prepare_snapshots(spec: Dict[str, object], base_path: str) -> Dict[str, object]:
    """Materialize the spec's dataset as sharded SQLite snapshot files.

    Builds the synthetic dataset once in this process, writes it into
    ``n_shards`` WAL database files at ``shard_path(base_path, i)``, and
    closes them (the close checkpoints the WAL, leaving self-contained
    files).  Returns a new spec with ``snapshot_base`` set — hand that
    to the workers and each opens the files read-only.
    """
    from ..store import TripleStore, create_sharded_backend

    dataset = _build_dataset(spec)
    n_shards = int(spec.get("n_shards", 1))  # type: ignore[arg-type]
    backend = create_sharded_backend(n_shards, "sqlite", base_path)
    store = TripleStore(backend=backend)
    store.add_all(dataset.store.triples())
    backend.close()
    out = {**spec, "snapshot_base": base_path}
    if spec.get("sapphire"):
        # Run Section 5 initialization ONCE here, over the dataset just
        # built, and persist the cache (one file: dictionary, cache
        # tables, on-disk term index); each worker then boots a
        # read-only tiered replica, no rebuild.
        from ..core.persistence import save_cache

        parent = _serve_store(dataset.store, {**spec, "cache_snapshot": None},
                              "snapshot-init")
        cache_path = base_path + ".cache.sqlite"
        save_cache(parent.cache, cache_path)
        out["cache_snapshot"] = cache_path
    return out


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


class _WorkerHttpServer(SparqlHttpServer):
    """One worker's :class:`~repro.net.server.SparqlHttpServer`, on its
    own ``SO_REUSEPORT`` socket at the shared address.

    Non-daemon request threads + ``block_on_close`` give graceful
    drain: :meth:`stop` stops accepting, then closes the idle
    connections and waits for every in-flight request to finish before
    the worker exits.
    """

    daemon_threads = False
    block_on_close = True

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def _worker_main(index: int, factory: Callable, spec: Dict[str, object],
                 host: str, port: int,
                 app_kwargs: Dict[str, object], conn: Connection) -> None:
    """Worker entry point (module-level so ``spawn`` can import it).

    Builds the backend, serves HTTP from background threads, and runs
    the control loop on the main thread: ``ping`` → ``pong``, ``stats``
    → the app's ``/stats`` body, ``shutdown`` → graceful drain.  EOF on
    the pipe (the parent died) also drains and exits, so orphaned
    workers never linger.
    """
    try:
        httpd = _WorkerHttpServer(factory(spec), host, port, worker_id=str(index),
                                  **app_kwargs)  # type: ignore[arg-type]
    except Exception as exc:  # noqa: BLE001 — report, don't vanish silently
        try:
            conn.send(("failed", index, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    httpd.start()
    conn.send(("ready", index, os.getpid()))
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "ping":
                conn.send(("pong", index))
            elif kind == "stats":
                conn.send(("stats", index, httpd.app.stats_body()))
            elif kind == "shutdown":
                httpd.stop()
                conn.send(("bye", index, httpd.app.stats_body()))
                return
    except (EOFError, OSError):
        httpd.stop()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent / coordinator
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("index", "process", "conn", "lock", "restarts", "pid")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn: Optional[Connection] = None
        self.lock = threading.Lock()
        self.restarts = 0
        self.pid: Optional[int] = None


class PreforkServer:
    """K pre-forked workers serving one SPARQL endpoint address.

    ``factory(spec)`` builds each worker's backend *inside the worker*
    (it must be a module-level callable — spawn pickles it by name);
    :func:`build_backend_from_spec` is the standard one.  ``app_kwargs``
    are passed through to each worker's
    :class:`~repro.net.wsgi.SparqlWsgiApp`.

    The coordinator serves merged observability on its own ephemeral
    port (:attr:`stats_url`): per-worker counters and latency histograms
    merged bucket-wise, worker liveness, and shard depths.
    """

    def __init__(
        self,
        factory: Callable = build_backend_from_spec,
        spec: Optional[Dict[str, object]] = None,
        *,
        n_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        app_kwargs: Optional[Dict[str, object]] = None,
        health_interval_s: float = 0.5,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.factory = factory
        self.spec = dict(spec or {})
        self.n_workers = n_workers
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.app_kwargs = dict(app_kwargs or {})
        self.health_interval_s = health_interval_s
        self.series = StatsTimeSeries()
        self._context = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = []
        self._coordinator: Optional[WsgiServer] = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        """The query endpoint URL (load-balanced across workers)."""
        return f"http://{self.host}:{self.port}/sparql"

    @property
    def stats_url(self) -> str:
        """Base URL of the coordinator's merged observability port."""
        if self._coordinator is None:
            raise RuntimeError("coordinator is not running")
        return f"http://{self._coordinator.host}:{self._coordinator.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PreforkServer":
        if self._started:
            raise RuntimeError("PreforkServer is already running")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "this platform has no SO_REUSEPORT, so worker processes "
                "cannot share one port — serve from a single process "
                "instead (repro serve --workers 1)")
        self._started = True
        reservation = self._reserve_port()
        try:
            for index in range(self.n_workers):
                worker = _Worker(index)
                self._spawn(worker)
                self._workers.append(worker)
            deadline = time.monotonic() + START_TIMEOUT_S
            for worker in self._workers:
                self._await_ready(worker, deadline)
        except Exception:
            self.stop()
            raise
        finally:
            # The workers' own SO_REUSEPORT sockets now hold the address.
            reservation.close()
        self._start_coordinator()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="prefork-monitor", daemon=True)
        self._monitor.start()
        return self

    def _reserve_port(self) -> socket.socket:
        """A bound socket that never listens receives no connections: it
        only keeps an ephemeral port ours until every worker has bound
        its own socket to it."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self._requested_port))
        self.port = sock.getsockname()[1]
        return sock

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(worker.index, self.factory, self.spec, self.host, self.port,
                  self.app_kwargs, child_conn),
            name=f"prefork-worker-{worker.index}",
            daemon=False,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.pid = process.pid

    def _await_ready(self, worker: _Worker, deadline: float) -> None:
        assert worker.conn is not None
        remaining = max(0.1, deadline - time.monotonic())
        if not worker.conn.poll(remaining):
            raise RuntimeError(
                f"worker {worker.index} did not come up within "
                f"{START_TIMEOUT_S:.0f}s")
        message = worker.conn.recv()
        if message[0] == "failed":
            raise RuntimeError(f"worker {worker.index} failed to start: "
                               f"{message[2]}")
        if message[0] != "ready":
            raise RuntimeError(f"worker {worker.index} sent unexpected "
                               f"{message[0]!r} before ready")

    def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, exit workers."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.health_interval_s * 4 + 1.0)
            self._monitor = None
        for worker in self._workers:
            self._shutdown_worker(worker)
        self._workers.clear()
        if self._coordinator is not None:
            self._coordinator.stop()
            self._coordinator = None

    def _shutdown_worker(self, worker: _Worker) -> None:
        process, conn = worker.process, worker.conn
        if conn is not None:
            with worker.lock:
                try:
                    self._drain_pipe(conn)
                    conn.send(("shutdown",))
                    if conn.poll(DRAIN_TIMEOUT_S):
                        conn.recv()  # ("bye", index, final_stats)
                except (BrokenPipeError, EOFError, OSError):
                    pass
                conn.close()
            worker.conn = None
        if process is not None:
            process.join(timeout=DRAIN_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            worker.process = None

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Health / respawn
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.health_interval_s):
            for worker in self._workers:
                process = worker.process
                if process is None or process.is_alive():
                    continue
                if self._stopping.is_set():
                    return
                # Dead worker: reap it and bring up a replacement on the
                # same index.  Its counters die with it (documented) —
                # respawn keeps *capacity*, not history.
                with worker.lock:
                    if worker.conn is not None:
                        worker.conn.close()
                    process.join(timeout=1.0)
                    worker.restarts += 1
                    try:
                        self._spawn(worker)
                        self._await_ready(
                            worker,
                            time.monotonic() + START_TIMEOUT_S)
                    except Exception:  # noqa: BLE001 — retry next tick
                        worker.process = None
                        worker.conn = None

    def workers_view(self) -> List[Dict[str, object]]:
        """Liveness + restart counts, the ``/stats`` ``workers`` field."""
        return [
            {
                "id": worker.index,
                "pid": worker.pid,
                "alive": bool(worker.process is not None
                              and worker.process.is_alive()),
                "restarts": worker.restarts,
            }
            for worker in self._workers
        ]

    # ------------------------------------------------------------------
    # Merged observability
    # ------------------------------------------------------------------

    @staticmethod
    def _drain_pipe(conn: Connection) -> None:
        # A previous timed-out call may have left a stale reply queued;
        # drop everything pending so request/response stay paired.
        while conn.poll(0):
            try:
                conn.recv()
            except (EOFError, OSError):
                return

    def _call(self, worker: _Worker, message: Tuple,
              timeout_s: float) -> Optional[Tuple]:
        conn = worker.conn
        if conn is None:
            return None
        with worker.lock:
            try:
                self._drain_pipe(conn)
                conn.send(message)
                if conn.poll(timeout_s):
                    return conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                return None
        return None

    def ping(self, timeout_s: float = 2.0) -> List[bool]:
        """Round-trip liveness through each worker's control pipe."""
        return [
            (self._call(worker, ("ping",), timeout_s) or (None,))[0] == "pong"
            for worker in self._workers
        ]

    def stats(self, timeout_s: float = 5.0) -> Dict[str, object]:
        """The merged cluster ``/stats`` body.

        Per-worker bodies (each internally consistent — one lock
        acquisition per worker) merged by
        :func:`~repro.net.metrics.merge_stats_bodies`; shard depths are
        every worker's same snapshot, so they are reported once, not
        summed.
        """
        bodies: List[Dict[str, object]] = []
        for worker in self._workers:
            reply = self._call(worker, ("stats",), timeout_s)
            if reply is not None and reply[0] == "stats":
                bodies.append(reply[2])
        merged = merge_stats_bodies(bodies)
        for body in bodies:
            if "shards" in body:
                merged["shards"] = body["shards"]
                break
        merged["n_workers"] = self.n_workers
        merged["workers"] = self.workers_view()
        return merged

    def health(self) -> Dict[str, object]:
        alive = sum(1 for view in self.workers_view() if view["alive"])
        return {
            "status": "ok" if alive == self.n_workers else "degraded",
            "n_workers": self.n_workers,
            "alive": alive,
            "workers": self.workers_view(),
        }

    def _start_coordinator(self) -> None:
        routes = {
            "/stats": self.stats,
            "/health": self.health,
            "/stats/series": lambda: {"points": self.series.sample(self.stats()),
                                      "max_points": self.series.max_points},
        }

        def coordinator_app(environ, start_response):
            path = environ.get("PATH_INFO", "/") or "/"
            route = routes.get(path)
            if route is None:
                status, payload = "404 Not Found", _error_body(
                    404, f"no such resource: {path} (coordinator serves "
                         f"/stats, /stats/series, /health; queries go to {self.url})")
            else:
                status, payload = "200 OK", json.dumps(route()).encode("utf-8")
            start_response(status, list(_json_headers(len(payload)).items()))
            return [payload]

        # The stats app never reads bodies, so any max works here.
        coordinator_app.max_query_bytes = 1 << 20  # type: ignore[attr-defined]
        # The workers' base server class, with a tiny app: same wire
        # behaviour as a worker's stats routes, but the bodies are
        # cluster-wide merges, and no backend to freeze.
        self._coordinator = WsgiServer((self.host, 0), coordinator_app).start()
