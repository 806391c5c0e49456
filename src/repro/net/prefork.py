"""Pre-fork worker pool: K processes serving one SPARQL endpoint port.

One Python process behind :class:`~repro.net.server.SparqlHttpServer`
caps throughput at a single core no matter how many threads it runs —
query execution is pure Python, so the GIL serializes it.
:class:`PreforkServer` is the scale-out answer: K **worker processes**,
each running its own :class:`~repro.net.wsgi.SparqlWsgiApp` over its own
read-only store replica, all accepting from ONE address.

Workers are born warm
---------------------
Each worker is forked by a ``multiprocessing`` **forkserver** that has
this module (and so ``repro``) imported already: a fork takes
milliseconds, where a spawned interpreter spent ~0.36 s importing
before it built anything.  :func:`prepare_snapshots` starts that server
first, so its import runs on another core while the snapshot is built.
Workers keep spawn's semantics: the forkserver is single-threaded and
holds nothing but imports, arguments are pickled, the main module is
imported in each child.  They share the forkserver's string-hash seed;
no answer depends on it.  If the forkserver dies, every worker it forked
reads as dead (its exit status came through the server) and is drained
and respawned from a new one.

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
Each worker keeps a :class:`multiprocessing.Pipe` to the parent, which
carries one request: ``stats``, answered with the worker's ``/stats``
body (merged bucket-wise into one coordinator view by
:func:`~repro.net.metrics.merge_stats_bodies`).  Closing the pipe
drains the worker: at EOF it stops accepting, finishes what is in
flight and exits — whether the parent called :meth:`PreforkServer.stop`,
exited without it (``start`` registers ``stop`` with :mod:`atexit`) or
died.  A monitor thread respawns workers that die.
The merged view is also served over HTTP on the coordinator's own port
(``/stats``, ``/stats/series``, ``/health``) so the replay harness
reconciles against cluster totals, not one worker's share.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.forkserver
import os
import socket
import sys
import threading
import time
from multiprocessing.connection import Connection
from typing import Callable, Dict, List, Optional

from .metrics import StatsTimeSeries, merge_stats_bodies
from .server import SparqlHttpServer, WsgiServer
from .wsgi import _error_body, _json_headers

__all__ = ["PreforkServer", "build_backend_from_spec", "prepare_snapshots"]

#: Seconds every worker gets to build its backend and report ready.
START_TIMEOUT_S = 120.0
#: Seconds the workers get to drain and exit once their pipes close:
#: one deadline shared by all of them, which drain at once.
DRAIN_TIMEOUT_S = 10.0
#: Seconds between the monitor's liveness checks.
HEALTH_INTERVAL_S = 0.5

#: The pid that imported this module: a worker whose pid differs was
#: forked with it preloaded.
_IMPORTED_BY = os.getpid()
_LAUNCH_LOCK = threading.Lock()


def _warm_context():
    """The forkserver context, its server running with this module
    preloaded (started, or restarted if it died).

    Python's forkserver imports its preload on the ``sys.path`` it was
    launched with, and drops an ``ImportError`` silently: it is handed
    this process's ``sys.path`` as ``PYTHONPATH``, so a caller that put
    ``src`` on ``sys.path`` in process still preloads.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    with _LAUNCH_LOCK:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(sys.path)
        try:
            multiprocessing.forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return context


# ----------------------------------------------------------------------
# Worker-side backend construction (module-level: it is pickled by name)
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
            dataset.store.copy_into(store)
        else:
            store = dataset.store
    return _serve_store(store, spec, f"dbpedia-{scale}")


def _build_dataset(spec: Dict[str, object]):
    from ..data import DatasetConfig, build_dataset

    factory = getattr(DatasetConfig, str(spec.get("scale", "tiny")))
    return build_dataset(factory(seed=int(spec.get("seed", 42))))  # type: ignore[arg-type]


def _endpoint(store, spec: Dict[str, object], name: str):
    """The spec's :class:`SparqlEndpoint` over ``store``."""
    from ..endpoint.endpoint import EndpointConfig, SparqlEndpoint

    return SparqlEndpoint(
        store,
        EndpointConfig(timeout_s=float(spec.get("timeout_s", 2.0))),  # type: ignore[arg-type]
        name=name,
    )


def _sapphire_config(spec: Dict[str, object]):
    from ..core.config import SapphireConfig

    return SapphireConfig(
        suffix_tree_capacity=int(spec.get("tree_capacity", 500)),  # type: ignore[arg-type]
    )


def _serve_store(store, spec: Dict[str, object], name: str):
    """The spec's backend over ``store``: its :class:`SparqlEndpoint`, or
    with ``sapphire`` a :class:`SapphireServer` in front of it — booted
    from the spec's ``cache_snapshot`` when there is one, else
    initialized (registered) against the endpoint."""
    from ..core.sapphire import SapphireServer

    endpoint = _endpoint(store, spec, name)
    if not spec.get("sapphire"):
        return endpoint
    config = _sapphire_config(spec)
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

    Builds the synthetic dataset once in this process, copies it by IDs
    (``TripleStore.copy_into``: each distinct term interned and written
    once, no triple decoded) into ``n_shards`` WAL database files at
    ``shard_path(base_path, i)``, and closes them (the close checkpoints
    the WAL, leaving self-contained files).  With ``sapphire`` it then
    runs Section 5's crawl once over the in-memory dataset and saves its
    cache file, without indexing a cache this process never serves.  Returns a new spec with ``snapshot_base`` (and
    ``cache_snapshot``) set — hand that to the workers and each opens
    the files read-only.
    """
    from ..store import TripleStore, create_sharded_backend

    _warm_context()  # its import overlaps the build below
    dataset = _build_dataset(spec)
    n_shards = int(spec.get("n_shards", 1))  # type: ignore[arg-type]
    backend = create_sharded_backend(n_shards, "sqlite", base_path)
    dataset.store.copy_into(TripleStore(backend=backend))
    backend.close()
    out = {**spec, "snapshot_base": base_path}
    if spec.get("sapphire"):
        # Run Section 5's crawl ONCE here, over the dataset just built,
        # and persist its cache (one file: dictionary, cache tables,
        # on-disk term index); each worker then boots a read-only tiered
        # replica, no rebuild.  This process serves nothing, so it builds
        # no suffix tree, bins or vocabulary table of its own: the file
        # is the crawl's cache, as a registered server would save it.
        from ..core.initialization import EndpointInitializer
        from ..core.persistence import save_cache

        cache = EndpointInitializer(
            _endpoint(dataset.store, spec, "snapshot-init"), _sapphire_config(spec)).run()
        cache_path = base_path + ".cache.sqlite"
        save_cache(cache, cache_path)
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
    """Worker entry point (module-level, so it is pickled by name).

    Builds the backend, serves HTTP from background threads, and runs
    the control loop on the main thread, answering each ``stats``
    request with the app's ``/stats`` body.  Ready carries the factory's
    seconds and whether this module was preloaded.  EOF on the pipe (the
    parent closed it, or died) drains and exits, so no worker outlives
    its parent.
    """
    try:
        started = time.perf_counter()
        backend = factory(spec)
        boot_s = time.perf_counter() - started
        httpd = _WorkerHttpServer(backend, host, port, worker_id=str(index),
                                  **app_kwargs)  # type: ignore[arg-type]
    except Exception as exc:  # noqa: BLE001 — report, don't vanish silently
        try:
            conn.send(("failed", index, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    httpd.start()
    conn.send(("ready", index, boot_s, os.getpid() != _IMPORTED_BY))
    try:
        while True:
            conn.recv()  # ("stats",), the one request the parent sends
            conn.send(httpd.app.stats_body())
    except (EOFError, OSError):
        pass
    finally:
        httpd.stop()
        conn.close()


# ----------------------------------------------------------------------
# Parent / coordinator
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("index", "process", "conn", "lock", "restarts", "pid",
                 "boot_s", "preloaded")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn: Optional[Connection] = None
        self.lock = threading.Lock()
        self.restarts = 0
        self.pid: Optional[int] = None
        self.boot_s: Optional[float] = None
        self.preloaded = False


class PreforkServer:
    """K pre-forked workers serving one SPARQL endpoint address.

    ``factory(spec)`` builds each worker's backend *inside the worker*
    (it must be a module-level callable — it is pickled by name);
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
        self.series = StatsTimeSeries()
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
        # A pool its process forgets to stop drains at exit, before
        # multiprocessing's own exit hook (registered at its import, so
        # run after this one) joins the non-daemon workers.
        atexit.register(self.stop)
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
        context = _warm_context()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
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
        worker.boot_s, worker.preloaded = message[2:]

    def stop(self) -> None:
        """Graceful drain: close every worker's pipe, and each stops
        accepting, finishes in-flight requests and exits — all at once."""
        atexit.unregister(self.stop)
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=HEALTH_INTERVAL_S * 4 + 1.0)
            self._monitor = None
        for worker in self._workers:
            with worker.lock:
                if worker.conn is not None:
                    worker.conn.close()
                    worker.conn = None
        if self._coordinator is not None:
            self._coordinator.stop()
            self._coordinator = None
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
        self._workers.clear()

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Health / respawn
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(HEALTH_INTERVAL_S):
            for worker in self._workers:
                process = worker.process
                if process is not None and process.is_alive():
                    continue
                if self._stopping.is_set():
                    return
                # Dead worker (or a respawn that failed last tick): reap
                # it and bring up a replacement on the same index.  Its
                # counters die with it (documented) — respawn keeps
                # *capacity*, not history.
                with worker.lock:
                    if worker.conn is not None:
                        worker.conn.close()
                    if process is not None:
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
        """Liveness, restart counts, each worker's boot seconds and
        whether it was forked preloaded: the ``/stats`` ``workers`` field."""
        return [
            {
                "id": worker.index,
                "pid": worker.pid,
                "alive": bool(worker.process is not None
                              and worker.process.is_alive()),
                "restarts": worker.restarts,
                "boot_s": worker.boot_s,
                "preloaded": worker.preloaded,
            }
            for worker in self._workers
        ]

    # ------------------------------------------------------------------
    # Merged observability
    # ------------------------------------------------------------------

    def _stats_body(self, worker: _Worker,
                    timeout_s: float) -> Optional[Dict[str, object]]:
        """One worker's ``/stats`` body over its pipe; ``None`` when the
        pipe is closed (a stopping pool) or the worker does not answer."""
        with worker.lock:
            conn = worker.conn
            if conn is None:
                return None
            try:
                # A previous timed-out call may have left a stale reply
                # queued; drop everything pending so request/response
                # stay paired.
                while conn.poll(0):
                    conn.recv()
                conn.send(("stats",))
                if conn.poll(timeout_s):
                    return conn.recv()
            except (EOFError, OSError):
                return None
        return None

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
            body = self._stats_body(worker, timeout_s)
            if body is not None:
                bodies.append(body)
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
