"""The served system, in child processes, built from public API only.

One child entry point (:func:`_child_main`) covers the three things the
benchmark needs outside its own process:

* ``memory``  — ``build_dataset`` → ``SparqlEndpoint`` →
  ``SapphireServer.register_endpoint`` → ``SparqlHttpServer``;
* ``prefork`` — ``prepare_snapshots`` → ``PreforkServer`` (what
  ``repro serve --sapphire --workers 2 --shards 2`` runs);
* a *reference* child that builds the same backend (for ``prefork``: a
  read-only replica of the same snapshot, as a worker would) and answers
  requests by direct calls, with no HTTP in between.

The parent talks to a child over one pipe: ``("stop",)`` in;
``("ready", info)``, then for a reference child ``("answers", [...])``,
or ``("failed", text)`` out.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from typing import Dict, List, Optional

from repro import (
    DatasetConfig,
    EndpointConfig,
    SapphireConfig,
    SapphireServer,
    SparqlEndpoint,
    SparqlHttpServer,
    build_dataset,
)
from repro.net.prefork import PreforkServer, build_backend_from_spec, prepare_snapshots

from . import answers

#: Admission settings of every served system (ISSUE: the load shape).
APP_KWARGS = {"max_workers": 8, "queue_limit": 32}
ENDPOINT_TIMEOUT_S = 2.0
N_WORKERS = 2
N_SHARDS = 2

Spec = Dict[str, object]


def prefork_spec(scale: str, tree_capacity: int) -> Spec:
    return {"scale": scale, "sapphire": True, "n_shards": N_SHARDS,
            "tree_capacity": tree_capacity, "timeout_s": ENDPOINT_TIMEOUT_S}


def build_memory_sapphire(scale: str, tree_capacity: int, timings: Optional[Dict[str, float]] = None):
    """A freshly initialised in-memory SapphireServer over ``scale``."""
    started = time.perf_counter()
    dataset = build_dataset(getattr(DatasetConfig, scale)())
    built = time.perf_counter()
    endpoint = SparqlEndpoint(dataset.store, EndpointConfig(timeout_s=ENDPOINT_TIMEOUT_S),
                              name=f"dbpedia-{scale}")
    sapphire = SapphireServer(SapphireConfig(suffix_tree_capacity=tree_capacity))
    report = sapphire.register_endpoint(endpoint)
    if timings is not None:
        timings["data.build_s"] = built - started
        timings["core.initialization.register_s"] = time.perf_counter() - built
        timings["core.initialization.queries"] = float(report.total_queries)
    return sapphire


def _child_main(conn, spec: Spec) -> None:
    pool = None
    try:
        timings: Dict[str, float] = {}
        info: Dict[str, object] = {"timings": timings}
        sapphire = None
        if spec["serving"] == "memory":
            sapphire = build_memory_sapphire(str(spec["scale"]), int(spec["tree_capacity"]), timings)  # type: ignore[arg-type]
            info["triples"] = len(sapphire.endpoints[0].store)
            info["cache"] = sapphire.cache_stats()
            if spec["serve"]:
                # Never stopped: its threads are daemons and end with this
                # process, which saves the half second shutdown() polls for.
                server = SparqlHttpServer(sapphire, **APP_KWARGS).start()
                info.update(url=server.url, stats_url=server.url, pids=[os.getpid()])
        elif spec["serve"]:
            started = time.perf_counter()
            prepared = prepare_snapshots(
                prefork_spec(str(spec["scale"]), int(spec["tree_capacity"])),  # type: ignore[arg-type]
                os.path.join(str(spec["scratch"]), "snapshot"))
            timings["net.prefork.prepare_s"] = time.perf_counter() - started
            started = time.perf_counter()
            pool = PreforkServer(build_backend_from_spec, prepared, n_workers=N_WORKERS,
                                 app_kwargs=dict(APP_KWARGS)).start()
            timings["net.prefork.boot_s"] = time.perf_counter() - started
            info.update(url=pool.url, stats_url=pool.stats_url, replica_spec=prepared,
                        pids=[view["pid"] for view in pool.workers_view()])
        else:
            # A read-only replica of the serving child's snapshot, opened
            # exactly as one of its workers opens it.
            sapphire = build_backend_from_spec(spec["replica_spec"])  # type: ignore[arg-type]
        conn.send(("ready", info))
        if not spec["serve"]:
            conn.send(("answers", [answers.digest(answers.answer_in_process(sapphire, request))
                                   for request in spec["requests"]]))  # type: ignore[union-attr]
        conn.recv()  # ("stop",), or EOF when the parent is gone
    except EOFError:
        pass  # the parent went away: fall through to the teardown
    except Exception as error:  # noqa: BLE001 — reported to the parent, which fails the run
        conn.send(("failed", f"{type(error).__name__}: {error}"))
    finally:
        if pool is not None:
            pool.stop()
        conn.close()


class Child:
    """Parent-side handle: spawn, wait for ready, call, stop."""

    def __init__(self, spec: Spec, ready_timeout_s: float = 150.0) -> None:
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(target=_child_main, args=(child_conn, spec),
                                       name=f"spine-{spec['serving']}")
        self.process.start()
        child_conn.close()
        self.ready_timeout_s = ready_timeout_s
        self.info: Dict[str, object] = {}

    def wait_ready(self) -> Dict[str, object]:
        self.info = self._receive("ready", self.ready_timeout_s)
        return self.info

    def take_answers(self, timeout_s: float = 150.0) -> List[str]:
        return self._receive("answers", timeout_s)

    def _receive(self, expected: str, timeout_s: float):
        if not self.conn.poll(timeout_s):
            raise RuntimeError(f"{self.process.name}: no {expected!r} within {timeout_s:.0f}s")
        try:
            message = self.conn.recv()
        except EOFError:
            raise RuntimeError(f"{self.process.name}: exited before {expected!r}") from None
        if message[0] != expected:
            raise RuntimeError(f"{self.process.name}: {message[0]}: {message[1]}")
        return message[1]

    def peak_rss_mb(self) -> float:
        """Max resident set of the serving process(es): ``VmHWM`` summed
        over the pids the child reported (itself, or its pre-fork workers)."""
        total_kb = 0
        for pid in self.info["pids"]:  # type: ignore[union-attr]
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def request_stop(self) -> None:
        """Tell the child to tear down; :meth:`stop` still has to join it."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass

    def stop(self) -> None:
        self.request_stop()
        self.process.join(timeout=30.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10.0)
        self.conn.close()


def serving_spec(workload, sizing, scratch: str) -> Spec:
    return {"serving": workload.serving, "serve": True, "scale": workload.scale(sizing),
            "tree_capacity": workload.tree_capacity, "scratch": scratch}


def reference_spec(workload, sizing, served_info: Dict[str, object],
                   requests: List[dict]) -> Spec:
    spec: Spec = {"serving": workload.serving, "serve": False, "requests": requests,
                  "scale": workload.scale(sizing), "tree_capacity": workload.tree_capacity}
    if workload.serving == "prefork":
        spec["replica_spec"] = served_info["replica_spec"]
    return spec


def empty_dir(path: str) -> None:
    """Make ``path`` an empty directory (one set-up's snapshot files)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
