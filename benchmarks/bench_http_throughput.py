#!/usr/bin/env python3
"""Worker-count scaling: queries/s of a pre-fork pool at 1, 2 and 4 workers.

Each pool serves the same 2-shard SQLite snapshots of the tiny dataset
to ``N_CLIENTS`` concurrent :class:`HttpSparqlEndpoint` clients, each
running the query mix ``SCALING_ROUNDS`` times.  Gate: >= 1.6x queries/s
at 2 workers vs 1 on machines with >= 4 cores (relaxed to parity within
noise on smaller hosts, where the clients and the workers contend for
the same cores).  Every round must return the rows an in-process
endpoint over the same snapshot files returns, so a speed-up can never
come from answering less.

Correctness, ``/stats`` reconciliation, connection reuse and 503
accounting are tier-1 tests (``tests/test_prefork.py``,
``tests/test_connections.py``, ``tests/test_http_protocol.py``); this
script holds only the timing ratio, which has no test form.

Run:  PYTHONPATH=src python benchmarks/bench_http_throughput.py [--quick]
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

from conftest import emit

from repro.net import (
    HttpSparqlEndpoint,
    PreforkServer,
    build_backend_from_spec,
    prepare_snapshots,
)

#: Concurrent clients per pool.
N_CLIENTS = 8

#: Pre-fork pool sizes.
WORKER_COUNTS = [1, 2, 4]

#: Timed rounds per worker count.
SCALING_ROUNDS = 2

#: Per-client query mix: scans, joins, aggregation.
QUERIES = [
    "SELECT ?s WHERE { ?s a dbo:Person } LIMIT 50",
    "SELECT ?s ?n WHERE { ?s foaf:name ?n } LIMIT 100",
    "SELECT ?p ?c WHERE { ?p dbo:birthPlace ?c }",
    "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY DESC(?n) ?t",
    "SELECT ?b ?k WHERE { ?b dbo:author ?a . ?a dbo:birthPlace ?c . ?c dbo:country ?k }",
]


def row_key(result) -> List[Tuple]:
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


def run_round(clients, expected) -> None:
    """One concurrent round: every client runs the full mix and must
    see the expected rows."""

    def drive(client) -> None:
        for query in QUERIES:
            assert row_key(client.select(query)) == expected[query], query

    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        list(pool.map(drive, clients))


def test_worker_scaling(tmp_path):
    spec = {"scale": "tiny", "seed": 42, "timeout_s": 30.0,
            "sapphire": False, "n_shards": 2}
    snapshot_spec = prepare_snapshots(spec, str(tmp_path / "data.sqlite"))
    # LIMIT cuts depend on scan order, which differs between memory and
    # SQLite shards: expect what an endpoint over the same files returns.
    origin = build_backend_from_spec(snapshot_spec)
    expected = {query: row_key(origin.select(query)) for query in QUERIES}

    qps_by_workers: Dict[int, float] = {}
    for n_workers in WORKER_COUNTS:
        pool = PreforkServer(
            build_backend_from_spec, snapshot_spec, n_workers=n_workers,
            app_kwargs={"max_workers": N_CLIENTS,
                        "queue_limit": 4 * N_CLIENTS},
        )
        pool.start()
        try:
            clients = [
                HttpSparqlEndpoint(pool.url, name=f"w{n_workers}-c{i}",
                                   timeout_s=30.0)
                for i in range(N_CLIENTS)
            ]
            run_round(clients, expected)  # warmup (snapshot page cache)
            started = time.perf_counter()
            for _ in range(SCALING_ROUNDS):
                run_round(clients, expected)
            elapsed = time.perf_counter() - started
            qps_by_workers[n_workers] = (
                SCALING_ROUNDS * N_CLIENTS * len(QUERIES) / elapsed)
        finally:
            pool.stop()

    speedup = qps_by_workers[2] / qps_by_workers[1]
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        threshold, basis = 1.6, f"{cpus} cores: near-linear gate"
    else:
        threshold, basis = 0.8, f"{cpus} core(s): relaxed to parity"
    emit(
        "Worker-count scaling — pre-fork pool, 2-shard SQLite snapshots",
        "\n".join(f"  {n} worker(s): {qps_by_workers[n]:,.0f} queries/s"
                  for n in WORKER_COUNTS)
        + f"\n2-worker speedup: {speedup:.2f}x (gate {threshold}x, {basis})",
    )
    assert speedup >= threshold, (
        f"2-worker speedup {speedup:.2f}x below {threshold}x ({basis})")


if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
