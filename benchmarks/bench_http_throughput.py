#!/usr/bin/env python3
"""HTTP serving throughput: concurrent clients over loopback.

Stands up a :class:`SparqlHttpServer` over the tiny synthetic dataset
and drives it with ``N_CLIENTS`` concurrent :class:`HttpSparqlEndpoint`
clients, each issuing the full query mix per round.  Reports sustained
QPS and client-observed latency percentiles.

Gate (runs in ``--quick`` CI mode too):

* every response must match the rows the wrapped in-process endpoint
  returns for the same query — zero dropped or incorrect responses;
* the server's ``/stats`` counters must reconcile exactly with the
  client-side totals (requests, successes, rows served; no rejects or
  timeouts at this concurrency);
* connections are reused: the ``connections`` block of ``/stats`` shows
  at most one connection per client and per
  ``RESPONSES_PER_CONNECTION`` requests of it, plus one.

``--json PATH`` (via ``conftest.bench_main``) writes the machine-readable
results CI uploads as a ``BENCH_*.json`` artifact.

Run:  PYTHONPATH=src python benchmarks/bench_http_throughput.py [--quick] [--json out.json]
"""

from __future__ import annotations

import json
import math
import os
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

import pytest
from conftest import emit

from repro import EndpointConfig, SparqlEndpoint
from repro.net import HttpSparqlEndpoint, LatencyHistogram, SparqlHttpServer, fetch_stats
from repro.net.server import RESPONSES_PER_CONNECTION

#: Concurrency gate: the server must sustain at least this many clients.
N_CLIENTS = 8

#: Pre-fork pool sizes for the worker-count scaling section.
WORKER_COUNTS = [1, 2, 4]

#: Timed rounds per worker count in the scaling section.
SCALING_ROUNDS = 2

#: Per-client query mix: scans, joins, aggregation, ASK-shaped traffic.
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


@pytest.fixture(scope="module")
def stack(tiny_dataset):
    endpoint = SparqlEndpoint(
        tiny_dataset.store, EndpointConfig.warehouse(), name="bench-origin"
    )
    expected = {query: row_key(endpoint.select(query)) for query in QUERIES}
    server = SparqlHttpServer(
        endpoint, max_workers=N_CLIENTS, queue_limit=4 * N_CLIENTS
    ).start()
    clients = [
        HttpSparqlEndpoint(server.url, name=f"client-{i}", timeout_s=30.0)
        for i in range(N_CLIENTS)
    ]
    yield server, clients, expected
    server.stop()


def run_round(clients, expected) -> Tuple[List[float], List[str], int]:
    """One concurrent round: every client runs the full mix.

    Returns (per-request latencies, mismatch descriptions, rows seen).
    """
    latencies: List[float] = []
    mismatches: List[str] = []
    rows_seen = 0

    def drive(client) -> Tuple[List[float], List[str], int]:
        local_lat, local_bad, local_rows = [], [], 0
        for query in QUERIES:
            started = time.perf_counter()
            result = client.select(query)
            local_lat.append(time.perf_counter() - started)
            local_rows += len(result.rows)
            if row_key(result) != expected[query]:
                local_bad.append(f"{client.name}: wrong rows for {query!r}")
        return local_lat, local_bad, local_rows

    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        for local_lat, local_bad, local_rows in pool.map(drive, clients):
            latencies.extend(local_lat)
            mismatches.extend(local_bad)
            rows_seen += local_rows
    return latencies, mismatches, rows_seen


def percentile(sample: List[float], fraction: float) -> float:
    """Client-side percentiles come out of the histogram behind /stats,
    so the bench and the server can never disagree on the formula."""
    histogram = LatencyHistogram()
    for seconds in sample:
        histogram.record(seconds)
    return histogram.percentile(fraction)


def update_bench_json(data: Dict, section: str = None) -> None:
    """Merge results into the ``--json`` artifact.

    Both tests in this file contribute to one ``BENCH_*.json``; merging
    (instead of overwriting) keeps the artifact whole regardless of
    which subset ran (``-k``).
    """
    json_path = os.environ.get("BENCH_JSON")
    if not json_path:
        return
    try:
        with open(json_path) as handle:
            payload = json.load(handle)
    except (FileNotFoundError, ValueError):
        payload = {}
    payload["benchmark"] = "http_throughput"
    if section is None:
        payload.update(data)
    else:
        payload[section] = data
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nresults written to {json_path}")


def test_http_throughput(stack, benchmark):
    server, clients, expected = stack
    expected_rows_per_round = sum(len(rows) for rows in expected.values()) * len(clients)
    requests_per_round = len(clients) * len(QUERIES)

    # -- correctness + reconciliation round (always runs, untimed) -----
    before = fetch_stats(server.url)
    started = time.perf_counter()
    latencies, mismatches, rows_seen = run_round(clients, expected)
    elapsed = time.perf_counter() - started
    after = fetch_stats(server.url)

    assert mismatches == [], "\n".join(mismatches)
    assert rows_seen == expected_rows_per_round
    assert after["requests"] - before["requests"] == requests_per_round
    assert after["ok"] - before["ok"] == requests_per_round
    assert after["rejected"] == before["rejected"]
    assert after["timeouts"] == before["timeouts"]
    assert after["rows_served"] - before["rows_served"] == expected_rows_per_round

    qps = requests_per_round / elapsed
    p50_ms = percentile(latencies, 0.50) * 1e3
    p99_ms = percentile(latencies, 0.99) * 1e3

    # -- timed rounds (pytest-benchmark; a single pass under --quick) --
    def timed_round():
        lat, bad, _ = run_round(clients, expected)
        assert not bad
        return lat

    benchmark(timed_round)

    # -- connection reuse (docs/server.md, *Connections*) --------------
    connections = fetch_stats(server.url)["connections"]
    per_client = math.ceil(connections["requests"] / len(clients))
    allowed = len(clients) * (
        math.ceil(per_client / RESPONSES_PER_CONNECTION) + 1)
    assert connections["accepted"] <= allowed, (
        f"{connections['accepted']} connections for "
        f"{connections['requests']} requests of {len(clients)} clients "
        f"(at most {allowed} if they were reused)")

    emit(
        f"HTTP throughput — {len(clients)} concurrent clients over loopback",
        f"requests/round: {requests_per_round} "
        f"({len(QUERIES)} queries x {len(clients)} clients)\n"
        f"sustained QPS:  {qps:,.0f}\n"
        f"latency p50:    {p50_ms:.2f} ms\n"
        f"latency p99:    {p99_ms:.2f} ms\n"
        f"rows/round:     {expected_rows_per_round:,}\n"
        f"server stats:   {after['requests']} requests, "
        f"{after['rejected']} rejected, {after['timeouts']} timeouts\n"
        f"connections:    {connections['accepted']} accepted for "
        f"{connections['requests']} requests (gate <= {allowed})\n"
        f"gate:           zero mismatches, stats reconciled, connections reused",
    )

    update_bench_json({
        "clients": len(clients),
        "connections": connections,
        "queries_per_client": len(QUERIES),
        "qps": qps,
        "latency_ms": {"p50": p50_ms, "p99": p99_ms},
        "rows_per_round": expected_rows_per_round,
        "server_stats": after,
        "gate": {
            "min_clients": N_CLIENTS,
            "mismatches": 0,
            "reconciled": True,
            "pass": True,
        },
    })


def observed_workers(pool, n_requests: int = 24) -> set:
    """Worker ids stamped on ``/health`` over fresh connections.

    Each request opens its own connection, so the kernel's accept
    balancing decides the worker; over 24 probes every worker of a
    small pool is seen with overwhelming probability."""
    from repro.net.wsgi import WORKER_HEADER

    root = pool.url.rsplit("/", 1)[0]
    seen = set()
    for _ in range(n_requests):
        with urllib.request.urlopen(root + "/health", timeout=10.0) as response:
            response.read()
            worker = response.headers.get(WORKER_HEADER)
            if worker is not None:
                seen.add(worker)
    return seen


def test_worker_scaling(tmp_path):
    """Queries/s across pre-fork pool sizes over sharded SQLite snapshots.

    Gate: zero row mismatches at every pool size, merged coordinator
    ``/stats`` reconciling exactly with the client ledger, and >= 1.6x
    QPS at 2 workers vs 1 on machines with >= 4 cores (relaxed to
    parity-within-noise on smaller hosts, where the client and the
    workers contend for the same cores)."""
    from repro.net import PreforkServer, build_backend_from_spec, prepare_snapshots

    spec = {"scale": "tiny", "seed": 42, "timeout_s": 30.0,
            "sapphire": False, "n_shards": 2}
    snapshot_spec = prepare_snapshots(spec, str(tmp_path / "data.sqlite"))

    # Expected rows come from an in-process endpoint over the same
    # read-only snapshot files the workers serve (LIMIT cuts depend on
    # scan order, which differs between memory and SQLite shards).
    origin = build_backend_from_spec(snapshot_spec)
    expected = {query: row_key(origin.select(query)) for query in QUERIES}
    rows_per_round = sum(len(rows) for rows in expected.values()) * N_CLIENTS
    requests_per_round = N_CLIENTS * len(QUERIES)

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
            if n_workers > 1:
                assert len(observed_workers(pool)) >= 2, \
                    "accept balancing never spread load across workers"

            before = pool.stats()
            started = time.perf_counter()
            for _ in range(SCALING_ROUNDS):
                _, mismatches, rows_seen = run_round(clients, expected)
                assert mismatches == [], "\n".join(mismatches)
                assert rows_seen == rows_per_round
            elapsed = time.perf_counter() - started
            after = pool.stats()

            driven = SCALING_ROUNDS * requests_per_round
            assert after["requests"] - before["requests"] == driven
            assert after["ok"] - before["ok"] == driven
            assert (after["rows_served"] - before["rows_served"]
                    == SCALING_ROUNDS * rows_per_round)
            assert after["n_workers"] == n_workers
            qps_by_workers[n_workers] = driven / elapsed
        finally:
            pool.stop()

    speedup = qps_by_workers[2] / qps_by_workers[1]
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        threshold, basis = 1.6, f"{cpus} cores: near-linear gate"
    else:
        threshold, basis = 0.8, f"{cpus} core(s): relaxed to parity"
    assert speedup >= threshold, (
        f"2-worker speedup {speedup:.2f}x below {threshold}x ({basis})")

    lines = [
        f"  {n} worker(s): {qps_by_workers[n]:,.0f} queries/s"
        for n in WORKER_COUNTS
    ]
    emit(
        "Worker-count scaling — pre-fork pool, 2-shard SQLite snapshots",
        "\n".join(lines) + "\n"
        f"2-worker speedup: {speedup:.2f}x (gate {threshold}x, {basis})\n"
        f"gate:             zero mismatches, merged /stats reconciled",
    )

    update_bench_json({
        "shards": 2,
        "clients": N_CLIENTS,
        "rounds": SCALING_ROUNDS,
        "qps_by_workers": {str(n): qps_by_workers[n] for n in WORKER_COUNTS},
        "speedup_2_workers": speedup,
        "gate": {"threshold": threshold, "cpus": cpus, "pass": True},
    }, section="worker_scaling")


def test_overload_sheds_load_cleanly(stack):
    """Past the admission limit the server answers 503 (never hangs or
    drops the connection), and the counters account for every request."""
    server, clients, expected = stack
    tight = SparqlHttpServer(
        server.app.backend, max_workers=1, queue_limit=1, deadline_s=5.0
    ).start()
    try:
        hammer = [
            HttpSparqlEndpoint(tight.url, name=f"h{i}", max_retries=0,
                               timeout_s=30.0)
            for i in range(2 * N_CLIENTS)
        ]

        def drive(client) -> str:
            from repro.endpoint.endpoint import QueryRejected

            try:
                client.select(QUERIES[2])
                return "ok"
            except QueryRejected:
                return "rejected"

        with ThreadPoolExecutor(max_workers=len(hammer)) as pool:
            outcomes = list(pool.map(drive, hammer))
        stats = fetch_stats(tight.url)
        # Every request is accounted for: served or cleanly rejected.
        assert outcomes.count("ok") + outcomes.count("rejected") == len(hammer)
        assert outcomes.count("ok") >= 1
        assert stats["ok"] == outcomes.count("ok")
        assert stats["rejected"] == outcomes.count("rejected")
        assert stats["requests"] == len(hammer)
    finally:
        tight.stop()


if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
