#!/usr/bin/env python3
"""Federated round-trip economics: batched bind joins over live HTTP.

Stands up **three** loopback :class:`SparqlHttpServer` instances, each
holding one slice of a star-shaped dataset (types / names / places),
and runs the same star join through two federations of
:class:`HttpSparqlEndpoint` clients:

* **batched** — the default :class:`FederatedQueryProcessor`, whose
  :class:`~repro.federation.remote.RemoteBindJoinNode` ships every batch of
  accumulated bindings as a single ``VALUES``-constrained request;
* **per-binding** — ``bind_join_batch_size=1``, the classic nested-loop
  federation that issues one HTTP request per binding (the seed
  behaviour this PR replaces).

Gate (runs in ``--quick`` CI mode too):

* both federations and a merged single-store evaluation must return
  identical rows (zero-mismatch parity);
* the batched federation must issue **>= 5x fewer HTTP requests** than
  the per-binding one, measured both client-side (query logs) and
  server-side (``/stats`` request counters reconcile);
* a federation whose data sits at **one** member — alone, or beside an
  empty member once source selection has run — must ship every query
  of the set whole: exactly one HTTP request per query, none to the
  empty member, rows equal to the merged store's (a count, so it
  repeats exactly).

``--json PATH`` (via ``conftest.bench_main``) writes the machine-readable
results CI uploads as a ``BENCH_*.json`` artifact.

Run:  PYTHONPATH=src python benchmarks/bench_federation.py [--quick] [--json out.json]
"""

from __future__ import annotations

import json
import os
import time
from typing import List

import pytest
from conftest import emit

from repro import EndpointConfig, FederatedQueryProcessor, SparqlEndpoint
from repro.net import HttpSparqlEndpoint, SparqlHttpServer, fetch_stats
from repro.rdf import DBO, DBR, FOAF, Literal, RDF_TYPE, RDFS_LABEL, Triple
from repro.sparql import evaluate
from repro.store import TripleStore

#: Hub fan-out of the star: one person joins names and places per spoke.
N_PERSONS = 60
N_CITIES = 6

#: The gate: batching must cut HTTP round-trips at least this much.
MIN_REQUEST_REDUCTION = 5.0

#: The 3-endpoint star query: the hub variable ?p joins all slices.
STAR_QUERY = (
    "SELECT ?p ?n ?c WHERE { ?p a dbo:Person . ?p foaf:name ?n . "
    "?p dbo:birthPlace ?c }"
)

#: Ride-along parity shapes: the new operators across the same wire.
EXTRA_QUERIES = [
    "SELECT ?x WHERE { { ?x a dbo:Person } UNION { ?x a dbo:City } }",
    "SELECT ?p ?c WHERE { VALUES ?p { dbr:F_P0 dbr:F_P1 dbr:F_P2 } "
    "?p dbo:birthPlace ?c }",
    "SELECT ?p WHERE { ?p a dbo:Person . MINUS { ?p dbo:birthPlace dbr:F_C0 } }",
]


def build_star_slices():
    types, names, places = TripleStore(), TripleStore(), TripleStore()
    cities = [DBR.term(f"F_C{i}") for i in range(N_CITIES)]
    for i, city in enumerate(cities):
        places.add(Triple(city, RDF_TYPE, DBO.City))
        places.add(Triple(city, RDFS_LABEL, Literal(f"City {i}", lang="en")))
    for i in range(N_PERSONS):
        person = DBR.term(f"F_P{i}")
        types.add(Triple(person, RDF_TYPE, DBO.Person))
        names.add(Triple(person, FOAF.name, Literal(f"Person {i}", lang="en")))
        places.add(Triple(person, DBO.birthPlace, cities[i % N_CITIES]))
    return types, names, places


def row_key(result) -> List:
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


def fetch_requests(server) -> int:
    return fetch_stats(server.url)["requests"]


@pytest.fixture(scope="module")
def stack():
    slices = build_star_slices()
    merged = TripleStore()
    for part in slices:
        merged.add_all(part.triples())
    servers = [
        SparqlHttpServer(
            SparqlEndpoint(store, EndpointConfig.warehouse(), name=name)
        ).start()
        for store, name in zip(slices, ("types", "names", "places"))
    ]
    yield servers, merged
    for server in servers:
        server.stop()


def make_federation(servers, batch_size) -> FederatedQueryProcessor:
    clients = [
        HttpSparqlEndpoint(server.url, name=f"client-{i}", timeout_s=30.0)
        for i, server in enumerate(servers)
    ]
    return FederatedQueryProcessor(clients, bind_join_batch_size=batch_size)


def run_counted(federation, servers, query):
    """Execute ``query`` (source cache pre-warmed) and count the HTTP
    requests it took, client- and server-side."""
    for client in federation.endpoints:
        client.reset_log()
    server_before = sum(fetch_requests(server) for server in servers)
    result = federation.select(query)
    client_requests = sum(client.query_count for client in federation.endpoints)
    server_requests = sum(fetch_requests(server) for server in servers) - server_before
    return result, client_requests, server_requests


def single_source_request_counts(merged):
    """Requests per query when one member holds everything.

    Serves ``merged`` and an empty store over loopback HTTP and runs the
    whole query set through a one-member and a one-empty-member
    federation; returns ``{federation: [requests per query]}`` after
    asserting the answers and the empty member's silence.
    """
    queries = [STAR_QUERY] + EXTRA_QUERIES
    full = SparqlHttpServer(
        SparqlEndpoint(merged, EndpointConfig.warehouse(), name="full")).start()
    empty = SparqlHttpServer(
        SparqlEndpoint(TripleStore(), EndpointConfig.warehouse(), name="empty")).start()
    try:
        counts = {}
        for label, servers in (("one_member", [full]), ("one_empty_member", [full, empty])):
            federation = make_federation(servers, batch_size=30)
            counts[label] = []
            for query in queries:
                federation.select(query)  # source selection, where there is any
                result, client_requests, server_requests = run_counted(
                    federation, servers, query)
                assert row_key(result) == row_key(evaluate(merged, query)), query
                assert client_requests == server_requests
                assert federation.endpoints[0].query_count == client_requests  # all to ``full``
                counts[label].append(client_requests)
        return counts
    finally:
        full.stop()
        empty.stop()


def test_batched_bind_join_round_trips(stack, benchmark):
    servers, merged = stack
    batched = make_federation(servers, batch_size=30)
    per_binding = make_federation(servers, batch_size=1)

    # Warm both source caches so the counted runs are pure execution.
    batched.select(STAR_QUERY)
    per_binding.select(STAR_QUERY)

    batched_result, batched_client, batched_server = run_counted(
        batched, servers, STAR_QUERY
    )
    single_result, single_client, single_server = run_counted(
        per_binding, servers, STAR_QUERY
    )
    local_result = evaluate(merged, STAR_QUERY)

    # -- parity gate ---------------------------------------------------
    assert len(batched_result.rows) == N_PERSONS
    assert row_key(batched_result) == row_key(local_result)
    assert row_key(single_result) == row_key(local_result)

    # -- client/server reconciliation ----------------------------------
    assert batched_client == batched_server
    assert single_client == single_server

    # -- round-trip gate -----------------------------------------------
    reduction = single_client / max(batched_client, 1)
    assert reduction >= MIN_REQUEST_REDUCTION, (
        f"batched federation used {batched_client} requests vs "
        f"{single_client} per-binding — only {reduction:.1f}x better, "
        f"gate is {MIN_REQUEST_REDUCTION}x"
    )

    # -- single-source gate: one request per query, counted -------------
    pushed = single_source_request_counts(merged)
    assert all(count == 1 for counts in pushed.values() for count in counts), pushed

    # -- ride-along parity for UNION/VALUES/MINUS over the same wire ---
    mismatches = [
        query for query in EXTRA_QUERIES
        if row_key(batched.select(query)) != row_key(evaluate(merged, query))
    ]
    assert mismatches == [], mismatches

    # -- timed rounds (pytest-benchmark; a single pass under --quick) --
    def timed_round():
        result = batched.select(STAR_QUERY)
        assert len(result.rows) == N_PERSONS

    started = time.perf_counter()
    benchmark(timed_round)
    elapsed = time.perf_counter() - started

    emit(
        "Federated star join — batched VALUES bind join vs per-binding",
        f"endpoints:            3 loopback HTTP servers\n"
        f"star rows:            {N_PERSONS}\n"
        f"requests (batched):   {batched_client}\n"
        f"requests (1/binding): {single_client}\n"
        f"reduction:            {reduction:.1f}x  (gate >= "
        f"{MIN_REQUEST_REDUCTION:.0f}x)\n"
        f"parity:               batched == per-binding == merged store\n"
        f"stats reconciled:     client and /stats counters agree\n"
        f"one member:           {pushed['one_member']} requests per query\n"
        f"one + empty member:   {pushed['one_empty_member']} requests per query",
    )

    json_path = os.environ.get("BENCH_JSON")
    if json_path:
        payload = {
            "benchmark": "federation",
            "endpoints": len(servers),
            "star_rows": N_PERSONS,
            "requests_batched": batched_client,
            "requests_per_binding": single_client,
            "reduction": reduction,
            "single_source_requests_per_query": pushed,
            "bench_seconds": elapsed,
            "gate": {
                "min_reduction": MIN_REQUEST_REDUCTION,
                "single_source_requests_per_query": 1,
                "parity_mismatches": 0,
                "reconciled": True,
                "pass": True,
            },
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nresults written to {json_path}")


def test_federated_explain_over_http(stack):
    """EXPLAIN shows the batched plan without issuing data requests."""
    servers, _ = stack
    federation = make_federation(servers, batch_size=30)
    federation.select(STAR_QUERY)  # warm the probe cache
    for client in federation.endpoints:
        client.reset_log()
    plan = federation.explain(STAR_QUERY)
    assert "RemoteBindJoin" in plan and "batch=30" in plan
    assert sum(client.query_count for client in federation.endpoints) == 0


if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
