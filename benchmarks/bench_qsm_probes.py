#!/usr/bin/env python3
"""QSM suggestion-round economics: batched VALUES probes over live HTTP.

Stands up a loopback :class:`SparqlHttpServer` holding the synthetic
dataset, initializes a :class:`SapphireServer` **over the wire** (the
whole Section 5 crawl travels as HTTP requests), and runs the same QSM
alternative-terms suggestion rounds through two configurations:

* **batched** — the default: every probed query position ships all its
  candidate terms as one ``VALUES``-constrained probe.  The federation
  here has one member, so its single-source rule sends each probe to it
  whole: one HTTP request per probed position, no source-selection ASK;
* **per-candidate** — ``qsm_batched_probes=False``, the classic
  Algorithm 2 loop issuing one query per candidate (each of them also
  shipped whole).

Gate (runs in ``--quick`` CI mode too):

* both configurations must produce **identical suggestions**
  (message + answer-count parity);
* the batched rounds must issue **>= 2x fewer HTTP requests** than the
  per-candidate rounds, measured both client-side (query logs) and
  server-side (``/stats`` request counters reconcile).  With pushed
  probes the three rounds read 7 requests against 26 (3.7x; 12 against
  29, 2.4x, when both sides also paid the ASK probes and the decomposed
  plan), so the 2x gate binds as before.

``--json PATH`` (via ``conftest.bench_main``) writes the machine-readable
results CI uploads as a ``BENCH_*.json`` artifact.

Run:  PYTHONPATH=src python benchmarks/bench_qsm_probes.py [--quick] [--json out.json]
"""

from __future__ import annotations

import json
import os
import time

import pytest
from conftest import emit

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.data import DatasetConfig, build_dataset
from repro.net import HttpSparqlEndpoint, SparqlHttpServer, fetch_stats
from repro.sparql.parser import parse_query

#: The gate: batching must cut suggestion-round HTTP traffic this much.
MIN_REQUEST_REDUCTION = 2.0

#: Suggestion rounds modelled on the study queries (misspelled
#: predicates and literals with rich candidate sets in the cache).
ROUND_QUERIES = [
    'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }',
    'SELECT ?b WHERE { ?b dbo:wifes ?w . ?b foaf:name "Tom Hanks"@en }',
    'SELECT ?s WHERE { ?s dbo:almaMater "Princeton Universiti"@en }',
]


def fetch_requests(server) -> int:
    return fetch_stats(server.url)["requests"]


@pytest.fixture(scope="module")
def stack():
    dataset = build_dataset(DatasetConfig.tiny())
    endpoint = SparqlEndpoint(
        dataset.store, EndpointConfig.warehouse(), name="data"
    )
    server = SparqlHttpServer(endpoint).start()
    yield server
    server.stop()


def make_sapphire(http_server, batched):
    """A SapphireServer whose only endpoint is reached over HTTP —
    initialization and every probe go across the loopback wire."""
    client = HttpSparqlEndpoint(
        http_server.url, name=f"wire-{'batched' if batched else 'classic'}",
        timeout_s=30.0,
    )
    config = SapphireConfig(
        suffix_tree_capacity=500, processes=1, qsm_batched_probes=batched
    )
    sapphire = SapphireServer(config)
    sapphire.register_endpoint(client, warehouse=True)
    return sapphire, client


def run_rounds(sapphire, client, http_server):
    """All suggestion rounds; returns (signatures, client_requests,
    server_requests).

    Counted **cold**: a suggestion round always serves a query the user
    just composed.  (A one-member federation sends no source-selection
    ASK probes, so cold and warm traffic are the same here.)
    """
    client.reset_log()
    server_before = fetch_requests(http_server)
    signatures = []
    for query in ROUND_QUERIES:
        suggestions = sapphire.terms_finder.suggest(parse_query(query))
        signatures.append([
            (s.message(), s.n_answers, len(s.prefetched.rows) if s.prefetched else 0)
            for s in suggestions
        ])
    client_requests = client.query_count
    server_requests = fetch_requests(http_server) - server_before
    return signatures, client_requests, server_requests


def test_batched_suggestion_rounds(stack, benchmark):
    batched, batched_client = make_sapphire(stack, batched=True)
    classic, classic_client = make_sapphire(stack, batched=False)

    batched_sigs, batched_reqs, batched_server = run_rounds(
        batched, batched_client, stack
    )
    classic_sigs, classic_reqs, classic_server = run_rounds(
        classic, classic_client, stack
    )

    # -- suggestion parity gate ----------------------------------------
    assert batched_sigs == classic_sigs
    assert any(sig for sig in batched_sigs), "rounds produced no suggestions"

    # -- client/server reconciliation ----------------------------------
    assert batched_reqs == batched_server
    assert classic_reqs == classic_server

    # -- round-trip gate -----------------------------------------------
    reduction = classic_reqs / max(batched_reqs, 1)
    assert reduction >= MIN_REQUEST_REDUCTION, (
        f"batched rounds used {batched_reqs} requests vs {classic_reqs} "
        f"per-candidate — only {reduction:.1f}x better, gate is "
        f"{MIN_REQUEST_REDUCTION}x"
    )

    # -- timed rounds (pytest-benchmark; a single pass under --quick) --
    def timed_round():
        suggestions = batched.terms_finder.suggest(parse_query(ROUND_QUERIES[0]))
        assert suggestions

    started = time.perf_counter()
    benchmark(timed_round)
    elapsed = time.perf_counter() - started

    emit(
        "QSM suggestion rounds — batched VALUES probes vs per-candidate",
        f"rounds:               {len(ROUND_QUERIES)} queries over loopback HTTP\n"
        f"requests (batched):   {batched_reqs}\n"
        f"requests (1/cand.):   {classic_reqs}\n"
        f"reduction:            {reduction:.1f}x  (gate >= "
        f"{MIN_REQUEST_REDUCTION:.0f}x)\n"
        f"parity:               batched == per-candidate suggestions\n"
        f"stats reconciled:     client and /stats counters agree",
    )

    json_path = os.environ.get("BENCH_JSON")
    if json_path:
        payload = {
            "benchmark": "qsm_probes",
            "rounds": len(ROUND_QUERIES),
            "requests_batched": batched_reqs,
            "requests_per_candidate": classic_reqs,
            "reduction": reduction,
            "bench_seconds": elapsed,
            "gate": {
                "min_reduction": MIN_REQUEST_REDUCTION,
                "parity_mismatches": 0,
                "reconciled": True,
                "pass": True,
            },
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nresults written to {json_path}")


def test_probe_explain_is_free(stack):
    """explain_suggestions shows each probe and the member's own plan
    for it (fetched with the protocol's free EXPLAIN) without a single
    data request."""
    sapphire, client = make_sapphire(stack, batched=True)
    sapphire.terms_finder.suggest(parse_query(ROUND_QUERIES[0]))  # warm
    plan = sapphire.explain_suggestions(ROUND_QUERIES[0])
    assert "sapphire_probe" in plan
    assert f"SingleSource(@{client.name})" in plan and "ValuesScan" in plan
    client.reset_log()
    sapphire.explain_suggestions(ROUND_QUERIES[0])
    assert client.query_count == 0


if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
