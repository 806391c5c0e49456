"""What the served app reads off each kind of backend.

One parametrised case per backend the app serves — a plain endpoint, a
2-shard one, two federations, a wire client and a Sapphire server — pins
the request deadline, whether the suggestion routes exist, and the
``federation`` / ``shards`` / ``cache`` blocks of ``/stats``.  The app
asks every backend the same typed questions
(:class:`~repro.endpoint.endpoint.QueryService`), so these values are
what each backend answers to them.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import EndpointConfig, FederatedQueryProcessor, SapphireConfig, SparqlEndpoint
from repro.core.sapphire import SapphireServer
from repro.net import HttpSparqlEndpoint
from repro.net.wsgi import SparqlWsgiApp
from repro.rdf import DBO, DBR, FOAF, RDF_TYPE, Literal, Triple
from repro.store import TripleStore
from repro.store.sharded import create_sharded_backend

NO_REQUESTS = {
    "queries": 0, "single_source": 0, "fallbacks": 0,
    "subqueries": 0, "member_errors": 0,
}


def _store(n_shards: int = 1) -> TripleStore:
    """Six people with names and birth places, in one or more shards."""
    store = TripleStore(backend=create_sharded_backend(n_shards) if n_shards > 1 else None)
    for i, name in enumerate(("Kennedy", "Kenner", "Hanks", "Wilson", "Eastwood", "Keaton")):
        person = DBR.term(f"Person_{i}")
        store.add(Triple(person, RDF_TYPE, DBO.Person))
        store.add(Triple(person, FOAF.name, Literal(name, lang="en")))
        store.add(Triple(person, DBO.birthPlace, DBR.term(f"City_{i % 2}")))
    return store


def _endpoint():
    return SparqlEndpoint(_store(), name="plain")


def _sharded_endpoint():
    return SparqlEndpoint(_store(2), EndpointConfig(timeout_s=1.5), name="sharded")


def _federation():
    return FederatedQueryProcessor([
        SparqlEndpoint(_store(), EndpointConfig(timeout_s=1.0), name="a"),
        SparqlEndpoint(_store(), EndpointConfig(timeout_s=2.5), name="b"),
    ])


def _warehouse_federation():
    return FederatedQueryProcessor([
        SparqlEndpoint(_store(), EndpointConfig(timeout_s=2.0), name="guarded"),
        SparqlEndpoint(_store(), EndpointConfig.warehouse(), name="warehouse"),
    ])


def _wire_client():
    # Nothing is sent: the app reads the client's face, not the network.
    return HttpSparqlEndpoint("http://127.0.0.1:9/sparql", timeout_s=30.0)


def _sapphire():
    server = SapphireServer(SapphireConfig(suffix_tree_capacity=50))
    server.register_endpoint(
        SparqlEndpoint(_store(2), EndpointConfig(timeout_s=1.25), name="people"))
    return server


#: A Sapphire cache before its first lookup.
CACHE_FRESH = {
    "lookups": 0, "tree_hits": 0, "bin_hits": 0, "index_hits": 0,
    "misses": 0, "served": 0, "tree_hit_rate": 0.0, "bin_hit_rate": 0.0,
    "index_hit_rate": 0.0, "index_surfaces": 0, "index_bytes": 0,
    "index_fts": 0, "window_rows_resident": 0, "window_bin_loads": 0,
}

CASES = {
    # case: (backend, deadline_s, /complete status, the federation,
    #        shards and cache blocks of /stats)
    "endpoint": (_endpoint, 2.0, 404, None, None, None),
    "sharded": (_sharded_endpoint, 1.5, 404, None,
                {"n_shards": 2, "depths": [15, 3]}, None),
    "federation": (_federation, 2.5, 404, NO_REQUESTS, None, None),
    "warehouse-member": (_warehouse_federation, None, 404, NO_REQUESTS, None, None),
    "wire-client": (_wire_client, None, 404, None, None, None),
    "sapphire": (_sapphire, 1.25, 200, NO_REQUESTS,
                 {"n_shards": 2, "depths": [15, 3]}, CACHE_FRESH),
}


def _call(app, method, path, body=b""):
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": "",
        "CONTENT_TYPE": "application/json" if body else "",
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split(" ")[0])

    payload = b"".join(app(environ, start_response))
    return captured["status"], payload


@pytest.mark.parametrize("case", list(CASES))
def test_app_reads_each_backend_through_its_face(case):
    build, deadline_s, complete_status, federation, shards, cache = CASES[case]
    app = SparqlWsgiApp(build())
    assert app.deadline_s == deadline_s

    status, payload = _call(app, "GET", "/stats")
    assert status == 200
    stats = json.loads(payload)
    assert stats.get("federation") == federation
    assert stats.get("shards") == shards
    assert stats.get("cache") == cache

    status, _ = _call(app, "POST", "/complete", json.dumps({"text": "Ken"}).encode())
    assert status == complete_status
