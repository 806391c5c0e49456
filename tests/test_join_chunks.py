"""A hash join's output comes in batches of at most ``batch_size`` rows.

``HashJoinNode`` used to build one output batch per left batch (1,024 ×
|right| rows for a keyless product), and the duplicate-key path of its
one-residual kernel the whole join as one batch, charging the cost meter
only once the batch was built.  On ``tiny`` the two-pattern product ran
to a 223 MB RSS before its 2 s timeout fired; on ``medium`` it raised
``MemoryError`` at 1.41 GB.  Now every join path cuts its output into
chunks of at most ``batch_size`` rows — inside one left row's bucket if
need be — and charges each before it builds the next.

The cut must not move a row: ``tests/join_rows_golden.json`` holds, per
query, the row count and a sha256 over the rows in stream order as the
unchunked joins produced them (captured on the commit before the cut),
and every batch size must reproduce it.  Regenerate it with
``PYTHONPATH=src python tests/test_join_chunks.py`` only on purpose.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from repro import EndpointConfig, HttpSparqlEndpoint, SparqlEndpoint, SparqlHttpServer
from repro.endpoint import EndpointTimeout
from repro.sparql import QueryPlanner, parse_query
from repro.sparql.plan import HashJoinNode

GOLDEN = Path(__file__).with_name("join_rows_golden.json")

#: name -> a query whose top operator is a ``HashJoinNode`` on ``tiny``.
QUERIES = {
    # keyless product: the general kernel, one bucket of every right row
    "keyless": "SELECT ?a ?d WHERE { ?a dbo:spouse ?b . ?c dbo:country ?d }",
    # two keys: the general kernel
    "two_keys": "SELECT * WHERE { ?a ?p ?c . ?b ?p ?c }",
    # one key, one residual, duplicate keys on both sides
    "duplicate_keys": "SELECT ?a ?b WHERE { ?a dbo:country ?c . ?b dbo:country ?c }",
    "types": "SELECT ?a ?b WHERE { ?a a ?c . ?b a ?c }",
    # OPTIONAL as an outer hash join, some left rows keeping no candidate
    "outer": "SELECT * WHERE { ?a dbo:country ?c OPTIONAL { ?b dbo:country ?c FILTER(STR(?b) < STR(?a)) } }",
    "outer_keyless": "SELECT * WHERE { ?a dbo:spouse ?b OPTIONAL { ?c dbo:country ?d FILTER(STR(?d) < STR(?b)) } }",
}

#: Two queries whose output exceeds a 2 s endpoint's cost budget on ``tiny``.
RUNAWAY = [
    "SELECT (COUNT(*) AS ?n) WHERE { ?a ?b ?c . ?d ?e ?f }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?a a ?c . ?b a ?c }",
]


def _digest(rows) -> dict:
    return {"rows": len(rows), "sha256": hashlib.sha256(repr(rows).encode("ascii")).hexdigest()}


def _plan(store, name):
    plan = QueryPlanner(store).plan(parse_query(QUERIES[name]).where)
    assert isinstance(plan, HashJoinNode)
    return plan


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("batch_size", [1, 3, 1024])
def test_rows_are_cut_into_batches_in_the_same_order(tiny_dataset, name, batch_size):
    store = tiny_dataset.store
    batches = list(_plan(store, name).batches(store, None, batch_size))
    assert all(0 < batch.length <= batch_size for batch in batches)
    rows = [row for batch in batches for row in batch.iter_raw()]
    assert _digest(rows) == json.loads(GOLDEN.read_text())[name]


#: A runaway three-pattern product under each tail that reads every
#: solution: an implicit-group COUNT, a GROUP BY and a paged ORDER BY.
PRODUCT = "WHERE { ?a ?b ?c . ?d ?e ?f . ?g foaf:name ?h }"
RUNAWAY_TAILS = [
    f"SELECT (COUNT(*) AS ?n) {PRODUCT}",
    f"SELECT ?b (COUNT(*) AS ?n) {PRODUCT} GROUP BY ?b",
    f"SELECT * {PRODUCT} ORDER BY ?d LIMIT 5",
]


def _traced_peak_of_a_timeout(endpoint, query) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(EndpointTimeout):
            endpoint.select(query)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("query", RUNAWAY)
def test_a_runaway_join_times_out_within_a_batch_of_memory(tiny_dataset, query):
    endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=2.0))
    assert _traced_peak_of_a_timeout(endpoint, query) < 64 * 2**20


@pytest.mark.parametrize("query", RUNAWAY_TAILS)
def test_a_runaway_tail_holds_a_batch_not_its_join(tiny_dataset, query):
    """The tail folds each batch as it arrives, so a runaway join under
    an aggregate or a paged ORDER BY times out holding about a batch
    (~1 MB traced).  Kept until the plan drained, the batches peaked at
    ~13 MB under this budget, and at 75 MB under a 60 s one."""
    endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=10.0))
    assert _traced_peak_of_a_timeout(endpoint, query) <= 8 * 2**20


def test_a_runaway_join_answers_504_over_http(tiny_dataset):
    endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=2.0))
    with SparqlHttpServer(endpoint) as server:
        client = HttpSparqlEndpoint(server.url, max_retries=0, timeout_s=30.0)
        with pytest.raises(EndpointTimeout):
            client.select(RUNAWAY[0])
        assert server.stats.snapshot()["timeouts"] == 1


if __name__ == "__main__":
    from repro.data import DatasetConfig, build_dataset

    store = build_dataset(DatasetConfig.tiny()).store
    golden = {}
    for name in QUERIES:
        plan = _plan(store, name)
        golden[name] = _digest([row for batch in plan.batches(store, None, 1024) for row in batch.iter_raw()])
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
