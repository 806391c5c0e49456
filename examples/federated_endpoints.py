#!/usr/bin/env python3
"""Sapphire over a federation of endpoints (the Figure 1 architecture).

Splits the synthetic dataset into a "people" endpoint and a "works"
endpoint (books/films/shows), then runs the federation two ways:

1. **In-process** — both endpoints registered with one Sapphire server
   (each goes through its own Section 5 initialization, caches merge),
   joins crossing the boundary through the FedX-style processor.
2. **Over the network** — the same two endpoints served by loopback
   :class:`SparqlHttpServer` instances (SPARQL 1.1 Protocol) and
   federated through :class:`HttpSparqlEndpoint` clients.  Same engine,
   same queries, same rows — but every probe and sub-query travels over
   a real socket, exactly like federating DBpedia with Wikidata.

Run:  python examples/federated_endpoints.py
(exits non-zero if the HTTP federation's rows differ from the in-process one's)
"""

from repro import (
    EndpointConfig,
    FederatedQueryProcessor,
    HttpSparqlEndpoint,
    SapphireConfig,
    SapphireServer,
    SparqlEndpoint,
    SparqlHttpServer,
)
from repro.data import DatasetConfig, build_dataset
from repro.rdf import DBO, RDF_TYPE
from repro.store import TripleStore


WORK_CLASSES = {DBO.Book, DBO.Film, DBO.TelevisionShow, DBO.Album, DBO.Website, DBO.Work}

CROSS_JOIN = """
SELECT ?title ?publisher WHERE {
  ?book dbo:author ?jk .
  ?jk foaf:name "Jack Kerouac"@en .
  ?book rdfs:label ?title .
  ?book dbo:publisher ?p .
  ?p rdfs:label ?publisher .
}
"""


def split_dataset(dataset):
    """People/places on one endpoint, creative works on the other."""
    works_subjects = {
        t.subject for t in dataset.store.triples()
        if t.predicate == RDF_TYPE and t.object in WORK_CLASSES
    }
    people, works = TripleStore(), TripleStore()
    for triple in dataset.store.triples():
        (works if triple.subject in works_subjects else people).add(triple)
    return people, works


def main() -> None:
    dataset = build_dataset(DatasetConfig.tiny())
    people_store, works_store = split_dataset(dataset)
    print(f"people endpoint: {len(people_store):,} triples")
    print(f"works endpoint:  {len(works_store):,} triples")

    server = SapphireServer(SapphireConfig(suffix_tree_capacity=500))
    endpoints = []
    for name, store in (("people", people_store), ("works", works_store)):
        endpoint = SparqlEndpoint(store, EndpointConfig(timeout_s=1.0), name=name)
        endpoints.append(endpoint)
        report = server.register_endpoint(endpoint)
        print(f"initialized '{name}': {report.total_queries} queries, "
              f"{report.cache_stats['literals']} literals cached")

    print(f"\nmerged cache: {server.cache_stats()}")

    print("\n== Cross-endpoint join: Kerouac's books with their publishers ==")
    outcome = server.run_query(CROSS_JOIN, suggest=False)
    for row in outcome.answers.rows:
        print(f"  {row['title']}  —  {row['publisher']}")

    print("\n== Source selection at work ==")
    from repro.rdf import TriplePattern, Variable

    federation = server.federation
    for description, pattern in [
        ("?b dbo:numberOfPages ?n", TriplePattern(Variable("b"), DBO.numberOfPages, Variable("n"))),
        ("?p dbo:birthPlace ?c", TriplePattern(Variable("p"), DBO.birthPlace, Variable("c"))),
    ]:
        sources = [endpoint.name for endpoint in federation.relevant_sources(pattern)]
        print(f"  {description}  ->  {sources}")

    print("\n== Completion draws from both endpoints' caches ==")
    print(f"  'Kerouac' -> {server.complete('Kerouac').surfaces()}")
    print(f"  'Viking'  -> {server.complete('Viking').surfaces()}")

    # ------------------------------------------------------------------
    # The same federation, over real HTTP (SPARQL 1.1 Protocol)
    # ------------------------------------------------------------------
    print("\n== Federation over two loopback HTTP endpoints ==")
    with SparqlHttpServer(endpoints[0]) as people_http, \
            SparqlHttpServer(endpoints[1]) as works_http:
        print(f"  serving people at {people_http.url}")
        print(f"  serving works  at {works_http.url}")
        wire_federation = FederatedQueryProcessor([
            HttpSparqlEndpoint(people_http.url, name="people-http"),
            HttpSparqlEndpoint(works_http.url, name="works-http"),
        ])
        wire_rows = wire_federation.select(CROSS_JOIN)
        for row in wire_rows.rows:
            print(f"  {row['title']}  —  {row['publisher']}")

        local_rows = {(str(r["title"]), str(r["publisher"]))
                      for r in outcome.answers.rows}
        over_http = {(str(r["title"]), str(r["publisher"]))
                     for r in wire_rows.rows}
        print(f"  parity with in-process federation: "
              f"{'identical' if local_rows == over_http else 'MISMATCH'}")
        if local_rows != over_http:
            raise SystemExit("the federation over HTTP disagrees with the in-process one")

        stats = people_http.stats.snapshot()
        print(f"  people /stats: {stats['requests']} requests, "
              f"{stats['rows_served']} rows served, "
              f"p50 {stats['latency_p50_ms']:.2f} ms")


if __name__ == "__main__":
    main()
