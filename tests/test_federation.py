"""Unit tests for the FedX-style federated query processor."""

from collections import Counter

import pytest

from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.federation import FederatedQueryProcessor
from repro.federation.remote import RemoteBindJoinNode, RemoteScanNode
from repro.rdf import DBO, DBR, FOAF, Literal, RDF_TYPE, RDFS_LABEL, Triple, TriplePattern, Variable
from repro.sparql import HashJoinNode, MinusNode, UnionNode, evaluate
from repro.store import TripleStore


def lit(text):
    return Literal(text, lang="en")


@pytest.fixture
def two_endpoints():
    """People live on one endpoint, cities on another; birthPlace edges
    cross the boundary — the classic federation scenario."""
    people = TripleStore()
    cities = TripleStore()
    ny = DBR.term("NY")
    paris = DBR.term("Paris")
    cities.add(Triple(ny, RDF_TYPE, DBO.City))
    cities.add(Triple(ny, RDFS_LABEL, lit("New York")))
    cities.add(Triple(paris, RDF_TYPE, DBO.City))
    cities.add(Triple(paris, RDFS_LABEL, lit("Paris")))
    for i, (name, city) in enumerate(
        [("Ann", ny), ("Bob", ny), ("Cme", paris)]
    ):
        person = DBR.term(f"P{i}")
        people.add(Triple(person, RDF_TYPE, DBO.Person))
        people.add(Triple(person, FOAF.name, lit(name)))
        people.add(Triple(person, DBO.birthPlace, city))
    return (
        SparqlEndpoint(people, EndpointConfig.warehouse(), name="people"),
        SparqlEndpoint(cities, EndpointConfig.warehouse(), name="cities"),
    )


@pytest.fixture
def federation(two_endpoints):
    return FederatedQueryProcessor(list(two_endpoints))


class TestSourceSelection:
    def test_pattern_routed_to_right_endpoint(self, federation, two_endpoints):
        people, cities = two_endpoints
        pattern = TriplePattern(Variable("s"), FOAF.name, Variable("o"))
        sources = federation.relevant_sources(pattern)
        assert sources == [people]

    def test_shared_predicate_hits_both(self, federation, two_endpoints):
        pattern = TriplePattern(Variable("s"), RDF_TYPE, Variable("o"))
        assert len(federation.relevant_sources(pattern)) == 2

    def test_source_cache_prevents_reprobes(self, federation, two_endpoints):
        people, cities = two_endpoints
        pattern = TriplePattern(Variable("s"), FOAF.name, Variable("o"))
        federation.relevant_sources(pattern)
        before = people.query_count + cities.query_count
        federation.relevant_sources(pattern)
        assert people.query_count + cities.query_count == before

    def test_cache_invalidation(self, federation, two_endpoints):
        people, cities = two_endpoints
        pattern = TriplePattern(Variable("s"), FOAF.name, Variable("o"))
        federation.relevant_sources(pattern)
        federation.invalidate_source_cache()
        before = people.query_count + cities.query_count
        federation.relevant_sources(pattern)
        assert people.query_count + cities.query_count > before


class TestCrossEndpointJoins:
    def test_join_across_endpoints(self, federation):
        result = federation.select(
            'SELECT ?name { ?p dbo:birthPlace ?c . ?c rdfs:label "New York"@en . '
            "?p foaf:name ?name }"
        )
        assert {str(v) for v in result.value_set("name")} == {"Ann", "Bob"}

    def test_matches_single_store_semantics(self, two_endpoints, maybe_tracer):
        """The federation must return exactly what one merged store would."""
        people, cities = two_endpoints
        merged = TripleStore()
        merged.add_all(people.store.triples())
        merged.add_all(cities.store.triples())
        federation = FederatedQueryProcessor([people, cities])
        query = (
            "SELECT ?name ?city { ?p dbo:birthPlace ?c . ?c rdfs:label ?city . "
            "?p foaf:name ?name }"
        )
        fed = federation.run(query, tracer=maybe_tracer)
        fed_rows = Counter((str(r["name"]), str(r["city"])) for r in fed.rows)
        local_rows = Counter((str(r["name"]), str(r["city"])) for r in evaluate(merged, query).rows)
        assert fed_rows == local_rows

    def test_bind_join_over_a_batch_subtree(self, two_endpoints, maybe_tracer):
        """A RemoteBindJoinNode whose left input is a tree of columnar
        operators (hash join over a union and a minus) yields the rows
        the merged store yields for the same query."""
        people, cities = two_endpoints
        p, c, n = Variable("p"), Variable("c"), Variable("n")

        def scan(endpoint, *pattern):
            return RemoteScanNode([TriplePattern(*pattern)], [endpoint], 3)

        union = UnionNode([
            scan(people, p, DBO.birthPlace, DBR.term("NY")),
            scan(people, p, DBO.birthPlace, DBR.term("Paris")),
        ])
        minus = MinusNode(
            scan(people, p, DBO.birthPlace, c),
            scan(cities, c, RDFS_LABEL, lit("Paris")),
        )
        plan = RemoteBindJoinNode(
            HashJoinNode(union, minus, ("p",), 3),
            TriplePattern(p, FOAF.name, n), [people], 3, batch_size=2,
        )
        mediator = TripleStore()
        rows = Counter(
            tuple(str(mediator.decode_id(cell)) for cell in row)
            for row in plan.rows(mediator, None, tracer=maybe_tracer)
        )
        assert plan.variables == ("p", "c", "n")
        merged = TripleStore()
        merged.add_all(people.store.triples())
        merged.add_all(cities.store.triples())
        local = evaluate(
            merged,
            "SELECT ?p ?c ?n { { ?p dbo:birthPlace dbr:NY } UNION { ?p dbo:birthPlace dbr:Paris } "
            '?p dbo:birthPlace ?c . ?p foaf:name ?n MINUS { ?c rdfs:label "Paris"@en } }',
        )
        assert rows == Counter(
            (str(r["p"]), str(r["c"]), str(r["n"])) for r in local.rows
        )
        assert sum(rows.values()) == 2  # Ann and Bob; Cme's city is subtracted

    def test_ask_across_federation(self, federation):
        assert federation.ask('ASK { ?c rdfs:label "Paris"@en }')
        assert not federation.ask('ASK { ?c rdfs:label "Atlantis"@en }')

    def test_aggregation_at_mediator(self, federation):
        result = federation.select(
            "SELECT ?c (COUNT(?p) AS ?n) { ?p dbo:birthPlace ?c } GROUP BY ?c "
            "ORDER BY DESC(?n)"
        )
        counts = [int(row["n"].lexical) for row in result.rows]
        assert counts == [2, 1]

    def test_distinct_and_limit(self, federation):
        result = federation.select(
            "SELECT DISTINCT ?c { ?p dbo:birthPlace ?c } LIMIT 1"
        )
        assert len(result) == 1

    def test_filter_at_mediator(self, federation):
        result = federation.select(
            "SELECT ?name { ?p foaf:name ?name . FILTER (STRSTARTS(?name, 'A')) }"
        )
        assert {str(v) for v in result.value_set("name")} == {"Ann"}

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            FederatedQueryProcessor([])

    def test_run_accepts_parsed_query(self, federation):
        from repro.sparql import parse_query

        query = parse_query("SELECT ?p { ?p a dbo:Person }")
        result = federation.run(query)
        assert len(result) == 3

    def test_optional_across_federation(self, federation):
        result = federation.select(
            "SELECT ?name ?c { ?p foaf:name ?name OPTIONAL { ?p dbo:missing ?c } }"
        )
        assert len(result) == 3
