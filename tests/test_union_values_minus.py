"""UNION / VALUES / MINUS across the whole pipeline.

The acceptance bar for the unified query algebra: one shared query
suite must return identical rows through every execution surface —

* local, the engine against the term-space reference, over both
  storage backends;
* in-process federation (three endpoints splitting the data);
* HTTP federation (the same three endpoints behind loopback servers);

plus the grammar error paths, the parse → serialize → parse round-trip
property, and the batched-bind-join round-trip-count gate.
"""

from __future__ import annotations

import random

import pytest

from repro import EndpointConfig, FederatedQueryProcessor, SparqlEndpoint
from repro.federation import fedx
from repro.net import HttpSparqlEndpoint, SparqlHttpServer
from repro.rdf import DBO, DBR, FOAF, Literal, RDF_TYPE, RDFS_LABEL, Triple
from repro.sparql import QueryEvaluator, parse_query
from repro.sparql.errors import ParseError
from repro.sparql.serializer import serialize_query
from repro.store import MemoryBackend, SQLiteBackend, TripleStore

BACKENDS = ["memory", "sqlite"]


def _make_backend(name):
    return MemoryBackend() if name == "memory" else SQLiteBackend(":memory:")


def en(text):
    return Literal(text, lang="en")


def build_slices():
    """Three thematic slices of one small world: types+awards, names,
    places+books.  Joins and MINUS groups cross every boundary."""
    people, names, places = TripleStore(), TripleStore(), TripleStore()
    cities = [DBR.term(f"C{i}") for i in range(3)]
    for i, city in enumerate(cities):
        places.add(Triple(city, RDF_TYPE, DBO.City))
        places.add(Triple(city, RDFS_LABEL, en(f"City {i}")))
    for i in range(8):
        person = DBR.term(f"P{i}")
        people.add(Triple(person, RDF_TYPE, DBO.Person))
        names.add(Triple(person, FOAF.name, en(f"Person {i}")))
        places.add(Triple(person, DBO.birthPlace, cities[i % 3]))
        if i % 2 == 0:
            people.add(Triple(person, DBO.award, DBR.term("Prize")))
    for i in range(2):
        book = DBR.term(f"B{i}")
        people.add(Triple(book, RDF_TYPE, DBO.Book))
        places.add(Triple(book, DBO.author, DBR.term(f"P{i}")))
    return people, names, places


def merged_store(backend_name="memory"):
    store = TripleStore(backend=_make_backend(backend_name))
    for part in build_slices():
        store.add_all(part.triples())
    return store


#: The shared suite: every query exercises at least one of the new
#: constructs, several combine them with joins, filters and modifiers.
SUITE = [
    "SELECT ?x WHERE { { ?x a dbo:Person } UNION { ?x a dbo:City } }",
    "SELECT ?x WHERE { { ?x a dbo:Person } UNION { ?x a dbo:City } "
    "UNION { ?x a dbo:Book } }",
    'SELECT ?n WHERE { ?p foaf:name ?n . '
    '{ ?p dbo:birthPlace dbr:C0 } UNION { ?p dbo:award dbr:Prize } }',
    "SELECT ?p ?c WHERE { VALUES ?p { dbr:P0 dbr:P2 dbr:P9 } "
    "?p dbo:birthPlace ?c }",
    'SELECT ?p ?n WHERE { ?p foaf:name ?n . '
    'VALUES (?p ?n) { (dbr:P0 UNDEF) (UNDEF "Person 1"@en) } }',
    "SELECT ?p WHERE { ?p a dbo:Person . MINUS { ?p dbo:birthPlace dbr:C0 } }",
    "SELECT ?n WHERE { ?p foaf:name ?n . MINUS { ?x a dbo:Starship } }",
    "SELECT ?n WHERE { ?p foaf:name ?n . MINUS { ?p dbo:award dbr:Prize . "
    "?p dbo:birthPlace dbr:C1 } }",
    "SELECT DISTINCT ?label WHERE { "
    "{ ?x rdfs:label ?label } UNION { ?p foaf:name ?label } "
    "MINUS { ?x a dbo:Book } } ORDER BY ?label LIMIT 6",
    "SELECT ?p ?n WHERE { { ?p foaf:name ?n } UNION { ?p rdfs:label ?n } . "
    "?p dbo:birthPlace ?c . FILTER (STRSTARTS(STR(?n), 'Person')) }",
    "SELECT ?x ?n WHERE { VALUES (?x ?n) { (dbr:P0 UNDEF) (dbr:P1 UNDEF) } "
    "MINUS { ?x dbo:birthPlace dbr:C1 } }",
    "SELECT ?b ?who WHERE { ?b dbo:author ?a . ?a foaf:name ?who . "
    "{ ?a dbo:birthPlace dbr:C0 } UNION { ?a dbo:birthPlace dbr:C1 } }",
    # UNDEF on a join variable between two non-pattern inputs: the
    # compatibility join, locally and in the federation.
    'SELECT ?x ?n WHERE { VALUES (?x ?n) { (UNDEF "City 0"@en) (dbr:P1 UNDEF) } '
    "{ ?x a dbo:City . ?x rdfs:label ?n } UNION { ?x foaf:name ?n } }",
    # Ground pattern: a federated existence check (RemoteScan ASK path).
    "SELECT ?n WHERE { dbr:P0 a dbo:Person . dbr:P0 foaf:name ?n }",
    # A filter on a maybe-unbound variable must wait for the join that
    # binds it (regression: eager attachment dropped the UNDEF row).
    "SELECT ?a ?x WHERE { VALUES (?a ?x) { (dbr:P0 UNDEF) (dbr:P3 dbr:C0) } "
    "?a dbo:birthPlace ?x . FILTER (ISIRI(?x)) }",
]

ASK_SUITE = [
    "ASK { { ?x a dbo:Starship } UNION { ?x a dbo:City } }",
    "ASK { VALUES ?x { dbr:P0 } ?x a dbo:Person . MINUS { ?x a dbo:Book } }",
    "ASK { ?x a dbo:City . MINUS { ?x rdfs:label ?l } }",
]


def row_key(result):
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


# ----------------------------------------------------------------------
# Parser error paths
# ----------------------------------------------------------------------


class TestGrammarErrors:
    @pytest.mark.parametrize("bad, fragment", [
        ("SELECT ?s WHERE { VALUES ?x { 1 2 ", "unterminated VALUES block"),
        ("SELECT ?s WHERE { VALUES (?x ?y) { (1 2) (3 ", "unterminated"),
        ("SELECT ?s WHERE { ?s ?p ?o . MINUS }", "MINUS requires a braced group"),
        ("SELECT ?s WHERE { MINUS ?s ?p ?o }", "MINUS requires a braced group"),
        ("SELECT ?s WHERE { UNION { ?s ?p ?o } }", "UNION must follow"),
        ("SELECT ?s WHERE { { ?s ?p ?o } UNION ?s ?p ?o }", "UNION requires"),
        ("SELECT ?s WHERE { VALUES (?x ?y) { (1) } }", "VALUES row has 1 values"),
        ("SELECT ?s WHERE { VALUES (?x ?x) { (1 1) } }", "duplicate variable"),
        ("SELECT ?s WHERE { VALUES () { } }", "at least one variable"),
        ("SELECT ?s WHERE { VALUES ?x { ?y } }", "expected a data value"),
        ("SELECT ?s WHERE { ?s MINUS ?o }", "cannot appear in term position"),
    ])
    def test_error_paths(self, bad, fragment):
        with pytest.raises(ParseError) as excinfo:
            parse_query(bad)
        assert fragment.lower() in str(excinfo.value).lower()

    def test_nested_union_parses(self):
        query = parse_query(
            "SELECT * WHERE { { ?s a dbo:A } UNION "
            "{ { ?s a dbo:B } UNION { ?s a dbo:C } } }"
        )
        outer = query.where.unions[0]
        assert len(outer) == 2
        assert len(outer[1].unions[0]) == 2

    def test_lone_braced_group_is_absorbed(self):
        query = parse_query("SELECT ?s WHERE { { ?s a dbo:A . FILTER (?s = ?s) } }")
        assert len(query.where.patterns) == 1
        assert len(query.where.filters) == 1
        assert not query.where.unions

    def test_values_single_variable_form(self):
        query = parse_query('SELECT ?x WHERE { VALUES ?x { dbr:P0 "x" 4 } }')
        clause = query.where.values[0]
        assert clause.variables == ("x",)
        assert len(clause.rows) == 3

    def test_undef_cells_are_none(self):
        query = parse_query(
            "SELECT * WHERE { VALUES (?a ?b) { (UNDEF dbr:P0) (dbr:P1 UNDEF) } }"
        )
        rows = query.where.values[0].rows
        assert rows[0][0] is None and rows[1][1] is None


# ----------------------------------------------------------------------
# Serializer round-trips (fixed suite + generated property test)
# ----------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("text", SUITE + ASK_SUITE)
    def test_suite_roundtrip(self, text):
        store = merged_store()
        original = parse_query(text)
        reparsed = parse_query(serialize_query(original))
        evaluator = QueryEvaluator(store)
        a, b = evaluator.evaluate(original), evaluator.evaluate(reparsed)
        if original.form == "ASK":
            assert bool(a) == bool(b)
        else:
            assert row_key(a) == row_key(b)

    def test_generated_roundtrip_property(self):
        """Seeded random composition of the new constructs: parse →
        serialize → parse must preserve both structure and results."""
        rng = random.Random(20260730)
        store = merged_store()
        evaluator = QueryEvaluator(store)
        branches = [
            "?p a dbo:Person", "?p a dbo:City", "?p dbo:award dbr:Prize",
            "?p dbo:birthPlace dbr:C0", "?p foaf:name ?n",
        ]
        for _ in range(25):
            parts = ["?p ?pred ?obj ."]
            if rng.random() < 0.8:
                chosen = rng.sample(branches, k=rng.randint(2, 3))
                parts.append(" UNION ".join("{ %s }" % b for b in chosen))
            if rng.random() < 0.6:
                pool = ["dbr:P0", "dbr:P1", "dbr:C0", "UNDEF"]
                rows = " ".join(
                    "(%s)" % rng.choice(pool) for _ in range(rng.randint(1, 3))
                )
                parts.append("VALUES (?p) { %s }" % rows)
            if rng.random() < 0.6:
                parts.append("MINUS { %s }" % rng.choice(branches))
            text = "SELECT * WHERE { " + " ".join(parts) + " }"
            original = parse_query(text)
            rendered = serialize_query(original)
            reparsed = parse_query(rendered)
            assert row_key(evaluator.evaluate(original)) == row_key(
                evaluator.evaluate(reparsed)
            ), rendered
            # And the serializer is a fixpoint after one round.
            assert serialize_query(reparsed) == rendered


# ----------------------------------------------------------------------
# Local parity: engine vs term-space reference, both backends
# ----------------------------------------------------------------------


class TestLocalParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("text", SUITE)
    def test_planner_matches_reference(self, backend, text, reference_evaluate):
        store = merged_store(backend)
        planned = QueryEvaluator(store).evaluate(parse_query(text))
        walked = reference_evaluate(store, text)
        assert row_key(planned) == row_key(walked)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("text", ASK_SUITE)
    def test_ask_parity(self, backend, text, reference_evaluate):
        store = merged_store(backend)
        planned = QueryEvaluator(store).evaluate(parse_query(text))
        walked = reference_evaluate(store, text)
        assert bool(planned) == bool(walked)

    def test_explain_covers_new_operators(self):
        store = merged_store()
        evaluator = QueryEvaluator(store)
        plan = evaluator.explain(
            "SELECT ?x WHERE { { ?x a dbo:Person } UNION { ?x a dbo:City } "
            "MINUS { ?x dbo:birthPlace dbr:C0 } }"
        )
        assert "Union[2]" in plan and "Minus(on ?x)" in plan
        plan = evaluator.explain(
            "SELECT ?p ?c WHERE { VALUES ?p { dbr:P0 } ?p dbo:birthPlace ?c }"
        )
        assert "ValuesScan(?p x1)" in plan

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_undef_join_is_a_compatibility_join(self, backend, reference_evaluate):
        """A join keyed on a maybe-unbound variable cannot be an
        equality on IDs; it plans as the compatibility join, and
        equals the reference."""
        store = merged_store(backend)
        text = (
            'SELECT * WHERE { ?p foaf:name ?n . '
            'VALUES (?p ?n) { (dbr:P0 UNDEF) (UNDEF "Person 3"@en) (dbr:P1 "Person 2"@en) } }'
        )
        plan = QueryEvaluator(store).explain(text)
        assert "CompatJoin(on ?p, ?n)" in plan and "TermSpaceFallback" not in plan
        planned = QueryEvaluator(store).evaluate(parse_query(text))
        assert len(planned.rows) == 2
        assert row_key(planned) == row_key(reference_evaluate(store, text))


# ----------------------------------------------------------------------
# Federated parity: in-process and over HTTP
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def slices():
    return build_slices()


@pytest.fixture(scope="module")
def local_federation(slices):
    endpoints = [
        SparqlEndpoint(store, EndpointConfig.warehouse(), name=name)
        for store, name in zip(slices, ("people", "names", "places"))
    ]
    return FederatedQueryProcessor(endpoints)


@pytest.fixture(scope="module")
def http_federation(slices):
    servers = [
        SparqlHttpServer(
            SparqlEndpoint(store, EndpointConfig.warehouse(), name=name)
        ).start()
        for store, name in zip(slices, ("people", "names", "places"))
    ]
    clients = [
        HttpSparqlEndpoint(server.url, name=f"http-{i}")
        for i, server in enumerate(servers)
    ]
    yield FederatedQueryProcessor(clients)
    for server in servers:
        server.stop()


class TestFederatedParity:
    @pytest.mark.parametrize("text", SUITE)
    def test_local_vs_inprocess_federation(self, local_federation, text, maybe_tracer):
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        federated = local_federation.run(text, tracer=maybe_tracer)
        assert row_key(local) == row_key(federated)

    @pytest.mark.parametrize("text", SUITE)
    def test_local_vs_http_federation(self, http_federation, text, maybe_tracer):
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        federated = http_federation.run(text, tracer=maybe_tracer)
        assert row_key(local) == row_key(federated)

    @pytest.mark.parametrize("text", ASK_SUITE)
    def test_ask_parity_all_surfaces(self, local_federation, http_federation, text):
        local = bool(QueryEvaluator(merged_store()).evaluate(parse_query(text)))
        assert bool(local_federation.ask(text)) == local
        assert bool(http_federation.ask(text)) == local

    def test_optional_with_union_base(self, local_federation):
        text = (
            "SELECT ?x ?l WHERE { { ?x a dbo:Person } UNION { ?x a dbo:City } "
            "OPTIONAL { ?x rdfs:label ?l } }"
        )
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        assert row_key(local) == row_key(local_federation.select(text))


class TestQueryPathIsReadOnly:
    """Regression: evaluating a query must never mutate the store —
    VALUES terms the dictionary has not seen get query-local IDs, they
    are not interned from the planner."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_values_terms_do_not_grow_dictionary(self, backend):
        store = merged_store(backend)
        before = len(store.dictionary)
        result = QueryEvaluator(store).evaluate(parse_query(
            "SELECT ?x ?c WHERE { VALUES ?x { dbr:NeverSeen1 dbr:NeverSeen2 } "
            "?x dbo:birthPlace ?c }"
        ))
        assert result.rows == []
        assert len(store.dictionary) == before

    def test_standalone_unknown_values_still_answer(self):
        store = merged_store()
        result = QueryEvaluator(store).evaluate(parse_query(
            "SELECT ?x WHERE { VALUES ?x { dbr:NeverSeen3 } }"
        ))
        assert [str(row["x"]) for row in result.rows] == [
            "http://dbpedia.org/resource/NeverSeen3"
        ]


class TestNestedOptionals:
    def test_optional_inside_union_branch_federates(self, local_federation):
        """Regression: a LeftJoin nested in a UNION branch must compile
        (uncorrelated) instead of raising SparqlError."""
        text = (
            "SELECT ?x ?n WHERE { { ?x a dbo:Person "
            "OPTIONAL { ?x foaf:name ?n } } UNION { ?x a dbo:City } }"
        )
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        assert row_key(local) == row_key(local_federation.select(text))

    def test_optional_inside_minus_group_federates(self, local_federation):
        text = (
            "SELECT ?p WHERE { ?p a dbo:Person . MINUS "
            "{ ?p dbo:award dbr:Prize OPTIONAL { ?p dbo:birthPlace dbr:C9 } } }"
        )
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        assert row_key(local) == row_key(local_federation.select(text))

    def test_outer_variable_filter_in_optional_branch(self, local_federation):
        """Regression: a filter nested in the OPTIONAL's UNION branch
        that references an outer variable must see the base solution's
        binding (recursive correlation)."""
        text = (
            "SELECT ?p ?x ?b WHERE { ?p dbo:birthPlace ?x OPTIONAL { "
            "{ ?p dbo:award ?b . FILTER (ISIRI(?x)) } UNION { ?p a ?b } } }"
        )
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        assert row_key(local) == row_key(local_federation.select(text))


class TestDisconnectedFederatedJoin:
    def test_cartesian_pattern_fetched_once(self, slices, monkeypatch):
        """Regression: a pattern sharing no variable with the rest must
        be fetched once and cross-joined, not re-queried per batch."""
        monkeypatch.setattr(fedx, "REMOTE_BATCH_SIZE", 2)
        endpoints = [
            SparqlEndpoint(store, EndpointConfig.warehouse(), name=f"x{i}")
            for i, store in enumerate(slices)
        ]
        federation = FederatedQueryProcessor(endpoints)
        text = "SELECT ?p ?c WHERE { ?p a dbo:Person . ?c a dbo:City }"
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        result = federation.select(text)  # warm the probe cache
        assert row_key(result) == row_key(local)
        for endpoint in endpoints:
            endpoint.reset_log()
        federation.select(text)
        # One fetch per pattern: 8 persons in batches of 2 would need
        # 4+ requests if the city pattern were re-fetched per batch.
        assert sum(endpoint.query_count for endpoint in endpoints) == 2
        plan = federation.explain(text)
        assert "RemoteBindJoin" not in plan


class TestBatchedBindJoin:
    """The round-trip economics that motivated RemoteBindJoinNode."""

    def test_batching_cuts_round_trips(self, slices):
        """The 8-person star join takes one request per member: a scan
        and two bind joins of one batch each (one request per binding
        would take 1 + 8 + 8)."""
        endpoints = [
            SparqlEndpoint(store, EndpointConfig.warehouse(), name=f"e{i}")
            for i, store in enumerate(slices)
        ]
        federation = FederatedQueryProcessor(endpoints)
        text = (
            "SELECT ?p ?n ?c WHERE { ?p a dbo:Person . ?p foaf:name ?n . "
            "?p dbo:birthPlace ?c }"
        )
        federation.select(text)  # warm the source cache
        for endpoint in endpoints:
            endpoint.reset_log()
        result = federation.select(text)
        assert [endpoint.query_count for endpoint in endpoints] == [1, 1, 1]
        assert len(result.rows) == 8
        local = QueryEvaluator(merged_store()).evaluate(parse_query(text))
        assert row_key(result) == row_key(local)


class TestFederatedExplain:
    def test_explain_shows_sources_and_plan(self, local_federation):
        plan = local_federation.explain(
            "SELECT ?p ?n WHERE { ?p a dbo:Person . ?p foaf:name ?n }"
        )
        assert "sources:" in plan and "plan:" in plan
        assert "RemoteScan" in plan
        assert "RemoteBindJoin" in plan and "batch=" in plan

    def test_http_explain_round_trip(self, http_federation):
        """EXPLAIN crosses the wire unlogged, and a federated EXPLAIN over
        HTTP members prints its batched bind join without a data request."""
        text = "SELECT ?p ?n WHERE { ?p a dbo:Person . ?p foaf:name ?n }"
        http_federation.select(text)  # warm the probe cache
        clients = http_federation.endpoints
        before = [client.query_count for client in clients]
        assert "Scan(" in clients[0].explain("SELECT ?x WHERE { ?x a dbo:Person }")
        plan = http_federation.explain(text)
        assert "RemoteBindJoin" in plan and f"batch={fedx.REMOTE_BATCH_SIZE}" in plan
        assert [client.query_count for client in clients] == before

    def test_duplicate_patterns_deduplicated(self, slices):
        """The satellite fix: a duplicated triple pattern must be
        fetched and joined once, not twice."""
        endpoints = [
            SparqlEndpoint(store, EndpointConfig.warehouse(), name=f"d{i}")
            for i, store in enumerate(slices)
        ]
        federation = FederatedQueryProcessor(endpoints)
        text = (
            "SELECT ?p WHERE { ?p a dbo:Person . ?p a dbo:Person . "
            "?p dbo:award dbr:Prize }"
        )
        plan_section = federation.explain(text).split("plan:", 1)[1]
        assert plan_section.count("22-rdf-syntax-ns#type") == 1
        federation.select(text)  # warm cache and sanity-run
        for endpoint in endpoints:
            endpoint.reset_log()
        result = federation.select(text)
        assert len(result.rows) == 4
        # One fetch for the type pattern, one for the award pattern --
        # a duplicated pattern adds zero extra requests.
        total = sum(endpoint.query_count for endpoint in endpoints)
        assert total <= 3
