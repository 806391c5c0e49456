"""Unit tests for the FedX-style federated query processor."""

import dataclasses
from collections import Counter

import pytest

from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.federation import FederatedQueryProcessor
from repro.federation.remote import RemoteBindJoinNode, RemoteScanNode
from repro.rdf import (
    DBO, DBR, FOAF, IRI, Literal, RDF_TYPE, RDFS_LABEL, Triple, TriplePattern, Variable,
)
from repro.sparql import HashJoinNode, MinusNode, SparqlError, UnionNode, evaluate, parse_query
from repro.sparql.trace import Tracer
from repro.store import TripleStore

from plan_rows import plan_rows


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
            for row in plan_rows(plan, mediator, tracer=maybe_tracer)
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
        query = parse_query("SELECT ?p { ?p a dbo:Person }")
        result = federation.run(query)
        assert len(result) == 3

    def test_optional_across_federation(self, federation):
        result = federation.select(
            "SELECT ?name ?c { ?p foaf:name ?name OPTIONAL { ?p dbo:missing ?c } }"
        )
        assert len(result) == 3


# ----------------------------------------------------------------------
# The single-source rule
# ----------------------------------------------------------------------

def bag_of(result):
    """The rows as a multiset."""
    return Counter(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


def agrees_with_reference(result, reference_evaluate, store, query):
    """Multiset equality with the reference semantics over ``store``; a
    LIMIT without a total order may keep any rows, so there only the
    count and membership are fixed."""
    parsed = parse_query(query) if isinstance(query, str) else query
    if parsed.limit is None:
        return bag_of(result) == bag_of(reference_evaluate(store, parsed))
    unlimited = bag_of(reference_evaluate(store, dataclasses.replace(parsed, limit=None)))
    mine = bag_of(result)
    return (sum(mine.values()) == min(parsed.limit, sum(unlimited.values()))
            and all(unlimited[row] >= count for row, count in mine.items()))


@pytest.fixture
def every_query(gold_queries, analytic_queries, probe_queries):
    """Gold questions, the analytic shapes (texts) and the QSM's batched
    probes (ASTs)."""
    assert len(gold_queries) == 52 and len(analytic_queries) == 8 and probe_queries
    return gold_queries + analytic_queries + probe_queries


def single_source_spans(tracer):
    return [span for span in tracer.finish().walk()
            if span.attrs.get("kind") == "single-source"]


class TestSingleSourceRule:
    def test_one_member_ships_every_query_whole(self, store, every_query, maybe_tracer):
        """(a) A federation of one member answers with the member's own
        rows in the member's order, by one request and no ASK probe."""
        member = SparqlEndpoint(store, EndpointConfig(timeout_s=1.0), name="solo")
        federation = FederatedQueryProcessor([member])
        for query in every_query:
            expected = member.select(query).rows
            member.reset_log()
            assert federation.run(query, tracer=maybe_tracer).rows == expected
            assert [entry.outcome for entry in member.log] == ["ok"]
        counts = federation.counters.snapshot()
        assert counts["queries"] == counts["single_source"] == counts["subqueries"] \
            == len(every_query)
        assert counts["fallbacks"] == counts["member_errors"] == 0
        if maybe_tracer is not None:
            spans = single_source_spans(maybe_tracer)
            assert len(spans) == min(len(every_query), maybe_tracer.max_children)
            assert all(span.name == "remote:solo" and "rows" in span.attrs
                       for span in spans)

    def test_pushed_trace_holds_the_members_operators(self, store):
        member = SparqlEndpoint(store, EndpointConfig.warehouse(), name="solo")
        result, trace = FederatedQueryProcessor([member]).analyze(
            'SELECT ?w { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
        )
        (root,) = trace.spans
        assert root.name == "remote:solo"
        assert root.attrs["kind"] == "single-source"
        assert root.attrs["rows"] == len(result.rows) == 1
        names = [span.name for span in root.walk()]
        assert any(name.startswith(("Scan(", "BindJoin(", "HashJoin(")) for name in names)
        assert not any(name.startswith("Remote") for name in names)

    def test_one_empty_member_changes_nothing(
        self, store, every_query, gold_queries, analytic_queries,
        reference_evaluate, maybe_tracer,
    ):
        """(b) Source selection names the full member for every pattern
        that matches anything, so the query still ships whole — and is
        the reference answer over the merged data."""
        full = SparqlEndpoint(store, EndpointConfig(timeout_s=1.0), name="full")
        empty = SparqlEndpoint(TripleStore(), EndpointConfig(timeout_s=1.0), name="empty")
        federation = FederatedQueryProcessor([full, empty])
        pushed = 0
        for position, query in enumerate(every_query):
            federation.run(query)  # source selection runs (and is cached)
            expected = full.select(query).rows
            full.reset_log()
            empty.reset_log()
            result = federation.run(query, tracer=maybe_tracer)
            assert empty.query_count == 0
            assert full.query_count <= 1
            if full.query_count:
                pushed += 1
                assert result.rows == expected
            else:
                # No pattern matches anywhere: nothing to ask anybody.
                assert position >= len(gold_queries) + len(analytic_queries)
                assert not result.rows and not expected
            assert agrees_with_reference(result, reference_evaluate, store, query)
        # Each query ran twice; all but the unmatched probes shipped whole.
        assert federation.counters.snapshot()["single_source"] == 2 * pushed
        assert pushed >= len(gold_queries) + len(analytic_queries)

    def test_split_federation_never_pushes(self, federation, two_endpoints):
        """(c) Patterns at both members: the decomposed plan, as ever."""
        crossing = [
            ("SELECT ?name ?city { ?p dbo:birthPlace ?c . ?c rdfs:label ?city . "
             "?p foaf:name ?name }", "RemoteScan(", 3),
            # rdf:type lives at both members: a bind join over both.
            ("SELECT ?name ?t { ?p foaf:name ?name . ?p dbo:birthPlace ?c . ?c a ?t }",
             "RemoteBindJoin(", 3),
        ]
        for query, operator, n_rows in crossing:
            assert federation.single_source(parse_query(query)) is None
            plan = federation.explain(query)
            assert operator in plan and "SingleSource" not in plan
            assert len(federation.run(query)) == n_rows
        counts = federation.counters.snapshot()
        assert counts["queries"] == len(crossing)
        assert counts["single_source"] == counts["fallbacks"] == 0
        assert counts["subqueries"] > counts["queries"]

    def test_split_federation_pushes_a_one_sided_query(self, federation, two_endpoints):
        people, cities = two_endpoints
        query = "SELECT ?name { ?p foaf:name ?name . ?p a dbo:Person MINUS { ?p dbo:missing ?x } }"
        federation.run(query)
        people.reset_log()
        cities.reset_log()
        assert {str(v) for v in federation.run(query).value_set("name")} == {"Ann", "Bob", "Cme"}
        assert (people.query_count, cities.query_count) == (1, 0)
        assert f"SingleSource(@{people.name})" in federation.explain(query)

    def test_refused_whole_query_falls_back(self, store, analytic_queries, reference_evaluate):
        """(d) The member's budget admits each UNION branch but not the
        query in one piece: the decomposed plan answers."""
        query = analytic_queries[6]
        free = SparqlEndpoint(store, EndpointConfig.warehouse(), name="free")
        assert FederatedQueryProcessor([free]).run(query).rows
        whole_cost = free.log[-1].cost
        tight = SparqlEndpoint(
            store,
            EndpointConfig(timeout_s=whole_cost - 1.0, cost_units_per_second=1.0,
                           scan_speedup=1.0, latency_s=0.0),
            name="tight",
        )
        federation = FederatedQueryProcessor([tight])
        tracer = Tracer()
        result = federation.run(query, tracer=tracer)
        assert bag_of(result) == bag_of(reference_evaluate(store, query))
        assert tight.log[0].outcome == "timeout"
        counts = federation.counters.snapshot()
        assert (counts["queries"], counts["single_source"], counts["fallbacks"]) == (1, 0, 1)
        # The refusal is on record, not silent.
        assert counts["member_errors"] == tight.timeout_count >= 1
        assert counts["subqueries"] == tight.query_count
        (pushed,) = single_source_spans(tracer)
        assert pushed.attrs["error"] == "EndpointTimeout"

    def test_ask_and_unmatched_patterns(self, store, reference_evaluate):
        """(e) ASK ships whole too; a pattern nobody matches names no
        source and does not stop the rest of the query from shipping."""
        full = SparqlEndpoint(store, EndpointConfig.warehouse(), name="full")
        empty = SparqlEndpoint(TripleStore(), EndpointConfig.warehouse(), name="empty")
        federation = FederatedQueryProcessor([full, empty])
        cases = [
            ('ASK { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }', 1),
            ('ASK { ?t foaf:name "Tom Hanks"@en . ?t dbo:spuse ?w }', 1),
            ('SELECT ?w { ?t foaf:name "Tom Hanks"@en . ?t dbo:spuse ?w }', 1),
            ('SELECT ?t ?w { ?t foaf:name "Tom Hanks"@en OPTIONAL { ?t dbo:spuse ?w } }', 1),
            ("SELECT ?t ?w { ?t dbo:spuse ?w }", 0),
            ("ASK { ?t dbo:spuse ?w }", 0),
        ]
        for query, requests in cases:
            federation.run(query)
            full.reset_log()
            empty.reset_log()
            result = federation.run(query)
            expected = reference_evaluate(store, query)
            if query.startswith("ASK"):
                assert bool(result) == bool(expected)
            else:
                assert bag_of(result) == bag_of(expected)
            assert (full.query_count, empty.query_count) == (requests, 0), query
        assert bool(federation.ask(cases[0][0])) and not bool(federation.ask(cases[1][0]))

    def test_select_and_ask_are_form_checks_over_run(self, federation):
        with pytest.raises(SparqlError):
            federation.select("ASK { ?p a dbo:Person }")
        with pytest.raises(SparqlError):
            federation.ask("SELECT ?p { ?p a dbo:Person }")
        parsed = parse_query("SELECT ?p { ?p foaf:name ?n }")
        tracer = Tracer()
        assert len(federation.select(parsed, tracer)) == 3
        assert single_source_spans(tracer)
        assert federation.counters.snapshot()["queries"] == 1


class TestMemberErrorsAreCounted:
    """A member's ``EndpointError`` costs a piece of the answer; every
    site that swallows one counts it and stamps its remote span."""

    @pytest.fixture
    def flaky_cities(self, two_endpoints):
        """``cities`` fails every call; ``people`` is healthy."""
        from repro.endpoint import EndpointTimeout

        people, cities = two_endpoints

        class Down(SparqlEndpoint):
            def _run(self, query, tracer=None):
                self._record("<down>", "timeout", 0, 0.0)
                raise EndpointTimeout(f"{self.name}: down")

        return people, Down(cities.store, EndpointConfig.warehouse(), name="cities")

    def test_probe_scan_and_bind_join_errors(self, flaky_cities):
        people, cities = flaky_cities
        federation = FederatedQueryProcessor([people, cities])
        tracer = Tracer()
        result = federation.run(
            "SELECT ?name ?city { ?p dbo:birthPlace ?c . ?c rdfs:label ?city . "
            "?p foaf:name ?name }",
            tracer=tracer,
        )
        assert len(result) == 0  # the labels live at the member that is down
        counts = federation.counters.snapshot()
        assert counts["member_errors"] == cities.query_count > 0
        assert counts["subqueries"] == people.query_count + cities.query_count
        failed = [span for span in tracer.finish().walk() if "error" in span.attrs]
        assert failed and all(
            span.name == "remote:cities" and span.attrs["error"] == "EndpointTimeout"
            for span in failed
        )
        assert {span.attrs["kind"] for span in failed} <= {"select", "bind-join", "ask"}

    def test_ground_pattern_ask_error(self, flaky_cities):
        people, cities = flaky_cities
        plan = RemoteScanNode(
            [TriplePattern(DBR.term("NY"), RDF_TYPE, DBO.City)], [cities, people], 1
        )
        tracer = Tracer()
        assert plan_rows(plan, TripleStore(), tracer=tracer) == []
        asks = [span for span in tracer.finish().walk() if span.attrs.get("kind") == "ask"]
        assert [span.attrs.get("error") for span in asks] == ["EndpointTimeout", None]
        assert asks[1].attrs["held"] is False


# ----------------------------------------------------------------------
# One compiler: the split federation plans through the local planner
# ----------------------------------------------------------------------

EX = "PREFIX : <http://ex/> "


class TestSplitFederationCompilesThroughTheSharedPlanner:
    """Regression: the federation's own copy of the ``LeftJoin`` case
    attached an OPTIONAL's filters to the right input, where the base
    variable they read is unbound, so a split federation lost rows."""

    QUERIES = [
        "SELECT * WHERE { { ?s :p ?o OPTIONAL { ?o :q ?z FILTER(?z != ?s) } } UNION { ?s :l ?o } }",
        "SELECT * WHERE { { ?s :p ?o OPTIONAL { ?o :q ?z FILTER(?z = ?s) } } UNION { ?s :l ?o } }",
        "SELECT * WHERE { ?z :q ?w MINUS { ?s :p ?o OPTIONAL { ?o :q ?z FILTER(?z != ?s) } } }",
        # A bind join whose key one left row leaves unbound (shipped as UNDEF).
        "SELECT * WHERE { VALUES (?o ?s) { (:b :a) (UNDEF :b) } ?o :q ?z . ?s :p ?w }",
    ]

    @pytest.fixture
    def split(self):
        def node(name):
            return IRI("http://ex/" + name)

        one = [Triple(node("a"), node("p"), node("b")), Triple(node("b"), node("p"), node("c"))]
        two = [
            Triple(node("a"), node("q"), node("c")), Triple(node("c"), node("q"), node("a")),
            Triple(node("b"), node("q"), node("b")), Triple(node("a"), node("l"), Literal("x")),
        ]
        members = [
            SparqlEndpoint(TripleStore(part), EndpointConfig.warehouse(), name=name)
            for part, name in ((one, "one"), (two, "two"))
        ]
        return FederatedQueryProcessor(members), TripleStore(one + two)

    @pytest.mark.parametrize("query", QUERIES)
    def test_local_federation_and_reference_agree(
        self, split, query, reference_evaluate, maybe_tracer
    ):
        federation, merged = split
        assert federation.single_source(parse_query(EX + query)) is None
        expected = bag_of(reference_evaluate(merged, EX + query))
        assert bag_of(evaluate(merged, EX + query)) == expected
        assert bag_of(federation.run(EX + query, tracer=maybe_tracer)) == expected

    def test_the_condition_sees_the_base_variable(self, split):
        federation, _ = split
        result = federation.select(EX + self.QUERIES[0])
        found = {
            (row["s"].value[-1], row["o"].value[-1]): row["z"].value[-1]
            for row in result.rows if "z" in row
        }
        assert found == {("a", "b"): "b", ("b", "c"): "a"}
        assert [row["z"].value[-1] for row in federation.select(EX + self.QUERIES[2]).rows] == ["c"]
        plan = federation.explain(EX + self.QUERIES[0])
        assert "LeftJoin(on ?o)" in plan and "condition((?z != ?s))" in plan

    def test_explain_has_one_vocabulary(self, split):
        """A group's own OPTIONAL is the per-solution operator in the
        tree — over the base plan and the group's plan — not a second
        section; the empty group is the unit table."""
        federation, _ = split
        plan = federation.explain(
            EX + "SELECT * WHERE { ?s :p ?o OPTIONAL { ?o :q ?z FILTER(?z != ?s) } }"
        )
        lines = plan.split("plan:\n", 1)[1].splitlines()
        assert lines[0] == "  CorrelatedLeftJoin(on ?o)  [est=2]"
        assert lines[1].startswith("    RemoteScan(?s <http://ex/p> ?o @ one)")
        assert lines[2].startswith("    RemoteScan(?o <http://ex/q> ?z @ two)")
        assert "filter((?z != ?s))" in lines[2] and "per base solution" not in plan
        assert federation.explain("SELECT * WHERE { }").endswith("plan:\n  Unit()  [est=1]")


class TestSplitFederationPagesUnderLimit:
    """A decomposed plan runs and finishes through the local evaluator's
    ``run_plan``: when LIMIT is the only cut, the mediator stops pulling
    once the page is full, so the bind join sends fewer batches."""

    QUERY = "SELECT ?s ?n ?c WHERE { ?s a dbo:Person . ?s foaf:name ?n . ?s dbo:birthPlace ?c }"

    def split_of(self, store):
        triples = list(store.triples())
        return [
            SparqlEndpoint(TripleStore(part), EndpointConfig.warehouse(), name=name)
            for part, name in ((triples[::2], "even"), (triples[1::2], "odd"))
        ]

    def test_limit_pages_with_fewer_member_requests(self, store, reference_evaluate):
        members = self.split_of(store)
        paged = parse_query(self.QUERY + " LIMIT 2")
        whole = FederatedQueryProcessor(members)
        limited = FederatedQueryProcessor(members)
        assert whole.single_source(paged) is None

        drained = whole.run(self.QUERY)
        assert bag_of(drained) == bag_of(reference_evaluate(store, self.QUERY))
        result = limited.run(paged)
        assert len(result) == 2
        assert agrees_with_reference(result, reference_evaluate, store, paged)
        sent = whole.counters.snapshot()["subqueries"]
        assert limited.counters.snapshot()["subqueries"] < sent
        # The mediator meters the decomposed plan like a local one.
        assert result.cost > 0 and drained.cost > result.cost
