"""Join-planner tests: plan shapes, parity, pushdown, EXPLAIN, costs.

The planner must be invisible semantically — every query returns the
same row multiset as the term-space reference
(the ``reference_evaluate`` fixture) on both storage backends — while
choosing the operators the cost model promises (hash joins for broad
star/chain patterns, bind joins for selective probes, a keyless hash
join, an existence scan or the unit table for the shapes that used to
be declined).
"""

import re

import pytest

from repro.rdf import IRI, Literal, Triple
from repro.rdf.terms import XSD_INTEGER
from repro.sparql import (
    BindJoinNode,
    HashJoinNode,
    QueryPlanner,
    ScanNode,
    ValuesScanNode,
    explain_plan,
    parse_query,
)
from repro.sparql.evaluator import QueryEvaluator
from repro.store import CostMeter, MemoryBackend, QueryAborted, SQLiteBackend, TripleStore

PARITY_QUERIES = [
    # star
    "SELECT ?s ?n ?g WHERE { ?s foaf:surname ?n . ?s foaf:givenName ?g . ?s dbo:birthDate ?d }",
    "SELECT * WHERE { ?s a dbo:Person . ?s foaf:name ?n . ?s dbo:birthPlace ?c }",
    # chain
    "SELECT ?p ?k WHERE { ?p dbo:birthPlace ?c . ?c dbo:country ?k }",
    "SELECT ?b ?k WHERE { ?b dbo:author ?a . ?a dbo:birthPlace ?c . ?c dbo:country ?k }",
    # cyclic
    "SELECT ?a ?b ?u WHERE { ?a dbo:spouse ?b . ?a dbo:almaMater ?u . ?b dbo:almaMater ?u }",
    # selective bind-join probe
    'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
    # single pattern, unbound predicate
    "SELECT ?s ?p WHERE { ?s ?p ?o } LIMIT 50",
    # filters at scan and join level
    'SELECT ?s ?n WHERE { ?s a dbo:Person . ?s foaf:surname ?n . FILTER (STRSTARTS(STR(?n), "K")) }',
    # modifiers
    "SELECT DISTINCT ?c WHERE { ?s dbo:birthPlace ?c . ?c a dbo:City }",
    "SELECT ?s ?n WHERE { ?s foaf:name ?n } ORDER BY ?n LIMIT 7",
    "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . ?s a dbo:Person } GROUP BY ?p",
    "ASK { ?a dbo:spouse ?b . ?b dbo:almaMater ?u }",
]


def _key(result):
    if hasattr(result, "rows"):
        return sorted(
            tuple(sorted((k, v.n3()) for k, v in row.items())) for row in result.rows
        )
    return result.value


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def planned_store(request, tiny_dataset):
    if request.param == "memory":
        yield tiny_dataset.store
        return
    store = TripleStore(tiny_dataset.store.triples(), backend=SQLiteBackend(":memory:"))
    yield store
    store.close()


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


class TestParity:
    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_planner_matches_reference(self, planned_store, query, reference_evaluate):
        parsed = parse_query(query)
        planned = QueryEvaluator(planned_store).evaluate(parsed)
        seed = reference_evaluate(planned_store, parsed)
        if "ORDER BY" in query:
            # Ordered results must agree row-for-row, not just as a set.
            assert _key(planned) == _key(seed)
            names = planned.variables
            assert [
                [row.get(n) for n in names] for row in planned.rows
            ] == [[row.get(n) for n in names] for row in seed.rows]
        else:
            assert _key(planned) == _key(seed)

    def test_distinct_limit_parity_is_row_count_exact(self, planned_store):
        query = parse_query(
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 5"
        )
        planned = QueryEvaluator(planned_store).evaluate(query)
        assert len(planned.rows) == 5
        values = [row["p"] for row in planned.rows]
        assert len(set(values)) == 5  # truly distinct under the limit


class TestPlanShapes:
    def test_star_uses_hash_joins(self, store):
        planner = QueryPlanner(store)
        group = parse_query(
            "SELECT * WHERE { ?s foaf:surname ?n . ?s foaf:givenName ?g . ?s dbo:birthDate ?d }"
        ).where
        plan = planner.plan(group)
        assert isinstance(plan, HashJoinNode)
        assert isinstance(plan.left, HashJoinNode)
        assert all(isinstance(leaf, ScanNode) for leaf in (plan.right, plan.left.left, plan.left.right))

    def test_selective_probe_uses_bind_join(self, store):
        planner = QueryPlanner(store)
        group = parse_query(
            'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
        ).where
        plan = planner.plan(group)
        assert isinstance(plan, BindJoinNode)
        assert isinstance(plan.left, ScanNode)
        assert plan.left.est_rows <= 1

    def test_cartesian_group_is_a_keyless_hash_join(self, planned_store, reference_evaluate):
        """Each side is scanned once; the product is the reference's."""
        query = parse_query(
            "SELECT * WHERE { ?a dbo:capital ?n . ?b dbo:country ?k . ?b a dbo:City }"
        )
        plan = QueryPlanner(planned_store).plan(query.where)
        keyless = [node for node in _walk(plan) if isinstance(node, HashJoinNode) and not node.keys]
        assert len(keyless) == 1 and "HashJoin(on -)" in explain_plan(plan)
        planned = QueryEvaluator(planned_store).evaluate(query)
        assert planned.rows and _key(planned) == _key(reference_evaluate(planned_store, query))

    def test_empty_group_is_the_unit_table(self, store, reference_evaluate):
        query = parse_query("SELECT * WHERE { }")
        plan = QueryPlanner(store).plan(query.where)
        assert isinstance(plan, ValuesScanNode) and plan.label() == "Unit()"
        assert QueryEvaluator(store).evaluate(query).rows == [{}]
        assert reference_evaluate(store, query).rows == [{}]
        assert QueryEvaluator(store).evaluate(parse_query("ASK { }")).value

    @pytest.mark.parametrize("subject, held", [("Tom_Hanks", True), ("x", False)])
    def test_fully_concrete_pattern_is_an_existence_scan(
        self, planned_store, subject, held, reference_evaluate
    ):
        """One metered probe, one empty row or none, cross-joined in."""
        query = parse_query(
            f"SELECT ?w WHERE {{ dbr:{subject} a dbo:Person . dbr:Tom_Hanks dbo:spouse ?w }}"
        )
        plan = QueryPlanner(planned_store).plan(query.where)
        probe = next(
            node for node in _walk(plan) if isinstance(node, ScanNode) and not node.variables
        )
        meter = CostMeter()
        assert [b.length for b in probe.batches(planned_store, meter)] == [1] * held
        assert meter.cost == 1
        planned = QueryEvaluator(planned_store).evaluate(query)
        assert bool(planned.rows) is held
        assert _key(planned) == _key(reference_evaluate(planned_store, query))
        ask = parse_query(f"ASK {{ dbr:{subject} a dbo:Person }}")
        assert QueryEvaluator(planned_store).evaluate(ask).value is held

    def test_unknown_term_plans_to_empty_result(self, store):
        result = QueryEvaluator(store).evaluate(parse_query(
            'SELECT ?o WHERE { <http://nowhere/unseen> ?p ?o . ?o ?q ?r }'
        ))
        assert result.rows == []

    def test_filter_pushdown_reaches_scan_level(self, store):
        planner = QueryPlanner(store)
        group = parse_query(
            'SELECT ?s ?n WHERE { ?s a dbo:Person . ?s foaf:surname ?n . '
            'FILTER (STRSTARTS(STR(?n), "K")) }'
        ).where
        plan = planner.plan(group)
        scans = []

        def collect(node):
            if isinstance(node, ScanNode):
                scans.append(node)
            for child in node.children():
                collect(child)

        collect(plan)
        surname_scan = next(
            s for s in scans if "surname" in str(s.pattern.predicate)
        )
        assert surname_scan.filters  # pushed below the join
        assert not plan.filters or plan is surname_scan

    def test_repeated_variable_within_pattern(self, reference_evaluate):
        p = IRI("http://x/knows")
        a, b = IRI("http://x/a"), IRI("http://x/b")
        store = TripleStore([Triple(a, p, a), Triple(a, p, b), Triple(b, p, b)])
        result = QueryEvaluator(store).evaluate(parse_query(
            "SELECT ?x ?y WHERE { ?x <http://x/knows> ?x . ?x <http://x/knows> ?y }"
        ))
        seed = reference_evaluate(
            store,
            "SELECT ?x ?y WHERE { ?x <http://x/knows> ?x . ?x <http://x/knows> ?y }",
        )
        assert _key(result) == _key(seed)
        assert {(r["x"].value, r["y"].value) for r in result.rows} == {
            ("http://x/a", "http://x/a"),
            ("http://x/a", "http://x/b"),
            ("http://x/b", "http://x/b"),
        }


class TestCostsAndMeter:
    def test_limit_terminates_early(self, store):
        full = CostMeter()
        QueryEvaluator(store).evaluate(
            parse_query("SELECT ?s WHERE { ?s ?p ?o }"), full
        )
        limited = CostMeter()
        QueryEvaluator(store).evaluate(
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"), limited
        )
        assert limited.cost < full.cost / 10

    def test_budget_aborts_planned_query(self, store):
        meter = CostMeter(budget=20)
        with pytest.raises(QueryAborted):
            QueryEvaluator(store).evaluate(
                parse_query(
                    "SELECT * WHERE { ?s foaf:name ?n . ?s dbo:birthDate ?d }"
                ),
                meter,
            )

    def test_tight_budget_switches_to_bind_joins(self, store):
        """A budgeted evaluation must not pay a hash join's up-front
        build scan: endpoint timeout behaviour stays on the seed's
        selective-probe cost profile (docs/query-planning.md)."""
        group = parse_query(
            "SELECT * WHERE { ?s foaf:name ?n . ?s dbo:birthDate ?d }"
        ).where
        planner = QueryPlanner(store)
        unbudgeted = planner.plan(group)
        budgeted = planner.plan(group, budget=20)
        assert isinstance(unbudgeted, HashJoinNode)
        assert isinstance(budgeted, BindJoinNode)

    def test_explain_is_meter_free(self, store):
        evaluator = QueryEvaluator(store)
        text = evaluator.explain(
            "SELECT * WHERE { ?s foaf:name ?n . ?s dbo:birthDate ?d }"
        )
        assert "HashJoin" in text  # planning ran without any meter at all


class TestPredicateStats:
    def test_stats_agree_across_backends(self, tiny_dataset):
        memory = tiny_dataset.store
        sqlite = TripleStore(memory.triples(), backend=SQLiteBackend(":memory:"))
        try:
            assert memory.predicate_stats_ids() or True  # id-keyed form exists
            assert memory.predicate_stats() == sqlite.predicate_stats()
        finally:
            sqlite.close()

    @pytest.mark.parametrize("backend_factory", [MemoryBackend, lambda: SQLiteBackend(":memory:")])
    def test_stats_invalidate_on_mutation(self, backend_factory):
        store = TripleStore(backend=backend_factory())
        p = IRI("http://x/p")
        store.add(Triple(IRI("http://x/s1"), p, IRI("http://x/o1")))
        store.add(Triple(IRI("http://x/s1"), p, IRI("http://x/o2")))
        stats = store.predicate_stats()[p]
        assert (stats.count, stats.distinct_subjects, stats.distinct_objects) == (2, 1, 2)
        store.add(Triple(IRI("http://x/s2"), p, IRI("http://x/o1")))
        stats = store.predicate_stats()[p]
        assert (stats.count, stats.distinct_subjects, stats.distinct_objects) == (3, 2, 2)
        assert stats.subject_fanout == 1.5
        store.close()


class TestExplainSurfaces:
    def test_evaluator_explain_shows_plan_tree(self, store):
        text = QueryEvaluator(store).explain(
            "SELECT DISTINCT ?s ?n WHERE { ?s a dbo:Person . ?s foaf:surname ?n } LIMIT 4"
        )
        assert text.startswith("SELECT DISTINCT ?s ?n")
        assert "limit=4" in text
        assert "HashJoin(on ?s)" in text
        assert "Scan(" in text and "est=" in text

    def test_explain_has_one_vocabulary(self, store):
        """Every group prints operator lines: the shapes that used to
        print ``Backtrack(...)``, ``TermSpaceFallback:`` or ``Empty()``
        are a keyless hash join, an existence scan, a compatibility
        join and the unit table."""
        evaluator = QueryEvaluator(store)
        text = evaluator.explain("SELECT * WHERE { ?a foaf:name ?n . ?b dbo:country ?k }")
        assert text.splitlines()[1].startswith("HashJoin(on -)  [est=")
        text = evaluator.explain("SELECT ?n WHERE { dbr:Tom_Hanks a dbo:Person . ?s foaf:name ?n }")
        assert "\n  Scan(<http://dbpedia.org/resource/Tom_Hanks> " in text
        text = evaluator.explain(
            'SELECT * WHERE { ?p foaf:name ?n VALUES (?p ?n) { (dbr:Tom_Hanks UNDEF) } }'
        )
        assert "CompatJoin(on ?p, ?n)  [est=" in text
        assert evaluator.explain("SELECT * WHERE { }").splitlines()[1:] == ["Unit()  [est=1]"]
        for line in text.splitlines()[1:]:
            assert line.lstrip()[0].isupper() and "  [est=" in line

    def test_explain_shows_optionals_as_operators(self, store):
        """A planned OPTIONAL is a left join in the tree; one that must
        see its base solution from inside (here a nested OPTIONAL
        reading ``?n`` past the group that would bind it) is the
        per-solution operator, over the base plan and the group's plan
        — no ``Optional:`` section either way."""
        evaluator = QueryEvaluator(store)
        text = evaluator.explain(
            "SELECT * WHERE { ?s a dbo:Person OPTIONAL { ?s dbo:spouse ?w } }"
        )
        assert "LeftJoin(on ?s)" in text and "Correlated" not in text
        text = evaluator.explain(
            "SELECT * WHERE { ?s a dbo:Person . ?s foaf:name ?n "
            "OPTIONAL { ?s dbo:spouse ?w OPTIONAL { ?w foaf:name ?n } } }"
        )
        lines = text.splitlines()
        assert re.fullmatch(r"CorrelatedLeftJoin\(on \?s, \?n\)  \[est=\d+\]", lines[1])
        assert lines[2].startswith("  HashJoin(on ?s)")
        assert any(line.startswith("  LeftJoin(on ?w)") for line in lines)
        assert "Optional:" not in text and "Backtrack(" not in text

    def test_endpoint_explain_uses_its_budget(self, store):
        """An endpoint's EXPLAIN must show the strategy its own budget
        will force at execution time, not the unbudgeted plan."""
        from repro.endpoint import EndpointConfig, SparqlEndpoint

        query = "SELECT * WHERE { ?s foaf:name ?n . ?s dbo:birthDate ?d }"
        warehouse = SparqlEndpoint(store, EndpointConfig.warehouse())
        guarded = SparqlEndpoint(
            store, EndpointConfig(timeout_s=0.001, cost_units_per_second=20_000)
        )
        assert "HashJoin" in warehouse.explain(query)
        assert "BindJoin" in guarded.explain(query)

    def test_endpoint_and_server_explain(self, server):
        text = server.explain(
            'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
        )
        assert "-- endpoint: dbpedia-mini" in text
        assert "BindJoin(" in text

    def test_explain_plan_renders_filters(self, store):
        plan = QueryPlanner(store).plan(parse_query(
            'SELECT ?s ?n WHERE { ?s foaf:surname ?n . ?s a dbo:Person . '
            'FILTER (STRSTARTS(STR(?n), "K")) }'
        ).where)
        assert "filter(" in explain_plan(plan)

    def test_the_relaxer_shapes_print_a_plan_on_every_surface(self, store, endpoint, server, capsys):
        """The planner is total on the shapes the relaxer sends: a
        ``VALUES`` table with a literal the store never saw and two
        stars that share only a literal print operator lines through the
        evaluator, the endpoint, the server, the protocol and the CLI
        alike."""
        from repro.cli import main
        from repro.net import HttpSparqlEndpoint, SparqlHttpServer

        shapes = {
            'SELECT DISTINCT * WHERE { ?s ?p ?v VALUES ?v { "Kennedys"@en "Tom Hanks"@en } }':
                ("BindJoin(?s ?p ?v)", "  ValuesScan(?v x2)"),
            'SELECT * WHERE { ?a foaf:surname "Kennedy"@en . ?a foaf:givenName ?g . '
            '?b foaf:surname "Kennedy"@en . ?b dbo:birthPlace ?c }':
                ("HashJoin(on ?b)", "  HashJoin(on -)"),
        }
        http = SparqlHttpServer(endpoint).start()
        try:
            surfaces = [
                QueryEvaluator(store).explain, endpoint.explain, server.explain,
                HttpSparqlEndpoint(http.url).explain,
            ]
            for text, operators in shapes.items():
                assert main(["explain", text]) == 0
                dumps = [capsys.readouterr().out] + [explain(text) for explain in surfaces]
                for dump in dumps:
                    for operator in operators:
                        assert f"\n{operator}" in dump, dump
                    assert "Backtrack" not in dump and "Fallback" not in dump
        finally:
            http.stop()

    def test_cli_explain_command(self, capsys):
        from repro.cli import main

        code = main([
            "explain",
            "SELECT ?s ?n WHERE { ?s a dbo:Person . ?s foaf:surname ?n }",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "endpoint" in out and "Scan(" in out


class TestOptionalsWithPlanner:
    def test_optional_rides_on_planned_base(self, planned_store, reference_evaluate):
        query = parse_query(
            "SELECT * WHERE { ?s a dbo:Person . ?s foaf:surname ?n "
            "OPTIONAL { ?s dbo:spouse ?w } }"
        )
        planned = QueryEvaluator(planned_store).evaluate(query)
        seed = reference_evaluate(planned_store, query)
        assert _key(planned) == _key(seed)
        assert any("w" in row for row in planned.rows)
        assert any("w" not in row for row in planned.rows)


def test_numeric_filter_pushdown_semantics(reference_evaluate):
    value = IRI("http://x/value")
    kind = IRI("http://x/T")
    rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    triples = []
    for i in range(10):
        s = IRI(f"http://x/e{i}")
        triples.append(Triple(s, rdf_type, kind))
        triples.append(Triple(s, value, Literal(str(i), datatype=XSD_INTEGER)))
    store = TripleStore(triples)
    query = parse_query(
        "SELECT ?s ?v WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://x/T> . ?s <http://x/value> ?v . FILTER (?v >= 7) }"
    )
    planned = QueryEvaluator(store).evaluate(query)
    seed = reference_evaluate(store, query)
    assert _key(planned) == _key(seed)
    assert sorted(int(r["v"].lexical) for r in planned.rows) == [7, 8, 9]
