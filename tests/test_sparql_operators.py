"""The ``/sparql`` operators that run on ID columns end to end: OPTIONAL
as a planned left outer join, the one columnar GROUP BY / ORDER BY
tail, the multi-key join kernel and the column FILTER kernel.

Everything is held to the executable reference — the term-space solver
(``tests/reference_solver.py``) plus the row-at-a-time
``reference_finalize`` (``tests/reference_tail.py``) — on memory, SQLite
and sharded stores, traced and untraced.  Unordered answers compare as
multisets; the tail compares rows *and order*, on the same input
solutions, in both of its cell spaces.  The planner is total: the
shapes it used to decline plan, and equal the reference, here too.
"""

from __future__ import annotations

import dataclasses
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_rows import plan_rows
from reference_solver import apply_optionals
from reference_tail import reference_finalize
from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.federation import FederatedQueryProcessor
from repro.net import HttpSparqlEndpoint, SparqlHttpServer
from repro.rdf import IRI, Literal, Triple, TriplePattern, Variable
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER
from repro.sparql.evaluator import QueryEvaluator, finalize_solutions
from repro.sparql.parser import parse_query
from repro.sparql.plan import (
    Batch,
    BindJoinNode,
    CompatJoinNode,
    CorrelatedLeftJoinNode,
    HashJoinNode,
    LeftJoinNode,
    PlanNode,
    QueryPlanner,
    ScanNode,
    UNBOUND,
    UnionNode,
    ValuesScanNode,
    explain_plan,
)
from repro.sparql.tail import finish, finish_columns
from repro.store import CostMeter, SQLiteBackend, TripleStore
from repro.store.sharded import create_sharded_backend
from repro.store.triplestore import QueryAborted

EX = "http://ex/"
RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def ex(name: str) -> IRI:
    return IRI(EX + name)


def integer(value: int) -> Literal:
    return Literal(str(value), datatype=XSD_INTEGER)


def crafted_triples():
    """Eight items with scores of every kind (integers, a double, a
    plain string, an IRI, two values, none), partly labelled, partly
    categorised; and a pair graph with repeated keys on every side."""
    triples = [Triple(ex(f"i{i}"), RDF_TYPE, ex("Thing")) for i in range(8)]
    scores = {
        0: [integer(0)], 1: [integer(10)], 2: [integer(20)],
        3: [Literal("2.5", datatype=XSD_DOUBLE)], 4: [Literal("n/a")],
        5: [ex("other")], 6: [integer(7), Literal("7.5", datatype=XSD_DOUBLE)],
    }
    for i, values in scores.items():
        triples += [Triple(ex(f"i{i}"), ex("score"), value) for value in values]
    for i, label in enumerate(["apple", "avocado", "banana", "apple", "cherry", "10"]):
        triples.append(Triple(ex(f"i{i}"), ex("label"), Literal(label)))
    for i, category in {0: "c0", 1: "c0", 2: "c1", 3: "c1", 4: "c2", 5: "c2"}.items():
        triples.append(Triple(ex(f"i{i}"), ex("in"), ex(category)))
    triples.append(Triple(ex("c0"), ex("name"), Literal("alpha")))
    triples.append(Triple(ex("c1"), ex("name"), Literal("beta")))
    pairs = {
        "p": [(0, 0), (0, 1), (1, 0), (2, 2), (3, 1)],
        "q": [(0, 0), (1, 0), (1, 1), (2, 2)],
        "r": [(0, 0), (2, 2), (3, 3)],
    }
    for predicate, edges in pairs.items():
        triples += [Triple(ex(f"a{a}"), ex(predicate), ex(f"b{b}")) for a, b in edges]
    for a, xs in {0: (0, 1), 1: (0,), 2: (0, 1, 2)}.items():
        triples += [Triple(ex(f"a{a}"), ex("t"), ex(f"x{x}")) for x in xs]
    return triples


def _store(kind: str, triples) -> TripleStore:
    if kind == "memory":
        return TripleStore(triples)
    backend = (
        SQLiteBackend(":memory:") if kind == "sqlite" else create_sharded_backend(3, "memory")
    )
    return TripleStore(triples, backend=backend)


@pytest.fixture(scope="module", params=["memory", "sqlite", "sharded"])
def ops_store(request):
    store = _store(request.param, crafted_triples())
    yield store
    store.close()


@pytest.fixture(scope="module", params=["memory", "sqlite", "sharded"])
def data_store(request, tiny_dataset):
    if request.param == "memory":
        yield tiny_dataset.store
        return
    store = _store(request.param, tiny_dataset.store.triples())
    yield store
    store.close()


def multiset(result):
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


def walk(plan):
    yield plan
    for child in plan.children():
        yield from walk(child)


def check(store, text, reference_evaluate, tracer=None, ordered=False, **evaluator_args):
    """Evaluate ``text`` on the batch engine and hold it to the
    reference: the row multiset, or the exact row list for a query
    whose ORDER BY is total."""
    query = parse_query(text)
    result = QueryEvaluator(store, **evaluator_args).evaluate(query, tracer=tracer)
    expected = reference_evaluate(store, query)
    assert result.variables == expected.variables
    if ordered:
        assert result.rows == expected.rows
    else:
        assert multiset(result) == multiset(expected)
    return result


# ----------------------------------------------------------------------
# OPTIONAL as a planned left outer join
# ----------------------------------------------------------------------

OPTIONAL_QUERIES = {
    "single pattern": (
        f"SELECT ?i ?l WHERE {{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}label> ?l }} }}"
    ),
    "adds no variable": (
        f"SELECT ?i WHERE {{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}in> <{EX}c0> }} }}"
    ),
    "multi-pattern": (
        f"SELECT ?i ?c ?n WHERE {{ ?i a <{EX}Thing> "
        f"OPTIONAL {{ ?i <{EX}in> ?c . ?c <{EX}name> ?n }} }}"
    ),
    "own filter on own variable": (
        f"SELECT ?i ?v WHERE {{ ?i a <{EX}Thing> "
        f"OPTIONAL {{ ?i <{EX}score> ?v FILTER (?v >= 7) }} }}"
    ),
    "own filter reads an outer variable": (
        f"SELECT ?i ?l ?v WHERE {{ ?i <{EX}label> ?l "
        f"OPTIONAL {{ ?i <{EX}score> ?v FILTER (STR(?v) != ?l && ?l != \"apple\") }} }}"
    ),
    "second joins on the first's maybe-unbound variable": (
        f"SELECT ?i ?c ?n WHERE {{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}in> ?c }} "
        f"OPTIONAL {{ ?c <{EX}name> ?n }} }}"
    ),
    "two independent": (
        f"SELECT ?i ?l ?v WHERE {{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}label> ?l }} "
        f"OPTIONAL {{ ?i <{EX}score> ?v }} }}"
    ),
    "well-designed nested": (
        f"SELECT ?i ?c ?n WHERE {{ ?i a <{EX}Thing> "
        f"OPTIONAL {{ ?i <{EX}in> ?c OPTIONAL {{ ?c <{EX}name> ?n }} }} }}"
    ),
    "union inside": (
        f"SELECT ?i ?x WHERE {{ ?i a <{EX}Thing> "
        f"OPTIONAL {{ {{ ?i <{EX}label> ?x }} UNION {{ ?i <{EX}in> ?x }} }} }}"
    ),
    "minus inside": (
        f"SELECT ?i ?c WHERE {{ ?i a <{EX}Thing> "
        f"OPTIONAL {{ ?i <{EX}in> ?c MINUS {{ ?c <{EX}name> \"alpha\" }} }} }}"
    ),
    "shares nothing": (
        f"SELECT ?i ?n WHERE {{ ?i <{EX}in> <{EX}c0> OPTIONAL {{ <{EX}c1> <{EX}name> ?n }} }}"
    ),
    "under a union branch": (
        f"SELECT ?i ?l WHERE {{ {{ ?i <{EX}in> <{EX}c1> OPTIONAL {{ ?i <{EX}label> ?l }} }} "
        f"UNION {{ ?i <{EX}in> <{EX}c2> }} FILTER (!BOUND(?l) || ?l != \"banana\") }}"
    ),
}

#: Every shape the planner used to decline, with the operator that
#: answers it now (``docs/query-planning.md`` has why each is sound).
FORMERLY_DECLINED = {
    "unit group": ("SELECT * WHERE { }", ValuesScanNode),
    "unit group under a filter": ("SELECT * WHERE { FILTER (1 < 2) }", ValuesScanNode),
    "concrete pattern that holds": (
        f"SELECT ?l WHERE {{ <{EX}i0> <{EX}in> <{EX}c0> . ?i <{EX}label> ?l }}", ScanNode
    ),
    "concrete pattern that does not hold": (
        f"SELECT ?l WHERE {{ <{EX}i0> <{EX}in> <{EX}c1> . ?i <{EX}label> ?l }}", ScanNode
    ),
    "concrete pattern over a term the store never saw": (
        f"SELECT ?l WHERE {{ <{EX}i0> <{EX}in> <{EX}never> . ?i <{EX}label> ?l }}", ScanNode
    ),
    "cartesian pair": (
        f"SELECT * WHERE {{ ?i <{EX}in> <{EX}c0> . ?c <{EX}name> ?n }}", HashJoinNode
    ),
    "three stars that meet only in constants": (
        f"SELECT * WHERE {{ ?a <{EX}label> \"apple\" . ?a <{EX}in> ?c . "
        f"?b <{EX}label> \"banana\" . ?b <{EX}score> ?v . ?k <{EX}name> \"alpha\" }}",
        HashJoinNode,
    ),
    "UNDEF join key": (
        f"SELECT * WHERE {{ ?i <{EX}label> ?l "
        f"VALUES (?i ?l) {{ (<{EX}i0> UNDEF) (UNDEF \"banana\") (<{EX}i1> \"apple\") }} }}",
        CompatJoinNode,
    ),
    "UNION-skipped join key": (
        f"SELECT * WHERE {{ {{ ?i <{EX}in> ?c }} UNION {{ ?i <{EX}label> ?l }} "
        f"{{ ?c <{EX}name> ?n }} UNION {{ ?i <{EX}score> ?c }} }}",
        CompatJoinNode,
    ),
    "unknown VALUES terms": (
        f"SELECT * WHERE {{ ?i <{EX}label> ?l VALUES ?l {{ \"nope\" \"apple\" <{EX}never> }} }}",
        ValuesScanNode,
    ),
    "unknown VALUES terms that reach the answer": (
        f"SELECT ?v ?l WHERE {{ VALUES ?v {{ \"nope\" <{EX}never> <{EX}i2> }} "
        f"OPTIONAL {{ ?v <{EX}label> ?l }} FILTER (ISIRI(?v) || STRLEN(?v) = 4) }}",
        ValuesScanNode,
    ),
    "repeated unknown VALUES term": (
        f"SELECT * WHERE {{ VALUES ?v {{ \"nope\" \"nada\" \"nope\" }} "
        f"VALUES (?v ?w) {{ (\"nope\" 1) (\"nix\" 2) (\"nada\" \"nope\") }} }}",
        ValuesScanNode,
    ),
    "nested optional reads past its group": (
        f"SELECT ?i ?l ?c WHERE {{ ?i <{EX}label> ?l "
        f"OPTIONAL {{ ?i <{EX}in> ?c OPTIONAL {{ ?c <{EX}name> ?l }} }} }}",
        CorrelatedLeftJoinNode,
    ),
    "branch filter reads an outer variable": (
        f"SELECT ?i ?l ?x WHERE {{ ?i <{EX}label> ?l OPTIONAL {{ "
        f"{{ ?i <{EX}score> ?x FILTER (?l = \"apple\") }} UNION {{ ?i <{EX}in> ?x }} }} }}",
        CorrelatedLeftJoinNode,
    ),
    "nested minus subtracts on an outer variable": (
        f"SELECT ?i ?c ?x WHERE {{ ?i <{EX}in> ?c "
        f"OPTIONAL {{ ?i <{EX}label> ?x MINUS {{ ?i a <{EX}Thing> . ?c <{EX}name> \"alpha\" }} }} }}",
        CorrelatedLeftJoinNode,
    ),
    "condition on a maybe-unbound join key": (
        f"SELECT ?i ?c ?n WHERE {{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}in> ?c }} "
        f"OPTIONAL {{ ?c <{EX}name> ?n FILTER (?n != \"beta\") }} }}",
        LeftJoinNode,
    ),
}


class TestPlannedOptional:
    @pytest.mark.parametrize("name", OPTIONAL_QUERIES)
    def test_matches_reference(self, ops_store, name, reference_evaluate, maybe_tracer):
        text = OPTIONAL_QUERIES[name]
        plan = QueryPlanner(ops_store).plan(parse_query(text).where)
        assert plan is not None, "planned, not declined"
        result = check(ops_store, text, reference_evaluate, maybe_tracer)
        assert result.rows

    @pytest.mark.parametrize("name", OPTIONAL_QUERIES)
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_batch_cuts_keep_rows(self, ops_store, name, batch_size, reference_evaluate):
        check(ops_store, OPTIONAL_QUERIES[name], reference_evaluate, batch_size=batch_size)

    def test_both_join_strategies_and_the_compat_join_are_exercised(self, ops_store):
        """Hash and bind outer joins are the inner joins' selection
        (forced here by the budget rule), and a maybe-unbound key gets
        the compatibility join."""
        planner = QueryPlanner(ops_store)
        where = parse_query(OPTIONAL_QUERIES["single pattern"]).where
        assert isinstance(planner.plan(where), HashJoinNode) and planner.plan(where).outer
        tight = planner.plan(where, budget=10)
        assert isinstance(tight, BindJoinNode) and tight.outer
        where = parse_query(
            OPTIONAL_QUERIES["second joins on the first's maybe-unbound variable"]
        ).where
        assert isinstance(planner.plan(where), LeftJoinNode)

    @pytest.mark.parametrize("budget", [None, 10])
    def test_hash_and_bind_agree(self, ops_store, budget, reference_evaluate):
        """Every planned shape, and under a budget that forces bind
        joins (a group of several patterns then runs per solution:
        evaluating it whole would not fit): plans straight off the
        planner, decoded here."""
        for name, text in OPTIONAL_QUERIES.items():
            query = parse_query(text)
            plan = QueryPlanner(ops_store).plan(query.where, budget=budget)
            per_solution = any(isinstance(node, CorrelatedLeftJoinNode) for node in walk(plan))
            if per_solution:
                assert budget is not None
                assert name not in ("single pattern", "two independent", "adds no variable")
            rows = sorted(
                tuple(
                    (name, ops_store.decode_id(cell).n3())
                    for name, cell in sorted(zip(plan.variables, row))
                    if cell != UNBOUND
                )
                for row in plan_rows(plan, ops_store)
            )
            expected = reference_evaluate(ops_store, f"SELECT * WHERE {text[text.index('{'):]}")
            assert rows == multiset(expected), text

    @pytest.mark.parametrize(
        "modifiers", ["LIMIT 3", "LIMIT 2 OFFSET 4", "", "LIMIT 50"]
    )
    @pytest.mark.parametrize("distinct", ["", "DISTINCT "])
    def test_streams_under_limit_and_distinct(
        self, ops_store, distinct, modifiers, reference_evaluate, maybe_tracer
    ):
        """One OPTIONAL no longer switches the streaming SELECT off: the
        page is cut from ID rows, and is a page of the full answer."""
        where = f"{{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}score> ?v }} }}"
        query = parse_query(f"SELECT {distinct}?i ?v WHERE {where} {modifiers}")
        evaluator = QueryEvaluator(ops_store, batch_size=2)
        page = evaluator.evaluate(query, tracer=maybe_tracer)
        full = reference_evaluate(ops_store, f"SELECT {distinct}?i ?v WHERE {where}")
        expected = len(full.rows)
        if query.offset:
            expected = max(0, expected - query.offset)
        if query.limit is not None:
            expected = min(expected, query.limit)
        assert len(page.rows) == expected
        remaining = multiset(full)
        for row in multiset(page):
            remaining.remove(row)  # each page row is a (distinct) row of the answer

    def test_limit_stops_the_left_side_early(self, data_store):
        """The streaming path's early termination reaches through the
        outer join: a small page costs a fraction of the whole answer."""
        text = "SELECT ?s ?w WHERE { ?s foaf:name ?n OPTIONAL { ?s dbo:spouse ?w } }"
        evaluator = QueryEvaluator(data_store)
        whole, page = CostMeter(), CostMeter()
        evaluator.evaluate(parse_query(text), whole)
        evaluator.evaluate(parse_query(text + " LIMIT 3"), page)
        assert page.cost * 4 < whole.cost

    def test_ask_and_aggregate_over_optional(self, ops_store, reference_evaluate, maybe_tracer):
        assert QueryEvaluator(ops_store).evaluate(
            parse_query(f"ASK {{ ?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}label> ?l }} }}"),
            tracer=maybe_tracer,
        ).value
        check(
            ops_store,
            f"SELECT ?c (COUNT(?i) AS ?n) (COUNT(?l) AS ?m) WHERE {{ ?i a <{EX}Thing> "
            f"OPTIONAL {{ ?i <{EX}in> ?c }} OPTIONAL {{ ?i <{EX}label> ?l }} }} "
            f"GROUP BY ?c ORDER BY DESC(?n) ?c",
            reference_evaluate, maybe_tracer, ordered=True,
        )


#: ``SELECT (expr AS ?x)`` without aggregation: the one tail decodes the
#: plan's ID columns and evaluates each projection per row
#: (``tail._project`` over ``tail._evaluated``), also under DISTINCT and
#: a LIMIT that stops the pull early.
_THINGS = f"?i a <{EX}Thing>"
PROJECTION_QUERIES = {
    "expression": f"SELECT (STRLEN(?l) AS ?n) WHERE {{ ?i <{EX}label> ?l }}",
    "distinct": f"SELECT DISTINCT (STRLEN(?l) AS ?n) WHERE {{ ?i <{EX}label> ?l }}",
    "mixed-head": f"SELECT (UCASE(?l) AS ?u) ?i WHERE {{ ?i <{EX}label> ?l }}",
    "arithmetic": f"SELECT ?i ((?v + 1) AS ?w) ((?v * 2 > 15) AS ?big) WHERE {{ ?i <{EX}score> ?v }}",
    # i6 and i7 carry no label: the cell stays empty, the row stays.
    "optional-unbound": f"SELECT ?i (UCASE(?l) AS ?u) (BOUND(?l) AS ?b) WHERE "
                        f"{{ {_THINGS} OPTIONAL {{ ?i <{EX}label> ?l }} }}",
}


class TestExpressionProjection:
    @pytest.mark.parametrize("name", PROJECTION_QUERIES)
    @pytest.mark.parametrize("batch_size", [2, 1024])
    def test_matches_reference(self, ops_store, name, batch_size, reference_evaluate, maybe_tracer):
        result = check(ops_store, PROJECTION_QUERIES[name], reference_evaluate, maybe_tracer,
                       batch_size=batch_size)
        assert any(result.rows)  # some row has a cell: the projection projects

    def test_an_unbound_argument_leaves_the_cell_empty(self, ops_store):
        rows = QueryEvaluator(ops_store).evaluate(
            parse_query(PROJECTION_QUERIES["optional-unbound"])).rows
        assert len(rows) == 8 and sum("u" not in row for row in rows) == 2
        assert all(set(row) >= {"i", "b"} for row in rows)

    @pytest.mark.parametrize("modifiers", ["LIMIT 3", "LIMIT 2 OFFSET 3", "OFFSET 5", "LIMIT 50"])
    @pytest.mark.parametrize("name", ["distinct", "mixed-head", "optional-unbound"])
    def test_a_page_is_a_page_of_the_full_answer(
        self, ops_store, name, modifiers, reference_evaluate, maybe_tracer
    ):
        text = PROJECTION_QUERIES[name]
        query = parse_query(f"{text} {modifiers}")
        page = QueryEvaluator(ops_store, batch_size=2).evaluate(query, tracer=maybe_tracer)
        full = reference_evaluate(ops_store, text)
        expected = max(0, len(full.rows) - (query.offset or 0))
        if query.limit is not None:
            expected = min(expected, query.limit)
        assert page.variables == full.variables and len(page.rows) == expected
        remaining = multiset(full)
        for row in multiset(page):
            remaining.remove(row)  # each page row is a row of the answer, once

    def test_over_http(self, reference_evaluate):
        """The same rows through ``/sparql``: an empty cell is a binding
        the results document leaves out."""
        store = TripleStore(crafted_triples())
        with SparqlHttpServer(SparqlEndpoint(store, EndpointConfig.warehouse())) as server:
            client = HttpSparqlEndpoint(server.url, timeout_s=10.0)
            for text in PROJECTION_QUERIES.values():
                served = client.select(text)
                expected = reference_evaluate(store, text)
                assert served.variables == expected.variables
                assert multiset(served) == multiset(expected), text


class TestPlannerIsTotal:
    """What the planner used to decline plans, and equals the reference."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    @pytest.mark.parametrize("name", FORMERLY_DECLINED)
    def test_plans_and_matches_reference(
        self, ops_store, name, batch_size, reference_evaluate, maybe_tracer
    ):
        text, operator = FORMERLY_DECLINED[name]
        plan = QueryPlanner(ops_store).plan(parse_query(text).where)
        assert isinstance(plan, PlanNode)
        assert any(is_a(node, operator) for node in walk(plan)), explain_plan(plan)
        check(ops_store, text, reference_evaluate, maybe_tracer, batch_size=batch_size)

    def test_each_shape_gets_the_operator_that_is_sound_for_it(self, ops_store):
        def nodes(name, operator):
            plan = QueryPlanner(ops_store).plan(parse_query(FORMERLY_DECLINED[name][0]).where)
            return [node for node in walk(plan) if is_a(node, operator)]

        assert [node.label() for node in nodes("unit group", ValuesScanNode)] == ["Unit()"]
        assert not nodes("concrete pattern that holds", ScanNode)[0].variables
        assert [node.keys for node in nodes("cartesian pair", HashJoinNode)] == [()]
        stars = nodes("three stars that meet only in constants", HashJoinNode)
        assert sorted(node.keys for node in stars) == [(), (), ("a",), ("b",)]
        (compat,) = nodes("UNDEF join key", CompatJoinNode)
        assert compat.shared == ("i", "l")
        (outer,) = nodes("condition on a maybe-unbound join key", LeftJoinNode)
        assert outer.shared == ("c",) and len(outer.condition) == 1

    def test_local_ids_never_reach_the_store_dictionary(self, ops_store):
        """Distinct unknown terms stay distinct, equal ones share an ID
        below ``UNBOUND``, the store dictionary does not grow, and only
        a plan that has local terms pays for the general decoder."""
        text = FORMERLY_DECLINED["repeated unknown VALUES term"][0]
        before = len(ops_store.dictionary)
        planner = QueryPlanner(ops_store)
        plan = planner.plan(parse_query(text).where)
        assert [term.lexical for term in planner.local_terms] == ["nope", "nada", "1", "nix", "2"]
        tables = {
            len(node.variables): node.id_rows
            for node in walk(plan) if isinstance(node, ValuesScanNode)
        }
        assert tables == {1: [(-2,), (-3,), (-2,)], 2: [(-2, -4), (-5, -6), (-3, -2)]}
        assert all(node.local_terms is planner.local_terms for node in walk(plan))
        assert plan.decoder(ops_store)(-3) == Literal("nada")
        result = QueryEvaluator(ops_store).evaluate(parse_query(text))
        assert multiset(result) == sorted([
            (("v", '"nada"'), ("w", '"nope"')),
            (("v", '"nope"'), ("w", integer(1).n3())),
            (("v", '"nope"'), ("w", integer(1).n3())),
        ])
        assert len(ops_store.dictionary) == before
        known = QueryPlanner(ops_store).plan(parse_query(OPTIONAL_QUERIES["single pattern"]).where)
        terms = ops_store.dictionary.terms
        assert known.decoder(ops_store) == terms.__getitem__ and not known.local_terms

    def test_query_evaluator_has_no_term_space_solver(
        self, data_store, analytic_queries, gold_queries, reference_evaluate
    ):
        """The engine has one way to solve a group — the other one is
        ``tests/reference_solver.py`` — and the eight analytic templates
        and the 52 gold queries still get the reference's answers."""
        import repro.sparql.evaluator as evaluator_module

        for owner in (QueryEvaluator, evaluator_module):
            assert not [
                name for name in vars(owner)
                if "term_space" in name or "backtrack" in name or "solve" in name
                or name in ("_join_values", "_apply_optionals", "_order_patterns", "_PLAN_UNSET")
            ]
        evaluator = QueryEvaluator(data_store)
        for text in analytic_queries + gold_queries:
            result = evaluator.evaluate(parse_query(text))
            if "LIMIT" not in text:
                assert multiset(result) == multiset(reference_evaluate(data_store, text)), text


def is_a(node, operator):
    """``isinstance``, but the outer compatibility join is not the inner."""
    return isinstance(node, operator) and (operator is not CompatJoinNode or not node.outer)


def per_solution_reference(store, query, meter):
    """The parent's evaluation of OPTIONAL: the planned base, each base
    solution extended through the reference solver's
    ``apply_optionals`` (with that solution as initial bindings)."""
    base = dataclasses.replace(query.where, optionals=[])
    plan = QueryPlanner(store).plan(base, meter.budget)
    solutions = []
    for row in plan_rows(plan, store, meter):
        solution = {
            name: store.decode_id(cell) for name, cell in zip(plan.variables, row)
            if cell != UNBOUND
        }
        solutions += apply_optionals(store, query.where.optionals, solution, meter)
    return reference_finalize(query, solutions)


@pytest.mark.parametrize("budget", [40, 150, 400, 2000, None])
def test_a_budget_that_fit_the_fallback_fits_the_plan(
    data_store, budget, analytic_queries, gold_queries
):
    """Nothing that fit its budget stops fitting: whatever budget the
    per-solution reference completes under, the planned query (the same
    join selection, so bind joins or the per-solution operator — the
    reference's own probe sequence — where a hash join's scan would not
    fit) completes under too, with the same answer; without an outer
    hash join in it, the plan costs what the reference cost."""
    optional_queries = [
        "SELECT ?s ?w WHERE { ?s a dbo:Person OPTIONAL { ?s dbo:spouse ?w } }",
        "SELECT ?s ?w ?n WHERE { ?s dbo:birthPlace dbr:New_York_City "
        "OPTIONAL { ?s dbo:spouse ?w . ?w foaf:name ?n } }",
        'SELECT ?s ?u WHERE { ?s foaf:name "Tom Hanks"@en OPTIONAL { ?s dbo:almaMater ?u } }',
    ]
    fitted = 0
    for text in analytic_queries + gold_queries + optional_queries:
        query = parse_query(text)
        if not query.where.optionals:
            continue  # one engine: nothing else ever reached the fallback
        needed = CostMeter(budget)
        try:
            expected = per_solution_reference(data_store, query, needed)
        except QueryAborted:
            continue
        fitted += 1
        meter = CostMeter(budget)
        try:
            result = QueryEvaluator(data_store).evaluate(query, meter)
        except QueryAborted:
            pytest.fail(f"fits {budget} per solution ({needed.cost}), not planned: {text}")
        assert multiset(result) == multiset(expected)
        plan = QueryPlanner(data_store).plan(query.where, budget)
        if not any(isinstance(node, HashJoinNode) and node.outer for node in walk(plan)):
            assert meter.cost == needed.cost, text
    assert fitted


# ----------------------------------------------------------------------
# The one tail: GROUP BY / aggregates / ORDER BY over columns
# ----------------------------------------------------------------------

THINGS = f"?i a <{EX}Thing> OPTIONAL {{ ?i <{EX}score> ?v }} OPTIONAL {{ ?i <{EX}in> ?c }}"

TAIL_QUERIES = [
    # COUNT(*) / COUNT(?v) / COUNT(DISTINCT) with an unbound group key
    f"SELECT ?c (COUNT(*) AS ?n) WHERE {{ {THINGS} }} GROUP BY ?c",
    f"SELECT ?c (COUNT(?v) AS ?n) WHERE {{ {THINGS} }} GROUP BY ?c ORDER BY ?c",
    f"SELECT ?c (COUNT(DISTINCT ?v) AS ?n) (COUNT(DISTINCT ?c) AS ?m) (COUNT(DISTINCT *) AS ?k) "
    f"WHERE {{ {THINGS} }} GROUP BY ?c",
    # numeric aggregates over mixed and non-numeric cells
    f"SELECT ?c (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
    f"WHERE {{ {THINGS} }} GROUP BY ?c ORDER BY DESC(?s) ?c",
    f"SELECT (SUM(DISTINCT ?v) AS ?s) (AVG(?l) AS ?a) WHERE {{ ?i <{EX}score> ?v . "
    f"?i <{EX}label> ?l }}",
    # the empty implicit group still yields its one row
    f"SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?s) (MAX(?v) AS ?m) WHERE {{ ?i <{EX}nothing> ?v }}",
    f"SELECT ?i (COUNT(*) AS ?n) WHERE {{ ?i <{EX}nothing> ?v }} GROUP BY ?i",
    # ties at a LIMIT boundary under ORDER BY DESC; OFFSET; an unprojected sort key
    f"SELECT ?c (COUNT(?i) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c ORDER BY DESC(?n) LIMIT 2",
    f"SELECT ?c (COUNT(?i) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c "
    f"ORDER BY DESC(?n) LIMIT 1 OFFSET 1",
    f"SELECT ?i WHERE {{ {THINGS} }} ORDER BY DESC(?c) ?v LIMIT 5",
    f"SELECT ?l ?i WHERE {{ ?i <{EX}label> ?l }} ORDER BY ?l DESC(?i)",
    f"SELECT DISTINCT ?l WHERE {{ ?i <{EX}label> ?l }} ORDER BY DESC(?l) LIMIT 3",
    # mixed term kinds and unbound cells in one sort column
    f"SELECT ?i ?v WHERE {{ {THINGS} }} ORDER BY ?v ?i",
    f"SELECT ?i ?v WHERE {{ {THINGS} }} ORDER BY DESC(?v) DESC(?i)",
    # a plain item beside the implicit group (its first member's), an
    # expression over a key, an aliased key, and no aggregate at all
    f"SELECT ?i ?zz (COUNT(*) AS ?n) WHERE {{ ?i <{EX}in> ?c }}",
    f"SELECT (STR(?c) AS ?k) (COUNT(*) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c",
    f"SELECT (?c AS ?k) (COUNT(*) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c ORDER BY ?k",
    f"SELECT ?c WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c ORDER BY DESC(?c)",
    # a grouped variable the aggregate row does not project
    f"SELECT (COUNT(?i) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c ORDER BY ?n ?c",
    # expressions: the tail decodes up front and evaluates per row
    f"SELECT ?c (SUM(?v + 1) AS ?s) WHERE {{ {THINGS} }} GROUP BY ?c ORDER BY ?c",
    f"SELECT ?i (?v * 2 AS ?w) WHERE {{ {THINGS} }} ORDER BY DESC(STR(?i))",
    f"SELECT ?l WHERE {{ ?i <{EX}label> ?l }} ORDER BY ASC(STRLEN(?l)) ?l",
    # two group keys
    f"SELECT ?c ?l (COUNT(*) AS ?n) WHERE {{ ?i <{EX}in> ?c . ?i <{EX}label> ?l }} "
    f"GROUP BY ?c ?l ORDER BY DESC(?n) ?c ?l",
    # a count and a sum per group, ordered by the count
    f"SELECT ?c (COUNT(?i) AS ?n) (SUM(?v) AS ?s) WHERE {{ {THINGS} }} "
    f"GROUP BY ?c ORDER BY DESC(?n) ?c",
]


def id_columns(store, solutions):
    names = list(dict.fromkeys(name for solution in solutions for name in solution))
    columns = {
        name: array(
            "q",
            [store.term_id(s[name]) if name in s else UNBOUND for s in solutions],
        )
        for name in names
    }
    return columns, any(len(s) != len(names) for s in solutions)


class TestColumnarTail:
    @pytest.mark.parametrize("text", TAIL_QUERIES)
    def test_rows_and_order_in_both_cell_spaces(self, ops_store, text, reference_solutions):
        """On the same solutions, in the same order, the tail over term
        columns and over ID columns returns ``reference_finalize``'s
        rows in its order — ties included, so LIMIT cuts the same rows."""
        query = parse_query(text)
        solutions = reference_solutions(ops_store, query)
        expected = reference_finalize(query, solutions)
        over_terms = finalize_solutions(query, solutions)
        assert over_terms.variables == expected.variables
        assert over_terms.rows == expected.rows
        columns, has_unbound = id_columns(ops_store, solutions)
        for hint in {has_unbound, True}:
            over_ids = finish_columns(
                query, columns, len(solutions), ops_store.decode_id, hint
            )
            assert over_ids.rows == expected.rows

    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    @pytest.mark.parametrize("text", TAIL_QUERIES)
    def test_engine_matches_reference(
        self, ops_store, text, batch_size, reference_evaluate, maybe_tracer
    ):
        check(ops_store, text, reference_evaluate, maybe_tracer, batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_total_orders_match_the_reference_exactly(
        self, data_store, batch_size, reference_evaluate, maybe_tracer
    ):
        for text in (
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s rdf:type dbo:Person . "
            "?s dbo:birthPlace ?c } GROUP BY ?c ORDER BY DESC(?n) ?c LIMIT 7",
            "SELECT ?n ?d WHERE { ?s foaf:name ?n . ?s dbo:birthDate ?d } "
            "ORDER BY DESC(?d) ?n LIMIT 20 OFFSET 5",
            "SELECT DISTINCT ?g WHERE { ?s foaf:givenName ?g } ORDER BY ?g",
        ):
            check(
                data_store, text, reference_evaluate, maybe_tracer, ordered=True,
                batch_size=batch_size,
            )

    def test_sum_adds_in_arrival_order_on_every_interpreter(self):
        """SUM is ``0 + v1 + v2 + ...`` and AVG that sum over the count,
        in both cell spaces: ten ``0.1`` doubles add up to
        0.9999999999999999 (Python 3.12's compensated ``sum()`` says 1)."""
        tenth = Literal("0.1", datatype=XSD_DOUBLE)
        query = parse_query("SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { ?i <http://ex/w> ?v }")
        expected = [{
            "s": Literal("0.9999999999999999", datatype=XSD_DOUBLE),
            "a": Literal("0.09999999999999999", datatype=XSD_DOUBLE),
        }]
        solutions = [{"i": ex(f"i{i}"), "v": tenth} for i in range(10)]
        assert finalize_solutions(query, solutions).rows == expected
        store = TripleStore([Triple(ex(f"i{i}"), ex("w"), tenth) for i in range(10)])
        assert QueryEvaluator(store, batch_size=3).evaluate(query).rows == expected

    @pytest.mark.parametrize("text, chunk_size", [
        (
            f"SELECT ?c (COUNT(?i) AS ?n) (SUM(?v) AS ?s) WHERE {{ ?i <{EX}in> ?c . "
            f"?i <{EX}score> ?v }} GROUP BY ?c ORDER BY DESC(?n) LIMIT 1",
            None,
        ),
        # the page is re-sorted as the chunks arrive
        (f"SELECT ?i WHERE {{ ?i <{EX}score> ?v }} ORDER BY ?v LIMIT 2", 3),
    ])
    def test_each_cell_is_decoded_at_most_once(
        self, ops_store, reference_solutions, text, chunk_size
    ):
        """Counting and grouping never decode; a numeric aggregate and a
        sort key decode a distinct cell once, however often it is
        sorted; rows that LIMIT cuts are not decoded at all."""
        query = parse_query(text)
        solutions = reference_solutions(ops_store, query)
        columns, has_unbound = id_columns(ops_store, solutions)
        decoded = []

        def decode(cell):
            decoded.append(cell)
            return ops_store.decode_id(cell)

        size = chunk_size or len(solutions)
        chunks = [
            (
                {name: cells[start : start + size] for name, cells in columns.items()},
                len(solutions[start : start + size]),
                has_unbound,
            )
            for start in range(0, len(solutions), size)
        ]
        result = finish(query, chunks, decode)
        assert len(decoded) == len(set(decoded))
        shown = {ops_store.term_id(row["i"]) for row in result.rows if "i" in row}
        assert set(decoded) & set(columns["i"]) == shown

    @pytest.mark.parametrize("page", ["LIMIT 1", "LIMIT 1 OFFSET 1", "OFFSET 2"])
    def test_group_keys_are_decoded_only_on_the_page(self, ops_store, reference_solutions, page):
        """A grouped query keeps its keys as IDs until OFFSET / LIMIT cut
        the page: ordered on an aggregate, the keys of the groups the
        page drops are never decoded."""
        query = parse_query(
            f"SELECT ?c (COUNT(?i) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c ORDER BY DESC(?n) {page}")
        solutions = reference_solutions(ops_store, query)
        columns, has_unbound = id_columns(ops_store, solutions)
        decoded = []

        def decode(cell):
            decoded.append(cell)
            return ops_store.decode_id(cell)

        result = finish(query, [(columns, len(solutions), has_unbound)], decode)
        assert result.rows == finalize_solutions(query, solutions).rows
        assert len(set(columns["c"])) == 3 and len(result.rows) == 1
        assert decoded == [ops_store.term_id(result.rows[0]["c"])]

    def test_traced_tail_records_its_span(self, ops_store):
        text = f"SELECT ?c (COUNT(?i) AS ?n) WHERE {{ ?i <{EX}in> ?c }} GROUP BY ?c ORDER BY ?c"
        evaluator = QueryEvaluator(ops_store)
        assert "Group(by ?c) -> Order[1]  [columns]" in evaluator.explain(text)
        _, trace = evaluator.analyze(text)
        span = next(s for s in trace.walk() if s.name == "Group(by ?c) -> Order[1]")
        assert span.attrs == {"rows_in": 6, "rows": 3}

    def test_traced_tail_is_the_parent_of_the_plan(self, ops_store):
        """The tail pulls the plan's batches as it folds them, so its span
        holds the plan's root span, as EXPLAIN draws the tail above it."""
        text = f"SELECT (COUNT(*) AS ?n) WHERE {{ ?i <{EX}in> ?c }}"
        _, trace = QueryEvaluator(ops_store).analyze(text)
        span = next(s for s in trace.walk() if s.name == "Group(by -)")
        assert [child.attrs["rows"] for child in span.children] == [6]


# ----------------------------------------------------------------------
# The two kernels
# ----------------------------------------------------------------------

PAIRS = (
    f"SELECT ?a ?b ?x WHERE {{ ?a <{EX}p> ?b . ?a <{EX}t> ?x . "
    f"{{ ?a <{EX}q> ?b }} UNION {{ ?a <{EX}r> ?b }} }}"
)

FILTER_QUERIES = [
    f'SELECT ?i ?l WHERE {{ ?i <{EX}label> ?l FILTER (regex(?l, "^a")) }}',
    # the comparison errors on the plain string and on the IRI: rows dropped
    f"SELECT ?i ?v WHERE {{ ?i <{EX}score> ?v FILTER (?v > 5) }}",
    # an unbound cell in the filtered column (the filter sits on the left join)
    f"SELECT ?i ?l WHERE {{ {{ ?i <{EX}in> <{EX}c2> OPTIONAL {{ ?i <{EX}label> ?l }} }} "
    f"UNION {{ ?i <{EX}in> <{EX}c0> OPTIONAL {{ ?i <{EX}nothing> ?l }} }} "
    f"FILTER (!BOUND(?l) || ?l = \"10\") }}",
    # a variable the input never binds; two variables; two filters
    f"SELECT ?i WHERE {{ ?i <{EX}label> ?l FILTER (!BOUND(?zz)) }}",
    f"SELECT ?i WHERE {{ ?i <{EX}label> ?l . ?i <{EX}score> ?v FILTER (STR(?v) = ?l) }}",
    f'SELECT ?i WHERE {{ ?i <{EX}label> ?l . ?i <{EX}score> ?v FILTER (?v < 15) '
    f'FILTER (regex(?l, "a")) }}',
]


def _raising(*_args, **_kwargs):
    raise AssertionError("a row-at-a-time loop ran on a column kernel's path")


class TestKernels:
    def test_multi_key_join_with_duplicates_on_both_sides(
        self, ops_store, reference_evaluate, maybe_tracer
    ):
        plan = QueryPlanner(ops_store).plan(parse_query(PAIRS).where)
        assert any(
            isinstance(node, HashJoinNode) and len(node.keys) == 2 for node in walk(plan)
        )
        result = check(ops_store, PAIRS, reference_evaluate, maybe_tracer)
        assert len(result.rows) > len({tuple(sorted(row.items())) for row in result.rows})

    @pytest.mark.parametrize("outer", [False, True])
    def test_multi_key_paths_stay_on_columns(self, ops_store, outer, monkeypatch):
        """Semi-join (no residual), general join (a residual) and outer
        join over two key columns, built by hand so the path under test
        is certain — with ``Batch``'s row iterator forbidden."""
        a, b, x = Variable("a"), Variable("b"), Variable("x")
        left = HashJoinNode(
            ScanNode(ops_store, TriplePattern(a, ex("p"), b), 5),
            ScanNode(ops_store, TriplePattern(a, ex("t"), x), 6),
            ("a",), 8,
        )
        pairs = UnionNode([
            ScanNode(ops_store, TriplePattern(a, ex("q"), b), 4),
            ScanNode(ops_store, TriplePattern(a, ex("r"), b), 3),
        ])
        semi = HashJoinNode(left, pairs, ("a", "b"), 8, outer=outer)
        general = HashJoinNode(
            ScanNode(ops_store, TriplePattern(a, ex("p"), b), 5), left, ("a", "b"), 8,
            outer=outer,
        )
        monkeypatch.setattr(Batch, "iter_raw", _raising)
        semi_rows = sum(batch.length for batch in semi.batches(ops_store, None, 2))
        general_rows = sum(batch.length for batch in general.batches(ops_store, None, 2))
        # (a0,b0) matches q and r, (a1,b0) q, (a2,b2) both; (a0,b1) and
        # (a3,b1) match nothing and come back once each when outer.
        assert semi_rows == (2 * 2 + 1 * 1 + 3 * 2) + (2 + 0 if outer else 0)
        assert general_rows == 2 + 2 + 1 + 3 + (1 if outer else 0)

    @pytest.mark.parametrize("text", FILTER_QUERIES)
    def test_filters_match_reference(self, ops_store, text, reference_evaluate, maybe_tracer):
        check(ops_store, text, reference_evaluate, maybe_tracer)
        check(ops_store, text, reference_evaluate, batch_size=2)

    def test_one_slot_filter_evaluates_once_per_distinct_value(self, ops_store, monkeypatch):
        """70 surnames over 4,490 rows cost 70 evaluations in the spine;
        here: three labels start with "a", two of them equal."""
        import repro.sparql.plan as plan_module

        calls = []
        real = plan_module.compile_filter

        def counting(expr):
            kernel = real(expr)
            return lambda binding: calls.append(binding) or kernel(binding)

        monkeypatch.setattr(plan_module, "compile_filter", counting)
        monkeypatch.setattr(Batch, "iter_raw", _raising)
        plan = QueryPlanner(ops_store).plan(parse_query(FILTER_QUERIES[0]).where)
        assert sum(batch.length for batch in plan.batches(ops_store, None, 4)) == 3
        assert len(calls) == 5  # six labelled items, five distinct labels


# ----------------------------------------------------------------------
# Property: small graphs, queries from the four families
# ----------------------------------------------------------------------

_NODES = [ex(f"n{i}") for i in range(4)]
_VALUES = _NODES + [integer(i) for i in range(3)] + [Literal("x")]
_PREDICATES = [ex(f"k{i}") for i in range(3)]

_graphs = st.lists(
    st.tuples(st.sampled_from(_NODES), st.sampled_from(_PREDICATES), st.sampled_from(_VALUES)),
    min_size=1, max_size=14, unique=True,
).map(lambda rows: [Triple(*row) for row in rows])

_k = st.sampled_from([predicate.n3() for predicate in _PREDICATES])


@st.composite
def _queries(draw):
    k1, k2, k3 = draw(_k), draw(_k), draw(_k)
    family = draw(st.sampled_from(["optional", "aggregate", "cyclic", "filter"]))
    if family == "optional":
        condition = draw(st.sampled_from(["", "FILTER (?c != ?b)", "FILTER (?c > 0)"]))
        second = draw(st.sampled_from(["", f"OPTIONAL {{ ?c {k3} ?d }}", f"OPTIONAL {{ ?a {k3} ?d }}"]))
        return f"SELECT * WHERE {{ ?a {k1} ?b OPTIONAL {{ ?a {k2} ?c {condition} }} {second} }}", False
    if family == "aggregate":
        aggregate = draw(st.sampled_from(
            ["COUNT(*)", "COUNT(?c)", "COUNT(DISTINCT ?c)", "SUM(?c)", "AVG(?c)", "MIN(?c)", "MAX(?c)"]
        ))
        direction = draw(st.sampled_from(["?n", "DESC(?n)"]))
        limit = draw(st.sampled_from(["", "LIMIT 2"]))
        # ?b breaks every tie, so the order is total and the lists compare.
        return (
            f"SELECT ?b ({aggregate} AS ?n) WHERE {{ ?a {k1} ?b OPTIONAL {{ ?a {k2} ?c }} }} "
            f"GROUP BY ?b ORDER BY {direction} ?b {limit}", True,
        )
    if family == "cyclic":
        return f"SELECT * WHERE {{ ?a {k1} ?b . ?a {k2} ?c . ?b {k3} ?c }}", False
    test = draw(st.sampled_from(['regex(STR(?b), "1")', "?b > 0", "ISIRI(?b)", "?b = ?a"]))
    return f"SELECT * WHERE {{ ?a {k1} ?b FILTER ({test}) }}", False


@given(_graphs, _queries())
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_on_drawn_graphs(reference_evaluate, triples, drawn):
    text, ordered = drawn
    check(TripleStore(triples), text, reference_evaluate, ordered=ordered, batch_size=3)


# ----------------------------------------------------------------------
# Property: the seven formerly declined shapes, local and split-federated
# ----------------------------------------------------------------------

_node = st.sampled_from([node.n3() for node in _NODES])
_value = st.sampled_from([value.n3() for value in _VALUES])
_unknown = st.sampled_from(['"zz"', f"<{EX}zz>", '"yy"', "99"])


@st.composite
def _formerly_declined(draw):
    """``(group text, budget)``: one of the seven shapes the planner
    used to decline, with drawn predicates and constants."""
    k1, k2, k3 = draw(_k), draw(_k), draw(_k)
    node, value, unknown = draw(_node), draw(_value), draw(_unknown)
    family = draw(st.sampled_from(
        ["unit", "concrete", "cartesian", "maybe-unbound key", "unknown values",
         "correlated", "budget"]
    ))
    budget = None
    if family == "unit":
        group = draw(st.sampled_from([
            "", "FILTER (1 < 2)", f"OPTIONAL {{ ?a {k1} ?b }}", f"MINUS {{ ?a {k1} ?b }}",
            f"{{ }} UNION {{ ?a {k1} ?b }}", "VALUES ?a { }",
        ]))
    elif family == "concrete":
        group = draw(st.sampled_from([
            f"{node} {k1} {value}", f"{node} {k1} {value} . ?a {k2} ?b",
            f"{node} {k1} {unknown} . ?a {k2} ?b", f"?a {k2} ?b OPTIONAL {{ {node} {k1} {value} }}",
            f"?a {k2} ?b MINUS {{ {node} {k1} {value} . ?a {k3} ?c }}",
        ]))
    elif family == "cartesian":
        group = f"?a {k1} ?b . ?c {k2} ?d " + draw(st.sampled_from(
            ["", f". ?c {k3} ?e", "FILTER (?b = ?d)", f". {node} {k3} ?e"]
        ))
    elif family == "maybe-unbound key":
        group = draw(st.sampled_from([
            f"?a {k1} ?b VALUES (?a ?b) {{ ({node} UNDEF) (UNDEF {value}) }}",
            f"VALUES (?a ?b) {{ ({node} UNDEF) (UNDEF {value}) }} "
            f"{{ ?a {k1} ?b }} UNION {{ ?a {k2} ?c }}",
            f"{{ ?a {k1} ?b }} UNION {{ ?c {k2} ?b }} ?a {k3} ?d",
            f"{{ ?a {k1} ?b }} UNION {{ ?a {k2} ?c }} {{ ?b {k3} ?d }} UNION {{ ?c {k3} ?d }} "
            f"FILTER (!BOUND(?b) || ?b != {value})",
        ]))
    elif family == "unknown values":
        group = draw(st.sampled_from([
            f"?a {k1} ?b VALUES ?b {{ {unknown} {value} \"zz\" }}",
            f"VALUES ?a {{ {unknown} {node} }} OPTIONAL {{ ?a {k1} ?b }}",
            f"VALUES ?b {{ \"zz\" {unknown} \"zz\" }} "
            f"VALUES (?b ?c) {{ (\"zz\" 1) ({unknown} \"zz\") (\"yy\" {value}) }} "
            f"FILTER (?c != \"zz\")",
            f"{{ VALUES ?b {{ {unknown} }} }} UNION {{ ?a {k1} ?b }} MINUS {{ VALUES ?b {{ \"zz\" }} }}",
        ]))
    elif family == "correlated":
        group = f"?a {k1} ?b " + draw(st.sampled_from([
            f"OPTIONAL {{ {{ ?a {k2} ?c FILTER (?b = {value}) }} UNION {{ ?a {k3} ?c }} }}",
            f"OPTIONAL {{ ?a {k2} ?c OPTIONAL {{ ?c {k3} ?b }} }}",
            f"OPTIONAL {{ ?a {k2} ?c {{ ?c {k3} ?d FILTER (?d != ?b) }} UNION {{ ?b {k3} ?d }} }}",
        ]))
    else:
        budget = draw(st.sampled_from([10, 40, None]))
        group = f"?a {k1} ?b " + draw(st.sampled_from([
            f"OPTIONAL {{ ?a {k2} ?c }}", f"OPTIONAL {{ ?a {k2} ?c . ?c {k3} ?d }}",
            f"OPTIONAL {{ ?a {k2} ?c . ?c {k3} ?d FILTER (?d != ?b) }}",
            f"OPTIONAL {{ ?a {k2} ?c }} OPTIONAL {{ ?c {k3} ?d . ?d {k1} ?e }}",
        ]))
    return f"SELECT * WHERE {{ {group} }}", budget


@given(_graphs, _formerly_declined())
@settings(max_examples=250, deadline=None)
def test_formerly_declined_shapes_on_drawn_graphs(reference_evaluate, triples, drawn):
    """Every drawn group has a plan, and the plan's rows, the engine's
    answer and a two-member split federation's are the reference's."""
    text, budget = drawn
    store = TripleStore(triples)
    query = parse_query(text)
    expected = multiset(reference_evaluate(store, query))
    plan = QueryPlanner(store).plan(query.where, budget)
    assert isinstance(plan, PlanNode)
    decode = plan.decoder(store)
    rows = sorted(
        tuple(sorted((name, decode(cell).n3()) for name, cell in zip(plan.variables, row)
                     if cell != UNBOUND))
        for row in plan_rows(plan, store)
    )
    assert rows == expected, explain_plan(plan)
    check(store, text, reference_evaluate, batch_size=2)
    members = [
        SparqlEndpoint(TripleStore(part), EndpointConfig.warehouse(), name=name)
        for part, name in ((triples[::2], "even"), (triples[1::2], "odd"))
    ]
    assert multiset(FederatedQueryProcessor(members).run(query)) == expected


# ----------------------------------------------------------------------
# DISTINCT keeps each key's first row as the rows arrive
# ----------------------------------------------------------------------

#: DISTINCT without LIMIT, and with ORDER BY on projected variables
#: only: the tail keeps each projected key's first row as chunks arrive.
#: ORDER BY on an unprojected variable still keeps its rows.
DISTINCT_QUERIES = [
    ("SELECT DISTINCT ?p WHERE { ?s ?p ?o }", False),
    ("SELECT DISTINCT ?p ?c WHERE { ?s ?p ?o . ?s a ?c }", False),
    ("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p", True),
    ("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY DESC(?p) LIMIT 4 OFFSET 2", True),
    ("SELECT DISTINCT * WHERE { ?s a ?c } ORDER BY ?c ?s LIMIT 7", True),
    ("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?o", False),
    ("SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 3", False),
]


@pytest.mark.parametrize("query, ordered", DISTINCT_QUERIES)
@pytest.mark.parametrize("batch_size", [3, 1024])
def test_distinct_keeps_first_rows_like_the_reference(
    tiny_dataset, reference_evaluate, query, ordered, batch_size
):
    result = check(tiny_dataset.store, query, reference_evaluate, ordered=ordered,
                   batch_size=batch_size)
    assert result.rows


#: A runaway product under DISTINCT: the two-pattern one, the
#: three-pattern one, and the same under ORDER BY a projected key.
DISTINCT_RUNAWAY = [
    "SELECT DISTINCT ?b WHERE { ?a ?b ?c . ?d ?e ?f }",
    "SELECT DISTINCT ?b ?e WHERE { ?a ?b ?c . ?d ?e ?f . ?g foaf:name ?h }",
    "SELECT DISTINCT ?b WHERE { ?a ?b ?c . ?d ?e ?f . ?g foaf:name ?h } ORDER BY ?b LIMIT 5",
]


@pytest.mark.parametrize("query", DISTINCT_RUNAWAY)
def test_a_runaway_distinct_holds_its_keys_not_its_rows(tiny_dataset, query):
    """Keeping every row until the plan drained, these timed out at 9.8
    and 12.7 MB traced; keeping each key's first row, at ~1 MB."""
    from test_join_chunks import _traced_peak_of_a_timeout

    endpoint = SparqlEndpoint(tiny_dataset.store, EndpointConfig(timeout_s=10.0))
    assert _traced_peak_of_a_timeout(endpoint, query) <= 3 * 2**20
