"""A bind join whose fresh variables only a COUNT reads is counted.

``CountJoinNode`` replaces such a join (:func:`repro.sparql.tail.counted`
decides, :func:`repro.sparql.plan.count_joins` places it): one
``count_ids`` per left row, the count carried as the row's
multiplicity.  Its answer must be the enumeration's — rows, row order
and ``cost`` — on every store, under every tail that reads a count; a
budget must stop both or neither.  Shapes outside the rule keep their
``BindJoin`` in EXPLAIN.  (The grammar has no HAVING, so a count's
filter on its group is not a case.)
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.federation import FederatedQueryProcessor
from repro.sparql import evaluator as evaluator_module
from repro.sparql import parse_query
from repro.sparql.evaluator import QueryEvaluator
from repro.store import SQLiteBackend, TripleStore, create_sharded_backend
from repro.store.triplestore import CostMeter, QueryAborted

PERSON = "?s a dbo:Person . ?x ?p ?s"
#: The counted join under a hash join, as the root, under a bind join
#: (Q8's three plans), and above two hash joins.
WHERES = {
    "hash": f"WHERE {{ {PERSON} . ?s foaf:name ?o }}",
    "root": f"WHERE {{ {PERSON} }}",
    "bind": "WHERE { ?s a dbo:Currency . ?x ?p ?s . ?s rdfs:label ?o }",
    "over_hash": f"WHERE {{ {PERSON} . ?s dbo:birthPlace ?o . ?o dbo:country ?k }}",
}
#: COUNT(*), COUNT(?own) and COUNT(DISTINCT ?shared), each as the
#: implicit group, per ``?o`` group, and per group ordered and paged.
COUNTS = ["(COUNT(*) AS ?n)", "(COUNT(?x) AS ?n)", "(COUNT(DISTINCT ?s) AS ?n)"]
TAILS = [
    ("", ""),
    ("?o", "GROUP BY ?o"),
    ("?o", "GROUP BY ?o ORDER BY DESC(?n) LIMIT 5 OFFSET 2"),
    ("?o", "GROUP BY ?o ORDER BY ?n LIMIT 3"),
]
QUERIES = [
    f"SELECT {keys} {count} {where} {tail}"
    for name, where in WHERES.items()
    for count in COUNTS
    for keys, tail in TAILS
    if keys == "" or name != "root"
]


@pytest.fixture(scope="module")
def stores(tiny_dataset):
    triples = list(tiny_dataset.store.triples())
    sqlite = TripleStore(backend=SQLiteBackend(":memory:"))
    sqlite.add_all(triples)
    sharded = TripleStore(backend=create_sharded_backend(3, "memory"))
    sharded.add_all(triples)
    yield {"memory": tiny_dataset.store, "sqlite": sqlite, "sharded": sharded}
    sqlite.close()
    sharded.close()


def _enumerated(monkeypatch):
    monkeypatch.setattr(evaluator_module, "counted", lambda query, plan: (query, plan))


def _answer(store, query, budget=None):
    result = QueryEvaluator(store).evaluate(parse_query(query), CostMeter(budget))
    return result.variables, result.rows, result.cost


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sharded"])
@pytest.mark.parametrize("query", QUERIES)
def test_counting_equals_enumeration(stores, backend, query, monkeypatch):
    store = stores[backend]
    assert "CountJoin(" in QueryEvaluator(store).explain(query)
    counted = _answer(store, query)
    assert counted[1], "the case must have rows"
    _enumerated(monkeypatch)
    assert "CountJoin" not in QueryEvaluator(store).explain(query)
    assert _answer(store, query) == counted


@pytest.mark.parametrize("query", QUERIES[::3])
def test_a_budget_stops_both_or_neither(stores, query, monkeypatch):
    """Under a budget — which the planner also plans for — counting and
    enumerating abort together, or answer alike."""
    store = stores["memory"]
    cost = _answer(store, query)[2]
    budgets = [cost // 4, cost // 2, cost - 1, cost, 2 * cost]

    def outcomes():
        for budget in budgets:
            try:
                yield _answer(store, query, budget)
            except QueryAborted:
                yield "aborted"

    counted = list(outcomes())
    _enumerated(monkeypatch)
    assert list(outcomes()) == counted
    assert "aborted" in counted


@pytest.mark.parametrize("query", [q for q in QUERIES if "LIMIT" not in q])
def test_the_split_federation_answers_alike(tiny_dataset, query):
    """The split federation plans remote operators, which carry no
    multiplicity; its answer is the counted local one (as a bag: its
    groups arrive in another order)."""
    triples = list(tiny_dataset.store.triples())
    members = [
        SparqlEndpoint(TripleStore(part), EndpointConfig.warehouse(), name=name)
        for part, name in ((triples[::2], "even"), (triples[1::2], "odd"))
    ]
    federated = FederatedQueryProcessor(members).run(query)
    local = QueryEvaluator(tiny_dataset.store).evaluate(parse_query(query))
    assert Counter(map(repr, federated.rows)) == Counter(map(repr, local.rows))


def test_a_probe_on_a_local_id_counts_nothing(store, monkeypatch):
    """A VALUES term the store never interned (a query-local ID) matches
    nothing: counted 0 and charged nothing, as the bind join's probe is."""
    query = ("SELECT ?s (COUNT(*) AS ?n) WHERE { VALUES ?s { dbr:Rita_Wilson <http://example.org/never> } "
             "?x ?p ?s } GROUP BY ?s")
    assert "CountJoin(?x ?p ?s)" in QueryEvaluator(store).explain(query)
    counted = _answer(store, query)
    assert len(counted[1]) == 1 and int(counted[1][0]["n"].lexical) > 0
    _enumerated(monkeypatch)
    assert _answer(store, query) == counted


#: Shapes the rule refuses: an own variable in a FILTER, in the
#: projection and GROUP BY, in ORDER BY, under COUNT(DISTINCT …); a
#: repeated variable; a SUM beside the COUNT; a UNION or an OPTIONAL
#: above the join; the join itself OPTIONAL; a plain SELECT.
REFUSED = [
    f"SELECT (COUNT(*) AS ?n) WHERE {{ {PERSON} . ?s foaf:name ?o FILTER(?x != ?o) }}",
    f"SELECT ?x (COUNT(*) AS ?n) {WHERES['hash']} GROUP BY ?x",
    f"SELECT ?o (COUNT(*) AS ?n) {WHERES['hash']} GROUP BY ?o ORDER BY ?p",
    f"SELECT (COUNT(DISTINCT ?x) AS ?n) {WHERES['hash']}",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s a dbo:Person . ?x ?x ?s }",
    f"SELECT (COUNT(*) AS ?n) (SUM(?o) AS ?t) {WHERES['hash']}",
    f"SELECT (COUNT(*) AS ?n) WHERE {{ {{ {PERSON} }} UNION {{ ?s a dbo:Film }} }}",
    f"SELECT (COUNT(*) AS ?n) WHERE {{ {PERSON} OPTIONAL {{ ?s foaf:name ?o }} }}",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s a dbo:Person OPTIONAL { ?x ?p ?s } }",
    f"SELECT ?s {WHERES['root']}",
]


@pytest.mark.parametrize("query", REFUSED)
def test_refused_shapes_keep_their_bind_join(store, query):
    plan = QueryEvaluator(store).explain(query)
    assert "BindJoin(?x " in plan and "CountJoin" not in plan


def test_the_crawl_counts_and_judges_without_enumerating_or_decoding(tiny_dataset, monkeypatch):
    """During a ``tiny`` crawl Q8 enumerates no subject's incoming edges
    (no ``match_ids(None, None, s)``: it counts them), and no compiled
    literal filter decodes a term."""
    from repro import SapphireConfig
    from repro.core import initialize_endpoint
    from repro.sparql import plan as plan_module

    store = tiny_dataset.store
    calls = Counter()
    match_ids = store.match_ids
    evaluate = plan_module._ColumnFilter._evaluate
    stage = {"q8": False}

    def counting_match_ids(s, p, o, meter=None):
        if s is None and p is None and o is not None:
            calls["q8 in-edges" if stage["q8"] else "in-edges"] += 1
        return match_ids(s, p, o, meter)

    def counting_evaluate(self, cells):
        calls["decodes"] += 1
        return evaluate(self, cells)

    monkeypatch.setattr(store, "match_ids", counting_match_ids)
    monkeypatch.setattr(plan_module._ColumnFilter, "_evaluate", counting_evaluate)
    endpoint = SparqlEndpoint(store, EndpointConfig())
    select = endpoint.select

    def staged_select(query, *args, **kwargs):
        stage["q8"] = "?subject" in query
        return select(query, *args, **kwargs)

    endpoint.select = staged_select
    _, report = initialize_endpoint(endpoint, SapphireConfig())
    assert report.n_significance_queries > 0
    assert calls["q8 in-edges"] == 0 and calls["decodes"] == 0
