"""Shared fixtures.

Session-scoped fixtures build the synthetic dataset and a fully
initialized Sapphire server once; tests that need to mutate state build
their own small stores instead.
"""

from __future__ import annotations

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.data import DatasetConfig, build_dataset
from repro.data.questions import QUESTIONS
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult
from repro.sparql.trace import Tracer
from repro.store import CostMeter

from reference_solver import solve_group
from reference_tail import reference_finalize


@pytest.fixture(scope="session")
def reference_solutions():
    """``reference_solutions(store, query, meter=None)``: the term-space
    solver's solutions of the query's WHERE group
    (``tests/reference_solver.py``), before any modifier — the common
    input the columnar tail and ``reference_finalize`` are compared on."""

    def solutions(store, query, meter=None):
        parsed = parse_query(query) if isinstance(query, str) else query
        return list(solve_group(store, parsed.where, {}, meter or CostMeter()))

    return solutions


@pytest.fixture(scope="session")
def reference_evaluate(reference_solutions):
    """``reference_evaluate(store, query, meter=None)``: the executable
    reference semantics the batch engine is checked against — the
    term-space solver for the WHERE group (OPTIONALs per base
    solution), then the row-at-a-time ``reference_finalize`` over the
    materialized solutions; no plan operator, no batch, no column, no
    streaming pagination.  (A fixture, not an import: a bare root
    ``pytest`` also loads ``benchmarks/conftest.py`` as ``conftest``.)"""

    def evaluate(store, query, meter=None):
        parsed = parse_query(query) if isinstance(query, str) else query
        meter = meter or CostMeter()
        solutions = reference_solutions(store, parsed, meter)
        if parsed.form == "ASK":
            return AskResult(bool(solutions), cost=meter.cost)
        return reference_finalize(parsed, solutions, cost=meter.cost)

    return evaluate


@pytest.fixture(params=[None, Tracer], ids=["untraced", "traced"])
def maybe_tracer(request):
    """``None`` and a fresh :class:`Tracer` in turn: operators run one
    producer either way, so parity tests take both."""
    return request.param() if request.param else None


@pytest.fixture(scope="session")
def tiny_dataset():
    return build_dataset(DatasetConfig.tiny())


@pytest.fixture(scope="session")
def store(tiny_dataset):
    return tiny_dataset.store


@pytest.fixture(scope="session")
def endpoint(store):
    return SparqlEndpoint(store, EndpointConfig(timeout_s=1.0), name="dbpedia-mini")


@pytest.fixture(scope="session")
def server(endpoint):
    sapphire = SapphireServer(SapphireConfig(suffix_tree_capacity=500))
    sapphire.register_endpoint(endpoint)
    return sapphire


@pytest.fixture(scope="session")
def cache(server):
    return server.cache


@pytest.fixture(scope="session")
def gold_queries():
    """The 52 gold questions' SPARQL, whitespace-normalized."""
    return [" ".join(question.gold_query.split()) for question in QUESTIONS]


@pytest.fixture(scope="session")
def analytic_queries():
    """The eight ``sparql_analytic`` shapes of the benchmark spine, with
    parameters that have answers on the tiny dataset."""
    union = " UNION ".join(
        '{ ?w dbo:%s ?p . ?p foaf:surname "Eastwood"@en }' % predicate
        for predicate in ("author", "director", "starring")
    )
    return [
        "SELECT ?s ?n ?d WHERE { ?s dbo:birthPlace dbr:New_York_City . "
        "?s foaf:name ?n . ?s dbo:birthDate ?d }",
        "SELECT ?f ?a ?c WHERE { ?f dbo:starring ?a . ?a dbo:birthPlace ?c . "
        "?c dbo:country dbr:United_States }",
        "SELECT ?a ?b ?c WHERE { ?a dbo:spouse ?b . ?a dbo:birthPlace ?c . "
        "?b dbo:birthPlace ?c . ?a rdf:type dbo:Person }",
        'SELECT ?s ?g ?u WHERE { ?s foaf:surname "Kennedy"@en . '
        "?s foaf:givenName ?g OPTIONAL { ?s dbo:almaMater ?u } }",
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s rdf:type dbo:Person . "
        "?s dbo:birthPlace ?c } GROUP BY ?c ORDER BY DESC(?n) LIMIT 5",
        'SELECT ?s ?n WHERE { ?s foaf:surname ?n FILTER (regex(?n, "^K")) }',
        "SELECT ?w ?l WHERE { %s ?w rdfs:label ?l }" % union,
        "SELECT ?s ?n ?d WHERE { ?s rdf:type dbo:Person . ?s foaf:name ?n . "
        "?s dbo:birthDate ?d } LIMIT 20",
    ]


@pytest.fixture(scope="session")
def probe_queries(server, gold_queries):
    """Every VALUES-batched probe (a :class:`Query`) the QSM builds for
    the gold questions with a predicate typo (``dbo:spouse`` ->
    ``dbo:spuse``, the spine's ``qsm_repair`` variant): one per position,
    over all its candidates, as it ships with the no-match proof off."""
    import re

    from repro.core.probes import build_probe_query

    probes = []
    for gold in gold_queries:
        match = re.search(r"dbo:([A-Za-z]{5,})", gold)
        if match is None:
            continue
        cut = match.start(1) + 2
        broken = parse_query(gold[:cut] + gold[cut + 1:])
        probes += [
            build_probe_query(broken, index, position, [entry.term for entry, _ in found])
            for index, position, _, found in server.terms_finder.candidate_positions(broken)
        ]
    return probes
