"""Unit tests for the SPARQL serializer (AST -> text -> AST roundtrips)."""

import pytest

from repro.rdf import DBO, Literal, TriplePattern, Variable
from repro.sparql import parse_query
from repro.sparql.serializer import ask_query, select_query, serialize_query


QUERIES = [
    "SELECT ?s WHERE { ?s ?p ?o }",
    "SELECT DISTINCT ?s ?o WHERE { ?s dbo:spouse ?o }",
    'SELECT ?s WHERE { ?s rdfs:label "New York"@en }',
    "SELECT ?s WHERE { ?s dbo:n ?n . FILTER (?n > 5) }",
    "SELECT ?s WHERE { ?s dbo:n ?n . FILTER (isliteral(?n) && lang(?n) = 'en') }",
    "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }",
    "SELECT ?p (COUNT(*) AS ?f) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?f)",
    "SELECT ?s WHERE { ?s dbo:n ?n } ORDER BY ?n LIMIT 10 OFFSET 20",
    "SELECT * WHERE { ?s dbo:a ?x OPTIONAL { ?s dbo:b ?y } }",
    "ASK { ?s dbo:spouse ?o }",
    "SELECT ?s WHERE { ?s dbo:n ?n . FILTER (STRSTARTS(STR(?n), '1945')) }",
    "SELECT (AVG(?p) AS ?mean) WHERE { ?b dbo:numberOfPages ?p }",
]


@pytest.mark.parametrize("text", QUERIES)
def test_roundtrip_preserves_semantics(text, store):
    """Parse -> serialize -> parse must yield an equivalent query: we
    check by executing both forms against the synthetic dataset."""
    from repro.sparql import QueryEvaluator

    original = parse_query(text)
    rendered = serialize_query(original)
    reparsed = parse_query(rendered)

    evaluator = QueryEvaluator(store)
    result_a = evaluator.evaluate(original)
    result_b = evaluator.evaluate(reparsed)
    if original.form == "ASK":
        assert bool(result_a) == bool(result_b)
    else:
        assert result_a.variables == result_b.variables
        key_a = sorted(str(sorted((k, str(v)) for k, v in row.items())) for row in result_a.rows)
        key_b = sorted(str(sorted((k, str(v)) for k, v in row.items())) for row in result_b.rows)
        assert key_a == key_b


@pytest.mark.parametrize("text", QUERIES)
def test_roundtrip_structure(text):
    original = parse_query(text)
    reparsed = parse_query(serialize_query(original))
    assert reparsed.form == original.form
    assert len(reparsed.where.patterns) == len(original.where.patterns)
    assert len(reparsed.where.filters) == len(original.where.filters)
    assert len(reparsed.where.optionals) == len(original.where.optionals)
    assert reparsed.distinct == original.distinct
    assert reparsed.limit == original.limit
    assert reparsed.offset == original.offset
    assert reparsed.group_by == original.group_by
    assert len(reparsed.order_by) == len(original.order_by)


def test_wire_roundtrip_is_structural(gold_queries, analytic_queries, probe_queries):
    """Network members of a federation receive whole queries — modifiers,
    FILTER, UNION, OPTIONAL, VALUES tables and all — as serialized text,
    so text must carry the AST exactly: ``parse(serialize(q)) == q``."""
    queries = [parse_query(text) for text in gold_queries + analytic_queries]
    queries += probe_queries
    queries += [parse_query(text) for text in QUERIES]
    assert any(query.where.values for query in queries)
    assert any(query.where.unions for query in queries)
    assert any(query.where.optionals for query in queries)
    assert any(query.group_by and query.order_by and query.limit for query in queries)
    for query in queries:
        assert parse_query(serialize_query(query)) == query


class TestConstructors:
    def test_select_query_builder(self):
        pattern = TriplePattern(Variable("s"), DBO.spouse, Variable("o"))
        query = select_query([pattern], distinct=True, limit=5)
        text = serialize_query(query)
        assert "SELECT DISTINCT *" in text
        assert "LIMIT 5" in text

    def test_ask_query_builder(self):
        pattern = TriplePattern(Variable("s"), DBO.spouse, Variable("o"))
        text = serialize_query(ask_query([pattern]))
        assert text.startswith("ASK {")

    def test_literal_escaping_survives(self):
        pattern = TriplePattern(
            Variable("s"), DBO.nickName, Literal('the "Tank"', lang="en")
        )
        text = serialize_query(select_query([pattern]))
        reparsed = parse_query(text)
        assert reparsed.where.patterns[0].object == Literal('the "Tank"', lang="en")
