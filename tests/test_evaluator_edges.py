"""Evaluator edge cases, exercised over both storage backends, on the
engine and on the term-space reference it is checked against.

Covers the interactions that are easy to get wrong in a streaming
pipeline: DISTINCT composed with LIMIT/OFFSET, ORDER BY over mixed term
types (numbers, strings, IRIs, unbound cells), and OPTIONAL groups whose
FILTERs reference variables bound only inside the OPTIONAL.
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.rdf import IRI, Literal, Triple
from repro.rdf.terms import XSD_INTEGER
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.store import MemoryBackend, SQLiteBackend, TripleStore

EX = "http://example.org/"
RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def _iri(name: str) -> IRI:
    return IRI(EX + name)


def _build_store(backend_name: str) -> TripleStore:
    """A small, fully deterministic dataset:

    * 6 items of type Thing, each with a ``rank`` used for duplicates
      (ranks repeat: 0,0,1,1,2,2) and a ``score`` only on some items,
    * mixed-type ``label`` values: integers, strings, and IRIs.
    """
    backend = MemoryBackend() if backend_name == "memory" else SQLiteBackend(":memory:")
    triples = []
    for i in range(6):
        item = _iri(f"item{i}")
        triples.append(Triple(item, RDF_TYPE, _iri("Thing")))
        triples.append(
            Triple(item, _iri("rank"), Literal(str(i // 2), datatype=XSD_INTEGER))
        )
        if i < 3:
            triples.append(
                Triple(item, _iri("score"), Literal(str(10 * i), datatype=XSD_INTEGER))
            )
    # label: two numeric literals, two plain strings, one IRI; item5 unlabeled.
    triples.append(Triple(_iri("item0"), _iri("label"), Literal("42", datatype=XSD_INTEGER)))
    triples.append(Triple(_iri("item1"), _iri("label"), Literal("7", datatype=XSD_INTEGER)))
    triples.append(Triple(_iri("item2"), _iri("label"), Literal("apple")))
    triples.append(Triple(_iri("item3"), _iri("label"), Literal("banana")))
    triples.append(Triple(_iri("item4"), _iri("label"), _iri("somewhere")))
    return TripleStore(triples, backend=backend)


@pytest.fixture(params=["memory", "sqlite"])
def edge_store(request):
    store = _build_store(request.param)
    yield store
    store.close()


@pytest.fixture(params=["engine", "reference"])
def evaluator(request, edge_store, reference_evaluate):
    if request.param == "engine":
        return QueryEvaluator(edge_store)
    return SimpleNamespace(evaluate=partial(reference_evaluate, edge_store))


class TestDistinctLimit:
    def test_distinct_applies_before_limit(self, evaluator):
        result = evaluator.evaluate(parse_query(
            f"SELECT DISTINCT ?r WHERE {{ ?s a <{EX}Thing> . ?s <{EX}rank> ?r }} LIMIT 2"
        ))
        values = [row["r"].lexical for row in result.rows]
        assert len(values) == 2
        assert len(set(values)) == 2  # limit counts distinct rows, not solutions

    def test_distinct_limit_beyond_distinct_count(self, evaluator):
        result = evaluator.evaluate(parse_query(
            f"SELECT DISTINCT ?r WHERE {{ ?s <{EX}rank> ?r }} LIMIT 10"
        ))
        assert sorted(row["r"].lexical for row in result.rows) == ["0", "1", "2"]

    def test_distinct_with_offset_pages_distinct_rows(self, evaluator):
        everything = evaluator.evaluate(parse_query(
            f"SELECT DISTINCT ?r WHERE {{ ?s <{EX}rank> ?r }}"
        ))
        paged = evaluator.evaluate(parse_query(
            f"SELECT DISTINCT ?r WHERE {{ ?s <{EX}rank> ?r }} LIMIT 2 OFFSET 1"
        ))
        assert [r["r"] for r in paged.rows] == [r["r"] for r in everything.rows][1:3]

    def test_limit_zero_returns_nothing(self, evaluator):
        result = evaluator.evaluate(parse_query(
            f"SELECT ?s WHERE {{ ?s a <{EX}Thing> }} LIMIT 0"
        ))
        assert result.rows == []


class TestOrderByMixedTerms:
    def test_numbers_before_strings_before_iris(self, evaluator):
        result = evaluator.evaluate(parse_query(
            f"SELECT ?s ?l WHERE {{ ?s <{EX}label> ?l }} ORDER BY ?l"
        ))
        kinds = [
            "num" if isinstance(row["l"], Literal) and row["l"].is_numeric()
            else "str" if isinstance(row["l"], Literal)
            else "iri"
            for row in result.rows
        ]
        assert kinds == ["num", "num", "str", "str", "iri"]
        # Numeric ordering is by value (7 < 42), not lexicographic.
        assert [row["l"].lexical for row in result.rows[:2]] == ["7", "42"]
        assert [row["l"].lexical for row in result.rows[2:4]] == ["apple", "banana"]

    def test_unbound_cells_sort_first(self, evaluator):
        result = evaluator.evaluate(parse_query(
            f"SELECT ?s ?l WHERE {{ ?s a <{EX}Thing> "
            f"OPTIONAL {{ ?s <{EX}label> ?l }} }} ORDER BY ?l"
        ))
        bound = ["l" in row for row in result.rows]
        assert bound[0] is False  # item5 has no label and sorts first
        assert all(bound[1:])

    def test_descending_mixed_order_is_reversed(self, evaluator):
        ascending = evaluator.evaluate(parse_query(
            f"SELECT ?l WHERE {{ ?s <{EX}label> ?l }} ORDER BY ?l"
        ))
        descending = evaluator.evaluate(parse_query(
            f"SELECT ?l WHERE {{ ?s <{EX}label> ?l }} ORDER BY DESC(?l)"
        ))
        assert [r["l"] for r in descending.rows] == [r["l"] for r in ascending.rows][::-1]


class TestOptionalFilters:
    def test_filter_on_optional_only_variable(self, evaluator):
        """A FILTER inside OPTIONAL referencing an optional-only variable
        restricts the extension, never the base row: items whose score
        fails the filter keep their row, just without ?v."""
        result = evaluator.evaluate(parse_query(
            f"SELECT ?s ?v WHERE {{ ?s a <{EX}Thing> "
            f"OPTIONAL {{ ?s <{EX}score> ?v . FILTER (?v >= 10) }} }}"
        ))
        assert len(result.rows) == 6  # no base row was lost
        with_v = {row["s"].value: row["v"].lexical for row in result.rows if "v" in row}
        # item0's score 0 fails the filter -> bare row; items 1-2 pass.
        assert with_v == {EX + "item1": "10", EX + "item2": "20"}

    def test_filter_on_optional_variable_in_outer_group_drops_rows(self, evaluator):
        """An *outer-group* filter runs against the base join, before
        OPTIONAL extension (both engine paths agree on this): ?v is
        unbound there, the comparison errors, and every row is dropped.
        Filters that should constrain optional bindings belong inside
        the OPTIONAL group (previous test)."""
        result = evaluator.evaluate(parse_query(
            f"SELECT ?s ?v WHERE {{ ?s a <{EX}Thing> "
            f"OPTIONAL {{ ?s <{EX}score> ?v }} FILTER (?v >= 10) }}"
        ))
        assert result.rows == []

    def test_optional_filters_match_between_paths(self, edge_store, reference_evaluate):
        query = parse_query(
            f"SELECT ?s ?v WHERE {{ ?s a <{EX}Thing> "
            f"OPTIONAL {{ ?s <{EX}score> ?v . FILTER (?v > 0) }} }}"
        )
        planned = QueryEvaluator(edge_store).evaluate(query)
        seed = reference_evaluate(edge_store, query)

        def key(result):
            return sorted(
                tuple(sorted((k, v.n3()) for k, v in row.items())) for row in result.rows
            )

        assert key(planned) == key(seed)
