"""Literal FILTERs judged off the dictionary's per-ID attributes.

A FILTER over one variable made of ``isLiteral(?v)``, ``lang(?v) =
"tag"`` and ``strlen(str(?v)) op n`` (Section 5's literal filter) is
decided by the language code and string length
:class:`~repro.store.TermDictionary` keeps per ID, without decoding the
term.  Every ID of the ``tiny``, ``small`` and ``medium`` dictionaries,
and a set of crafted edge terms, must get the verdict the compiled
filter gives the decoded term; a query-local (VALUES) term and an
unbound cell go through the decode path.
"""

from __future__ import annotations

import pytest

from repro.data import DatasetConfig, build_dataset
from repro.rdf.terms import IRI, XSD_INTEGER, BlankNode, Literal
from repro.sparql import parse_query
from repro.sparql.functions import attribute_filter, compile_filter
from repro.sparql.plan import UNBOUND, _ColumnFilter
from repro.store import SQLiteBackend, TermDictionary, TripleStore

#: Every form the crawl sends (Q4, Q5–Q7/Q9/Q10, Q8) and the edges of
#: each conjunct: the tag's case and emptiness, every order and
#: equality operator, a flipped comparison and a decimal bound.
FORMS = [
    "isLiteral(?v)",
    "isLiteral(?v) && lang(?v) = 'en' && strlen(str(?v)) < 80",
    "lang(?v) = 'en' && strlen(str(?v)) < 80",
    "lang(?v) = 'en'",
    "lang(?v) = 'EN'",
    "lang(?v) = 'en-GB'",
    "lang(?v) = ''",
    "'en' = lang(?v)",
    "strlen(str(?v)) <= 80",
    "strlen(str(?v)) > 79",
    "strlen(str(?v)) >= 81",
    "strlen(str(?v)) = 80",
    "strlen(str(?v)) != 0",
    "80 > strlen(str(?v))",
    "strlen(str(?v)) < 80.5",
    "isLiteral(?v) && lang(?v) = 'en' && lang(?v) = 'en'",
]

#: Forms outside the subset: they keep the decode path.
DECODED = [
    "lang(?v) = ?w",
    "strlen(?v) < 80",
    "strlen(str(?v)) = 80.0",
    "lang(?v) = 'en'@en",
    "lang(?v) != 'en'",
    "isLiteral(?v) || lang(?v) = 'en'",
    "!isLiteral(?v)",
    "isIRI(?v)",
    "isLiteral(?v) && isLiteral(?w)",
    "regex(str(?v), 'a')",
]

EDGE_TERMS = [
    IRI("http://example.org/" + "i" * 60),
    BlankNode("b1"),
    Literal("80", datatype=XSD_INTEGER),
    Literal("plain"),
    Literal("", lang="en"),
    Literal("x", lang="EN"),
    Literal("x", lang="en-GB"),
    Literal("a" * 79, lang="en"),
    Literal("a" * 80, lang="en"),
    Literal("a" * 81, lang="en"),
    Literal("\U0001d11e" * 79, lang="en"),  # a non-BMP character is one code point
    Literal("\U0001d11e" * 80, lang="en"),
]


def _expression(text: str):
    return parse_query(f"SELECT * WHERE {{ ?s ?p ?v FILTER({text}) }}").where.filters[0]


def _dictionaries():
    yield "edges", _edge_dictionary()
    for scale in ("tiny", "small", "medium"):
        yield scale, build_dataset(getattr(DatasetConfig, scale)()).store.dictionary


def _edge_dictionary() -> TermDictionary:
    dictionary = TermDictionary()
    for term in EDGE_TERMS:
        dictionary.encode(term)
    return dictionary


@pytest.fixture(scope="module")
def dictionaries():
    return dict(_dictionaries())


@pytest.mark.parametrize("form", FORMS)
def test_attribute_verdicts_equal_decode_verdicts(dictionaries, form):
    expr = _expression(form)
    assert attribute_filter(expr) is not None
    decoded = compile_filter(expr)
    for name, dictionary in dictionaries.items():
        kernel = _ColumnFilter(expr, {"v": 0}, dictionary.terms.__getitem__, dictionary)
        assert kernel.judge is not None
        ids = range(len(dictionary))
        expected = [decoded({"v": dictionary.terms[term_id]}) for term_id in ids]
        assert [kernel.judge(term_id) for term_id in ids] == expected, name
        assert kernel.flags([list(ids)], len(ids)) == expected, name


def test_the_edge_terms_cover_every_verdict():
    dictionary = _edge_dictionary()
    expr = _expression(FORMS[1])
    kernel = _ColumnFilter(expr, {"v": 0}, dictionary.terms.__getitem__, dictionary)
    passed = {str(dictionary.terms[i]) for i in range(len(dictionary)) if kernel.judge(i)}
    assert passed == {str(Literal("", lang="en")), str(Literal("a" * 79, lang="en")),
                      str(Literal("\U0001d11e" * 79, lang="en"))}
    assert dictionary.lengths[1] == -1 and dictionary.lang_codes[0] == 0  # bnode, IRI


@pytest.mark.parametrize("form", DECODED)
def test_other_forms_keep_the_decode_path(form):
    dictionary = _edge_dictionary()
    expr = _expression(form)
    assert attribute_filter(expr) is None
    slots = {"v": 0, "w": 1}
    kernel = _ColumnFilter(expr, slots, dictionary.terms.__getitem__, dictionary)
    assert kernel.judge is None


def test_local_and_unbound_cells_are_decoded():
    """A VALUES term the store never interned has a query-local ID below
    ``UNBOUND``; it, and an unbound cell, take the decode path."""
    dictionary = _edge_dictionary()
    local = [Literal("local", lang="en"), IRI("http://example.org/local")]
    decode = lambda cell: dictionary.terms[cell] if cell >= 0 else local[-2 - cell]  # noqa: E731
    expr = _expression(FORMS[1])
    kernel = _ColumnFilter(expr, {"v": 0}, decode, dictionary)
    column = [-2, -3, UNBOUND, 4]
    assert kernel.flags([column], 4) == [True, False, False, True]
    assert [kernel.passes((cell,)) for cell in column] == [True, False, False, True]


def test_values_local_terms_filter_like_the_reference(store, reference_evaluate):
    query = """SELECT ?v WHERE {
      VALUES ?v { "never-stored"@en "Tom Hanks"@en "x"@en-GB <http://example.org/never> }
      FILTER(isLiteral(?v) && lang(?v) = 'en' && strlen(str(?v)) < 80) }"""
    from repro.sparql.evaluator import evaluate

    rows = evaluate(store, query).rows
    assert rows == reference_evaluate(store, query).rows
    assert [row["v"].lexical for row in rows] == ["never-stored", "Tom Hanks"]


def test_a_reopened_sqlite_store_derives_the_attributes(tmp_path, tiny_dataset):
    """A store opened from its file restores its terms through
    ``TermDictionary.restore``, which sets the same attributes."""
    path = str(tmp_path / "store.sqlite")
    written = TripleStore(backend=SQLiteBackend(path))
    written.add_all(tiny_dataset.store.triples())
    expected = written.dictionary
    written.close()
    reopened = TripleStore(backend=SQLiteBackend(path, read_only=True))
    try:
        dictionary = reopened.dictionary
        assert dictionary.terms == expected.terms
        assert dictionary.lengths == expected.lengths
        assert [dictionary.languages[c] for c in dictionary.lang_codes] == [
            expected.languages[c] for c in expected.lang_codes
        ]
    finally:
        reopened.close()
