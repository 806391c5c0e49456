"""Unit tests for dataset statistics, and the no-match proof the
characteristic sets give."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EndpointConfig, SparqlEndpoint
from repro.endpoint.endpoint import QueryService
from repro.federation.fedx import FederatedQueryProcessor
from repro.rdf import IRI, Literal, Triple, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.store import TripleStore, compute_stats
from repro.store.sharded import create_sharded_backend
from repro.store.sqlite_backend import SQLiteBackend

S = IRI("http://x/s")
P = IRI("http://x/p")


@pytest.fixture
def stats():
    store = TripleStore()
    store.add(Triple(S, P, Literal("short", lang="en")))
    store.add(Triple(S, P, Literal("x" * 100, lang="en")))
    store.add(Triple(S, P, Literal("kurz", lang="de")))
    store.add(Triple(S, P, Literal("untagged")))
    store.add(Triple(S, IRI("http://x/q"), IRI("http://x/o")))
    store.add(Triple(IRI("http://x/s2"), IRI("http://x/q"), IRI("http://x/o")))
    return compute_stats(store)


class TestStats:
    def test_counts(self, stats):
        assert stats.n_triples == 6
        assert stats.n_predicates == 2
        assert stats.n_literals == 4

    def test_length_histogram(self, stats):
        assert stats.literal_length_histogram[5] == 1
        assert stats.literal_length_histogram[100] == 1

    def test_literals_shorter_than(self, stats):
        assert stats.literals_shorter_than(80) == 3
        assert stats.literals_shorter_than(5) == 1  # only "kurz"

    def test_language_counts(self, stats):
        assert stats.literal_language_counts["en"] == 2
        assert stats.literal_language_counts["de"] == 1
        assert stats.literal_language_counts[""] == 1

    def test_predicate_to_literal_ratio(self, stats):
        assert stats.predicate_to_literal_ratio == pytest.approx(2 / 4)

    def test_in_degree(self, stats):
        assert stats.max_in_degree == 2  # http://x/o has two in-edges
        assert stats.mean_in_degree > 0

    def test_empty_store(self):
        stats = compute_stats(TripleStore())
        assert stats.n_triples == 0
        assert stats.predicate_to_literal_ratio == 0.0
        assert stats.mean_in_degree == 0.0
        assert stats.literals_shorter_than(10) == 0

    def test_predicates_without_literals(self):
        store = TripleStore()
        store.add(Triple(S, P, IRI("http://x/o")))
        stats = compute_stats(store)
        assert stats.predicate_to_literal_ratio == float("inf")


# ----------------------------------------------------------------------
# Characteristic sets and the no-match proof
# ----------------------------------------------------------------------

_X = "http://x/"
_NODES = [IRI(f"{_X}n{i}") for i in range(4)]
_PREDICATES = [IRI(f"{_X}p{i}") for i in range(4)]
_LITERALS = [Literal("a"), Literal("b", lang="en")]
#: A term no generated graph holds.
_UNSEEN = IRI(f"{_X}unseen")
_VARIABLES = [Variable(name) for name in "abc"]

_STORES = {
    "memory": lambda: TripleStore(),
    "sqlite": lambda: TripleStore(backend=SQLiteBackend(":memory:")),
    "sharded": lambda: TripleStore(backend=create_sharded_backend(3, "sqlite")),
}

_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_NODES),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_NODES + _LITERALS),
    ),
    min_size=1,
    max_size=20,
)


def _bgps(graph):
    """BGPs of 1-4 patterns whose constants come from ``graph``, plus
    one term it does not hold; every position may be a variable.  A
    subject leans to a variable and a predicate to one of the graph's,
    so that subject stars, the second proof's shape, come up often."""
    held = [term for triple in graph for term in triple.as_tuple()] + [_UNSEEN]
    predicates = [triple.predicate for triple in graph]
    pattern = st.builds(
        TriplePattern,
        st.sampled_from(_VARIABLES[:2] * len(held) + held),
        st.sampled_from(predicates * 3 + held + _VARIABLES),
        st.sampled_from(_VARIABLES * len(held) + held),
    )
    return st.integers(1, 4).flatmap(lambda n: st.lists(pattern, min_size=n, max_size=n))


def _stars(graph):
    """BGPs of two stars, on ``?a`` and on ``?b``, of 1-2 of the graph's
    own predicates each.  Nearly no pattern in them counts to zero, so
    what gets proven here is the star proof's, and it must hold per
    subject variable: a star on ``?a`` says nothing about ``?b``."""
    predicates = sorted({triple.predicate for triple in graph}, key=str) or [_UNSEEN]
    objects = st.sampled_from(_VARIABLES + [Variable(name) for name in "xyz"])

    def star(subject):
        pattern = st.builds(TriplePattern, st.just(subject), st.sampled_from(predicates), objects)
        return st.lists(pattern, min_size=1, max_size=2, unique_by=lambda p: p.predicate)

    return st.builds(lambda a, b: a + b, star(_VARIABLES[0]), star(_VARIABLES[1]))


#: A ``SELECT *`` whose patterns are swapped for the generated BGP (a
#: literal in the predicate position has no query text).
_SELECT = parse_query("SELECT * WHERE { ?a ?b ?c }")


def _solutions(store, patterns):
    query = replace(_SELECT, where=replace(_SELECT.where, patterns=list(patterns)))
    return QueryEvaluator(store).evaluate(query).rows


def _filled(kind, triples):
    store = _STORES[kind]()
    store.add_all(triples)
    return store


class TestNoMatchProof:
    """``proves_no_match`` ⇒ the engine finds no solution, on every
    backend; and the proof is not vacuous."""

    @pytest.mark.parametrize("kind", sorted(_STORES))
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_a_proof_means_no_rows(self, kind, data):
        graph = data.draw(_graphs)
        patterns = data.draw(st.one_of(_bgps(graph), _stars(graph)))
        store = _filled(kind, graph)
        endpoint = SparqlEndpoint(store, EndpointConfig.warehouse())
        if endpoint.proves_no_match(patterns):
            assert _solutions(store, patterns) == []

    @pytest.mark.parametrize("kind", sorted(_STORES))
    def test_a_star_no_subject_has_is_proven_empty(self, kind):
        n0, n1, n2 = _NODES[:3]
        p0, p1, p2 = _PREDICATES[:3]
        store = _filled(kind, [Triple(n0, p0, n2), Triple(n1, p1, n2), Triple(n0, p2, n2)])
        a, b = Variable("a"), Variable("b")
        star = [TriplePattern(a, p0, b), TriplePattern(a, p1, b)]
        assert all(store.count(pattern) for pattern in star)
        assert store.proves_no_match(star)
        assert _solutions(store, star) == []
        held = [TriplePattern(a, p0, b), TriplePattern(a, p2, b)]
        assert not store.proves_no_match(held) and _solutions(store, held)
        # The count proof: one pattern nothing matches.
        assert store.proves_no_match([TriplePattern(a, p0, _UNSEEN)])
        assert store.characteristic_sets().n_sets == 2

    @pytest.mark.parametrize("kind", sorted(_STORES))
    def test_an_empty_summary_proves_nothing(self, kind):
        store = _STORES[kind]()
        a = Variable("a")
        assert store.characteristic_sets().n_sets == 0
        assert not store.proves_no_match([TriplePattern(a, _PREDICATES[0], _UNSEEN)])
        assert not store.proves_no_match(
            [TriplePattern(a, _PREDICATES[0], a), TriplePattern(a, _PREDICATES[1], a)])

    @pytest.mark.parametrize("kind", sorted(_STORES))
    def test_a_write_after_the_summary_is_seen(self, kind):
        """The ``docs/faults.md`` row: a store written after its summary
        was built proves with the new generation's sets."""
        n0, n1 = _NODES[:2]
        p0, p1 = _PREDICATES[:2]
        store = _filled(kind, [Triple(n0, p0, n1), Triple(n1, p1, n0)])
        a, b = Variable("a"), Variable("b")
        star = [TriplePattern(a, p0, b), TriplePattern(a, p1, b)]
        assert store.proves_no_match(star)
        store.add(Triple(n0, p1, n1))  # n0's set becomes {p0, p1}
        assert not store.proves_no_match(star)
        assert _solutions(store, star)
        # Straight to the backend: no generation bump, the size moves.
        store.backend.add(store.dictionary.encode(n1), store.dictionary.encode(p0),
                          store.dictionary.encode(n1))
        star2 = [TriplePattern(a, p1, b), TriplePattern(a, p0, a)]
        assert not store.proves_no_match(star2)
        assert _solutions(store, star2)


class TestServiceFace:
    def test_a_network_member_proves_nothing_and_has_no_stats(self):
        face = QueryService()
        assert not face.proves_no_match([TriplePattern(Variable("a"), _UNSEEN, Variable("b"))])
        assert face.predicate_stats() is None

    def test_an_endpoint_forwards_to_its_store(self):
        store = _filled("memory", [Triple(_NODES[0], _PREDICATES[0], _NODES[1])])
        endpoint = SparqlEndpoint(store)
        assert endpoint.predicate_stats() == store.predicate_stats()
        assert endpoint.proves_no_match([TriplePattern(Variable("a"), _UNSEEN, Variable("b"))])

    def test_a_split_federation_proves_only_what_every_member_does(self):
        """A subject's predicates may sit at two members: the star is
        held across them although neither member holds it alone."""
        n0, n1 = _NODES[:2]
        p0, p1 = _PREDICATES[:2]
        left = SparqlEndpoint(_filled("memory", [Triple(n0, p0, n1)]), name="left")
        right = SparqlEndpoint(_filled("memory", [Triple(n0, p1, n1)]), name="right")
        federation = FederatedQueryProcessor([left, right])
        a, b = Variable("a"), Variable("b")
        star = [TriplePattern(a, p0, b), TriplePattern(a, p1, b)]
        assert left.proves_no_match(star) and right.proves_no_match(star)
        assert not federation.proves_no_match(star)
        assert federation.run(parse_query(f"SELECT * WHERE {{ ?a {p0.n3()} ?b . ?a {p1.n3()} ?b }}")).rows
        assert not federation.proves_no_match([TriplePattern(a, p0, b)])
        assert federation.proves_no_match([TriplePattern(a, _PREDICATES[2], b)])
        assert FederatedQueryProcessor([left]).proves_no_match(star)
