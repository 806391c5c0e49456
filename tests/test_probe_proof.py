"""The no-match proof in a repair round: fewer probes, the same round.

Before a batch ships, ``ProbeBatcher`` drops every candidate whose
one-change BGP the data proves empty (``QueryService.proves_no_match``).
For the 52 gold questions × {gold, literal typo, predicate typo}, on the
in-memory cache and on a read-only tiered replica, the rounds must
return what they return with the proof held off — same suggestions in
the same order, same scores, ``n_answers`` and prefetched rows — while
the endpoint answers at least 30 % fewer queries (a count, not a time).
"""

from __future__ import annotations

import pytest

from repro import EndpointConfig, SapphireServer, SparqlEndpoint
from repro.core.probes import ProbeBatcher
from repro.core.qsm_terms import _replace_term
from repro.sparql.parser import parse_query
from repro.store import TripleStore

# memory_server / replica_server are fixtures: the parity test's caches.
from test_qsm_parity import memory_server, replica_server, repair_queries  # noqa: F401
from test_suggestion_api import build_sapphire, hold_proof_off


def signature(outcome):
    """A round's suggestions, prefetched rows as a multiset: a batch
    planned over fewer ``VALUES`` rows may list one candidate's rows in
    another order, as the batch and a lone run of it already could."""
    return (
        [(s.kind, s.triple_index, s.position, s.replacement.n3(), s.similarity,
          s.query_text, s.n_answers, s.prefetched.variables,
          sorted(map(repr, s.prefetched.rows)))
         for s in outcome.term_suggestions],
        [(s.query_text, s.n_answers) for s in outcome.relaxations],
    )


def rounds(sapphire, queries):
    endpoint = sapphire.endpoints[0]
    before = endpoint.query_count
    outcomes = [signature(sapphire.run_query(query, suggest=True)) for query in queries]
    return outcomes, endpoint.query_count - before


@pytest.mark.parametrize("which", ["memory", "replica"])
def test_the_proof_changes_no_round_and_saves_queries(which, memory_server, replica_server,
                                                      monkeypatch):
    sapphire = memory_server if which == "memory" else replica_server
    queries = repair_queries()
    assert len(queries) == 3 * 52
    proved, proved_queries = rounds(sapphire, queries)
    hold_proof_off(monkeypatch)
    plain, plain_queries = rounds(sapphire, queries)
    assert proved == plain
    assert sum(len(terms) for terms, _ in proved) > 52  # the rounds do suggest
    assert proved_queries <= 0.7 * plain_queries, (proved_queries, plain_queries)


def test_count_questions_keep_their_suggestions(memory_server, monkeypatch):
    """A COUNT over nothing is still a row: an aggregate query runs every
    candidate, so the proof never drops one of its candidates."""
    queries = [query for query in repair_queries() if "COUNT(" in query]
    assert len(queries) == 3 * 3
    proved, _ = rounds(memory_server, queries)
    hold_proof_off(monkeypatch)
    plain, _ = rounds(memory_server, queries)
    assert proved == plain
    assert all(terms for terms, _ in proved)


@pytest.mark.parametrize("boot", ["register", "attach"])
def test_set_up_builds_the_summary(boot, tiny_dataset, monkeypatch):
    """Each member's characteristic sets are built at set-up, with the
    vocabulary table: a first repair reads them and builds nothing."""
    store = TripleStore()
    store.add_all(tiny_dataset.store.triples())
    server, endpoint = build_sapphire(store)
    if boot == "attach":  # a replica's boot: a restored cache, no initialization
        store = TripleStore()
        store.add_all(tiny_dataset.store.triples())
        cache = server.cache
        server = SapphireServer(server.config)
        server.cache = cache
        server.attach_endpoint(SparqlEndpoint(store, EndpointConfig(timeout_s=5.0)))

    def no_build():
        raise AssertionError("characteristic sets built by a repair")

    monkeypatch.setattr(store._backend, "subject_predicate_sets", no_build)
    outcome = server.run_query('SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }')
    assert outcome.term_suggestions


def test_dropped_candidates_have_no_answers(server):
    """Every candidate the proof drops, run alone, returns no rows."""
    finder = server.terms_finder
    batcher = ProbeBatcher(server._run_ast, server._unproven)
    dropped = 0
    for text in repair_queries():
        query = parse_query(text)
        for index, position, _, found in finder.candidate_positions(query):
            candidates = [entry.term for entry, _ in found]
            shipped = batcher.shipped(query, index, position, candidates)
            if shipped is None:  # an aggregate: every candidate runs
                continue
            for term in candidates:
                if term not in shipped:
                    dropped += 1
                    alone = server._run_ast(_replace_term(query, index, position, term))
                    assert not alone.rows, (text, term)
    assert dropped > 1000


def test_the_span_counts_what_was_spared(server):
    """``qsm-terms`` carries ``proven_empty`` / ``probes_skipped``, and
    a skipped position opens no ``qsm-probe-batch`` span."""
    query = 'SELECT ?p WHERE { ?p dbo:deathPlace ?c . ?p foaf:surname "Kennedy"@en }'
    _, trace = server.analyze(query, suggest=True)
    terms = next(span for span in trace.spans if span.name == "qsm-terms")
    positions = server.terms_finder.candidate_positions(parse_query(query))
    batches = [span for span in terms.walk() if span.name == "qsm-probe-batch"]
    assert terms.attrs["probes_skipped"] >= 1 and terms.attrs["proven_empty"] >= 1
    assert len(batches) + terms.attrs["probes_skipped"] == len(positions)
    shipped = sum(span.attrs["candidates"] for span in batches)
    assert shipped + terms.attrs["proven_empty"] == sum(len(f) for *_, f in positions)


def test_explain_marks_what_does_not_ship(server):
    """``repro explain --probes``: each position says how many of its
    candidates the proof dropped, and one left with none ships nothing."""
    text = server.explain_suggestions(
        'SELECT ?p WHERE { ?p dbo:deathPlace ?c . ?p foaf:surname "Kennedy"@en }')
    labels = [line for line in text.splitlines() if line.startswith("-- probe:")]
    assert labels and all("candidates proven empty)" in line for line in labels)
    assert "\nnot shipped" in text
    assert "sapphire_probe" in text  # a position that still ships
