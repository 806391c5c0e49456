"""Whole suggestion rounds against a plain Jaro–Winkler reference.

The QSM scores candidates with the threshold-aware
:class:`~repro.text.similarity.ThresholdScorer`, discovers them once per
round and builds a candidate's query only when it is kept.  None of that
may show: for the 52 gold questions × {gold, literal typo, predicate
typo}, ``run_query(..., suggest=True)`` must return the suggestions — and
their order, scores and prefetched answer counts — of a finder that
scores every candidate with ``jaro_winkler``, on the in-memory cache and
on a read-only tiered replica of it.  And since handler threads share
one finder, concurrent rounds must return what serial rounds return.
"""

from __future__ import annotations

import random
import re
import sys
import threading

import pytest

from repro import SapphireServer
from repro.core import load_cache, save_cache
from repro.core import qsm_terms
from repro.data.questions import QUESTIONS
from repro.eval.replay import corrupt_literal
from repro.text.similarity import jaro_winkler


class PlainScorer:
    """The reference: every pair through ``jaro_winkler``."""

    def __init__(self, needle, threshold):
        self.needle = needle
        self.calls = 0

    def __call__(self, candidate):
        self.calls += 1
        return jaro_winkler(self.needle, candidate)

    def score_bin(self, candidates, signatures, by_first):
        return [(offset, self(candidate)) for offset, candidate in enumerate(candidates)]

    def scored_count(self):
        return self.calls


def predicate_typo(query):
    """Third letter of the first ``dbo:`` name of five letters or more
    dropped (the benchmark's ``qsm_repair`` variant)."""
    match = re.search(r"dbo:([A-Za-z]{5,})", query)
    if match is None:
        return None
    cut = match.start(1) + 2
    return query[:cut] + query[cut + 1:]


def repair_queries():
    rng = random.Random(12)
    queries = []
    for question in QUESTIONS:
        gold = " ".join(question.gold_query.split())
        queries += [gold, corrupt_literal(gold, rng) or gold, predicate_typo(gold) or gold]
    return queries


def signature(outcome):
    return (
        [(s.kind, s.triple_index, s.position, s.replacement.n3(), s.similarity,
          s.query_text, s.n_answers, len(s.prefetched.rows))
         for s in outcome.term_suggestions],
        [(s.query_text, s.n_answers) for s in outcome.relaxations],
    )


def _twin(server, endpoint, cache):
    twin = SapphireServer(cache.config)
    twin.cache = cache
    twin.attach_endpoint(endpoint)
    return twin


@pytest.fixture(scope="module")
def memory_server(server, endpoint):
    """``server``'s twin with a suffix tree too small for the literals,
    so that most of them sit in the residual bins."""
    cache = server.cache.copy_with_capacity(150)
    assert cache.n_residual_literals > 200
    return _twin(server, endpoint, cache)


@pytest.fixture(scope="module")
def replica_server(memory_server, endpoint, tmp_path_factory):
    """The same over a read-only tiered replica: tail on disk."""
    path = tmp_path_factory.mktemp("parity") / "cache.sqlite"
    save_cache(memory_server.cache, path)
    cache = load_cache(path, memory_server.config, read_only=True)
    assert cache.n_residual_literals == memory_server.cache.n_residual_literals
    yield _twin(memory_server, endpoint, cache)
    cache.close()


@pytest.mark.parametrize("which", ["memory", "replica"])
def test_rounds_match_plain_jaro_winkler(which, memory_server, replica_server, monkeypatch):
    sapphire = memory_server if which == "memory" else replica_server
    queries = repair_queries()
    assert len(queries) == 3 * 52
    got = [signature(sapphire.run_query(query, suggest=True)) for query in queries]
    monkeypatch.setattr(qsm_terms, "ThresholdScorer", PlainScorer)
    expected = [signature(sapphire.run_query(query, suggest=True)) for query in queries]
    assert got == expected
    assert sum(len(terms) for terms, _ in got) > 52  # the rounds do suggest


def test_concurrent_rounds_match_serial_rounds(memory_server):
    """More threads than cores, each walking the queries from a
    different start, switching every 10 µs: a finder keeping per-round
    state on itself would hand one thread another's candidates."""
    server = memory_server
    queries = repair_queries()[:48]
    serial = [signature(server.run_query(query, suggest=True)) for query in queries]
    n_threads = 4
    results = [None] * n_threads
    errors = []

    def walk(slot):
        try:
            order = [(slot * 12 + step) % len(queries) for step in range(len(queries))]
            seen = {}
            for at in order:
                seen[at] = signature(server.run_query(queries[at], suggest=True))
            results[slot] = [seen[at] for at in range(len(queries))]
        except Exception as error:  # noqa: BLE001 — reported by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for slot in range(n_threads):
        assert results[slot] == serial, f"thread {slot}"
