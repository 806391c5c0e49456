"""A repair round proves each position once and plans each scan once,
and nothing it returns or builds may change for it.

* **Proof parity.**  ``QueryService.unproven(patterns, index, position,
  candidates)`` answers for a whole probe position at once.  For every
  (query, position, candidates) of the 156 repair rounds it must keep
  exactly the candidates whose one-change BGP the per-candidate boolean
  ``proves_no_match`` does not prove empty, and those the proof rules as
  they stood per candidate (:func:`reference_proves`, below) keep — on a
  memory store, SQLite ``:memory:``, a 2-shard store and a 2-member
  federation, whose rule is ``any(all(member proves [pattern]))``.
* **Plan golden.**  A sha256 over the EXPLAIN text of every plan the 156
  rounds build on ``memory_server`` (``tests/round_plans.json``, captured
  before a scan was encoded once and estimated from its own IDs), so
  that a change to encoding or estimates that reorders a join fails.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EndpointConfig, SparqlEndpoint
from repro.federation.fedx import FederatedQueryProcessor
from repro.rdf import Triple, Variable
from repro.sparql.parser import parse_query
from repro.sparql.plan import QueryPlanner, explain_plan
from repro.store import TripleStore
from repro.store.dictionary import NO_ID
from repro.store.sharded import create_sharded_backend
from repro.store.sqlite_backend import SQLiteBackend

# memory_server is a fixture: the parity test's in-memory cache.
from test_qsm_parity import memory_server, repair_queries  # noqa: F401
from test_store_stats import _NODES, _PREDICATES, _STORES, _UNSEEN, _bgps, _filled, _graphs

GOLDEN = Path(__file__).with_name("round_plans.json")


def reference_proves(store, patterns):
    """The proof rules per candidate BGP, written out once more: a
    pattern with a term the store never saw or that nothing matches, or
    a subject star no characteristic set holds; an empty summary proves
    nothing."""
    summary = store.characteristic_sets()
    if not summary.n_sets:
        return False
    stars, ranges = {}, []
    for pattern in patterns:
        s, p, o = store.encode_pattern(pattern)
        if NO_ID in (s, p, o):
            return True
        if isinstance(s, str) and isinstance(p, int):
            stars.setdefault(s, set()).add(p)
            if isinstance(o, str):
                continue
        ranges.append(tuple(entry if isinstance(entry, int) else None for entry in (s, p, o)))
    if any(not summary.holds(star) for star in stars.values()):
        return True
    return not all(store.backend.has_match(*ids) for ids in ranges)


def variant(patterns, index, position, term):
    changed = list(patterns)
    changed[index] = replace(changed[index], **{position: term})
    return changed


@pytest.fixture(scope="module")
def services(tiny_dataset):
    """The four ways to serve the tiny data, each with its reference."""
    triples = list(tiny_dataset.store.triples())

    def endpoint(backend=None, rows=triples, name="endpoint"):
        store = TripleStore(backend=backend)
        store.add_all(rows)
        return SparqlEndpoint(store, EndpointConfig(timeout_s=5.0), name=name)

    members = [endpoint(rows=triples[0::2], name="even"), endpoint(rows=triples[1::2], name="odd")]

    def single(service):
        return lambda patterns: reference_proves(service.store, patterns)

    def split(patterns):
        return any(all(reference_proves(member.store, [pattern]) for member in members)
                   for pattern in patterns)

    built = {
        "memory": endpoint(),
        "sqlite": endpoint(SQLiteBackend(":memory:")),
        "sharded": endpoint(create_sharded_backend(2, "memory")),
    }
    yield {
        **{name: (service, single(service)) for name, service in built.items()},
        "federation": (FederatedQueryProcessor(members), split),
    }
    for service in list(built.values()) + members:
        service.store.close()


@pytest.fixture(scope="module")
def round_positions(memory_server):
    """Every (patterns, index, position, candidates) the 156 rounds probe."""
    finder = memory_server.terms_finder
    found = []
    for text in repair_queries():
        query = parse_query(text)
        for index, position, _, entries in finder.candidate_positions(query):
            found.append((query.where.patterns, index, position,
                          [entry.term for entry, _ in entries]))
    return found


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded", "federation"])
def test_one_proof_per_position_keeps_what_each_candidate_keeps(kind, services, round_positions):
    service, reference = services[kind]
    dropped = kept = 0
    for patterns, index, position, candidates in round_positions:
        batch = service.unproven(patterns, index, position, candidates)
        one_by_one = [term for term in candidates
                      if not service.proves_no_match(variant(patterns, index, position, term))]
        by_reference = [term for term in candidates
                        if not reference(variant(patterns, index, position, term))]
        assert batch == one_by_one == by_reference, (patterns, index, position)
        kept += len(batch)
        dropped += len(candidates) - len(batch)
    assert kept > 100 and dropped > 1000  # both outcomes are exercised


@pytest.mark.parametrize("kind", sorted(_STORES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_unproven_matches_the_rules_on_any_bgp(kind, data):
    """Random graphs and BGPs, any position, candidates the graph holds
    or not, variables among them: the batch equals the rules per
    candidate, an empty summary included."""
    graph = data.draw(st.one_of(st.just([]), _graphs))
    patterns = data.draw(_bgps(graph or [Triple(_NODES[0], _PREDICATES[0], _NODES[1])]))
    index = data.draw(st.integers(0, len(patterns) - 1))
    position = data.draw(st.sampled_from(["subject", "predicate", "object"]))
    candidates = data.draw(st.lists(
        st.sampled_from(_NODES + _PREDICATES + [_UNSEEN, Variable("a"), Variable("z")]),
        max_size=6))
    store = _filled(kind, graph)
    try:
        expected = [term for term in candidates
                    if not reference_proves(store, variant(patterns, index, position, term))]
        assert store.unproven(patterns, index, position, candidates) == expected
    finally:
        store.close()


def round_plan_texts(sapphire, monkeypatch):
    """The EXPLAIN text of every plan the 156 rounds build, in order
    (from an empty plan cache, so that what is planned and what is
    reused does not depend on the tests before)."""
    texts = []
    plan = QueryPlanner.plan

    def recording(self, group, budget=None):
        built = plan(self, group, budget)
        texts.append(explain_plan(built))
        return built

    monkeypatch.setattr(QueryPlanner, "plan", recording)
    for endpoint in sapphire.endpoints:
        endpoint._evaluator._plan_cache.clear()
    for text in repair_queries():
        sapphire.run_query(text, suggest=True)
    return texts


def test_round_plans_equal_their_golden(memory_server, monkeypatch):
    texts = round_plan_texts(memory_server, monkeypatch)
    digest = hashlib.sha256("\n\n".join(texts).encode("utf-8")).hexdigest()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {"plans": len(texts), "sha256": digest} == golden
