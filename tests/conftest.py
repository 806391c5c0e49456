"""Shared fixtures.

Session-scoped fixtures build the synthetic dataset and a fully
initialized Sapphire server once; tests that need to mutate state build
their own small stores instead.
"""

from __future__ import annotations

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.data import DatasetConfig, build_dataset
from repro.sparql.evaluator import QueryEvaluator, finalize_solutions
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult
from repro.sparql.trace import Tracer
from repro.store import CostMeter


class _TermSpaceOnly(QueryEvaluator):
    """A planner that declines every group, so nested groups (UNION
    branches, MINUS) reach the term-space solver too."""

    def _plan_group(self, group, budget, tracer=None):
        return None


@pytest.fixture(scope="session")
def reference_evaluate():
    """``reference_evaluate(store, query, meter=None)``: the executable
    reference semantics the batch engine is checked against — the
    term-space solver for the WHERE group, then ``finalize_solutions``
    over the materialized solutions; no plan operator, no batch, no
    streaming pagination.  (A fixture, not an import: a bare root
    ``pytest`` also loads ``benchmarks/conftest.py`` as ``conftest``.)"""

    def evaluate(store, query, meter=None):
        parsed = parse_query(query) if isinstance(query, str) else query
        meter = meter or CostMeter()
        reference = _TermSpaceOnly(store)
        solutions = list(reference._solve_group(parsed.where, {}, meter))
        if parsed.form == "ASK":
            return AskResult(bool(solutions), cost=meter.cost)
        return finalize_solutions(reference, parsed, solutions, cost=meter.cost)

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
    sapphire = SapphireServer(SapphireConfig(suffix_tree_capacity=500, processes=2))
    sapphire.register_endpoint(endpoint)
    return sapphire


@pytest.fixture(scope="session")
def cache(server):
    return server.cache
