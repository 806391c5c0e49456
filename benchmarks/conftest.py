"""Shared benchmark fixtures.

The benchmarks reproduce the paper's tables and figures; each prints the
rows/series the paper reports (visible in the pytest-benchmark run via
``-s`` or in ``bench_output.txt``) and times the underlying computation
with pytest-benchmark.

Two dataset scales are provided: ``small`` (the default experiment
substrate, ~50k triples) and ``tiny`` (for the interaction-heavy
harnesses like the user study).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

import pytest

from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.data import DatasetConfig, build_dataset


def bench_main(bench_file: str, argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for the pytest-benchmark suites.

    Every ``bench_*.py`` in this directory is runnable directly
    (``python benchmarks/bench_qsm.py``); ``--quick`` disables the
    pytest-benchmark timing rounds so CI can smoke the full suite in
    seconds — each scenario still executes once and all its report
    assertions still run.
    """
    parser = argparse.ArgumentParser(
        description="Run this benchmark file through pytest."
    )
    parser.add_argument("--quick", action="store_true",
                        help="single pass, no timing rounds (CI smoke run)")
    parser.add_argument("-k", default=None, metavar="EXPR",
                        help="pytest -k selection expression")
    args = parser.parse_args(argv)
    pytest_args = [bench_file, "-q"]
    if args.quick:
        pytest_args.append("--benchmark-disable")
    if args.k:
        pytest_args.extend(["-k", args.k])
    return pytest.main(pytest_args)


@pytest.fixture(scope="session")
def small_dataset():
    return build_dataset(DatasetConfig.small())


@pytest.fixture(scope="session")
def tiny_dataset():
    return build_dataset(DatasetConfig.tiny())


@pytest.fixture(scope="session")
def small_server(small_dataset):
    endpoint = SparqlEndpoint(
        small_dataset.store, EndpointConfig(timeout_s=1.0), name="dbpedia-mini"
    )
    server = SapphireServer(SapphireConfig(suffix_tree_capacity=2000))
    server.register_endpoint(endpoint)
    return server


@pytest.fixture(scope="session")
def tiny_server(tiny_dataset):
    endpoint = SparqlEndpoint(
        tiny_dataset.store, EndpointConfig(timeout_s=1.0), name="dbpedia-tiny"
    )
    server = SapphireServer(SapphireConfig(suffix_tree_capacity=500))
    server.register_endpoint(endpoint)
    return server


def emit(title: str, body: str) -> None:
    """Print a report block (survives pytest capture in the tee'd log)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n", flush=True)
