"""Section 5's crawl against a golden captured from the four-walk crawl.

For each case the initializer's queries are recorded in the order it
sends them; the golden (``tests/crawl_golden.json``) holds a sha256 over
their texts, the report counters ``(total, setup, literal, significance,
timeouts)``, ``stages_completed``, ``used_class_hierarchy`` and the
indexed cache's ``stats()``.  The cases reach every branch of the walk:
the class hierarchy at the defaults, timeouts that make it descend to
subclasses, a query budget that cuts it off, and a dataset without
``rdfs:subClassOf`` triples, which walks Q3's entity types instead.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import EndpointConfig, SapphireConfig, SparqlEndpoint
from repro.core import initialize_endpoint
from repro.data import DatasetConfig, build_dataset
from repro.rdf.namespaces import RDFS_SUBCLASSOF
from repro.store import TripleStore

GOLDEN = Path(__file__).with_name("crawl_golden.json")

#: name -> (scale, EndpointConfig settings, SapphireConfig settings, keep subClassOf)
CASES = {
    "tiny": ("tiny", {}, {}, True),
    "tiny_timeouts": ("tiny", {"timeout_s": 0.02},
                      {"page_size": 50, "significant_page_size": 20}, True),
    "tiny_limit": ("tiny", {}, {"init_query_limit": 40}, True),
    "tiny_no_hierarchy": ("tiny", {}, {}, False),
    "small": ("small", {}, {}, True),
}


def crawl(name):
    """What one case's crawl sent and built, as the golden records it."""
    scale, endpoint_settings, settings, keep_hierarchy = CASES[name]
    store = build_dataset(getattr(DatasetConfig, scale)()).store
    if not keep_hierarchy:
        flat = TripleStore()
        flat.add_all(t for t in store.triples() if t.predicate != RDFS_SUBCLASSOF)
        store = flat
    endpoint = SparqlEndpoint(store, EndpointConfig(**endpoint_settings), name=name)
    sent = []
    select = endpoint.select

    def recording_select(query, *args, **kwargs):
        sent.append(query)
        return select(query, *args, **kwargs)

    endpoint.select = recording_select
    cache, report = initialize_endpoint(endpoint, SapphireConfig(**settings))
    return {
        "queries": len(sent),
        "sha256": hashlib.sha256("\0".join(sent).encode("utf-8")).hexdigest(),
        "counters": [report.total_queries, report.n_setup_queries, report.n_literal_queries,
                     report.n_significance_queries, report.n_timeouts],
        "stages_completed": report.stages_completed,
        "used_class_hierarchy": report.used_class_hierarchy,
        "cache_stats": cache.stats(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_crawl_equals_its_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert crawl(name) == golden[name]


def test_the_cases_reach_descent_budget_and_types():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["tiny_timeouts"]["counters"][4] > 0
    assert golden["tiny_limit"]["counters"][0] == 40
    assert golden["tiny_no_hierarchy"]["used_class_hierarchy"] is False


if __name__ == "__main__":  # re-capture: PYTHONPATH=src python tests/test_crawl_golden.py
    GOLDEN.write_text(json.dumps({name: crawl(name) for name in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
