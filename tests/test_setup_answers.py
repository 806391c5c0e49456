"""Section 5's set-up queries answer as they did before counting joins
and attribute filters: a golden of every answer, and Section 5's report
where timeouts fire.

``tests/setup_answers_golden.json`` holds, for every query the crawl
sends at ``tiny``, ``small`` and ``medium`` — federated on a default
endpoint, warehouse on an unconstrained one — a sha256 of the query
text, a sha256 of its rows in order (each row its projected cells in
N-Triples form) and its ``cost``, or ``"timeout"``.  It was captured on
the engine that enumerated every incoming edge for Q8's
``COUNT(?subject)`` and decoded every label for the literal filters;
regenerate it with ``PYTHONPATH=src python tests/test_setup_answers.py``
only on purpose.

``bench_initialization.py`` runs the crawl at ``small`` under a
0.045 s endpoint at 20k units/s, where Q6/Q8 pages time out and the
crawl descends.  Its report counters are pinned here
(``REPORT_SMALL``), so a change to what a query charges the meter shows
as a changed descent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import EndpointConfig, SapphireConfig, SparqlEndpoint
from repro.core import initialize_endpoint
from repro.data import DatasetConfig, build_dataset
from repro.endpoint import EndpointTimeout

GOLDEN = Path(__file__).with_name("setup_answers_golden.json")

SCALES = ("tiny", "small", "medium")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def crawl_answers(store, warehouse: bool) -> list:
    """``[query sha, rows sha, cost]`` per query the crawl sends, in order
    (``[query sha, "timeout"]`` for a query that timed out)."""
    config = EndpointConfig.warehouse() if warehouse else EndpointConfig()
    endpoint = SparqlEndpoint(store, config, name="golden")
    answers = []
    select = endpoint.select

    def recording_select(query, *args, **kwargs):
        try:
            result = select(query, *args, **kwargs)
        except EndpointTimeout:
            answers.append([_sha(query), "timeout"])
            raise
        rows = "\n".join(
            "\t".join(row[name].n3() if name in row else "" for name in result.variables)
            for row in result.rows
        )
        answers.append([_sha(query), _sha(rows), result.cost])
        return result

    endpoint.select = recording_select
    initialize_endpoint(endpoint, SapphireConfig(), warehouse=warehouse)
    return answers


def capture(scales=SCALES) -> dict:
    golden = {}
    for scale in scales:
        store = build_dataset(getattr(DatasetConfig, scale)()).store
        for warehouse in (False, True):
            name = f"{scale}_{'warehouse' if warehouse else 'federated'}"
            golden[name] = crawl_answers(store, warehouse)
    return golden


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(DatasetConfig.small())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scale", SCALES)
def test_every_setup_answer_and_cost_equals_its_golden(scale, golden):
    assert capture([scale]) == {
        name: answers for name, answers in golden.items() if name.startswith(scale + "_")
    }


def test_the_golden_covers_every_stage(golden):
    assert len(golden["medium_federated"]) == 91
    assert all(len(entry) == 3 for entry in golden["medium_federated"])
    assert len(golden["medium_warehouse"]) == 4


#: ``bench_initialization.py``'s ``small`` report, federated under its
#: 0.045 s, 20k units/s endpoint and warehouse: queries per stage
#: (set-up, literal, significance), timeouts, stages completed and the
#: simulated endpoint seconds.
REPORT_SMALL = {
    "federated": {"queries": [17, 70, 78], "timeouts": 19, "simulated_s": 10.77485,
                  "stages": ["predicates", "hierarchy", "probes", "literals", "significance"]},
    "warehouse": {"queries": [2, 1, 1], "timeouts": 0, "simulated_s": 1.67465,
                  "stages": ["predicates", "hierarchy", "literals", "significance"]},
}


def section5_report(dataset, warehouse: bool) -> dict:
    if warehouse:
        config = EndpointConfig.warehouse()
    else:
        config = EndpointConfig(timeout_s=0.045, cost_units_per_second=20_000)
    endpoint = SparqlEndpoint(dataset.store, config, name="bench")
    _, report = initialize_endpoint(
        endpoint, SapphireConfig(suffix_tree_capacity=800), warehouse=warehouse
    )
    return {
        "queries": [report.n_setup_queries, report.n_literal_queries,
                    report.n_significance_queries],
        "timeouts": report.n_timeouts,
        "stages": report.stages_completed,
        "simulated_s": round(report.simulated_seconds, 6),
    }


@pytest.mark.parametrize("architecture", sorted(REPORT_SMALL))
def test_section5_report_where_timeouts_fire(small_dataset, architecture):
    assert section5_report(small_dataset, architecture == "warehouse") == REPORT_SMALL[architecture]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
    small = build_dataset(DatasetConfig.small())
    for architecture in sorted(REPORT_SMALL):  # REPORT_SMALL's values, to paste by hand
        print(architecture, section5_report(small, architecture == "warehouse"))
