#!/usr/bin/env python3
"""Tracing-overhead gate for the batch executor.

Times star, chain, bound-object large-scan, OPTIONAL, GROUP BY / ORDER
BY, cyclic and regex-FILTER queries (the operators of the spine's
``sparql_analytic`` shapes) on the medium in-memory dataset with no
tracer (the default — one ``is None`` test per
operator) against a fresh :class:`~repro.sparql.trace.Tracer` per
query.  Gate: traced/untraced <= MAX_TRACE_OVERHEAD.

Absolute evaluation latency is recorded by the benchmark spine
(``benchmarks/spine``, workload ``sparql_analytic``); this script holds
no comparison against another engine.

Run:  PYTHONPATH=src python benchmarks/bench_join_planner.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Tuple

from repro.data import DatasetConfig, build_dataset
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.trace import Tracer

#: Gate: maximum traced/untraced wall-time ratio on the batch path.
#: Tracing off costs one ``is None`` test per operator; tracing on adds
#: span bookkeeping per batch pull — both must stay inside 5%.
MAX_TRACE_OVERHEAD = 1.05

#: Best of this many passes per side: the whole timed section is tens
#: of milliseconds a pass, so a single scheduler hiccup would flip a 5%
#: gate.  The passes interleave (one of each side per round, the order
#: alternating), so a change in machine speed during the run reaches
#: both sides alike instead of the block that ran through it.
REPEAT = 10

#: Shape -> queries.  Stars fan out from one subject variable, chains
#: hop subject->object->subject.
SHAPES: Dict[str, List[str]] = {
    "star": [
        "SELECT ?s ?n ?g WHERE { ?s foaf:surname ?n . ?s foaf:givenName ?g . ?s dbo:birthDate ?d }",
        "SELECT * WHERE { ?s a dbo:Person . ?s foaf:name ?n . ?s dbo:birthDate ?d . ?s dbo:birthPlace ?c }",
        "SELECT * WHERE { ?s foaf:name ?n . ?s foaf:givenName ?g . ?s foaf:surname ?f . "
        "?s dbo:birthDate ?d . ?s dbo:birthPlace ?c }",
    ],
    "chain": [
        "SELECT ?p ?k WHERE { ?p dbo:birthPlace ?c . ?c dbo:country ?k }",
        "SELECT ?b ?k WHERE { ?b dbo:author ?a . ?a dbo:birthPlace ?c . ?c dbo:country ?k }",
        "SELECT ?f ?n WHERE { ?f dbo:starring ?p . ?p foaf:name ?n }",
    ],
    "large_scan": [
        "SELECT ?s WHERE { ?s a dbo:Person }",
        "SELECT ?s ?p WHERE { ?s ?p dbo:Person }",
        "SELECT ?s ?n WHERE { ?s foaf:name ?n }",
    ],
    # Outer bind and outer hash join (the second has no selective base).
    "optional": [
        'SELECT ?s ?g ?u WHERE { ?s foaf:surname "Kennedy"@en . ?s foaf:givenName ?g '
        "OPTIONAL { ?s dbo:almaMater ?u } }",
        "SELECT ?s ?n ?w WHERE { ?s a dbo:Person . ?s foaf:name ?n OPTIONAL { ?s dbo:spouse ?w } }",
    ],
    # The columnar tail: its span wraps grouping, counting and the sort.
    "group_order": [
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s rdf:type dbo:Person . ?s dbo:birthPlace ?c } "
        "GROUP BY ?c ORDER BY DESC(?n) LIMIT 20",
        "SELECT ?n ?d WHERE { ?s foaf:name ?n . ?s dbo:birthDate ?d } ORDER BY DESC(?d) ?n LIMIT 50",
    ],
    # The multi-key semi-join closing the cycle on (?b, ?c).
    "cyclic": [
        "SELECT ?a ?b ?c WHERE { ?a dbo:spouse ?b . ?a dbo:birthPlace ?c . ?b dbo:birthPlace ?c . "
        "?a rdf:type dbo:Person }",
    ],
    # The one-slot column filter.
    "regex_filter": [
        'SELECT ?s ?n WHERE { ?s foaf:surname ?n FILTER (regex(?n, "^K")) }',
    ],
}


def _time_best_interleaved(first, second, repeat: int) -> Tuple[float, float]:
    """Best-of-``repeat`` seconds of ``first`` and of ``second``, timed
    one of each per round, first-then-second and second-then-first in
    turn."""
    best = [float("inf"), float("inf")]
    for round_ in range(repeat):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            fn = first if side == 0 else second
            t0 = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="accepted like every benchmark script's; the "
                             "gate needs its full best-of count either way")
    parser.parse_args(argv)
    # Medium: the per-batch span bookkeeping only becomes measurable
    # once result sets reach a few thousand rows.
    store = build_dataset(DatasetConfig.medium()).store
    queries = [parse_query(text) for texts in SHAPES.values() for text in texts]
    evaluator = QueryEvaluator(store)

    def run_untraced():
        for query in queries:
            evaluator.evaluate(query)

    def run_traced():
        for query in queries:
            evaluator.evaluate(query, tracer=Tracer())

    # Warm both paths (plan cache, allocator) before timing.
    run_untraced()
    run_traced()
    off_s, on_s = _time_best_interleaved(run_untraced, run_traced, REPEAT)
    ratio = on_s / off_s if off_s else float("inf")
    ok = ratio <= MAX_TRACE_OVERHEAD
    print(f"\ntracing overhead (memory backend, {len(queries)} queries, "
          f"best of {REPEAT} interleaved)")
    print(f"  untraced {off_s:.4f}s   traced {on_s:.4f}s   "
          f"ratio {ratio:.3f}x  {'ok' if ok else 'FAIL'}")
    print(f"tracing gate: traced/untraced <= {MAX_TRACE_OVERHEAD:.2f}x: "
          f"{'ok' if ok else 'FAIL'}")
    if not ok:
        print("REGRESSION: tracing overhead above the gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
