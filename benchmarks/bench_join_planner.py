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

``--json PATH`` writes the machine-readable results consumed by CI.

Run:  PYTHONPATH=src python benchmarks/bench_join_planner.py [--quick] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.data import DatasetConfig, build_dataset
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.trace import Tracer

#: Gate: maximum traced/untraced wall-time ratio on the batch path.
#: Tracing off costs one ``is None`` test per operator; tracing on adds
#: span bookkeeping per batch pull — both must stay inside 5%.
MAX_TRACE_OVERHEAD = 1.05

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


def _time_best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(repeat: int, json_path: Optional[str] = None) -> int:
    # Medium: the per-batch span bookkeeping only becomes measurable
    # once result sets reach a few thousand rows.
    store = build_dataset(DatasetConfig.medium()).store
    queries = [parse_query(text) for texts in SHAPES.values() for text in texts]
    tracing, tracing_ok = run_tracing_section(store, queries, repeat)
    if json_path:
        payload = {
            "benchmark": "join_planner",
            "dataset": {"scale": "medium", "triples": len(store)},
            "tracing": tracing,
            "tracing_gate": {
                "max_overhead": MAX_TRACE_OVERHEAD,
                "pass": tracing_ok,
            },
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nresults written to {json_path}")
    if not tracing_ok:
        print("REGRESSION: tracing overhead above the gate")
        return 1
    return 0


def run_tracing_section(store, queries, repeat: int) -> Tuple[Dict, bool]:
    """EXPLAIN ANALYZE overhead on the hot batch path, best of ``repeat``."""
    evaluator = QueryEvaluator(store)

    def run_untraced():
        for query in queries:
            evaluator.evaluate(query)

    def run_traced():
        for query in queries:
            evaluator.evaluate(query, tracer=Tracer())

    # The whole timed section is ~10ms per pass, so a single scheduler
    # hiccup flips a 5% gate: warm both paths (plan cache, allocator),
    # then take the best of at least ten.
    run_untraced()
    run_traced()
    repeat = max(repeat, 10)
    off_s = _time_best(run_untraced, repeat)
    on_s = _time_best(run_traced, repeat)
    ratio = on_s / off_s if off_s else float("inf")
    ok = ratio <= MAX_TRACE_OVERHEAD
    print(f"\ntracing overhead (memory backend, {len(queries)} queries, "
          f"best of {repeat})")
    print(f"  untraced {off_s:.4f}s   traced {on_s:.4f}s   "
          f"ratio {ratio:.3f}x  {'ok' if ok else 'FAIL'}")
    print(f"tracing gate: traced/untraced <= {MAX_TRACE_OVERHEAD:.2f}x: "
          f"{'ok' if ok else 'FAIL'}")
    return {"untraced_s": off_s, "traced_s": on_s, "ratio": ratio}, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="accepted for CI symmetry; the gate needs its "
                             "full best-of count either way")
    parser.add_argument("--repeat", type=int, default=10,
                        help="timing repetitions (best-of, at least 10)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH")
    args = parser.parse_args(argv)
    return run(args.repeat, args.json)


if __name__ == "__main__":
    sys.exit(main())
