#!/usr/bin/env python3
"""Encoded-store benchmark: dictionary IDs vs seed-style term keys.

Compares three storage engines on the hot paths of the interactive loop:

* ``seed-terms`` — a faithful inline copy of the pre-encoding store
  (three nested dicts keyed by whole term objects) driven by the seed's
  backtracking join, kept here as the baseline,
* ``encoded-memory`` — the dictionary-encoded in-memory backend (SPO /
  POS / OSP as clustered ``array('q')`` columns) behind today's
  :class:`~repro.store.TripleStore`,
* ``encoded-sqlite`` — the same store on the persistent SQLite backend.

Three workloads, each over the eight triple-pattern shapes probed with
constants sampled from the data:

* **match(ids)** — enumerate matching rows the way the query engine
  consumes them.  The encoded stores stream integer ID rows
  (``match_ids``); the seed store has no ID representation, so its
  native row *is* the materialized triple — that asymmetry is precisely
  the point of dictionary encoding.
* **match(terms)** — force full term materialization (``match``) on
  every engine; bounds the decode overhead of the encoded stores.
* **join** — multi-pattern BGPs through each engine's join loop.

Row counts are asserted equal across engines before any timing is
reported, so a speedup can never come from silently matching less.

Run:  PYTHONPATH=src python benchmarks/bench_store_encoding.py [--quick]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.data import DatasetConfig, build_dataset
from repro.rdf import Triple, TriplePattern, Variable
from repro.rdf.terms import Term, is_concrete
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.store import MemoryBackend, SQLiteBackend, TripleStore

V = Variable

JOIN_QUERIES = [
    'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
    "SELECT ?s ?n WHERE { ?s a dbo:Person . ?s foaf:surname ?n }",
    "SELECT ?s ?c WHERE { ?s dbo:birthPlace ?c . ?c a dbo:City }",
    "SELECT ?a ?b WHERE { ?a dbo:spouse ?b . ?b dbo:almaMater ?u }",
]


class SeedTermStore:
    """The pre-encoding store: SPO/POS/OSP dicts keyed by term objects."""

    def __init__(self, triples) -> None:
        self._spo: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._pos: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._osp: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._size = 0
        for triple in triples:
            objects = self._spo[triple.subject][triple.predicate]
            if triple.object not in objects:
                objects.add(triple.object)
                self._pos[triple.predicate][triple.object].add(triple.subject)
                self._osp[triple.object][triple.subject].add(triple.predicate)
                self._size += 1

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        s = pattern.subject if is_concrete(pattern.subject) else None
        p = pattern.predicate if is_concrete(pattern.predicate) else None
        o = pattern.object if is_concrete(pattern.object) else None
        if s is not None and p is not None and o is not None:
            if o in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, o)
        elif s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj)
        elif p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
        elif s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
                yield Triple(s, pred, o)
        elif s is not None:
            for pred, objects in self._spo.get(s, {}).items():
                for obj in objects:
                    yield Triple(s, pred, obj)
        elif p is not None:
            for obj, subjects in self._pos.get(p, {}).items():
                for subj in subjects:
                    yield Triple(subj, p, obj)
        elif o is not None:
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, o)
        else:
            for s_, by_p in self._spo.items():
                for p_, objects in by_p.items():
                    for o_ in objects:
                        yield Triple(s_, p_, o_)

    def solve(self, patterns: List[TriplePattern]) -> Iterator[dict]:
        """The seed evaluator's backtracking join (bind + match + extend)."""

        def backtrack(index: int, binding: dict) -> Iterator[dict]:
            if index == len(patterns):
                yield binding
                return
            pattern = patterns[index].bind(binding)
            for triple in self.match(pattern):
                extension = pattern.match(triple)
                if extension is None:
                    continue
                merged = dict(binding)
                merged.update(extension)
                yield from backtrack(index + 1, merged)

        yield from backtrack(0, {})


def _sample_patterns(triples: List[Triple], n: int, seed: int) -> List[TriplePattern]:
    rng = random.Random(seed)
    shapes = [
        lambda t: TriplePattern(t.subject, t.predicate, t.object),
        lambda t: TriplePattern(t.subject, t.predicate, V("o")),
        lambda t: TriplePattern(V("s"), t.predicate, t.object),
        lambda t: TriplePattern(t.subject, V("p"), t.object),
        lambda t: TriplePattern(t.subject, V("p"), V("o")),
        lambda t: TriplePattern(V("s"), t.predicate, V("o")),
        lambda t: TriplePattern(V("s"), V("p"), t.object),
    ]
    return [shapes[i % len(shapes)](rng.choice(triples)) for i in range(n)]


def _match_ids_workload(store: TripleStore, patterns: List[TriplePattern]) -> int:
    """Enumerate ID rows for every pattern — no term materialization."""
    total = 0
    for pattern in patterns:
        s, p, o = (
            entry if isinstance(entry, int) else None
            for entry in store.encode_pattern(pattern)
        )
        total += sum(1 for _ in store.match_ids(s, p, o))
    return total


def _time_best(fn, repeat: int) -> Tuple[float, int]:
    best, rows = float("inf"), 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        rows = fn()
        best = min(best, time.perf_counter() - t0)
    return best, rows


def run(scale: str, n_patterns: int, repeat: int, seed: int = 42) -> int:
    config = DatasetConfig.tiny() if scale == "tiny" else DatasetConfig.small()
    dataset = build_dataset(config)
    triples = list(dataset.store.triples())
    patterns = _sample_patterns(triples, n_patterns, seed)
    parsed = [parse_query(q) for q in JOIN_QUERIES]

    seed_store = SeedTermStore(triples)
    encoded = TripleStore(triples, backend=MemoryBackend())
    persistent = TripleStore(triples, backend=SQLiteBackend(":memory:"))

    engines = [
        # (name, match-by-ids, match-with-terms, join)
        ("seed-terms",
         lambda: sum(1 for p in patterns for _ in seed_store.match(p)),
         lambda: sum(1 for p in patterns for _ in seed_store.match(p)),
         lambda: sum(1 for q in parsed for _ in seed_store.solve(list(q.where.patterns)))),
        ("encoded-memory",
         lambda: _match_ids_workload(encoded, patterns),
         lambda: sum(1 for p in patterns for _ in encoded.match(p)),
         lambda: sum(len(QueryEvaluator(encoded).evaluate(q).rows)
                     for q in parsed)),
        ("encoded-sqlite",
         lambda: _match_ids_workload(persistent, patterns),
         lambda: sum(1 for p in patterns for _ in persistent.match(p)),
         lambda: sum(len(QueryEvaluator(persistent).evaluate(q).rows)
                     for q in parsed)),
    ]

    # Parity gate: identical row counts everywhere before timing anything.
    id_counts = {name: ids() for name, ids, _, _ in engines}
    term_counts = {name: terms() for name, _, terms, _ in engines}
    join_counts = {name: join() for name, _, _, join in engines}
    if len({*id_counts.values(), *term_counts.values()}) != 1 or \
            len(set(join_counts.values())) != 1:
        print(f"PARITY FAILURE: ids={id_counts} terms={term_counts} join={join_counts}")
        return 1

    print(f"dataset: {scale} ({len(triples):,} triples), "
          f"{n_patterns} sampled patterns, {len(JOIN_QUERIES)} join queries, "
          f"best of {repeat}")
    print(f"parity: {id_counts['seed-terms']:,} matched rows, "
          f"{join_counts['seed-terms']:,} join rows — identical across engines\n")

    header = (f"{'engine':<16} {'ids_s':>8} {'ids_x':>7} {'terms_s':>8} "
              f"{'terms_x':>7} {'join_s':>8} {'join_x':>7}")
    print(header)
    print("-" * len(header))
    baseline: Optional[Tuple[float, float, float]] = None
    speedups = {}
    for name, ids, terms, join in engines:
        ids_s, _ = _time_best(ids, repeat)
        terms_s, _ = _time_best(terms, repeat)
        join_s, _ = _time_best(join, repeat)
        if baseline is None:
            baseline = (ids_s, terms_s, join_s)
        ids_x, terms_x, join_x = (
            b / t if t else float("inf")
            for b, t in zip(baseline, (ids_s, terms_s, join_s))
        )
        speedups[name] = (ids_x, terms_x, join_x)
        print(f"{name:<16} {ids_s:>8.4f} {ids_x:>6.2f}x {terms_s:>8.4f} "
              f"{terms_x:>6.2f}x {join_s:>8.4f} {join_x:>6.2f}x")

    persistent.close()
    ids_x, terms_x, join_x = speedups["encoded-memory"]
    print(f"\nencoded-memory vs seed: match(ids) {ids_x:.2f}x, "
          f"match(terms) {terms_x:.2f}x, join {join_x:.2f}x "
          f"(gate: ids >= 1x and join >= 1x; target: >= 2x)")
    if ids_x < 1.0 or join_x < 1.0:
        print("REGRESSION: encoded store slower than the seed baseline")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny dataset, 100 patterns, best of 2 (CI smoke "
                             "run); default: small, 400 patterns, best of 3")
    if parser.parse_args(argv).quick:
        return run("tiny", n_patterns=100, repeat=2)
    return run("small", n_patterns=400, repeat=3)


if __name__ == "__main__":
    sys.exit(main())
