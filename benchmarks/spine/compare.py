"""Compare two sets of spine runs.

    python benchmarks/spine/compare.py A B

``A`` (the parent) and ``B`` (the change) are result files written by
``run.py``, or directories of them.  One row per (workload, end-to-end
metric): both medians with their quartiles, the bound from
BENCHMARK.json, and a verdict

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — B wins at least 9 of every 10 pairs (i-th run of A
  against i-th run of B, at least 10 pairs) and the medians differ by
  more than A's own quartile spread;
* ``unresolved`` — the run-to-run spread of either side exceeds the
  bound (unless every run of one side beats every run of the other), or
  a win that has fewer than 10 pairs behind it;
* ``same``       — otherwise.

``failed_share`` has a row of its own: BENCHMARK.json cannot hold it (its
bounds are relative, and the share is 0), so the bound here is ISSUE 11's
absolute +0.005.

Beneath each row: the per-layer metrics (from traced runs, if both sides
have them) that README.md's layer table says should explain it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

FAILED_SHARE_BOUND = 0.005

#: (per-layer metric prefix, end-to-end metric, workload): which number
#: each layer should move, written down before measuring (README.md).
EXPLAINS: Tuple[Tuple[str, str, str], ...] = (
    ("data.build_s", "setup_s", "*"),
    ("store.load_s", "setup_s", "replica_mix"),
    ("store.snapshot_bytes_per_triple", "setup_s", "replica_mix"),
    ("store.match_columns_us_per_row.memory", "sparql_p50_ms", "sparql_analytic"),
    ("store.match_columns_us_per_row.sqlite", "sparql_p50_ms", "replica_mix"),
    ("store.match_columns_us_per_row.sharded", "sparql_p50_ms", "replica_mix"),
    ("sparql.", "sparql_p50_ms", "sparql_analytic"),
    ("endpoint.", "sparql_p50_ms", "sparql_analytic"),
    ("federation.", "sparql_p50_ms", "sparql_analytic"),
    ("federation.", "suggest_fix_p50_ms", "qsm_repair"),
    ("text.similarity.", "suggest_fix_p50_ms", "qsm_repair"),
    ("text.suffix_tree.search_us", "complete_p50_ms", "replica_mix"),
    ("text.term_index.", "complete_p50_ms", "replica_mix"),
    ("text.suffix_tree.build_s", "setup_s", "session_mix"),
    ("core.initialization.", "setup_s", "session_mix"),
    ("core.persistence.", "setup_s", "replica_mix"),
    ("core.qcm.", "complete_p50_ms", "replica_mix"),
    ("core.cache.", "complete_p50_ms", "replica_mix"),
    ("core.qsm_", "suggest_fix_p50_ms", "qsm_repair"),
    ("core.sapphire.", "suggest_fix_p50_ms", "qsm_repair"),
    ("core.qsm_", "throughput_rps", "session_mix"),
    ("client.complete_p95_ms", "throughput_rps", "session_mix"),
    ("net.formats.", "sparql_p50_ms", "sparql_analytic"),
    ("net.http.overhead_ms.complete", "complete_p50_ms", "session_mix"),
    ("net.wsgi.self_ms.complete", "complete_p50_ms", "session_mix"),
    ("net.concurrency_penalty", "throughput_rps", "session_mix"),
    ("net.concurrency_penalty", "throughput_rps", "replica_mix"),
    ("net.prefork.", "setup_s", "replica_mix"),
)


def load_runs(path: Path) -> List[Dict[str, object]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: List[Dict[str, object]] = []
    for file in files:
        runs.extend(json.loads(file.read_text(encoding="utf-8"))["runs"])
    return runs


def series(runs: Sequence[Dict[str, object]], workload: str, traced: bool,
           metric: str) -> List[float]:
    return [run["metrics"][metric] for run in runs  # type: ignore[index]
            if run["workload"] == workload and run["traced"] == traced
            and metric in run["metrics"]]  # type: ignore[operator]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` is B's median relative to A's,
    signed so that positive means worse."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, _, a_q3 = quartiles(a)
    b_q1, _, b_q3 = quartiles(b)
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = sign * (b_med - a_med) / a_med
    all_b_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_b_worse = min(sign * v for v in b) > max(sign * v for v in a)
    noisy = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound
    if change > bound:
        return ("unresolved" if noisy and not all_b_worse else "worse"), change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    losses = sum(1 for x, y in pairs if sign * y > sign * x)
    won = pairs and wins >= 0.9 * len(pairs) and losses <= 0.1 * len(pairs)
    if change < 0 and won and abs(b_med - a_med) > (a_q3 - a_q1):
        return ("better" if len(pairs) >= 10 or all_b_better else "unresolved"), change
    if noisy:
        return "unresolved", change
    return "same", change


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs, b_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    worse = 0
    for workload in (w["name"] for w in contract["workloads"]):
        print(f"== {workload}")
        a, b = (series(runs, workload, False, "failed_share") for runs in (a_runs, b_runs))
        if a and b:
            rise = statistics.median(b) - statistics.median(a)
            worse += rise > FAILED_SHARE_BOUND
            print(f"  {'failed_share':<20} A {statistics.median(a):10.4f} n={len(a):<3}"
                  f" B {statistics.median(b):10.4f} n={len(b):<3}"
                  f" bound +{FAILED_SHARE_BOUND} absolute  {rise:+.4f}  "
                  f"{'worse' if rise > FAILED_SHARE_BOUND else 'same'}")
        for spec in contract["end_to_end"]:
            name = spec["name"]
            a, b = (series(runs, workload, False, name) for runs in (a_runs, b_runs))
            if not a or not b:
                continue
            label, change = verdict(a, b, spec["better"], spec["bound"])
            worse += label == "worse"
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            print(f"  {name:<20} A {a2:10.4f} [{a1:.4f}, {a3:.4f}] n={len(a):<3}"
                  f" B {b2:10.4f} [{b1:.4f}, {b3:.4f}] n={len(b):<3}"
                  f" {spec['unit']:<5} bound {spec['bound']:.0%}  {change:+7.1%}  {label}")
            prefixes = [prefix for prefix, metric, where in EXPLAINS
                        if metric == name and where in ("*", workload)]
            layer_names = sorted({metric for run in a_runs + b_runs
                                  if run["traced"] and run["workload"] == workload
                                  for metric in run["metrics"]  # type: ignore[union-attr]
                                  if any(metric.startswith(prefix) for prefix in prefixes)})
            for layer in layer_names:
                la, lb = (series(runs, workload, True, layer) for runs in (a_runs, b_runs))
                if la and lb and statistics.median(la):
                    ma, mb = statistics.median(la), statistics.median(lb)
                    print(f"      {layer:<44} {ma:12.4f} -> {mb:12.4f}  {(mb - ma) / ma:+7.1%}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
