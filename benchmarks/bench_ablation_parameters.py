"""A2 — ablation: the PUM's tuning constants (γ, θ, α/β, similarity).

The paper fixes γ = 10 (completion window), θ = 0.7 (JW threshold) and
α = 2 / β = 3 (alternative-literal window) without sweeps.  This ablation
regenerates the trade-off curves that justify them:

* γ: larger windows recall more completions but scan more literals,
* θ: lower thresholds find more alternatives but admit junk (measured as
  suggestions whose queries return no answers — wasted executions),
* similarity measure: JW vs Levenshtein vs Jaro on the Figure 2 repair
  task ('Kennedys' must rank 'Kennedy' first).
"""

from __future__ import annotations


from repro.core import AlternativeTermsFinder, QueryCompletionModule
from repro.eval import format_table
from repro.rdf import Literal
from repro.text import SIMILARITY_MEASURES

from conftest import emit

PREFIXES = ["Kenn", "New", "Vik", "Sydn", "press", "gold"]


def test_gamma_sweep(small_server, capsys, benchmark):
    import dataclasses

    cache = small_server.cache

    def sweep():
        rows = []
        for gamma in (0, 2, 5, 10, 20, 40):
            config = dataclasses.replace(small_server.config, gamma=gamma)
            qcm = QueryCompletionModule(cache, config)
            found = sum(len(qcm.complete(prefix)) for prefix in PREFIXES)
            searched = sum(
                qcm.complete(prefix).bins_searched_fraction for prefix in PREFIXES
            ) / len(PREFIXES)
            rows.append({
                "gamma": gamma,
                "completions": found,
                "bins_scanned": f"{100 * searched:.1f}%",
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        emit("A2.1 — completion window γ (paper uses 10)", format_table(rows))
    completions = [row["completions"] for row in rows]
    assert completions == sorted(completions)  # monotone recall in γ
    scanned = [float(row["bins_scanned"].rstrip("%")) for row in rows]
    assert scanned[-1] >= scanned[0]  # paid for with wider scans


def test_theta_sweep(small_server, capsys, benchmark):
    import dataclasses

    cache = small_server.cache

    def sweep():
        rows = []
        for theta in (0.5, 0.6, 0.7, 0.8, 0.9):
            config = dataclasses.replace(small_server.config, theta=theta,
                                         max_alternatives_per_term=50)
            finder = AlternativeTermsFinder(
                cache, small_server._run_ast, small_server._unproven, config
            )
            candidates = finder.literal_alternatives(Literal("Kennedys", lang="en"))
            has_gold = any(entry.surface == "Kennedy" for entry, _ in candidates)
            rows.append({
                "theta": theta,
                "candidates": len(candidates),
                "contains 'Kennedy'": has_gold,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        emit("A2.2 — JW threshold θ (paper uses 0.7)", format_table(rows))
    counts = [row["candidates"] for row in rows]
    assert counts == sorted(counts, reverse=True)  # stricter θ, fewer candidates
    at_paper_theta = next(row for row in rows if row["theta"] == 0.7)
    assert at_paper_theta["contains 'Kennedy'"]


def test_similarity_measure_comparison(small_server, capsys, benchmark):
    """Jaro–Winkler 'outperforms other similarity measures in our
    context' (Section 6.2.1): on the misspelling-repair task the right
    literal must rank first."""
    cache = small_server.cache
    tasks = [("Kennedys", "Kennedy"), ("Sydny", "Sydney"), ("Viking Pres", "Viking Press")]

    def compare():
        rows = []
        for name, measure in SIMILARITY_MEASURES.items():
            top1 = 0
            for typed, gold in tasks:
                window = [s for s in cache.literal_surfaces() + cache.tree_literal_surfaces()
                          if abs(len(s) - len(typed)) <= 3]
                ranked = sorted(set(window), key=lambda s: -measure(typed.lower(), s))
                if ranked and ranked[0] == gold.lower():
                    top1 += 1
            rows.append({"measure": name, "top-1 repairs": f"{top1}/{len(tasks)}"})
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    with capsys.disabled():
        emit("A2.3 — similarity measures on the misspelling-repair task",
             format_table(rows))
    jw = next(row for row in rows if row["measure"] == "jaro_winkler")
    for row in rows:
        assert jw["top-1 repairs"] >= row["top-1 repairs"]
if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
