"""A1 — ablation: how much of the cache belongs in the suffix tree?

Section 5.2's design choice: the tree is fast but an order of magnitude
larger than its input, so only the *significant* literals get indexed.
This ablation sweeps the tree capacity from "predicates only" to "all
literals" and reports, per setting: tree size (node count, the memory
proxy), hit ratio over the study lookup mix, and mean completion latency.

Expected shape: hit ratio and latency improve with tree size while node
count grows roughly linearly — the knee justifies indexing only the top
significant literals.
"""

from __future__ import annotations

import time


from repro.core import QueryCompletionModule
from repro.eval import format_table

from conftest import emit

LOOKUP_TERMS = [
    "Kenn", "spou", "alma", "New", "Vik", "pop", "birth", "Sydn",
    "label", "press", "gold", "to",
]


def test_tree_fraction_sweep(small_server, capsys, benchmark):
    cache = small_server.cache
    n_literals = cache.n_literals
    capacities = [0, n_literals // 20, n_literals // 5, n_literals // 2, n_literals * 2]

    def sweep():
        rows = []
        for capacity in capacities:
            sized = cache.copy_with_capacity(capacity)
            qcm = QueryCompletionModule(sized)
            t0 = time.perf_counter()
            hits = sum(1 for term in LOOKUP_TERMS if qcm.complete(term).tree_hit)
            elapsed = time.perf_counter() - t0
            rows.append({
                "tree_capacity": capacity,
                "tree_strings": sized.n_tree_strings,
                "tree_nodes": sized.tree.node_count(),
                "residual": sized.n_residual_literals,
                "hit_ratio": f"{100 * hits / len(LOOKUP_TERMS):.0f}%",
                "mean_ms": round(elapsed / len(LOOKUP_TERMS) * 1000, 3),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        emit("A1 — suffix-tree fraction ablation", format_table(rows))

    node_counts = [row["tree_nodes"] for row in rows]
    assert node_counts == sorted(node_counts)  # memory grows with capacity
    hit_first = int(rows[0]["hit_ratio"].rstrip("%"))
    hit_last = int(rows[-1]["hit_ratio"].rstrip("%"))
    assert hit_last >= hit_first  # and hit ratio does not degrade
    # With everything indexed there are no residual literals left.
    assert rows[-1]["residual"] == 0
if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
