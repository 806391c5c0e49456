"""E6 — Section 7.3.1: QCM response time.

Reproduces the four QCM measurements:

1. suffix-tree lookup latency (paper: ~0.25 ms, independent of tree size),
2. residual-bin scan latency (paper: 0.6 s at 1 core -> 0.16 s at 8
   cores; under CPython's GIL a thread pool never beat the serial scan, so
   there is one scan, and we report its wall time beside the per-worker
   load Algorithm 1 assigns for P ∈ {1, 2, 4, 8}),
3. suffix-tree hit ratio as a function of how many literals are indexed
   (paper: 50% hit ratio with only 40K of millions of literals),
4. the fraction of residual literals eliminated by the length filter
   (paper: 46% on average),

and times the tiered suggestion index against the in-memory cache at a
lexicon grown to ``SCALE``x the base dataset's literals:

5. **cold start and memory** — ``tiered_boot_s`` is reported in absolute
   terms, and the tiered boot's peak memory must stay under 0.6x an
   in-memory rebuild's from the same reader (bounded by the suffix-tree
   capacity, not the lexicon),
6. **latency** — tiered completion latency stays within 1.1x of the
   in-memory path, or within 2 ms of it per lookup.

What the tiered cache serves (completions and repair candidates equal
to the in-memory cache's, the QSM window's resident rows bounded by the
memo budget plus one bin) is held by ``tests/test_tiered_cache.py``;
rows 5 and 6 keep only the ratios, which have no test form.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core import QueryCompletionModule, SapphireCache, load_cache, save_cache
from repro.eval import format_table
from repro.rdf import RDFS_LABEL, Literal
from repro.text import assign_tasks

from conftest import emit

#: Lookup terms modelled on what study participants typed.
LOOKUP_TERMS = [
    "Kenn", "spou", "alma", "New", "Vik", "pop", "birth", "Sydn",
    "label", "press", "gold", "j", "to", "univ",
]


@pytest.fixture(scope="module")
def qcm(small_server):
    return QueryCompletionModule(small_server.cache, small_server.config)


def test_tree_lookup_latency(qcm, capsys, benchmark):
    tree = qcm.cache.tree

    def lookups():
        for term in LOOKUP_TERMS:
            tree.find_containing(term.lower(), limit=10)

    benchmark(lookups)
    if benchmark.stats is not None:
        mean_s = benchmark.stats["mean"]
    else:
        # --benchmark-disable (the --quick smoke run): time one pass.
        t0 = time.perf_counter()
        lookups()
        mean_s = time.perf_counter() - t0
    per_lookup_ms = mean_s / len(LOOKUP_TERMS) * 1000
    with capsys.disabled():
        emit("E6.1 — suffix-tree lookup latency",
             f"mean per lookup: {per_lookup_ms:.4f} ms over "
             f"{qcm.cache.n_tree_strings} indexed strings\n"
             f"(paper: ~0.25 ms, independent of tree size)")
    assert per_lookup_ms < 50  # interactive by a wide margin


def test_bin_scan_and_algorithm1_split(small_server, capsys, benchmark):
    """One serial scan time, and the load Algorithm 1 would hand each of
    P workers over the same bins — the scan itself has one path.  The
    tree is cut to 50 strings so that there is a residual tail to scan."""
    cache = small_server.cache.copy_with_capacity(50)
    qcm = QueryCompletionModule(cache)
    t0 = time.perf_counter()
    for term in LOOKUP_TERMS:
        qcm.complete(term)
    per_lookup_ms = (time.perf_counter() - t0) / len(LOOKUP_TERMS) * 1000
    benchmark.pedantic(lambda: [qcm.complete(t) for t in LOOKUP_TERMS],
                       rounds=1, iterations=1)
    sizes = [size for _, size in sorted(cache.bins.bin_sizes().items())]
    rows = []
    for processes in (1, 2, 4, 8):
        loads = [0] * processes
        for task in assign_tasks(sizes, processes):
            loads[task.process_id] += task.size
        ideal = -(-sum(sizes) // processes)
        rows.append({"workers": processes, "ideal_load": ideal,
                     "max_load": max(loads), "min_load": min(loads)})
        # Every literal assigned once, nobody above d = ceil(n / P).
        assert sum(loads) == sum(sizes) and max(loads) <= ideal
    with capsys.disabled():
        emit("E6.2 — residual-bin scan, and Algorithm 1's load split",
             f"serial scan: {per_lookup_ms:.3f} ms per lookup over "
             f"{sum(sizes)} residual literals in {len(sizes)} bins\n" +
             format_table(rows) +
             "\n(paper: 0.6 s @ 1 core -> 0.16 s @ 8 cores; under CPython's GIL a"
             "\n thread pool never beat the serial scan — docs/predictive-model.md)")


def test_hit_ratio_vs_tree_size(small_server, capsys, benchmark):
    """Bigger suffix tree -> higher hit ratio (Section 7.3.1's takeaway
    that 'even a small fraction of the literals in the suffix tree
    benefits performance')."""
    cache = small_server.cache
    base_config = small_server.config
    benchmark.pedantic(cache.build_indexes, rounds=1, iterations=1)
    rows = []
    ratios = []
    for capacity in (0, 50, 200, 1000, 4000):
        sized = cache.copy_with_capacity(capacity)
        qcm = QueryCompletionModule(sized, sized.config)
        hits = sum(1 for term in LOOKUP_TERMS if qcm.complete(term).tree_hit)
        ratio = hits / len(LOOKUP_TERMS)
        ratios.append(ratio)
        rows.append({
            "tree_capacity": capacity,
            "indexed_strings": sized.n_tree_strings,
            "hit_ratio": f"{100 * ratio:.0f}%",
        })
    with capsys.disabled():
        emit("E6.3 — suffix-tree hit ratio vs indexed literals",
             format_table(rows) + "\n(paper: 50% hit ratio at 40K of ~21M literals)")
    assert ratios == sorted(ratios) or ratios[-1] >= ratios[0]
    assert ratios[-1] > ratios[0]


def test_length_filter_elimination(qcm, capsys, benchmark):
    """The γ-window removes a large share of the residual literals from
    each scan (paper: 46% on average)."""
    results = benchmark.pedantic(
        lambda: [qcm.complete(term) for term in LOOKUP_TERMS],
        rounds=1, iterations=1,
    )
    fractions = [1.0 - result.bins_searched_fraction for result in results]
    mean_eliminated = sum(fractions) / len(fractions)
    with capsys.disabled():
        emit("E6.4 — residual literals eliminated by the length filter",
             f"mean eliminated: {100 * mean_eliminated:.1f}% "
             f"(paper: ~46%)")
    assert mean_eliminated > 0.2


def test_bench_complete(benchmark, qcm):
    result = benchmark(lambda: qcm.complete("Kenn"))
    assert result.surfaces()


#: Lexicon growth for the tiered-index rows: at 10x the tail outgrows
#: the suffix tree enough for the memory gate to measure the tail.
SCALE = 10


#: Word pool for the synthetic lexicon tail (varied lengths/trigrams).
_WORDS = [
    "harbor", "festival", "museum", "boulevard", "province", "railway",
    "observatory", "cathedral", "archipelago", "university", "stadium",
    "monument",
]


@pytest.fixture(scope="module")
def scaled_index(small_server, tmp_path_factory):
    """``(cache, path)``: the base cache grown to ``SCALE``x literals,
    saved as a cache file with the term index built in."""
    base = small_server.cache
    cache = base.copy_with_capacity(base.config.suffix_tree_capacity)
    n_base = cache.n_literals
    for i in range(n_base * (SCALE - 1)):
        text = f"{_WORDS[i % len(_WORDS)]} no {i:07d}"
        cache.add_literal(Literal(text, lang="en"), RDFS_LABEL, 0)
    cache.build_indexes()
    path = tmp_path_factory.mktemp("qcm-index") / "cache.sqlite"
    save_cache(cache, path)
    return cache, path


def _traced(build):
    """``(result, seconds, peak bytes)`` of ``build()`` under tracemalloc."""
    tracemalloc.start()
    t0 = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def _rebuilt_in_memory(reader):
    cache = SapphireCache(reader.config)
    cache.merge(reader)
    cache.build_indexes()
    return cache


def test_cold_start_tiered_boot(scaled_index, capsys, benchmark):
    """E6.5 — replica boot: open the persisted index, serve at once."""
    cache, path = scaled_index
    tiered, tiered_s, tiered_peak = _traced(lambda: load_cache(path, cache.config))
    benchmark.pedantic(
        lambda: load_cache(path, cache.config).close(), rounds=1, iterations=1
    )
    try:
        _, rebuild_s, rebuild_peak = _traced(lambda: _rebuilt_in_memory(tiered))
        with capsys.disabled():
            emit("E6.5 — cold start: tiered boot from the cache file",
                 f"scale {SCALE}x ({cache.n_literals} literals): tiered boot "
                 f"{tiered_s:.3f} s / {tiered_peak / 1e6:.1f} MB peak "
                 f"(merged into memory: {rebuild_s:.3f} s / "
                 f"{rebuild_peak / 1e6:.1f} MB peak)")
        # Boot memory is bounded by the tree, not the lexicon: an
        # in-memory cache materializes every literal, the tiered boot
        # must not.  Both hold the same suffix tree, which at 10x is
        # still half of the in-memory peak (measured ratio 0.51), hence
        # 0.6 and not a rounder number.
        assert tiered_peak < 0.6 * rebuild_peak, (tiered_peak, rebuild_peak)
        assert tiered.n_tree_strings <= cache.config.suffix_tree_capacity
    finally:
        tiered.close()


def test_tiered_completion_latency(scaled_index, capsys, benchmark):
    """E6.6 — per-keystroke latency through the on-disk tail index."""
    cache, path = scaled_index
    tiered = load_cache(path, cache.config)
    try:
        memory_qcm = QueryCompletionModule(cache)
        tiered_qcm = QueryCompletionModule(tiered)

        def sweep(qcm):
            for term in LOOKUP_TERMS:
                qcm.complete(term)

        sweep(memory_qcm)  # warm both paths before timing
        sweep(tiered_qcm)
        best = {}
        for name, qcm in (("memory", memory_qcm), ("tiered", tiered_qcm)):
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                sweep(qcm)
                samples.append(time.perf_counter() - t0)
            best[name] = min(samples)
        benchmark.pedantic(lambda: sweep(tiered_qcm), rounds=1, iterations=1)
        ratio = best["tiered"] / best["memory"] if best["memory"] > 0 else 1.0
        per_ms = {
            name: seconds / len(LOOKUP_TERMS) * 1000
            for name, seconds in best.items()
        }
        with capsys.disabled():
            emit("E6.6 — completion latency: in-memory vs tiered",
                 f"scale {SCALE}x: memory {per_ms['memory']:.3f} ms/lookup, "
                 f"tiered {per_ms['tiered']:.3f} ms/lookup "
                 f"(ratio {ratio:.2f}, gate <= 1.1 or within 2 ms)")
        # The in-memory bins scan grows linearly with the tail while the
        # indexed lookup should not regress past it.
        assert ratio <= 1.1 or per_ms["tiered"] <= per_ms["memory"] + 2.0, per_ms
    finally:
        tiered.close()


if __name__ == "__main__":
    import sys

    from conftest import bench_main

    sys.exit(bench_main(__file__, sys.argv[1:]))
