"""The tiered suggestion index (PR 10).

Gates, with and without the FTS5 trigram tokenizer (absent = the probe
patched to fail at save, so the file carries no prefilter table and
every needle runs the ``instr``-verified window scan):

* **Wire parity** — ``/complete`` documents are *byte-identical* whether
  the cache is the in-memory seed, a tiered cache over the saved v3
  file, or a read-only replica of that file.
* **QSM parity** — ``predicate_alternatives`` and
  ``literal_alternatives`` return identical suggestion sets, and
  ``residual_scored`` over the resident window bins equals the
  in-memory bins' for every gold literal and its typo;
  ``test_qsm_parity.py`` holds whole rounds to a plain Jaro–Winkler
  reference.
* **Window residency** (counts, not timings) — a window is read from
  the file once, a budget below one window changes no result and keeps
  resident rows within budget + one bin, a shed length reloads to the
  same columns, concurrent scans load each length once.
* **Capacity independence** — reopening the same file at a different
  suffix-tree budget matches ``copy_with_capacity`` on the in-memory
  cache, completions included.
* **Read-only discipline** — a tiered cache is a reader by type (no
  mutator to call); replicas never write the shared file.
* **Ranking** — usage events and session boosts re-rank stably; a cold
  cache preserves the paper's order exactly (all-zero scores).
"""

from __future__ import annotations

import dataclasses
import random
import sqlite3
import sys
import threading

import pytest

from repro.core import (
    AlternativeTermsFinder,
    CacheReader,
    QueryCompletionModule,
    SapphireCache,
    TieredSapphireCache,
    load_cache,
    save_cache,
)
from repro.data.questions import QUESTIONS
from repro.eval.replay import corrupt_literal
from repro.net.suggest import completion_document, dump_document
from repro.rdf import DBO, Literal
from repro.sparql.parser import parse_query
from repro.store import term_tables
from repro.store.term_tables import fts5_trigram_available
from repro.text import ThresholdScorer

#: Mix of tree hits, residual-only hits, misses, variables, and inputs
#: shorter than a trigram (no prefilter possible); every lookup term of
#: ``benchmarks/bench_qcm.py`` (what study participants typed) is one.
NEEDLES = [
    "Kenn", "Kennedy", "enn", "spou", "Mater", "New", "Vik", "press",
    "j", "e", "on", "?uri", "", "zzzzqqqq",
    "alma", "pop", "birth", "Sydn", "label", "gold", "to", "univ",
]


def _fts_available() -> bool:
    conn = sqlite3.connect(":memory:")
    try:
        return fts5_trigram_available(conn)
    finally:
        conn.close()


@pytest.fixture(scope="module", params=["tokenizer", "no-tokenizer"])
def fts(request):
    """Whether the saving SQLite has the FTS5 trigram tokenizer."""
    present = request.param == "tokenizer"
    if present and not _fts_available():
        pytest.skip("linked SQLite has no FTS5 trigram tokenizer")
    return present


@pytest.fixture(scope="module")
def mem(cache):
    """A fresh in-memory copy of the session cache: same contents, but
    zero frequency/hit counters regardless of what other tests did."""
    return cache.copy_with_capacity(cache.config.suffix_tree_capacity)


@pytest.fixture(scope="module")
def saved_path(mem, fts, tmp_path_factory):
    path = tmp_path_factory.mktemp("tiered") / "cache.sqlite"
    with pytest.MonkeyPatch.context() as patch:
        if not fts:
            patch.setattr(
                term_tables, "fts5_trigram_available", lambda conn: False)
        info = save_cache(mem, path)
    assert info["version"] == 3
    assert info["fts"] is fts
    assert info["built_s"] >= 0.0
    return path


@pytest.fixture(scope="module")
def tiered(saved_path, mem):
    cache = load_cache(saved_path, mem.config)
    assert isinstance(cache, TieredSapphireCache)
    assert cache.load_report["mode"] == "tiered"
    yield cache
    cache.close()


@pytest.fixture(scope="module")
def replica(saved_path, mem):
    cache = load_cache(saved_path, mem.config, read_only=True)
    assert isinstance(cache, TieredSapphireCache)
    yield cache
    cache.close()


def wire_bytes(qcm, term, k=None):
    return dump_document(completion_document(qcm.complete(term, k)))


class TestWireParity:
    def test_complete_byte_identical_across_tiers(self, mem, tiered, replica):
        memory_qcm = QueryCompletionModule(mem)
        tiered_qcm = QueryCompletionModule(tiered)
        replica_qcm = QueryCompletionModule(replica)
        for term in NEEDLES:
            for k in (3, 10):
                expected = wire_bytes(memory_qcm, term, k)
                assert wire_bytes(tiered_qcm, term, k) == expected
                assert wire_bytes(replica_qcm, term, k) == expected

    def test_sources_still_read_tree_and_bins(self, tiered):
        """Wire 'source' labels are part of the byte format: the index
        tier keeps reporting 'bins' so clients can't tell the backends
        apart."""
        result = QueryCompletionModule(tiered).complete("e")
        assert {c.source for c in result.completions} <= {"tree", "bins"}

    def test_repeated_completions_deterministic(self, tiered):
        qcm = QueryCompletionModule(tiered)
        first = [qcm.complete(t).surfaces() for t in NEEDLES]
        for _ in range(3):
            assert [qcm.complete(t).surfaces() for t in NEEDLES] == first


class TestQsmParity:
    @pytest.fixture(scope="class")
    def finders(self, server, mem, tiered):
        runner, proof = server._run_ast, server._proves_no_match
        return (
            AlternativeTermsFinder(mem, runner, proof, server.config),
            AlternativeTermsFinder(tiered, runner, proof, server.config),
        )

    def test_predicate_alternatives_identical(self, finders):
        memory_finder, tiered_finder = finders
        for name in ("wife", "spouses", "birthPlaces", "almaMatter", "zz"):
            predicate = DBO.term(name)
            expected = [
                (entry.surface, entry.term, score)
                for entry, score in memory_finder.predicate_alternatives(predicate)
            ]
            actual = [
                (entry.surface, entry.term, score)
                for entry, score in tiered_finder.predicate_alternatives(predicate)
            ]
            assert actual == expected, name

    def test_literal_alternatives_identical(self, finders):
        memory_finder, tiered_finder = finders
        for text in ("Kennedys", "Sydney", "New Yrok", "Viking"):
            literal = Literal(text, lang="en")
            expected = [
                (entry.surface, entry.term, score)
                for entry, score in memory_finder.literal_alternatives(literal)
            ]
            actual = [
                (entry.surface, entry.term, score)
                for entry, score in tiered_finder.literal_alternatives(literal)
            ]
            assert actual == expected, text


def gold_literals():
    """The lower-cased literals of the 52 gold questions, each followed
    by its ``corrupt_literal`` typo."""
    rng = random.Random(12)
    needles = []
    for question in QUESTIONS:
        gold = " ".join(question.gold_query.split())
        for query in (gold, corrupt_literal(gold, rng)):
            if query is not None:
                needles += [
                    term.lexical.lower()
                    for pattern in parse_query(query).where.patterns
                    for term in (pattern.subject, pattern.predicate, pattern.object)
                    if isinstance(term, Literal)
                ]
    assert len(needles) > 52
    return needles


class TestResidualWindow:
    """The QSM's literal window on a tiered cache: resident column bins
    under the base class's ``residual_scored``."""

    CAPACITY = 150  # a suffix tree too small for the literals

    @pytest.fixture(scope="class")
    def tail_mem(self, mem):
        cache = mem.copy_with_capacity(self.CAPACITY)
        assert cache.n_residual_literals > 200
        return cache

    @pytest.fixture(params=["read-write", "mode=ro"])
    def tail(self, request, saved_path, mem):
        """A freshly opened tiered cache: nothing of the window loaded."""
        cache = load_cache(
            saved_path, dataclasses.replace(mem.config, suffix_tree_capacity=self.CAPACITY),
            read_only=request.param == "mode=ro",
        )
        assert cache.index_gauges()["window_bin_loads"] == 0
        yield cache
        cache.close()

    @staticmethod
    def scored(cache, needle):
        config = cache.config
        return cache.residual_scored(
            max(1, len(needle) - config.alpha), len(needle) + config.beta,
            ThresholdScorer(needle, config.theta), config.theta, cache.bins,
        )

    def test_residual_scored_equals_the_in_memory_bins(self, tail_mem, tail):
        kept = 0
        for needle in gold_literals():
            hits, scanned = self.scored(tail, needle)
            assert (hits, scanned) == self.scored(tail_mem, needle), needle
            kept += len(hits)
        assert kept > 52
        assert tail.residual_scored.__func__ is CacheReader.residual_scored

    def test_second_scan_of_a_window_issues_no_statement(self, tail):
        statements = []
        tail._conn.set_trace_callback(statements.append)
        try:
            first = self.scored(tail, "kennedys")
            assert statements
            del statements[:]
            assert self.scored(tail, "kennedys") == first
            assert self.scored(tail, "kennedis")[1] == first[1]  # the same lengths
            assert statements == []
        finally:
            tail._conn.set_trace_callback(None)

    def test_budget_below_one_window(self, tail_mem, tail):
        sizes = tail_mem.bins.bin_sizes()
        largest = max(sizes.values())
        budget = tail._memo_limit = 30
        assert sum(sizes[length] for length in range(6, 12)) > 2 * budget
        seen = {}  # length -> the columns first loaded for it
        reloaded = 0
        for _ in range(2):
            for needle in gold_literals():
                assert self.scored(tail, needle) == self.scored(tail_mem, needle), needle
                low = max(1, len(needle) - tail.config.alpha)
                for column_bin in tail.residual_window(
                    low, len(needle) + tail.config.beta, tail.bins
                ):
                    assert tail.index_gauges()["window_rows_resident"] <= budget + largest
                    columns = (column_bin.keys, column_bin.literals,
                               column_bin.signatures, column_bin.by_first)
                    first = seen.setdefault(len(column_bin.literals[0]), columns)
                    if first[0] is not columns[0]:
                        reloaded += 1
                        assert columns == first
        assert reloaded > 0
        gauges = tail.index_gauges()
        assert gauges["window_bin_loads"] > len(sizes)
        assert gauges["window_rows_resident"] == sum(len(b) for b in tail._window.values())

    def test_concurrent_scans_load_each_length_once(self, tail_mem, tail):
        """Two threads scanning while a third completes, switching every
        10 µs: a length loaded twice would count its rows twice."""
        needles = gold_literals()
        expected = [self.scored(tail_mem, needle) for needle in needles]
        qcm = QueryCompletionModule(tail)
        errors = []

        def scan(start):
            try:
                for step in range(len(needles)):
                    at = (start + step) % len(needles)
                    assert self.scored(tail, needles[at]) == expected[at]
            except Exception as error:  # noqa: BLE001 — reported by the assert below
                errors.append(error)

        def complete():
            try:
                for _ in range(3):
                    for term in NEEDLES:
                        qcm.complete(term)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=scan, args=(0,)),
            threading.Thread(target=scan, args=(len(needles) // 2,)),
            threading.Thread(target=complete),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        sizes = tail_mem.bins.bin_sizes()
        touched = set(tail._window)
        gauges = tail.index_gauges()
        assert gauges["window_bin_loads"] == len(touched)
        assert gauges["window_rows_resident"] == sum(sizes[length] for length in touched)


class TestStatsParity:
    def test_stats_identical(self, mem, tiered, replica):
        assert tiered.stats() == mem.stats()
        assert replica.stats() == mem.stats()

    def test_index_gauges_populated(self, tiered, fts):
        gauges = tiered.index_gauges()
        assert gauges["index_surfaces"] == tiered.term_index.n_surfaces()
        assert gauges["index_surfaces"] > 0
        assert gauges["index_bytes"] > 0
        assert gauges["index_fts"] == (1 if fts else 0)

    def test_residual_lookup_counts_index_tier(self, tiered):
        before = dict(tiered.lookup_stats())
        tiered.note_lookup(tree_hit=False, residual_hit=True)
        tiered.note_lookup(tree_hit=True, residual_hit=False)
        tiered.note_lookup(tree_hit=False, residual_hit=False)
        after = tiered.lookup_stats()
        assert after["index_hits"] == before["index_hits"] + 1
        assert after["tree_hits"] == before["tree_hits"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["bin_hits"] == before["bin_hits"]
        assert after["lookups"] == before["lookups"] + 3

    def test_memory_bounded_by_capacity(self, tiered):
        """The hot tier holds at most capacity strings; the memoized
        surface map stays within the shed budget, not the lexicon."""
        capacity = tiered.config.suffix_tree_capacity
        assert tiered.n_tree_strings <= capacity
        assert len(tiered._entries) <= tiered._memo_limit + 1


class TestCapacityIndependence:
    def test_reopen_at_smaller_capacity_matches_copy(self, saved_path, mem):
        small_mem = mem.copy_with_capacity(50)
        small_tiered = load_cache(
            saved_path, dataclasses.replace(mem.config, suffix_tree_capacity=50)
        )
        try:
            assert isinstance(small_tiered, TieredSapphireCache)
            assert small_tiered.n_tree_strings == small_mem.n_tree_strings
            assert small_tiered.stats() == small_mem.stats()
            memory_qcm = QueryCompletionModule(small_mem)
            tiered_qcm = QueryCompletionModule(small_tiered)
            for term in NEEDLES:
                assert wire_bytes(tiered_qcm, term) == \
                    wire_bytes(memory_qcm, term)
        finally:
            small_tiered.close()

    def test_copy_with_capacity_reopens_the_file(self, tiered, mem):
        reopened = tiered.copy_with_capacity(50)
        try:
            assert isinstance(reopened, TieredSapphireCache)
            assert reopened.n_tree_strings == \
                mem.copy_with_capacity(50).n_tree_strings
        finally:
            reopened.close()


class TestReadOnlyDiscipline:
    MUTATORS = ("add_predicate", "add_class", "add_literal",
                "set_significance", "merge", "build_indexes")

    def test_reader_by_type(self, tiered, mem):
        assert isinstance(tiered, CacheReader)
        assert not isinstance(tiered, SapphireCache)
        for name in self.MUTATORS:
            assert hasattr(mem, name)
            assert not hasattr(tiered, name), name
        assert not hasattr(tiered.dictionary, "encode")

    def test_replica_connection_cannot_write(self, replica):
        with pytest.raises(sqlite3.OperationalError):
            replica._conn.execute("DELETE FROM cache_surfaces")


class TestMergeFromReader:
    """``SapphireCache(config).merge(reader)`` is the one way from a
    file to a mutable in-memory cache: reading the tiered cache through
    the reader surface must give what the in-memory original gives."""

    @pytest.fixture(scope="class")
    def promoted(self, mem, tiered):
        from_memory = SapphireCache(mem.config)
        from_memory.merge(mem)
        from_memory.build_indexes()
        from_file = SapphireCache(mem.config)
        from_file.merge(tiered)
        from_file.build_indexes()
        return from_memory, from_file

    def test_stats_and_completions_equal(self, mem, promoted):
        from_memory, from_file = promoted
        assert from_file.stats() == from_memory.stats() == mem.stats()
        memory_qcm = QueryCompletionModule(from_memory)
        file_qcm = QueryCompletionModule(from_file)
        for term in NEEDLES:
            assert wire_bytes(file_qcm, term) == wire_bytes(memory_qcm, term)

    def test_qsm_alternatives_equal(self, server, promoted):
        finders = [
            AlternativeTermsFinder(
                cache, server._run_ast, server._proves_no_match, server.config
            )
            for cache in promoted
        ]
        for text in ("Kennedys", "Sydney", "New Yrok"):
            found = [
                [(e.surface, e.term, e.source_predicate, score) for e, score
                 in finder.literal_alternatives(Literal(text, lang="en"))]
                for finder in finders
            ]
            assert found[0] == found[1], text
        for name in ("wife", "spouses", "almaMatter"):
            found = [
                [(e.surface, e.term, score) for e, score
                 in finder.predicate_alternatives(DBO.term(name))]
                for finder in finders
            ]
            assert found[0] == found[1], name


class TestRanking:
    @pytest.fixture()
    def ranked(self, saved_path, mem):
        cache = load_cache(saved_path, mem.config)
        yield cache
        cache.close()

    def _served_surfaces(self, qcm, term):
        return qcm.complete(term).surfaces()

    def test_usage_events_promote_within_served_set(self, ranked):
        qcm = QueryCompletionModule(ranked)
        baseline = self._served_surfaces(qcm, "enn")
        if len(baseline) < 2:
            pytest.skip("needle serves fewer than 2 completions")
        target = baseline[-1]
        for _ in range(3):
            ranked.note_used(target)
        assert self._served_surfaces(qcm, "enn")[0] == target
        # The re-sort is a permutation of the same served set.
        assert sorted(self._served_surfaces(qcm, "enn")) == sorted(baseline)

    def test_session_boost_promotes_recent_surface(self, ranked):
        qcm = QueryCompletionModule(ranked)
        baseline = qcm.complete("enn").surfaces()
        if len(baseline) < 2:
            pytest.skip("needle serves fewer than 2 completions")
        target = baseline[-1]
        boosted = qcm.complete("enn", boost_surfaces=[target])
        assert boosted.surfaces()[0] == target
        assert boosted.boosted == 1
        # Without the boost the cold order is untouched.
        assert qcm.complete("enn").surfaces() == baseline

    def test_serving_never_feeds_frequency(self, ranked):
        qcm = QueryCompletionModule(ranked)
        before = ranked.lookup_stats()["served"]
        result = qcm.complete("Kenn")
        assert ranked.lookup_stats()["served"] == before + len(result)
        for completion in result.completions:
            sid = ranked.surface_id(completion.surface)
            assert ranked.frequency_of(sid) == 0

    def test_ranking_report_lists_top_surfaces(self, ranked):
        ranked.note_used("Kennedy")
        assert "kennedy:1" in ranked.ranking_report().lower()

    def test_ranking_report_names_a_surface_of_the_tail(self, saved_path, mem):
        """A used surface outside the hot tier was never interned: the
        report reads its name back from the file."""
        cache = load_cache(saved_path, dataclasses.replace(mem.config, suffix_tree_capacity=50))
        try:
            tail = next(s for s in mem.literal_surfaces() if not cache.in_tree(s))
            cache.note_used(tail)
            assert f"{tail}:1" in cache.ranking_report()
        finally:
            cache.close()
