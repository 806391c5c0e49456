"""Unit tests for the Sapphire cache and its two-level index."""

import pytest

from repro.core import CacheReader, SapphireCache, SapphireConfig
from repro.rdf import DBO, FOAF, Literal, RDFS_LABEL


@pytest.fixture
def small_cache():
    cache = SapphireCache(SapphireConfig(suffix_tree_capacity=6))
    for predicate in (DBO.spouse, DBO.almaMater, FOAF.name):
        cache.add_predicate(predicate)
    cache.add_class(DBO.Scientist)
    literals = [
        ("Kennedy", 50),
        ("New York", 40),
        ("Viking Press", 10),
        ("obscure literal one", 0),
        ("obscure literal two", 0),
        ("another rare string", 0),
    ]
    for text, significance in literals:
        cache.add_literal(Literal(text, lang="en"), source_predicate=RDFS_LABEL,
                          significance=significance)
    cache.build_indexes()
    return cache


class TestPopulation:
    def test_counts(self, small_cache):
        assert small_cache.n_predicates == 3
        assert small_cache.n_classes == 1
        assert small_cache.n_literals == 6

    def test_duplicate_predicate_ignored(self, small_cache):
        small_cache.add_predicate(DBO.spouse)
        assert small_cache.n_predicates == 3

    def test_same_surface_different_terms_coexist(self):
        cache = SapphireCache()
        cache.add_literal(Literal("x", lang="en"))
        cache.add_literal(Literal("x"))  # untagged variant
        assert cache.n_literals == 2
        assert len(cache.entries_for_surface("x")) == 2

    def test_entries_for_surface_case_insensitive(self, small_cache):
        assert small_cache.entries_for_surface("kennedy")
        assert small_cache.entries_for_surface("KENNEDY")

    def test_entries_cover_all_kinds(self, small_cache):
        kinds = {e.kind for e in small_cache.entries_for_surface("spouse")}
        assert kinds == {"predicate"}
        kinds = {e.kind for e in small_cache.entries_for_surface("Scientist")}
        assert kinds == {"class"}

    def test_significance_tracking(self, small_cache):
        assert small_cache.significance_of("Kennedy") == 50
        assert small_cache.significance_of("obscure literal one") == 0

    def test_set_significance_keeps_max(self):
        cache = SapphireCache()
        cache.add_literal(Literal("x", lang="en"), significance=5)
        cache.set_significance("x", 3)
        assert cache.significance_of("x") == 5
        cache.set_significance("x", 9)
        assert cache.significance_of("x") == 9


class TestIndexSplit:
    def test_predicates_and_classes_always_in_tree(self, small_cache):
        for surface in ("spouse", "almamater", "name", "scientist"):
            assert small_cache.in_tree(surface)

    def test_most_significant_literals_in_tree(self, small_cache):
        # Capacity 6 = 4 predicate/class surfaces + 2 literal slots:
        # the two most significant literals win.
        assert small_cache.in_tree("kennedy")
        assert small_cache.in_tree("new york")

    def test_residual_literals_in_bins(self, small_cache):
        assert not small_cache.in_tree("obscure literal one")
        assert small_cache.n_residual_literals == 4

    def test_bins_keyed_by_length(self, small_cache):
        sizes = small_cache.bins.bin_sizes()
        assert sizes[len("obscure literal one")] >= 1

    def test_tree_lookup_finds_indexed(self, small_cache):
        assert "kennedy" in small_cache.tree.find_containing("enned")

    def test_stats_shape(self, small_cache):
        stats = small_cache.stats()
        assert stats["tree_strings"] == 6
        assert stats["residual_literals"] == 4
        assert stats["predicates"] == 3
        assert stats["classes"] == 1

    def test_capacity_zero_puts_all_literals_in_bins(self):
        cache = SapphireCache(SapphireConfig(suffix_tree_capacity=0))
        cache.add_predicate(DBO.spouse)
        cache.add_literal(Literal("a", lang="en"))
        cache.build_indexes()
        # Predicates always fit (capacity clamps literals only).
        assert cache.n_residual_literals == 1

    def test_rebuild_after_additions(self, small_cache):
        small_cache.add_literal(Literal("freshly added", lang="en"), significance=99)
        assert not small_cache.is_indexed
        small_cache.build_indexes()
        assert small_cache.in_tree("freshly added")


class TestMerge:
    def test_merge_unions_everything(self):
        a = SapphireCache()
        a.add_predicate(DBO.spouse)
        a.add_literal(Literal("x", lang="en"), significance=1)
        b = SapphireCache()
        b.add_predicate(DBO.author)
        b.add_class(DBO.Book)
        b.add_literal(Literal("y", lang="en"), significance=2)
        a.merge(b)
        assert a.n_predicates == 2
        assert a.n_classes == 1
        assert a.n_literals == 2
        assert a.significance_of("y") == 2

    def test_merge_requires_reindex(self):
        a = SapphireCache()
        a.add_predicate(DBO.spouse)
        a.build_indexes()
        b = SapphireCache()
        b.add_predicate(DBO.author)
        a.merge(b)
        assert not a.is_indexed

    def test_merge_reads_the_reader_surface_only(self):
        """Any reader can be folded in: merge asks for predicates(),
        classes(), literal_surfaces(), entries_for_surface() and
        significance_of() and nothing private."""
        source = SapphireCache()
        source.add_predicate(DBO.author)
        source.add_class(DBO.Book)
        source.add_literal(Literal("y", lang="en"), RDFS_LABEL, 2)
        source.set_significance("y", 5)

        class Facade(CacheReader):
            def __init__(self):
                pass

            predicates = staticmethod(source.predicates)
            classes = staticmethod(source.classes)
            literal_surfaces = staticmethod(source.literal_surfaces)
            entries_for_surface = staticmethod(source.entries_for_surface)
            significance_of = staticmethod(source.significance_of)

        merged = SapphireCache()
        merged.merge(Facade())
        assert merged.stats() == dict(source.stats(), residual_literals=0,
                                      residual_bins=0, tree_strings=0)
        assert merged.significance_of("y") == 5
        entry, = merged.entries_for_surface("y")
        assert entry.source_predicate == RDFS_LABEL and entry.significance == 2

    def test_reader_has_no_mutators(self):
        for name in ("add_predicate", "add_class", "add_literal",
                     "set_significance", "merge", "build_indexes",
                     "copy_with_capacity"):
            assert hasattr(SapphireCache, name)
            assert not hasattr(CacheReader, name), name
