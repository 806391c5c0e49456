"""Unit tests for the Query Completion Module (Section 6.1)."""

import pytest

from repro.core import QueryCompletionModule, SapphireCache, SapphireConfig
from repro.rdf import DBO, FOAF, Literal, RDFS_LABEL


@pytest.fixture(scope="module")
def qcm():
    cache = SapphireCache(SapphireConfig(suffix_tree_capacity=8, gamma=10,
                                         k_suggestions=10))
    for predicate in (DBO.spouse, DBO.almaMater, DBO.birthPlace, FOAF.name):
        cache.add_predicate(predicate)
    significant = [("Kennedy", 50), ("New York", 40), ("Sydney", 30)]
    residual = [
        "Kennedy Road", "Kensington", "Ken", "house", "mouse",
        "a very specific residual literal", "spouses anonymous",
    ]
    for text, significance in significant:
        cache.add_literal(Literal(text, lang="en"), RDFS_LABEL, significance)
    for text in residual:
        cache.add_literal(Literal(text, lang="en"), RDFS_LABEL, 0)
    cache.build_indexes()
    return QueryCompletionModule(cache)


class TestBasicCompletion:
    def test_predicate_completion(self, qcm):
        surfaces = qcm.complete("spou").surfaces()
        assert "spouse" in surfaces

    def test_substring_not_just_prefix(self, qcm):
        """The QCM finds strings *containing* t, not only prefixed by it."""
        surfaces = qcm.complete("Mater").surfaces()
        assert "almaMater" in surfaces

    def test_case_insensitive(self, qcm):
        assert "spouse" in qcm.complete("SPOU").surfaces()

    def test_variable_gets_no_suggestions(self, qcm):
        result = qcm.complete("?uri")
        assert len(result) == 0

    def test_empty_input_no_suggestions(self, qcm):
        assert len(qcm.complete("")) == 0
        assert len(qcm.complete("   ")) == 0

    def test_unknown_string_no_suggestions(self, qcm):
        assert len(qcm.complete("zzzzqqqq")) == 0

    def test_k_limit_respected(self, qcm):
        result = qcm.complete("e", k=3)
        assert len(result) <= 3

    def test_default_k_is_ten(self, qcm):
        assert qcm.config.k_suggestions == 10


class TestTreeThenBins:
    def test_tree_results_come_first(self, qcm):
        result = qcm.complete("Ken")
        sources = [c.source for c in result.completions]
        if "bins" in sources and "tree" in sources:
            assert sources.index("tree") < sources.index("bins")

    def test_tree_hit_flag(self, qcm):
        assert qcm.complete("Kennedy").tree_hit
        assert not qcm.complete("Kensing").tree_hit  # residual only

    def test_bins_fill_remaining_slots(self, qcm):
        result = qcm.complete("Ken")
        surfaces = result.surfaces()
        assert "Kennedy" in surfaces          # significant, tree
        assert "Ken" in surfaces              # residual, bins

    def test_gamma_window_excludes_long_literals(self, qcm):
        """Residual literals longer than |t| + γ are never suggested."""
        result = qcm.complete("a ve")
        assert "a very specific residual literal" not in result.surfaces()

    def test_gamma_window_includes_close_lengths(self, qcm):
        result = qcm.complete("Kensingto")
        assert "Kensington" in result.surfaces()

    def test_shortest_bin_results_preferred(self, qcm):
        result = qcm.complete("Ken", k=10)
        bins_surfaces = [c.surface for c in result.completions if c.source == "bins"]
        lengths = [len(s) for s in bins_surfaces]
        assert lengths == sorted(lengths)

    def test_timings_recorded(self, qcm):
        result = qcm.complete("Ken")
        assert result.tree_seconds >= 0.0
        assert result.total_seconds >= result.tree_seconds

    def test_searched_fraction_reported(self, qcm):
        result = qcm.complete("Ken")
        assert 0.0 <= result.bins_searched_fraction <= 1.0

    def test_no_duplicate_surfaces(self, qcm):
        surfaces = qcm.complete("e").surfaces()
        lowered = [s.lower() for s in surfaces]
        assert len(lowered) == len(set(lowered))


class TestEntriesCarryTerms:
    def test_completion_exposes_rdf_terms(self, qcm):
        result = qcm.complete("spou")
        spouse = next(c for c in result.completions if c.surface == "spouse")
        assert spouse.entries[0].term == DBO.spouse
        assert spouse.kinds == ("predicate",)

    def test_literal_completion_carries_language(self, qcm):
        result = qcm.complete("Sydney")
        sydney = next(c for c in result.completions if c.surface == "Sydney")
        literal = sydney.entries[0].term
        assert isinstance(literal, Literal)
        assert literal.lang == "en"


class TestOnRealCache(object):
    def test_kennedy_scenario(self, server):
        """Figure 3's flow over the full synthetic dataset."""
        result = server.complete("Kenn")
        assert any("Kennedy" in s for s in result.surfaces())
