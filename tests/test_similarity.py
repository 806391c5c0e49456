"""Unit tests for the string similarity measures."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text import (
    ThresholdScorer,
    containment_similarity,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
)
from repro.text.similarity import signature


class TestJaro:
    def test_identical(self):
        assert jaro("kennedy", "kennedy") == 1.0

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "x") == 0.0
        assert jaro("x", "") == 0.0
        assert jaro("", "") == 1.0

    def test_known_value_martha(self):
        # Classic textbook example: JARO(MARTHA, MARHTA) = 0.944...
        assert jaro("MARTHA", "MARHTA") == pytest.approx(0.9444, abs=1e-3)

    def test_known_value_dixon(self):
        assert jaro("DIXON", "DICKSONX") == pytest.approx(0.7667, abs=1e-3)

    def test_symmetry(self):
        assert jaro("crate", "trace") == jaro("trace", "crate")


class TestJaroWinkler:
    def test_known_value_martha(self):
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-3)

    def test_prefix_boost(self):
        """JW favours strings matching from the beginning (the reason the
        paper picked it for left-to-right predicate typing)."""
        prefix_match = jaro_winkler("spouse", "spouses")
        suffix_match = jaro_winkler("spouse", "espouse")
        assert prefix_match > suffix_match

    def test_boost_capped_at_four_chars(self):
        assert jaro_winkler("abcdefgh", "abcdefgx") <= 1.0

    def test_no_boost_without_common_prefix(self):
        assert jaro_winkler("xabc", "yabc") == jaro("xabc", "yabc")

    def test_kennedys_kennedy_above_theta(self):
        """The Figure 2 example must clear the paper's θ = 0.7."""
        assert jaro_winkler("Kennedys", "Kennedy") >= 0.7

    def test_wife_spouse_below_theta(self):
        """String similarity alone cannot map wife -> spouse — that is why
        the lexicon exists (Section 6.2.1)."""
        assert jaro_winkler("wife", "spouse") < 0.7

    def test_range(self):
        for a, b in [("a", "b"), ("abc", "abd"), ("x", "xyz")]:
            assert 0.0 <= jaro_winkler(a, b) <= 1.0


# Few letters, so characters repeat; "\u00e1" and "\u0161" both land in
# signature bucket 0x61 with "a", and "\u0101" with "\u0081" in bucket 1.
_STRINGS = st.text(alphabet="abcde a\u00e1\u0161\u0101\u0081", max_size=14)
#: A second string a few edits away from the first — the pairs that sit
#: around the thresholds — or an unrelated one.
_PAIRS = st.one_of(
    st.tuples(_STRINGS, _STRINGS),
    st.tuples(_STRINGS, st.lists(st.tuples(st.integers(0, 13), _STRINGS), max_size=3),
              st.booleans()).map(lambda drawn: (drawn[0], _edited(*drawn))),
)


def _edited(text, splices, reverse):
    for at, piece in splices:
        text = text[:at] + piece[:2] + text[at + 1:]
    return text[::-1] if reverse else text


class TestJaroWinklerAtLeast:
    """The threshold-aware scorer: exact at or above the threshold,
    exact or ``0.0`` below it — so a caller that keeps ``score >= θ``
    sees exactly what plain ``jaro_winkler`` would have shown it."""

    @given(_PAIRS)
    @example(("abcdef", "badcfe"))      # no common trigram, scores 0.83
    @example(("", ""))
    @example(("", "abc"))
    @example(("aaaa", "aaaaaaaa"))
    @example(("a\u00e1\u0161", "\u0161\u00e1a"))
    @settings(max_examples=600, deadline=None)
    def test_exact_at_or_above_threshold(self, pair):
        a, b = pair
        exact = jaro_winkler(a, b)
        for theta in (0.5, 0.6, 0.7, 0.9):
            got = ThresholdScorer(a, theta)(b)
            if exact >= theta:
                assert got == exact, (a, b, theta)
            else:
                assert got in (0.0, exact), (a, b, theta)

    def test_zero_trigram_pair_survives(self):
        assert ThresholdScorer("abcdef", 0.7)("badcfe") == jaro_winkler("abcdef", "badcfe")

    def test_sure_losers_skip_the_match_loop(self):
        scorer = ThresholdScorer("kennedy", 0.7)
        assert scorer("zzzzzzz") == 0.0           # no shared character
        assert scorer("kxxxxxx") == 0.0           # one, of the four needed
        assert scorer("kennedys") == jaro_winkler("kennedy", "kennedys")
        assert scorer.scored_count() == 1

    def test_colliding_characters_only_loosen_the_bound(self):
        """"\u00e1" and "a" share a signature bucket: the pair passes
        the bound, is scored, and scores what the exact scorer says."""
        scorer = ThresholdScorer("aaaa", 0.7)
        assert scorer("\u00e1\u00e1\u00e1\u00e1") == 0.0 == jaro_winkler("aaaa", "\u00e1\u00e1\u00e1\u00e1")
        assert scorer.scored_count() == 1


#: A needle and raw material for one scan's candidates: each shares at
#: least ``keep`` leading characters with the needle, then diverges.
_SCANS = st.tuples(
    _STRINGS,
    st.lists(st.tuples(st.integers(0, 6), _STRINGS), max_size=16),
)


class TestScoreBin:
    """The bulk form over a length bin and its columns keeps exactly what
    plain ``jaro_winkler`` keeps, with the same floats, and runs the
    match loop for exactly the pairs the pairwise form runs it for."""

    @given(_SCANS)
    @example(("abcdef", [(0, "badcfe"), (1, "bdcfe"), (0, "abcdef")]))
    @example(("", [(0, ""), (0, "abc")]))
    @example(("abc", [(0, ""), (3, ""), (4, "d")]))
    @example(("aaaa", [(0, "\u00e1\u00e1\u00e1\u00e1"), (2, "aa"), (0, "aaaaaaaa")]))
    # Buckets collide, first characters differ:
    @example(("\u00e1bc", [(0, "abc"), (1, "bc"), (0, "\u0161bc")]))
    @settings(max_examples=300, deadline=None)
    def test_keeps_what_plain_jaro_winkler_keeps(self, scan):
        needle, raw = scan
        bins = {}
        for keep, tail in raw:
            candidate = needle[:keep] + tail
            bins.setdefault(len(candidate), []).append(candidate)
        for theta in (0.5, 0.6, 0.7, 0.9):
            for candidates in bins.values():
                by_first = {}
                for offset, candidate in enumerate(candidates):
                    by_first.setdefault(candidate[:1], []).append(offset)
                bulk = ThresholdScorer(needle, theta)
                got = bulk.score_bin(candidates, [signature(c) for c in candidates], by_first)
                assert got == [
                    (offset, jaro_winkler(needle, candidate))
                    for offset, candidate in enumerate(candidates)
                    if jaro_winkler(needle, candidate) >= theta
                ], (needle, candidates, theta)
                pairwise = ThresholdScorer(needle, theta)
                for candidate in candidates:
                    pairwise(candidate)
                assert bulk.scored_count() == pairwise.scored_count(), (needle, candidates, theta)

    def test_sure_losers_never_reach_a_scorer_call(self, monkeypatch):
        """A candidate with another first character is decided by the
        column pass: the pairwise form is not called for it."""
        candidates = ["zzzzzzz", "kxxxxxx", "pennedy", "kennedi"]
        called = []
        pairwise = ThresholdScorer.__call__
        monkeypatch.setattr(
            ThresholdScorer, "__call__",
            lambda self, candidate: called.append(candidate) or pairwise(self, candidate),
        )
        scorer = ThresholdScorer("kennedy", 0.7)
        got = scorer.score_bin(
            candidates, [signature(c) for c in candidates], {"z": [0], "k": [1, 3], "p": [2]}
        )
        assert got == [(2, jaro_winkler("kennedy", "pennedy")), (3, jaro_winkler("kennedy", "kennedi"))]
        assert called == ["kxxxxxx", "kennedi"]
        assert scorer.scored_count() == 2  # "pennedy" in bulk, "kennedi" pairwise


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("same", "same") == 0

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_known_value(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_single_edit_kinds(self):
        assert levenshtein("cat", "cut") == 1   # substitution
        assert levenshtein("cat", "cats") == 1  # insertion
        assert levenshtein("cats", "cat") == 1  # deletion

    def test_symmetry(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")

    def test_normalized_similarity(self):
        assert levenshtein_similarity("same", "same") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert 0.0 < levenshtein_similarity("cat", "cut") < 1.0


class TestContainment:
    def test_substring_scores_by_ratio(self):
        assert containment_similarity("York", "New York") == pytest.approx(4 / 8)

    def test_case_insensitive(self):
        assert containment_similarity("york", "New York") > 0

    def test_no_containment(self):
        assert containment_similarity("Paris", "New York") == 0.0

    def test_empty(self):
        assert containment_similarity("", "x") == 0.0
