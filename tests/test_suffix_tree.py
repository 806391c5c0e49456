"""Unit tests for the generalized suffix tree (Ukkonen)."""

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.text import GeneralizedSuffixTree, sentinel_for


WORDS = ["spouse", "almaMater", "New York", "house", "mouse", "birthPlace"]


@pytest.fixture(scope="module")
def tree():
    return GeneralizedSuffixTree(WORDS)


class TestLookup:
    def test_substring_found(self, tree):
        assert set(tree.find_containing("ouse")) == {"spouse", "house", "mouse"}

    def test_full_string_found(self, tree):
        assert tree.find_containing("almaMater") == ["almaMater"]

    def test_single_char(self, tree):
        assert set(tree.find_containing("N")) == {"New York"}

    def test_absent_substring(self, tree):
        assert tree.find_containing("zzz") == []

    def test_case_sensitive(self, tree):
        assert tree.find_containing("SPOUSE") == []

    def test_contains_substring(self, tree):
        assert tree.contains_substring("w Yo")
        assert not tree.contains_substring("Yo w")
        assert "Mater" in tree

    def test_empty_pattern(self, tree):
        assert tree.find_containing("") == []
        assert not tree.contains_substring("")

    def test_match_never_spans_strings(self):
        """'ab'+'cd' must not match 'bc' — inputs are isolated."""
        tree = GeneralizedSuffixTree(["ab", "cd"])
        assert not tree.contains_substring("bc")

    def test_limit_caps_results(self, tree):
        results = tree.find_containing("ouse", limit=2)
        assert len(results) == 2
        assert set(results) <= {"spouse", "house", "mouse"}

    def test_find_ids_map_to_build_order(self, tree):
        ids = tree.find_ids("alma")
        assert ids == [WORDS.index("almaMater")]

    def test_duplicates_both_reported(self):
        tree = GeneralizedSuffixTree(["same", "same"])
        assert sorted(tree.find_ids("ame")) == [0, 1]


class TestOccurrences:
    def test_count_overlapping(self):
        tree = GeneralizedSuffixTree(["aaa"])
        assert tree.count_occurrences("aa") == 2

    def test_count_across_strings(self):
        tree = GeneralizedSuffixTree(["aba", "bab"])
        assert tree.count_occurrences("ab") == 2
        assert tree.count_occurrences("ba") == 2

    def test_count_absent(self, tree):
        assert tree.count_occurrences("zzz") == 0


class TestConstruction:
    def test_empty_tree(self):
        tree = GeneralizedSuffixTree([])
        assert tree.find_containing("a") == []
        assert len(tree) == 0

    def test_empty_string_input(self):
        tree = GeneralizedSuffixTree(["", "ab"])
        assert tree.find_containing("ab") == ["ab"]

    def test_rebuild_replaces_content(self):
        tree = GeneralizedSuffixTree(["old"])
        tree.build(["new"])
        assert tree.find_containing("old") == []
        assert tree.find_containing("new") == ["new"]

    def test_sentinel_rejected_in_input(self):
        with pytest.raises(ValueError):
            GeneralizedSuffixTree([f"bad{sentinel_for(0)}"])

    def test_sentinels_unique(self):
        assert len({sentinel_for(i) for i in range(1000)}) == 1000

    def test_node_count_linear_bound(self):
        """Ukkonen guarantees at most 2n nodes for n total characters."""
        words = [f"w{i}xyz{i % 7}" for i in range(200)]
        tree = GeneralizedSuffixTree(words)
        total_chars = sum(len(w) + 1 for w in words)  # +1 per terminator
        assert tree.node_count() <= 2 * total_chars

    def test_unicode_content(self):
        tree = GeneralizedSuffixTree(["Žižek", "café", "naïve"])
        assert tree.find_containing("afé") == ["café"]
        assert tree.find_containing("iže") == ["Žižek"]

    def test_len_reports_string_count(self, tree):
        assert len(tree) == len(WORDS)


class TestAgainstNaive:
    """Cross-check against a brute-force scan on adversarial inputs."""

    @pytest.mark.parametrize(
        "strings",
        [
            ["aaaa", "aaa", "aa", "a"],
            ["abab", "baba", "abba", "baab"],
            ["x"] * 5,
            ["abcabcabc"],
            ["mississippi", "missouri", "miss"],
        ],
    )
    def test_exhaustive_patterns(self, strings):
        tree = GeneralizedSuffixTree(strings)
        alphabet = sorted({c for s in strings for c in s})
        patterns = set()
        for s in strings:
            for i in range(len(s)):
                for j in range(i + 1, min(i + 5, len(s)) + 1):
                    patterns.add(s[i:j])
        patterns.update(a + b for a in alphabet for b in alphabet)
        for pattern in patterns:
            expected = sorted(i for i, s in enumerate(strings) if pattern in s)
            assert sorted(tree.find_ids(pattern)) == expected, pattern


# ----------------------------------------------------------------------
# A fixed seeded corpus: the walk order and the tree's size, pinned
# ----------------------------------------------------------------------

#: Captured from the tree whose leaves were ``_Node`` objects; the order
#: of ``find_ids`` is part of the QCM's cold-cache suggestion order.
GOLDEN = Path(__file__).with_name("suffix_tree_order.json")
#: ``find_ids`` limit pinned per pattern: the QCM asks for k = 10.
GOLDEN_LIMIT = 10
#: Nodes of the seeded corpus's tree, leaves included (the paper's
#: tree-size figure): a leaf's representation must not change it.
SEEDED_NODE_COUNT = 9500
#: tracemalloc bytes the built tree holds per character of its text.  A
#: ``_Node`` and an empty dict per leaf measured 306 on CPython 3.11, an
#: int per leaf 155; the bound keeps 25 % headroom for 3.12 and 3.13.
MAX_BYTES_PER_CHAR = 240

_SYLLABLES = ["ka", "ne", "dy", "on", "an", "ma", "ter", "ur", "ban",
              "é", "ñ", "ß", "ži", "ö", "中", "国", "𝔸", " ", "-"]


def seeded_corpus(seed=2016, n=1200):
    """``n`` strings of 0–7 syllables, ASCII and not, ~8 % repeated."""
    rng = random.Random(seed)
    strings = []
    while len(strings) < n:
        if strings and rng.random() < 0.08:
            strings.append(strings[rng.randrange(len(strings))])
            continue
        strings.append("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(0, 7))))
    return strings


def seeded_patterns(strings, seed=40, n=300):
    """``n`` distinct substrings (1–6 characters) of the corpus."""
    rng = random.Random(seed)
    patterns = []
    while len(patterns) < n:
        s = strings[rng.randrange(len(strings))]
        if not s:
            continue
        i = rng.randrange(len(s))
        pattern = s[i : i + rng.randint(1, 6)]
        if pattern not in patterns:
            patterns.append(pattern)
    return patterns


def order_digest(tree, patterns):
    """sha256 over every pattern's full ``find_ids`` list, in order."""
    lists = [tree.find_ids(p) for p in patterns]
    return hashlib.sha256(json.dumps(lists).encode()).hexdigest()


@pytest.fixture(scope="module")
def seeded():
    corpus = seeded_corpus()
    return GeneralizedSuffixTree(corpus), seeded_patterns(corpus)


class TestWalkOrder:
    """The ids come back in the same order, not just as the same set."""

    def test_limited_ids_match_the_golden(self, seeded):
        tree, patterns = seeded
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert golden["limit"] == GOLDEN_LIMIT
        assert list(golden["first"]) == patterns
        for pattern in patterns:
            assert tree.find_ids(pattern, GOLDEN_LIMIT) == golden["first"][pattern], pattern

    def test_full_lists_match_the_golden(self, seeded):
        tree, patterns = seeded
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert order_digest(tree, patterns) == golden["full_sha256"]


class TestSize:
    def test_node_count_is_unchanged(self, seeded):
        tree, _ = seeded
        assert tree.node_count() == SEEDED_NODE_COUNT

    def test_bytes_held_per_character(self):
        corpus = seeded_corpus()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = GeneralizedSuffixTree(corpus)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_char = held / len(tree._text)
        assert per_char <= MAX_BYTES_PER_CHAR, f"{per_char:.0f} B per character"

