"""String similarity measures.

The QSM ranks alternative predicates and literals by Jaro–Winkler
similarity (Section 6.2.1: "JW similarity ... outperforms other
similarity measures in our context", θ = 0.7).  Levenshtein and a
normalized containment score are provided for the ablation benchmarks
that compare measures.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "jaro",
    "jaro_winkler",
    "ThresholdScorer",
    "signature",
    "levenshtein",
    "levenshtein_similarity",
    "containment_similarity",
    "SIMILARITY_MEASURES",
]


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1].

    Matches are characters equal within a window of
    ``max(|s1|,|s2|)//2 - 1``; the score combines match density with the
    transposition count.
    """
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0

    window = max(len1, len2) // 2 - 1
    if window < 0:
        window = 0

    s1_matched = [False] * len1
    s2_matched = [False] * len2
    matches = 0
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len2, i + window + 1)
        for j in range(lo, hi):
            if s2_matched[j] or s2[j] != ch:
                continue
            s1_matched[i] = True
            s2_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    # Count transpositions between the matched subsequences.
    s2_indices = [j for j in range(len2) if s2_matched[j]]
    transpositions = 0
    k = 0
    for i in range(len1):
        if not s1_matched[i]:
            continue
        if s1[i] != s2[s2_indices[k]]:
            transpositions += 1
        k += 1
    transpositions //= 2

    m = float(matches)
    return (m / len1 + m / len2 + (m - transpositions) / m) / 3.0


def jaro_winkler(s1: str, s2: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro–Winkler similarity: Jaro boosted by the common prefix length.

    ``prefix_scale`` is Winkler's p (0.1 standard); the boost applies to at
    most ``max_prefix`` leading characters.  This favours strings that
    match from the beginning — exactly the behaviour the paper wants for
    predicate names typed left-to-right.
    """
    base = jaro(s1, s2)
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def signature(s: str) -> int:
    """Character-multiset signature of ``s`` as one int.

    Bit ``(k << 7) | (ord(ch) & 127)`` is set for the k-th character of
    ``s`` (counting from 0) that falls in bucket ``ord(ch) & 127``.  A
    bucket holding ``n`` characters therefore sets its bits 0..n-1, and
    ``(a & b).bit_count()`` is the sum over buckets of the smaller
    population — at least the multiset intersection of the two strings.
    Characters colliding in a bucket (non-ASCII) only raise that sum,
    i.e. loosen the bound.
    """
    sig = 0
    seen: Dict[int, int] = {}
    for ch in s:
        bucket = ord(ch) & 127
        k = seen.get(bucket, 0)
        seen[bucket] = k + 1
        sig |= 1 << ((k << 7) | bucket)
    return sig


#: LRU-bounded memo for the pairwise form (a miss recomputes); a bin
#: column holds its candidates' signatures itself.
_signature = lru_cache(maxsize=1 << 15)(signature)


@lru_cache(maxsize=1 << 12)
def _matches_needed(len1: int, len2: int, threshold: float) -> Tuple[int, ...]:
    """Fewest Jaro matches with which strings of these lengths can score
    ``threshold``, per common-prefix length 0..4.

    ``jw = j + 0.1·p·(1 − j)`` rises with ``j``, so ``jw ≥ θ`` needs
    ``j ≥ (θ − 0.1p) / (1 − 0.1p)``; the transposition term of ``j`` is
    at most 1, so ``j ≤ (m/l1 + m/l2 + 1) / 3`` and the match count must
    reach ``(3·jmin − 1)·l1·l2 / (l1 + l2)``.  The 1e-9 keeps the integer
    sound against rounding in this arithmetic and in the score itself.
    A pure function of two lengths and θ, memoised process-wide.
    """
    scale = len1 * len2 / (len1 + len2)
    return tuple(
        max(0, math.ceil(
            (3.0 * (threshold - 0.1 * prefix) / (1.0 - 0.1 * prefix) - 1.0) * scale - 1e-9
        ))
        for prefix in range(5)
    )


def _jaro_given(s1: str, s2: str, needed: int) -> float:
    """:func:`jaro` of two non-empty strings, or ``-1.0`` as soon as
    fewer than ``needed`` matches remain possible.

    Same greedy matching as :func:`jaro` (leftmost unmatched equal
    character inside the window, found with ``str.find``), so a score
    that is returned is bit-identical to it.
    """
    len1, len2 = len(s1), len(s2)
    window = max(max(len1, len2) // 2 - 1, 0)
    spare = len1 - needed  # characters of s1 that may stay unmatched
    taken = bytearray(len2)
    matched1 = []
    for i, ch in enumerate(s1):
        hi = i + window + 1
        j = s2.find(ch, i - window if i > window else 0, hi)
        while j >= 0 and taken[j]:
            j = s2.find(ch, j + 1, hi)
        if j >= 0:
            taken[j] = 1
            matched1.append(ch)
        else:
            spare -= 1
            if spare < 0:
                return -1.0
    if not matched1:
        return 0.0
    matched2 = [ch for ch, flag in zip(s2, taken) if flag]
    transpositions = sum(map(str.__ne__, matched1, matched2)) // 2
    m = float(len(matched1))
    return (m / len1 + m / len2 + (m - transpositions) / m) / 3.0


class ThresholdScorer:
    """Jaro–Winkler of one fixed string against many candidates, for a
    caller that only keeps scores of at least ``threshold``.

    ``scorer(candidate)`` is exactly ``jaro_winkler(needle, candidate)``
    whenever that reaches the threshold, and otherwise either that same
    score or ``0.0``.  Two tests let it stop early, both on the match
    count a pair of these lengths and this common prefix needs
    (:func:`_matches_needed`): the signature intersection bounds the
    matches from above *before* the O(l·w) match loop runs, and inside
    the loop the characters left cap what can still be matched.

    Trigram overlap would not do as the first test: ``"abcdef"`` and
    ``"badcfe"`` share no trigram and score 0.83.

    :meth:`score_bin` is the bulk form over one length bin and its
    signature column; it keeps and drops exactly what the pairwise form
    does.  Either way the scorer counts the candidates that survived the
    signature bound (:meth:`scored_count`); a scorer belongs to one scan
    in one thread.
    """

    __slots__ = ("needle", "threshold", "_signature", "_scored")

    def __init__(self, needle: str, threshold: float) -> None:
        self.needle = needle
        self.threshold = threshold
        self._signature = _signature(needle)
        self._scored = 0

    def scored_count(self) -> int:
        """Candidates that reached the match loop so far."""
        return self._scored

    def __call__(self, candidate: str) -> float:
        needle = self.needle
        if not needle or not candidate:
            return 1.0 if needle == candidate else 0.0
        prefix = 0
        if candidate[0] == needle[0]:
            for c1, c2 in zip(needle, candidate):
                if c1 != c2 or prefix >= 4:
                    break
                prefix += 1
        need = _matches_needed(len(needle), len(candidate), self.threshold)[prefix]
        if (self._signature & _signature(candidate)).bit_count() < need:
            return 0.0
        self._scored += 1
        base = _jaro_given(needle, candidate, need)
        if base < 0.0:
            return 0.0
        return base + prefix * 0.1 * (1.0 - base)

    def score_bin(
        self,
        candidates: Sequence[str],
        signatures: Sequence[int],
        by_first: Dict[str, List[int]],
    ) -> List[Tuple[int, float]]:
        """``(offset, score)`` of every candidate of one length bin that
        reaches the threshold (> 0), ascending by offset.

        ``signatures`` is the bin's :func:`signature` column and
        ``by_first`` its first character → offsets table.  A candidate
        whose first character differs from the needle's has common
        prefix 0, so the pairwise test on it is the prefix-0 bound: one
        comprehension over the column, survivors through the match loop,
        whose value is their score.  The few that share the first
        character (any prefix 1..4, each with its own bound) and the
        empty-string cases take the pairwise form unchanged.
        """
        needle, theta = self.needle, self.threshold
        hits: List[Tuple[int, float]] = []
        if not needle or not candidates or not candidates[0]:
            same: Sequence[int] = range(len(candidates))
        else:
            first = needle[0]
            need = _matches_needed(len(needle), len(candidates[0]), theta)[0]
            mine = self._signature
            for offset in [
                i for i, sig in enumerate(signatures) if (sig & mine).bit_count() >= need
            ]:
                candidate = candidates[offset]
                if candidate[0] != first:
                    self._scored += 1
                    score = _jaro_given(needle, candidate, need)
                    if score >= theta:
                        hits.append((offset, score))
            same = by_first.get(first, ())
        for offset in same:
            score = self(candidates[offset])
            if score >= theta:
                hits.append((offset, score))
        if same:
            hits.sort()
        return hits


def levenshtein(s1: str, s2: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs)."""
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    previous = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, start=1):
        current = [i]
        for j, c2 in enumerate(s2, start=1):
            cost = 0 if c1 == c2 else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(s1: str, s2: str) -> float:
    """Edit distance normalized to a [0, 1] similarity."""
    longest = max(len(s1), len(s2))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(s1, s2) / longest


def containment_similarity(s1: str, s2: str) -> float:
    """1.0 when one string contains the other, scaled by length ratio."""
    if not s1 or not s2:
        return 0.0
    shorter, longer = (s1, s2) if len(s1) <= len(s2) else (s2, s1)
    if shorter.lower() in longer.lower():
        return len(shorter) / len(longer)
    return 0.0


#: Registry used by the ablation benchmark comparing measures.
SIMILARITY_MEASURES: dict = {
    "jaro": jaro,
    "jaro_winkler": jaro_winkler,
    "levenshtein": levenshtein_similarity,
    "containment": containment_similarity,
}
