"""Text substrate: similarity, suffix tree, residual bins, lexicon."""

from .bins import BinTask, LiteralBins, assign_tasks, scan_bins
from .lexicon import Lexicon, default_lexicon, split_camel_case
from .similarity import (
    SIMILARITY_MEASURES,
    containment_similarity,
    ThresholdScorer,
    jaro,
    jaro_winkler,
    jaro_winkler_at_least,
    levenshtein,
    levenshtein_similarity,
)
from .suffix_tree import MAX_STRINGS, GeneralizedSuffixTree, sentinel_for

__all__ = [
    "jaro",
    "jaro_winkler",
    "jaro_winkler_at_least",
    "ThresholdScorer",
    "levenshtein",
    "levenshtein_similarity",
    "containment_similarity",
    "SIMILARITY_MEASURES",
    "GeneralizedSuffixTree",
    "sentinel_for",
    "MAX_STRINGS",
    "LiteralBins",
    "BinTask",
    "assign_tasks",
    "scan_bins",
    "Lexicon",
    "default_lexicon",
    "split_camel_case",
]
