"""Text substrate: similarity, suffix tree, residual bins, lexicon."""

from .bins import BinTask, LiteralBins, assign_tasks
from .lexicon import Lexicon, default_lexicon, split_camel_case
from .similarity import (
    SIMILARITY_MEASURES,
    containment_similarity,
    ThresholdScorer,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
)
from .suffix_tree import MAX_STRINGS, GeneralizedSuffixTree, sentinel_for

__all__ = [
    "jaro",
    "jaro_winkler",
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
    "Lexicon",
    "default_lexicon",
    "split_camel_case",
]
