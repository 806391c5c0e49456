"""Residual literal bins and their scans.

Literals that do not make it into the suffix tree are the *residual
literals* (Section 5.2).  Lookup over them is a sequential scan, which
Sapphire makes interactive by (1) organizing literals into bins keyed by
exact string length — ``bin(literal) = |literal|`` — so a length-bounded
search touches only a few bins, and (2) in the paper, scanning the
selected bins with P parallel workers, each assigned an equal number of
literals by the contiguous-range scheme of **Algorithm 1**.

Algorithm 1 is implemented verbatim in :func:`assign_tasks` (and unit
tested against its stated invariants: every literal assigned exactly
once, per-worker load within one bin-remainder of the ideal d = n/P);
``benchmarks/bench_qcm.py`` prints the load split it produces.  Nothing
here executes the assignment: both scans run in the calling thread,
because under one GIL P threads buy a Python predicate or scorer nothing
— measured at 397 to 231,166 residual literals, the serial substring
scan was never slower than a pool (docs/predictive-model.md).  What is
left is the cost of one candidate.  Each bin is a
:class:`ColumnBin`: beside its strings and keys, a parallel column of
character-multiset signatures and a first-character → offsets table,
and a scorer takes a bin whole
(:meth:`repro.text.similarity.ThresholdScorer.score_bin`).
:func:`score_bins` is that scan over any run of column bins — the
in-memory cache's, or the ones a tiered cache loaded from its file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .similarity import signature

__all__ = ["LiteralBins", "ColumnBin", "BinTask", "assign_tasks", "score_bins"]


@dataclass(frozen=True, slots=True)
class BinTask:
    """A contiguous slice of one bin assigned to one worker process."""

    process_id: int
    bin_index: int
    start: int
    end: int  # exclusive

    @property
    def size(self) -> int:
        return self.end - self.start


def assign_tasks(bin_sizes: Sequence[int], processes: int) -> List[BinTask]:
    """Algorithm 1: assign contiguous literal ranges to ``processes`` workers.

    Follows the paper's pseudocode: compute per-process capacity
    ``d = n / P``; walk the bins in order; if the remainder of the current
    bin fits in the current process's remaining capacity, assign it all,
    otherwise assign exactly the remaining capacity and advance to the
    next process.  Returns the flat task list (ordered by bin, then by
    process id).
    """
    if processes <= 0:
        raise ValueError("need at least one process")
    n = sum(bin_sizes)
    if n == 0:
        return []
    # Ceil so that rounding never leaves literals unassigned to a
    # non-existent P+1'th process.
    capacity = -(-n // processes)
    remaining = [capacity] * processes
    tasks: List[BinTask] = []
    pid = 0
    for bin_index, size in enumerate(bin_sizes):
        j = size  # literals remaining in this bin
        while j > 0:
            if pid >= processes:  # guard: last process absorbs rounding
                pid = processes - 1
                remaining[pid] = j
            if j <= remaining[pid]:
                tasks.append(BinTask(pid, bin_index, size - j, size))
                remaining[pid] -= j
                j = 0
                if remaining[pid] == 0:
                    pid += 1
            else:
                take = remaining[pid]
                tasks.append(BinTask(pid, bin_index, size - j, size - j + take))
                j -= take
                remaining[pid] = 0
                pid += 1
    return tasks


class ColumnBin:
    """One length bin as parallel columns: the strings, one integer key
    each, their signatures, and the offsets of the strings starting with
    each character — what ``ThresholdScorer.score_bin`` takes whole.
    ``rows`` are ``(key, literal)`` pairs."""

    __slots__ = ("literals", "keys", "signatures", "by_first")

    def __init__(self, rows: Iterable[Tuple[int, str]] = ()) -> None:
        self.literals: List[str] = []
        self.keys: List[int] = []
        self.signatures: List[int] = []
        self.by_first: Dict[str, List[int]] = {}
        for key, literal in rows:
            self.append(literal, key)

    def append(self, literal: str, key: int) -> None:
        self.literals.append(literal)
        self.keys.append(key)
        self.signatures.append(signature(literal))
        # Last: a scan indexes the other columns by these offsets.
        self.by_first.setdefault(literal[:1], []).append(len(self.literals) - 1)

    def __len__(self) -> int:
        return len(self.literals)


class LiteralBins:
    """Length-keyed bins of literal strings.

    The bins store plain strings (the lexical forms) plus one integer
    *key* per literal — the Sapphire cache passes its surface IDs, so a
    scan hit maps back to cached terms without a string lookup; callers
    that never pass keys get a dense insertion index instead.
    ``scan_keyed`` applies an arbitrary predicate over the literals in a
    length range and returns ``(key, literal)`` pairs; ``scan_scored``
    hands each bin of the range, with its signature columns, to a bulk
    scorer.
    """

    def __init__(self, literals: Optional[Iterable[str]] = None) -> None:
        self._bins: Dict[int, ColumnBin] = {}
        self._count = 0
        if literals is not None:
            self.add_all(literals)

    def add(self, literal: str, key: Optional[int] = None) -> None:
        bucket = self._bins.get(len(literal))
        if bucket is None:
            bucket = self._bins[len(literal)] = ColumnBin()
        bucket.append(literal, self._count if key is None else key)
        self._count += 1

    def add_all(self, literals: Iterable[str]) -> None:
        for literal in literals:
            self.add(literal)

    def __len__(self) -> int:
        return self._count

    @property
    def bin_count(self) -> int:
        return len(self._bins)

    def bin_sizes(self) -> Dict[int, int]:
        """Map of literal length -> bin population."""
        return {length: len(bucket) for length, bucket in self._bins.items()}

    def window(self, min_len: int, max_len: int) -> List[ColumnBin]:
        """The column bins whose length falls in [min_len, max_len], ascending."""
        return [
            self._bins[length]
            for length in sorted(self._bins)
            if min_len <= length <= max_len
        ]

    def selectivity(self, min_len: int, max_len: int) -> float:
        """Fraction of all residual literals *eliminated* by the length
        filter — the paper reports this averages 46% for QCM lookups."""
        if self._count == 0:
            return 0.0
        searched = sum(len(bucket) for length, bucket in self._bins.items()
                       if min_len <= length <= max_len)
        return 1.0 - searched / self._count

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def scan_keyed(
        self, min_len: int, max_len: int, match: Callable[[str], bool]
    ) -> List[Tuple[int, str]]:
        """``(key, literal)`` of the literals of length in [min_len,
        max_len] satisfying ``match``, in bin then insertion order."""
        return [
            (key, literal)
            for column_bin in self.window(min_len, max_len)
            for key, literal in zip(column_bin.keys, column_bin.literals)
            if match(literal)
        ]

    def scan_scored(
        self,
        scorer,
        threshold: float,
        min_len: int = 0,
        max_len: int = sys.maxsize,
    ) -> Tuple[List[Tuple[int, str, float]], int]:
        """``(key, literal, score)`` of the literals in a length window
        that ``scorer`` puts at or above ``threshold``, sorted by
        ``(-score, length, literal)``; and how many it was handed.

        Used by the QSM's alternative-term search (Jaro–Winkler with
        θ = 0.7): :func:`score_bins` over the bins of the window.
        """
        return score_bins(self.window(min_len, max_len), scorer, threshold)


def score_bins(
    column_bins: Iterable[ColumnBin], scorer, threshold: float
) -> Tuple[List[Tuple[int, str, float]], int]:
    """The scored scan over a run of column bins (the ``scan_scored``
    contract).  ``scorer.score_bin(literals, signatures, by_first)``
    answers a whole bin with ``(offset, score)`` pairs: every literal
    that reaches the threshold, with its exact score.  A bin is read
    once it is handed over, so ``column_bins`` may produce them lazily."""
    results: List[Tuple[int, str, float]] = []
    scanned = 0
    for column_bin in column_bins:
        literals, keys = column_bin.literals, column_bin.keys
        scanned += len(literals)
        for offset, score in scorer.score_bin(
            literals, column_bin.signatures, column_bin.by_first
        ):
            if score >= threshold:
                results.append((keys[offset], literals[offset], score))
    results.sort(key=lambda hit: (-hit[2], len(hit[1]), hit[1]))
    return results, scanned
