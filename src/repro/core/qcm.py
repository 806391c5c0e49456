"""Query Completion Module (Section 6.1, Figure 5).

Given the string ``t`` the user has typed so far, find k strings in the
cached data that contain ``t``:

1. Look ``t`` up in the suffix tree; matches return immediately (the
   paper stresses that these arrive first and make the tool feel
   responsive).
2. If fewer than k matches, search the residual bins — only the bins of
   literals with length in ``[|t|, |t| + γ]`` (suggestions much longer
   than the typed string are not useful), scanned in the calling thread
   (the paper's P workers: ``repro.text.bins``).
3. The shortest bin results fill the remaining slots.

Variables (strings starting with ``?``) get no suggestions.

Two refinements over the paper's presentation (docs/predictive-model.md):

* the residual search dispatches through the cache
  (``residual_candidates``), so a tiered cache answers step 2 from its
  on-disk term index instead of in-memory bins — the wire format is
  unchanged (residual completions keep the ``"bins"`` source label);
* after assembly the k completions are **stably** re-sorted by the
  frequency/session ranking signal (how often each surface was served
  before, plus explicit session boosts).  A cold cache scores all-zero,
  which leaves the paper's tree-then-shortest order untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from .cache import CacheReader, SapphireCache
from .config import SapphireConfig

__all__ = ["Completion", "CompletionResult", "QueryCompletionModule"]


@dataclass(frozen=True)
class Completion:
    """One auto-complete suggestion."""

    surface: str
    entries: tuple  # the CachedTerm objects behind this surface
    source: str  # "tree" | "bins"

    @property
    def kinds(self) -> tuple:
        return tuple(sorted({entry.kind for entry in self.entries}))


@dataclass
class CompletionResult:
    """The k suggestions plus the timing split the paper reports."""

    term: str
    completions: List[Completion] = field(default_factory=list)
    tree_hit: bool = False
    tree_seconds: float = 0.0
    bins_seconds: float = 0.0
    bins_searched_fraction: float = 0.0
    #: How many completions carried a positive frequency/session score
    #: (the ranking re-sort surface; not part of the wire format).
    boosted: int = 0

    @property
    def total_seconds(self) -> float:
        return self.tree_seconds + self.bins_seconds

    def surfaces(self) -> List[str]:
        return [completion.surface for completion in self.completions]

    def __len__(self) -> int:
        return len(self.completions)


class QueryCompletionModule:
    """Interactive completion over one (indexed) Sapphire cache."""

    def __init__(self, cache: CacheReader, config: Optional[SapphireConfig] = None) -> None:
        if isinstance(cache, SapphireCache) and not cache.is_indexed:
            cache.build_indexes()
        self.cache = cache
        self.config = config or cache.config

    def complete(
        self,
        term: str,
        k: Optional[int] = None,
        boost_surfaces: Optional[List[str]] = None,
    ) -> CompletionResult:
        """Suggest up to ``k`` cached strings containing ``term``.

        Runs entirely in surface-ID space: the tree lookup and the
        residual search both return surface IDs, and entries are
        fetched by ID.  The indexes are snapshotted under the cache
        lock (so a concurrent endpoint registration can never swap them
        mid-completion) but the scans run *outside* it — concurrent
        ``/complete`` handler threads do not serialize on the lock.
        ``boost_surfaces`` are session-recent surfaces the ranking
        re-sort favours.
        """
        k = k if k is not None else self.config.k_suggestions
        result = CompletionResult(term=term)
        text = term.strip()
        if not text or text.startswith("?"):
            return result
        needle = text.lower()

        tree, tree_sids_table, bins = self.cache.snapshot_indexes()

        # Step 1: the suffix tree (predicates, classes, significant
        # literals), hits identified by surface ID.
        t0 = time.perf_counter()
        tree_sids: List[int] = []
        if tree is not None:
            tree_sids = [tree_sids_table[i] for i in tree.find_ids(needle, limit=k)]
        result.tree_seconds = time.perf_counter() - t0
        result.tree_hit = bool(tree_sids)
        pairs: List[tuple] = []
        for sid in tree_sids:
            entries = tuple(self.cache.entries_for_surface_id(sid))
            if entries:
                pairs.append((sid, Completion(entries[0].surface, entries, "tree")))

        remaining = k - len(pairs)
        if remaining <= 0:
            return self._finish(result, pairs, boost_surfaces, False)

        # Step 2: the residual tier — bins of length |t| .. |t|+gamma,
        # or the on-disk index when the cache is tiered.
        min_len, max_len = len(needle), len(needle) + self.config.gamma
        t0 = time.perf_counter()
        matches = self.cache.residual_candidates(
            needle, min_len, max_len, None, bins,
            limit=remaining + len(tree_sids),
        )
        result.bins_seconds = time.perf_counter() - t0
        result.bins_searched_fraction = self.cache.residual_searched_fraction(
            min_len, max_len, bins
        )

        seen = set(tree_sids)
        # The shortest results are returned (closest to the typed prefix).
        for sid, surface in sorted(matches, key=lambda hit: (len(hit[1]), hit[1])):
            if sid in seen:
                continue
            seen.add(sid)
            entries = tuple(self.cache.entries_for_surface_id(sid))
            if not entries:
                continue
            pairs.append((sid, Completion(entries[0].surface, entries, "bins")))
            if len(pairs) >= k:
                break
        return self._finish(result, pairs, boost_surfaces, bool(pairs))

    def _finish(
        self,
        result: CompletionResult,
        pairs: List[tuple],
        boost_surfaces: Optional[List[str]],
        residual_hit: bool,
    ) -> CompletionResult:
        """Apply the ranking re-sort, record serving counters, finish."""
        sids = [sid for sid, _ in pairs]
        scores = self.cache.rank_scores(sids, boost_surfaces)
        if any(scores):
            order = sorted(range(len(pairs)), key=lambda i: -scores[i])
            pairs = [pairs[i] for i in order]
            result.boosted = sum(1 for score in scores if score > 0)
        result.completions = [completion for _, completion in pairs]
        self.cache.note_served(sids)
        self.cache.note_lookup(result.tree_hit, residual_hit)
        return result
