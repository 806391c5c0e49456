"""The Sapphire cache: what initialization stores and how it is indexed.

Per Section 5, the cache holds for every registered endpoint:

* **all predicates** (there are few of them),
* **all classes** from the RDFS hierarchy (needed for ``rdf:type``
  objects, and retrieved by Q2 anyway),
* the **filtered literals** (length < 80, target language), each with the
  predicate it was found under,
* a **significance score** per literal (Definition 1) for the ones the
  significance queries covered.

Per Section 5.2, the cache is indexed two ways:

* a generalized **suffix tree** over all predicate/class surfaces plus the
  top-``capacity`` most significant literal surfaces,
* **residual bins** (length-keyed) over the remaining literal surfaces.

ID-native layout
----------------
The cache is dictionary-encoded like the triple store: it owns a
:class:`~repro.store.dictionary.TermDictionary` and every
:class:`CachedTerm` carries the *ID* of its RDF term (and of its source
predicate), decoding only on access.  Surfaces are interned **once**
into a dense surface-ID table; the suffix tree and the residual bins
are both keyed by surface ID, so a tree hit or a bin-scan hit maps back
to its cached terms with a list index instead of a string hash.  This
is the same intern-early/decode-late discipline the storage engine and
the join planner use (``docs/storage.md``, ``docs/query-planning.md``),
applied to the hottest interactive path in the system — QCM completion
runs on every keystroke.

Reader and builder
------------------
:class:`CacheReader` is everything the QCM and QSM need — the hot tier,
the lookups, the ``residual_*`` seam, statistics, the frequency signal —
and has no mutator.  :class:`SapphireCache` is the builder on top of it
(``add_*``, ``set_significance``, ``merge``, ``build_indexes``); a cache
opened from a file (:class:`~repro.core.cache_tiered.TieredSapphireCache`)
derives from the reader only, so a replica cannot be mutated by type.
``SapphireCache(config).merge(reader)`` is how any reader becomes a
mutable in-memory cache.

Concurrency: mutation (``add_*``, ``merge``, ``build_indexes``) and
index-consistent reads are guarded by ``self.lock`` — the HTTP server
drives ``/complete`` from many handler threads while an endpoint
registration may still be populating the cache.

One deviation worth noting: the QSM's alternative-literal search scans
both the residual bins *and* the (small) tree-resident literal set, since
a significant literal like "Kennedy" must be findable as an alternative
for "Kennedys"; the paper's presentation only mentions the bins.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple

from ..rdf.terms import IRI, Literal, Term
from ..store.dictionary import TermDictionary
from ..text.bins import ColumnBin, LiteralBins, score_bins
from ..text.lexicon import split_camel_case
from ..text.suffix_tree import GeneralizedSuffixTree
from .config import SapphireConfig

__all__ = ["CachedTerm", "CacheReader", "SapphireCache", "TermDecoder"]

#: Stable display order of entry kinds within one surface bucket.
_KIND_RANK = {"predicate": 0, "class": 1, "literal": 2}


class TermDecoder(Protocol):
    """What a cached entry needs of its dictionary: IDs back to terms,
    and terms to IDs without interning."""

    def decode(self, term_id: int) -> Term: ...

    def lookup(self, term: Term) -> int: ...


@dataclass(frozen=True)
class CachedTerm:
    """One cached surface form and the RDF term behind it, by ID.

    The term itself (and the source predicate) live in the owning
    cache's dictionary; this entry carries their integer
    IDs and decodes on property access.  Equality and hashing use the
    IDs, never the dictionary reference.
    """

    surface: str
    term_id: int
    kind: str  # "predicate" | "class" | "literal"
    dictionary: TermDecoder = field(compare=False, repr=False)
    significance: int = 0
    source_predicate_id: Optional[int] = None

    @property
    def term(self) -> Term:
        return self.dictionary.decode(self.term_id)

    @property
    def source_predicate(self) -> Optional[IRI]:
        if self.source_predicate_id is None:
            return None
        decoded = self.dictionary.decode(self.source_predicate_id)
        assert isinstance(decoded, IRI)
        return decoded


class CacheReader:
    """Cached predicates, classes and literals behind the two-level
    index — the read side: lookups, scans, statistics, no mutator."""

    def __init__(self, config: Optional[SapphireConfig], dictionary: TermDecoder) -> None:
        self.config = config or SapphireConfig()
        #: Term-ID space shared by every entry in this cache.
        self.dictionary = dictionary
        #: Guards mutation and index-consistent lookups (HTTP-driven
        #: completion runs concurrently with endpoint registration).
        self.lock = threading.RLock()
        # Surface table: surface ID -> lower-cased surface (dense in a
        # builder, a bounded memo of the file's rows in a tiered reader).
        self._surfaces: Dict[int, str] = {}
        self._surface_ids: Dict[str, int] = {}
        # Entries per surface ID, ordered predicate < class < literal.
        self._entries: Dict[int, List[CachedTerm]] = {}
        # Surface IDs per kind, in first-seen order (ordered-set dicts).
        self._kind_sids: Dict[str, Dict[int, None]] = {
            "predicate": {}, "class": {}, "literal": {},
        }
        self._significance: Dict[int, int] = {}  # surface ID -> score
        self.tree: Optional[GeneralizedSuffixTree] = None
        self.bins = LiteralBins()
        self._tree_sids: List[int] = []   # aligned with tree string index
        self._tree_sid_set: Set[int] = set()
        # Derived with the indexes, for the QSM's per-round scans: the
        # tree-resident literal surfaces (IDs in tree order, and binned
        # by length like the residual ones), and every predicate/class
        # entry beside the bins of their camel-split surfaces.
        self._tree_literal_sids: List[int] = []
        self.tree_literal_bins = LiteralBins()
        self._pc_scan: Tuple[List[CachedTerm], LiteralBins] = ([], LiteralBins())
        self._indexed = False
        # Lookup accounting (fed by the QCM, surfaced in /stats): which
        # tier answered each completion — suffix tree, literal bins, the
        # on-disk index (tiered caches), or none.
        self.tree_hits = 0
        self.bin_hits = 0
        self.index_hits = 0
        self.misses = 0
        # Frequency signal (docs/predictive-model.md): how often each
        # surface was actually *used* — appeared as a query literal or
        # was accepted as a suggestion (explicit events, never the act
        # of serving itself, which would self-amplify and make repeated
        # completions nondeterministic).  Feeds the stable ranking
        # re-sort in the QCM and the /stats + EXPLAIN surfaces.
        self._freq: Dict[int, int] = {}
        self._served = 0  # completions served, the /stats gauge
        #: How the cache was loaded (``core/persistence.py`` fills it:
        #: ``{"mode": "rebuilt" | "tiered", "seconds": ...}``).
        self.load_report: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Surface table
    # ------------------------------------------------------------------

    def surface_id(self, surface: str) -> Optional[int]:
        """The surface ID for ``surface`` (case-insensitive), if interned."""
        return self._surface_ids.get(surface.lower())

    def surface_of(self, sid: int) -> str:
        """The lower-cased surface string behind a surface ID."""
        return self._surfaces[sid]

    @property
    def is_indexed(self) -> bool:
        return self._indexed

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def entries_for_surface(self, surface: str) -> List[CachedTerm]:
        """All cached terms whose surface equals ``surface`` (case-insensitive)."""
        sid = self._surface_ids.get(surface.lower())
        if sid is None:
            return []
        return list(self._entries.get(sid, ()))

    def entries_for_surface_id(self, sid: int) -> List[CachedTerm]:
        """All cached terms behind one surface ID (the ID-native lookup)."""
        return list(self._entries.get(sid, ()))

    def snapshot_indexes(self):
        """A mutually consistent ``(tree, tree_sids, bins)`` triple.

        ``build_indexes`` swaps all three wholesale under the lock; a
        reader that grabs the references together can then run its tree
        lookup and bin scan *outside* the lock — concurrent
        ``/complete`` calls must not serialize on one RLock for the
        duration of a scan.  Entry buckets and the surface table are
        append-only, so resolving the returned surface IDs afterwards
        is safe whichever snapshot was seen.
        """
        with self.lock:
            return self.tree, self._tree_sids, self.bins

    # ------------------------------------------------------------------
    # Residual-tier dispatch (QCM/QSM call these instead of touching the
    # bins directly, so a tiered cache can answer from its on-disk index)
    # ------------------------------------------------------------------

    def residual_candidates(
        self,
        needle: str,
        min_len: int,
        max_len: int,
        processes: object,
        bins: LiteralBins,
        limit: Optional[int] = None,
    ) -> List[tuple]:
        """``(surface_id, surface)`` pairs of residual literals in the
        length window containing ``needle``.  The base cache scans the
        snapshotted ``bins``; a tiered cache queries its on-disk index
        instead.  ``processes`` is ignored — the scan is serial, and the
        slot stays only because ``benchmarks/spine/layers.py`` calls this
        positionally.  ``limit`` is advisory — the in-memory scan returns
        everything and lets the QCM truncate."""
        del processes, limit
        return bins.scan_keyed(min_len, max_len, lambda lit: needle in lit)

    def residual_searched_fraction(
        self, min_len: int, max_len: int, bins: LiteralBins
    ) -> float:
        """Fraction of residual literals the window scan had to touch."""
        return 1.0 - bins.selectivity(min_len, max_len)

    def residual_window(
        self, min_len: int, max_len: int, bins: LiteralBins
    ) -> Iterable[ColumnBin]:
        """The residual column bins of a length window, ascending.  The
        base cache has them in the snapshotted ``bins``; a tiered cache
        produces the ones it keeps loaded from its file."""
        return bins.window(min_len, max_len)

    def residual_scored(
        self,
        min_len: int,
        max_len: int,
        scorer,
        threshold: float,
        bins: LiteralBins,
    ) -> Tuple[List[tuple], int]:
        """``(surface_id, surface, score)`` triples the scorer puts at or
        above ``threshold`` in the window, sorted ``(-score, length,
        surface)``, and the number of residual literals scanned — the
        ``scan_scored`` contract, over :meth:`residual_window` and
        outside the cache lock."""
        return score_bins(
            self.residual_window(min_len, max_len, bins), scorer, threshold
        )

    def _kind_entries(self, kind: str) -> List[CachedTerm]:
        return [
            entry
            for sid in self._kind_sids[kind]
            for entry in self._entries.get(sid, ())
            if entry.kind == kind
        ]

    def predicates(self) -> List[CachedTerm]:
        return self._kind_entries("predicate")

    def classes(self) -> List[CachedTerm]:
        return self._kind_entries("class")

    def literal_surfaces(self) -> List[str]:
        return [self._surfaces[sid] for sid in self._kind_sids["literal"]]

    def _derive_scan_inputs(self, tree_literals: List[int]) -> None:
        """What the QSM scans every round, derived once per (re)index."""
        self._tree_literal_sids = tree_literals
        self.tree_literal_bins = LiteralBins()
        for sid in tree_literals:
            self.tree_literal_bins.add(self._surfaces[sid], key=sid)
        self._pc_scan = self._derive_pc_scan()

    def _derive_pc_scan(self) -> Tuple[List[CachedTerm], LiteralBins]:
        entries = self.predicates() + self.classes()
        return entries, LiteralBins(
            split_camel_case(entry.surface) for entry in entries
        )

    def predicate_class_scan(self) -> Tuple[List[CachedTerm], LiteralBins]:
        """Every predicate entry, then every class entry, and the bins
        of their camel-split surfaces (what the QSM scores a typed
        predicate against), keyed by position in that list.  Derived by
        ``build_indexes``; entries added since then show up at once, at
        the price of re-deriving per call."""
        with self.lock:
            return self._pc_scan if self._indexed else self._derive_pc_scan()

    def tree_literal_surface_ids(self) -> List[int]:
        """Surface IDs of the literal surfaces indexed in the suffix tree."""
        return self._tree_literal_sids

    def tree_literal_surfaces(self) -> List[str]:
        """Lower-cased literal surfaces indexed in the suffix tree."""
        return [self._surfaces[sid] for sid in self.tree_literal_surface_ids()]

    def in_tree(self, surface: str) -> bool:
        sid = self._surface_ids.get(surface.lower())
        return sid is not None and sid in self._tree_sid_set

    def significance_of(self, surface: str) -> int:
        sid = self._surface_ids.get(surface.lower())
        if sid is None:
            return 0
        return self._significance.get(sid, 0)

    # ------------------------------------------------------------------
    # Statistics (the Section 5 cost discussion)
    # ------------------------------------------------------------------

    @property
    def n_predicates(self) -> int:
        return len(self._kind_entries("predicate"))

    @property
    def n_classes(self) -> int:
        return len(self._kind_entries("class"))

    @property
    def n_literals(self) -> int:
        return len(self._kind_entries("literal"))

    @property
    def n_tree_strings(self) -> int:
        return len(self._tree_sids)

    @property
    def n_residual_literals(self) -> int:
        return len(self.bins)

    @property
    def n_residual_bins(self) -> int:
        return self.bins.bin_count

    def stats(self) -> Dict[str, int]:
        """Counters mirroring the paper's DBpedia initialization report."""
        return {
            "predicates": self.n_predicates,
            "classes": self.n_classes,
            "literals": self.n_literals,
            "tree_strings": self.n_tree_strings,
            "residual_literals": self.n_residual_literals,
            "residual_bins": self.n_residual_bins,
        }

    def note_lookup(self, tree_hit: bool, residual_hit: bool) -> None:
        """Account one completion lookup against the hit/miss counters.
        Residual hits count against the bins here; the tiered cache
        overrides this to charge its on-disk index tier instead."""
        with self.lock:
            if tree_hit:
                self.tree_hits += 1
            elif residual_hit:
                self.bin_hits += 1
            else:
                self.misses += 1

    def index_gauges(self) -> Dict[str, int]:
        """On-disk index gauges — its size, and the residual window rows
        loaded from it (resident now, bins loaded so far); zero without
        an index tier."""
        return {
            "index_surfaces": 0, "index_bytes": 0, "index_fts": 0,
            "window_rows_resident": 0, "window_bin_loads": 0,
        }

    def lookup_stats(self) -> Dict[str, object]:
        """Per-tier hit/miss counters, rates and index gauges for the
        serving layer's ``/stats`` cache block."""
        with self.lock:
            lookups = (
                self.tree_hits + self.bin_hits + self.index_hits + self.misses
            )
            stats: Dict[str, object] = {
                "lookups": lookups,
                "tree_hits": self.tree_hits,
                "bin_hits": self.bin_hits,
                "index_hits": self.index_hits,
                "misses": self.misses,
                "served": self._served,
            }
        for tier in ("tree", "bin", "index"):
            hits = stats[f"{tier}_hits"]
            stats[f"{tier}_hit_rate"] = (
                hits / lookups if lookups else 0.0  # type: ignore[operator]
            )
        stats.update(self.index_gauges())
        return stats

    # ------------------------------------------------------------------
    # Frequency/session ranking signal (docs/predictive-model.md)
    # ------------------------------------------------------------------

    def note_served(self, sids: List[int]) -> None:
        """Count completions served (a /stats gauge — serving does NOT
        feed the frequency signal; see :meth:`note_used`)."""
        with self.lock:
            self._served += len(sids)

    def note_used(self, surface: str) -> None:
        """Record one explicit *use* of a surface — it appeared as a
        literal in an executed query, or the user accepted a suggestion
        carrying it.  These events (not serving) drive the frequency
        ranking, so repeated completions stay deterministic."""
        sid = self.surface_id(surface)
        if sid is None:
            return
        with self.lock:
            self._freq[sid] = self._freq.get(sid, 0) + 1

    def frequency_of(self, sid: int) -> int:
        with self.lock:
            return self._freq.get(sid, 0)

    def rank_scores(
        self, sids: List[int], boost_surfaces: Optional[List[str]] = None
    ) -> List[float]:
        """Ranking score per served surface: how often the user actually
        used it (query literals, accepted suggestions), plus a session
        boost when the caller marked it recent.  All-zero scores leave
        the QCM's shortest-first order untouched (the re-sort is
        stable), so a cold cache ranks exactly like the paper's
        algorithm."""
        boosted = set()
        if boost_surfaces:
            for surface in boost_surfaces:
                sid = self.surface_id(surface)
                if sid is not None:
                    boosted.add(sid)
        with self.lock:
            return [
                self._freq.get(sid, 0) + (1.0 if sid in boosted else 0.0)
                for sid in sids
            ]

    def ranking_report(self, limit: int = 8) -> str:
        """One-line summary of the frequency signal (EXPLAIN surface)."""
        with self.lock:
            top = sorted(
                self._freq.items(), key=lambda item: (-item[1], item[0])
            )[:limit]
            parts = [
                f"{self.surface_of(sid)}:{count}" for sid, count in top
            ]
        listing = ", ".join(parts) if parts else "(none served yet)"
        return f"top=[{listing}]"

    def close(self) -> None:
        """Release backing resources (no-op for the in-memory cache)."""


class SapphireCache(CacheReader):
    """The builder: an in-memory cache that initialization populates,
    merges and indexes."""

    dictionary: TermDictionary

    def __init__(
        self,
        config: Optional[SapphireConfig] = None,
        dictionary: Optional[TermDictionary] = None,
    ) -> None:
        super().__init__(
            config, dictionary if dictionary is not None else TermDictionary())

    def _surface_id(self, surface: str) -> int:
        key = surface.lower()
        sid = self._surface_ids.get(key)
        if sid is None:
            sid = len(self._surfaces)
            self._surface_ids[key] = sid
            self._surfaces[sid] = key
        return sid

    # ------------------------------------------------------------------
    # Population (called by initialization)
    # ------------------------------------------------------------------

    def _add_entry(self, surface: str, term: Term, kind: str,
                   significance: int = 0,
                   source_predicate: Optional[IRI] = None) -> None:
        with self.lock:
            term_id = self.dictionary.encode(term)
            sid = self._surface_id(surface)
            bucket = self._entries.setdefault(sid, [])
            if significance:
                # A re-add may carry a fresh significance observation
                # (Q8 revisits literals Q6 already cached): keep the max
                # even when the entry itself is deduplicated below.
                current = self._significance.get(sid, 0)
                if significance > current:
                    self._significance[sid] = significance
            if any(e.term_id == term_id and e.kind == kind for e in bucket):
                return
            entry = CachedTerm(
                surface, term_id, kind, self.dictionary,
                significance=significance,
                source_predicate_id=(
                    self.dictionary.encode(source_predicate)
                    if source_predicate is not None else None
                ),
            )
            # Keep the bucket ordered by kind rank, insertion-stable.
            rank = _KIND_RANK[kind]
            at = len(bucket)
            for position, existing in enumerate(bucket):
                if _KIND_RANK[existing.kind] > rank:
                    at = position
                    break
            bucket.insert(at, entry)
            self._kind_sids[kind].setdefault(sid)
            self._indexed = False

    def add_predicate(self, predicate: IRI) -> None:
        self._add_entry(predicate.local_name(), predicate, "predicate")

    def add_class(self, cls: IRI) -> None:
        self._add_entry(cls.local_name(), cls, "class")

    def add_literal(
        self,
        literal: Literal,
        source_predicate: Optional[IRI] = None,
        significance: int = 0,
    ) -> None:
        self._add_entry(literal.lexical, literal, "literal",
                        significance=significance,
                        source_predicate=source_predicate)

    def set_significance(self, surface: str, significance: int) -> None:
        with self.lock:
            sid = self._surface_id(surface)
            current = self._significance.get(sid, 0)
            if significance > current:
                self._significance[sid] = significance

    # ------------------------------------------------------------------
    # Index construction (Section 5.2)
    # ------------------------------------------------------------------

    def build_indexes(self) -> None:
        """Build the suffix tree and residual bins, both keyed by surface ID.

        All predicates and classes go into the tree.  Literal surfaces are
        ranked by significance; the top ``suffix_tree_capacity`` (minus the
        predicate/class count) join them.  Everything else goes to the
        residual bins.  Surfaces are indexed lower-cased so completion is
        case-insensitive; display forms are preserved in the entries.
        """
        with self.lock:
            tree_sids: List[int] = []
            seen: Set[int] = set()
            for sid in list(self._kind_sids["predicate"]) + list(self._kind_sids["class"]):
                if sid not in seen:
                    seen.add(sid)
                    tree_sids.append(sid)

            literal_budget = max(0, self.config.suffix_tree_capacity - len(tree_sids))
            ranked = sorted(
                self._kind_sids["literal"],
                key=lambda sid: (
                    -self._significance.get(sid, 0),
                    len(self._surfaces[sid]),
                    self._surfaces[sid],
                ),
            )
            tree_literals = [sid for sid in ranked[:literal_budget] if sid not in seen]
            residual_literals = ranked[literal_budget:]

            tree_sids.extend(tree_literals)
            self._tree_sids = tree_sids
            self._tree_sid_set = set(tree_sids)
            self._derive_scan_inputs(tree_literals)
            self.tree = GeneralizedSuffixTree(
                [self._surfaces[sid] for sid in tree_sids]
            )

            self.bins = LiteralBins()
            for sid in residual_literals:
                self.bins.add(self._surfaces[sid], key=sid)
            self._indexed = True

    def copy_with_capacity(self, capacity: int) -> "SapphireCache":
        """A new cache with the same contents but a different suffix-tree
        budget, freshly indexed.  Shares the (append-only) term
        dictionary; used by the index-split ablations (the tree's linked
        nodes make deepcopy unsuitable)."""
        clone = SapphireCache(
            replace(self.config, suffix_tree_capacity=capacity),
            dictionary=self.dictionary,
        )
        clone.merge(self)
        clone.build_indexes()
        return clone

    def merge(self, other: CacheReader) -> None:
        """Fold another cache into this one (multi-endpoint federations
        share one PUM cache; a cache opened from a file becomes mutable
        this way).  ``other`` is read through the reader surface only;
        terms re-intern into this cache's dictionary, so merged IDs are
        local."""
        with self.lock:
            for entry in other.predicates():
                self.add_predicate(entry.term)  # type: ignore[arg-type]
            for entry in other.classes():
                self.add_class(entry.term)  # type: ignore[arg-type]
            for surface in other.literal_surfaces():
                for entry in other.entries_for_surface(surface):
                    if entry.kind == "literal":
                        self.add_literal(
                            entry.term,  # type: ignore[arg-type]
                            entry.source_predicate,
                            entry.significance,
                        )
                self.set_significance(surface, other.significance_of(surface))
            self._indexed = False
