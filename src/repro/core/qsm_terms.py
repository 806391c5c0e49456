"""QSM part 1: alternative query terms (Section 6.2.1, Algorithm 2).

For every non-variable element of every triple pattern in the user's
query, the QSM hunts for semantically close replacements:

* **Predicates** (and class IRIs) — first expanded through the Lemon-style
  lexicon (``wife``/``husband`` -> ``spouse``), then matched against the
  cached predicate/class surfaces by Jaro–Winkler similarity ≥ θ = 0.7.
* **Literals** — matched against cached literal surfaces of length within
  ``[|l| − α, |l| + β]`` (α = 2, β = 3) by the same JW threshold, over
  the residual bins (plus the small tree-resident literal set, see the
  cache module's docstring).  The scan runs in surface-ID space: bin
  hits and tree hits are surface IDs resolved to cached terms by list
  index.

Every scan is a bin scan (:meth:`~repro.text.bins.LiteralBins.scan_scored`)
in the calling thread, and scores through
:class:`~repro.text.similarity.ThresholdScorer`, which takes a bin and
its signature column whole and runs the match loop only for a pair that
could reach θ.  The residual window is ``cache.residual_scored`` — one
definition for both caches; a tiered cache produces the window's bins
from the ones it keeps loaded from its file — so ``scanned`` /
``scored`` / ``kept`` of the ``qsm-alternatives`` span mean the same
on either.  Candidates are discovered once per round
(:meth:`AlternativeTermsFinder.candidate_positions`) and never memoised
across rounds — with one exception that reads no round at all: a
predicate or class the cache holds is answered from a table the finder
scores at construction, with this same scan, for every entry of
``cache.predicate_class_scan()``.  Its answer is a pure function of that
snapshot, so the table serves only while the cache still returns the
snapshot it was built from (``docs/predictive-model.md``, *The
vocabulary is scored once*).

One alternative query is constructed per replacement (one change at a
time — the UI's "did you mean X instead of Y?" phrasing).  Candidate
*execution* is batched: all candidates for one position ship as a single
``VALUES``-constrained probe through the unified algebra pipeline
(:mod:`repro.core.probes`), which at the federation costs one request
per endpoint per round instead of one per candidate.  A candidate whose
one-change query the data proves empty does not ship, and a position
left with none sends nothing.  The top k/2
predicate-change and k/2 literal-change queries *that return answers*
are suggested, in similarity order, with their answers prefetched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..rdf.terms import IRI, Literal, Term, Variable
from ..sparql.ast_nodes import Query
from ..sparql.results import SelectResult
from ..sparql.serializer import serialize_query
from ..sparql.trace import Tracer
from ..text.bins import LiteralBins
from ..text.lexicon import Lexicon, default_lexicon
from ..text.similarity import ThresholdScorer
from .cache import CachedTerm, CacheReader, SapphireCache
from .config import SapphireConfig
from .probes import NoMatchProof, ProbeBatcher, ProbeTally, select_form

__all__ = ["TermSuggestion", "AlternativeTermsFinder"]

#: Executes a query AST somewhere (local store, endpoint, federation).
QueryRunner = Callable[[Query], SelectResult]

#: One candidate replacement and its Jaro–Winkler score.
Scored = Tuple[CachedTerm, float]
#: One probed position: triple index, position name, the query's term
#: there, and its scored candidates.
Position = Tuple[int, str, Term, List[Scored]]

#: One candidate of a suggestion round: where, what, whether a batched
#: probe answered for it, and that probe's rows (``None``: no rows).
_Candidate = Tuple[Position, Scored, bool, Optional[SelectResult]]


@dataclass
class _ScanTally:
    """What one round of candidate discovery looked at: the attributes
    of its ``qsm-alternatives`` span (``docs/tracing.md``)."""

    scanned: int = 0  # (needle, candidate) pairs handed to a scorer
    scored: int = 0   # ... that the signature bound let into the match loop
    kept: int = 0     # candidates that reached θ, the table's included
    vocabulary_hits: int = 0  # IRIs answered from the vocabulary table


@dataclass
class TermSuggestion:
    """One 'did you mean ...?' suggestion with its prefetched answers."""

    kind: str  # "predicate" | "literal"
    triple_index: int
    position: str  # "subject" | "predicate" | "object"
    original: Term
    replacement: Term
    similarity: float
    query: Query
    query_text: str
    n_answers: int
    prefetched: Optional[SelectResult] = None

    def message(self) -> str:
        """The user-facing phrasing from Section 4."""
        return (
            f"In triple {self.triple_index + 1}, did you mean "
            f"{self.replacement.n3()} instead of {self.original.n3()}? "
            f"There are {self.n_answers} answers available."
        )


class AlternativeTermsFinder:
    """Implements Algorithm 2 over one cache, a query runner and the
    runner's no-match proof (``QueryService.proves_no_match``)."""

    def __init__(
        self,
        cache: CacheReader,
        runner: QueryRunner,
        proves_no_match: NoMatchProof,
        config: Optional[SapphireConfig] = None,
        lexicon: Optional[Lexicon] = None,
    ) -> None:
        if isinstance(cache, SapphireCache) and not cache.is_indexed:
            cache.build_indexes()
        self.cache = cache
        self.runner = runner
        self.config = config or cache.config
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self._batcher = ProbeBatcher(runner, proves_no_match)
        # The vocabulary table: every cached predicate and class scored
        # once against the snapshot it came from.  Read-only from here
        # on, so handler threads share it without a lock.
        self._vocabulary_scan = cache.predicate_class_scan()
        self._vocabulary: Dict[Term, Tuple[Tuple[Scored, ...], int]] = {}
        for entry in self._vocabulary_scan[0]:
            term = entry.term
            if term not in self._vocabulary:
                found, kept = self._scan_predicate(
                    term, entry.term_id, self._vocabulary_scan, None)
                self._vocabulary[term] = (tuple(found), kept)

    # ------------------------------------------------------------------
    # Candidate discovery
    # ------------------------------------------------------------------

    def predicate_alternatives(
        self, predicate: IRI, tally: Optional[_ScanTally] = None
    ) -> List[Scored]:
        """Cached predicates/classes similar to ``predicate`` or its lexica.

        A predicate or class of the cache reads its answer off the
        vocabulary table while the cache's scan is the snapshot the
        table was built from; anything else (a typo, an entity, a cache
        changed since) is scanned now."""
        scan = self.cache.predicate_class_scan()
        known = self._vocabulary.get(predicate) if scan is self._vocabulary_scan else None
        if known is None:
            found, kept = self._scan_predicate(
                predicate, self.cache.dictionary.lookup(predicate), scan, tally)
        else:
            found, kept = list(known[0]), known[1]
            if tally is not None:
                tally.vocabulary_hits += 1
        if tally is not None:
            tally.kept += kept
        return found

    def _scan_predicate(
        self,
        predicate: IRI,
        predicate_id: int,
        scan: Tuple[List[CachedTerm], LiteralBins],
        tally: Optional[_ScanTally],
    ) -> Tuple[List[Scored], int]:
        """Algorithm 2's predicate scan: every lexicon form of
        ``predicate`` against the camel-split surfaces of ``scan``.  The
        top ``max_alternatives_per_term``, and how many reached θ before
        that cut (the entry ``predicate_id`` names left out)."""
        theta = self.config.theta
        scorers = [
            ThresholdScorer(form, theta)
            for form in self.lexicon.get_lexica(predicate)
        ]
        entries, bins = scan
        best: Dict[int, float] = {}  # entry position -> max over the forms
        for scorer in scorers:
            for at, _, score in bins.scan_scored(scorer, theta)[0]:
                if score > best.get(at, 0.0):
                    best[at] = score
        scored = [
            (entries[at], score)
            for at, score in sorted(best.items())
            if entries[at].term_id != predicate_id
        ]
        if tally is not None:
            tally.scanned += len(bins) * len(scorers)
            tally.scored += sum(scorer.scored_count() for scorer in scorers)
        scored.sort(key=lambda pair: (-pair[1], pair[0].surface))
        return scored[: self.config.max_alternatives_per_term], len(scored)

    def literal_alternatives(
        self, literal: Literal, tally: Optional[_ScanTally] = None
    ) -> List[Scored]:
        """Cached literals JW-similar to ``literal`` within the α/β window.

        ID-native: both the residual scan and the tree-resident set
        yield surface IDs; entries resolve by ID, no string re-hashing.
        """
        surface = literal.lexical
        needle = surface.lower()
        min_len = max(1, len(surface) - self.config.alpha)
        max_len = len(surface) + self.config.beta
        theta = self.config.theta
        scorer = ThresholdScorer(needle, theta)
        # Snapshot under the lock, scan outside it: a JW sweep over the
        # bins must not stall concurrent per-keystroke completions.
        with self.cache.lock:
            _, _, bins = self.cache.snapshot_indexes()
            tree_literals = self.cache.tree_literal_bins
        matches, scanned = self.cache.residual_scored(
            min_len, max_len, scorer, theta, bins
        )
        # Also consider the tree-resident (significant) literal surfaces.
        tree_matches, tree_scanned = tree_literals.scan_scored(
            scorer, theta, min_len, max_len
        )
        matches += tree_matches
        if tally is not None:
            tally.scanned += scanned + tree_scanned
            tally.scored += scorer.scored_count()
            tally.kept += len(matches)

        scored: List[Scored] = []
        seen = set()
        for sid, match_surface, score in sorted(matches, key=lambda hit: -hit[2]):
            if match_surface == needle or sid in seen:
                continue
            seen.add(sid)
            for entry in self.cache.entries_for_surface_id(sid):
                if entry.kind == "literal" and entry.term != literal:
                    scored.append((entry, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0].surface))
        return scored[: self.config.max_alternatives_per_term]

    # ------------------------------------------------------------------
    # Algorithm 2: build, execute (batched), rank alternative queries
    # ------------------------------------------------------------------

    def candidate_positions(
        self, query: Query, tracer: Optional[Tracer] = None
    ) -> List[Position]:
        """Every probed position with its scored candidate list.

        One round discovers candidates once: ``run_query`` hands the
        result to :meth:`suggest` and seeds the relaxer from it.  Under
        a tracer the scan records a ``qsm-alternatives`` span.
        """
        if tracer is None:
            return self._discover(query, None)
        tally = _ScanTally()
        with tracer.span("qsm-alternatives") as span:
            positions = self._discover(query, tally)
            if span is not None:
                span.attrs.update(
                    scanned=tally.scanned,
                    bounded_out=tally.scanned - tally.scored,
                    scored=tally.scored,
                    kept=tally.kept,
                    vocabulary_hits=tally.vocabulary_hits,
                )
        return positions

    def _discover(self, query: Query, tally: Optional[_ScanTally]) -> List[Position]:
        positions: List[Position] = []
        found_for: Dict[Term, List[Scored]] = {}  # a term repeated in the query scans once
        for index, pattern in enumerate(query.where.patterns):
            for position, element in (
                ("subject", pattern.subject),
                ("predicate", pattern.predicate),
                ("object", pattern.object),
            ):
                if isinstance(element, Variable):
                    continue
                found = found_for.get(element)
                if found is None:
                    if isinstance(element, IRI):
                        found = self.predicate_alternatives(element, tally)
                    elif isinstance(element, Literal):
                        found = self.literal_alternatives(element, tally)
                    else:  # pragma: no cover - no other term kinds exist
                        continue
                    found_for[element] = found
                if found:
                    positions.append((index, position, element, found))
        return positions

    def suggest(
        self,
        query: Query,
        k: Optional[int] = None,
        positions: Optional[List[Position]] = None,
        tracer: Optional[Tracer] = None,
        tally: Optional[ProbeTally] = None,
    ) -> List[TermSuggestion]:
        """Top-k one-term-change queries that return answers.

        ``positions`` is a :meth:`candidate_positions` result for this
        query, when the caller already has one.  Under a ``tracer``
        every batched probe records a ``qsm-probe-batch`` span; ``tally``
        counts the candidates and positions the proof kept from shipping.
        """
        k = k if k is not None else self.config.k_suggestions
        if positions is None:
            positions = self.candidate_positions(query)
        candidates: Dict[str, List[_Candidate]] = {"predicate": [], "literal": []}
        for probed in positions:
            index, position, element, found = probed
            bucket = candidates["predicate" if isinstance(element, IRI) else "literal"]
            results: Optional[Dict[Term, SelectResult]] = self._batcher.run(
                query, index, position, [entry.term for entry, _ in found],
                tracer=tracer, tally=tally,
            )
            for entry, score in found:
                bucket.append((
                    probed, (entry, score), results is not None,
                    results.get(entry.term) if results is not None else None,
                ))

        suggestions: List[TermSuggestion] = []
        for kind, bucket in candidates.items():
            bucket.sort(key=lambda candidate: -candidate[1][1])
            suggestions.extend(self._top_with_answers(query, kind, bucket, k // 2))
        return suggestions

    def probe_queries(self, query: Query) -> List[Tuple[str, Optional[Query]]]:
        """The batched probe queries one suggestion round ships, labelled,
        ``None`` for a position that ships nothing (the EXPLAIN surface —
        see ``SapphireServer.explain_suggestions``)."""
        return self._batcher.probe_queries(
            query,
            [
                (index, position, [entry.term for entry, _ in found])
                for index, position, _, found in self.candidate_positions(query)
            ],
        )

    def _top_with_answers(
        self,
        query: Query,
        kind: str,
        candidates: List[_Candidate],
        quota: int,
    ) -> List[TermSuggestion]:
        """Walk candidates in similarity order; keep those with answers.

        Batch-probed candidates already know their answers; unresolved
        ones (an aggregate query, or a failed batch) execute individually
        here, preserving the classic Algorithm 2 behaviour as the
        fallback.  Only a candidate that is kept or has to run
        gets its query built — one in ten survives its probe.  An ASK
        runs as its SELECT form; the suggestion keeps the ASK.
        """
        kept: List[TermSuggestion] = []
        for (index, position, original, _), (entry, score), probed, result in candidates:
            if len(kept) >= quota:
                break
            if probed and result is None:
                continue
            new_query = _replace_term(query, index, position, entry.term)
            if not probed:
                try:
                    result = self.runner(select_form(new_query))
                except Exception:
                    continue
            if result is None or not result.rows:
                continue
            kept.append(TermSuggestion(
                kind=kind,
                triple_index=index,
                position=position,
                original=original,
                replacement=entry.term,
                similarity=score,
                query=new_query,
                query_text=serialize_query(new_query),
                n_answers=len(result.rows),
                prefetched=result,  # prefetching (Section 4)
            ))
        return kept


def _replace_term(query: Query, triple_index: int, position: str, new_term: Term) -> Query:
    """A copy of ``query`` with one term of one pattern swapped.  Only
    the pattern list is new; everything else is shared with ``query``."""
    patterns = list(query.where.patterns)
    patterns[triple_index] = replace(patterns[triple_index], **{position: new_term})
    return replace(query, where=replace(query.where, patterns=patterns))
