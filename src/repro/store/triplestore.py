"""Dictionary-encoded indexed triple store.

The store interns every RDF term into a :class:`TermDictionary` (dense
integer IDs) and delegates the actual (s, p, o) ID triples to a pluggable
:class:`~repro.store.backends.StorageBackend` — in-memory SPO/POS/OSP
column permutations by default, or a WAL-mode SQLite file for persistence.  All
pattern matching, joining and counting happens on integers; terms are
decoded only when results are materialized (``docs/storage.md`` has the
full design).

The public API is unchanged from the term-keyed store it replaced: it
still speaks :class:`Triple`/:class:`TriplePattern` at the edges.  The
ID-level entry points (:meth:`TripleStore.match_ids`,
:meth:`TripleStore.encode_pattern`, :meth:`TripleStore.decode_id`) are
what the SPARQL evaluator joins through.

Cost accounting hook
--------------------
Every matching operation reports the number of index probes and produced
rows to an optional :class:`CostMeter`.  The endpoint simulator uses this
to implement deterministic query timeouts (a remote endpoint kills
long-running queries; we abort evaluation when the meter trips), which is
the environmental pressure Sapphire's initialization strategy is designed
around.

**Estimation is free by contract**: :meth:`TripleStore.count` and
:meth:`TripleStore.cardinality_estimate` never charge a meter, even when
one is passed.  Join planning and endpoint admission control run dozens
of estimates per query; if those probes were billed, planning itself
could trip the timeout it is trying to avoid.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..rdf.terms import IRI, Literal, Term, Variable
from ..rdf.triples import Triple, TriplePattern
from .backends import COLUMN_BATCH_SIZE, ColumnBatch, MemoryBackend, StorageBackend
from .dictionary import NO_ID, TermDictionary

__all__ = ["TripleStore", "CostMeter", "QueryAborted"]

#: One position of an encoded pattern: a dictionary ID (possibly
#: :data:`NO_ID` for a concrete-but-unknown term) or a variable name.
IdOrVar = Union[int, str]


class QueryAborted(RuntimeError):
    """Raised when a cost meter's budget is exhausted mid-evaluation."""


class CostMeter:
    """Accumulates abstract evaluation cost and enforces a budget.

    Cost units: one unit per candidate triple scanned plus one unit per
    produced row.  ``budget=None`` means unlimited (warehouse mode).
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        self.budget = budget
        self.cost = 0

    def charge(self, units: int = 1) -> None:
        self.cost += units
        if self.budget is not None and self.cost > self.budget:
            raise QueryAborted(f"cost budget {self.budget} exhausted")

    def reset(self) -> None:
        self.cost = 0


class TripleStore:
    """A set of triples, dictionary-encoded over a storage backend.

    ``backend=None`` gives the in-memory engine.  Pass a
    :class:`~repro.store.sqlite_backend.SQLiteBackend` (or anything
    satisfying :class:`~repro.store.backends.StorageBackend`) for
    persistent storage; the backend owns the term dictionary so IDs and
    rows stay consistent across restarts.
    """

    def __init__(
        self,
        triples: Optional[Iterable[Triple]] = None,
        backend: Optional[StorageBackend] = None,
    ) -> None:
        self._backend: StorageBackend = backend if backend is not None else MemoryBackend()
        self._dict = self._backend.dictionary
        # Monotonic mutation counter; plan caches key on it so a
        # write through this facade invalidates anything derived from
        # the previous contents.
        self._generation = 0
        # ((generation, size), CharacteristicSets) of the last build.
        self._charsets: Optional[Tuple[Tuple[int, int], "CharacteristicSets"]] = None
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Encoding seam
    # ------------------------------------------------------------------

    @property
    def backend(self) -> StorageBackend:
        return self._backend

    @property
    def generation(self) -> int:
        """Bumps on every mutating call; consumers (the evaluator's plan
        cache) compare it to detect that cached derivations are stale."""
        return self._generation

    @property
    def dictionary(self) -> TermDictionary:
        return self._dict

    def term_id(self, term: Term) -> int:
        """Dictionary ID of ``term`` (:data:`NO_ID` when never stored)."""
        return self._dict.lookup(term)

    def decode_id(self, term_id: int) -> Term:
        """Term for a dictionary ID (list index; the materialization step)."""
        return self._dict.decode(term_id)

    def encode_pattern(self, pattern: TriplePattern) -> Tuple[IdOrVar, IdOrVar, IdOrVar]:
        """Pattern positions as IDs (concrete) or variable names (free).

        Concrete terms the store has never seen encode to :data:`NO_ID`,
        which matches nothing — exactly the semantics of probing a hash
        index with an absent key.
        """
        return tuple(
            term.name if isinstance(term, Variable) else self._dict.lookup(term)
            for term in pattern.as_tuple()
        )  # type: ignore[return-value]

    def close(self) -> None:
        """Release backend resources (a no-op for the memory engine)."""
        self._backend.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._backend.size()

    def __contains__(self, triple: Triple) -> bool:
        lookup = self._dict.lookup
        s, p, o = lookup(triple.subject), lookup(triple.predicate), lookup(triple.object)
        if NO_ID in (s, p, o):
            return False
        return self._backend.contains(s, p, o)

    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; returns False if it was already present."""
        encode = self._dict.encode
        self._generation += 1
        return self._backend.add(
            encode(triple.subject), encode(triple.predicate), encode(triple.object)
        )

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added.

        Bulk path: terms are interned first, then the backend ingests the
        ID rows in one batch (a single transaction on SQLite).
        """
        encode = self._dict.encode
        self._generation += 1
        return self._backend.add_many(
            (encode(t.subject), encode(t.predicate), encode(t.object)) for t in triples
        )

    def triples(self) -> Iterator[Triple]:
        """Iterate over every triple in the store (decoded)."""
        decode = self._dict.decode
        for s, p, o in self._backend.iter_ids():
            yield Triple(decode(s), decode(p), decode(o))

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------

    def match(
        self,
        pattern: TriplePattern,
        meter: Optional[CostMeter] = None,
    ) -> Iterator[Triple]:
        """Yield the triples matching ``pattern``.

        Matching runs entirely on IDs; each yielded triple is decoded at
        the last moment.  Charges ``meter`` one unit per candidate
        enumerated from the backend index.
        """
        encoded = self.encode_pattern(pattern)
        names = pattern.variables()
        repeated = _repeated_positions(encoded) if len(set(names)) != len(names) else None
        s, p, o = (entry if isinstance(entry, int) else None for entry in encoded)
        terms = self._dict.terms
        if (
            meter is None and repeated is None
            and (s is None or p is None or o is None)
            and NO_ID not in (s, p, o)
        ):
            # Fast path: un-metered, nothing to check per row — stream
            # straight off the backend index.
            for rs, rp, ro in self._backend.match_ids(s, p, o):
                yield Triple(terms[rs], terms[rp], terms[ro])
            return
        # All cost semantics (concrete-probe charge-on-miss, NO_ID
        # short-circuit, per-candidate charging) live in match_ids —
        # the single source of truth.
        for row in self.match_ids(s, p, o, meter):
            if repeated is not None and not _repeats_consistent(row, repeated):
                continue
            yield Triple(terms[row[0]], terms[row[1]], terms[row[2]])

    def match_ids(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        meter: Optional[CostMeter] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """ID-level pattern matching; ``None`` positions are wildcards.

        Cost semantics mirror the index layout: the fully concrete shape
        is one probe (charged even on a miss), every other shape charges
        one unit per candidate enumerated.  :data:`NO_ID` in a partially
        concrete position short-circuits to the empty result for free,
        like probing a hash index with an absent key.
        """
        if s is not None and p is not None and o is not None:
            if meter is not None:
                meter.charge()
            if NO_ID not in (s, p, o) and self._backend.contains(s, p, o):
                yield (s, p, o)
            return
        if NO_ID in (s, p, o):
            return
        if meter is None:
            yield from self._backend.match_ids(s, p, o)
            return
        for row in self._backend.match_ids(s, p, o):
            meter.charge()
            yield row

    def match_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        positions: Sequence[int],
        meter: Optional[CostMeter] = None,
        batch_size: int = COLUMN_BATCH_SIZE,
    ) -> Iterator[ColumnBatch]:
        """Columnar ID-level matching for the batched executor.

        Yields batches of ``array('q')`` columns, one per requested
        wildcard position.  Cost semantics match :meth:`match_ids` in the
        aggregate — one unit per candidate — but charged per batch, which
        is where the metered scan speedup comes from.  Callers must pass
        at least one wildcard position, so the fully concrete shape never
        reaches here (ScanNode probes it via :meth:`match_ids`).
        """
        if NO_ID in (s, p, o):
            return
        if meter is None:
            yield from self._backend.match_columns(s, p, o, positions, batch_size)
            return
        for batch in self._backend.match_columns(s, p, o, positions, batch_size):
            meter.charge(len(batch[0]))
            yield batch

    def count(
        self, pattern: TriplePattern, meter: Optional[CostMeter] = None
    ) -> int:
        """Number of triples matching ``pattern``.

        **Never charges a meter** — counting walks index fan-outs (or a
        covering-index range count on SQLite), not the triples.  The
        ``meter`` parameter is accepted for call-site symmetry with
        :meth:`match` and deliberately ignored: estimation must stay free
        so that join planning cannot trip endpoint timeouts.
        """
        del meter  # free by contract
        encoded = self.encode_pattern(pattern)
        s, p, o = (entry if isinstance(entry, int) else None for entry in encoded)
        if NO_ID in (s, p, o):
            return 0
        names = pattern.variables()
        if len(set(names)) != len(names):
            # Repeated variables need the post-filter; count in ID space
            # without decoding a single term.
            repeated = _repeated_positions(encoded)
            return sum(
                1 for row in self.match_ids(s, p, o)
                if _repeats_consistent(row, repeated)
            )
        return self._backend.count_ids(s, p, o)

    def cardinality_estimate(
        self, pattern: TriplePattern, meter: Optional[CostMeter] = None
    ) -> int:
        """Cheap upper-bound estimate used for join ordering.

        Uses index fan-outs without enumerating matches; variables
        repeated inside the pattern are ignored (the estimate stays an
        upper bound).  Like :meth:`count`, this **never charges a meter**.
        """
        del meter  # free by contract
        s, p, o = self.encode_pattern(pattern)
        if isinstance(s, int) and isinstance(p, int) and isinstance(o, int):
            return 1
        if NO_ID in (s, p, o):
            return 0
        return self._backend.estimate_ids(
            s if isinstance(s, int) else None,
            p if isinstance(p, int) else None,
            o if isinstance(o, int) else None,
        )

    # ------------------------------------------------------------------
    # Dataset-level accessors used by initialization and baselines
    # ------------------------------------------------------------------

    def predicates(self) -> Set[IRI]:
        """All distinct predicates in the store."""
        decode = self._dict.decode
        return {
            term for term in (decode(p) for p in self._backend.predicate_ids())
            if isinstance(term, IRI)
        }

    def predicate_frequencies(self) -> Dict[IRI, int]:
        """Map each predicate to its triple count."""
        decode = self._dict.decode
        return {
            term: n
            for term, n in (
                (decode(p), n) for p, n in self._backend.predicate_fanouts().items()
            )
            if isinstance(term, IRI)
        }

    def predicate_stats_ids(self) -> Dict[int, Tuple[int, int, int]]:
        """Per-predicate ``(count, distinct s, distinct o)`` keyed by ID.

        The join planner's statistics source: cached by the backend and
        rebuilt lazily after mutations, so reading it is free in the
        steady state (estimation stays meter-free by contract).
        """
        return self._backend.predicate_stats()

    def predicate_stats(self) -> Dict[IRI, "PredicateStat"]:
        """Decoded view of :meth:`predicate_stats_ids` for reporting."""
        from .stats import PredicateStat

        decode = self._dict.decode
        return {
            term: PredicateStat(*stat)
            for term, stat in (
                (decode(p), stat) for p, stat in self._backend.predicate_stats().items()
            )
            if isinstance(term, IRI)
        }

    def characteristic_sets(self) -> "CharacteristicSets":
        """The subjects' characteristic sets, built once per generation.

        Keyed on the generation and the size, so a write made straight
        to the backend, which bumps no generation, is seen too.
        """
        key = (self._generation, len(self))
        built = self._charsets
        if built is None or built[0] != key:
            from .stats import CharacteristicSets

            built = self._charsets = (
                key, CharacteristicSets(self._backend.subject_predicate_sets())
            )
        return built[1]

    def proves_no_match(self, patterns: Sequence[TriplePattern]) -> bool:
        """Whether the data proves the BGP ``patterns`` has no solution.

        Two proofs, both free (no meter) and sound against this store's
        own matching: a pattern no triple matches even with its repeated
        variables ignored, or a subject variable whose constant
        predicates no characteristic set holds (a subject it binds to
        would need every one of them).  An empty summary proves nothing,
        and so do no patterns, though asking builds the summary.
        Cheapest first: a term the store never saw, then the stars, which
        also settle a pattern that binds at most its predicate, then the
        backend's existence test for the rest.
        """
        summary = self.characteristic_sets()
        if not summary.n_sets:
            return False
        stars: Dict[str, Set[int]] = {}
        ranges: List[Tuple[Optional[int], ...]] = []
        for pattern in patterns:
            s, p, o = self.encode_pattern(pattern)
            if NO_ID in (s, p, o):
                return True
            if isinstance(s, str) and isinstance(p, int):
                stars.setdefault(s, set()).add(p)
                if isinstance(o, str):
                    continue
            ranges.append(tuple(entry if isinstance(entry, int) else None for entry in (s, p, o)))
        if any(not summary.holds(star) for star in stars.values()):
            return True
        has_match = self._backend.has_match
        return not all(has_match(*ids) for ids in ranges)

    def n_subjects(self) -> int:
        """Distinct-subject count without decoding or materializing."""
        return self._backend.subject_count()

    def literals(self) -> Iterator[Literal]:
        """All distinct literal objects."""
        decode = self._dict.decode
        for o in self._backend.object_ids():
            term = decode(o)
            if isinstance(term, Literal):
                yield term

    def entity_in_degrees(self) -> Dict[IRI, int]:
        """In-degree of every IRI entity (subjects and objects), one pass.

        Computed entirely in ID space from the object fan-outs; entities
        that only ever appear as subjects get degree 0.  Feeds the
        Definition 1 significance statistics without per-entity probes.
        """
        decode = self._dict.decode
        degrees: Dict[IRI, int] = {}
        for o, n in self._backend.object_fanouts().items():
            term = decode(o)
            if isinstance(term, IRI):
                degrees[term] = n
        for s in self._backend.subject_ids():
            term = decode(s)
            if isinstance(term, IRI):
                degrees.setdefault(term, 0)
        return degrees


def _repeated_positions(encoded: Sequence[IdOrVar]) -> List[Tuple[int, int]]:
    """Position pairs that must carry equal IDs (repeated variables)."""
    first_seen: Dict[str, int] = {}
    pairs: List[Tuple[int, int]] = []
    for position, entry in enumerate(encoded):
        if isinstance(entry, str):
            if entry in first_seen:
                pairs.append((first_seen[entry], position))
            else:
                first_seen[entry] = position
    return pairs


def _repeats_consistent(
    row: Tuple[int, int, int], pairs: Sequence[Tuple[int, int]]
) -> bool:
    return all(row[a] == row[b] for a, b in pairs)
