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

from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..rdf.terms import IRI, Term, Variable
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
        return self._backend.has_match(s, p, o)

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

    def copy_into(self, target: "TripleStore") -> int:
        """Copy every triple into ``target`` by IDs; returns the number
        ``target`` actually added.

        One walk of ``match_ids(None, None, None)``: each source ID gets
        its target ID at first use, in (s, p, o) order, which is the ID
        ``target.add_all(self.triples())`` would give it, so files, shard
        routing and row orders come out the same.  Each distinct term is
        interned once through the target's dictionary (a term it already
        holds keeps its ID), and the renumbered rows stream through the
        target's ``add_many`` in chunks; no triple is decoded.
        """
        terms = self._dict.terms
        encode = target._dict.encode
        remap = [NO_ID] * len(terms)  # source ID -> target ID
        rows = self._backend.match_ids(None, None, None)
        target._generation += 1

        def renumbered() -> Iterator[Tuple[int, int, int]]:
            while True:
                chunk = list(islice(rows, _COPY_CHUNK))
                if not chunk:
                    return
                # First use in (s, p, o) order: ``dict.fromkeys`` keeps it.
                for term_id in dict.fromkeys(chain.from_iterable(chunk)):
                    if remap[term_id] == NO_ID:
                        remap[term_id] = encode(terms[term_id])
                yield from [(remap[s], remap[p], remap[o]) for s, p, o in chunk]

        return target._backend.add_many(renumbered())

    def triples(self) -> Iterator[Triple]:
        """Iterate over every triple in the store (decoded)."""
        decode = self._dict.decode
        for s, p, o in self._backend.match_ids(None, None, None):
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
            if NO_ID not in (s, p, o) and self._backend.has_match(s, p, o):
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
        max_batch_size: Optional[int] = None,
    ) -> Iterator[ColumnBatch]:
        """Columnar ID-level matching for the batched executor.

        Yields batches of ``array('q')`` columns, one per requested
        wildcard position.  Cost semantics match :meth:`match_ids` in the
        aggregate — one unit per candidate — but charged per batch, which
        is where the metered scan speedup comes from.  Callers must pass
        at least one wildcard position, so the fully concrete shape never
        reaches here (ScanNode probes it via :meth:`match_ids`).
        ``max_batch_size`` lets the batches grow from ``batch_size``
        (``backends.batch_sizes``).
        """
        if NO_ID in (s, p, o):
            return
        batches = self._backend.match_columns(s, p, o, positions, batch_size, max_batch_size)
        if meter is None:
            yield from batches
            return
        for batch in batches:
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
        """Cheap upper-bound estimate used for join ordering: the pattern
        encoded, then :meth:`estimate_ids`.  Like :meth:`count`, this
        **never charges a meter**."""
        del meter  # free by contract
        return self.estimate_ids(*(
            entry if isinstance(entry, int) else None
            for entry in self.encode_pattern(pattern)
        ))

    def estimate_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        """:meth:`cardinality_estimate` of an encoded pattern, ``None``
        positions free: index fan-outs, no match enumerated; variables
        repeated inside the pattern are ignored (the estimate stays an
        upper bound).  A scan estimates itself from the IDs it encoded
        once."""
        if s is not None and p is not None and o is not None:
            return 1
        if NO_ID in (s, p, o):
            return 0
        return self._backend.count_ids(s, p, o)

    # ------------------------------------------------------------------
    # Statistics: the planner's, the no-match proof's and reporting's
    # ------------------------------------------------------------------

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

    def unproven(
        self,
        patterns: Sequence[TriplePattern],
        triple_index: int,
        position: str,
        candidates: Sequence[Term],
    ) -> List[Term]:
        """The ``candidates``, in order, whose one-change BGP — ``patterns``
        with the candidate at ``position`` of pattern ``triple_index`` —
        the data does not prove empty.

        Two proofs, both free (no meter) and sound against this store's
        own matching: a pattern no triple matches even with its repeated
        variables ignored, or a subject variable whose constant
        predicates no characteristic set holds (a subject it binds to
        would need every one of them).  An empty summary proves nothing.
        The unchanged patterns are encoded once, and their stars and
        existence settled once, cheapest first: a term the store never
        saw, then the stars, which also settle a pattern that binds at
        most its predicate, then the backend's existence test for the
        rest.  A candidate then costs one dictionary lookup, at most one
        ``holds`` (when it adds a predicate to a star) and at most one
        ``has_match``.
        """
        summary = self.characteristic_sets()
        if not summary.n_sets:
            return list(candidates)
        stars: Dict[str, Set[int]] = {}
        ranges: List[Tuple[Optional[int], ...]] = []
        for index, pattern in enumerate(patterns):
            if index == triple_index:
                continue
            s, p, o = self.encode_pattern(pattern)
            if NO_ID in (s, p, o):
                return []
            if isinstance(s, str) and isinstance(p, int):
                stars.setdefault(s, set()).add(p)
                if isinstance(o, str):
                    continue
            ranges.append(tuple(entry if isinstance(entry, int) else None for entry in (s, p, o)))
        if any(not summary.holds(star) for star in stars.values()):
            return []
        has_match = self._backend.has_match
        if not all(has_match(*ids) for ids in ranges):
            return []
        lookup = self._dict.lookup
        slot = _SLOTS[position]
        changed: List[IdOrVar] = [
            NO_ID if at == slot else term.name if isinstance(term, Variable) else lookup(term)
            for at, term in enumerate(patterns[triple_index].as_tuple())
        ]
        kept: List[Term] = []
        for candidate in candidates:
            changed[slot] = (
                candidate.name if isinstance(candidate, Variable) else lookup(candidate)
            )
            s, p, o = changed
            if NO_ID in (s, p, o):
                continue
            if isinstance(s, str) and isinstance(p, int):
                star = stars.get(s, ())
                if p not in star and not summary.holds((*star, p)):
                    continue
                if isinstance(o, str):
                    kept.append(candidate)
                    continue
            if has_match(*(entry if isinstance(entry, int) else None for entry in changed)):
                kept.append(candidate)
        return kept

    def proves_no_match(self, patterns: Sequence[TriplePattern]) -> bool:
        """Whether the data proves the BGP ``patterns`` has no solution:
        :meth:`unproven` of the BGP as its own one-change variant.  No
        patterns prove nothing, though asking builds the summary the
        proof reads."""
        if not patterns:
            self.characteristic_sets()
            return False
        last = len(patterns) - 1
        return not self.unproven(patterns, last, "subject", (patterns[last].subject,))


#: Source rows :meth:`TripleStore.copy_into` renumbers at a time: the
#: SQLite and sharded backends' ingest chunk, so each chunk's new terms
#: are written with its rows.
_COPY_CHUNK = 10_000

#: A pattern position's name (``TriplePattern`` field) → its index.
_SLOTS = {"subject": 0, "predicate": 1, "object": 2}


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
