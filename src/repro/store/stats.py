"""Dataset statistics helpers.

These summarize a :class:`~repro.store.triplestore.TripleStore` in the
terms the paper cares about: distinct predicates vs distinct literals
(the ratio motivating Section 5.1's "cache all predicates" heuristic),
literal length/language distributions (the <80-chars and English-only
filters), and entity in-degree skew (Definition 1 significance).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from ..rdf.terms import IRI
from .triplestore import TripleStore

__all__ = ["CharacteristicSets", "DatasetStats", "PredicateStat", "compute_stats"]


@dataclass(frozen=True)
class PredicateStat:
    """Planner-grade statistics for one predicate.

    ``count`` is the number of triples carrying the predicate;
    ``distinct_subjects``/``distinct_objects`` are the sizes of its
    subject/object columns.  The ratios below are the classic join
    selectivity inputs: joining two patterns on a shared subject
    variable produces roughly ``count_a * count_b / max(distinct
    subjects)`` rows.
    """

    count: int
    distinct_subjects: int
    distinct_objects: int

    @property
    def subject_fanout(self) -> float:
        """Mean triples per distinct subject (≥ 1 when the predicate exists)."""
        return self.count / self.distinct_subjects if self.distinct_subjects else 0.0


class CharacteristicSets:
    """The characteristic sets of one store generation (Neumann &
    Moerkotte, ICDE 2011): the distinct predicate sets of its subjects.

    Each distinct set gets a bit, and each predicate keeps the bitset of
    the sets that hold it, so asking whether any subject has all of k
    predicates is k big-int ANDs.  Built from ``subject_sets``, one
    sorted tuple per subject, grouped by subject as the backends stream
    them: what is held is one entry per distinct set, never one per
    subject.
    """

    __slots__ = ("n_sets", "_holders")

    def __init__(self, subject_sets: Iterable[Tuple[int, ...]]) -> None:
        bits: Dict[Tuple[int, ...], int] = {}
        for predicates in subject_sets:
            if predicates not in bits:
                bits[predicates] = 1 << len(bits)
        holders: Dict[int, int] = {}
        for predicates, bit in bits.items():
            for p in predicates:
                holders[p] = holders.get(p, 0) | bit
        self.n_sets = len(bits)
        self._holders = holders

    def holds(self, predicates: Iterable[int]) -> bool:
        """Whether some subject has every one of ``predicates`` (IDs)."""
        held = -1
        for p in predicates:
            held &= self._holders.get(p, 0)
            if not held:
                return False
        return True


@dataclass
class DatasetStats:
    """Summary statistics of one RDF dataset."""

    n_triples: int
    n_subjects: int
    n_predicates: int
    n_literals: int
    n_entities: int
    literal_length_histogram: Dict[int, int] = field(default_factory=dict)
    literal_language_counts: Dict[str, int] = field(default_factory=dict)
    predicate_frequencies: Dict[IRI, int] = field(default_factory=dict)
    predicate_stats: Dict[IRI, PredicateStat] = field(default_factory=dict)
    max_in_degree: int = 0
    mean_in_degree: float = 0.0

    @property
    def predicate_to_literal_ratio(self) -> float:
        """#predicates / #literals — the paper observes this is ≪ 1."""
        if self.n_literals == 0:
            return float("inf") if self.n_predicates else 0.0
        return self.n_predicates / self.n_literals

    def literals_shorter_than(self, limit: int) -> int:
        """How many distinct literals have length < ``limit``."""
        return sum(count for length, count in self.literal_length_histogram.items() if length < limit)


def compute_stats(store: TripleStore) -> DatasetStats:
    """Compute :class:`DatasetStats` for ``store`` in a single pass.

    The degree statistics come from :meth:`TripleStore.entity_in_degrees`,
    which aggregates in ID space (one fan-out scan on the backend) and
    decodes each entity exactly once at materialization time — no
    per-entity index probes.
    """
    length_hist: Counter = Counter()
    lang_counts: Counter = Counter()
    n_literals = 0
    for literal in store.literals():
        n_literals += 1
        length_hist[len(literal.lexical)] += 1
        lang_counts[literal.lang or ""] += 1

    degrees = store.entity_in_degrees()
    in_degrees = list(degrees.values())
    max_in = max(in_degrees, default=0)
    mean_in = sum(in_degrees) / len(in_degrees) if in_degrees else 0.0

    return DatasetStats(
        n_triples=len(store),
        n_subjects=store.n_subjects(),
        n_predicates=len(store.predicates()),
        n_literals=n_literals,
        n_entities=len(degrees),
        literal_length_histogram=dict(length_hist),
        literal_language_counts=dict(lang_counts),
        predicate_frequencies=store.predicate_frequencies(),
        predicate_stats=store.predicate_stats(),
        max_in_degree=max_in,
        mean_in_degree=mean_in,
    )
