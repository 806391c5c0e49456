"""Hash-partitioned storage: one :class:`StorageBackend` over N shards.

:class:`ShardedBackend` implements the full backend protocol by routing
every triple to one of N child backends by **subject ID** —
``shard = s % n_shards`` — and aggregating the read/estimate surface
across shards.  The children are ordinary
:class:`~repro.store.backends.MemoryBackend` /
:class:`~repro.store.sqlite_backend.SQLiteBackend` instances; they never
know they are shards.

Partitioning by subject buys three properties the layers above lean on:

* **Subject-bound shapes stay single-shard.**  ``(s, *, *)``,
  ``(s, p, *)``, ``(s, *, o)`` and full-triple probes — the shapes bind
  joins hammer — touch exactly one child, so a sharded store answers
  them with zero fan-out overhead.
* **Subject sets are disjoint across shards.**  Each subject's
  predicate set lives whole in one child, and the per-predicate
  *distinct-subject* statistic merges **exactly** by addition.
  Distinct-object counts are not disjoint, so their merged value is an
  upper bound (still capped by the exact triple count) —
  fine for the cost model, which only ranks candidates.
* **Scatter-gather scans stream.**  Wildcard-subject ``match_ids`` /
  ``match_columns`` chain the shards in shard order; within a shard the
  child's own enumeration order holds, so the row-at-a-time and
  columnar pipelines cut LIMIT/DISTINCT pages over the same order.

One dictionary, owned by shard 0
--------------------------------
All children share ONE :class:`~repro.store.dictionary.TermDictionary`
(IDs must mean the same term on every shard).  For memory children the
dictionary object is literally shared; for SQLite children shard 0's
dictionary is the canonical one and its ``terms`` table is the only one
populated — reopening a sharded SQLite layout therefore opens shard 0
first and hands its dictionary to the façade.  Metadata follows the same
rule: shard 0 owns the ``meta`` table.

Layout on disk: :func:`shard_path` derives ``store.sqlite`` →
``store.sqlite.shard0``, ``store.sqlite.shard1``, … so a sharded layout
is self-describing next to the unsharded file it replaces.
"""

from __future__ import annotations

from array import array
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .backends import COLUMN_BATCH_SIZE, MemoryBackend, StorageBackend
from .dictionary import TermDictionary

__all__ = ["ShardedBackend", "shard_path", "create_sharded_backend"]

IdTriple = Tuple[int, int, int]


def shard_path(base: Union[str, Path], shard: int) -> str:
    """The per-shard database path for a base storage path.

    ``":memory:"`` maps to itself — each sqlite3 connect of ``:memory:``
    creates an independent database, which is exactly one shard.
    """
    base = str(base)
    if base == ":memory:":
        return base
    return f"{base}.shard{shard}"


class ShardedBackend:
    """The :class:`StorageBackend` protocol over hash-partitioned shards.

    ``shards`` must share one dictionary (see the module docstring); the
    façade exposes ``shards[0].dictionary`` as its own.  A single-shard
    instance is protocol-identical to its child (useful as the
    degenerate case in parity tests).
    """

    name = "sharded"

    def __init__(self, shards: Sequence[StorageBackend]) -> None:
        if not shards:
            raise ValueError("ShardedBackend needs at least one shard")
        self.shards: List[StorageBackend] = list(shards)
        self.n_shards = len(self.shards)
        self.dictionary: TermDictionary = self.shards[0].dictionary
        self._pstats: Optional[Dict[int, Tuple[int, int, int]]] = None

    def shard_of(self, s: int) -> int:
        """The shard index owning subject ID ``s``."""
        return s % self.n_shards

    def shard_sizes(self) -> List[int]:
        """Per-shard triple counts (the ``/stats`` shard-depth view)."""
        return [shard.size() for shard in self.shards]

    # -- mutation ------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        self._pstats = None
        return self.shards[s % self.n_shards].add(s, p, o)

    #: Triples buffered per shard before flushing during bulk ingest.
    _INGEST_BATCH = 10_000

    def add_many(self, triples: Iterable[IdTriple]) -> int:
        """Bulk ingest: partition into per-shard runs, flush in batches.

        Chunked like the SQLite backend's ingest so a million-triple
        generator never materializes whole; each flush hits one child's
        own ``add_many`` (one transaction per shard per chunk).
        """
        self._pstats = None
        added = 0
        iterator = iter(triples)
        n = self.n_shards
        while True:
            chunk = list(islice(iterator, self._INGEST_BATCH))
            if not chunk:
                return added
            runs: List[List[IdTriple]] = [[] for _ in range(n)]
            for triple in chunk:
                runs[triple[0] % n].append(triple)
            for shard, run in zip(self.shards, runs):
                if run:
                    added += shard.add_many(iter(run))

    # -- lookup --------------------------------------------------------

    def size(self) -> int:
        return sum(shard.size() for shard in self.shards)

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[IdTriple]:
        if s is not None:
            yield from self.shards[s % self.n_shards].match_ids(s, p, o)
            return
        for shard in self.shards:
            yield from shard.match_ids(s, p, o)

    def match_columns(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
        positions: Sequence[int],
        batch_size: int = COLUMN_BATCH_SIZE,
        max_batch_size: Optional[int] = None,
    ) -> Iterator[Tuple[array, ...]]:
        """Scatter-gather columnar scan: shard streams, concatenated.

        Batches from shard *k* are exhausted before shard *k+1* starts —
        the same shard order ``match_ids`` uses, so both pipelines see
        one enumeration order.  Batches may run ragged at shard
        boundaries (consumers only rely on batch length), and a growing
        scan (``max_batch_size``) grows afresh in each shard.
        """
        if s is not None:
            yield from self.shards[s % self.n_shards].match_columns(
                s, p, o, positions, batch_size, max_batch_size
            )
            return
        for shard in self.shards:
            yield from shard.match_columns(s, p, o, positions, batch_size, max_batch_size)

    def count_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> int:
        if s is not None:
            return self.shards[s % self.n_shards].count_ids(s, p, o)
        return sum(shard.count_ids(s, p, o) for shard in self.shards)

    def has_match(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> bool:
        if s is not None:
            return self.shards[s % self.n_shards].has_match(s, p, o)
        return any(shard.has_match(s, p, o) for shard in self.shards)

    # -- aggregates ----------------------------------------------------

    def predicate_stats(self) -> Dict[int, Tuple[int, int, int]]:
        """Predicate-aware merge of per-shard ``(count, n_s, n_o)``.

        Counts and distinct subjects add exactly (subjects are
        partitioned); distinct objects add to an upper bound, capped by
        the exact count so the estimate never claims more distinct
        objects than triples.  Cached until the next mutation, like the
        children's — the planner asks for these on every query.
        """
        if self._pstats is not None:
            return self._pstats
        merged: Dict[int, Tuple[int, int, int]] = {}
        for shard in self.shards:
            for p, (count, n_s, n_o) in shard.predicate_stats().items():
                prev = merged.get(p)
                if prev is None:
                    merged[p] = (count, n_s, n_o)
                else:
                    merged[p] = (prev[0] + count, prev[1] + n_s, prev[2] + n_o)
        self._pstats = {
            p: (count, n_s, min(n_o, count))
            for p, (count, n_s, n_o) in merged.items()
        }
        return self._pstats

    def subject_predicate_sets(self) -> Iterator[Tuple[int, ...]]:
        # Subjects never cross shards: each child's sets are whole.
        for shard in self.shards:
            yield from shard.subject_predicate_sets()

    # -- metadata (shard 0 owns it, like the dictionary) ---------------

    def set_meta(self, key: str, value: str) -> None:
        self.shards[0].set_meta(key, value)

    def meta_items(self) -> Dict[str, str]:
        return self.shards[0].meta_items()

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


def create_sharded_backend(
    n_shards: int,
    storage: str = "memory",
    path: Optional[Union[str, Path]] = None,
    *,
    read_only: bool = False,
) -> ShardedBackend:
    """Build a sharded backend over ``n_shards`` fresh children.

    ``storage`` is ``"memory"`` (children share one dictionary object)
    or ``"sqlite"`` (children live at ``shard_path(path, i)``; shard 0's
    file carries the dictionary and metadata).  ``read_only`` opens
    SQLite children as WAL snapshot readers — the pre-fork workers'
    replica discipline.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if storage == "memory":
        dictionary = TermDictionary()
        children: List[StorageBackend] = [
            MemoryBackend(dictionary) for _ in range(n_shards)
        ]
    elif storage == "sqlite":
        from .sqlite_backend import SQLiteBackend

        base = ":memory:" if path is None else path
        children = [
            SQLiteBackend(shard_path(base, i), read_only=read_only)
            for i in range(n_shards)
        ]
    else:
        raise ValueError(f"unknown storage backend {storage!r}")
    return ShardedBackend(children)
