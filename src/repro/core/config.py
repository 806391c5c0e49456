"""Sapphire configuration.

All the constants the paper fixes are collected here with their published
values as defaults:

* literal caching: length < 80 characters, English only (Section 5.1),
* QCM: k = 10 suggestions, bin window γ = 10 (Section 6.1),
* QSM: Jaro–Winkler threshold θ = 0.7, literal window α = 2 / β = 3,
  relaxation query budget = 100, w_q < w_default (Section 6.2),
* the number of parallel scan processes P (the paper uses the 8 cores of
  its evaluation machine): it drives Algorithm 1 in the QCM's substring
  scan of the residual bins; the QSM's scored scans run in the calling
  thread (``repro.text.bins``).

The sizes that scale with the dataset (suffix-tree capacity, pagination
page size, initialization query limit) default to values proportionate to
the synthetic dataset rather than to DBpedia.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["SapphireConfig"]


@dataclass(frozen=True, slots=True)
class SapphireConfig:
    """Tunable parameters of the Sapphire server (paper defaults)."""

    # --- Section 5.1: literal caching heuristics -----------------------
    literal_max_length: int = 80
    literal_language: str = "en"

    # --- Section 5 / Appendix A: initialization ------------------------
    page_size: int = 500
    init_query_limit: Optional[int] = None  # max queries per endpoint
    significant_page_size: int = 200
    #: Retries after a rejected query (HTTP 503 / admission control) —
    #: overload is transient, so a mid-initialization rejection gets a
    #: capped, jittered re-attempt instead of aborting the stage.
    init_retry_rejected: int = 2
    #: Retries after a timed-out query.  0 keeps the paper's semantics:
    #: a timeout means "this class is too big", answered by descending
    #: the hierarchy, not by re-running the same query.  Raise it for
    #: HTTP endpoints whose 504s are transient (gateway hiccups).
    init_retry_timeout: int = 0
    #: Full-jitter backoff base and cap between retry attempts.
    init_backoff_s: float = 0.05
    init_backoff_cap_s: float = 0.5

    # --- Section 5.2: indexing -----------------------------------------
    suffix_tree_capacity: int = 2_000  # predicates+classes always fit; rest
    #                                   filled with the top significant literals

    # --- Section 6.1: QCM ----------------------------------------------
    k_suggestions: int = 10
    gamma: int = 10
    processes: int = max(1, os.cpu_count() or 1)

    # --- Section 6.2.1: alternative terms ------------------------------
    theta: float = 0.7
    alpha: int = 2
    beta: int = 3
    max_alternatives_per_term: int = 8

    # --- Section 6.2.2: structure relaxation ---------------------------
    relaxation_query_budget: int = 100
    w_q: float = 1.0
    w_default: float = 2.0
    seed_group_size: int = 3  # the literal itself + top k-1 alternatives

    # --- Batched QSM probing (docs/predictive-model.md) ----------------
    #: Ship all candidate terms of one probed position as a single
    #: VALUES-constrained query (one request per endpoint per round via
    #: the federated bind-join batching) instead of one query per
    #: candidate.  Off = the classic per-candidate Algorithm 2 loop.
    qsm_batched_probes: bool = True

    # --- Completion ranking (docs/predictive-model.md) -----------------
    #: Frequency/session-aware completion ranking: stably re-sort the
    #: served completions by how often each surface was completed before
    #: (plus explicit session boosts).  A cold cache scores all-zero, so
    #: the paper's shortest-first order is untouched until history exists.
    freq_ranking: bool = True

    # --- Storage engine ------------------------------------------------
    #: Which triple-store backend ``open_store``/``quickstart_server``
    #: build: ``"memory"`` (SPO/POS/OSP hash indexes, ephemeral) or
    #: ``"sqlite"`` (WAL-mode file, survives restarts — docs/storage.md).
    storage_backend: str = "memory"
    #: Database file for the sqlite backend; ``None`` means ``":memory:"``
    #: (same engine, no file — useful in tests).
    storage_path: Optional[str] = None

    # --- Scale-out serving (docs/server.md) -----------------------------
    #: Hash-partition the store across this many shards (by subject ID).
    #: 1 = unsharded.  Sharded stores plan scatter-gather scans
    #: (:class:`~repro.sparql.plan.ShardScanNode`) for subject-wildcard
    #: patterns and answer subject-bound probes from a single shard.
    n_shards: int = 1
    #: Pre-fork worker processes behind one serving port.  1 = the
    #: classic single-process :class:`~repro.net.server.SparqlHttpServer`;
    #: >1 = a :class:`~repro.net.prefork.PreforkServer` pool.
    n_workers: int = 1

    # --- Tracing / observability (docs/tracing.md) ---------------------
    #: Fraction of server requests that get a sampled execution trace
    #: even without ``analyze=true``.  ``0.0`` disables sampling;
    #: explicit ANALYZE requests and requests arriving with an
    #: ``X-Repro-Trace-Id`` header are always traced.
    trace_sample_rate: float = 0.01
    #: Wall-clock seconds above which a traced request is flagged
    #: ``slow`` in the slow-query log.
    slow_query_threshold_s: float = 0.5
    #: Capacity of the slow-query log (top-N ring by wall time).
    slow_log_size: int = 32

    def with_processes(self, processes: int) -> "SapphireConfig":
        """Copy with a different parallelism degree (benchmark sweeps)."""
        return replace(self, processes=processes)

    def with_tree_capacity(self, capacity: int) -> "SapphireConfig":
        """Copy with a different suffix-tree budget (ablation sweeps)."""
        return replace(self, suffix_tree_capacity=capacity)

    def with_storage(
        self, backend: str, path: Optional[str] = None
    ) -> "SapphireConfig":
        """Copy with a different storage engine selection."""
        if backend not in ("memory", "sqlite"):
            raise ValueError(f"unknown storage backend {backend!r}")
        return replace(self, storage_backend=backend, storage_path=path)

    def with_scaleout(
        self, n_workers: Optional[int] = None, n_shards: Optional[int] = None
    ) -> "SapphireConfig":
        """Copy with a different serving topology (worker/shard counts)."""
        workers = self.n_workers if n_workers is None else n_workers
        shards = self.n_shards if n_shards is None else n_shards
        if workers < 1:
            raise ValueError("n_workers must be >= 1")
        if shards < 1:
            raise ValueError("n_shards must be >= 1")
        return replace(self, n_workers=workers, n_shards=shards)
