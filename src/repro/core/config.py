"""Sapphire configuration.

All the constants the paper fixes are collected here with their published
values as defaults:

* literal caching: length < 80 characters, English only (Section 5.1),
* QCM: k = 10 suggestions, bin window γ = 10 (Section 6.1),
* QSM: Jaro–Winkler threshold θ = 0.7, literal window α = 2 / β = 3,
  relaxation query budget = 100, w_q < w_default (Section 6.2),
* the paper's P parallel scan processes are not a setting: the residual
  bins are scanned in the calling thread, which was never slower than a
  thread pool at any size measured (docs/predictive-model.md);
  Algorithm 1's assignment is ``repro.text.bins.assign_tasks``.

The sizes that scale with the dataset (suffix-tree capacity, pagination
page size, initialization query limit) default to values proportionate to
the synthetic dataset rather than to DBpedia.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    # --- Tracing / observability (docs/tracing.md) ---------------------
    #: Fraction of server requests that get a sampled execution trace
    #: even without ``analyze=true``.  ``0.0`` disables sampling;
    #: explicit ANALYZE requests and requests arriving with an
    #: ``X-Repro-Trace-Id`` header are always traced.
    trace_sample_rate: float = 0.01
    #: Wall-clock seconds above which a traced request is flagged
    #: ``slow`` in the slow-query log.
    slow_query_threshold_s: float = 0.5
