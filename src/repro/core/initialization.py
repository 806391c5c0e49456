"""Endpoint initialization (Section 5 + Appendix A).

When a new endpoint is registered, Sapphire caches its predicates, a
filtered subset of its literals, and the most significant literals, by
issuing the decomposed query suite Q1–Q8 (federated architecture) or the
simpler Q9–Q10 (warehouse architecture, no timeouts).

The federated flow implemented here follows the paper step by step:

1. **Q1** — all predicates with frequencies (cheap, cached whole).
2. **Q2** — the RDFS class/subclass pairs; build the hierarchy tree.  If
   the dataset has no hierarchy, **Q3** — frequent entity types.
3. **Q4** — predicates associated with literals, ordered by frequency.
4. **Q5** — per predicate, check whether it has any literal passing the
   language/length filters (LIMIT 1 probe).
5. **Q6/Q7** — per (predicate, class) pair, walk the hierarchy from the
   roots: fetch literals with pagination; on timeout descend to the
   class's children and retry there (smaller instance sets).
6. **Q8** — per (predicate, class) pair, fetch the most significant
   literals (entities with many incoming edges), paginated, again with
   descent on timeout.

A user-settable limit caps the number of queries; because predicates are
visited most-frequent-first, the budget preferentially covers frequent
predicates, exactly as Section 5.1 argues.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..endpoint.endpoint import EndpointError, EndpointTimeout, QueryRejected, SparqlEndpoint
from ..rdf.terms import IRI, Literal
from .cache import SapphireCache
from .config import SapphireConfig

__all__ = ["InitializationReport", "EndpointInitializer", "initialize_endpoint", "index_cache"]


Q1_PREDICATES = """
SELECT DISTINCT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o }
GROUP BY ?p ORDER BY DESC(?frequency)
"""

Q2_CLASS_HIERARCHY = """
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
SELECT DISTINCT ?class ?subclass WHERE {
  ?class a owl:Class .
  ?class rdfs:subClassOf ?subclass
}
"""

Q3_TYPES = """
SELECT DISTINCT ?o (COUNT(?s) AS ?frequency) WHERE { ?s a ?o }
GROUP BY ?o ORDER BY DESC(?frequency)
"""

Q4_LITERAL_PREDICATES = """
SELECT DISTINCT ?p (COUNT(?o) AS ?frequency) WHERE {
  ?s ?p ?o .
  FILTER (isliteral(?o))
}
GROUP BY ?p ORDER BY DESC(?frequency)
"""


def q5_probe(predicate: IRI, language: str, max_length: int) -> str:
    return f"""
SELECT DISTINCT ?o WHERE {{
  ?s {predicate.n3()} ?o .
  FILTER (isliteral(?o) && lang(?o) = '{language}' && strlen(str(?o)) < {max_length})
}}
LIMIT 1
"""


def q6_literals(cls: IRI, predicate: IRI, language: str, max_length: int,
                limit: int, offset: int) -> str:
    return f"""
SELECT DISTINCT ?o WHERE {{
  ?s a {cls.n3()} .
  ?s {predicate.n3()} ?o .
  FILTER (isliteral(?o) && lang(?o) = '{language}' && strlen(str(?o)) < {max_length})
}}
LIMIT {limit}
OFFSET {offset}
"""


def q8_significant(cls: IRI, predicate: IRI, language: str, max_length: int,
                   limit: int, offset: int) -> str:
    return f"""
SELECT DISTINCT ?o (COUNT(?subject) AS ?frequency) WHERE {{
  ?s a {cls.n3()} .
  ?subject ?p ?s .
  ?s {predicate.n3()} ?o .
  FILTER (lang(?o) = '{language}' && strlen(str(?o)) < {max_length})
}}
GROUP BY ?o
ORDER BY DESC(?frequency)
LIMIT {limit}
OFFSET {offset}
"""


def q9_warehouse_literals(language: str, max_length: int) -> str:
    return f"""
SELECT DISTINCT ?o ?p WHERE {{
  ?s ?p ?o .
  FILTER (isliteral(?o) && lang(?o) = '{language}' && strlen(str(?o)) < {max_length})
}}
"""


def q10_warehouse_significant(language: str, max_length: int) -> str:
    return f"""
SELECT DISTINCT ?o (COUNT(?s1) AS ?frequency) WHERE {{
  ?s1 ?p ?s2 .
  ?s2 ?p2 ?o .
  FILTER (isliteral(?o) && lang(?o) = '{language}' && strlen(str(?o)) < {max_length})
}}
GROUP BY ?o
ORDER BY DESC(?frequency)
"""


@dataclass
class InitializationReport:
    """What happened during initialization — the Section 5 cost numbers.

    ``n_retries`` counts re-attempts after rejected/timed-out queries
    (each attempt also increments its stage counter, so the totals stay
    reconcilable with the endpoint's own query log).
    ``stages_completed`` records partial progress: an initialization
    that aborts mid-way — budget exhausted, endpoint gone — still says
    which stages finished, so an operator can judge what the cache
    holds instead of guessing.  ``stage_seconds`` has the wall seconds
    of each completed stage, plus ``index`` from :func:`index_cache`,
    which also fills ``cache_stats`` from the cache it indexed.
    """

    endpoint_name: str = ""
    architecture: str = "federated"
    used_class_hierarchy: bool = True
    n_setup_queries: int = 0
    n_literal_queries: int = 0
    n_significance_queries: int = 0
    n_timeouts: int = 0
    n_rejected: int = 0
    n_retries: int = 0
    query_limit_hit: bool = False
    simulated_seconds: float = 0.0
    stages_completed: List[str] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        return self.n_setup_queries + self.n_literal_queries + self.n_significance_queries


class EndpointInitializer:
    """Runs the Section 5 initialization against one endpoint."""

    def __init__(
        self,
        endpoint: SparqlEndpoint,
        config: Optional[SapphireConfig] = None,
        warehouse: bool = False,
        rng: Optional[random.Random] = None,
        sleep=time.sleep,
    ) -> None:
        self.endpoint = endpoint
        self.config = config or SapphireConfig()
        self.warehouse = warehouse
        self.report = InitializationReport(endpoint_name=endpoint.name)
        self._queries_issued = 0
        self._queries_ok = 0
        self._stage_started = 0.0
        # Jitter source and sleeper are injectable so tests stay
        # deterministic and sleep-free.  The default rng is *seeded*
        # (from the endpoint name, stable across runs and independent of
        # PYTHONHASHSEED) so no stochastic path ever draws from OS
        # entropy — byte-reproducibility is the replay harness contract.
        self._rng = rng if rng is not None else random.Random(
            f"init:{endpoint.name}")
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self) -> SapphireCache:
        """Execute initialization; returns the populated cache, not yet
        indexed (:func:`index_cache` — the server merges first).

        Works against any :class:`~repro.endpoint.endpoint.QueryService`
        — in-process simulators and :class:`~repro.net.client.
        HttpSparqlEndpoint` network endpoints alike (the latter account
        the wall time of their round trips as endpoint seconds).
        """
        cache = SapphireCache(self.config)
        start_time = getattr(self.endpoint, "simulated_seconds", 0.0)
        self._stage_started = time.perf_counter()
        if self.warehouse:
            self.report.architecture = "warehouse"
            self._run_warehouse(cache)
        else:
            self._run_federated(cache)
        self.report.simulated_seconds = (
            getattr(self.endpoint, "simulated_seconds", 0.0) - start_time
        )
        return cache

    # ------------------------------------------------------------------
    # Budget helpers
    # ------------------------------------------------------------------

    def _budget_left(self) -> bool:
        limit = self.config.init_query_limit
        if limit is None:
            return True
        if self._queries_issued >= limit:
            self.report.query_limit_hit = True
            return False
        return True

    def _issue(self, query: str, counter: str):
        """Send one query, maintaining the report counters.

        A rejected query (admission control / HTTP 503 — transient
        overload) is re-attempted up to ``init_retry_rejected`` times
        with capped full-jitter backoff; timeouts likewise honour
        ``init_retry_timeout`` (0 by default: the paper answers a
        timeout by descending the class hierarchy, not by re-running
        the same query).  Every attempt counts against the query budget
        and its stage counter, so the report reconciles with the
        endpoint's own log.  Returns the result, or None when all
        attempts failed or the budget is exhausted.
        """
        rejected_left = max(0, self.config.init_retry_rejected)
        timeout_left = max(0, self.config.init_retry_timeout)
        attempt = 0
        while True:
            if not self._budget_left():
                return None
            self._queries_issued += 1
            setattr(self.report, counter, getattr(self.report, counter) + 1)
            try:
                result = self.endpoint.select(query)
                self._queries_ok += 1
                return result
            except EndpointTimeout:
                self.report.n_timeouts += 1
                if timeout_left <= 0:
                    return None
                timeout_left -= 1
            except QueryRejected:
                self.report.n_rejected += 1
                if rejected_left <= 0:
                    return None
                rejected_left -= 1
            except EndpointError:
                return None
            self.report.n_retries += 1
            self._backoff(attempt)
            attempt += 1

    def _backoff(self, attempt: int) -> None:
        """Full-jitter exponential backoff, capped (same policy as the
        HTTP client's 503 handling)."""
        ceiling = min(
            self.config.init_backoff_cap_s,
            self.config.init_backoff_s * (2 ** attempt),
        )
        if ceiling > 0:
            self._sleep(self._rng.uniform(0, ceiling))

    # ------------------------------------------------------------------
    # Federated architecture (Q1–Q8)
    # ------------------------------------------------------------------

    def _mark_stage(self, name: str, ok_before: int) -> None:
        """Record ``name`` as completed — only if at least one of its
        queries actually succeeded.  A stage whose every query failed
        (endpoint gone, persistent 503s past the retry cap) must not
        read as progress: an operator uses ``stages_completed`` to
        judge what the cache holds.  Its wall seconds run from the
        previous mark."""
        now = time.perf_counter()
        if self._queries_ok > ok_before:
            self.report.stages_completed.append(name)
            self.report.stage_seconds[name] = now - self._stage_started
        self._stage_started = now

    def _run_federated(self, cache: SapphireCache) -> None:
        ok = self._queries_ok
        predicates = self._fetch_predicates(cache)
        self._mark_stage("predicates", ok)
        ok = self._queries_ok
        hierarchy = self._fetch_hierarchy(cache)
        if hierarchy:
            classes_in_order = self._hierarchy_levels(hierarchy)
        else:
            self.report.used_class_hierarchy = False
            classes_in_order = None
        self._mark_stage("hierarchy", ok)
        ok = self._queries_ok
        literal_predicates = self._fetch_literal_predicates(predicates)
        filtered = self._probe_predicates(literal_predicates)
        self._mark_stage("probes", ok)

        if classes_in_order is not None:
            roots = [cls for cls, parent in hierarchy.items() if parent not in hierarchy]
            ok = self._queries_ok
            for predicate in filtered:
                if not self._budget_left():
                    return
                self._descend_literals(cache, predicate, roots, hierarchy)
            self._mark_stage("literals", ok)
            ok = self._queries_ok
            for predicate in filtered:
                if not self._budget_left():
                    return
                self._descend_significant(cache, predicate, roots, hierarchy)
            self._mark_stage("significance", ok)
        else:
            types = self._fetch_types()
            ok = self._queries_ok
            for predicate in filtered:
                for cls in types:
                    if not self._budget_left():
                        return
                    self._paged_literals(cache, predicate, cls)
            self._mark_stage("literals", ok)
            ok = self._queries_ok
            for predicate in filtered:
                for cls in types:
                    if not self._budget_left():
                        return
                    self._paged_significant(cache, predicate, cls)
            self._mark_stage("significance", ok)

    def _fetch_predicates(self, cache: SapphireCache) -> List[IRI]:
        result = self._issue(Q1_PREDICATES, "n_setup_queries")
        predicates: List[IRI] = []
        if result is None:
            return predicates
        for row in result.rows:
            term = row.get("p")
            if isinstance(term, IRI):
                predicates.append(term)
                cache.add_predicate(term)
        return predicates

    def _fetch_hierarchy(self, cache: SapphireCache) -> Dict[IRI, IRI]:
        """Class -> superclass map from Q2 (empty when no RDFS schema)."""
        result = self._issue(Q2_CLASS_HIERARCHY, "n_setup_queries")
        hierarchy: Dict[IRI, IRI] = {}
        if result is None:
            return hierarchy
        for row in result.rows:
            cls, parent = row.get("class"), row.get("subclass")
            if isinstance(cls, IRI) and isinstance(parent, IRI):
                hierarchy[cls] = parent
                cache.add_class(cls)
        return hierarchy

    def _fetch_types(self) -> List[IRI]:
        result = self._issue(Q3_TYPES, "n_setup_queries")
        if result is None:
            return []
        return [row["o"] for row in result.rows if isinstance(row.get("o"), IRI)]

    def _fetch_literal_predicates(self, fallback: Sequence[IRI]) -> List[IRI]:
        result = self._issue(Q4_LITERAL_PREDICATES, "n_setup_queries")
        if result is None:
            return list(fallback)
        return [row["p"] for row in result.rows if isinstance(row.get("p"), IRI)]

    def _probe_predicates(self, predicates: Sequence[IRI]) -> List[IRI]:
        """Q5: keep predicates with at least one filter-passing literal."""
        keep: List[IRI] = []
        for predicate in predicates:
            if not self._budget_left():
                break
            result = self._issue(
                q5_probe(predicate, self.config.literal_language, self.config.literal_max_length),
                "n_setup_queries",
            )
            if result is not None and result.rows:
                keep.append(predicate)
        return keep

    def _hierarchy_levels(self, hierarchy: Dict[IRI, IRI]) -> List[IRI]:
        return list(hierarchy.keys())

    def _children(self, cls: IRI, hierarchy: Dict[IRI, IRI]) -> List[IRI]:
        return [child for child, parent in hierarchy.items() if parent == cls]

    def _descend_literals(
        self,
        cache: SapphireCache,
        predicate: IRI,
        classes: Sequence[IRI],
        hierarchy: Dict[IRI, IRI],
    ) -> None:
        """Walk the hierarchy root-to-leaves; descend only on timeout."""
        for cls in classes:
            if not self._budget_left():
                return
            ok = self._paged_literals(cache, predicate, cls)
            if not ok:
                children = self._children(cls, hierarchy)
                if children:
                    self._descend_literals(cache, predicate, children, hierarchy)

    def _paged_literals(self, cache: SapphireCache, predicate: IRI, cls: IRI) -> bool:
        """Q6/Q7 with pagination.  Returns False when a page timed out."""
        offset = 0
        while self._budget_left():
            query = q6_literals(cls, predicate, self.config.literal_language,
                                self.config.literal_max_length,
                                self.config.page_size, offset)
            result = self._issue(query, "n_literal_queries")
            if result is None:
                return False
            for row in result.rows:
                term = row.get("o")
                if isinstance(term, Literal):
                    cache.add_literal(term, source_predicate=predicate)
            if len(result.rows) < self.config.page_size:
                return True
            offset += self.config.page_size
        return True

    def _descend_significant(
        self,
        cache: SapphireCache,
        predicate: IRI,
        classes: Sequence[IRI],
        hierarchy: Dict[IRI, IRI],
    ) -> None:
        for cls in classes:
            if not self._budget_left():
                return
            ok = self._paged_significant(cache, predicate, cls)
            if not ok:
                children = self._children(cls, hierarchy)
                if children:
                    self._descend_significant(cache, predicate, children, hierarchy)

    def _paged_significant(self, cache: SapphireCache, predicate: IRI, cls: IRI) -> bool:
        offset = 0
        while self._budget_left():
            query = q8_significant(cls, predicate, self.config.literal_language,
                                   self.config.literal_max_length,
                                   self.config.significant_page_size, offset)
            result = self._issue(query, "n_significance_queries")
            if result is None:
                return False
            for row in result.rows:
                term, freq = row.get("o"), row.get("frequency")
                if isinstance(term, Literal) and isinstance(freq, Literal):
                    try:
                        significance = int(freq.lexical)
                    except ValueError:
                        continue
                    cache.add_literal(term, source_predicate=predicate,
                                      significance=significance)
            if len(result.rows) < self.config.significant_page_size:
                return True
            offset += self.config.significant_page_size
        return True

    # ------------------------------------------------------------------
    # Warehouse architecture (Q9–Q10)
    # ------------------------------------------------------------------

    def _run_warehouse(self, cache: SapphireCache) -> None:
        ok = self._queries_ok
        self._fetch_predicates(cache)
        self._mark_stage("predicates", ok)
        ok = self._queries_ok
        self._fetch_hierarchy(cache)
        self._mark_stage("hierarchy", ok)
        ok = self._queries_ok
        result = self._issue(
            q9_warehouse_literals(self.config.literal_language, self.config.literal_max_length),
            "n_literal_queries",
        )
        if result is not None:
            for row in result.rows:
                term = row.get("o")
                pred = row.get("p")
                if isinstance(term, Literal):
                    cache.add_literal(
                        term,
                        source_predicate=pred if isinstance(pred, IRI) else None,
                    )
        self._mark_stage("literals", ok)
        ok = self._queries_ok
        result = self._issue(
            q10_warehouse_significant(self.config.literal_language, self.config.literal_max_length),
            "n_significance_queries",
        )
        if result is not None:
            for row in result.rows:
                term, freq = row.get("o"), row.get("frequency")
                if isinstance(term, Literal) and isinstance(freq, Literal):
                    try:
                        cache.set_significance(term.lexical, int(freq.lexical))
                    except ValueError:
                        continue
        self._mark_stage("significance", ok)


def initialize_endpoint(
    endpoint: SparqlEndpoint,
    config: Optional[SapphireConfig] = None,
    warehouse: bool = False,
) -> Tuple[SapphireCache, InitializationReport]:
    """Convenience wrapper: initialize ``endpoint`` and return the
    indexed cache and the report."""
    initializer = EndpointInitializer(endpoint, config, warehouse=warehouse)
    cache = initializer.run()
    index_cache(cache, initializer.report)
    return cache, initializer.report


def index_cache(cache: SapphireCache, report: InitializationReport) -> None:
    """Build ``cache``'s suffix tree and bins (Section 5.2) and record
    on ``report`` what that cost and what the indexed cache holds."""
    started = time.perf_counter()
    cache.build_indexes()
    report.stage_seconds["index"] = time.perf_counter() - started
    report.cache_stats = cache.stats()
