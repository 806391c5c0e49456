"""SPARQL endpoint simulator.

This is the substitution for the paper's remote endpoints (DBpedia's
``http://dbpedia.org/sparql`` etc.).  A real public endpoint:

* enforces a query timeout (long-running queries are killed),
* may reject queries whose estimated cost is above a threshold,
* caps the number of returned rows,
* adds network latency to every round trip.

All four behaviours matter to Sapphire — they are *why* initialization
decomposes its retrieval into many small queries (Appendix A) and why the
Steiner-tree expansion is query-budgeted.  The simulator reproduces them
deterministically:

* **Timeout** — evaluation cost (index probes + produced rows, counted by
  :class:`~repro.store.CostMeter`) is converted to simulated seconds via
  ``cost_units_per_second``; if it exceeds ``timeout_s`` the query raises
  :class:`EndpointTimeout` exactly as a remote endpoint would cut the
  connection.
* **Rejection** — a crude optimizer estimate (product-free upper bound on
  the first pattern's candidates) above ``reject_threshold`` raises
  :class:`QueryRejected` without doing work.
* **Row cap** — results are truncated to ``max_rows`` with a flag set.
* **Latency** — every call accounts ``latency_s`` of simulated time into
  the query log (wall-clock sleeping would only slow the benchmarks down
  without changing any measured shape, so we account instead of sleep).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Union

from ..sparql.ast_nodes import Query
from ..sparql.errors import SparqlError
from ..sparql.evaluator import QueryEvaluator
from ..sparql.parser import parse_query
from ..sparql.results import AskResult, SelectResult
from ..sparql.trace import QueryTrace, Tracer
from ..store.triplestore import CostMeter, QueryAborted, TripleStore

__all__ = [
    "EndpointConfig",
    "EndpointError",
    "EndpointTimeout",
    "QueryRejected",
    "QueryLogEntry",
    "QUERY_LOG_SIZE",
    "SparqlEndpoint",
]

#: Recent queries an endpoint keeps in ``log``; ``query_count`` and
#: ``timeout_count`` count every query, so a long-running server keeps
#: exact totals in bounded memory.
QUERY_LOG_SIZE = 1024


class EndpointError(RuntimeError):
    """Base class for endpoint-side failures."""


class EndpointTimeout(EndpointError):
    """The query exceeded the endpoint's execution timeout."""


class QueryRejected(EndpointError):
    """The endpoint refused to start the query (estimated too expensive)."""


@dataclass(frozen=True, slots=True)
class EndpointConfig:
    """Resource policy of one endpoint.

    The defaults model a guarded public endpoint; ``warehouse()`` returns
    the unconstrained configuration of the paper's warehousing
    architecture (Appendix A: "no resource constraints and no timeouts").
    """

    timeout_s: float = 2.0
    cost_units_per_second: float = 20_000.0
    max_rows: Optional[int] = 10_000
    reject_threshold: Optional[int] = None
    latency_s: float = 0.05
    #: Single-pattern queries (pure scans/aggregations like Appendix A's
    #: Q1–Q4) run this much faster per unit than join queries: sequential
    #: scans stream, joins do random index probes.  This is why the paper
    #: can call Q1/Q2 "short queries that are not expected to time out"
    #: while the per-class literal joins (Q6) do time out.
    scan_speedup: float = 10.0

    @staticmethod
    def warehouse() -> "EndpointConfig":
        return EndpointConfig(
            timeout_s=float("inf"),
            cost_units_per_second=20_000.0,
            max_rows=None,
            reject_threshold=None,
            latency_s=0.0,
        )

    @property
    def cost_budget(self) -> Optional[int]:
        if self.timeout_s == float("inf"):
            return None
        return int(self.timeout_s * self.cost_units_per_second)


@dataclass(slots=True)
class QueryLogEntry:
    """One executed (or failed) query, as recorded by the endpoint."""

    query: str
    outcome: str  # "ok" | "timeout" | "rejected" | "error"
    cost: int
    simulated_seconds: float
    rows: int = 0
    truncated: bool = False


class SparqlEndpoint:
    """A simulated remote SPARQL endpoint over a local triple store.

    Thread-safe: the QSM prefetches suggested queries from background
    threads while the user-facing thread keeps issuing queries.
    """

    def __init__(
        self,
        store: TripleStore,
        config: Optional[EndpointConfig] = None,
        name: str = "endpoint",
    ) -> None:
        self.store = store
        self.config = config or EndpointConfig()
        self.name = name
        #: The most recent ``QUERY_LOG_SIZE`` queries, oldest first.
        self.log: Deque[QueryLogEntry] = deque(maxlen=QUERY_LOG_SIZE)
        self.query_count = 0
        self.timeout_count = 0
        self._evaluator = QueryEvaluator(store)
        self._lock = threading.Lock()
        self._simulated_time = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> Union[SelectResult, AskResult]:
        """Run a query of either form — the one execution entry, as
        ``FederatedQueryProcessor.run`` is (:meth:`select` and
        :meth:`ask` only check the form); raises on timeout/rejection."""
        # Untraced calls keep the pre-tracing _run arity: subclasses
        # (test doubles, failure injectors) override _run(query).
        return (self._run(query, tracer=tracer) if tracer is not None
                else self._run(query))

    def select(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> SelectResult:
        """Run a SELECT query; raises on timeout/rejection."""
        result = self.run(query, tracer)
        if not isinstance(result, SelectResult):
            raise SparqlError("expected a SELECT query")
        return result

    def ask(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> AskResult:
        """Run an ASK query; raises on timeout/rejection."""
        result = self.run(query, tracer)
        if not isinstance(result, AskResult):
            raise SparqlError("expected an ASK query")
        return result

    def analyze(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> "tuple[Union[SelectResult, AskResult], QueryTrace]":
        """EXPLAIN ANALYZE: execute ``query`` under this endpoint's
        budget/timeout policy (logged exactly like ``select``/``ask``)
        and return ``(result, trace)``."""
        if tracer is None:
            tracer = Tracer(query=query if isinstance(query, str) else "")
        result = self._run(query, tracer=tracer)
        return result, tracer.trace

    def explain(self, query: Union[str, Query], analyze: bool = False) -> str:
        """Plan dump for ``query`` against this endpoint's store.

        With ``analyze=False`` (the default) this is free and unlogged:
        planning is estimation-only by the store's meter-free contract,
        so an EXPLAIN can never trip the timeout.  Plans under the same
        cost budget ``select``/``ask`` would run with (including the
        single-pattern scan speedup), so the dump shows the strategy
        execution will actually use.

        With ``analyze=True`` the query is *executed* (budgeted and
        logged like any other run) and the execution trace — per-operator
        wall time, rows, est→actual — is appended below the plan.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        text = self._evaluator.explain(parsed, budget=self._budget_for(parsed))
        if not analyze:
            return text
        # Imported here: eval.reporting sits above endpoint in the
        # package graph (eval/__init__ pulls in core.sapphire → here).
        from ..eval.reporting import format_trace

        _, trace = self.analyze(query)
        return f"{text}\n\n{format_trace(trace)}"

    @property
    def simulated_seconds(self) -> float:
        """Total simulated endpoint time spent so far (latency + execution)."""
        return self._simulated_time

    def reset_log(self) -> None:
        with self._lock:
            self.log.clear()
            self.query_count = self.timeout_count = 0
            self._simulated_time = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> Union[SelectResult, AskResult]:
        parsed = parse_query(query) if isinstance(query, str) else query
        text = query if isinstance(query, str) else "<preparsed>"

        if self.config.reject_threshold is not None:
            estimate = self._estimate(parsed)
            if estimate > self.config.reject_threshold:
                self._record(text, "rejected", 0, self.config.latency_s)
                raise QueryRejected(
                    f"{self.name}: estimated cost {estimate} above threshold"
                )

        meter = CostMeter(self._budget_for(parsed))
        try:
            if tracer is not None:
                # The analyze path re-resolves plan estimates against
                # current store stats and finishes the trace (cost
                # stamped in its attrs).
                result, _ = self._evaluator.analyze(parsed, meter, tracer=tracer)
            else:
                result = self._evaluator.evaluate(parsed, meter)
        except QueryAborted:
            seconds = self.config.latency_s + self.config.timeout_s
            self._record(text, "timeout", meter.cost, seconds)
            raise EndpointTimeout(f"{self.name}: query exceeded {self.config.timeout_s}s") from None
        except SparqlError:
            self._record(text, "error", meter.cost, self.config.latency_s)
            raise

        seconds = self.config.latency_s + meter.cost / self.config.cost_units_per_second
        truncated = False
        rows = 0
        if isinstance(result, SelectResult):
            if self.config.max_rows is not None and len(result.rows) > self.config.max_rows:
                result.rows = result.rows[: self.config.max_rows]
                result.truncated = True
                truncated = True
            rows = len(result.rows)
        self._record(text, "ok", meter.cost, seconds, rows=rows, truncated=truncated)
        return result

    def _budget_for(self, parsed: Query) -> Optional[int]:
        """Cost budget one evaluation of ``parsed`` gets (scan speedup
        included) — shared by execution and EXPLAIN so they agree."""
        budget = self.config.cost_budget
        if budget is not None and len(parsed.where.patterns) <= 1:
            budget = int(budget * self.config.scan_speedup)
        return budget

    def _estimate(self, query: Query) -> int:
        """Optimizer-style upper bound used for admission control.

        Relies on the store's contract that ``cardinality_estimate`` is
        meter-free: rejecting (or admitting) a query must cost the
        endpoint nothing, otherwise admission control itself would eat
        into the simulated timeout budget.
        """
        patterns = query.where.patterns
        if not patterns:
            return 0
        return min(self.store.cardinality_estimate(p) for p in patterns)

    def _record(
        self,
        text: str,
        outcome: str,
        cost: int,
        seconds: float,
        rows: int = 0,
        truncated: bool = False,
    ) -> None:
        with self._lock:
            self.log.append(
                QueryLogEntry(
                    query=text,
                    outcome=outcome,
                    cost=cost,
                    simulated_seconds=seconds,
                    rows=rows,
                    truncated=truncated,
                )
            )
            self.query_count += 1
            if outcome == "timeout":
                self.timeout_count += 1
            self._simulated_time += seconds
