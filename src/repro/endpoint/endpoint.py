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
from typing import Deque, Dict, List, Optional, Sequence, Union

from ..rdf.terms import IRI, Term
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import Query
from ..sparql.errors import SparqlError
from ..sparql.evaluator import QueryEvaluator
from ..sparql.parser import parse_query
from ..sparql.results import AskResult, SelectResult
from ..sparql.trace import QueryTrace, Tracer
from ..store.sharded import ShardedBackend
from ..store.stats import PredicateStat
from ..store.triplestore import CostMeter, QueryAborted, TripleStore

__all__ = [
    "EndpointConfig",
    "EndpointError",
    "EndpointTimeout",
    "QueryRejected",
    "QueryLogEntry",
    "QUERY_LOG_SIZE",
    "QueryService",
    "LoggedQueryService",
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


class QueryService:
    """The one query face of the three query backends.

    :class:`SparqlEndpoint`, :class:`~repro.federation.fedx.
    FederatedQueryProcessor` and :class:`~repro.net.client.
    HttpSparqlEndpoint` each implement :meth:`run`, the one execution
    entry, and :meth:`_plan_text`, the EXPLAIN dump; ``select`` /
    ``ask`` / ``analyze`` / ``explain`` are written once, here, on top
    of them.  A new backend implements those two methods.  What a
    server, a tracer or a federation asks of a backend beyond that is a
    method here too, with the answer of a backend that knows nothing.
    """

    #: What plans, trace spans and query logs call this backend.
    name = "?"

    def set_trace_context(self, trace_id: Optional[str],
                          parent_span_id: Optional[str]) -> None:
        """Install (or clear, with ``None``s) the distributed-trace
        context of this backend's next calls.  Only a backend across the
        wire has a trace to continue; in-process ones record into the
        tracer they are handed."""

    def query_deadline_s(self) -> Optional[float]:
        """The longest a query here may run, in seconds, or ``None``
        when this backend sets no budget (a serving app caps its queue
        wait at it)."""
        return None

    def stats_blocks(self) -> Dict[str, object]:
        """This backend's blocks of a server's ``/stats`` document."""
        return {}

    def run(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> Union[SelectResult, AskResult]:
        """Run a query of either form; raises on timeout/rejection.
        ``tracer`` (optional) records the execution's spans."""
        raise NotImplementedError

    def _plan_text(self, query: Union[str, Query]) -> str:
        """The plan dump for ``query``; executes nothing."""
        raise NotImplementedError

    def unproven(
        self,
        patterns: Sequence[TriplePattern],
        triple_index: int,
        position: str,
        candidates: Sequence[Term],
    ) -> List[Term]:
        """The ``candidates``, in order, whose one-change BGP — ``patterns``
        with the candidate at ``position`` (``"subject"``, ``"predicate"``
        or ``"object"``) of pattern ``triple_index`` — this backend's
        data does not prove empty, for free.  The QSM asks it once per
        probe position.  A backend that cannot see its data (a network
        member) proves nothing: every candidate."""
        return list(candidates)

    def proves_no_match(self, patterns: Sequence[TriplePattern]) -> bool:
        """Whether this backend's data proves the BGP ``patterns`` has no
        solution: :meth:`unproven` of the BGP as its own one-change
        variant.  No patterns prove nothing, but a backend that sees its
        data builds what the proof reads: set-up asks that."""
        if not patterns:
            return False
        last = len(patterns) - 1
        return not self.unproven(patterns, last, "subject", (patterns[last].subject,))

    def predicate_stats(self) -> Optional[Dict[IRI, PredicateStat]]:
        """Per-predicate statistics of this backend's data, or ``None``
        when it cannot see them (a network member)."""
        return None

    def select(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> SelectResult:
        """Run a SELECT query; raises on timeout/rejection."""
        return self._run_form(query, tracer, "SELECT", SelectResult)

    def ask(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> AskResult:
        """Run an ASK query; raises on timeout/rejection."""
        return self._run_form(query, tracer, "ASK", AskResult)

    def analyze(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> "tuple[Union[SelectResult, AskResult], QueryTrace]":
        """EXPLAIN ANALYZE: execute ``query`` under a tracer (budgeted
        and logged like any other run) and return ``(result, trace)``."""
        if tracer is None:
            tracer = Tracer(query=query if isinstance(query, str) else "")
        result = self.run(query, tracer)
        return result, tracer.finish()

    def explain(self, query: Union[str, Query], analyze: bool = False) -> str:
        """Plan dump for ``query``.

        With ``analyze=False`` (the default) this is free and unlogged:
        planning is estimation-only by the store's meter-free contract,
        so an EXPLAIN can never trip a timeout.

        With ``analyze=True`` the query is *executed* (budgeted and
        logged like any other run) and the execution trace — per-operator
        wall time, rows, est→actual — is appended below the plan.
        """
        text = self._plan_text(query)
        if not analyze:
            return text
        return f"{text}\n\n{self._trace_text(query)}"

    def _trace_text(self, query: Union[str, Query]) -> str:
        """EXPLAIN ANALYZE's second half: the rendered execution trace."""
        # Imported here: eval.reporting sits above endpoint in the
        # package graph (eval/__init__ pulls in core.sapphire → here).
        from ..eval.reporting import format_trace

        _, trace = self.analyze(query)
        return format_trace(trace)

    def _parsed(self, query: Union[str, Query]) -> Optional[Query]:
        """``query`` parsed (``None``: this backend learns its form only
        from the result)."""
        return parse_query(query) if isinstance(query, str) else query

    def _run(self, parsed: Optional[Query], text: Optional[str],
             tracer: Optional[Tracer] = None):
        """:meth:`run` of a query at hand as its :meth:`_parsed` and its
        ``text`` (``None``: it was given parsed)."""
        return self.run(text if parsed is None else parsed, tracer)

    def _run_form(self, query: Union[str, Query], tracer: Optional[Tracer],
                  form: str, result_type: type):
        """:meth:`run`, refusing a query of another form before it runs.
        Text is parsed once, here (a query log still records the text)."""
        parsed = self._parsed(query)
        if parsed is None or parsed.form == form:
            result = self._run(parsed, query if isinstance(query, str) else None, tracer)
            if isinstance(result, result_type):
                return result
        raise SparqlError(f"expected {'an' if form == 'ASK' else 'a'} {form} query")


class LoggedQueryService(QueryService):
    """A :class:`QueryService` that logs every query it runs.

    ``log`` keeps the most recent ``QUERY_LOG_SIZE`` queries, oldest
    first; ``query_count`` and ``timeout_count`` count every query, and
    ``simulated_seconds`` adds up their entries' seconds (latency plus
    simulated execution in-process, the round trip over the wire).
    Thread-safe: the QSM prefetches suggested queries from background
    threads while the user-facing thread keeps issuing queries.
    """

    def __init__(self) -> None:
        self.log: Deque[QueryLogEntry] = deque(maxlen=QUERY_LOG_SIZE)
        self.query_count = 0
        self.timeout_count = 0
        self.simulated_seconds = 0.0
        self._log_lock = threading.Lock()

    def reset_log(self) -> None:
        with self._log_lock:
            self.log.clear()
            self.query_count = self.timeout_count = 0
            self.simulated_seconds = 0.0

    def _record(
        self,
        text: Optional[str],
        outcome: str,
        cost: int,
        seconds: float,
        result: Union[SelectResult, AskResult, None] = None,
    ) -> None:
        """Log one query (``text`` ``None``: one given parsed); a SELECT
        ``result`` gives the entry its ``rows`` and ``truncated``."""
        select = isinstance(result, SelectResult)
        rows = len(result.rows) if select else 0
        truncated = select and result.truncated
        with self._log_lock:
            self.log.append(
                QueryLogEntry(
                    query="<preparsed>" if text is None else text,
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
            self.simulated_seconds += seconds


class SparqlEndpoint(LoggedQueryService):
    """A simulated remote SPARQL endpoint over a local triple store."""

    def __init__(
        self,
        store: TripleStore,
        config: Optional[EndpointConfig] = None,
        name: str = "endpoint",
    ) -> None:
        super().__init__()
        self.store = store
        self.config = config or EndpointConfig()
        self.name = name
        self._evaluator = QueryEvaluator(store)

    def run(
        self, query: Union[str, Query], tracer: Optional[Tracer] = None
    ) -> Union[SelectResult, AskResult]:
        """Run a query under this endpoint's budget, row cap and log."""
        return self._run(self._parsed(query), query if isinstance(query, str) else None, tracer)

    def unproven(
        self,
        patterns: Sequence[TriplePattern],
        triple_index: int,
        position: str,
        candidates: Sequence[Term],
    ) -> List[Term]:
        return self.store.unproven(patterns, triple_index, position, candidates)

    def proves_no_match(self, patterns: Sequence[TriplePattern]) -> bool:
        return self.store.proves_no_match(patterns)

    def predicate_stats(self) -> Dict[IRI, PredicateStat]:
        return self.store.predicate_stats()

    def query_deadline_s(self) -> float:
        return self.config.timeout_s

    def stats_blocks(self) -> Dict[str, object]:
        """``shards``: the triple count of each shard of a sharded store."""
        if not isinstance(self.store.backend, ShardedBackend):
            return {}
        depths = self.store.backend.shard_sizes()
        return {"shards": {"n_shards": len(depths), "depths": depths}}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan_text(self, query: Union[str, Query]) -> str:
        # Plans under the same cost budget a run gets (including the
        # single-pattern scan speedup), so the dump shows the strategy
        # execution will actually use.
        parsed = self._parsed(query)
        return self._evaluator.explain(parsed, budget=self._budget_for(parsed))

    def _run(
        self, parsed: Query, text: Optional[str], tracer: Optional[Tracer] = None
    ) -> Union[SelectResult, AskResult]:
        """Run ``parsed``, logged as ``text``."""

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
        max_rows = self.config.max_rows
        if isinstance(result, SelectResult) and max_rows is not None and len(result.rows) > max_rows:
            result.rows = result.rows[:max_rows]
            result.truncated = True
        self._record(text, "ok", meter.cost, seconds, result)
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
