"""The Sapphire server (Section 3's architecture, Figure 1).

``SapphireServer`` sits between the user and one or more SPARQL
endpoints:

* endpoints are **registered** and then **initialized** (Section 5),
  populating one merged :class:`~repro.core.cache.SapphireCache`;
* queries execute through the **federated query processor**;
* the **Predictive User Model** is exposed as two calls:
  :meth:`complete` (QCM, invoked per keystroke) and the suggestions
  attached to every :meth:`run_query` result (QSM: alternative terms +
  structure relaxation, answers prefetched).

``QueryBuilder`` models the UI of Section 4: one text box per triple
position; terms are either variables, picked completions (which carry
their RDF term), or raw strings.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..endpoint.endpoint import SparqlEndpoint
from ..federation.fedx import FederatedQueryProcessor
from ..rdf.terms import Literal, Term, Variable
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import (
    Aggregate,
    BinaryExpr,
    Expression,
    GraphPattern,
    OrderCondition,
    Query,
    SelectItem,
    TermExpr,
)
from ..sparql.parser import parse_query
from ..sparql.results import AskResult, SelectResult
from ..sparql.serializer import serialize_query
from ..sparql.trace import QueryTrace, Tracer
from ..text.lexicon import Lexicon
from .cache import CacheReader, SapphireCache
from .config import SapphireConfig
from .initialization import EndpointInitializer, InitializationReport, index_cache
from .persistence import load_cache, load_store, save_cache, save_store
from .probes import ProbeTally
from .qcm import CompletionResult, QueryCompletionModule
from .qsm_relax import RelaxationSuggestion, StructureRelaxer
from .qsm_terms import AlternativeTermsFinder, Position, TermSuggestion

__all__ = ["QueryBuilder", "QueryOutcome", "SapphireServer"]


def _literal_seeds(positions: List[Position]) -> Dict[Literal, List[Literal]]:
    """Seed-group inputs for the relaxer: each query literal's top JW
    alternatives, read off one round's ``candidate_positions``."""
    return {
        element: [
            entry.term for entry, _ in found if isinstance(entry.term, Literal)
        ]
        for _, _, element, found in positions
        if isinstance(element, Literal)
    }


def _is_safe_state_name(name: str) -> bool:
    """True when ``name`` is usable as a ``<name>.sqlite`` state file —
    non-empty and free of path separators, whether it came from a live
    endpoint or from a (possibly tampered) state manifest."""
    return isinstance(name, str) and bool(name) and Path(name).name == name


@dataclass
class QueryOutcome:
    """What the user sees after clicking Run: answers + suggestions."""

    query: Query
    query_text: str
    answers: Union[SelectResult, AskResult]
    term_suggestions: List[TermSuggestion] = field(default_factory=list)
    relaxations: List[RelaxationSuggestion] = field(default_factory=list)
    qsm_seconds: float = 0.0

    @property
    def has_answers(self) -> bool:
        return bool(self.answers)

    @property
    def all_suggestions(self) -> List[Union[TermSuggestion, RelaxationSuggestion]]:
        ordered: List[Union[TermSuggestion, RelaxationSuggestion]] = []
        ordered.extend(self.term_suggestions)
        ordered.extend(self.relaxations)
        return ordered


class QueryBuilder:
    """Programmatic stand-in for the triple-pattern text boxes of Figure 2."""

    def __init__(self) -> None:
        self._patterns: List[TriplePattern] = []
        self._filters: List[Expression] = []
        self._select: Optional[List[SelectItem]] = None
        self._order_by: List[OrderCondition] = []
        self._limit: Optional[int] = None
        self._count_var: Optional[Tuple[str, str]] = None
        self._aggregate: Optional[Tuple[str, str, str]] = None

    def triple(self, subject: Term, predicate: Term, obj: Term) -> "QueryBuilder":
        self._patterns.append(TriplePattern(subject, predicate, obj))
        return self

    def filter(self, expression: Expression) -> "QueryBuilder":
        self._filters.append(expression)
        return self

    def compare(self, variable: str, op: str, value: Union[int, float, str]) -> "QueryBuilder":
        """Add ``FILTER (?variable op value)`` (numbers become literals)."""
        from ..rdf.terms import XSD_INTEGER

        if isinstance(value, (int, float)):
            literal = Literal(str(value), datatype=XSD_INTEGER)
        else:
            literal = Literal(str(value))
        if op == "starts":
            from ..sparql.ast_nodes import FunctionCall

            self._filters.append(FunctionCall(
                "STRSTARTS",
                (FunctionCall("STR", (TermExpr(Variable(variable)),)), TermExpr(literal)),
            ))
            return self
        self._filters.append(BinaryExpr(op, TermExpr(Variable(variable)), TermExpr(literal)))
        return self

    def count(self, variable: str, alias: str = "count") -> "QueryBuilder":
        self._count_var = (variable, alias)
        return self

    def aggregate(self, name: str, variable: str, alias: str = "agg") -> "QueryBuilder":
        self._aggregate = (name.upper(), variable, alias)
        return self

    def order_by(self, variable: str, descending: bool = False) -> "QueryBuilder":
        self._order_by.append(
            OrderCondition(TermExpr(Variable(variable)), ascending=not descending)
        )
        return self

    def limit(self, n: int) -> "QueryBuilder":
        self._limit = n
        return self

    def build(self) -> Query:
        """Assemble the Query AST (all variables projected by default,
        as the Section 4 UI does)."""
        query = Query(form="SELECT", distinct=True)
        query.where = GraphPattern(patterns=list(self._patterns), filters=list(self._filters))
        if self._count_var is not None:
            variable, alias = self._count_var
            query.select_items = [SelectItem(
                Aggregate("COUNT", TermExpr(Variable(variable)), distinct=True), alias=alias
            )]
        elif self._aggregate is not None:
            name, variable, alias = self._aggregate
            query.select_items = [SelectItem(
                Aggregate(name, TermExpr(Variable(variable))), alias=alias
            )]
        else:
            query.select_star = True
        query.order_by = list(self._order_by)
        query.limit = self._limit
        return query


class SapphireServer:
    """One running Sapphire instance (Figure 1's middle box)."""

    def __init__(
        self,
        config: Optional[SapphireConfig] = None,
        lexicon: Optional[Lexicon] = None,
    ) -> None:
        self.config = config or SapphireConfig()
        self.lexicon = lexicon
        self.endpoints: List[SparqlEndpoint] = []
        #: A builder until a state is restored, then the file's reader
        #: (``register_endpoint`` promotes it back when it must mutate).
        self.cache: CacheReader = SapphireCache(self.config)
        self.reports: Dict[str, InitializationReport] = {}
        self._federation: Optional[FederatedQueryProcessor] = None
        self._qcm: Optional[QueryCompletionModule] = None
        self._terms_finder: Optional[AlternativeTermsFinder] = None
        self._relaxer: Optional[StructureRelaxer] = None

    # ------------------------------------------------------------------
    # Endpoint lifecycle
    # ------------------------------------------------------------------

    def register_endpoint(
        self,
        endpoint: SparqlEndpoint,
        warehouse: bool = False,
    ) -> InitializationReport:
        """Register ``endpoint`` and run Section 5 initialization on it.

        The initializer fills a cache of the endpoint's own; only a
        finished one is merged into the server's, which is indexed once.
        The endpoint joins the federation after that, so a failure
        leaves the server as it was.
        """
        initializer = EndpointInitializer(endpoint, self.config, warehouse=warehouse)
        cache = initializer.run()
        if not isinstance(self.cache, SapphireCache):
            # Restored from a file: a reader has no mutators, so fold it
            # into a builder first.
            reader, self.cache = self.cache, SapphireCache(self.config)
            self.cache.merge(reader)
            reader.close()
        self.cache.merge(cache)
        index_cache(self.cache, initializer.report)
        self.endpoints.append(endpoint)
        self.reports[endpoint.name] = initializer.report
        started = time.perf_counter()
        self._refresh_modules()
        initializer.report.stage_seconds["qsm-vocabulary"] = (
            time.perf_counter() - started
        )
        return initializer.report

    def attach_endpoint(self, endpoint: SparqlEndpoint) -> None:
        """Register ``endpoint`` *without* re-running initialization.

        Used on restart, when the cache was restored from disk and the
        endpoint's dataset reopened from its persistent store — the
        17-hour DBpedia crawl must not happen twice (Section 5.1).
        """
        self.endpoints.append(endpoint)
        self._refresh_modules()

    def _refresh_modules(self) -> None:
        """Rebuild the federation and drop PUM modules derived from it.

        The terms finder is built here, over an indexed cache, so its
        vocabulary table is scored at set-up rather than by the first
        ``/suggest``; a cache not indexed yet leaves it to first use."""
        self._federation = FederatedQueryProcessor(self.endpoints)
        self._qcm = None
        self._terms_finder = None
        self._relaxer = None
        if self.cache.is_indexed:
            self._terms_finder = self._new_terms_finder()

    # ------------------------------------------------------------------
    # Restart persistence (cache + datasets)
    # ------------------------------------------------------------------

    def save_state(self, directory) -> Dict[str, int]:
        """Persist the cache and every endpoint's dataset under
        ``directory`` (``cache.sqlite`` + one ``<endpoint>.sqlite``
        each — the cache rides the same storage engine as the data,
        see ``core/persistence.py``).

        Returns a map of endpoint name to persisted triple count.  Load
        again with :meth:`load_state`.
        """
        seen = set()
        for endpoint in self.endpoints:
            # Names become <name>.sqlite files and must round-trip
            # through the state manifest — reject path tricks and
            # collisions before anything is written.
            if not _is_safe_state_name(endpoint.name):
                raise ValueError(
                    f"endpoint name {endpoint.name!r} cannot be used as a "
                    "state filename (contains a path separator or is empty)"
                )
            if endpoint.name in seen:
                raise ValueError(
                    f"two endpoints share the name {endpoint.name!r}; their "
                    "state files would overwrite each other — give each "
                    "endpoint a distinct name before saving"
                )
            if endpoint.name in ("cache", "state"):
                raise ValueError(
                    f"endpoint name {endpoint.name!r} collides with the "
                    "state directory's own files (cache.sqlite/state.json) "
                    "— rename the endpoint before saving"
                )
            seen.add(endpoint.name)
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        index_info = save_cache(self.cache, target / "cache.sqlite")
        # Drop state files *this class* wrote for endpoints that no
        # longer exist (per the previous manifest) — never unrelated
        # .sqlite files that happen to live in the directory.
        manifest_path = target / "state.json"
        previous: list = []
        if manifest_path.exists():
            try:
                previous = json.loads(manifest_path.read_text()).get("endpoints", [])
            except (json.JSONDecodeError, AttributeError):
                # A truncated manifest (interrupted save) must not brick
                # future saves; skip stale cleanup and rewrite it below.
                previous = []
        current = {endpoint.name for endpoint in self.endpoints}
        counts: Dict[str, int] = {}
        for endpoint in self.endpoints:
            counts[endpoint.name] = save_store(
                endpoint.store, target / f"{endpoint.name}.sqlite"
            )
        # Atomic replace so a crash mid-write cannot truncate the manifest.
        scratch = manifest_path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps({
            "version": 3,
            "cache": "cache.sqlite",
            "cache_index": index_info,
            "endpoints": sorted(current),
        }))
        os.replace(scratch, manifest_path)
        # Stale cleanup runs last: if any store write above had failed,
        # the previous manifest would still describe files that exist.
        for name in previous:
            if not _is_safe_state_name(name):
                continue  # tampered manifest entry: never follow it
            if name not in current:
                stale = target / f"{name}.sqlite"
                stale.unlink(missing_ok=True)
                for sidecar in (stale.with_name(stale.name + "-wal"),
                                stale.with_name(stale.name + "-shm")):
                    sidecar.unlink(missing_ok=True)
        return counts

    @classmethod
    def load_state(
        cls,
        directory,
        config: Optional[SapphireConfig] = None,
        endpoint_config=None,
        lexicon: Optional[Lexicon] = None,
    ) -> "SapphireServer":
        """Rebuild a server from :meth:`save_state` output.

        The cache file is opened as a reader (hot tier built at the
        configured tree capacity, see ``load_cache``) and each dataset named by the state manifest is
        reopened on its SQLite backend and attached without
        re-initialization.  Endpoint resource policies are runtime
        choices, so pass ``endpoint_config`` to override the default.
        """
        source = Path(directory)
        manifest = json.loads((source / "state.json").read_text())
        server = cls(config, lexicon)
        cache_name = manifest.get("cache")
        if not _is_safe_state_name(cache_name):
            raise ValueError(
                f"state manifest names an unsafe cache file {cache_name!r} "
                "(missing, empty or a path separator) — refusing to open it"
            )
        server.cache = load_cache(source / cache_name, server.config)
        for name in manifest.get("endpoints", []):
            if not _is_safe_state_name(name):
                raise ValueError(
                    f"state manifest names an unsafe endpoint {name!r} "
                    "(path separator or empty) — refusing to open it"
                )
            endpoint = SparqlEndpoint(
                load_store(source / f"{name}.sqlite"),
                endpoint_config,
                name=name,
            )
            server.attach_endpoint(endpoint)
        return server

    @property
    def federation(self) -> FederatedQueryProcessor:
        if self._federation is None:
            raise RuntimeError("register at least one endpoint first")
        return self._federation

    def _run_ast(self, query: Query, tracer: Optional[Tracer] = None) -> SelectResult:
        return self.federation.run(query, tracer=tracer)  # type: ignore[return-value]

    def _proves_no_match(self, patterns: Sequence[TriplePattern]) -> bool:
        return self.federation.proves_no_match(patterns)

    # ------------------------------------------------------------------
    # PUM: completion (QCM)
    # ------------------------------------------------------------------

    @property
    def qcm(self) -> QueryCompletionModule:
        if self._qcm is None:
            self._qcm = QueryCompletionModule(self.cache, self.config)
        return self._qcm

    def complete(
        self,
        text: str,
        k: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        boost_surfaces: Optional[List[str]] = None,
    ) -> CompletionResult:
        """Auto-complete suggestions for the partially typed ``text``.

        ``boost_surfaces`` (session-recent surfaces) feed the ranking
        re-sort.  Under a tracer the QCM lookup records one span with
        the cache-lookup delta (suffix-tree vs. bin vs. on-disk index
        hits) of this call.
        """
        if tracer is None:
            return self.qcm.complete(text, k, boost_surfaces=boost_surfaces)
        before = self.cache.lookup_stats()
        with tracer.span("qcm-complete", chars=len(text)) as span:
            result = self.qcm.complete(text, k, boost_surfaces=boost_surfaces)
            if span is not None:
                after = self.cache.lookup_stats()
                span.attrs["completions"] = len(result.completions)
                span.attrs["tree_hit"] = result.tree_hit
                span.attrs["boosted"] = result.boosted
                for key in ("tree_hits", "bin_hits", "index_hits", "misses"):
                    span.attrs[key] = after.get(key, 0) - before.get(key, 0)
        return result

    # ------------------------------------------------------------------
    # PUM: suggestion (QSM)
    # ------------------------------------------------------------------

    @property
    def terms_finder(self) -> AlternativeTermsFinder:
        if self._terms_finder is None:
            self._terms_finder = self._new_terms_finder()
        return self._terms_finder

    def _new_terms_finder(self) -> AlternativeTermsFinder:
        """A finder that runs through the federation and skips the
        candidates its data proves empty.  Each member builds what its
        proof reads here, with the vocabulary table, so set-up pays for
        it and not the first repair."""
        for endpoint in self.endpoints:
            endpoint.proves_no_match(())
        return AlternativeTermsFinder(
            self.cache, self._run_ast, self._proves_no_match, self.config,
            self.lexicon,
        )

    @property
    def relaxer(self) -> StructureRelaxer:
        if self._relaxer is None:
            self._relaxer = StructureRelaxer(self.cache, self._run_ast, self.config)
        return self._relaxer

    def run_query(
        self,
        query: Union[str, Query, QueryBuilder],
        suggest: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> QueryOutcome:
        """Execute a query and (simultaneously, in the UI) gather QSM
        suggestions.  Suggestions are produced for every query, answers
        or not (Section 3).

        Under a tracer the federated execution records its operator
        spans and the two QSM phases (alternative terms, structure
        relaxation) record phase spans, with one ``qsm-probe-batch``
        span per batched VALUES probe the round ships.
        """
        if isinstance(query, QueryBuilder):
            query = query.build()
        if isinstance(query, str):
            query = parse_query(query)
        answers = self._run_ast(query, tracer)
        outcome = QueryOutcome(
            query=query, query_text=serialize_query(query), answers=answers
        )
        if not suggest:
            return outcome
        t0 = time.perf_counter()
        finder = self.terms_finder
        if tracer is None:
            positions = finder.candidate_positions(query)
            outcome.term_suggestions = finder.suggest(query, positions=positions)
            outcome.relaxations = list(self.relaxer.ground_literals(query))
            outcome.relaxations.extend(
                self.relaxer.relax(query, _literal_seeds(positions))
            )
        else:
            with tracer.span("qsm-terms") as span:
                tally = ProbeTally()
                positions = finder.candidate_positions(query, tracer)
                outcome.term_suggestions = finder.suggest(
                    query, positions=positions, tracer=tracer, tally=tally
                )
                if span is not None:
                    span.attrs.update(
                        suggestions=len(outcome.term_suggestions),
                        proven_empty=tally.proven_empty,
                        probes_skipped=tally.probes_skipped,
                    )
            with tracer.span("qsm-relax") as span:
                outcome.relaxations = list(self.relaxer.ground_literals(query))
                outcome.relaxations.extend(
                    self.relaxer.relax(query, _literal_seeds(positions))
                )
                if span is not None:
                    span.attrs["suggestions"] = len(outcome.relaxations)
        outcome.qsm_seconds = time.perf_counter() - t0
        return outcome

    def analyze(
        self,
        query: Union[str, Query, QueryBuilder],
        suggest: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[QueryOutcome, QueryTrace]:
        """EXPLAIN ANALYZE through the full serving path: execute the
        query (and the QSM round when ``suggest``) under one tracer and
        return ``(outcome, trace)``."""
        if tracer is None:
            tracer = Tracer(query=query if isinstance(query, str) else "")
        outcome = self.run_query(query, suggest=suggest, tracer=tracer)
        return outcome, tracer.finish()

    def explain(
        self, query: Union[str, Query, QueryBuilder], analyze: bool = False
    ) -> str:
        """EXPLAIN: per-endpoint plan dumps for ``query``, no execution.

        Debugging surface for the planner (``docs/query-planning.md``):
        each registered endpoint reports how its evaluator would run the
        query — operator tree, cardinality estimates, pushed filters
        (every group has a plan).  With more than one endpoint the
        federated plan follows: source-selection verdicts plus the
        remote operator tree the mediator will actually execute
        (``server.run_query`` always goes through the federation).

        With ``analyze=True`` the query is then executed through the
        federation under a tracer and the execution trace (per-operator
        wall time, rows, est→actual) is appended as a final section.
        """
        if isinstance(query, QueryBuilder):
            query = query.build()
        if isinstance(query, str):
            query = parse_query(query)
        if not self.endpoints:
            raise RuntimeError("register at least one endpoint first")
        sections = [
            f"-- endpoint: {endpoint.name}\n{endpoint.explain(query)}"
            for endpoint in self.endpoints
        ]
        if len(self.endpoints) > 1:
            sections.append(f"-- federation\n{self.federation.explain(query)}")
        if analyze:
            from ..eval.reporting import format_trace

            _, trace = self.analyze(query)
            sections.append(f"-- analyze\n{format_trace(trace)}")
        return "\n\n".join(sections)

    def explain_suggestions(self, query: Union[str, Query, QueryBuilder]) -> str:
        """EXPLAIN for the batched QSM probe round, no execution.

        Shows every VALUES-batched probe query one suggestion round
        would ship (one per probed position) and the federated plan for
        it.  Over one member that is ``SingleSource(@member)`` and the
        member's own plan: the probe is one request, answered where the
        data is.  Only over a split federation does it compile to the
        ``RemoteBindJoinNode``/``ValuesScan`` shape — one request per
        endpoint per batch (``docs/predictive-model.md``).
        """
        if isinstance(query, QueryBuilder):
            query = query.build()
        if isinstance(query, str):
            query = parse_query(query)
        if not self.endpoints:
            raise RuntimeError("register at least one endpoint first")
        sections = []
        for label, probe in self.terms_finder.probe_queries(query):
            if probe is None:
                sections.append(f"-- probe: {label}\nnot shipped")
                continue
            sections.append(
                f"-- probe: {label}\n{serialize_query(probe)}\n"
                f"{self.federation.explain(probe)}"
            )
        if not sections:
            sections.append(
                "no batched probes: no candidate terms found in the cache"
            )
        sections.append(f"-- ranking\n{self.cache.ranking_report()}")
        return "\n\n".join(sections)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats()
