"""Batched QSM probing through the unified query algebra.

The QSM's alternative-terms search (Section 6.2.1, Algorithm 2) has to
find out, for every candidate replacement term, whether the one-change
query returns answers — and prefetch those answers so accepting a
suggestion displays instantly (Section 4).  Executed naively that is one
full query per candidate, and against network endpoints one (or more)
HTTP round-trips per candidate.

This module batches the round: all candidates for one query position are
shipped as a **single probe query** in which the probed position becomes
a fresh variable constrained by a ``VALUES`` block::

    original:   ?p dbo:wife ?w
    candidates: dbo:spouse, dbo:partner
    probe:      SELECT * WHERE { ?p ?sapphire_probe ?w
                                 VALUES (?sapphire_probe)
                                 { (dbo:spouse) (dbo:partner) } }

The probe compiles through the same parse → algebra → plan pipeline as
every other query.  A federation of one member ships it to that member
whole (the single-source rule of :mod:`repro.federation.fedx`: one
request, the ``VALUES`` table applied where the data is); across a split
federation the VALUES table drives the
:class:`~repro.federation.remote.RemoteBindJoinNode` machinery.  Either
way one suggestion round costs **one VALUES-constrained request per
endpoint per batch** instead of one request per candidate.  The returned rows
are split by the probe variable's binding and each group is finished
through :func:`~repro.sparql.evaluator.finalize_solutions` — the same
modifier tail local and federated execution use — yielding one
:class:`~repro.sparql.results.SelectResult` per candidate, exactly as
if the candidate query had run alone.

Queries with aggregates or GROUP BY cannot be split post-hoc (the
aggregate would mix candidate groups), so :meth:`ProbeBatcher.shipped`
and with it :meth:`ProbeBatcher.run` return ``None`` for them and the caller falls back to per-candidate
execution.  An ASK probes as the SELECT of its WHERE
(:func:`select_form`): a repair is worth suggesting when it has
solutions, and the suggestion shows how many.

Before a batch ships, every candidate whose one-change BGP the data
proves empty (``QueryService.proves_no_match``: a zero-count pattern,
or a subject star no characteristic set holds) is dropped, and a
position with no candidate left sends nothing.  Only the required
patterns of ``where.patterns`` are given to the proof, and never for an
aggregate query, whose COUNT over nothing is still a row.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..rdf.terms import Term, Variable
from ..rdf.triples import TriplePattern
from ..sparql.ast_nodes import Query, ValuesClause
from ..sparql.evaluator import finalize_solutions
from ..sparql.results import SelectResult

__all__ = ["PROBE_VAR", "ProbeBatcher", "ProbeTally", "build_probe_query", "select_form"]

#: The fresh variable a probe query binds to the candidate term.  The
#: name is namespaced so it can never collide with user variables (the
#: Section 4 UI only produces short names).
PROBE_VAR = "sapphire_probe"

#: Executes a query AST somewhere (local store, endpoint, federation).
QueryRunner = Callable[[Query], SelectResult]

#: Whether the data proves a BGP has no solution
#: (``QueryService.proves_no_match``).
NoMatchProof = Callable[[Sequence[TriplePattern]], bool]


@dataclass
class ProbeTally:
    """What the proof spared one round: the ``proven_empty`` and
    ``probes_skipped`` attributes of its ``qsm-terms`` span."""

    proven_empty: int = 0    # candidates dropped before their batch shipped
    probes_skipped: int = 0  # positions left with no candidate: no batch


def select_form(query: Query) -> Query:
    """``query`` if it is a SELECT; an ASK's ``SELECT *`` of its WHERE."""
    return query if query.form == "SELECT" else replace(query, form="SELECT", select_star=True)


def build_probe_query(
    query: Query,
    triple_index: int,
    position: str,
    candidates: Sequence[Term],
) -> Query:
    """One VALUES-batched probe for all ``candidates`` at one position.

    The probed position becomes ``?sapphire_probe``; the candidates form
    an inline VALUES table.  The probe is a ``SELECT *`` whatever the
    query's form, and solution modifiers are stripped — the raw
    solution stream ships once and each candidate group is finished at
    the caller (DISTINCT/ORDER/LIMIT act per candidate, not across the
    batch).  The probe shares everything it does not change with
    ``query`` (only the pattern and VALUES lists are new), as
    ``qsm_terms._replace_term`` does; ``query`` is left untouched.
    """
    where = query.where
    patterns = list(where.patterns)
    patterns[triple_index] = replace(
        patterns[triple_index], **{position: Variable(PROBE_VAR)}
    )
    values = where.values + [
        ValuesClause((PROBE_VAR,), tuple((term,) for term in candidates))
    ]
    return replace(
        query,
        form="SELECT",
        where=replace(where, patterns=patterns, values=values),
        select_items=[],
        select_star=True,
        distinct=False,
        order_by=[],
        limit=None,
        offset=None,
        group_by=[],
    )


class ProbeBatcher:
    """Runs one batched probe per (query, position) and splits the rows.

    ``runner`` is the same callable the QSM modules use (typically
    ``SapphireServer._run_ast``, i.e. the federation) — the batcher adds
    no execution path of its own, only the VALUES packing and the
    per-candidate finish.  ``proves_no_match`` is the proof a candidate
    must not pass to ship (:meth:`shipped`); a backend that sees no data
    proves nothing, so there every candidate ships.
    """

    def __init__(self, runner: QueryRunner, proves_no_match: NoMatchProof) -> None:
        self.runner = runner
        self.proves_no_match = proves_no_match

    def shipped(
        self,
        query: Query,
        triple_index: int,
        position: str,
        candidates: Sequence[Term],
    ) -> Optional[List[Term]]:
        """The candidates a batch ships: those whose one-change BGP (the
        required patterns, candidate substituted) the data does not
        prove empty.  ``None`` for an aggregate query, which is neither
        batched (the aggregate would mix candidate groups) nor proven
        (its COUNT over nothing is still a row)."""
        if query.has_aggregates() or query.group_by:
            return None
        prove = self.proves_no_match
        patterns = list(query.where.patterns)
        probed = patterns[triple_index]
        kept: List[Term] = []
        for candidate in candidates:
            patterns[triple_index] = replace(probed, **{position: candidate})
            if not prove(patterns):
                kept.append(candidate)
        return kept

    def run(
        self,
        query: Query,
        triple_index: int,
        position: str,
        candidates: Sequence[Term],
        tracer=None,
        tally: Optional[ProbeTally] = None,
    ) -> Optional[Dict[Term, SelectResult]]:
        """Per-candidate results for one batched probe.

        Returns ``None`` when the query shape cannot be batched
        (aggregates/GROUP BY) or the probe execution failed — callers
        fall back to per-candidate execution.  Candidates absent from
        the mapping returned no rows, or were proven to have none and
        never shipped (counted into ``tally``).

        ``tracer`` is the calling request's
        :class:`~repro.sparql.trace.Tracer`, if it has one: the probe
        then records a ``qsm-probe-batch`` span with
        position/candidate-count/row-count attributes.  It is an
        argument because handler threads share one batcher.
        """
        if not candidates:
            return {}
        shipped = self.shipped(query, triple_index, position, candidates)
        if shipped is None:
            return None
        if tally is not None:
            tally.proven_empty += len(candidates) - len(shipped)
            tally.probes_skipped += not shipped
        if not shipped:
            return {}
        probe = build_probe_query(query, triple_index, position, shipped)
        traced = nullcontext() if tracer is None else tracer.span(
            "qsm-probe-batch",
            position=position,
            triple=triple_index,
            candidates=len(shipped),
        )
        with traced as span:
            try:
                result = self.runner(probe)
            except Exception:  # noqa: BLE001 — a failing probe loses the batch only
                if span is not None:
                    span.attrs["failed"] = True
                return None
            if span is not None:
                span.attrs["rows"] = len(result.rows)
        grouped: Dict[Term, List[dict]] = {}
        for row in result.rows:
            candidate = row.get(PROBE_VAR)
            if candidate is None:
                continue
            solution = {
                name: value for name, value in row.items() if name != PROBE_VAR
            }
            grouped.setdefault(candidate, []).append(solution)
        finished: Dict[Term, SelectResult] = {}
        selecting = select_form(query)
        for candidate in shipped:
            solutions = grouped.get(candidate)
            if not solutions:
                continue
            finished[candidate] = finalize_solutions(selecting, solutions)
        return finished

    def probe_queries(
        self,
        query: Query,
        positions: Sequence[Tuple[int, str, Sequence[Term]]],
    ) -> List[Tuple[str, Optional[Query]]]:
        """The probe queries one suggestion round would ship, labelled
        with how many candidates the proof dropped — the EXPLAIN surface
        for batched probing.  A position left with no candidate is
        listed with ``None``: it ships nothing."""
        labelled: List[Tuple[str, Optional[Query]]] = []
        for triple_index, position, candidates in positions:
            if not candidates:
                continue
            shipped = self.shipped(query, triple_index, position, candidates)
            if shipped is None:  # an aggregate: listed with every candidate
                shipped = list(candidates)
            labelled.append((
                f"triple {triple_index + 1} {position} "
                f"({len(candidates) - len(shipped)} of {len(candidates)} "
                "candidates proven empty)",
                build_probe_query(query, triple_index, position, shipped)
                if shipped else None,
            ))
        return labelled
