"""Interactive query-composition session (the Section 4 workflow).

``SapphireSession`` models one user's sitting at the Figure 2 UI:

* triple patterns accumulate in the composer (one call per row of text
  boxes), with validation and QCM-backed term entry,
* **Run** executes the composed query and gathers QSM suggestions,
* a suggestion can be **accepted** by index — the session swaps in the
  suggested query and, because the QSM prefetched its answers, the new
  answers display without re-execution ("almost-instantaneously",
  Section 4),
* the latest answers are available as a Figure 4 :class:`AnswerTable`,
* every executed query is kept in the session history.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Union

from ..rdf.terms import Literal, Term
from .answer_table import AnswerTable
from .qsm_relax import RelaxationSuggestion
from .qsm_terms import TermSuggestion
from .sapphire import QueryBuilder, QueryOutcome, SapphireServer

__all__ = ["SapphireSession", "HistoryEntry"]


@dataclass
class HistoryEntry:
    """One Run click and what it produced."""

    query_text: str
    n_answers: int
    n_suggestions: int
    accepted_suggestion: Optional[str] = None  # message of the accepted one


class SapphireSession:
    """One user's interactive session against a Sapphire server.

    Composer state, the latest outcome, and the history are guarded by
    an RLock: the HTTP suggestion API can drive one session from many
    handler threads (per-keystroke ``/complete`` races a ``/suggest``),
    and an interleaved ``run``/``accept`` must never record a history
    entry against somebody else's outcome.
    """

    def __init__(self, server: SapphireServer) -> None:
        self.server = server
        self._lock = threading.RLock()
        self._builder = QueryBuilder()
        self._outcome: Optional[QueryOutcome] = None
        self.history: List[HistoryEntry] = []
        #: Recently used surfaces (query literals, accepted replacements)
        #: — fed to the QCM as session boosts for the ranking re-sort.
        self._recent: deque = deque(maxlen=32)

    # ------------------------------------------------------------------
    # Composition (the text boxes)
    # ------------------------------------------------------------------

    def complete(self, text: str):
        """QCM suggestions for a partially typed box (invoked per
        keystroke by the UI; here, on demand).  Surfaces this session
        recently queried or accepted rank first among equals."""
        with self._lock:
            recent = list(self._recent)
        return self.server.complete(text, boost_surfaces=recent)

    def _note_recent(self, surfaces) -> None:
        for surface in surfaces:
            if not surface:
                continue
            with self._lock:
                self._recent.append(surface)
            # Usage events feed the server-wide frequency ranking too.
            self.server.cache.note_used(surface)

    def triple(self, subject: Term, predicate: Term, obj: Term) -> "SapphireSession":
        """Add one triple-pattern row to the composer."""
        with self._lock:
            self._builder.triple(subject, predicate, obj)
        return self

    def count(self, variable: str, alias: str = "count") -> "SapphireSession":
        self._builder.count(variable, alias)
        return self

    def compare(self, variable: str, op: str, value) -> "SapphireSession":
        self._builder.compare(variable, op, value)
        return self

    def order_by(self, variable: str, descending: bool = False) -> "SapphireSession":
        self._builder.order_by(variable, descending)
        return self

    def limit(self, n: int) -> "SapphireSession":
        self._builder.limit(n)
        return self

    def clear(self) -> "SapphireSession":
        """Empty the composer (history is kept)."""
        with self._lock:
            self._builder = QueryBuilder()
            self._outcome = None
        return self

    # ------------------------------------------------------------------
    # Run + suggestions
    # ------------------------------------------------------------------

    def run(self, suggest: bool = True) -> QueryOutcome:
        """Click Run: execute the composed query, gather QSM suggestions."""
        with self._lock:
            builder = self._builder
        outcome = self.server.run_query(builder, suggest=suggest)
        self._note_recent(
            term.lexical
            for pattern in outcome.query.where.patterns
            for term in pattern.as_tuple()
            if isinstance(term, Literal)
        )
        with self._lock:
            self._outcome = outcome
            self.history.append(HistoryEntry(
                query_text=outcome.query_text,
                n_answers=len(outcome.answers),
                n_suggestions=len(outcome.all_suggestions),
            ))
        return outcome

    @property
    def outcome(self) -> QueryOutcome:
        with self._lock:
            if self._outcome is None:
                raise RuntimeError("run() the composed query first")
            return self._outcome

    def suggestions(self) -> List[Union[TermSuggestion, RelaxationSuggestion]]:
        """The QSM's suggestions for the last executed query."""
        return self.outcome.all_suggestions

    def suggestion_messages(self) -> List[str]:
        """The user-facing one-liners, in display order."""
        return [suggestion.message() for suggestion in self.suggestions()]

    def accept(self, index: int) -> QueryOutcome:
        """Accept suggestion ``index``: the suggested query replaces the
        current one and its *prefetched* answers display immediately —
        no re-execution (Section 4)."""
        with self._lock:
            suggestions = self.suggestions()
            if not 0 <= index < len(suggestions):
                raise IndexError(f"suggestion {index} out of range")
            chosen = suggestions[index]
        prefetched = chosen.prefetched
        if prefetched is None:  # defensive: execute if not prefetched
            prefetched = self.server.run_query(chosen.query, suggest=False).answers
        if isinstance(chosen, TermSuggestion) and isinstance(chosen.replacement, Literal):
            self._note_recent([chosen.replacement.lexical])
        new_outcome = QueryOutcome(
            query=chosen.query,
            query_text=chosen.query_text,
            answers=prefetched,
        )
        with self._lock:
            self._outcome = new_outcome
            self.history.append(HistoryEntry(
                query_text=chosen.query_text,
                n_answers=len(prefetched),
                n_suggestions=0,
                accepted_suggestion=chosen.message(),
            ))
        return new_outcome

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------

    def table(self) -> AnswerTable:
        """The Figure 4 answer table over the latest answers."""
        return AnswerTable(self.outcome.answers)

    @property
    def attempts(self) -> int:
        """Run clicks so far (the Figure 10 'attempts' quantity)."""
        return len(self.history)
