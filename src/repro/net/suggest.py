"""Wire format of the HTTP suggestion API (``/complete``, ``/suggest``).

The Predictive User Model travels as JSON documents with a **canonical
byte encoding**: :func:`dump_document` fixes key order and separators,
so the bytes a :class:`~repro.net.wsgi.SparqlWsgiApp` serves for a
completion are identical to the bytes :func:`completion_document` +
:func:`dump_document` produce in-process — the parity gate the
suggestion API is held to (``tests/test_suggestion_api.py``).  The
server writes those bytes with :func:`encode_completion`, which skips
the document and is held to it byte for byte.

Documents deliberately carry no timings: latency is measured by whoever
wants it (the client, ``/stats``), and keeping the payload a pure
function of the suggestion content is what makes byte-identity a
meaningful correctness check.

The ``Remote*`` containers are the client-side view: they mirror the
in-process result surfaces closely enough that code driving a local
:class:`~repro.core.sapphire.SapphireServer` can drive a remote one
through :class:`~repro.net.client.HttpSapphireClient` unchanged —
``surfaces()``, ``message()``, prefetched answers and all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..sparql.results import AskResult, SelectResult
from .formats import FormatError, result_from_document, result_to_document

__all__ = [
    "MIME_JSON_BODY",
    "completion_document",
    "encode_completion",
    "outcome_document",
    "dump_document",
    "parse_completion",
    "parse_outcome",
    "RemoteCompletion",
    "RemoteCompletionResult",
    "RemoteSuggestion",
    "RemoteOutcome",
]

#: Content type of every suggestion-API request and response body.
MIME_JSON_BODY = "application/json"


_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))
#: One JSON string as the canonical encoding writes it (non-ASCII kept).
_string = json.encoder.encode_basestring


def dump_document(document: Dict) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8."""
    return _ENCODER.encode(document).encode("utf-8")


# ----------------------------------------------------------------------
# Server side: result -> document
# ----------------------------------------------------------------------


def completion_document(result) -> Dict:
    """A :class:`~repro.core.qcm.CompletionResult` as a wire document."""
    return {
        "term": result.term,
        "tree_hit": result.tree_hit,
        "completions": [
            {
                "surface": completion.surface,
                "kinds": list(completion.kinds),
                "source": completion.source,
            }
            for completion in result.completions
        ],
    }


def encode_completion(result) -> bytes:
    """``dump_document(completion_document(result))``, written without
    the document: the ``/complete`` body, keys in their sorted order."""
    completions = ",".join([
        '{"kinds":[%s],"source":%s,"surface":%s}' % (
            ",".join(map(_string, completion.kinds)),
            _string(completion.source), _string(completion.surface))
        for completion in result.completions])
    return ('{"completions":[%s],"term":%s,"tree_hit":%s}' % (
        completions, _string(result.term), "true" if result.tree_hit else "false")).encode("utf-8")


def outcome_document(outcome) -> Dict:
    """A :class:`~repro.core.sapphire.QueryOutcome` as a wire document.

    Answers (and each suggestion's prefetched answers) embed as SPARQL
    Results JSON sub-documents — the document half of
    :mod:`~repro.net.formats`, no text round-trip — so both ends reuse
    the protocol's one definition of a term and the suggestion API can
    never disagree with ``/sparql`` about how a row looks.
    """
    return {
        "query": outcome.query_text,
        "answers": result_to_document(outcome.answers),
        "term_suggestions": [
            {
                "kind": suggestion.kind,
                "triple_index": suggestion.triple_index,
                "position": suggestion.position,
                "original": suggestion.original.n3(),
                "replacement": suggestion.replacement.n3(),
                "similarity": suggestion.similarity,
                "query": suggestion.query_text,
                "n_answers": suggestion.n_answers,
                "message": suggestion.message(),
                "answers": (
                    result_to_document(suggestion.prefetched)
                    if suggestion.prefetched is not None else None
                ),
            }
            for suggestion in outcome.term_suggestions
        ],
        "relaxations": [
            {
                "query": relaxation.query_text,
                "n_answers": relaxation.n_answers,
                "terminals": [term.n3() for term in relaxation.terminals],
                "queries_used": relaxation.queries_used,
                "message": relaxation.message(),
                "answers": (
                    result_to_document(relaxation.prefetched)
                    if relaxation.prefetched is not None else None
                ),
            }
            for relaxation in outcome.relaxations
        ],
    }


# ----------------------------------------------------------------------
# Client side: document -> remote containers
# ----------------------------------------------------------------------


class RemoteCompletion(NamedTuple):
    """One completion as seen over the wire (an immutable record)."""

    surface: str
    kinds: Tuple[str, ...]
    source: str  # "tree" | "bins"


@dataclass
class RemoteCompletionResult:
    """Mirror of :class:`~repro.core.qcm.CompletionResult` minus timings."""

    term: str
    tree_hit: bool = False
    completions: List[RemoteCompletion] = field(default_factory=list)

    def surfaces(self) -> List[str]:
        return [completion.surface for completion in self.completions]

    def __len__(self) -> int:
        return len(self.completions)


@dataclass
class RemoteSuggestion:
    """One QSM suggestion (term change or relaxation) over the wire."""

    category: str  # "term" | "relaxation"
    query_text: str
    n_answers: int
    message_text: str
    kind: Optional[str] = None  # term suggestions: "predicate" | "literal"
    similarity: Optional[float] = None
    prefetched: Optional[SelectResult] = None

    def message(self) -> str:
        return self.message_text


@dataclass
class RemoteOutcome:
    """Mirror of :class:`~repro.core.sapphire.QueryOutcome` over the wire."""

    query_text: str
    answers: Union[SelectResult, AskResult]
    term_suggestions: List[RemoteSuggestion] = field(default_factory=list)
    relaxations: List[RemoteSuggestion] = field(default_factory=list)

    @property
    def has_answers(self) -> bool:
        return bool(self.answers)

    @property
    def all_suggestions(self) -> List[RemoteSuggestion]:
        return list(self.term_suggestions) + list(self.relaxations)


def _parse_answers(sub_document) -> Optional[SelectResult]:
    if sub_document is None:
        return None
    result = result_from_document(sub_document)
    if not isinstance(result, SelectResult):
        raise FormatError("suggestion answers must be a SELECT result")
    return result


def parse_completion(payload) -> RemoteCompletionResult:
    """Parse a ``/complete`` response body."""
    try:
        document = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise FormatError(f"completion response is not JSON: {exc}") from exc
    if not isinstance(document, dict) or "completions" not in document:
        raise FormatError("completion response missing 'completions'")
    return RemoteCompletionResult(
        term=str(document.get("term", "")),
        tree_hit=bool(document.get("tree_hit", False)),
        completions=[
            RemoteCompletion(str(item["surface"]), tuple(item.get("kinds", ())),
                             str(item.get("source", "")))
            for item in document["completions"]
        ],
    )


def parse_outcome(payload) -> RemoteOutcome:
    """Parse a ``/suggest`` response body."""
    try:
        document = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise FormatError(f"suggest response is not JSON: {exc}") from exc
    if not isinstance(document, dict) or "answers" not in document:
        raise FormatError("suggest response missing 'answers'")
    outcome = RemoteOutcome(  # an ASK's answer is a boolean document
        query_text=str(document.get("query", "")), answers=result_from_document(document["answers"])
    )
    for item in document.get("term_suggestions", ()):
        outcome.term_suggestions.append(RemoteSuggestion(
            category="term",
            query_text=str(item.get("query", "")),
            n_answers=int(item.get("n_answers", 0)),
            message_text=str(item.get("message", "")),
            kind=item.get("kind"),
            similarity=item.get("similarity"),
            prefetched=_parse_answers(item.get("answers")),
        ))
    for item in document.get("relaxations", ()):
        outcome.relaxations.append(RemoteSuggestion(
            category="relaxation",
            query_text=str(item.get("query", "")),
            n_answers=int(item.get("n_answers", 0)),
            message_text=str(item.get("message", "")),
            prefetched=_parse_answers(item.get("answers")),
        ))
    return outcome
