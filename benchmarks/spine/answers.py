"""Canonical answers: one form for what came over HTTP and what a direct
call returned, so the two can be compared and digested.

* ``/complete`` — the completion surfaces, in order;
* ``/sparql``   — the row multiset (rows sorted, each a sorted
  ``(variable, n3)`` list);
* ``/suggest``  — the row multiset plus the suggestion *set*
  (``[category, suggested query, n_answers]``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

from repro.sparql.parser import parse_query

Request = Dict[str, object]


def _rows(result) -> List[List[List[str]]]:
    return sorted(
        sorted([name, term.n3()] for name, term in row.items() if term is not None)
        for row in result.rows
    )


def _suggestions(outcome, term_category) -> List[List[object]]:
    found = [[term_category(s), s.query_text, s.n_answers] for s in outcome.term_suggestions]
    found += [["relaxation", s.query_text, s.n_answers] for s in outcome.relaxations]
    return sorted(found)


def canonical_http(request: Request, response) -> object:
    """Canonical form of a parsed client-side response."""
    kind = request["kind"]
    if kind == "complete":
        return response.surfaces()
    if kind == "sparql":
        return _rows(response)
    return {"rows": _rows(response.answers),
            "suggestions": _suggestions(response, lambda s: s.category)}


def answer_in_process(sapphire, request: Request) -> object:
    """Canonical answer from direct calls on a SapphireServer — the
    reference every HTTP response is held to."""
    kind = request["kind"]
    if kind == "complete":
        return sapphire.complete(str(request["text"]), int(request["k"])).surfaces()  # type: ignore[arg-type]
    if kind == "sparql":
        return _rows(sapphire.federation.run(parse_query(str(request["query"]))))
    outcome = sapphire.run_query(str(request["query"]), suggest=kind == "suggest_fix")
    return {"rows": _rows(outcome.answers),
            "suggestions": _suggestions(outcome, lambda s: "term")}


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_all(digests: Sequence[str]) -> str:
    """One digest over a request list's answer digests (request order)."""
    return digest(list(digests))
