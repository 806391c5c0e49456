"""Term dictionary: dense integer IDs for RDF terms.

Dictionary encoding is the standard first step in scalable RDF stores
(RDF-3X, Virtuoso, HDT all do it): every distinct term is *interned* to a
small integer once, and all index structures, joins and comparisons then
operate on integers.  Hashing an ``int`` is a single machine word; hashing
a :class:`~repro.rdf.terms.Literal` walks its lexical form, language tag
and datatype IRI on every probe.  The interactive loop (QCM completions,
QSM relaxation, initialization crawls) issues millions of such probes, so
the encoding pays for itself immediately.

IDs are dense (``0 .. len-1``) and stable for the lifetime of the
dictionary: terms are never evicted.  Density lets
:meth:`TermDictionary.decode` be a plain list index and lets persistent
backends store the dictionary as a table keyed by the same IDs.

Beside each term the dictionary keeps two attributes, in arrays indexed
by the same IDs, that the literal FILTERs of Section 5's crawl read
without decoding a term (``sparql.plan._ColumnFilter``): the *language
code* — :data:`NOT_A_LITERAL`, :data:`NO_TAG` for a literal without a
language tag, else an index into :attr:`TermDictionary.languages` — and
the *string length*, ``len(STR(term))`` in code points (an IRI's text,
a literal's lexical form), :data:`NO_STRING` for a blank node.  Both
are set wherever an ID is minted, :meth:`~TermDictionary.encode` and
:meth:`~TermDictionary.restore`, so a store opened from a file derives
them as it loads its terms.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional

from ..rdf.terms import IRI, Literal, Term

__all__ = ["NO_ID", "NOT_A_LITERAL", "NO_STRING", "NO_TAG", "TermDictionary"]

#: Sentinel returned by :meth:`TermDictionary.lookup` for unknown terms.
#: It is a valid "concrete but unmatchable" ID: no stored triple ever
#: contains it, so probes built from unknown terms fall through naturally.
NO_ID = -1

#: Language codes: an IRI or a blank node, and a literal without a tag.
NOT_A_LITERAL = 0
NO_TAG = 1
#: The string length of a term ``STR`` is not defined on (a blank node).
NO_STRING = -1


class TermDictionary:
    """Bidirectional mapping between RDF terms and dense integer IDs."""

    __slots__ = ("_ids", "terms", "_on_intern", "lang_codes", "lengths", "languages",
                 "_lang_code")

    def __init__(
        self, on_intern: Optional[Callable[[int, Term], None]] = None
    ) -> None:
        self._ids: Dict[Term, int] = {}
        #: The decode table: ``terms[id]`` is the term for ``id``.  Public
        #: so hot loops can index it directly instead of calling
        #: :meth:`decode` per row; treat it as read-only.
        self.terms: List[Term] = []
        #: Persistence hook: called exactly once per newly interned term
        #: (the SQLite backend uses it to mirror the dictionary to disk).
        self._on_intern = on_intern
        #: Per ID: its language code and its string length (see the
        #: module docstring); read-only, like :attr:`terms`.
        self.lang_codes = array("i")
        self.lengths = array("i")
        #: Language code -> tag, and back.
        self.languages: List[Optional[str]] = [None, ""]
        self._lang_code: Dict[str, int] = {"": NO_TAG}

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def encode(self, term: Term) -> int:
        """Intern ``term``, minting a fresh ID on first sight."""
        term_id = self._ids.get(term)
        if term_id is not None:
            return term_id
        term_id = len(self.terms)
        self._ids[term] = term_id
        self.terms.append(term)
        self._add_attributes(term)
        if self._on_intern is not None:
            self._on_intern(term_id, term)
        return term_id

    def _add_attributes(self, term: Term) -> None:
        if isinstance(term, Literal):
            tag = term.lang or ""
            code = self._lang_code.get(tag)
            if code is None:
                code = self._lang_code[tag] = len(self.languages)
                self.languages.append(tag)
            self.lang_codes.append(code)
            self.lengths.append(len(term.lexical))
        else:
            self.lang_codes.append(NOT_A_LITERAL)
            self.lengths.append(len(term.value) if isinstance(term, IRI) else NO_STRING)

    def lookup(self, term: Term) -> int:
        """ID of ``term`` without interning; :data:`NO_ID` when absent."""
        return self._ids.get(term, NO_ID)

    def decode(self, term_id: int) -> Term:
        """The term for a previously minted ID (plain list index)."""
        return self.terms[term_id]

    def restore(self, term_id: int, term: Term) -> None:
        """Re-insert a term under a known ID (backend load path).

        IDs must arrive in increasing dense order; used when a persistent
        backend replays its terms table into a fresh dictionary.
        """
        if term_id != len(self.terms):
            raise ValueError(
                f"non-dense restore: expected id {len(self.terms)}, got {term_id}"
            )
        self._ids[term] = term_id
        self.terms.append(term)
        self._add_attributes(term)
