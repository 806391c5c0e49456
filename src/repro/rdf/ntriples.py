"""A small N-Triples reader/writer.

Supports the line-oriented N-Triples syntax plus language tags and
datatypes — enough to persist and reload the synthetic datasets, and to
round-trip caches to disk.  Comments (``# ...``) and blank lines are
ignored.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List

from .terms import IRI, BlankNode, Literal, Term
from .triples import Triple

__all__ = ["parse_ntriples", "serialize_ntriples", "unescape", "NTriplesError"]


class NTriplesError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement."""


#: An escape: ``\uXXXX``, ``\UXXXXXXXX``, or a backslash and one character.
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)
_ESCAPED = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescaped(match: "re.Match[str]") -> str:
    short, long, char = match.groups()
    return chr(int(short or long, 16)) if char is None else _ESCAPED.get(char, match.group(0))


def unescape(text: str) -> str:
    """``text`` with its N-Triples escapes (ECHAR and UCHAR) undone; an
    unknown escape is kept as written."""
    return _ESCAPE.sub(_unescaped, text) if "\\" in text else text


class _LineParser:
    """Cursor-based parser for a single N-Triples line."""

    def __init__(self, line: str) -> None:
        self.line = line
        self.pos = 0

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(f"{message} at column {self.pos}: {self.line!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def expect(self, ch: str) -> None:
        if self.at_end() or self.line[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_iri(self) -> IRI:
        self.expect("<")
        end = self.line.find(">", self.pos)
        if end == -1:
            raise self.error("unterminated IRI")
        value = self.line[self.pos:end]
        self.pos = end + 1
        return IRI(value)

    def parse_blank(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.line) and (
            self.line[self.pos].isalnum() or self.line[self.pos] in "-_"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("empty blank node label")
        return BlankNode(self.line[start:self.pos])

    def parse_literal(self) -> Literal:
        self.expect('"')
        out: List[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated literal")
            ch = self.line[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.line):
                    raise self.error("dangling escape")
                out.append(self.line[self.pos:self.pos + 2])
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                break
            out.append(ch)
            self.pos += 1
        lexical = unescape("".join(out))
        if not self.at_end() and self.line[self.pos] == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.line) and (
                self.line[self.pos].isalnum() or self.line[self.pos] == "-"
            ):
                self.pos += 1
            if self.pos == start:
                raise self.error("empty language tag")
            return Literal(lexical, lang=self.line[start:self.pos])
        if self.line.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.parse_iri()
            return Literal(lexical, datatype=datatype)
        return Literal(lexical)

    def parse_term(self, *, subject_position: bool = False) -> Term:
        self.skip_ws()
        if self.at_end():
            raise self.error("unexpected end of line")
        ch = self.line[self.pos]
        if ch == "<":
            return self.parse_iri()
        if ch == "_":
            return self.parse_blank()
        if ch == '"':
            if subject_position:
                raise self.error("literal not allowed as subject")
            return self.parse_literal()
        raise self.error(f"unexpected character {ch!r}")


def parse_ntriples(text: str) -> Iterator[Triple]:
    """Yield triples from N-Triples ``text``, skipping comments/blank lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parser = _LineParser(line)
        try:
            subject = parser.parse_term(subject_position=True)
            predicate = parser.parse_term()
            if not isinstance(predicate, IRI):
                raise parser.error("predicate must be an IRI")
            obj = parser.parse_term()
            parser.skip_ws()
            parser.expect(".")
        except NTriplesError as exc:
            raise NTriplesError(f"line {line_no}: {exc}") from None
        yield Triple(subject, predicate, obj)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize ``triples`` to N-Triples text (one statement per line)."""
    return "\n".join(triple.n3() for triple in triples) + "\n"
