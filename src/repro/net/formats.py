"""SPARQL 1.1 Query Results serialization and parsing.

The wire formats spoken by the HTTP subsystem:

* **SPARQL Results JSON** (https://www.w3.org/TR/sparql11-results-json/)
  — writer *and* parser; the server's default and ``/suggest``'s body.
* **SPARQL Results XML** (https://www.w3.org/TR/rdf-sparql-XMLres/) — writer.
* **CSV/TSV** (https://www.w3.org/TR/sparql11-results-csv-tsv/) — CSV a
  writer of plain lexical values (lossy by design); TSV, one term per
  cell, a writer *and* parser, the format the bundled client asks for first.

All writers take the library's :class:`~repro.sparql.results.SelectResult`
or :class:`~repro.sparql.results.AskResult` containers and return text;
:func:`parse_json` / :func:`parse_tsv` are the exact inverses of
:func:`write_json` / :func:`write_tsv`, so a result round-trips the
network losslessly (datatypes, language tags, and blank node labels
included).  Each pays for a term once — a memo under the writer, an
interning reader; ``docs/server.md``, *The result path* — and the JSON
pair sits on a document half (:func:`result_to_document` /
:func:`result_from_document`) that ``/suggest`` embeds directly.

:func:`negotiate` implements the Accept-header content negotiation the
server uses, with q-values and the usual ``*/*`` wildcards.
"""

from __future__ import annotations

import csv
import io
import json
import re
import threading
from typing import Callable, Dict, List, Optional, Tuple, Union
from xml.sax.saxutils import escape, quoteattr

from ..rdf.ntriples import unescape
from ..rdf.terms import IRI, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, BlankNode, Literal, Term
from ..rdf.triples import Binding
from ..sparql.results import AskResult, SelectResult

__all__ = [
    "MIME_JSON",
    "MIME_XML",
    "MIME_CSV",
    "MIME_TSV",
    "RESULT_WRITERS",
    "FormatError",
    "NotAcceptable",
    "term_to_json",
    "term_from_json",
    "result_to_document",
    "result_from_document",
    "write_json",
    "parse_json",
    "write_xml",
    "write_csv",
    "write_tsv",
    "parse_tsv",
    "negotiate",
]

MIME_JSON = "application/sparql-results+json"
MIME_XML = "application/sparql-results+xml"
MIME_CSV = "text/csv"
MIME_TSV = "text/tab-separated-values"

Result = Union[SelectResult, AskResult]


class FormatError(ValueError):
    """A response document does not conform to the results format."""


class NotAcceptable(ValueError):
    """No offered result format satisfies the Accept header."""


# ----------------------------------------------------------------------
# JSON (writer + parser)
# ----------------------------------------------------------------------
#
# Two halves.  The *document* half maps a result to and from the plain
# ``dict`` a JSON library would produce (``/suggest`` embeds those in its
# own documents); the *text* half, ``write_json`` / ``parse_json``, is
# the wire.  A result set repeats few distinct terms, across queries as
# much as within one, so both directions pay for a term once: the writer
# joins memoised per-term JSON fragments, the reader interns decoded
# terms.  Either table is a pure function of its key (``term_to_json``
# of an immutable term; the four fields of a binding object), so neither
# needs invalidation — only a bound.


#: Entries a term table holds before it is dropped whole.  Sized by
#: memory, not by a workload: a fragment entry is ~160 bytes and a reader
#: entry ~350, so a full table is under 3 MB and under 6 MB.
_MEMO_BOUND = 1 << 14


class _Memo(dict):
    """``key -> build(key)``, bounded: dropped whole when full.

    A hit is a plain C-level ``dict`` subscript; only a miss reaches
    Python, and only there is ``builds`` counted (under a lock — a
    counter is read-modify-write).  Dropping the table under a
    concurrent reader is safe because a value is a pure function of its
    key: the reader finds the entry or rebuilds an equal one.
    """

    def __init__(self, build: Callable, bound: int = _MEMO_BOUND) -> None:
        super().__init__()
        self.build = build
        self.bound = bound
        self.builds = 0
        self._lock = threading.Lock()

    def __missing__(self, key):
        value = self.build(key)
        with self._lock:
            if len(self) >= self.bound:
                self.clear()
            self[key] = value
            self.builds += 1
        return value


def term_to_json(term: Term) -> Dict[str, str]:
    """One RDF term as a SPARQL-Results-JSON binding object."""
    if isinstance(term, IRI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    if isinstance(term, Literal):
        obj: Dict[str, str] = {"type": "literal", "value": term.lexical}
        if term.lang:
            obj["xml:lang"] = term.lang
        elif term.datatype is not None:
            obj["datatype"] = term.datatype.value
        return obj
    raise FormatError(f"cannot serialize non-ground term {term!r}")


def _decode_term(key: Tuple[object, object, object, object]) -> Term:
    """A term from a binding object's ``(type, value, xml:lang,
    datatype)``; absent members are ``None``."""
    kind, value, lang, datatype = key
    if not isinstance(value, str):
        raise FormatError(f"binding object lacks a string value: {key!r}")
    for tag in (lang, datatype):
        if tag is not None and not isinstance(tag, str):
            raise FormatError(f"xml:lang / datatype must be strings: {key!r}")
    if kind == "uri":
        return IRI(value)
    if kind == "bnode":
        return BlankNode(value)
    if kind in ("literal", "typed-literal"):
        if lang:
            return Literal(value, lang=lang)
        if datatype:
            # One IRI object per datatype, not one per typed literal.
            return Literal(value, datatype=_TERMS[("uri", datatype, None, None)])
        return Literal(value)
    raise FormatError(f"unknown term type {kind!r}")


#: ``term -> json.dumps(term_to_json(term))``.  An entry is the fragment
#: (~50 bytes of syntax plus the term's text) and a dict slot; the term
#: itself is the store dictionary's.
_FRAGMENTS = _Memo(lambda term: json.dumps(term_to_json(term)))
#: ``(type, value, xml:lang, datatype) -> term``, spelled as on the wire:
#: ``typed-literal`` / ``literal`` and ``"xml:lang": ""`` / absent are
#: distinct keys whose terms compare equal.
_TERMS = _Memo(_decode_term)


def memo_stats() -> Dict[str, int]:
    """The ``formats`` block of ``/stats``: the writer memos' (JSON and
    TSV) entries and builds, summed (flat on a repeated query)."""
    return {"fragment_entries": len(_FRAGMENTS) + len(_TSV_CELLS),
            "fragment_builds": _FRAGMENTS.builds + _TSV_CELLS.builds}


def term_from_json(obj: Dict[str, str]) -> Term:
    """Inverse of :func:`term_to_json` (also accepts the legacy
    ``typed-literal`` type emitted by older Virtuoso builds)."""
    try:
        return _TERMS[(obj.get("type"), obj.get("value"),
                       obj.get("xml:lang"), obj.get("datatype"))]
    except (TypeError, AttributeError) as exc:
        raise FormatError(f"malformed binding object {obj!r}") from exc


def result_to_document(result: Result) -> Dict[str, object]:
    """A result as the SPARQL Results JSON document, unencoded."""
    if isinstance(result, AskResult):
        return {"head": {}, "boolean": bool(result.value)}
    bindings = [
        {name: term_to_json(term) for name, term in row.items() if term is not None}
        for row in result.rows
    ]
    return {"head": {"vars": list(result.variables)},
            "results": {"bindings": bindings}}


def result_from_document(document: object) -> Result:
    """Inverse of :func:`result_to_document`; terms are interned."""
    if not isinstance(document, dict):
        raise FormatError("results document must be a JSON object")
    if "boolean" in document:
        value = document["boolean"]
        if not isinstance(value, bool):
            raise FormatError(f"ASK boolean must be true/false, got {value!r}")
        return AskResult(value)
    try:
        variables = document["head"]["vars"]
        raw_bindings = document["results"]["bindings"]
    except (TypeError, KeyError) as exc:
        raise FormatError("document lacks head.vars / results.bindings") from exc
    if not isinstance(variables, list) or not all(
            isinstance(name, str) for name in variables):
        raise FormatError(f"head.vars must be a list of names, got {variables!r}")
    if not isinstance(raw_bindings, list):
        raise FormatError(f"results.bindings must be a list, got {raw_bindings!r}")
    terms = _TERMS
    try:
        rows: List[Binding] = [
            {name: terms[(obj.get("type"), obj.get("value"),
                          obj.get("xml:lang"), obj.get("datatype"))]
             for name, obj in raw.items()}
            for raw in raw_bindings
        ]
    except (TypeError, AttributeError) as exc:
        # A binding or binding object that is not a JSON object, or a
        # member that cannot be a dict key (a list, an object).
        raise FormatError(f"malformed binding: {exc}") from exc
    return SelectResult(variables=variables, rows=rows)


def _encode_key(name: str) -> str:
    return json.dumps(name) + ": "


def write_json(result: Result) -> str:
    """Serialize a result as SPARQL Results JSON.

    Byte for byte ``json.dumps(result_to_document(result))``, built by
    joining memoised per-term fragments instead of walking a document.
    """
    if isinstance(result, AskResult):
        return json.dumps(result_to_document(result))
    fragments = _FRAGMENTS
    keys = _Memo(_encode_key)  # this document's variable names
    rows = [
        "{" + ", ".join([keys[name] + fragments[term]
                         for name, term in row.items() if term is not None]) + "}"
        for row in result.rows
    ]
    return '{"head": {"vars": %s}, "results": {"bindings": [%s]}}' % (
        json.dumps(list(result.variables)), ", ".join(rows))


def parse_json(text: Union[str, bytes]) -> Result:
    """Parse a SPARQL Results JSON document into a result container."""
    try:
        document = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"response is not JSON: {exc}") from exc
    return result_from_document(document)


# ----------------------------------------------------------------------
# XML (writer)
# ----------------------------------------------------------------------

def _term_to_xml(name: str, term: Term) -> str:
    if isinstance(term, IRI):
        inner = f"<uri>{escape(term.value)}</uri>"
    elif isinstance(term, BlankNode):
        inner = f"<bnode>{escape(term.label)}</bnode>"
    elif isinstance(term, Literal):
        if term.lang:
            attr = f" xml:lang={quoteattr(term.lang)}"
        elif term.datatype is not None:
            attr = f" datatype={quoteattr(term.datatype.value)}"
        else:
            attr = ""
        inner = f"<literal{attr}>{escape(term.lexical)}</literal>"
    else:
        raise FormatError(f"cannot serialize non-ground term {term!r}")
    return f"<binding name={quoteattr(name)}>{inner}</binding>"


def write_xml(result: Result) -> str:
    """Serialize a result as SPARQL Results XML."""
    lines = [
        '<?xml version="1.0"?>',
        '<sparql xmlns="http://www.w3.org/2005/sparql-results#">',
    ]
    if isinstance(result, AskResult):
        lines.append("  <head></head>")
        lines.append(f"  <boolean>{'true' if result.value else 'false'}</boolean>")
    else:
        lines.append("  <head>")
        for name in result.variables:
            lines.append(f"    <variable name={quoteattr(name)}/>")
        lines.append("  </head>")
        lines.append("  <results>")
        for row in result.rows:
            cells = "".join(
                _term_to_xml(name, term)
                for name, term in row.items() if term is not None
            )
            lines.append(f"    <result>{cells}</result>")
        lines.append("  </results>")
    lines.append("</sparql>")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CSV (writer), TSV (writer + parser)
# ----------------------------------------------------------------------

def _csv_value(term: Optional[Term]) -> str:
    """Plain lexical value per the CSV results spec (lossy)."""
    if term is None:
        return ""
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        return term.lexical
    raise FormatError(f"cannot serialize non-ground term {term!r}")


def write_csv(result: Result) -> str:
    """Serialize as SPARQL Results CSV (RFC 4180 quoting, CRLF rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    if isinstance(result, AskResult):
        writer.writerow(["boolean"])
        writer.writerow(["true" if result.value else "false"])
        return buffer.getvalue()
    writer.writerow(result.variables)
    for row in result.rows:
        writer.writerow([_csv_value(row.get(name)) for name in result.variables])
    return buffer.getvalue()


#: A cell's escapes, the separators ``n3()`` leaves raw among them: ECHARs
#: in a lexical form, UCHARs (IRIREF's one escape) in an IRI, label or tag.
_ECHARS = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_UCHARS = str.maketrans({char: "\\u%04X" % ord(char) for char in "\t\n\r\\<>"})


def _tsv_cell(term: Term) -> str:
    """A term's TSV cell: its N-Triples form, keeping the explicit
    ``xsd:string`` that ``n3()`` drops (or the cell would not read back
    as the same term).  Ordinary terms spell exactly as ``n3()``."""
    if isinstance(term, IRI):
        return f"<{term.value.translate(_UCHARS)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label.translate(_UCHARS)}"
    text = f'"{term.lexical.translate(_ECHARS)}"'
    if term.lang:
        return f"{text}@{term.lang.translate(_UCHARS)}"
    if term.datatype is not None:
        return f"{text}^^<{term.datatype.value.translate(_UCHARS)}>"
    return text


#: A term in SPARQL/Turtle syntax, the whole cell (the TSV format's section
#: 4): an IRI; a blank node (the rest of the cell is its label); a literal
#: in double or single quotes, N-Triples escapes, an optional language tag
#: or datatype IRI; or a number or boolean in Turtle's short form.
_CELL = re.compile(
    r"<([^<>]*)>|_:(.+)"
    r"""|(["'])((?:(?!\3)[^\\]|\\[tbnrf"'\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*)\3"""
    r"(?:@(.+)|\^\^<([^<>]*)>)?"
    r"|([+-]?(?:[0-9]+\.[0-9]*[eE][+-]?[0-9]+|\.?[0-9]+[eE][+-]?[0-9]+|[0-9]*\.[0-9]+|[0-9]+))"
    r"|(true|false)", re.DOTALL)


def _decode_cell(cell: str) -> Term:
    """The term a TSV cell spells; :class:`FormatError` if it spells none."""
    match = _CELL.fullmatch(cell)
    if match is None:
        raise FormatError(f"TSV cell is not an RDF term: {cell!r}")
    iri, label, _, lexical, lang, datatype, number, boolean = match.groups()
    if number is not None:  # Turtle's INTEGER, DECIMAL or DOUBLE: the token is the lexical form
        kind = XSD_DOUBLE if "e" in number.lower() else XSD_DECIMAL if "." in number else XSD_INTEGER
        return Literal(number, datatype=kind)
    if boolean is not None:
        return Literal(boolean, datatype=XSD_BOOLEAN)
    try:
        if iri is not None:
            return IRI(unescape(iri))
        if label is not None:
            return BlankNode(unescape(label))
        lexical = unescape(lexical)
        if datatype is not None:  # one IRI object per datatype, not per literal
            return Literal(lexical, datatype=_TERM_CELLS[f"<{datatype}>"])
        return Literal(lexical, lang=lang and unescape(lang))
    except ValueError as exc:  # a \U escape past U+10FFFF
        raise FormatError(f"bad escape in TSV cell {cell!r}: {exc}") from None


#: ``term -> _tsv_cell(term)``, the TSV writer's table (as ``_FRAGMENTS``).
_TSV_CELLS = _Memo(_tsv_cell)
#: ``cell -> term``, the TSV reader's table (as ``_TERMS``).
_TERM_CELLS = _Memo(_decode_cell)


def write_tsv(result: Result) -> str:
    """Serialize as SPARQL Results TSV, each cell from ``_TSV_CELLS``."""
    if isinstance(result, AskResult):
        return "?boolean\n%s\n" % ("true" if result.value else "false")
    names, cells = result.variables, _TSV_CELLS
    lines = ["\t".join([f"?{name}" for name in names])]
    lines += ["\t".join(["" if (term := row.get(name)) is None else cells[term] for name in names])
              for row in result.rows]
    return "\n".join(lines) + "\n"


def parse_tsv(text: Union[str, bytes]) -> Result:
    """Parse SPARQL Results TSV (``_CELL``: any server's cells) into a
    result container, the exact inverse of :func:`write_tsv`.  An empty
    cell is unbound; ``?boolean`` over ``true`` / ``false`` is an ASK
    (this writer's: the format defines none)."""
    try:
        lines = (text.decode("utf-8") if isinstance(text, bytes) else text).split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"response is not UTF-8: {exc}") from exc
    if len(lines) < 2 or lines.pop():
        raise FormatError("TSV results must be a header and rows, each ending in a line break")
    header, body = lines[0], lines[1:]
    if header == "?boolean" and body in (["true"], ["false"]):
        return AskResult(body == ["true"])
    names = header.split("\t") if header else []
    if not all(len(name) > 1 and name[0] == "?" for name in names):
        raise FormatError(f"TSV header is not a tab-separated list of ?names: {header!r}")
    variables = [name[1:] for name in names]
    if not variables:
        if any(body):
            raise FormatError("a TSV row has cells where the header has no variables")
        return SelectResult(variables=[], rows=[{} for _ in body])
    terms, width = _TERM_CELLS, len(variables)
    rows: List[Binding] = []
    for line in body:
        cells = line.split("\t")
        if len(cells) != width:
            raise FormatError(f"TSV row has {len(cells)} cells for {width} variables: {line!r}")
        rows.append({name: terms[cell] for name, cell in zip(variables, cells) if cell})
    return SelectResult(variables=variables, rows=rows)


RESULT_WRITERS: Dict[str, Callable[[Result], str]] = {
    MIME_JSON: write_json,
    MIME_XML: write_xml,
    MIME_CSV: write_csv,
    MIME_TSV: write_tsv,
}

#: Accept-header media types mapped onto the canonical result type.
_MEDIA_ALIASES: Dict[str, str] = {
    MIME_JSON: MIME_JSON,
    "application/json": MIME_JSON,
    MIME_XML: MIME_XML,
    "application/xml": MIME_XML,
    "text/xml": MIME_XML,
    MIME_CSV: MIME_CSV,
    MIME_TSV: MIME_TSV,
}


def _parse_accept(header: str) -> List[Tuple[str, float]]:
    """``Accept`` entries as (media-range, q) pairs, most-preferred first."""
    entries: List[Tuple[float, int, str]] = []
    for index, part in enumerate(header.split(",")):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(";")
        media = pieces[0].strip().lower()
        q = 1.0
        for param in pieces[1:]:
            param = param.strip()
            if param.startswith("q="):
                try:
                    q = float(param[2:])
                except ValueError:
                    q = 0.0
        entries.append((q, index, media))
    # Highest q wins; ties break on header order.
    entries.sort(key=lambda e: (-e[0], e[1]))
    return [(media, q) for q, _, media in entries]


def negotiate(accept: Optional[str]) -> Tuple[str, Callable[[Result], str]]:
    """Pick the result format for an ``Accept`` header value.

    Returns ``(mime_type, writer)``.  A missing/empty header and full
    wildcards resolve to SPARQL Results JSON; an Accept header that rules
    out every supported format raises :class:`NotAcceptable`.
    """
    if not accept or not accept.strip():
        return MIME_JSON, write_json
    for media, q in _parse_accept(accept):
        if q <= 0:
            continue
        if media in ("*/*", "application/*"):
            return MIME_JSON, write_json
        if media == "text/*":
            return MIME_CSV, write_csv
        canonical = _MEDIA_ALIASES.get(media)
        if canonical is not None:
            return canonical, RESULT_WRITERS[canonical]
    raise NotAcceptable(f"no supported result format in Accept: {accept!r}")
