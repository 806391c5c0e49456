"""Unit tests for the N-Triples reader/writer."""

import pytest

from repro.rdf import (
    IRI,
    XSD_INTEGER,
    BlankNode,
    Literal,
    NTriplesError,
    Triple,
    parse_ntriples,
    serialize_ntriples,
)


def roundtrip(triples):
    return list(parse_ntriples(serialize_ntriples(triples)))


class TestParsing:
    def test_simple_triple(self):
        [triple] = parse_ntriples("<http://a> <http://p> <http://b> .")
        assert triple == Triple(IRI("http://a"), IRI("http://p"), IRI("http://b"))

    def test_plain_literal(self):
        [triple] = parse_ntriples('<http://a> <http://p> "hello" .')
        assert triple.object == Literal("hello")

    def test_language_literal(self):
        [triple] = parse_ntriples('<http://a> <http://p> "hi"@en .')
        assert triple.object == Literal("hi", lang="en")

    def test_datatype_literal(self):
        line = '<http://a> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        [triple] = parse_ntriples(line)
        assert triple.object == Literal("42", datatype=XSD_INTEGER)

    def test_blank_node_subject(self):
        [triple] = parse_ntriples("_:b0 <http://p> <http://o> .")
        assert triple.subject == BlankNode("b0")

    def test_escapes(self):
        [triple] = parse_ntriples('<http://a> <http://p> "line\\nbreak \\"q\\"" .')
        assert triple.object.lexical == 'line\nbreak "q"'

    @pytest.mark.parametrize("escaped, lexical", [
        ("\\t\\b\\r\\f\\'", "\t\b\r\f'"),           # every ECHAR
        ("\\u00e9 \\U0001F600", "é \U0001F600"),       # both UCHARs
        ("\\\\u0041", "\\u0041"),                       # an escaped backslash
        ("\\q \\uZZ", "\\q \\uZZ"),                     # unknown: kept as written
    ])
    def test_every_n_triples_escape(self, escaped, lexical):
        [triple] = parse_ntriples(f'<http://a> <http://p> "{escaped}" .')
        assert triple.object.lexical == lexical

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\n<http://a> <http://p> <http://o> .\n"
        assert len(list(parse_ntriples(text))) == 1

    def test_missing_dot_raises(self):
        with pytest.raises(NTriplesError):
            list(parse_ntriples("<http://a> <http://p> <http://o>"))

    def test_literal_subject_raises(self):
        with pytest.raises(NTriplesError):
            list(parse_ntriples('"lit" <http://p> <http://o> .'))

    def test_literal_predicate_raises(self):
        with pytest.raises(NTriplesError):
            list(parse_ntriples('<http://a> "p" <http://o> .'))

    def test_unterminated_iri_raises(self):
        with pytest.raises(NTriplesError):
            list(parse_ntriples("<http://a <http://p> <http://o> ."))

    def test_unterminated_literal_raises(self):
        with pytest.raises(NTriplesError):
            list(parse_ntriples('<http://a> <http://p> "open .'))

    def test_error_reports_line_number(self):
        text = "<http://a> <http://p> <http://o> .\nbad line ."
        with pytest.raises(NTriplesError, match="line 2"):
            list(parse_ntriples(text))


class TestRoundtrip:
    def test_roundtrip_mixed_terms(self):
        triples = [
            Triple(IRI("http://a"), IRI("http://p"), Literal("plain")),
            Triple(IRI("http://a"), IRI("http://p"), Literal("tagged", lang="en")),
            Triple(IRI("http://a"), IRI("http://p"), Literal("7", datatype=XSD_INTEGER)),
            Triple(BlankNode("n1"), IRI("http://p"), IRI("http://b")),
        ]
        assert roundtrip(triples) == triples

    def test_roundtrip_special_characters(self):
        triples = [Triple(IRI("http://a"), IRI("http://p"), Literal('a"b\\c\nd'))]
        assert roundtrip(triples) == triples

    def test_serialize_ends_with_newline(self):
        text = serialize_ntriples([Triple(IRI("http://a"), IRI("http://p"), IRI("http://o"))])
        assert text.endswith(".\n")

    def test_dataset_roundtrip(self, store):
        """The whole synthetic dataset survives a round trip."""
        triples = sorted(store.triples(), key=lambda t: t.n3())
        assert roundtrip(triples) == triples
