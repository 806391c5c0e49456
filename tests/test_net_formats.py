"""SPARQL Results format round-trips and content negotiation.

Fixtures follow the W3C result-format specs: typed literals, language
tags, blank nodes, unbound variables, and ASK results must survive the
JSON round-trip losslessly and render correctly in XML/CSV/TSV.
"""

import hashlib
import json
import sys
import threading

import pytest

from repro.net import formats
from repro.net.formats import (
    MIME_CSV,
    MIME_JSON,
    MIME_TSV,
    MIME_XML,
    FormatError,
    NotAcceptable,
    negotiate,
    parse_json,
    parse_tsv,
    result_from_document,
    result_to_document,
    term_from_json,
    term_to_json,
    write_csv,
    write_json,
    write_tsv,
    write_xml,
)
from repro.rdf.terms import (
    IRI,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
)
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, SelectResult


@pytest.fixture
def spec_result():
    """A SELECT result exercising every term shape the specs name."""
    return SelectResult(
        variables=["s", "label", "count", "note"],
        rows=[
            {  # IRI + language-tagged literal + typed literal; ?note unbound
                "s": IRI("http://example.org/Boston"),
                "label": Literal("Boston", lang="en"),
                "count": Literal("617594", datatype=XSD_INTEGER),
            },
            {  # blank node subject + simple literal + escaping hazards
                "s": BlankNode("b0"),
                "label": Literal('say "hi",\n<&> done'),
                "count": Literal("true", datatype=XSD_BOOLEAN),
                "note": Literal("tab\there"),
            },
        ],
    )


def _one_binding(obj: str) -> str:
    return ('{"head": {"vars": ["x"]}, "results": {"bindings": [{"x": %s}]}}'
            % obj)


class TestJsonRoundTrip:
    def test_select_round_trip_is_lossless(self, spec_result):
        parsed = parse_json(write_json(spec_result))
        assert parsed.variables == spec_result.variables
        assert parsed.rows == spec_result.rows

    def test_ask_round_trip(self):
        for value in (True, False):
            parsed = parse_json(write_json(AskResult(value)))
            assert isinstance(parsed, AskResult)
            assert parsed.value is value

    def test_document_shape_matches_spec(self, spec_result):
        document = json.loads(write_json(spec_result))
        assert document["head"]["vars"] == ["s", "label", "count", "note"]
        first = document["results"]["bindings"][0]
        assert first["s"] == {"type": "uri", "value": "http://example.org/Boston"}
        assert first["label"] == {"type": "literal", "value": "Boston",
                                  "xml:lang": "en"}
        assert first["count"] == {"type": "literal", "value": "617594",
                                  "datatype": XSD_INTEGER.value}
        assert "note" not in first  # unbound variables are omitted

    def test_bnode_and_simple_literal(self, spec_result):
        second = json.loads(write_json(spec_result))["results"]["bindings"][1]
        assert second["s"] == {"type": "bnode", "value": "b0"}
        assert "datatype" not in second["note"]
        assert "xml:lang" not in second["note"]

    def test_legacy_typed_literal_accepted(self):
        term = term_from_json({"type": "typed-literal", "value": "7",
                               "datatype": XSD_INTEGER.value})
        assert term == Literal("7", datatype=XSD_INTEGER)

    @pytest.mark.parametrize("junk", [
        "not json at all",
        b'{"boolean": \xff}',
        "[1, 2, 3]",
        '{"head": {}}',
        '{"head": {"vars": ["x"]}, "results": {}}',
        '{"boolean": "yes"}',
        '{"head": {"vars": ["x"]}, "results": {"bindings": [42]}}',
        # Members that are not strings: none may reach a term (a list
        # would be an unhashable memo key) or leak a TypeError.
        _one_binding('{"type": "uri", "value": ["a"]}'),
        _one_binding('{"type": "literal", "value": "a", "xml:lang": 3}'),
        _one_binding('{"type": "literal", "value": "a", "datatype": {"k": 1}}'),
        '{"head": {"vars": "xy"}, "results": {"bindings": []}}',
        '{"head": {"vars": ["x"]}, "results": {"bindings": null}}',
    ])
    def test_malformed_documents_raise(self, junk):
        with pytest.raises(FormatError):
            parse_json(junk)

    def test_unknown_term_type_raises(self):
        with pytest.raises(FormatError):
            term_from_json({"type": "quad", "value": "x"})
        with pytest.raises(FormatError):
            parse_json(_one_binding('{"type": "quad", "value": "x"}'))
        with pytest.raises(FormatError):
            parse_json(_one_binding('"not an object"'))

    def test_equal_terms_spelled_differently_decode_equal(self):
        typed = '{"type": "%s", "value": "7", "datatype": "' + XSD_INTEGER.value + '"}'
        plain = '{"type": "literal", "value": "x"%s}'
        for one, other in [
            (typed % "typed-literal", typed % "literal"),
            (plain % ', "xml:lang": ""', plain % ""),
            (plain % ', "datatype": ""', plain % ', "xml:lang": null'),
        ]:
            first = parse_json(_one_binding(one)).rows[0]["x"]
            second = parse_json(_one_binding(other)).rows[0]["x"]
            assert first == second and hash(first) == hash(second)
        assert first == Literal("x")

    def test_repeated_terms_are_interned(self, spec_result):
        first = parse_json(write_json(spec_result))
        second = parse_json(write_json(spec_result))
        assert first.rows == second.rows == spec_result.rows
        assert first.rows[0]["s"] is second.rows[0]["s"]
        # One IRI object per datatype, whichever literal carries it.
        assert (first.rows[0]["count"].datatype
                is parse_json(_one_binding(
                    '{"type": "literal", "value": "9", "datatype": "%s"}'
                    % XSD_INTEGER.value)).rows[0]["x"].datatype)

    def test_document_half_is_the_text_half_without_the_text(self, spec_result):
        document = result_to_document(spec_result)
        assert write_json(spec_result) == json.dumps(document)
        assert result_from_document(document).rows == spec_result.rows
        ask = result_to_document(AskResult(True))
        assert ask == {"head": {}, "boolean": True}
        assert result_from_document(ask).value is True

    def test_variable_cannot_serialize(self):
        from repro.rdf.terms import Variable

        with pytest.raises(FormatError):
            term_to_json(Variable("x"))


@pytest.fixture
def small_memos():
    """Every term table emptied and bounded at 8 entries, restored after;
    yields the JSON writer's and reader's (the TSV pair is emptied too,
    so ``memo_stats`` counts only what the test writes)."""
    json_memos = (formats._FRAGMENTS, formats._TERMS)
    memos = json_memos + (formats._TSV_CELLS, formats._TERM_CELLS)
    saved = [memo.bound for memo in memos]
    for memo in memos:
        memo.clear()
        memo.bound = 8
    yield json_memos
    for memo, bound in zip(memos, saved):
        memo.clear()
        memo.bound = bound


class TestTermTables:
    def test_gold_question_bodies_are_pinned(self, server, gold_queries):
        """The 52 gold answers serialise to the bytes they had before the
        writer joined fragments (sha256 taken at commit 3b5a0c8)."""
        digest = hashlib.sha256()
        for text in gold_queries:
            result = server.federation.run(parse_query(text))
            body = write_json(result)
            assert body == json.dumps(result_to_document(result))
            assert parse_json(body).rows == result.rows
            digest.update(body.encode("utf-8"))
        assert len(gold_queries) == 52
        assert digest.hexdigest() == (
            "c7e75415374d81a1d4bcab721c322e5a4c4aeafac2de2187352d0840500e7a5e")

    def test_a_full_table_is_dropped_whole_mid_result(self, small_memos):
        result = SelectResult(variables=["x"], rows=[
            {"x": Literal(str(n % 20), datatype=XSD_INTEGER)} for n in range(60)])
        expected = json.dumps(result_to_document(result))
        builds = formats.memo_stats()["fragment_builds"]
        assert write_json(result) == expected
        assert parse_json(expected).rows == result.rows
        assert all(0 < len(memo) <= 8 for memo in small_memos)
        # 20 distinct terms through 8 slots: every drop costs rebuilds.
        assert formats.memo_stats()["fragment_builds"] - builds > 20
        assert formats.memo_stats()["fragment_entries"] == len(small_memos[0])

    def test_concurrent_writers_readers_and_a_thrasher(self, spec_result, small_memos):
        """Two threads write and parse while a third keeps both tables
        over their bound: a dropped table costs rebuilds, never bytes."""
        shared = SelectResult(variables=["a", "b"], rows=[
            {"b": IRI(f"http://example.org/{n % 7}"), "a": Literal(f"v{n % 5}", lang="en")}
            for n in range(40)])
        churn = SelectResult(variables=["x"], rows=[
            {"x": Literal(f"churn {n}")} for n in range(50)])
        expected = {id(r): (json.dumps(result_to_document(r)), r.rows)
                    for r in (shared, spec_result, churn)}
        stop = threading.Event()
        wrong = []

        def work(results, rounds):
            try:
                for _ in range(rounds):
                    for result in results:
                        body, rows = expected[id(result)]
                        if write_json(result) != body or parse_json(body).rows != rows:
                            wrong.append(result)
            except Exception as error:  # noqa: BLE001 — reported below
                wrong.append(error)

        def thrash():
            while not stop.is_set():
                work([churn], 1)

        threads = [threading.Thread(target=work, args=([shared, spec_result], 150))
                   for _ in range(2)]
        thrasher = threading.Thread(target=thrash)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thrasher.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            stop.set()
            thrasher.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [thrasher])
        assert wrong == []


class TestXml:
    def test_select_document(self, spec_result):
        text = write_xml(spec_result)
        assert text.startswith('<?xml version="1.0"?>')
        assert 'xmlns="http://www.w3.org/2005/sparql-results#"' in text
        assert '<variable name="note"/>' in text
        assert ('<binding name="s"><uri>http://example.org/Boston</uri>'
                "</binding>") in text
        assert '<literal xml:lang="en">Boston</literal>' in text
        assert f'<literal datatype="{XSD_INTEGER.value}">617594</literal>' in text
        assert "<bnode>b0</bnode>" in text

    def test_markup_is_escaped(self, spec_result):
        text = write_xml(spec_result)
        assert "&lt;&amp;&gt;" in text
        assert "<&>" not in text.replace("<&>", "")  # no raw markup leaks

    def test_ask_document(self):
        assert "<boolean>true</boolean>" in write_xml(AskResult(True))
        assert "<boolean>false</boolean>" in write_xml(AskResult(False))

    def test_well_formed(self, spec_result):
        import xml.etree.ElementTree as ET

        root = ET.fromstring(write_xml(spec_result))
        ns = "{http://www.w3.org/2005/sparql-results#}"
        results = root.find(f"{ns}results")
        assert len(list(results)) == 2


class TestCsvTsv:
    def test_csv_values_are_plain(self, spec_result):
        lines = write_csv(spec_result).split("\r\n")
        assert lines[0] == "s,label,count,note"
        assert lines[1] == "http://example.org/Boston,Boston,617594,"
        # RFC 4180: the quoted cell keeps its comma, quotes double up.
        assert lines[2].startswith('_:b0,"say ""hi"",')

    def test_csv_ask(self):
        assert write_csv(AskResult(True)).split("\r\n")[:2] == ["boolean", "true"]

    def test_tsv_terms_are_n3(self, spec_result):
        lines = write_tsv(spec_result).splitlines()
        assert lines[0] == "?s\t?label\t?count\t?note"
        cells = lines[1].split("\t")
        assert cells[0] == "<http://example.org/Boston>"
        assert cells[1] == '"Boston"@en'
        assert cells[2] == f'"617594"^^<{XSD_INTEGER.value}>'
        assert cells[3] == ""  # unbound

    def test_tsv_ask(self):
        assert write_tsv(AskResult(False)) == "?boolean\nfalse\n"

    def test_tsv_round_trip_is_lossless(self, spec_result):
        parsed = parse_tsv(write_tsv(spec_result).encode("utf-8"))
        assert parsed.variables == spec_result.variables
        assert parsed.rows == spec_result.rows

    def test_tsv_keeps_an_explicit_xsd_string(self):
        """The one cell whose bytes differ from ``n3()``: without the
        datatype it would read back as a different (simple) literal."""
        typed = Literal("x", datatype=XSD_STRING)
        body = write_tsv(SelectResult(variables=["x"], rows=[{"x": typed}, {"x": Literal("x")}]))
        assert body.splitlines()[1:] == [f'"x"^^<{XSD_STRING.value}>', '"x"']
        assert [row["x"] for row in parse_tsv(body).rows] == [typed, Literal("x")]

    def test_memo_stats_count_both_writer_tables(self, small_memos, spec_result):
        cold = formats.memo_stats()
        write_json(spec_result)
        distinct = formats.memo_stats()["fragment_entries"]
        write_tsv(spec_result)
        write_tsv(spec_result)
        stats = formats.memo_stats()
        assert stats["fragment_entries"] == 2 * distinct
        assert stats["fragment_builds"] - cold["fragment_builds"] == 2 * distinct

    def test_tsv_reads_what_the_spec_allows(self):
        """A body in the shape of the TSV section's example (SPARQL 1.1
        Query Results CSV and TSV Formats, section 4): Turtle's short
        forms for numbers and booleans, single quotes, an unbound cell."""
        body = "\n".join([
            "?x\t?literal",
            '<http://example/x>\t"String"',
            '<http://example/x>\t"String-with-dquote\\""',
            '_:b0\t"Blank node"',
            '<http://example/x>\t""',
            '<http://example/x>\t"Hello"@en-US',
            "<http://example/x>\t123",
            "<http://example/x>\t-1.5",
            "<http://example/x>\t1.0e0",
            "<http://example/x>\ttrue",
            "<http://example/x>\t'single \\' quoted'",
            "<http://example/x>\t",
        ]) + "\n"
        x = IRI("http://example/x")
        result = parse_tsv(body)
        assert result.variables == ["x", "literal"]
        assert [row.get("literal") for row in result.rows] == [
            Literal("String"),
            Literal('String-with-dquote"'),
            Literal("Blank node"),
            Literal(""),
            Literal("Hello", lang="en-US"),
            Literal("123", datatype=XSD_INTEGER),
            Literal("-1.5", datatype=XSD_DECIMAL),
            Literal("1.0e0", datatype=XSD_DOUBLE),
            Literal("true", datatype=XSD_BOOLEAN),
            Literal("single ' quoted"),
            None,
        ]
        assert [row["x"] for row in result.rows] == [x, x, BlankNode("b0")] + [x] * 8

    @pytest.mark.parametrize("cell", ["5.", "1e", "+", "True", "12a", "'mixed\"", "<a>b>", "_:"])
    def test_tsv_refuses_what_is_no_term(self, cell):
        with pytest.raises(FormatError, match="not an RDF term"):
            parse_tsv(f"?x\n{cell}\n")

    def test_tsv_spells_separators_in_iris_labels_and_tags_as_uchars(self):
        """An IRI, label or tag holding a tab, line break, backslash or
        angle bracket reads back as itself, not as its escape's text."""
        terms = [IRI("a\tb\\<c>"), BlankNode("l\r\n"), Literal("v", lang="x\ty"),
                 Literal("v", datatype=IRI("d\tt"))]
        body = write_tsv(SelectResult(variables=["x"], rows=[{"x": term} for term in terms]))
        assert body.splitlines()[1:] == [
            "<a\\u0009b\\u005C\\u003Cc\\u003E>", "_:l\\u000D\\u000A", '"v"@x\\u0009y',
            '"v"^^<d\\u0009t>']
        assert [row["x"] for row in parse_tsv(body).rows] == terms

    def test_tsv_escapes_record_separators(self):
        result = SelectResult(
            variables=["x"],
            rows=[{"x": Literal("line1\r\nline2\there")}],
        )
        lines = write_tsv(result).splitlines()
        assert len(lines) == 2  # one header + exactly one record
        assert "\r" not in lines[1] and "\t" not in lines[1]
        assert "\\r" in lines[1] and "\\t" in lines[1]


class TestNegotiation:
    @pytest.mark.parametrize("accept,expected", [
        (None, MIME_JSON),
        ("", MIME_JSON),
        ("*/*", MIME_JSON),
        ("application/*", MIME_JSON),
        ("application/sparql-results+json", MIME_JSON),
        ("application/json", MIME_JSON),
        ("application/sparql-results+xml", MIME_XML),
        ("text/xml", MIME_XML),
        ("text/csv", MIME_CSV),
        ("text/*", MIME_CSV),
        ("text/tab-separated-values", MIME_TSV),
        ("text/html, application/sparql-results+xml;q=0.9", MIME_XML),
        ("text/csv;q=0.1, application/sparql-results+json;q=0.9", MIME_JSON),
    ])
    def test_accept_header_resolution(self, accept, expected):
        mime, writer = negotiate(accept)
        assert mime == expected
        assert callable(writer)

    def test_q_zero_excludes_format(self):
        mime, _ = negotiate("text/csv;q=0, application/sparql-results+xml")
        assert mime == MIME_XML

    def test_unsupported_only_raises(self):
        with pytest.raises(NotAcceptable):
            negotiate("text/html")
