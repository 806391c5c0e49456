"""HTTP/1.1 framing (``repro.net.http11``) on in-memory streams.

The stdlib's ``http.client.parse_headers`` (the ``email`` parser both
ends of the wire used before) is the reference for header lookup: the
same value for every name, in any case, first occurrence winning.
"""

from __future__ import annotations

import http.client
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.http11 import (
    MAX_HEADERS,
    MAX_LINE,
    FramingError,
    parse_version,
    read_fields,
    read_head,
    read_headers,
    read_response,
)


def _stream(*lines: str, body: bytes = b"") -> io.BufferedReader:
    return io.BufferedReader(io.BytesIO("".join(lines).encode("latin-1") + body))


_NAMES = st.sampled_from(["Content-Length", "Connection", "Accept", "X-Repro-Trace-Id"])
_VALUES = st.text(st.characters(min_codepoint=0x21, max_codepoint=0xFF), max_size=12).map(
    lambda text: text.replace("\x7f", ""))


class TestHeaders:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_NAMES, st.booleans(), _VALUES), max_size=8))
    def test_lookup_is_the_email_parsers(self, fields):
        head = "".join(f"{name.upper() if shout else name}: {value}\r\n"
                       for name, shout, value in fields) + "\r\n"
        ours = read_headers(_stream(head))
        sent = read_fields(_stream(head))
        reference = http.client.parse_headers(_stream(head))
        for name in ("content-length", "CONNECTION", "Accept", "x-repro-trace-id", "Host"):
            assert ours.get(name) == reference.get(name)
            assert (ours.get(name) is not None) == (name in reference)
            assert [value for field, value in sent if field.lower() == name.lower()] == \
                (reference.get_all(name) or [])

    def test_iteration_keeps_the_order_and_case_sent(self):
        lines = ("content-TYPE: a\r\n", "X-B: b\r\n", "Content-Type: c\r\n", "\r\n")
        assert read_fields(_stream(*lines)) == [("content-TYPE", "a"), ("X-B", "b"),
                                                ("Content-Type", "c")]
        headers = read_headers(_stream(*lines))
        assert headers.get("CONTENT-type") == "a"
        assert headers.get("Missing", "-") == "-"

    def test_folded_lines_join_and_colonless_lines_are_skipped(self):
        fields = read_fields(_stream("X-Folded: one\r\n", " two\r\n", "\tthree\r\n",
                                     "not a field\r\n", "X-After: yes\r\n", "\r\n"))
        assert fields == [("X-Folded", "one two three"), ("X-After", "yes")]

    def test_the_head_ends_at_the_blank_line(self):
        rfile = _stream("A: 1\n", "\n", body=b"rest")
        assert read_headers(rfile).get("a") == "1"
        assert rfile.read() == b"rest"

    def test_limits_are_the_stdlibs(self):
        fill = [f"X-{index}: {index}\r\n" for index in range(MAX_HEADERS)]
        assert len(read_fields(_stream(*fill[:-1], "\r\n"))) == MAX_HEADERS - 1
        with pytest.raises(FramingError, match="Too many headers"):
            read_headers(_stream(*fill, "\r\n"))
        with pytest.raises(http.client.HTTPException):
            http.client.parse_headers(_stream(*fill, "\r\n"))
        read_headers(_stream("X: " + "a" * (MAX_LINE - 5) + "\r\n", "\r\n"))
        with pytest.raises(FramingError, match="Line too long"):
            read_headers(_stream("X: " + "a" * (MAX_LINE - 4) + "\r\n", "\r\n"))


class TestStartLine:
    def test_read_head_at_the_end_of_the_stream(self):
        assert read_head(_stream())[0] == "" and read_fields(_stream()) == []

    @pytest.mark.parametrize("text, expected", [
        ("HTTP/1.1", (1, 1)), ("HTTP/1.0", (1, 0)), ("HTTP/2.0", (2, 0)),
        ("HTTP/01.10", (1, 10)), ("HTTP/1", None), ("HTTP/1.1.1", None),
        ("http/1.1", None), ("HTTP/1.x", None), ("HTTP/².1", None),
        ("HTTP/1." + "1" * 11, None),
    ])
    def test_parse_version(self, text, expected):
        assert parse_version(text) == expected


def _response(status: str, *fields: str, body: bytes = b"") -> io.BufferedReader:
    return _stream(f"{status}\r\n", *(f"{field}\r\n" for field in fields), "\r\n",
                   body=body)


class TestResponse:
    def test_content_length(self):
        rfile = _response("HTTP/1.1 200 OK", "Content-Length: 5", body=b"hello"
                          + b"HTTP/1.1 ...")
        response = read_response(rfile)
        assert (response.status, response.reason) == (200, "OK")
        assert response.read_body(rfile) == b"hello"
        assert not response.will_close

    def test_chunked_with_extensions_and_a_trailer(self):
        rfile = _response("HTTP/1.1 200 OK", "Transfer-Encoding: chunked",
                          body=b"5;x=1\r\nhello\r\n1A\r\n" + b"z" * 26 + b"\r\n"
                               b"0\r\nX-Trailer: t\r\n\r\nNEXT")
        response = read_response(rfile)
        assert not response.will_close
        assert response.read_body(rfile) == b"hello" + b"z" * 26
        assert rfile.read() == b"NEXT"

    @pytest.mark.parametrize("body", [
        b"zz\r\nhello\r\n0\r\n\r\n", b"-5\r\nhello\r\n0\r\n\r\n",
        b"5\r\nhel", b"5\r\nhelloXX0\r\n\r\n", b"",
    ], ids=["not-hex", "negative", "cut-short", "no-crlf", "nothing"])
    def test_malformed_chunks(self, body):
        rfile = _response("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=body)
        response = read_response(rfile)
        with pytest.raises(FramingError):
            response.read_body(rfile)

    @pytest.mark.parametrize("fields", [
        (), ("Content-Length: many",), ("Content-Length: -3",)])
    def test_no_length_reads_to_the_close(self, fields):
        rfile = _response("HTTP/1.1 200 OK", *fields, body=b"all of it")
        response = read_response(rfile)
        assert response.will_close
        assert response.read_body(rfile) == b"all of it"

    @pytest.mark.parametrize("status, field", [
        ("HTTP/1.0 200 OK", "X: y"), ("HTTP/1.1 200 OK", "Connection: Close")])
    def test_closing_responses(self, status, field):
        rfile = _response(status, field, "Content-Length: 2", body=b"ok")
        response = read_response(rfile)
        assert response.will_close
        assert response.read_body(rfile) == b"ok"

    def test_no_body_statuses_and_interim_responses(self):
        rfile = _stream("HTTP/1.1 100 Continue\r\n\r\n",
                        "HTTP/1.1 204 No Content\r\nContent-Length: 9\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n",
                        "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
        response = read_response(rfile)
        assert response.status == 204
        assert response.read_body(rfile) == b"" and not response.will_close
        assert read_response(rfile).status == 200

    def test_body_cut_short(self):
        rfile = _response("HTTP/1.1 200 OK", "Content-Length: 10", body=b"short")
        response = read_response(rfile)
        with pytest.raises(FramingError, match="5 of 10"):
            response.read_body(rfile)

    def test_end_of_stream_before_a_response_is_a_reset(self):
        with pytest.raises(ConnectionResetError):
            read_response(_stream())

    @pytest.mark.parametrize("status", ["HTTP/1.1 OK", "HTTP/1.1 2000 OK",
                                        "ICY 200 OK", "HTTP/1.1 2x0 OK"])
    def test_malformed_status_line(self, status):
        with pytest.raises(FramingError, match="status line"):
            read_response(_response(status))
