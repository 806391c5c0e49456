"""HTTP/1.1 message framing (RFC 9112) for both ends of the wire: the
server reads a request's header section with :func:`read_headers`, the
wire clients a response with :func:`read_response` and
:meth:`Response.read_body` — split on ``":"`` line by line, no ``email``
parser (docs/server.md, *Wire framing*).  The stdlib's limits stay: a
line over :data:`MAX_LINE` bytes, or more than :data:`MAX_HEADERS` lines
in a header section (its blank line counted), is a :class:`FramingError`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["FramingError", "Headers", "MAX_HEADERS", "MAX_LINE",
           "Response", "parse_version", "read_head", "read_headers", "read_response"]

MAX_LINE = 65536  #: longest line of a head, in bytes (``http.client._MAXLINE``)
MAX_HEADERS = 100  #: most lines of a header section (``http.client._MAXHEADERS``)
_OWS = " \t\r\n"  # stripped off a field value; a bare strip() would take NBSP too


class FramingError(ValueError):
    """A head over the limits, a malformed status line or chunk size, or a
    body cut short."""


class Headers:
    """The header fields of one message: :meth:`get` is case-insensitive
    and the first occurrence wins, as in ``email.message.Message.get``;
    iteration yields the names in the order and case they were sent."""

    __slots__ = ("_fields", "_first")

    def __init__(self, fields: List[Tuple[str, str]]) -> None:
        self._fields = fields
        self._first: Dict[str, str] = {name.lower(): value for name, value in reversed(fields)}

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._first.get(name.lower(), default)

    def get_all(self, name: str) -> List[str]:
        name = name.lower()
        return [value for field, value in self._fields if field.lower() == name]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._first

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._fields)


def _line(rfile) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError("Line too long")
    return line


def read_headers(rfile) -> Headers:
    """The header section after a start line, to its blank line or the end of the stream;
    a line starting with a space or a tab continues the field before it (obsolete folding)."""
    fields: List[Tuple[str, str]] = []
    for _ in range(MAX_HEADERS):
        line = _line(rfile)
        if line in (b"\r\n", b"\n", b""):
            return Headers(fields)
        text = line.decode("latin-1")
        name, colon, value = text.partition(":")
        if text[0] in " \t" and fields:
            fields[-1] = (fields[-1][0], f"{fields[-1][1]} {text.strip(_OWS)}")
        elif colon:
            fields.append((name, value.strip(_OWS)))
    raise FramingError("Too many headers")


def read_head(rfile) -> Tuple[str, Headers]:
    """The start line (without its line break) and the header fields of
    the next message; ``""`` and no fields at the end of the stream."""
    line = _line(rfile)
    return (line.decode("latin-1").rstrip("\r\n"), read_headers(rfile)) if line else ("", Headers([]))


def parse_version(text: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of ``HTTP/x.y``; None for what the stdlib
    refuses (anything but two decimal numbers of at most ten digits)."""
    major, dot, minor = text[5:].partition(".")
    if text[:5] != "HTTP/" or not all(n.isascii() and n.isdigit() and len(n) <= 10 for n in (major, minor)):
        return None
    return int(major), int(minor)


class Response:
    """A response head and how its body ends (chunked, ``Content-Length`` or at the
    close); ``will_close``: the connection cannot carry another exchange."""

    __slots__ = ("status", "reason", "headers", "will_close", "_chunked", "_length")

    def __init__(self, status_line: str, headers: Headers) -> None:
        version, _, rest = status_line.partition(" ")
        code, _, reason = rest.partition(" ")
        number = parse_version(version)
        if number is None or len(code) != 3 or not (code.isascii() and code.isdigit()):
            raise FramingError(f"malformed status line {status_line!r}")
        self.status, self.reason, self.headers = int(code), reason.strip(), headers
        bodiless = self.status in (204, 304) or self.status < 200  # whatever the head says
        self._chunked = not bodiless and "chunked" in (headers.get("Transfer-Encoding") or "").lower()
        length = "0" if bodiless else headers.get("Content-Length") or ""
        # -1: no length (or a chunked body), so a read to the close
        self._length = -1 if self._chunked or not (length.isascii() and length.isdigit()) else int(length)
        self.will_close = (number < (1, 1) or "close" in (headers.get("Connection") or "").lower()
                           or (self._length < 0 and not self._chunked))

    def read_body(self, rfile) -> bytes:
        body = _read_chunked(rfile) if self._chunked else rfile.read(self._length)
        if len(body) < self._length:
            raise FramingError(f"body cut short: {len(body)} of {self._length} bytes")
        return body


def read_response(rfile) -> Response:
    """The head of the next final response (1xx ones are skipped); like
    ``http.client``, :class:`ConnectionResetError` at the end of the stream."""
    while True:
        status_line, headers = read_head(rfile)
        if not status_line:
            raise ConnectionResetError("connection closed before a response")
        response = Response(status_line, headers)
        if response.status >= 200:
            return response


def _read_chunked(rfile) -> bytes:
    """Sized chunks to the zero-size one, then the trailer section, dropped."""
    chunks = []
    while True:
        line = _line(rfile)
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise FramingError(f"malformed chunk size {line[:40]!r}")
        size = int(size, 16)
        if size == 0:
            read_headers(rfile)
            return b"".join(chunks)
        chunks.append(rfile.read(size))
        if len(chunks[-1]) < size or _line(rfile) not in (b"\r\n", b"\n"):
            raise FramingError("chunk cut short")
