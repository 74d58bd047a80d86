"""HTTP/1.0 and /1.1 parsing and formatting.

Two parsers share one grammar: :func:`read_request` (the seed's blocking,
buffered-reader parser, kept as the reference implementation) and
:class:`RequestParser` (incremental, byte-boundary agnostic — the event
loop feeds it whatever ``recv`` returned and drains complete requests,
which is what makes keep-alive pipelining possible on a non-blocking
socket).  ``tests/web/test_http_fuzz.py`` pins the two to each other:
any split of a valid byte stream must parse identically, and any input
the reference rejects must raise :class:`HttpError` incrementally too.
Content-Length is the only body framing either parser implements, so
both refuse any ``Transfer-Encoding`` (501) and conflicting
Content-Length values (400) rather than read a body as the next request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CRLF = b"\r\n"

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Malformed request; ``status`` is the response the server sends."""

    def __init__(self, message="", status=400):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    method: str
    path: str
    version: str = "HTTP/1.0"
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self):
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"


@dataclass
class Response:
    status: int = 200
    headers: dict = field(default_factory=dict)
    body: bytes = b""


def read_request(reader):
    """Parse one request from a buffered binary reader; None at EOF."""
    line = reader.readline(8192)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) == 2:
        method, path = parts
        version = "HTTP/1.0"
    elif len(parts) == 3:
        method, path, version = parts
    else:
        raise HttpError(f"malformed request line: {line!r}")
    headers = {}
    while True:
        line = reader.readline(8192)
        if not line:
            raise HttpError("EOF in headers")
        line = line.strip()
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(f"conflicting content-length: {value!r}")
        headers[name] = value
    if "transfer-encoding" in headers:
        # Content-Length is the only framing implemented: a chunked body
        # read as "no body" would be parsed as the next request.
        raise HttpError("transfer-encoding not implemented", status=501)
    body = b""
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(f"bad content-length: {raw_length!r}") from None
    if length < 0:
        # read(-1) would block until EOF — an indefinite hang on a
        # keep-alive connection, not a parse error.
        raise HttpError(f"negative content-length: {raw_length!r}")
    if length:
        body = reader.read(length)
        if len(body) != length:
            raise HttpError("EOF in body")
    return Request(method.upper(), path, version, headers, body)


class RequestParser:
    """Incremental request parser for non-blocking transports.

    ``feed()`` bytes as they arrive, then call ``next_request()`` until it
    returns None (needs more data) — a single feed may yield several
    pipelined requests.  Malformed input raises :class:`HttpError`; the
    resource limits (line length, total header bytes, body size) raise it
    too, so a hostile peer cannot buffer unboundedly.

    A keep-alive client repeats one header block on every request, so
    the parser memoizes the blocks it has walked: the exact bytes from
    the first header line through the blank line that ends them, mapped
    to the parsed headers and body length.  A block is stored only when
    the walk just parsed it, only when it is the one a lookup would
    find (see :meth:`next_request`), and only if the walk raised
    nothing, so a hit returns exactly what the walk would under this
    parser's limits.
    """

    _LINE, _HEADERS, _BODY = 0, 1, 2

    #: The memo's bounds, per parser (one parser per connection): at most
    #: this many blocks of at most this many bytes, cleared when full, so
    #: its size never follows what a client sends.
    _MEMO_ENTRIES = 8
    _MEMO_BLOCK = 2048

    __slots__ = ("max_line", "max_header_bytes", "max_body", "_buf", "_pos",
                 "_state", "_method", "_path", "_version", "_headers",
                 "_length", "_header_bytes", "_memo")

    def __init__(self, max_line=8192, max_header_bytes=32768,
                 max_body=1 << 20):
        self.max_line = max_line
        self.max_header_bytes = max_header_bytes
        self.max_body = max_body
        self._buf = bytearray()
        self._pos = 0
        self._state = self._LINE
        self._headers = None
        self._length = 0
        self._header_bytes = 0
        self._memo = {}  # header block bytes -> (headers, content length)

    def feed(self, data):
        self._buf += data

    @property
    def buffered(self):
        """Bytes received but not yet consumed by a returned request."""
        return len(self._buf) - self._pos

    @property
    def mid_request(self):
        """True when EOF now would truncate a partially-received request."""
        return self._state != self._LINE or self.buffered > 0

    def _compact(self):
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0

    def next_request(self):
        """One complete request, or None until more bytes arrive."""
        buf = self._buf
        pos = self._pos
        if pos == len(buf):
            return None
        if self._state == self._LINE:
            eol = buf.find(b"\n", pos, pos + self.max_line + 1)
            if eol < 0:
                if len(buf) - pos > self.max_line:
                    raise HttpError("request line too long")
                self._compact()
                return None
            parts = buf[pos:eol].decode("latin-1").split()
            if len(parts) == 2:
                self._method, self._path = parts
                self._version = "HTTP/1.0"
            elif len(parts) == 3:
                self._method, self._path, self._version = parts
            else:
                raise HttpError(
                    f"malformed request line: {bytes(buf[pos:eol + 1])!r}")
            pos = eol + 1
            # The memo candidate runs to the first CRLF CRLF at or after
            # pos - 2 (a two-token request line puts pos - 2 inside this
            # buffer); starting there catches a header-less request's
            # lone blank line.  A candidate that overshoots this request's
            # real blank line holds a blank line before its end, so it
            # equals no stored block.
            end = buf.find(b"\r\n\r\n", pos - 2, pos + self._MEMO_BLOCK)
            parsed = (self._memo.get(bytes(buf[pos:end + 4]))
                      if end >= 0 else None)
            if parsed is None:
                self._pos = pos
                self._headers = {}
                self._header_bytes = 0
                self._state = self._HEADERS
                if not self._walk_headers(pos):
                    return None
            else:
                # A fresh dict per request: handlers may mutate it.
                self._headers = parsed[0].copy()
                self._length = parsed[1]
                self._pos = end + 4
                self._state = self._BODY
        elif self._state == self._HEADERS:
            if not self._walk_headers(-1):
                return None
        pos = self._pos
        end = pos + self._length
        if len(buf) < end:
            return None
        body = bytes(buf[pos:end]) if end > pos else b""
        del buf[:end]
        self._pos = 0
        self._state = self._LINE
        headers = self._headers
        self._headers = None
        return Request(self._method.upper(), self._path, self._version,
                       headers, body)

    def _walk_headers(self, block):
        """Walk the buffered header lines from the cursor.

        Returns True once a blank line ends the block (state moves to
        body), False when more bytes are needed (the lines walked stay
        consumed).  ``block`` is the block's first byte when the request
        line was taken in this same call — the block is then memoized if
        eligible — and -1 otherwise.

        One bounded ``find`` per line, so a walk costs what its own block
        holds: splitting everything buffered would re-scan every
        pipelined request behind it, once per request.
        """
        buf = self._buf
        pos = self._pos
        max_line = self.max_line
        headers = self._headers
        header_bytes = self._header_bytes
        while True:
            eol = buf.find(b"\n", pos, pos + max_line + 1)
            if eol < 0:
                if len(buf) - pos > max_line:
                    raise HttpError("header line too long")
                self._pos = pos
                self._header_bytes = header_bytes
                self._compact()
                return False
            header_bytes += eol + 1 - pos
            if header_bytes > self.max_header_bytes:
                raise HttpError("headers too large")
            line = buf[pos:eol].strip()
            pos = eol + 1
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise HttpError(f"conflicting content-length: {value!r}")
            headers[name] = value
        self._pos = pos
        self._length = length = self._content_length()
        self._state = self._BODY
        if (block >= 0 and pos - block <= self._MEMO_BLOCK
                and buf.find(b"\r\n\r\n", block - 2, pos) == pos - 4):
            memo = self._memo
            if len(memo) >= self._MEMO_ENTRIES:
                memo.clear()
            memo[bytes(buf[block:pos])] = (headers.copy(), length)
        return True

    def _content_length(self):
        if "transfer-encoding" in self._headers:
            raise HttpError("transfer-encoding not implemented", status=501)
        raw = self._headers.get("content-length", "0") or "0"
        try:
            length = int(raw)
        except ValueError:
            raise HttpError(f"bad content-length: {raw!r}") from None
        if length < 0:
            raise HttpError(f"negative content-length: {raw!r}")
        if length > self.max_body:
            raise HttpError(f"body of {length} bytes exceeds limit",
                            status=413)
        return length


def format_response(response, keep_alive=False, version="HTTP/1.0"):
    status = response.status
    body = response.body
    if type(body) is not bytes:
        # A sealed shared-memory region body (repro.core.regions): the
        # socket write needs contiguous private bytes, and a revoked
        # region raises typed here rather than framing stale bytes.
        body = bytes(body)
    headers = response.headers
    lines = [f"{version} {status} {REASONS.get(status, 'Unknown')}"]
    append = lines.append
    for name, value in headers.items():
        append(f"{name}: {value}")
    # Same defaulting (and header order) as a dict copy + setdefault,
    # without copying: callers' headers rarely carry either name.
    if "Content-Length" not in headers:
        append(f"Content-Length: {len(body)}")
    if "Connection" not in headers:
        append("Connection: keep-alive" if keep_alive
               else "Connection: close")
    return "\r\n".join(lines).encode("latin-1") + CRLF + CRLF + body


def format_request(method, path, headers=None, body=b"",
                   keep_alive=True, version="HTTP/1.0"):
    lines = [f"{method} {path} {version}"]
    header_map = dict(headers or {})
    if keep_alive and version != "HTTP/1.1":
        header_map.setdefault("Connection", "keep-alive")
    elif not keep_alive and version == "HTTP/1.1":
        header_map.setdefault("Connection", "close")
    if body:
        header_map.setdefault("Content-Length", str(len(body)))
    for name, value in header_map.items():
        lines.append(f"{name}: {value}")
    return "\r\n".join(lines).encode("latin-1") + CRLF + CRLF + body


def read_response(reader):
    """Parse one response from a buffered binary reader; None at EOF."""
    line = reader.readline(8192)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split(None, 2)
    if len(parts) < 2:
        raise HttpError(f"malformed status line: {line!r}")
    status = int(parts[1])
    headers = {}
    while True:
        line = reader.readline(8192)
        if not line:
            raise HttpError("EOF in headers")
        line = line.strip()
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = reader.read(length) if length else b""
    return Response(status, headers, body)
