"""HTTP parser fuzz/property tests (PR 4 satellite).

Pins the incremental :class:`RequestParser` to the seed's blocking
:func:`read_request`: any split of a valid byte stream across ``recv``
boundaries must parse identically to the one-shot parse, and any input
the reference rejects must raise :class:`HttpError` incrementally too —
at the server level, malformed input yields a 400 (or a clean close),
never a hang or a traceback.
"""

import io
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web import (
    HttpError,
    NativeHttpServer,
    RequestParser,
    read_request,
)
from repro.web import Response

METHODS = ["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "patch"]
HEADER_NAMES = ["Host", "User-Agent", "Accept", "X-Thing", "COOKIE",
                "content-TYPE", "x-empty"]
LINE_ENDINGS = [b"\r\n", b"\n"]


def _reader(data):
    return io.BufferedReader(io.BytesIO(data))


def random_request_bytes(rng):
    """One valid request, exercising the grammar corners the seed parser
    accepts (2- or 3-token request lines, mixed line endings, colonless
    headers, optional bodies)."""
    method = rng.choice(METHODS)
    path = "/" + "/".join(
        "".join(rng.choices("abcdefghij0123456789._-", k=rng.randint(1, 8)))
        for _ in range(rng.randint(1, 3))
    )
    eol = rng.choice(LINE_ENDINGS)
    if rng.random() < 0.2:
        line = f"{method} {path}".encode("latin-1")
    else:
        version = rng.choice(["HTTP/1.0", "HTTP/1.1"])
        line = f"{method} {path} {version}".encode("latin-1")
    parts = [line + eol]
    body = b""
    if rng.random() < 0.4:
        body = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
        parts.append(
            f"Content-Length: {len(body)}".encode("latin-1")
            + rng.choice(LINE_ENDINGS)
        )
    for _ in range(rng.randint(0, 4)):
        name = rng.choice(HEADER_NAMES)
        if rng.random() < 0.1:
            parts.append(f"{name}-colonless".encode("latin-1")
                         + rng.choice(LINE_ENDINGS))
        else:
            value = "".join(rng.choices("abcdef ghi;=,", k=rng.randint(0, 12)))
            spacing = " " * rng.randint(0, 2)
            parts.append(f"{name}:{spacing}{value}".encode("latin-1")
                         + rng.choice(LINE_ENDINGS))
    parts.append(rng.choice(LINE_ENDINGS))
    parts.append(body)
    return b"".join(parts)


def random_chunks(rng, data):
    """Split ``data`` at random byte boundaries (including empty feeds)."""
    chunks = []
    position = 0
    while position < len(data):
        if rng.random() < 0.1:
            chunks.append(b"")
        step = rng.randint(1, max(1, min(17, len(data) - position)))
        chunks.append(data[position:position + step])
        position += step
    return chunks


def parse_incremental(data, chunks):
    parser = RequestParser()
    requests = []
    for chunk in chunks:
        parser.feed(chunk)
        while True:
            request = parser.next_request()
            if request is None:
                break
            requests.append(request)
    return parser, requests


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_streams_parse_identically(self, seed):
        rng = random.Random(seed)
        stream = b"".join(
            random_request_bytes(rng) for _ in range(rng.randint(1, 4))
        )
        reader = _reader(stream)
        expected = []
        while True:
            request = read_request(reader)
            if request is None:
                break
            expected.append(request)

        _, got = parse_incremental(stream, random_chunks(rng, stream))
        assert len(got) == len(expected)
        for ours, reference in zip(got, expected):
            assert ours.method == reference.method
            assert ours.path == reference.path
            assert ours.version == reference.version
            assert ours.headers == reference.headers
            assert ours.body == reference.body

    def test_every_split_point_of_one_request(self):
        data = (b"POST /exact HTTP/1.1\r\nContent-Length: 5\r\n"
                b"X-A: 1\r\n\r\nhello")
        reference = read_request(_reader(data))
        for split in range(len(data) + 1):
            _, got = parse_incremental(data, [data[:split], data[split:]])
            assert len(got) == 1, f"split at {split}"
            assert got[0] == reference, f"split at {split}"

    def test_byte_at_a_time(self):
        data = b"GET /bytewise HTTP/1.0\r\nX: y\r\n\r\n"
        reference = read_request(_reader(data))
        _, got = parse_incremental(data, [bytes([b]) for b in data])
        assert got == [reference]


MALFORMED = [
    b"\r\n\r\n",                                  # empty request line
    b"ONETOKEN\r\n\r\n",                          # one token
    b"GET /x HTTP/1.0 extra\r\n\r\n",             # four tokens
    b"   \r\n\r\n",                               # whitespace line
    b"POST /x HTTP/1.0\r\nContent-Length: abc\r\n\r\n",
    b"POST /x HTTP/1.0\r\nContent-Length: -1\r\n\r\n",
    b"POST /x HTTP/1.0\r\nContent-Length: 0x10\r\n\r\n",
    b"POST /x HTTP/1.0\r\nContent-Length: 1e3\r\n\r\n",
]


class TestMalformedVerdictsPinned:
    @pytest.mark.parametrize("data", MALFORMED)
    def test_both_parsers_reject(self, data):
        # Both parsers reject the whole corpus with HttpError —
        # including bad/negative Content-Length values, which the
        # blocking parser once turned into a ValueError leak or an
        # indefinite read(-1) hang.
        with pytest.raises(HttpError):
            read_request(_reader(data))
        parser = RequestParser()
        with pytest.raises(HttpError):
            parser.feed(data)
            while parser.next_request() is not None:
                pass

    def test_negative_content_length_rejected(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: -5\r\n\r\n")
        with pytest.raises(HttpError):
            parser.next_request()

    def test_oversized_request_line_rejected(self):
        parser = RequestParser(max_line=128)
        with pytest.raises(HttpError):
            parser.feed(b"GET /" + b"a" * 200)
            parser.next_request()

    def test_oversized_headers_rejected(self):
        parser = RequestParser(max_header_bytes=256)
        parser.feed(b"GET /x HTTP/1.0\r\n")
        with pytest.raises(HttpError):
            for index in range(64):
                parser.feed(f"X-{index}: {'v' * 32}\r\n".encode())
                parser.next_request()

    def test_oversized_body_is_413(self):
        parser = RequestParser(max_body=64)
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 100000\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            parser.next_request()
        assert excinfo.value.status == 413


@pytest.fixture()
def live_server():
    server = NativeHttpServer()
    server.documents.put("/ok", b"fine")
    server.start()
    yield server
    server.stop()


def _raw_exchange(port, payload, timeout=5.0):
    """Send raw bytes, return everything the server sends back."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestServerNeverHangsOnGarbage:
    @pytest.mark.parametrize("data", MALFORMED)
    def test_malformed_yields_400_and_close(self, live_server, data):
        raw = _raw_exchange(live_server.port, data)
        assert raw.startswith(b"HTTP/1.0 400")
        # and the server is still alive for the next client
        ok = _raw_exchange(live_server.port, b"GET /ok HTTP/1.0\r\n\r\n")
        assert b"200" in ok.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_binary_garbage(self, live_server, seed):
        rng = random.Random(1000 + seed)
        junk = bytes(rng.randrange(256) for _ in range(rng.randint(1, 512)))
        raw = _raw_exchange(live_server.port, junk)
        # Either a clean 400 or a clean close; never a hang (the
        # _raw_exchange timeout would trip) and never a traceback body.
        if raw:
            assert raw.startswith(b"HTTP/1.0 400") or b"200" in raw[:16]
        assert b"Traceback" not in raw

    def test_truncated_request_gets_400(self, live_server):
        raw = _raw_exchange(live_server.port,
                            b"POST /x HTTP/1.0\r\nContent-Length: 50\r\n\r\nab")
        assert raw.startswith(b"HTTP/1.0 400")

    def test_valid_split_oddly_still_served(self, live_server):
        with socket.create_connection(("127.0.0.1", live_server.port),
                                      timeout=5.0) as conn:
            for piece in (b"GET /o", b"k HTT", b"P/1.0\r", b"\n\r\n"):
                conn.sendall(piece)
            conn.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data.split(b"\r\n", 1)[0] == b"HTTP/1.0 200 OK"
        assert data.endswith(b"fine")


# -- the header-block memo -------------------------------------------------

BLOCK_TERMINATORS = [b"\r\n", b"\n", b" \r\n", b"\t\n", b"  \n"]


def header_block_pool(rng, size=4):
    """A few ``(block, body_length)`` pairs, each block running from its
    first header line through its blank line.  Streams drawn from a small
    pool repeat blocks on one parser, which is what the memo serves."""
    pool = []
    for _ in range(size):
        lines = []
        length = 0
        if rng.random() < 0.3:
            length = rng.randint(0, 24)
            lines.append(f"Content-Length: {length}".encode("latin-1")
                         + rng.choice(LINE_ENDINGS))
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(HEADER_NAMES)
            value = "".join(rng.choices("abc ;=\t", k=rng.randint(0, 8)))
            lines.append(f"{name}:{value}".encode("latin-1")
                         + rng.choice(LINE_ENDINGS + [b"\r\r\n"]))
        rng.shuffle(lines)
        lines.append(rng.choice(BLOCK_TERMINATORS))
        pool.append((b"".join(lines), length))
    return pool


def pooled_stream(rng):
    """Requests whose header blocks come from one small pool, with
    request lines ending in CRLF or bare LF (so a bare-LF request line
    meets a CRLF blank line) and random bodies."""
    pool = header_block_pool(rng)
    parts = []
    for _ in range(rng.randint(1, 12)):
        block, length = rng.choice(pool)
        path = "/" + "".join(rng.choices("abcxyz019", k=rng.randint(1, 6)))
        version = rng.choice([" HTTP/1.0", " HTTP/1.1", ""])
        parts.append(f"{rng.choice(METHODS)} {path}{version}"
                     .encode("latin-1") + rng.choice(LINE_ENDINGS))
        parts.append(block)
        parts.append(bytes(rng.randrange(256) for _ in range(length)))
    return b"".join(parts)


def memo_friendly_chunks(rng, data):
    """One feed, a few large feeds, or the fine random split: the memo
    only sees a block that arrives whole with its request line."""
    mode = rng.randrange(3)
    if mode == 0:
        return [data]
    if mode == 1:
        cuts = sorted(rng.randrange(len(data) + 1)
                      for _ in range(rng.randint(1, 3)))
        return [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]
    return random_chunks(rng, data)


class _CountingMemo(dict):
    """A memo that counts its hits, so the tests can show they took the
    lookup path and not only the walk."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


def reference_parse(data):
    reader = _reader(data)
    requests = []
    while True:
        request = read_request(reader)
        if request is None:
            return requests
        requests.append(request)


def check_memo_stream(rng):
    """Parse a pooled stream on one parser; every request must equal the
    reference parser's.  Returns the memo's hit count."""
    stream = pooled_stream(rng)
    parser = RequestParser()
    parser._memo = memo = _CountingMemo()
    got = []
    for chunk in memo_friendly_chunks(rng, stream):
        parser.feed(chunk)
        while True:
            request = parser.next_request()
            if request is None:
                break
            got.append(request)
    assert got == reference_parse(stream)
    assert len(memo) <= RequestParser._MEMO_ENTRIES
    return memo.hits


class TestHeaderBlockMemo:
    def test_pooled_blocks_parse_like_the_reference(self):
        hits = sum(check_memo_stream(random.Random(seed))
                   for seed in range(300))
        assert hits >= 50  # the lookup path ran, not only the walk

    @settings(derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_pooled_blocks_parse_like_the_reference_property(self, rng):
        check_memo_stream(rng)

    def test_header_less_crlf_request_hits(self):
        parser = RequestParser()
        parser._memo = memo = _CountingMemo()
        for path in ("/a", "/b", "/c"):
            parser.feed(f"GET {path} HTTP/1.1\r\n\r\n".encode())
            request = parser.next_request()
            assert (request.path, request.headers) == (path, {})
        assert memo.hits == 2

    def test_mutating_returned_headers_does_not_leak(self):
        parser = RequestParser()
        head = b"GET /m HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n\r\n"
        parser.feed(head)
        first = parser.next_request()
        first.headers["x-a"] = "changed"
        first.headers["injected"] = "yes"
        parser.feed(head)
        second = parser.next_request()  # a memo hit
        assert second.headers == {"host": "h", "x-a": "1"}
        second.headers.clear()
        parser.feed(head)
        assert parser.next_request().headers == {"host": "h", "x-a": "1"}

    def test_block_over_the_entry_bound_parses_but_is_not_stored(self):
        cookie = "c" * (RequestParser._MEMO_BLOCK + 100)
        head = f"GET /big HTTP/1.1\r\nCookie: {cookie}\r\n\r\n".encode()
        parser = RequestParser()
        for _ in range(2):
            parser.feed(head)
            request = parser.next_request()
            assert request == read_request(_reader(head))
        assert not parser._memo

    def test_memo_stays_bounded_over_distinct_blocks(self):
        parser = RequestParser()
        for index in range(10_000):
            parser.feed(f"GET /n HTTP/1.1\r\nX-N: {index}\r\n\r\n".encode())
            assert parser.next_request().headers == {"x-n": str(index)}
            assert len(parser._memo) <= RequestParser._MEMO_ENTRIES


# -- request framing: one body framing, no silent desync ---------------------

CHUNKED_POST = (b"POST /sink HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n")
CONFLICTING_LENGTHS = (b"POST /sink HTTP/1.0\r\nContent-Length: 5\r\n"
                       b"Content-Length: 2\r\n\r\nhello")


def _incremental_error(data):
    parser = RequestParser()
    parser.feed(data)
    with pytest.raises(HttpError) as excinfo:
        while parser.next_request() is not None:
            pass
    assert not parser._memo  # a rejected head is never memoized
    return excinfo.value


class TestRequestFraming:
    def test_transfer_encoding_is_501_in_both_parsers(self):
        with pytest.raises(HttpError) as excinfo:
            read_request(_reader(CHUNKED_POST))
        assert excinfo.value.status == 501
        assert _incremental_error(CHUNKED_POST).status == 501

    def test_conflicting_content_lengths_are_400_in_both_parsers(self):
        with pytest.raises(HttpError) as excinfo:
            read_request(_reader(CONFLICTING_LENGTHS))
        assert excinfo.value.status == 400
        assert _incremental_error(CONFLICTING_LENGTHS).status == 400

    def test_repeated_equal_content_length_is_one_length(self):
        data = (b"POST /x HTTP/1.0\r\nContent-Length: 2\r\n"
                b"Content-Length: 2\r\n\r\nok")
        _, got = parse_incremental(data, [data])
        assert got == [read_request(_reader(data))]
        assert got[0].body == b"ok"


@pytest.fixture()
def sink_server():
    """A server whose extension records every request it is handed."""
    seen = []

    def sink(request):
        seen.append(request)
        return Response(200, {}, b"sunk")

    server = NativeHttpServer()
    server.add_extension("/sink", sink, inline=True)
    server.start()
    yield server, seen
    server.stop()


def _exchange_until_close(port, payload, timeout=5.0):
    """Send raw bytes without half-closing; return everything the server
    sends before it closes (the timeout fails a server that never does)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as conn:
        conn.sendall(payload)
        received = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestRequestFramingOverSockets:
    def test_chunked_post_is_501_then_close_never_dispatched(
            self, sink_server):
        server, seen = sink_server
        raw = _exchange_until_close(server.port, CHUNKED_POST)
        assert raw.startswith(b"HTTP/1.0 501 Not Implemented\r\n")
        assert raw.endswith(b"\r\n\r\nnot implemented")
        assert raw.count(b"HTTP/1.") == 1  # the chunk line is not a request
        assert seen == []

    def test_conflicting_content_lengths_are_400_then_close(
            self, sink_server):
        server, seen = sink_server
        raw = _exchange_until_close(server.port, CONFLICTING_LENGTHS)
        assert raw.startswith(b"HTTP/1.0 400 Bad Request\r\n")
        assert raw.count(b"HTTP/1.") == 1
        assert seen == []
