"""The reactor's direct send.

When nothing is staged and exactly one finished response is owed, the
loop hands that response's bytes to the socket as they are and stages
only the part the kernel did not take.  These tests pin what must not
change with it: a response larger than the send buffer still arrives
whole and ahead of a pipelined successor, an HTTP/1.0 close still waits
for the last byte, and a streamed slot (whose bytes a domain host wrote
itself) sends nothing.  The peer reads nothing until the point a test
checks; waits are blocking reads, never sleeps.
"""

import io
import socket

import pytest

from repro.web import NativeHttpServer, read_response
from repro.web.httpd import _Connection, _EventLoop, _Slot

BIG = bytes(range(256)) * 1024  # far beyond the 4 KiB send buffer below


@pytest.fixture()
def server():
    server = NativeHttpServer(pool_workers=0)
    server.documents.put("/big", BIG)
    server.documents.put("/small", b"small")
    server.start()
    yield server
    server.stop()


def _attach(server):
    """One end of a socketpair for the reactor to adopt, its send buffer
    shrunk so the kernel takes only part of a large response; returns
    the peer end."""
    peer, served = socket.socketpair()
    served.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    server._place(served)
    peer.settimeout(10.0)
    return peer


def _read_to_eof(sock):
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return received
        received += chunk


class TestDirectSendOverSockets:
    def test_cut_short_response_then_pipelined_one_arrive_in_order(
            self, server):
        with _attach(server) as peer:
            peer.sendall(b"GET /big HTTP/1.1\r\n\r\n")
            # Blocks until the first send lands; the loop staged the
            # unsent tail in the same step, before it reads again.
            assert peer.recv(1, socket.MSG_PEEK) == b"H"
            peer.sendall(b"GET /small HTTP/1.1\r\n\r\n")
            reader = peer.makefile("rb")
            first = read_response(reader)
            second = read_response(reader)
            reader.close()
        assert (first.status, first.body) == (200, BIG)
        assert (second.status, second.body) == (200, b"small")

    def test_http10_close_waits_for_the_last_byte(self, server):
        with _attach(server) as peer:
            peer.sendall(b"GET /big HTTP/1.0\r\n\r\n")
            assert peer.recv(1, socket.MSG_PEEK) == b"H"
            raw = _read_to_eof(peer)
        response = read_response(io.BufferedReader(io.BytesIO(raw)))
        assert response.headers["connection"] == "close"
        assert response.body == BIG
        assert raw.endswith(BIG)


class _ShortSocket:
    """Takes at most ``accept`` bytes per send and records every call."""

    def __init__(self, accept):
        self.accept = accept
        self.sends = []

    def send(self, data):
        self.sends.append(data)
        return min(len(data), self.accept)

    def close(self):
        pass


@pytest.fixture()
def loop():
    loop = _EventLoop(NativeHttpServer(pool_workers=0), 0)  # not started
    yield loop
    loop._cleanup()


def _owe(conn, payload, close_after=False):
    slot = _Slot(close_after, "HTTP/1.1")
    slot.payload = payload
    slot.ready = True
    conn.pending.append(slot)
    return slot


class TestDirectSendUnit:
    def test_lone_response_is_sent_unstaged_and_only_its_tail_staged(
            self, loop):
        sock = _ShortSocket(accept=10)
        conn = _Connection(sock, loop.server._new_parser())
        slot = _owe(conn, b"x" * 10 + b"tail")
        loop._flush(conn)
        assert sock.sends[0] is slot.payload
        assert bytes(conn.out) == b"tail"
        assert not conn.pending

    def test_streamed_slot_sends_nothing(self, loop):
        sock = _ShortSocket(accept=1 << 20)
        conn = _Connection(sock, loop.server._new_parser())
        _owe(conn, b"")
        loop._flush(conn)
        assert sock.sends == []
        assert not conn.out and not conn.pending and not conn.closed

    def test_streamed_slot_that_must_close_closes_without_sending(
            self, loop):
        sock = _ShortSocket(accept=1 << 20)
        conn = _Connection(sock, loop.server._new_parser())
        _owe(conn, b"", close_after=True)
        loop._flush(conn)
        assert sock.sends == []
        assert conn.closed
