"""SCM_RIGHTS reply streaming, end to end through the web stack.

An out-of-process servlet's host writes HTTP responses straight to the
browser's socket — the master passes the client-socket fd with the LRMI
call.  These tests drive real HTTP over real sockets and verify the
stream happened (not just that a correct response arrived), plus the
ordering guards, keep-alive behaviour and the write primitive itself.
"""

import os
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import Domain, check_permission
from repro.ipc import lrmi
from repro.web import JKernelWebServer, Servlet, ServletRequest, ServletResponse
from repro.web.jkweb import SystemServlet
from repro.web import streaming
from repro.web.client import fetch_many, fetch_once, fetch_pipelined
from repro.web.streaming import STREAMED, StreamWriteError, write_all_fd


def _body_servlet(payload):
    class BodyServlet(Servlet):
        def service(self, request):
            return ServletResponse(
                200, {"Content-Type": "application/octet-stream"}, payload
            )

    return BodyServlet


class _OfferSpy:
    """Records every stream offer the reactor publishes (master side)."""

    def __init__(self, monkeypatch):
        self.offers = []
        original = streaming.open_offer

        def spying(fd, version, keep_alive):
            offer = original(fd, version, keep_alive)
            self.offers.append(offer)
            return offer

        monkeypatch.setattr(streaming, "open_offer", spying)

    @property
    def streamed(self):
        return [offer for offer in self.offers if offer.streamed]


class TestStreamedReplies:
    def test_response_is_written_by_the_host(self, monkeypatch):
        """The HTTP bytes reach the client via the granted fd: the offer
        completes with the exact wire byte count, and the body is the
        servlet's — produced in another process."""
        payload = os.urandom(32 * 1024)
        spy = _OfferSpy(monkeypatch)
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/blob", _body_servlet(payload)
            )
            assert registration.stream_proxy is not None
            assert streaming.armed()
            response = fetch_once("127.0.0.1", jk.port, "/servlet/blob")
            assert response.status == 200
            assert response.body == payload
        completed = spy.streamed
        assert completed, "no offer was streamed"
        # the host reported writing a full HTTP response: status line +
        # headers + the body
        assert completed[0].granted
        assert completed[0].nbytes > len(payload)

    def test_keep_alive_connection_survives_streamed_replies(self,
                                                             monkeypatch):
        """Two sequential requests on ONE keep-alive connection, both
        streamed: the host formats for keep-alive and the reactor keeps
        the connection open."""
        payload = b"stream-keep-alive" * 100
        spy = _OfferSpy(monkeypatch)
        with JKernelWebServer(workers=1) as jk:
            jk.install_servlet_out_of_process("/ka", _body_servlet(payload))
            responses = fetch_many(
                "127.0.0.1", jk.port,
                ["/servlet/ka", "/servlet/ka"], version="HTTP/1.1",
            )
        assert [r.status for r in responses] == [200, 200]
        assert all(r.body == payload for r in responses)
        assert len(spy.streamed) == 2

    def test_pipelined_burst_keeps_response_order(self):
        """Back-to-back pipelined requests: the single-pending-slot guard
        refuses to stream when an earlier response is still owed, so the
        burst comes back complete and in order."""
        payload = b"pipelined-payload" * 64
        with JKernelWebServer(workers=1) as jk:
            jk.install_servlet_out_of_process("/pipe",
                                              _body_servlet(payload))
            responses = fetch_pipelined(
                "127.0.0.1", jk.port,
                ["/servlet/pipe"] * 4, version="HTTP/1.1",
            )
        assert [r.status for r in responses] == [200] * 4
        assert all(r.body == payload for r in responses)

    def test_inprocess_servlet_unaffected_while_armed(self, monkeypatch):
        """An armed server still answers in-process servlets through the
        marshalled path: the offer goes unclaimed and the normal
        formatter runs."""
        spy = _OfferSpy(monkeypatch)
        with JKernelWebServer(workers=1) as jk:
            jk.install_servlet_out_of_process(
                "/far", _body_servlet(b"far-body")
            )
            jk.install_servlet("/near", _body_servlet(b"near-body"))
            response = fetch_once("127.0.0.1", jk.port, "/servlet/near")
            assert response.status == 200
            assert response.body == b"near-body"
        unclaimed = [offer for offer in spy.offers
                     if not offer.granted and not offer.streamed]
        assert unclaimed, "in-process dispatch should leave offers unclaimed"

    def test_retire_disarms_streaming(self):
        with JKernelWebServer(workers=1) as jk:
            jk.install_servlet_out_of_process("/tmp",
                                              _body_servlet(b"x"))
            assert streaming.armed()
            jk.terminate_servlet("/tmp")
            assert not streaming.armed()

    def test_accounting_still_charges_streamed_requests(self):
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/acct", _body_servlet(b"charged")
            )
            for _ in range(3):
                assert fetch_once("127.0.0.1", jk.port,
                                  "/servlet/acct").status == 200
            deadline = time.monotonic() + 2.0
            while (registration.account.requests < 3
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert registration.account.requests == 3


class _FrameSpy:
    """Records the marshal format of every fd-granting frame this
    process sends: the streamed page calls."""

    def __init__(self, monkeypatch):
        self.formats = []
        original = lrmi._Connection._send_built

        def spying(connection, frame, splice_at, descriptors, fds=()):
            if fds:
                self.formats.append(frame[5])
            return original(connection, frame, splice_at, descriptors, fds)

        monkeypatch.setattr(lrmi._Connection, "_send_built", spying)


def _read_response(sock, size):
    sock.settimeout(5.0)
    data = b""
    while len(data) < size:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


class _GuardedServlet(Servlet):
    def service(self, request):
        check_permission("kv.write")
        return ServletResponse(200, {}, b"written")


class TestStreamedCallFrame:
    """The streamed page call goes out as the MF_CALL frame
    whoever calls: a restricted caller's compressed access-control
    context rides the same frame, after the arguments."""

    @staticmethod
    def _serve_one(gateway, caller=None):
        left, right = socket.socketpair()
        try:
            offer = streaming.open_offer(left.fileno(), "HTTP/1.0", False)
            request = ServletRequest("GET", "/servlet/frame",
                                     {"Host": "x", "Accept": "*/*"})
            call = lambda: gateway.service(request)  # noqa: E731
            result = call() if caller is None else caller.run(call)
            assert result is STREAMED
            assert offer.streamed and not offer.failed
            response = _read_response(right, offer.nbytes)
            assert len(response) == offer.nbytes
            assert response.endswith(b"frame-body")
        finally:
            streaming.close_offer()
            left.close()
            right.close()

    def test_restricted_and_unrestricted_calls_are_compiled(
            self, monkeypatch):
        spy = _FrameSpy(monkeypatch)
        restricted = Domain("restricted-caller")
        restricted.set_policy(["kv.read"])
        try:
            with JKernelWebServer(workers=1) as jk:
                registration = jk.install_servlet_out_of_process(
                    "/frame", _body_servlet(b"frame-body"))
                gateway = registration.capability
                self._serve_one(gateway)
                self._serve_one(gateway, caller=restricted)
                self._serve_one(gateway)
        finally:
            restricted.terminate()
        assert spy.formats == [lrmi.MF_CALL, lrmi.MF_CALL, lrmi.MF_CALL]

    def test_restricted_call_the_servlet_denies_is_403(self, monkeypatch):
        """The host enforces the context the frame carried: the servlet
        demands ``kv.write``, the caller's chain holds only ``kv.read``,
        and the page is Forbidden with nothing written to the socket."""
        spy = _FrameSpy(monkeypatch)
        restricted = Domain("restricted-caller")
        restricted.set_policy(["kv.read"])
        left, right = socket.socketpair()
        try:
            with JKernelWebServer(workers=1) as jk:
                registration = jk.install_servlet_out_of_process(
                    "/guarded", _GuardedServlet)
                route = SimpleNamespace(prefix="/servlet/guarded",
                                        registration=None,
                                        capability=registration.capability)
                request = ServletRequest("GET", "/servlet/guarded",
                                         {"Host": "x"})
                offer = streaming.open_offer(left.fileno(), "HTTP/1.0",
                                             False)
                try:
                    response = restricted.run(
                        lambda: SystemServlet._invoke(route, request))
                finally:
                    streaming.close_offer()
                # the same page from an unrestricted chain is served
                assert registration.capability.service(
                    request).status == 200
        finally:
            restricted.terminate()
            left.close()
            right.close()
        assert response.status == 403
        assert b"access denied" in response.body
        assert not offer.granted and not offer.streamed
        assert spy.formats == [lrmi.MF_CALL]


class TestWriteAllFd:
    def test_writes_larger_than_socket_buffer(self):
        """A payload far beyond the kernel buffer drains fully through
        the EAGAIN/select loop while a reader consumes concurrently."""
        left, right = socket.socketpair()
        left.setblocking(False)  # the reactor's socket is non-blocking
        payload = os.urandom(2 * 1024 * 1024)
        received = bytearray()

        def drain():
            while len(received) < len(payload):
                chunk = right.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            written = write_all_fd(left.fileno(), payload)
        finally:
            left.close()
            reader.join(5.0)
            right.close()
        assert written == len(payload)
        assert bytes(received) == payload

    def test_peer_close_raises_with_written_count(self):
        left, right = socket.socketpair()
        left.setblocking(False)
        right.close()
        with pytest.raises(StreamWriteError) as excinfo:
            write_all_fd(left.fileno(), b"x" * 4096)
        assert excinfo.value.written == 0
        left.close()

    def test_descriptor_above_fd_setsize(self, above_fd_setsize):
        """A client socket numbered past ``select``'s ceiling still
        drains through the EAGAIN wait, and a stalled peer still ends in
        a StreamWriteError carrying the count — never a ValueError after
        bytes went out."""
        left, right = socket.socketpair()
        left.setblocking(False)
        fd = above_fd_setsize(left.fileno())
        payload = os.urandom(2 * 1024 * 1024)
        received = bytearray()

        def drain():
            while len(received) < len(payload):
                chunk = right.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            assert write_all_fd(fd, payload) == len(payload)
            reader.join(5.0)
            assert bytes(received) == payload
            # nobody reads now: the buffer fills, then the wait times out
            with pytest.raises(StreamWriteError) as excinfo:
                write_all_fd(fd, payload, timeout=0.2)
            assert 0 < excinfo.value.written < len(payload)
        finally:
            left.close()
            right.close()

    def test_streamed_sentinel_is_singular(self):
        assert repr(STREAMED) == "<STREAMED>"
        assert streaming.claim() is None  # nothing open on this thread
