"""The hardened ntrpc transport, tested standalone.

PR 6 left ntrpc a Table 2 prototype: ``_serve_connection`` swallowed
``OSError``/``WireError`` with a bare except-pass, ``serve_forever``
leaked the bound socket path, and the client had no deadlines, no
retry, no liveness.  This suite pins the hardened behaviour of Table 2's NT-RPC
baseline (the fleet coordinator's transport until it moved onto
LRMI): typed errors for every failure mode, whole-call
deadlines that expire instead of hanging, bounded retry bridging a
server-process restart, built-in heartbeat, graceful stop, and
stale-socket recovery on bind.  The failure handling ntrpc shares with
the LRMI client (checkout eviction, fresh-dial replay, back-off) is
pinned for both in ``test_transport.py``.
"""

import os
import socket
import threading
import time

import pytest

from repro.bench.baselines.ntrpc import (
    PING_METHOD,
    RpcClient,
    RpcDeadlineError,
    RpcError,
    RpcHandlerError,
    RpcMethodNotFound,
    RpcServer,
    RpcServerProcess,
    RpcTransportError,
)
from repro.ipc.wire import send_frame

pytestmark = pytest.mark.timeout(60)


def _threaded_server(tmp_path, handlers, name="ntrpc.sock"):
    """An RpcServer serving from a daemon thread, ready when returned."""
    path = str(tmp_path / name)
    server = RpcServer(path, handlers)
    ready = threading.Event()
    thread = threading.Thread(target=server.serve, args=(ready,),
                              daemon=True)
    thread.start()
    assert ready.wait(5.0)
    return server, thread


class TestTypedErrors:
    def test_unknown_method_raises_method_not_found(self, tmp_path):
        server, _ = _threaded_server(tmp_path, {"ok": lambda p: p})
        try:
            with RpcClient(server.path) as client:
                with pytest.raises(RpcMethodNotFound) as err:
                    client.call("nope")
                assert "no such method" in str(err.value)
                # The connection survives the error: strict
                # request/reply keeps framing aligned.
                assert client.call("ok", b"x") == b"x"
        finally:
            server.stop()

    def test_handler_raise_crosses_as_handler_error(self, tmp_path):
        def boom(payload):
            raise ValueError("kaboom")

        server, _ = _threaded_server(tmp_path, {"boom": boom})
        try:
            with RpcClient(server.path) as client:
                with pytest.raises(RpcHandlerError) as err:
                    client.call("boom")
                assert "kaboom" in str(err.value)
        finally:
            server.stop()

    def test_dial_refused_is_transport_error(self, tmp_path):
        client = RpcClient(str(tmp_path / "nobody-home.sock"))
        with pytest.raises(RpcTransportError):
            client.call("anything")

    def test_error_hierarchy(self):
        # Callers catch RpcError for totality; deadlines are transport
        # errors (the wire state is unknown after expiry).
        assert issubclass(RpcTransportError, RpcError)
        assert issubclass(RpcDeadlineError, RpcTransportError)
        assert issubclass(RpcMethodNotFound, RpcError)
        assert issubclass(RpcHandlerError, RpcError)


class TestFraming:
    def test_mid_frame_disconnect_is_counted_not_swallowed(self, tmp_path):
        """The PR 6 prototype pass-ed this away; now it's a recorded
        typed error on the server."""
        server, _ = _threaded_server(tmp_path, {"ok": lambda p: p})
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(server.path)
            raw.sendall((10).to_bytes(4, "big") + b"abc")  # truncated
            raw.close()
            deadline = time.monotonic() + 5
            while not server.transport_errors and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.transport_errors
            assert isinstance(server.transport_errors[0],
                              RpcTransportError)
        finally:
            server.stop()

    def test_clean_disconnect_between_frames_is_not_an_error(
            self, tmp_path):
        server, _ = _threaded_server(tmp_path, {"ok": lambda p: p})
        try:
            with RpcClient(server.path) as client:
                assert client.call("ok", b"x") == b"x"
            time.sleep(0.05)  # let the serving thread observe the EOF
            assert server.transport_errors == []
        finally:
            server.stop()

    def test_oversized_frame_is_rejected(self, tmp_path):
        server, _ = _threaded_server(tmp_path, {"ok": lambda p: p})
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(server.path)
            send_frame(raw, b"ok\x00" + b"x")  # prove the path works
            raw.sendall((1 << 31).to_bytes(4, "big"))
            deadline = time.monotonic() + 5
            while not server.transport_errors and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert any("frame too large" in str(e)
                       for e in server.transport_errors)
            raw.close()
        finally:
            server.stop()

    def test_on_error_callback_sees_typed_error(self, tmp_path):
        seen = []
        path = str(tmp_path / "cb.sock")
        server = RpcServer(path, {"ok": lambda p: p},
                           on_error=seen.append)
        ready = threading.Event()
        threading.Thread(target=server.serve, args=(ready,),
                         daemon=True).start()
        assert ready.wait(5.0)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(path)
            raw.sendall((8).to_bytes(4, "big") + b"xy")
            raw.close()
            deadline = time.monotonic() + 5
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert seen and isinstance(seen[0], RpcTransportError)
        finally:
            server.stop()


class TestDeadlines:
    def test_call_deadline_expires_instead_of_hanging(self, tmp_path):
        release = threading.Event()

        def slow(payload):
            release.wait(30)
            return b"late"

        server, _ = _threaded_server(tmp_path, {"slow": slow})
        try:
            client = RpcClient(server.path, call_deadline=0.2)
            start = time.monotonic()
            with pytest.raises(RpcDeadlineError):
                client.call("slow")
            assert time.monotonic() - start < 5.0
        finally:
            release.set()
            server.stop()

    def test_per_call_deadline_overrides_client_default(self, tmp_path):
        release = threading.Event()

        def slow(payload):
            release.wait(30)
            return b"late"

        server, _ = _threaded_server(tmp_path, {"slow": slow})
        try:
            client = RpcClient(server.path)  # no default deadline
            with pytest.raises(RpcDeadlineError):
                client.call("slow", deadline=0.2)
        finally:
            release.set()
            server.stop()

    def test_deadline_expiry_is_never_retried(self, tmp_path):
        """A deadline bounds total wait; retrying past it would turn
        the bound into a suggestion."""
        calls = []
        release = threading.Event()

        def slow(payload):
            calls.append(1)
            release.wait(30)
            return b"late"

        server, _ = _threaded_server(tmp_path, {"slow": slow})
        try:
            client = RpcClient(server.path, call_deadline=0.2, retries=5)
            with pytest.raises(RpcDeadlineError):
                client.call("slow")
            time.sleep(0.1)
            assert len(calls) == 1
        finally:
            release.set()
            server.stop()

    def test_waiting_for_the_shared_socket_spends_the_deadline(
            self, tmp_path):
        """Calls on one client are serialized; the wait for another
        caller's round trip counts against this call's deadline."""
        seen = []

        def slow(payload):
            time.sleep(0.5)
            return b"done"

        server, _ = _threaded_server(
            tmp_path, {"slow": slow, "fast": seen.append})
        try:
            client = RpcClient(server.path)
            first = threading.Thread(target=client.call, args=("slow",))
            first.start()
            time.sleep(0.1)  # the slow call now holds the socket
            with pytest.raises(RpcDeadlineError):
                client.call("fast", deadline=0.2)
            first.join(5.0)
            assert not first.is_alive()
            assert seen == []  # expired before it was ever sent
        finally:
            server.stop()

    def test_invalid_call_deadline_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RpcClient("/nonexistent", call_deadline=0)


class TestRetryAndCheckout:
    def test_retry_bridges_a_server_restart(self, tmp_path):
        with RpcServerProcess({"echo": lambda p: p}) as first:
            client = RpcClient(first.path, retries=8, backoff=0.05)
            assert client.call("echo", b"a") == b"a"
            first.kill()  # crash: stale socket path left behind

            # Restart on the SAME path in the background while the
            # client is mid-retry.
            second = RpcServerProcess({"echo": lambda p: p})
            second.path = first.path

            def respawn():
                time.sleep(0.15)
                second.start()

            threading.Thread(target=respawn, daemon=True).start()
            try:
                assert client.call("echo", b"b") == b"b"
            finally:
                second.stop()

    def test_no_retries_by_default(self, tmp_path):
        with RpcServerProcess({"echo": lambda p: p}) as server:
            client = RpcClient(server.path)
            assert client.call("echo", b"a") == b"a"
            server.kill()
            with pytest.raises(RpcTransportError):
                client.call("echo", b"b")


class TestHeartbeat:
    def test_ping_answered_by_the_serve_loop(self, tmp_path):
        # No handler registered for __ping__: the loop itself answers.
        server, _ = _threaded_server(tmp_path, {})
        try:
            with RpcClient(server.path) as client:
                assert client.ping()
        finally:
            server.stop()

    def test_registered_handler_shadows_builtin_ping(self, tmp_path):
        server, _ = _threaded_server(
            tmp_path, {PING_METHOD: lambda p: b"custom"})
        try:
            with RpcClient(server.path) as client:
                assert client.call(PING_METHOD) == b"custom"
        finally:
            server.stop()

    def test_ping_deadline_expires_against_wedged_server(self, tmp_path):
        # A bound-but-never-accepting socket: connect succeeds (backlog),
        # the ping round trip cannot complete.
        path = str(tmp_path / "wedged.sock")
        wedge = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        wedge.bind(path)
        wedge.listen(1)
        try:
            client = RpcClient(path)
            with pytest.raises(RpcDeadlineError):
                client.ping(deadline=0.2)
        finally:
            wedge.close()


class TestServerLifecycle:
    def test_stop_unlinks_socket_path(self, tmp_path):
        server, thread = _threaded_server(tmp_path, {"ok": lambda p: p})
        path = server.path
        assert os.path.exists(path)
        server.stop()
        thread.join(5.0)
        assert not os.path.exists(path)

    def test_stop_unblocks_connected_clients(self, tmp_path):
        server, thread = _threaded_server(tmp_path, {"ok": lambda p: p})
        client = RpcClient(server.path).connect()
        assert client.call("ok", b"x") == b"x"
        server.stop()
        thread.join(5.0)
        with pytest.raises(RpcTransportError):
            client.call("ok", b"y")

    def test_bind_recovers_stale_socket_from_crashed_predecessor(
            self, tmp_path):
        """The PR 6 serve_forever leaked its path: a restart on the
        same address failed with EADDRINUSE.  bind() now unlinks the
        stale path, mirroring DomainHostProcess.start."""
        path = str(tmp_path / "stale.sock")
        first = RpcServerProcess({"echo": lambda p: p})
        first.path = path
        first.start()
        with RpcClient(path) as client:
            assert client.call("echo", b"a") == b"a"
        first.kill()  # SIGKILL: socket path deliberately left behind
        assert os.path.exists(path)

        second = RpcServerProcess({"echo": lambda p: p})
        second.path = path
        second.start()  # must not fail on the stale path
        try:
            with RpcClient(path) as client:
                assert client.call("echo", b"b") == b"b"
        finally:
            second.stop()

    def test_double_stop_is_idempotent(self, tmp_path):
        server, thread = _threaded_server(tmp_path, {"ok": lambda p: p})
        server.stop()
        server.stop()
        thread.join(5.0)
