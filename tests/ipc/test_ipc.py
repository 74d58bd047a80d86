"""IPC substrate: framing and cross-process RPC."""

import socket
import threading

import pytest

from repro.ipc import (
    RpcClient,
    RpcError,
    RpcServerProcess,
    WireError,
    null_server,
    recv_frame,
    send_frame,
)


class TestWire:
    def _pair(self):
        return socket.socketpair()

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            send_frame(a, b"hello")
            assert recv_frame(b) == b"hello"
        finally:
            a.close()
            b.close()

    def test_empty_frame(self):
        a, b = self._pair()
        try:
            send_frame(a, b"")
            assert recv_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_multiple_frames_ordered(self):
        a, b = self._pair()
        try:
            for i in range(5):
                send_frame(a, bytes([i]))
            for i in range(5):
                assert recv_frame(b) == bytes([i])
        finally:
            a.close()
            b.close()

    def test_closed_mid_frame(self):
        a, b = self._pair()
        a.sendall(b"\x00\x00\x00\x10part")
        a.close()
        with pytest.raises(WireError, match="closed"):
            recv_frame(b)
        b.close()

    def test_clean_eof_between_frames_is_none_when_asked(self):
        a, b = self._pair()
        send_frame(a, b"last")
        a.close()
        try:
            assert recv_frame(b, eof_ok=True) == b"last"
            assert recv_frame(b, eof_ok=True) is None
            with pytest.raises(WireError, match="closed"):
                recv_frame(b)  # unasked, an EOF is always an error
        finally:
            b.close()

    def test_eof_inside_a_frame_is_an_error_even_when_asked(self):
        for partial in (b"\x00\x00", b"\x00\x00\x00\x10part"):
            a, b = self._pair()
            a.sendall(partial)  # mid-header, then mid-payload
            a.close()
            try:
                with pytest.raises(WireError, match="closed"):
                    recv_frame(b, eof_ok=True)
            finally:
                b.close()

    def test_oversized_frame_rejected(self):
        a, b = self._pair()
        try:
            with pytest.raises(WireError, match="too large"):
                send_frame(a, b"x" * (64 * 1024 * 1024 + 1))
        finally:
            a.close()
            b.close()


class TestNtRpc:
    def test_null_and_echo(self):
        with null_server() as server:
            with RpcClient(server.path) as client:
                assert client.call("null") == b""
                assert client.call("echo", b"payload") == b"payload"

    def test_unknown_method_raises(self):
        with null_server() as server:
            with RpcClient(server.path) as client:
                with pytest.raises(RpcError, match="no such method"):
                    client.call("missing")

    def test_handler_exception_propagates(self):
        def bad(payload):
            raise ValueError("server side broke")

        with RpcServerProcess({"bad": bad}) as server:
            with RpcClient(server.path) as client:
                with pytest.raises(RpcError, match="server side broke"):
                    client.call("bad")

    def test_many_sequential_calls(self):
        with null_server() as server:
            with RpcClient(server.path) as client:
                for i in range(100):
                    assert client.call("echo", str(i).encode()) == \
                        str(i).encode()

    def test_concurrent_clients(self):
        with null_server() as server:
            errors = []

            def worker():
                try:
                    with RpcClient(server.path) as client:
                        for i in range(20):
                            assert client.call("echo", b"x") == b"x"
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

    def test_crossing_real_process_boundary(self):
        import os

        parent_pid = os.getpid()

        def tell_pid(payload):
            return str(os.getpid()).encode()

        with RpcServerProcess({"pid": tell_pid}) as server:
            with RpcClient(server.path) as client:
                server_pid = int(client.call("pid"))
        assert server_pid != parent_pid


class TestNtRpcInProcess:
    """The server-side dispatch loop, driven without a fork (forked
    children are invisible to the coverage tracer; the protocol still
    deserves line-level pinning)."""

    def test_serve_connection_dispatch_and_errors(self):
        from repro.ipc.ntrpc import _serve_connection

        a, b = socket.socketpair()
        handlers = {
            "echo": lambda payload: payload,
            "none": lambda payload: None,
            "bad": lambda payload: 1 / 0,
        }
        worker = threading.Thread(
            target=_serve_connection, args=(b, handlers), daemon=True
        )
        worker.start()
        try:
            send_frame(a, b"echo\x00data")
            assert recv_frame(a) == b"\x00data"
            send_frame(a, b"none\x00")
            assert recv_frame(a) == b"\x00"  # None reply -> empty body
            send_frame(a, b"bad\x00")
            reply = recv_frame(a)
            assert reply[0] == 1 and b"ZeroDivisionError" in reply[1:]
            send_frame(a, b"missing\x00")
            reply = recv_frame(a)
            assert reply[0] == 1 and b"no such method" in reply[1:]
        finally:
            a.close()
            worker.join(5.0)
        assert not worker.is_alive()

    def test_serve_forever_in_thread(self, tmp_path):
        import uuid

        from repro.ipc.ntrpc import serve_forever

        path = str(tmp_path / f"rpc-{uuid.uuid4().hex[:8]}.sock")
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever,
            args=(path, {"null": lambda payload: b""}, ready),
            daemon=True,
        )
        thread.start()
        assert ready.wait(5.0)
        with RpcClient(path) as client:
            assert client.call("null") == b""
