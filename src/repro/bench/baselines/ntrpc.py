"""Local RPC between real OS processes (the NT-RPC analogue, Table 2).

A server process listens on a Unix-domain socket and dispatches framed
requests to registered handlers; a client makes synchronous calls.  Every
call crosses a genuine process boundary twice — the cost the paper's
Table 2 contrasts with in-process calls (a factor of ~3000).

It is a comparator, not part of the product: the product's one
cross-process call is LRMI (``repro.ipc.lrmi``).  Supervising the server
process and hardening the client (pool, checkout probe, whole-call
deadline, replay, back-off) are the transport core's job
(``repro.ipc.transport``); this module is the protocol: a request is
``method\x00payload``, a reply a status byte plus body; strictly
request/reply, so an idle connection that turns readable is dead and one
socket used under a lock is the whole pool; every failure is an
:class:`RpcError` subclass; and every server answers
:data:`PING_METHOD` from the serve loop itself, so a ping proves the
dispatch path is alive, not merely that the process holds the socket.
"""

from __future__ import annotations

import socket
import threading

from repro.ipc.transport import (
    CALL_TIMEOUT,
    Channel,
    EndpointProcess,
    SocketServer,
    apply_deadline,
    never_readable,
    socket_path,
)
from repro.ipc.wire import WireError, recv_frame, send_frame

_OK = 0
_ERR = 1

#: Error kinds carried inside an ``_ERR`` payload as ``kind\x00detail``.
_KIND_APP = b"app"
_KIND_UNKNOWN = b"unknown"

#: Reserved liveness method every :class:`RpcServer` answers itself.
PING_METHOD = "__ping__"


class RpcError(Exception):
    """Remote handler raised, or the transport failed (base class)."""


class RpcTransportError(RpcError):
    """The transport failed: dial refused, framing violated, or the
    connection died mid-call.  Retryable when the caller opted in."""

    timed_out = False


class RpcDeadlineError(RpcTransportError):
    """The whole-call deadline expired.  Never retried internally: the
    deadline bounds the *total* time the caller is willing to wait."""

    timed_out = True


class RpcMethodNotFound(RpcError):
    """The server has no handler registered under the requested name."""


class RpcHandlerError(RpcError):
    """The remote handler raised; the message carries its ``repr``."""


def _error_frame(kind, detail):
    return bytes([_ERR]) + kind + b"\x00" + detail.encode("utf-8", "replace")


def _serve_connection(conn, handlers):
    """Dispatch loop for one accepted connection.

    Returns on a clean disconnect between frames; a transport failure
    (``WireError``/``OSError``) propagates to the accept loop, which
    counts it — never silently swallowed.
    """
    try:
        while True:
            frame = recv_frame(conn, eof_ok=True)
            if frame is None:
                break  # clean disconnect between frames
            sep = frame.index(b"\x00")
            method = frame[:sep].decode("utf-8")
            payload = frame[sep + 1:]
            handler = handlers.get(method)
            if handler is None:
                if method == PING_METHOD:
                    # Liveness built into the serve loop itself: a pong
                    # proves dispatch works, not just that the process
                    # holds the socket open.
                    send_frame(conn, bytes([_OK]) + b"pong")
                    continue
                send_frame(conn, _error_frame(
                    _KIND_UNKNOWN, f"no such method {method}"))
                continue
            try:
                reply = handler(payload)
            except Exception as exc:
                send_frame(conn, _error_frame(_KIND_APP, repr(exc)))
                continue
            send_frame(conn, bytes([_OK]) + (reply or b""))
    finally:
        conn.close()


class RpcServer(SocketServer):
    """A supervised ntrpc server: bind, serve, stop — all explicit.

    ``handlers`` maps method name -> ``fn(bytes) -> bytes``.  Transport
    failures on serving connections are collected in
    :attr:`transport_errors` (bounded) and reported through ``on_error``
    when given; :data:`PING_METHOD` is always answered.
    """

    MAX_RECORDED_ERRORS = 64

    def __init__(self, path=None, handlers=None, *, on_error=None):
        super().__init__(
            path or socket_path("repro-rpc"),
            lambda conn: _serve_connection(conn, self.handlers),
            on_error=self._note_transport_error,
            bind_error=RpcTransportError)
        self.handlers = dict(handlers or {})
        self.on_error = on_error
        self.transport_errors = []

    def _note_transport_error(self, exc):
        error = RpcTransportError(f"connection failed mid-dispatch: {exc}")
        with self._lock:
            if len(self.transport_errors) < self.MAX_RECORDED_ERRORS:
                self.transport_errors.append(error)
        if self.on_error is not None:
            try:
                self.on_error(error)
            except Exception:
                pass  # a broken observer must not take the server down


def serve_forever(path, handlers, ready_event=None):
    """Accept loop (runs in the server process) until the listener dies
    — :class:`RpcServer` without the object, kept for the Table 2
    fixtures."""
    RpcServer(path, handlers).serve(ready_event)


class RpcServerProcess(EndpointProcess):
    """Forks a child process serving ``handlers`` on a fresh socket path.

    ``handlers`` maps method name -> ``fn(bytes) -> bytes`` and must be
    picklable-free: we fork, so closures are fine.
    """

    def __init__(self, handlers):
        super().__init__(socket_path("repro-rpc"), "rpc server",
                         lambda: serve_forever(self.path, handlers),
                         error=RpcTransportError)


class RpcClient(Channel):
    """Synchronous client for one server socket.

    Robustness knobs (all off by default, preserving the Table 2 path):

    * ``call_deadline`` — seconds bounding each whole round trip;
      expiry raises :class:`RpcDeadlineError`.
    * ``retries``/``backoff`` — bounded exponential-backoff retry after
      a transport failure.  ntrpc is strict request/reply, so a retried
      request may execute twice on the server — enable only for
      idempotent method sets.
    """

    transport_error = RpcTransportError
    peer_label = "rpc server"
    idle_readable_ok = staticmethod(never_readable)

    def __init__(self, path, *, timeout=CALL_TIMEOUT, call_deadline=None,
                 retries=0, backoff=0.05):
        super().__init__(path, timeout=timeout, pool_size=1,
                         call_deadline=call_deadline, retries=retries,
                         backoff=backoff)
        # Calls are serialized: one socket, one request in flight.
        self._lock = threading.Lock()

    def connect(self):
        """Dial now rather than on the first call."""
        with self._lock:
            connection, _reused = self._checkout()
            self._release(connection)
        return self

    def _exchange_frames(self, connection, method, payload, deadline):
        sock = connection.sock
        try:
            apply_deadline(sock, deadline, self.timeout)
            send_frame(sock, method.encode("utf-8") + b"\x00" + payload)
            apply_deadline(sock, deadline, self.timeout)
            reply = recv_frame(sock)
            if deadline is not None:
                sock.settimeout(self.timeout)  # the socket is pooled next
        except socket.timeout:
            connection.close()
            raise RpcDeadlineError(
                f"call {method!r} exceeded its deadline") from None
        except (OSError, WireError) as exc:
            connection.close()
            raise RpcTransportError(
                f"transport failed calling {method!r}: {exc}") from None
        return self._decode(reply)

    @staticmethod
    def _decode(reply):
        if reply[:1] == bytes([_OK]):
            return reply[1:]
        kind, _, detail = reply[1:].partition(b"\x00")
        text = detail.decode("utf-8", "replace")
        if kind == _KIND_UNKNOWN:
            raise RpcMethodNotFound(text)
        raise RpcHandlerError(text)

    def call(self, method, payload=b"", *, deadline=None):
        """One round trip; the reply body on success, typed errors else.
        ``deadline`` (seconds) overrides the client's ``call_deadline``
        for this call; every method is retried when ``retries`` is set.
        """
        # Taken before the lock: waiting for another caller's round trip
        # spends this call's time too.
        deadline_at = self._deadline(deadline)
        with self._lock:
            return self._roundtrip(
                lambda connection: self._exchange_frames(
                    connection, method, payload, deadline_at),
                deadline_at, retry=True,
            )

    def ping(self, *, deadline=None):
        """Heartbeat round trip; True when the serve loop answered."""
        return self.call(PING_METHOD, deadline=deadline) == b"pong"

    def __enter__(self):
        return self.connect()


def null_server():
    """An RPC server whose ``null`` method does nothing (Table 2 workload)."""
    return RpcServerProcess({"null": lambda payload: b"",
                             "echo": lambda payload: payload})
