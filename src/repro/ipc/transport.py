"""The transport core: one supervised endpoint, one client channel.

Every process crossing here — the cross-process LRMI domain hosts (the
fleet's hosts among them) and the Table 2 ``ntrpc`` baseline
(``repro.bench.baselines.ntrpc``) — carries the paper's guarantee that a
callee "can neither block nor kill its caller's thread" through the same
two mechanisms, which exist once, in this module:
:class:`EndpointProcess` (fork a child that serves on a socket path and
supervise it; :class:`SocketServer` is the accept loop it runs) and
:class:`Channel` (the caller's pool, probe, deadline, replay, back-off).
``lrmi`` and ``ntrpc`` supply what is theirs: how a dialed socket is
wrapped, what an idle-but-readable socket means, which typed errors to
raise, which calls may be retried.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import tempfile
import threading
import time
import traceback
import uuid

from .wire import WireError

#: Default per-operation socket timeout: generous enough for a slow
#: servlet or a loaded host, small enough that a wedged peer cannot hang
#: its callers.
CALL_TIMEOUT = 30.0

#: A pooled connection released within this many seconds skips the
#: checkout health probe: the probe is a freshness snapshot anyway, and
#: probing a socket that was alive microseconds ago spends a syscall to
#: learn nothing.
PROBE_FRESH_S = 0.005

#: How long ``start()`` waits for the child's socket to accept a
#: connection, how often it looks, and how often the child checks that
#: its parent is still its parent.
STARTUP_TIMEOUT_S = 10.0
STARTUP_POLL_S = 0.005
ORPHAN_POLL_S = 0.1


def socket_path(prefix):
    """A fresh ``<tmp>/<prefix>-<12 hex>.sock`` path."""
    return os.path.join(tempfile.gettempdir(),
                        f"{prefix}-{uuid.uuid4().hex[:12]}.sock")


def _unlink(path):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


# -- the supervised endpoint --------------------------------------------------

class SocketServer:
    """Threaded accept loop on a UNIX socket path.  ``handle(conn)`` runs
    on one tracked thread per connection and returns on a clean
    disconnect; an ``OSError``/``WireError`` it raises is counted in
    :attr:`connection_errors` and passed to ``on_error`` — never
    swallowed, unless :meth:`stop` caused it."""

    def __init__(self, path, handle, *, on_error=None, bind_error=OSError):
        self.path = path
        self._bind_error = bind_error
        self.stopping = False
        self.connection_errors = 0
        self._handle = handle
        self._on_error = on_error
        self._listener = None
        self._lock = threading.Lock()
        self._conns = {}  # live connection socket -> its serving thread

    def bind(self):
        # A crashed predecessor leaves its socket file behind, which
        # would make this bind fail.
        _unlink(self.path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.path)
        except OSError as exc:
            listener.close()
            raise self._bind_error(
                f"cannot bind {self.path}: {exc}") from None
        listener.listen(16)
        self._listener = listener
        return self

    def serve(self, ready_event=None):
        """Accept loop; returns after :meth:`stop` (or listener death)."""
        if self._listener is None:
            self.bind()
        if ready_event is not None:
            ready_event.set()
        try:
            while not self.stopping:
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # stop() closed the listener under us
                worker = threading.Thread(target=self._serve_connection,
                                          args=(conn,), daemon=True)
                with self._lock:
                    if self.stopping:
                        conn.close()
                        break
                    self._conns[conn] = worker
                worker.start()
        finally:
            # stop() unlinks for itself; by the time this thread wakes
            # from accept() a successor may already own the path.
            if not self.stopping:
                _unlink(self.path)

    def _serve_connection(self, conn):
        try:
            self._handle(conn)
        except (OSError, WireError) as exc:
            if not self.stopping:
                with self._lock:
                    self.connection_errors += 1
                if self._on_error is not None:
                    self._on_error(exc)
        finally:
            conn.close()
            with self._lock:
                self._conns.pop(conn, None)

    def stop(self, timeout=2.0):
        """Graceful stop: close the listener and every live connection,
        join the serving threads, unlink the socket path."""
        self.stopping = True
        with self._lock:
            live = list(self._conns.items())
        sockets = [conn for conn, _worker in live]
        if self._listener is not None:
            sockets.append(self._listener)
        for sock in sockets:
            # shutdown first: close alone neither wakes a thread blocked
            # in accept()/recv() on the socket nor shows the peer an EOF.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer hung up first, or stop() ran already
            sock.close()
        for _conn, worker in live:
            worker.join(timeout)
        _unlink(self.path)


class EndpointProcess:
    """A forked child serving on ``self.path``, supervised by its parent.

    ``serve()`` is the child's body: bind the path and serve until
    killed (closures are fine, nothing is pickled).  A failed start
    raises ``error``, naming the endpoint by ``label``; ``reclaim(pid)``
    collects what a dead child left behind besides its socket path (a
    SIGKILL gives its own exit hooks no chance).
    """

    def __init__(self, path, label, serve, *, error, reclaim=None):
        self.path = path
        # What stop() unlinks: the path the last start() bound, so a
        # ``path`` reassigned while the child runs cannot orphan its file.
        self._bound_path = path
        self.start_error = error
        self._label = label
        self._serve = serve
        self._reclaim = reclaim
        self.pid = None  # of the running child; None once it is reaped
        # The last pid forked, remembered past alive()'s reaping so
        # stop() can still hand it to reclaim.
        self._spawned_pid = None

    def start(self):
        # Restart-in-place after a crash: the dead child's socket file
        # survives it and would make the new child's bind fail.
        _unlink(self.path)
        self._bound_path = self.path
        parent_pid = os.getpid()
        pid = os.fork()
        if pid == 0:
            self._child(parent_pid)
        self.pid = self._spawned_pid = pid
        try:
            self._await_ready()
        except BaseException:
            # Nobody holds this object once start() raises: a child left
            # running would serve forever with no one to stop it.
            self.stop()
            raise
        return self

    def _child(self, parent_pid):
        status = 0
        try:
            threading.Thread(target=_exit_when_orphaned, args=(parent_pid,),
                             daemon=True, name="orphan-watchdog").start()
            self._serve()
        except BaseException:
            # Print BEFORE exiting: a bare os._exit would swallow the
            # failure entirely, leaving the parent's generic "died
            # during startup" as the only (useless) signal.
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)

    def _await_ready(self):
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if not self.alive():
                raise self.start_error(f"{self._label} died during startup")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.path)
                return
            except OSError:
                time.sleep(STARTUP_POLL_S)
            finally:
                probe.close()
        raise self.start_error(f"{self._label} socket did not appear")

    def alive(self):
        if self.pid is None:
            return False
        try:
            pid, _status = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == self.pid:
            self.pid = None
            return False
        return True

    def kill(self):
        """SIGKILL without unlinking the socket path — a *crash*, not a
        stop: the stale path stays behind exactly as a dead machine's
        address would, and is what a restart must cope with."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already dead, or reaped by a concurrent alive()
            self.pid = None

    def stop(self):
        self.kill()
        pid, self._spawned_pid = self._spawned_pid, None
        if pid is not None and self._reclaim is not None:
            self._reclaim(pid)
        _unlink(self._bound_path)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


def _exit_when_orphaned(parent_pid):
    # Against the REAL parent pid captured at fork: comparing against 1
    # would self-destruct every child whose parent itself runs as PID 1
    # (containers).
    while os.getppid() == parent_pid:
        time.sleep(ORPHAN_POLL_S)
    os._exit(0)


# -- the client channel -------------------------------------------------------

def never_readable(sock):
    """Idle rule of a strict request/reply protocol: an idle connection
    has nothing to read, so a readable one is dead or broke protocol."""
    return False


def readable_unless_eof(sock):
    """Idle rule of a protocol with unsolicited frames: pending *data*
    is healthy (the next receive loop consumes it); only EOF is dead."""
    return bool(sock.recv(1, socket.MSG_PEEK))


def apply_deadline(sock, deadline, base_timeout):
    """Bound the next socket operation by what is left of a whole call:
    a peer that keeps every single recv under the socket timeout still
    cannot hold the caller past ``deadline`` (a ``time.monotonic``
    instant; None leaves the per-operation timeout alone).  The caller
    restores ``base_timeout`` before the connection is reused."""
    if deadline is None:
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise socket.timeout("call deadline exceeded")
    if base_timeout is None or remaining < base_timeout:
        sock.settimeout(remaining)


def _retryable(exc):
    """Only a transport failure that *says* it was not a timeout may be
    sent again; one without the mark was not raised by the transport at
    all — it is the callee's own failure, delivered as the reply."""
    return getattr(exc, "timed_out", True) is False


class Connection:
    """The least a :class:`Channel` pools; a protocol with per-connection
    state pools its own object with these attributes."""

    __slots__ = ("sock", "closed", "last_released")

    def __init__(self, sock):
        self.sock = sock
        self.closed = False
        self.last_released = 0.0  # pool-release stamp (probe freshness)

    def close(self):
        self.closed = True
        self.sock.close()


class Channel:
    """The client's side of one server socket path: a pool of dialed
    connections probed at checkout, a deadline over the whole call, one
    replay on a fresh dial when a reused connection fails, bounded
    back-off for idempotent calls (``docs/robustness-notes.md`` walks
    through one call).  A timeout is terminal everywhere: the time is
    spent and the request may have executed.  A call that granted a file
    descriptor is never sent twice: its caller uses :meth:`_checkout`
    and :meth:`_release` and nothing else.

    A protocol's client subclasses this, sets the three attributes
    below, may override :meth:`_wrap`, and passes :meth:`_roundtrip` an
    ``invoke(connection)`` that does its exchange — on failure closing
    the connection and raising ``transport_error``, its ``timed_out``
    False unless a socket timeout caused it.
    """

    #: Raised for a refused dial and a closed channel; what the replay
    #: and back-off logic catches.
    transport_error = OSError
    peer_label = "server"  # names the far end in dial failures
    #: Whether an idle pooled socket that selects readable is healthy.
    idle_readable_ok = staticmethod(never_readable)

    def __init__(self, path, *, timeout, pool_size, call_deadline=None,
                 retries=0, backoff=0.05):
        if call_deadline is not None and call_deadline <= 0:
            raise ValueError("call_deadline must be positive or None")
        self.path = path
        self.timeout = timeout
        self.pool_size = pool_size
        self.call_deadline = call_deadline
        self.retries = retries
        self.backoff = backoff
        self._free = []
        self._pool_lock = threading.Lock()
        self._closed = False
        # Counters, all off the per-call path and bumped under the lock.
        self.dials = 0
        self.evicted = 0  # half-dead pooled connections dropped at checkout
        self.fresh_dial_replays = 0
        self.backoff_retries = 0

    def _wrap(self, sock):
        return Connection(sock)

    def _failure(self, message):
        error = self.transport_error(message)
        error.timed_out = False
        return error

    def _deadline(self, limit=None):
        """When a call starting now must be over (``limit`` seconds
        overrides ``call_deadline``); None for never."""
        if limit is None:
            limit = self.call_deadline
        return None if limit is None else time.monotonic() + limit

    def _dial(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.path)
        except OSError as exc:
            sock.close()
            raise self._failure(
                f"cannot reach {self.peer_label} at {self.path}: {exc}"
            ) from None
        with self._pool_lock:
            self.dials += 1
        return self._wrap(sock)

    def _healthy(self, connection):
        """Zero-timeout snapshot of an idle pooled connection (``poll``,
        which, unlike ``select``, takes descriptors above
        ``FD_SETSIZE``)."""
        sock = connection.sock
        try:
            poller = select.poll()
            poller.register(sock, select.POLLIN)
            return not poller.poll(0) or self.idle_readable_ok(sock)
        except (OSError, ValueError):
            return False

    def _checkout(self):
        """``(connection, reused)`` — reused means it came out of the
        pool, so its health is only a snapshot (see :meth:`_exchange`)."""
        if self._closed:
            raise self._failure(f"client for {self.path} is closed")
        while True:
            with self._pool_lock:
                if not self._free:
                    break
                connection = self._free.pop()
            if (time.monotonic() - connection.last_released < PROBE_FRESH_S
                    or self._healthy(connection)):
                return connection, True
            with self._pool_lock:
                self.evicted += 1
            connection.close()
        return self._dial(), False

    def _release(self, connection):
        if connection.closed:
            return
        connection.last_released = time.monotonic()
        with self._pool_lock:
            if not self._closed and len(self._free) < self.pool_size:
                self._free.append(connection)
                return
        connection.close()

    def _drain(self):
        """Refuse further checkouts; the caller closes what was pooled."""
        with self._pool_lock:
            self._closed = True
            connections, self._free = self._free, []
        return connections

    def close(self):
        for connection in self._drain():
            connection.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _exchange(self, connection, reused, deadline, invoke):
        """The replay: the checkout probe is a snapshot, and a peer that
        restarted between probe and send leaves a socket that probes
        healthy but resets on use.  A call that went out on a fresh dial
        failed against current state, so it surfaces immediately."""
        try:
            try:
                return invoke(connection)
            except self.transport_error as exc:
                if not reused or not _retryable(exc):
                    raise
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                connection = self._dial()
                with self._pool_lock:
                    self.fresh_dial_replays += 1
                return invoke(connection)
        finally:
            self._release(connection)

    def _roundtrip(self, invoke, deadline, *, retry=False):
        """One whole call of ``invoke(connection)``, over by ``deadline``
        (see :meth:`_deadline`).  ``retry`` marks it idempotent."""
        attempts = 1 + (self.retries if retry else 0)
        delay = self.backoff
        while True:
            attempts -= 1
            try:
                # The checkout is inside the loop: during an outage the
                # failure IS the dial (connection refused), and retrying
                # only the exchange would never bridge a restart.
                connection, reused = self._checkout()
                return self._exchange(connection, reused, deadline, invoke)
            except self.transport_error as exc:
                if attempts <= 0 or self._closed or not _retryable(exc):
                    raise
                pause = min(delay, 1.0)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise
                    pause = min(pause, remaining)
                with self._pool_lock:
                    self.backoff_retries += 1
                time.sleep(pause)
                delay *= 2
