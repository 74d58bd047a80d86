"""The native HTTP server (the IIS analogue of §4 / Table 5).

Event-driven reactor edition.  A single acceptor thread feeds N
selector-based worker event loops through bounded hand-off queues (real
backpressure: when every loop's queue is full the acceptor stops
accepting and lets the kernel backlog absorb the burst).  Each loop runs
non-blocking sockets through an incremental HTTP/1.1 parser with
keep-alive and pipelining, pausing reads on any connection whose
pipeline, parse buffer or write buffer exceeds its bound.

Documents (the NT file-cache analogue) are served on the loop itself
from a per-loop LRU cache of preformatted response bytes, invalidated by
the document store's generation counter.  *Extension* handlers
registered under URL prefixes intercept matching requests — exactly the
role ISAPI extensions play for IIS; the J-Kernel attaches through such
an extension (``repro.web.isapi``).  An extension runs either inline on
the loop thread ("it allows the Java code to run in the same thread as
IIS uses to invoke the bridge", §4) or on a bounded domain worker pool
that keeps a slow handler from stalling the loop; when the pool is
saturated the request is answered 503 instead of queueing unboundedly.

Every shared counter is a :class:`~repro.core.accounting.ShardedCounter`
(the seed's bare ``requests_served += 1`` lost updates under concurrent
connections).
"""

from __future__ import annotations

import heapq
import selectors
import socket
import threading
import time
from collections import OrderedDict, deque

from repro.core.accounting import ShardedCounter

from .http import REASONS, HttpError, RequestParser, Response, format_response
from . import streaming as _streaming

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

_RECV_SIZE = 65536

#: Sentinel from accept_next: the listener is done, stop accepting.
ACCEPT_STOP = object()


def make_listener(host, port, *, reuse_port=False, backlog=128,
                  timeout=0.2):
    """A bound, listening TCP socket ready for an accept loop.

    ``reuse_port=True`` sets ``SO_REUSEPORT`` so several processes can
    bind the same port and let the kernel spread connections across them
    (the prefork tier's primary mode); it raises ``OSError`` on platforms
    without the option, letting callers fall back to sharing one
    inherited listener fd across forks instead.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not available")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(backlog)
        if timeout is not None:
            sock.settimeout(timeout)
    except BaseException:
        sock.close()
        raise
    return sock


def accept_next(listener, is_running):
    """One accept attempt with transient-error retry semantics.

    Returns the accepted socket, None to poll again (timeout or a
    transient error such as ECONNABORTED/EMFILE), or :data:`ACCEPT_STOP`
    when shutdown/listener closure ends the accept loop.  Shared by the
    reactor's and JWS's acceptor threads so the retry policy cannot
    drift between them."""
    try:
        sock, _ = listener.accept()
        return sock
    except socket.timeout:
        return None
    except OSError:
        if not is_running() or listener.fileno() == -1:
            return ACCEPT_STOP
        time.sleep(0.01)
        return None


class DocumentStore:
    """In-memory documents served on the fast path.

    Every mutation bumps the store-wide ``generation`` and stamps the
    touched path with it; response caches tag entries with the *path's*
    stamp (``version(path)``) and treat any mismatch as a miss — so a
    ``put`` is visible on the next request without cross-thread
    invalidation calls, and mutating one document never invalidates the
    cached responses of any other.
    """

    def __init__(self):
        self._documents = {}
        self._versions = {}
        self._lock = threading.Lock()
        self.generation = 0

    def put(self, path, body, content_type="text/html"):
        if isinstance(body, str):
            body = body.encode("utf-8")
        # The bump is locked: a lost generation increment (the classic
        # read-modify-write race) would let caches serve stale entries
        # as fresh forever.  Reads stay lock-free (single dict probes).
        with self._lock:
            self._documents[path] = (body, content_type)
            self.generation += 1
            self._versions[path] = self.generation
        return self

    def remove(self, path):
        with self._lock:
            removed = self._documents.pop(path, None)
            if removed is not None:
                self.generation += 1
                self._versions[path] = self.generation
        return removed

    def get(self, path):
        return self._documents.get(path)

    def version(self, path):
        """The path's last-mutation stamp (0 for never-touched paths)."""
        return self._versions.get(path, 0)

    def paths(self):
        return sorted(self._documents)


class ResponseCache:
    """LRU of preformatted document responses.

    Keyed by ``(path, version, keep_alive)`` so the cached bytes carry
    the right status line and Connection header.  One instance per event
    loop: single-threaded access, no lock.  Entries are tagged with the
    document's per-path version stamp; stale entries read as misses.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses")

    def __init__(self, capacity=256):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key, generation):
        entry = self._entries.get(key)
        if entry is None or entry[0] != generation:
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[1]

    def put(self, key, generation, payload):
        entries = self._entries
        entries[key] = (generation, payload)
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def __len__(self):
        return len(self._entries)


#: Response carrier types _safe_handle has vetted (status/headers/body
#: protocol): one set probe on the hot path instead of three hasattrs.
KNOWN_RESPONSE_TYPES = {Response}


def _safe_handle(handler, request):
    """Run one extension handler; failures become 500s, never raises.

    Handlers may return :class:`~repro.web.http.Response` or any
    duck-compatible carrier with ``status``/``headers``/``body`` (e.g. a
    sealed ``ServletResponse``, whose memoized ``wire_bytes`` the
    dispatcher then uses instead of re-formatting).
    """
    try:
        response = handler(request)
    except Exception as exc:
        return Response(
            500, {"Content-Type": "text/plain"},
            f"extension error: {exc!r}".encode("utf-8"),
        )
    if type(response) in KNOWN_RESPONSE_TYPES:
        return response
    if isinstance(response, Response) or (
        hasattr(response, "status") and hasattr(response, "headers")
        and hasattr(response, "body")
    ):
        if len(KNOWN_RESPONSE_TYPES) < 64:  # bounded trust cache
            KNOWN_RESPONSE_TYPES.add(type(response))
        return response
    return Response(
        500, {"Content-Type": "text/plain"},
        f"extension returned {type(response).__name__}".encode("utf-8"),
    )


def _format_payload(response, keep_alive, version, failures):
    """Wire bytes for one response: the carrier's memoized form when it
    has one, a fresh formatting otherwise.

    Never raises: a response whose headers/body cannot be formatted
    (non-latin-1 header values, duck-typed carriers with broken
    protocols) degrades to a 500, counted in ``failures``, instead of
    killing the calling loop or pool thread — the reactor equivalent of
    the seed losing only the one connection.
    """
    try:
        wire = getattr(response, "wire_bytes", None)
        payload = (wire(version, keep_alive) if wire is not None
                   else format_response(response, keep_alive, version))
        if type(payload) is bytes:
            return payload
    except Exception:
        pass  # counted below, with the non-bytes payloads
    failures.add(1)
    return format_response(
        Response(500, {"Content-Type": "text/plain"},
                 b"response formatting failed"),
        keep_alive, version,
    )


class _PoolTask:
    """One pooled extension invocation: runs the handler, formats the
    response off-loop, posts the bytes back to the owning event loop."""

    __slots__ = ("loop", "conn", "slot", "handler", "request")

    def __init__(self, loop, conn, slot, handler, request):
        self.loop = loop
        self.conn = conn
        self.slot = slot
        self.handler = handler
        self.request = request

    def __call__(self):
        response = _safe_handle(self.handler, self.request)
        payload = _format_payload(
            response, not self.slot.close_after, self.slot.version,
            self.loop.server._format_failures,
        )
        self.loop.post(("complete", self.conn, self.slot, payload))


#: The smallest weight the pool queues by: a zero, negative or NaN weight
#: means "least favoured", not a division by zero.
_MIN_WEIGHT = 1e-6


class DomainWorkerPool:
    """Bounded thread pool executing extension handlers off the loops.

    ``submit`` refuses (returns False) when the queue is at capacity or
    the pool is stopped — the caller answers 503, so a stuck servlet
    cannot queue work unboundedly.

    The queue is start-time fair across tenants: every task costs
    ``1 / weight`` of virtual time, a task is tagged with the later of
    the pool's virtual time and its tenant's previous finish tag, and
    workers run the smallest tag first (arrival order breaking ties).
    One tenant — every caller that names none — is therefore served in
    exactly arrival order; a tenant's own tasks never overtake each
    other; a backlogged tenant cannot hold a neighbour's task behind
    more than the tasks already on a worker; and a tenant that was idle
    comes back at the pool's virtual time, with no credit saved up.
    Nothing is preempted and no service time is estimated.
    """

    def __init__(self, workers=2, capacity=128, name="httpd-pool"):
        self.workers = workers
        self.capacity = capacity
        self.name = name
        self._heap = []  # (start tag, arrival number, task, tenant)
        self._arrivals = 0
        self._vtime = 0.0
        # tenant -> finish tag of its latest task.  A tag that virtual
        # time has passed means nothing (submit takes the later of the
        # two), so the map is emptied whenever the pool goes idle and
        # pruned to the tenants with queued work before it can outgrow
        # ``capacity`` — its size never follows the number of tenant
        # names a client can invent.
        self._finish = {}
        self._idle = 0
        self._not_empty = threading.Condition(threading.Lock())
        self._threads = []
        self._running = False
        self.submitted = ShardedCounter()
        self.rejected = ShardedCounter()
        self.completed = ShardedCounter()
        self.failed = ShardedCounter()

    def start(self):
        with self._not_empty:
            if self._running:
                return self
            self._running = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run, name=f"{self.name}-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()
        return self

    @property
    def running(self):
        return self._running

    def submit(self, task, tenant=None, weight=1.0):
        with self._not_empty:
            if not self._running or len(self._heap) >= self.capacity:
                self.rejected.add(1)
                return False
            finish = self._finish
            if len(finish) >= self.capacity and tenant not in finish:
                queued = {entry[3] for entry in self._heap}
                finish = self._finish = {
                    key: tag for key, tag in finish.items() if key in queued
                }
            start = max(self._vtime, finish.get(tenant, 0.0))
            finish[tenant] = start + 1.0 / (
                weight if weight > _MIN_WEIGHT else _MIN_WEIGHT)
            self._arrivals += 1
            heapq.heappush(self._heap,
                           (start, self._arrivals, task, tenant))
            self._not_empty.notify()
        self.submitted.add(1)
        return True

    def _run(self):
        while True:
            with self._not_empty:
                while self._running and not self._heap:
                    self._idle += 1
                    if self._idle == self.workers:
                        # Nothing queued and nothing running: there is
                        # nobody left to be fair to.
                        self._finish.clear()
                        self._vtime = 0.0
                    self._not_empty.wait(0.5)
                    self._idle -= 1
                if not self._heap:
                    return
                start, _, task, _ = heapq.heappop(self._heap)
                self._vtime = start
            try:
                task()
            except Exception:
                # A task failure must not kill the worker: the pool
                # would shrink one crash at a time until every pooled
                # request got 503.  (_PoolTask already degrades handler
                # and formatting errors to 500 responses itself.)
                self.failed.add(1)
            self.completed.add(1)

    def stop(self, timeout=5.0):
        with self._not_empty:
            self._running = False
            self._heap.clear()
            self._finish.clear()
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def stats(self):
        return {
            "submitted": self.submitted.value,
            "completed": self.completed.value,
            "rejected": self.rejected.value,
            "failed": self.failed.value,
            "queued": len(self._heap),
        }


class _Slot:
    """One pipelined response slot: requests are answered strictly in
    arrival order, so each request reserves a slot at dispatch and the
    flusher only emits the completed prefix."""

    __slots__ = ("payload", "ready", "close_after", "version", "tenant",
                 "t_start")

    def __init__(self, close_after, version):
        self.payload = b""
        self.ready = False
        self.close_after = close_after
        self.version = version
        # Admission bookkeeping: the tenant key holding one in-flight
        # unit until this slot is ready (None for shed/unadmitted work).
        self.tenant = None
        self.t_start = 0.0


class _Connection:
    """Per-socket reactor state (owned by exactly one event loop)."""

    __slots__ = ("sock", "parser", "pending", "out", "mask", "read_closed",
                 "close_after_flush", "stop_dispatch", "closed",
                 "last_activity", "reaped")

    def __init__(self, sock, parser):
        self.sock = sock
        self.parser = parser
        self.pending = deque()
        self.out = bytearray()
        self.mask = 0
        self.read_closed = False
        self.close_after_flush = False
        self.stop_dispatch = False
        self.closed = False
        self.last_activity = time.monotonic()
        self.reaped = False


class _EventLoop(threading.Thread):
    """One selector-driven worker loop.

    Cross-thread input arrives through ``post``/``offer`` (a deque plus a
    wakeup socketpair; the wake byte is only written on the empty→
    non-empty transition, so completions batch under load).  Everything
    else — parsing, dispatch, response ordering, socket writes — happens
    on this thread only.
    """

    def __init__(self, server, index):
        super().__init__(name=f"httpd-loop-{index}", daemon=True)
        self.server = server
        self.selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(self._wake_r, _READ, None)
        self._inbox = deque()
        self._inbox_lock = threading.Lock()
        self.connections = set()
        self.cache = ResponseCache(server.cache_size)
        self._unavailable_payloads = {}  # loop-thread only, like the cache
        self._running = True
        self._served_cell = None
        # The clock, read once per wake-up: activity stamps only feed the
        # idle reaper, which sweeps at one-second granularity.
        self.now = time.monotonic()

    # -- cross-thread input -------------------------------------------------
    def post(self, item):
        with self._inbox_lock:
            if not self._running:
                return False
            was_empty = not self._inbox
            self._inbox.append(item)
        if was_empty:
            self._wake()
        return True

    def offer(self, sock):
        """Adopt a new connection unless the hand-off queue is full
        (the acceptor's backpressure signal)."""
        with self._inbox_lock:
            if not self._running:
                return False
            if len(self._inbox) >= self.server.accept_queue_limit:
                return False
            was_empty = not self._inbox
            self._inbox.append(("adopt", sock))
        if was_empty:
            self._wake()
        return True

    def load(self):
        return len(self.connections) + len(self._inbox)

    def shutdown(self):
        with self._inbox_lock:
            self._running = False
        self._wake()

    def _wake(self):
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass  # full: a wake is already pending; closed: loop is gone

    # -- the loop -----------------------------------------------------------
    def run(self):
        self._served_cell = self.server._served.cell()
        selector = self.selector
        last_sweep = self.now = time.monotonic()
        while self._running:
            try:
                events = selector.select(0.25)
            except OSError:
                break
            now = self.now = time.monotonic()
            if now - last_sweep >= 1.0:
                last_sweep = now
                self._sweep_idle(now)
            for key, mask in events:
                conn = key.data
                if conn is None:
                    self._drain_wake()
                    continue
                # A bug anywhere in per-connection handling costs that
                # connection, never the loop — a dead loop would strand
                # every connection it owns and blackhole new ones.
                try:
                    if mask & _READ and not conn.closed:
                        self._on_readable(conn)
                    if mask & _WRITE and not conn.closed:
                        self._on_writable(conn)
                except Exception:
                    self._connection_error(conn)
            self._drain_inbox()
        self._cleanup()

    def _connection_error(self, conn):
        """Drop a connection whose handling raised unexpectedly."""
        self.server._connection_errors.add(1)
        self._close(conn)

    def _drain_wake(self):
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass  # drained (would block), or closed at shutdown

    def _drain_inbox(self):
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    return
                items = list(self._inbox)
                self._inbox.clear()
            for item in items:
                kind = item[0]
                if kind == "adopt":
                    try:
                        self._adopt(item[1])
                    except Exception:
                        self.server._connection_errors.add(1)
                        try:
                            item[1].close()
                        except OSError:
                            pass  # a failed close leaves nothing to undo
                elif kind == "complete":
                    _, conn, slot, payload = item
                    slot.payload = payload
                    slot.ready = True
                    # Release the admission unit even for a connection
                    # that died while the pool ran the handler — the
                    # in-flight gauge must track work, not sockets.
                    self._finish_slot(slot)
                    if conn.closed:
                        continue
                    try:
                        self._pump(conn)
                    except Exception:
                        self._connection_error(conn)

    def _adopt(self, sock):
        if not self._running:
            try:
                sock.close()
            except OSError:
                pass  # shutting down: the socket is discarded either way
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (a Unix socketpair): nothing to tune
        conn = _Connection(sock, self.server._new_parser())
        self.connections.add(conn)
        self._set_mask(conn, _READ)

    # -- socket events ------------------------------------------------------
    def _sweep_idle(self, now):
        """Reap connections with no traffic for ``idle_timeout`` seconds:
        a slow-loris peer (or an abandoned keep-alive socket) cannot pin
        an fd forever.  A victim caught mid-request is answered 408.
        A connection with pending response slots is NOT idle — its
        request is executing in the domain worker pool, which is exactly
        the slow work the pool exists to absorb."""
        timeout = self.server.idle_timeout
        if not timeout:
            return
        for conn in [c for c in self.connections
                     if not c.pending and now - c.last_activity > timeout]:
            if conn.reaped:
                # already 408'd on a previous sweep and the client never
                # read it: finish the close without recounting.
                self._close(conn)
                continue
            conn.reaped = True
            self.server._idle_closed.add(1)
            if (conn.parser.mid_request and not conn.out
                    and not conn.stop_dispatch):
                self._reject(conn, HttpError("request timeout", status=408))
            else:
                self._close(conn)

    def _on_readable(self, conn):
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        conn.last_activity = self.now
        if not data:
            conn.read_closed = True
            self._pump(conn)
            return
        conn.parser.feed(data)
        self._pump(conn)

    def _on_writable(self, conn):
        self._pump(conn)

    # -- request processing -------------------------------------------------
    def _pump(self, conn):
        """Dispatch whatever the parser has ready (pipeline permitting),
        flush the completed response prefix, refresh event interest.
        Every read, write and completion funnels through here, and it
        loops while flushing frees pipeline capacity for requests the
        parser already buffered — a deep pipelined burst is fully served
        even though no further bytes ever arrive."""
        while True:
            try:
                dispatched = self._dispatch_ready(conn)
            except HttpError as exc:
                self._reject(conn, exc)
                return
            if (conn.read_closed and not conn.stop_dispatch
                    and conn.parser.mid_request
                    and len(conn.pending) < self.server.max_pipeline):
                # pending < max_pipeline means _dispatch_ready stopped
                # because the parser genuinely needs more bytes, not
                # because the pipeline was full of complete requests.
                # EOF truncated a request mid-parse: the reference parser
                # raises HttpError here, so answer 400 the same way
                # (after any responses already owed).
                self._reject(conn, HttpError("EOF mid-request"))
                return
            self._flush(conn)
            if conn.closed:
                return
            if (not dispatched or not conn.parser.buffered
                    or len(conn.out) >= self.server.out_highwater):
                # The out_highwater check matters: a pipelined burst of
                # cheap requests for large responses would otherwise
                # amplify into an unbounded conn.out in this very loop
                # (reads only pause AFTER it).  _on_writable pumps again
                # as the client drains the buffer.
                break
        self._update_interest(conn)

    def _dispatch_ready(self, conn):
        parser = conn.parser
        max_pipeline = self.server.max_pipeline
        out_highwater = self.server.out_highwater
        dispatched = 0
        while (not conn.stop_dispatch
               and len(conn.pending) < max_pipeline
               and len(conn.out) < out_highwater):
            request = parser.next_request()
            if request is None:
                break
            self._dispatch(conn, request)
            dispatched += 1
        return dispatched

    def _finish_slot(self, slot):
        """Release the slot's admission unit and record its latency."""
        tenant = slot.tenant
        if tenant is None:
            return
        slot.tenant = None
        self.server.admission.finish(
            tenant, (time.monotonic() - slot.t_start) * 1e6
        )

    def _dispatch(self, conn, request):
        self._served_cell[0] += 1
        server = self.server
        keep = request.keep_alive
        version = "HTTP/1.1" if request.version == "HTTP/1.1" else "HTTP/1.0"
        slot = _Slot(not keep, version)
        conn.pending.append(slot)
        if not keep:
            conn.stop_dispatch = True

        # Admission control AT the parse boundary: a shed request costs
        # exactly one preformatted 503 here — no extension match, no
        # pool hand-off, no domain crossing.
        admission = server.admission
        weight = 1.0
        if admission is not None:
            decision = admission.decide(request.path)
            if not decision.admitted:
                slot.payload = self._unavailable(
                    decision.reason, max(1, int(decision.retry_after or 1)),
                    keep, version)
                slot.ready = True
                return
            slot.tenant = decision.tenant
            slot.t_start = time.monotonic()
            weight = decision.weight

        entry = server._match_extension(request.path)
        if entry is not None:
            _, handler, inline = entry
            pool = server.pool
            if inline or pool is None or not pool.running:
                # Reply-streaming offer: while THIS loop thread is blocked
                # inside the handler, nothing else can write the socket —
                # so if no output is queued and this request is the only
                # pending slot, an out-of-process gateway may pass the
                # socket's fd to its domain host (SCM_RIGHTS) and let the
                # host write the HTTP response directly.
                offer = None
                if (_streaming.armed() and not conn.out
                        and len(conn.pending) == 1):
                    offer = _streaming.open_offer(
                        conn.sock.fileno(), version, keep
                    )
                try:
                    response = _safe_handle(handler, request)
                finally:
                    if offer is not None:
                        _streaming.close_offer()
                if offer is not None and offer.granted:
                    # The host wrote (or may have started writing) the
                    # response itself: this slot owes the client nothing.
                    # A grant that did not complete cleanly leaves the
                    # HTTP framing unknowable — close, never append.
                    slot.payload = b""
                    slot.ready = True
                    if offer.failed or not offer.streamed:
                        slot.close_after = True
                    self._finish_slot(slot)
                    return
                slot.payload = _format_payload(response, keep, version,
                                               server._format_failures)
                slot.ready = True
                self._finish_slot(slot)
            elif not pool.submit(_PoolTask(self, conn, slot, handler,
                                           request), slot.tenant, weight):
                slot.payload = self._unavailable(None, None, keep, version)
                slot.ready = True
                self._finish_slot(slot)
            return

        store = server.documents
        # Capture the path version BEFORE fetching the document: a put()
        # racing in after the capture leaves the entry tagged with the
        # old version (a harmless extra miss next time), whereas
        # re-reading after the fetch could tag stale bytes as fresh.
        generation = store.version(request.path)
        key = (request.path, version, keep)
        payload = self.cache.get(key, generation)
        if payload is None:
            document = store.get(request.path)
            if document is None:
                payload = format_response(
                    Response(404, {"Content-Type": "text/plain"},
                             b"not found"),
                    keep, version,
                )
            else:
                body, content_type = document
                payload = format_response(
                    Response(200, {"Content-Type": content_type}, body),
                    keep, version,
                )
                self.cache.put(key, generation, payload)
        slot.payload = payload
        slot.ready = True
        self._finish_slot(slot)

    def _unavailable(self, reason, retry, keep, version):
        """The 503 for a request shed at admission (``reason``, with
        ``Retry-After: retry``) or refused by a full pool (both None),
        formatted once per distinct answer and reused after that."""
        key = (reason, retry, keep, version)
        payload = self._unavailable_payloads.get(key)
        if payload is None:
            if reason is None:
                response = Response(503, {"Content-Type": "text/plain"},
                                    b"server busy")
            else:
                response = Response(
                    503, {"Content-Type": "text/plain",
                          "Retry-After": str(retry)},
                    f"overloaded: {reason}".encode("latin-1"))
            payload = format_response(response, keep, version)
            if len(self._unavailable_payloads) >= 64:
                # Reasons come from the admission object, which a caller
                # may supply: a handful in practice, bounded regardless.
                self._unavailable_payloads.clear()
            self._unavailable_payloads[key] = payload
        return payload

    def _reject(self, conn, exc):
        """Malformed input: answer with the error status, then close."""
        conn.stop_dispatch = True
        slot = _Slot(True, "HTTP/1.0")
        status = getattr(exc, "status", 400)
        slot.payload = format_response(Response(
            status, {},
            REASONS.get(status, "bad request").lower().encode("latin-1"),
        ))
        slot.ready = True
        conn.pending.append(slot)
        self._flush(conn)
        if not conn.closed:
            self._update_interest(conn)

    # -- output -------------------------------------------------------------
    def _flush(self, conn):
        pending = conn.pending
        out = conn.out
        highwater = self.server.out_highwater
        # The high-water check bounds each sweep: a burst of
        # already-ready slots (pipelined cache hits) must not balloon
        # conn.out past the mark at once.  The outer loop moves deferred
        # slots only after the kernel fully drained the buffer, so memory
        # stays bounded while a fast-reading client still gets the whole
        # pipeline without waiting for another readiness event.
        while True:
            if (not out and pending and pending[0].ready
                    and (len(pending) == 1 or not pending[1].ready)):
                # One finished response and nothing staged ahead of it:
                # its bytes go to the kernel as they are, and only an
                # unsent tail is staged.
                slot = pending.popleft()
                data = slot.payload
                if slot.close_after:
                    conn.close_after_flush = True
                    conn.stop_dispatch = True
                    pending.clear()
            else:
                while pending and pending[0].ready and len(out) < highwater:
                    slot = pending.popleft()
                    out += slot.payload
                    if slot.close_after:
                        conn.close_after_flush = True
                        conn.stop_dispatch = True
                        pending.clear()
                        break
                data = out
            if not data:
                break
            try:
                sent = conn.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close(conn)
                return
            if data is out:
                del out[:sent]
            elif sent < len(data):
                out += memoryview(data)[sent:]
            if sent:
                conn.last_activity = self.now
            if out or sent == 0:
                # Kernel buffer full (or partial write): _on_writable
                # resumes the drain when the client catches up.
                break
            if conn.close_after_flush or not pending or not pending[0].ready:
                break
        if not out:
            if conn.close_after_flush:
                self._close(conn)
            elif conn.read_closed and not pending:
                # Fully half-closed and nothing owed — unless the parser
                # still holds complete requests the pipeline cap deferred
                # (the next _pump dispatches them).
                if conn.stop_dispatch or not conn.parser.buffered:
                    self._close(conn)

    def _update_interest(self, conn):
        server = self.server
        mask = 0
        if not conn.read_closed and not conn.stop_dispatch:
            if (len(conn.pending) < server.max_pipeline
                    and conn.parser.buffered < server._buffer_bound
                    and len(conn.out) < server.out_highwater):
                mask |= _READ
            elif conn.mask & _READ:
                server._backpressure_pauses.add(1)
        if conn.out:
            mask |= _WRITE
        self._set_mask(conn, mask)

    def _set_mask(self, conn, mask):
        if mask == conn.mask or conn.closed:
            return
        selector = self.selector
        try:
            if conn.mask == 0:
                selector.register(conn.sock, mask, conn)
            elif mask == 0:
                selector.unregister(conn.sock)
            else:
                selector.modify(conn.sock, mask, conn)
        except (KeyError, ValueError, OSError):
            self._close(conn)
            return
        conn.mask = mask

    def _close(self, conn):
        if conn.closed:
            return
        conn.closed = True
        if conn.mask:
            try:
                self.selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass  # the fd already died: nothing is registered
            conn.mask = 0
        # Out of the live set BEFORE the socket closes: the peer sees EOF
        # the instant close() runs, and whoever it tells must not find
        # live_connections() still counting this connection.
        self.connections.discard(conn)
        try:
            conn.sock.close()
        except OSError:
            pass  # a failed close leaves nothing to undo

    def _cleanup(self):
        # First thing: stop accepting cross-thread work.  A loop dying
        # on its own (selector failure) must make offer()/post() refuse,
        # or the acceptor would keep adopting sockets into a black hole.
        with self._inbox_lock:
            self._running = False
        for conn in list(self.connections):
            self._close(conn)
        with self._inbox_lock:
            leftovers = list(self._inbox)
            self._inbox.clear()
        for item in leftovers:
            if item[0] == "adopt":
                try:
                    item[1].close()
                except OSError:
                    pass  # a failed close leaves nothing to undo
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass  # a failed close leaves nothing to undo
        try:
            self.selector.close()
        except OSError:
            pass  # the loop is exiting: nothing else uses the selector


class NativeHttpServer:
    """Reactor HTTP server: documents + prefix-registered extensions.

    Public surface is a superset of the seed's thread-per-connection
    server: ``documents``, ``add_extension``/``remove_extension``,
    transport-independent ``process``, ``start``/``stop`` and
    ``requests_served`` all keep their meaning.
    """

    def __init__(self, host="127.0.0.1", port=0, *, workers=2,
                 pool_workers=2, pool_capacity=128, max_pipeline=32,
                 max_buffered=65536, max_body=None, out_highwater=1 << 20,
                 accept_queue_limit=64, cache_size=256, idle_timeout=60.0,
                 admission=None):
        self.host = host
        self.port = port
        #: Optional :class:`repro.web.control.AdmissionController`
        #: consulted at the parse boundary; None (the default) keeps
        #: the PR-4/5 admit-everything behaviour and zero overhead.
        self.admission = admission
        self.documents = DocumentStore()
        self.workers = max(1, workers)
        self.pool = (DomainWorkerPool(pool_workers, pool_capacity)
                     if pool_workers > 0 else None)
        self.max_pipeline = max_pipeline
        self.max_buffered = max_buffered
        # The largest accepted request body.  The read-pause bound below
        # must cover it: a known-length body in progress may never trip
        # the backpressure pause (paused reads with no pending response
        # would never resume — a stall, not flow control).
        self.max_body = max_buffered if max_body is None else max_body
        self._buffer_bound = max(self.max_buffered, self.max_body)
        self.out_highwater = out_highwater
        self.accept_queue_limit = accept_queue_limit
        self.cache_size = cache_size
        self.idle_timeout = idle_timeout

        self._extensions = ()  # (prefix, handler, inline), longest-first
        self._extension_lock = threading.Lock()
        self._listener = None
        self._accept_thread = None
        self._loops = []
        self._running = False
        self._served = ShardedCounter()
        self._backpressure_pauses = ShardedCounter()
        self._accept_backpressure = ShardedCounter()
        self._idle_closed = ShardedCounter()
        # The two catch-alls that keep a loop or pool thread alive: a
        # response that could not be formatted (answered 500 instead) and
        # a connection dropped because handling it raised.
        self._format_failures = ShardedCounter()
        self._connection_errors = ShardedCounter()

    # -- configuration ----------------------------------------------------
    def add_extension(self, prefix, handler, *, inline=False):
        """Register an in-process extension for a URL prefix.

        ``handler(request) -> Response``.  With ``inline=True`` the
        handler runs on the event-loop thread — the same thread IIS hands
        an ISAPI extension (§4: "it allows the Java code to run in the
        same thread as IIS uses to invoke the bridge"); the default
        routes it through the domain worker pool so a slow handler
        cannot stall the loop.
        """
        with self._extension_lock:
            entries = [e for e in self._extensions if e[0] != prefix]
            entries.append((prefix, handler, inline))
            entries.sort(key=lambda entry: -len(entry[0]))
            self._extensions = tuple(entries)
        return self

    def remove_extension(self, prefix):
        with self._extension_lock:
            self._extensions = tuple(
                entry for entry in self._extensions if entry[0] != prefix
            )

    def _match_extension(self, path):
        for entry in self._extensions:
            if path.startswith(entry[0]):
                return entry
        return None

    def _new_parser(self):
        # A body that could never fit the buffer bound must 413 up
        # front; the pause bound (_buffer_bound) covers max_body, so an
        # accepted body can always finish arriving.
        return RequestParser(max_header_bytes=self.max_buffered,
                             max_body=self.max_body)

    # -- request processing (transport-independent) -----------------------
    def process(self, request):
        """Handle one request; usable directly for in-process benchmarks."""
        self._served.add(1)
        entry = self._match_extension(request.path)
        if entry is not None:
            return _safe_handle(entry[1], request)
        document = self.documents.get(request.path)
        if document is None:
            return Response(404, {"Content-Type": "text/plain"},
                            b"not found")
        body, content_type = document
        return Response(200, {"Content-Type": content_type}, body)

    @property
    def requests_served(self):
        return self._served.value

    # -- introspection ------------------------------------------------------
    def live_connections(self):
        return sum(len(loop.connections) for loop in self._loops)

    def stats(self):
        snapshot = {
            "requests_served": self.requests_served,
            "live_connections": self.live_connections(),
            "cache_hits": sum(loop.cache.hits for loop in self._loops),
            "cache_misses": sum(loop.cache.misses for loop in self._loops),
            "backpressure_pauses": self._backpressure_pauses.value,
            "accept_backpressure": self._accept_backpressure.value,
            "idle_closed": self._idle_closed.value,
            "format_failures": self._format_failures.value,
            "connection_errors": self._connection_errors.value,
        }
        if self.pool is not None:
            snapshot["pool"] = self.pool.stats()
        if self.admission is not None:
            admission = self.admission.stats()
            snapshot["admission"] = admission
            snapshot["p99_latency_ms"] = admission["p99_latency_ms"]
        return snapshot

    # -- socket plumbing ---------------------------------------------------
    def start(self, listener=None):
        """Start serving.  ``listener`` (optional) is a pre-bound
        listening socket to adopt instead of binding a fresh one — the
        prefork tier passes either a worker-owned ``SO_REUSEPORT`` socket
        or the listener fd inherited from the master across ``fork``."""
        if self._running:
            return self
        if listener is not None:
            self._listener = listener
            self.host, self.port = listener.getsockname()[:2]
            if listener.gettimeout() is None:
                listener.settimeout(0.2)
        else:
            self._listener = make_listener(self.host, self.port)
            self.port = self._listener.getsockname()[1]
        self._running = True
        self._loops = [_EventLoop(self, index)
                       for index in range(self.workers)]
        for loop in self._loops:
            loop.start()
        if self.pool is not None:
            self.pool.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="httpd-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        listener = self._listener
        while self._running:
            sock = accept_next(listener, lambda: self._running)
            if sock is None:
                continue
            if sock is ACCEPT_STOP:
                break
            self._place(sock)

    def _place(self, sock):
        """Hand a fresh connection to the least-loaded loop; when every
        hand-off queue is full, hold accepting (the kernel backlog queues
        behind us) instead of growing an unbounded list."""
        while self._running:
            # Least-loaded first, but try every loop: a loop that died
            # (offer refuses) must not wedge placement while healthy
            # loops remain.
            for loop in sorted(self._loops, key=_EventLoop.load):
                if loop.offer(sock):
                    return
            self._accept_backpressure.add(1)
            time.sleep(0.005)
        try:
            sock.close()
        except OSError:
            pass  # shutting down: the socket is discarded either way

    def stop_accepting(self):
        """Close the listener and retire the acceptor, keeping existing
        connections served — the first phase of a graceful drain.
        Idempotent; ``stop`` finishes the teardown.  The closed listener
        object stays referenced (its fileno reads -1), so leak checks
        and restarts can observe the state."""
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass  # idempotent: a second close has nothing to release
        if self._accept_thread is not None:
            self._accept_thread.join(2.0)
            self._accept_thread = None

    def drain(self, timeout=5.0, poll=0.01):
        """Stop accepting and wait for live connections to finish.

        Returns True when the reactor went quiet inside ``timeout``.
        Keep-alive connections that simply stay open count against the
        deadline — the caller decides whether to cut them off (stop).
        """
        self.stop_accepting()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.live_connections() == 0:
                return True
            time.sleep(poll)
        return self.live_connections() == 0

    def stop(self):
        self._running = False
        self.stop_accepting()
        for loop in self._loops:
            loop.shutdown()
        for loop in self._loops:
            loop.join(5.0)
        if self.pool is not None:
            self.pool.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
