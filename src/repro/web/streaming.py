"""SCM_RIGHTS reply streaming for out-of-process servlets.

The classic cross-process reply path costs three copies: the domain host
serializes the response, the master deserializes it, and the reactor
formats it back into HTTP bytes on the client socket.  Reply streaming
collapses all three — the master passes the *client socket's file
descriptor* to the host with the call (``SCM_RIGHTS`` over the AF_UNIX
wire), and the host writes the formatted HTTP response straight to the
browser.  The LRMI reply shrinks to the written byte count, a plain
``int`` — the wire's constant-shape integer reply.

Safety model — who may write the client socket, and when:

* the reactor only opens a *stream offer* on the inline dispatch path,
  while the event loop thread is blocked inside the handler, with no
  queued output (``conn.out`` empty) and no earlier pipelined response
  pending — so for the duration of the LRMI round trip exactly one
  party can write the socket, and HTTP response order is preserved;
* the descriptor crosses via ``SCM_RIGHTS``, i.e. dup semantics: the
  host's copy shares file status flags with the reactor's non-blocking
  socket, so :func:`write_all_fd` must park in ``poll`` on EAGAIN
  rather than ever flipping the socket to blocking under the reactor;
* the grant is recorded (``offer.grant``) immediately before the call
  frame leaves the master.  From that moment the host *may* have
  written bytes, so any failure afterwards poisons the connection's
  HTTP framing — the reactor answers by closing it (``offer.fail``),
  never by appending a formatted error response to a half-written one.
  A failure *before* the grant leaves the socket untouched and falls
  back to the ordinary marshalled reply path.

The thread-local offer plumbing keeps the reactor and the gateway
decoupled: the event loop publishes the offer, the out-of-process
gateway ``claim()``s it (popping it, so nested dispatches can never
observe a stale offer), and the loop inspects the outcome when the
handler returns.
"""

from __future__ import annotations

import os
import select
import threading
import time

from repro.core import Remote
from repro.ipc.lrmi import claim_fd


class _Streamed:
    """Sentinel response: the bytes already went out on the granted fd."""

    __slots__ = ()

    def __repr__(self):
        return "<STREAMED>"


#: Returned through the servlet plumbing (gateway -> system servlet ->
#: bridge -> reactor) in place of a response carrier when the reply was
#: written directly to the client socket by the domain host.
STREAMED = _Streamed()


class StreamWriteError(OSError):
    """A direct-to-socket write died partway; ``written`` bytes are out."""

    def __init__(self, written, cause):
        super().__init__(f"reply stream failed after {written} bytes: "
                         f"{cause}")
        self.written = written


def write_all_fd(fd, data, timeout=30.0):
    """Write every byte of ``data`` to ``fd``; returns the byte count.

    The descriptor arrived via SCM_RIGHTS and therefore shares file
    status flags with the master's reactor socket — it is O_NONBLOCK
    and must stay that way.  EAGAIN parks in ``poll`` until writable,
    bounded by ``timeout`` (``poll``, not ``select``: a reactor with
    many clients hands out descriptors above ``FD_SETSIZE``, which
    ``select`` refuses with ``ValueError``).  On any failure raises
    :class:`StreamWriteError` carrying how many bytes escaped (the
    caller reports that to the master, which decides whether the HTTP
    framing is salvageable — it is only when the count is zero).
    """
    view = memoryview(data)
    total = len(view)
    deadline = time.monotonic() + timeout
    written = 0
    poller = None
    while written < total:
        try:
            written += os.write(fd, view[written:])
        except BlockingIOError:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise StreamWriteError(written, "write timeout") from None
            try:
                if poller is None:
                    poller = select.poll()
                    poller.register(fd, select.POLLOUT)
                poller.poll(min(remaining, 1.0) * 1000)
            except (OSError, ValueError) as exc:
                raise StreamWriteError(written, exc) from None
        except OSError as exc:
            raise StreamWriteError(written, exc) from None
    return written


# -- master side: the reactor's stream offer ----------------------------------

class StreamOffer:
    """One dispatch's offer of the client socket to a domain host.

    State flows strictly forward: ``granted`` flips right before the
    call frame (and the fd) leave the master; then either ``complete``
    (the host confirmed a full response went out) or ``fail`` (bytes
    may be stranded mid-response; the connection must close).
    """

    __slots__ = ("fd", "version", "keep_alive", "granted", "streamed",
                 "failed", "nbytes")

    def __init__(self, fd, version, keep_alive):
        self.fd = fd
        self.version = version
        self.keep_alive = keep_alive
        self.granted = False
        self.streamed = False
        self.failed = False
        self.nbytes = 0

    def grant(self):
        self.granted = True

    def retract(self):
        """Void the grant: the host completed the LRMI round trip with a
        typed exception *reply*, which its adapter can only produce
        before the first byte goes out — so the socket is untouched and
        the ordinary marshalled-response path owns it again."""
        self.granted = False

    def complete(self, nbytes):
        self.streamed = True
        self.nbytes = nbytes

    def fail(self):
        self.failed = True


_local = threading.local()

#: Live stream-capable registrations.  The reactor consults this before
#: publishing an offer so servers with no out-of-process servlets pay
#: one integer compare per inline dispatch and nothing else.
_armed_count = 0
_armed_lock = threading.Lock()


def arm():
    global _armed_count
    with _armed_lock:
        _armed_count += 1


def disarm():
    global _armed_count
    with _armed_lock:
        _armed_count -= 1


def armed():
    return _armed_count > 0


def open_offer(fd, version, keep_alive):
    """Publish a stream offer for the current dispatch thread."""
    offer = StreamOffer(fd, version, keep_alive)
    _local.offer = offer
    return offer


def close_offer():
    _local.offer = None


def claim():
    """Pop the current thread's offer (None when there is none).

    Popping — rather than peeking — means a gateway that decides not to
    stream, or any code it calls, can never hand the same offer to a
    second callee.
    """
    offer = getattr(_local, "offer", None)
    if offer is not None:
        _local.offer = None
    return offer


# -- host side: the streaming terminus ----------------------------------------

class ReplyStream(Remote):
    """Remote interface for the host-side reply-streaming terminus."""

    def service(self, request, version, keep_alive):
        raise NotImplementedError


class ReplyStreamAdapter(ReplyStream):
    """Runs in the domain host: claims the granted client-socket fd,
    crosses into the servlet's domain for the response, formats it for
    the wire and writes it straight to the browser.

    Servlet exceptions propagate *before* any byte is written (the fd is
    closed untouched), so they surface to the master as ordinary LRMI
    error replies and take the in-process error path — 503 for revoked/
    unavailable, 500 otherwise — over the normal marshalled reply.
    """

    def __init__(self, servlet_capability):
        self._servlet = servlet_capability

    def service(self, request, version, keep_alive):
        fd = claim_fd()
        try:
            response = self._servlet.service(request)
            payload = _wire_payload(response, version, keep_alive)
            try:
                return write_all_fd(fd, payload)
            except StreamWriteError as exc:
                return ("stream-failed", exc.written)
        finally:
            try:
                os.close(fd)
            except OSError:
                pass


def _wire_payload(response, version, keep_alive):
    """HTTP bytes for a response carrier: its memoized ``wire_bytes``
    when it has one (sealed ServletResponse), a fresh formatting via the
    shared formatter otherwise."""
    wire = getattr(response, "wire_bytes", None)
    if wire is not None:
        return wire(version, keep_alive)
    from .http import format_response

    return format_response(response, keep_alive, version)
