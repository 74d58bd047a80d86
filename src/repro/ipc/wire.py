"""Length-prefixed message framing over stream sockets.

The shared wire layer of the NT-RPC and COM out-of-proc analogues: a frame
is a 4-byte big-endian length followed by that many payload bytes.

Hot-path shape (the compiled-xproc-wire rework):

* sends are **scatter-gather** — the header and payload (or several
  payload parts) go out through one ``sendmsg`` call without ever being
  concatenated into a fresh bytes object;
* receives fill **preallocated buffers** via ``recv_into`` instead of
  accumulating a chunk list and re-joining it;
* a frame may carry **file descriptors** (``SCM_RIGHTS`` over AF_UNIX),
  delivered with the first byte of the frame's segment — the transport
  behind reply streaming, where a domain host writes an HTTP response
  straight to the client socket the master passed it.

The chaos hook still sees the *logical frame* (header + payload as one
byte string): when fault injection is armed the parts are joined first,
so truncation/drop faults cut the frame exactly where they always did.
"""

from __future__ import annotations

import socket
import struct

_LEN = struct.Struct(">I")

MAX_FRAME = 64 * 1024 * 1024

#: Fault-injection hook (``repro.testing.chaos``): None in production —
#: one pointer test per send — or a ChaosConfig whose ``before_send``
#: may delay, truncate or drop the frame.  Installed by the chaos
#: harness, inherited by forked workers/hosts.
_chaos = None

#: Ancillary buffer sized for the most fds one frame may carry.
MAX_FDS = 16


class WireError(Exception):
    """Framing violation or unexpected connection close."""


def _sendmsg_all(sock, parts, fds=()):
    """One scatter-gather send of ``parts`` (bytes-like), short-write
    safe.  ``fds`` ride as SCM_RIGHTS ancillary data on the first
    segment, so the receiver gets them with the frame's first byte."""
    ancdata = ()
    if fds:
        import array

        ancdata = [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                    array.array("i", fds).tobytes())]
    sent = sock.sendmsg(parts, ancdata)
    total = sum(len(part) for part in parts)
    if sent >= total:
        return
    # Short write (kernel buffer boundary): finish with sendall over the
    # unsent suffix.  The fds went out with the first byte, so the
    # ancillary payload is never re-sent.
    rest = b"".join(bytes(part) for part in parts)[sent:]
    sock.sendall(rest)


def send_frame(sock, payload, *, fds=()):
    if len(payload) > MAX_FRAME:
        raise WireError(f"frame too large: {len(payload)}")
    header = _LEN.pack(len(payload))
    if _chaos is not None:
        data = _chaos.before_send(sock, header + bytes(payload))
        sock.sendall(data)
        return
    _sendmsg_all(sock, (header, payload), fds)


def send_prefixed(sock, data):
    """Send one frame whose 4-byte length prefix is ALREADY packed into
    ``data`` — for hot-path composers that build constant-shaped frames
    (header included) in a single struct pack.  The chaos hook still
    sees the identical logical frame."""
    if _chaos is not None:
        sock.sendall(_chaos.before_send(sock, bytes(data)))
        return
    sock.sendall(data)


def send_frame_parts(sock, parts, *, fds=()):
    """Send one logical frame whose payload is scattered across
    ``parts`` (a sequence of bytes-likes) without concatenating them."""
    total = sum(len(part) for part in parts)
    if total > MAX_FRAME:
        raise WireError(f"frame too large: {total}")
    header = _LEN.pack(total)
    if _chaos is not None:
        frame = bytearray(header)
        for part in parts:
            frame += part
        data = _chaos.before_send(sock, bytes(frame))
        sock.sendall(data)
        return
    _sendmsg_all(sock, (header, *parts), fds)


def recv_exact_into(sock, view):
    """Fill the whole memoryview from the socket (``recv_into`` loop)."""
    remaining = len(view)
    while remaining:
        received = sock.recv_into(view[len(view) - remaining:])
        if not received:
            raise WireError("connection closed mid-frame")
        remaining -= received


def recv_exact(sock, count, scratch=None):
    """``count`` bytes from the socket, as bytes.

    With ``scratch`` (a bytearray at least ``count`` long) the fill goes
    through the caller's preallocated buffer; otherwise a fresh
    bytearray of exactly ``count`` bytes is filled — either way a
    ``recv_into`` loop, never a chunk-list join.
    """
    if scratch is not None and len(scratch) >= count:
        view = memoryview(scratch)[:count]
        recv_exact_into(sock, view)
        return bytes(view)
    buffer = bytearray(count)
    recv_exact_into(sock, memoryview(buffer))
    return bytes(buffer)


def recv_frame(sock, scratch=None, *, eof_ok=False):
    """One frame's payload.  With ``eof_ok`` a clean EOF *between*
    frames — a normal disconnect for a serving loop — returns None; an
    EOF anywhere inside a frame is a :class:`WireError` regardless."""
    if eof_ok:
        header = sock.recv(4)
        if not header:
            return None
        if len(header) < 4:
            header += recv_exact(sock, 4 - len(header))
    else:
        header = recv_exact(sock, 4, scratch)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"frame too large: {length}")
    if length == 0:
        return b""
    return recv_exact(sock, length, scratch)


def decode_fds(ancdata):
    """File descriptors carried in ``recvmsg`` ancillary data."""
    import array

    fds = []
    for level, kind, data in ancdata:
        if level == socket.SOL_SOCKET and kind == socket.SCM_RIGHTS:
            received = array.array("i")
            received.frombytes(data[: len(data) - len(data) % received.itemsize])
            fds.extend(received)
    return fds


def fd_ancillary_space(max_fds=MAX_FDS):
    """Ancillary buffer size for ``recvmsg`` to accept up to ``max_fds``."""
    import array

    return socket.CMSG_SPACE(max_fds * array.array("i").itemsize)
