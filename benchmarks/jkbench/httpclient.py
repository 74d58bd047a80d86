"""jkbench's own HTTP load generators.

* :func:`closed_loop` — one keep-alive connection, precomputed request
  bytes, ``recv_into`` a reused buffer, and a status/length/CRC32 check
  of every body.  No ``makefile``, no per-response object.
* :class:`OpenLoop` — one selector-driven thread issuing a precomputed
  arrival schedule on time, a fresh connection per arrival, latency
  measured from the instant each request was *due*.
* :func:`fetch` — a plain one-shot request for control paths.
"""

from __future__ import annotations

import selectors
import socket
from time import perf_counter_ns as now_ns
from zlib import crc32

_BUFFER = 1 << 17  # fits the largest page (64 KiB body) with headers


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_into(sock, buf, view):
    """One response into ``buf``; returns ``(status, start, end)`` of
    the body slice.  Raises ``ConnectionError`` on a short read."""
    filled = sock.recv_into(view)
    if not filled:
        raise ConnectionError("server closed the connection")
    head_end = buf.find(b"\r\n\r\n", 0, filled)
    while head_end < 0:
        got = sock.recv_into(view[filled:])
        if not got:
            raise ConnectionError("EOF in response headers")
        filled += got
        head_end = buf.find(b"\r\n\r\n", 0, filled)
    status = int(buf[9:12])
    at = buf.find(b"Content-Length: ", 0, head_end)
    length = int(buf[at + 16:buf.find(b"\r", at, head_end + 2)])
    start = head_end + 4
    end = start + length
    while filled < end:
        got = sock.recv_into(view[filled:end])
        if not got:
            raise ConnectionError("EOF in response body")
        filled += got
    return status, start, end


def closed_loop(sock, script, index, deadline_ns, ends, latencies, failures,
                spans=None):
    """Issue ``script`` (cycled) from position ``index`` until the
    monotonic deadline; returns the next position.

    Appends each operation's completion time and latency (ns) to
    ``ends``/``latencies``; an operation whose status, body length or
    body CRC is not the scripted one is appended to ``failures`` as
    ``(sample_index, reason)``.  With ``spans`` (a list) the generator
    records its own root span per page for the traced run.
    """
    buf = bytearray(_BUFFER)
    view = memoryview(buf)
    size = len(script)
    while True:
        _, request, status, length, checksum = script[index % size]
        started = now_ns()
        if started >= deadline_ns:
            return index
        sock.sendall(request)
        try:
            got_status, start, end = _read_into(sock, buf, view)
        except (ConnectionError, ValueError, OSError) as exc:
            failures.append((len(ends), f"transport: {exc}"))
            return index
        finished = now_ns()
        ends.append(finished)
        latencies.append(finished - started)
        if spans is not None:
            spans.append(("loadgen.page", started, finished))
        if got_status != status:
            failures.append((len(ends) - 1, f"status {got_status}"))
        elif end - start != length or crc32(view[start:end]) != checksum:
            failures.append((len(ends) - 1, "wrong body"))
        index += 1


def fetch(port, request):
    """One request on a fresh connection; ``(status, body)``."""
    with connect(port) as sock:
        sock.sendall(request)
        data = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
            head_end = data.find(b"\r\n\r\n")
            if head_end >= 0:
                at = data.find(b"Content-Length: ", 0, head_end)
                length = int(data[at + 16:data.find(b"\r", at)])
                if len(data) >= head_end + 4 + length:
                    break
    return int(data[9:12]), bytes(data[head_end + 4:head_end + 4 + length])


# -- open loop ---

#: Outstanding-request ceiling.  Arrivals past it are *counted*
#: (``not_issued``) and never deferred: deferring would turn the open
#: loop into a closed one exactly when the server is slowest.
MAX_OUTSTANDING = 256


class _Flight:
    __slots__ = ("sock", "entry", "index", "data", "sent")

    def __init__(self, sock, entry, index):
        self.sock = sock
        self.entry = entry
        self.index = index
        self.data = bytearray()
        self.sent = False


class OpenLoop:
    """Issue one arrival schedule against ``port`` and tally outcomes.

    Results, one list entry per arrival in schedule order where noted:

    * ``outcomes`` — ``(arrival_index, latency_ns, kind)`` with kind one of
      ``ok``, ``shed`` (503 carrying an integer Retry-After),
      ``malformed`` (503 without one), ``wrong`` (any other status or a
      body that fails its CRC), ``error`` (transport) or ``not_issued``;
    * ``late`` — ``(arrival_index, issue instant minus due instant)``.
    """

    def __init__(self, port, schedule):
        self.port = port
        self.schedule = schedule
        self.outcomes = []
        self.late = []

    def run(self, origin_ns):
        """Arrival ``due`` offsets are relative to ``origin_ns``."""
        selector = selectors.DefaultSelector()
        schedule = self.schedule
        position = 0
        outstanding = 0
        address = ("127.0.0.1", self.port)
        # A server that never answers must not hang the generator.
        give_up_ns = origin_ns + int((schedule[-1][0] + 10.0) * 1e9)
        try:
            while position < len(schedule) or outstanding:
                now = now_ns()
                if now > give_up_ns:
                    for key in list(selector.get_map().values()):
                        self.outcomes.append((key.data.index, 0, "error"))
                    break
                while position < len(schedule):
                    entry = schedule[position]
                    due_ns = origin_ns + int(entry[0] * 1e9)
                    if due_ns > now:
                        break
                    position += 1
                    if outstanding >= MAX_OUTSTANDING:
                        self.outcomes.append((position - 1, 0, "not_issued"))
                        continue
                    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    sock.setblocking(False)
                    sock.connect_ex(address)
                    selector.register(sock, selectors.EVENT_WRITE,
                                      _Flight(sock, entry, position - 1))
                    outstanding += 1
                    self.late.append((position - 1, now_ns() - due_ns))
                if position < len(schedule):
                    wait = (origin_ns + int(schedule[position][0] * 1e9)
                            - now_ns()) / 1e9
                    timeout = max(wait, 0.0)
                else:
                    timeout = 0.5
                for key, mask in selector.select(timeout):
                    flight = key.data
                    if self._advance(selector, flight, mask, origin_ns):
                        outstanding -= 1
        finally:
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()
        return self

    def _advance(self, selector, flight, mask, origin_ns):
        """Drive one connection; True once it has finished."""
        sock = flight.sock
        try:
            if not flight.sent:
                sock.send(flight.entry[2])  # one small request, one send
                flight.sent = True
                selector.modify(sock, selectors.EVENT_READ, flight)
                return False
            chunk = sock.recv(65536)
            if chunk:
                flight.data += chunk
                return False
            kind = self._classify(flight)
        except OSError:
            kind = "error"
        due_ns = origin_ns + int(flight.entry[0] * 1e9)
        self.outcomes.append((flight.index, now_ns() - due_ns, kind))
        selector.unregister(sock)
        sock.close()
        return True

    @staticmethod
    def _classify(flight):
        data = flight.data
        head_end = data.find(b"\r\n\r\n")
        if head_end < 0 or len(data) < 12:
            return "error"
        status = int(data[9:12])
        if status == 503:
            at = data.find(b"Retry-After: ", 0, head_end)
            value = data[at + 13:data.find(b"\r", at)] if at >= 0 else b""
            return "shed" if value.isdigit() else "malformed"
        body = bytes(data[head_end + 4:])
        _, _, _, length, checksum = flight.entry
        if status != 200 or len(body) != length or crc32(body) != checksum:
            return "wrong"
        return "ok"
