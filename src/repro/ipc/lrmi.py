"""Cross-process LRMI: capabilities whose targets live in another process.

The in-process J-Kernel passes capabilities by reference and copies
everything else (paper §3.1); this module extends exactly that calling
convention across a real OS process boundary — the Remote-Playground
deployment style (Malkhi & Reiter): untrusted code runs in a separate
*domain host* process, and the capability the parent holds is a generated
proxy that marshals each invocation through the compiled serializer
(``repro.core.serial``) over a UNIX-socket wire (``repro.ipc.wire``).

Architecture
------------

* :class:`DomainHostProcess` — forks a child that runs ``setup()`` (which
  builds domains/servlets and returns ``{name: Capability}`` bindings),
  then serves LRMI traffic on a fresh UNIX socket.  Each accepted
  connection gets a serving thread; dispatch goes *through the real
  in-process capability stub*, so every in-process guarantee (segment
  switch, argument copying, revocation and termination checks,
  accounting) holds unchanged inside the host.
* :class:`DomainClient` — the parent-side peer: a small pool of
  connections, ``lookup(name)`` returning remote-capability proxies, and
  kernel control verbs (``revoke``/``terminate``/``stats``/``shutdown``).
  Supervising the host process and hardening the client's pool are the
  transport core's job (``repro.ipc.transport``), shared with ``ntrpc``.
* Proxies — one class per remote-method tuple, each method a closure
  over its ``(index, name)``: it sends the positional arguments as an
  ``MF_CALL`` frame and re-raises the callee's exception in the caller's
  process.  Keyword arguments raise ``TypeError`` before anything is
  sent, as Java RMI has none.  Capabilities inside
  arguments/results ride the serializer's capability side table: a real
  capability is *exported* (a descriptor crosses, a proxy materializes on
  the other side), and a proxy sent back to its owning side collapses to
  the original capability object — so callbacks and the
  revoke-your-own-argument idiom work across the boundary.
* Revocation broadcast — the host kernel owns the export table and a
  broadcast channel over every live connection.  After each dispatch
  (and from a periodic sweeper), exports whose capability has been
  revoked are dropped and ``OP_REVOKED`` frames fan out, flipping the
  remote proxies to fail-fast local :class:`RevokedException`; a client
  that has not yet processed the broadcast still fails correctly,
  because the host-side stub rejects the call at dispatch.

Wire format
-----------

Every frame is ``opcode(1) + call_id(4) + payload``; the payload's first
byte names its marshal format.  A call has exactly one request format,
addressed by method index; a reply or control verb carries one value:

* ``MF_CALL``     — an ``OP_CALL``: ``export_id(4) + method_index(1)``
  then the positional-args stream, and — only when the caller's chain
  is restricted — one more value, the compressed access-control
  context (``policy.exported_wire_context``).  The host dispatches
  through a method table *bound at export time* (the PR-2
  compile-at-registration strategy): no method name crosses, and an
  unrestricted frame carries nothing but the ids and the arguments.
* ``MF_CALL_TABLED`` — the same call with capability arguments: call
  header, then descriptors, then the args stream (and the context).
* ``MF_INLINE``   — a reply or control value, no capabilities crossed.
* ``MF_TABLED``   — ``dumps(descriptors)`` then the value stream; the
  reader resolves the descriptors into the capability side table before
  reading the value.  Descriptors are ``("back", export_id)`` and
  ``("export", export_id, label, methods)``; a peer's method tuple is
  checked before any proxy class is built from it.
* ``MF_SHM``      — a bulk grant: ``(generation, offset, length)``
  naming bytes in the per-connection shared-memory ring
  (``repro.ipc.shm``); the granted bytes are themselves a payload in
  one of the formats above.  Payloads at or over :data:`SHM_THRESHOLD`
  ride the ring; the socket frame stays tiny.

Outbound frames are composed into one reusable per-connection buffer
(``ObjectWriter.dumps_into``) and leave through scatter-gather
``sendmsg``; inbound frames are sliced zero-copy out of a buffered
receive.

A dead host surfaces as :class:`DomainUnavailableException` (a
``RemoteException`` subclass the web layer maps to a retryable 503),
never as a hang: every *client-side* wire operation runs under a socket
timeout, and host-side broadcasts are non-blocking (a peer that stops
reading is closed, not waited on).  Host serving threads block reading
idle connections by design — they are daemons of a disposable process.
"""

from __future__ import annotations

import itertools
import keyword as _keyword
import os
import socket
import struct
import threading
import time

from repro.core import Capability, register_capref_type
from repro.core import convention as _convention
from repro.core import policy as _policy
from repro.core import segments as _segments
from repro.core.accounting import ShardedCounter
from repro.core.capability import _raise_revoked, _raise_terminated
from repro.core.errors import (
    DomainUnavailableException,
    JKernelError,
    NotSerializableError,
    RemoteException,
    RevokedException,
)
from repro.core.regions import (
    SEAL_THRESHOLD,
    AttachmentCache,
    SealedRegion,
    purge_pid as _purge_regions,
)
from repro.core.remote import is_remote_interface
from repro.core.serial import ObjectReader, ObjectWriter, dumps, loads

from .shm import GRANT, BulkRing, RingError
from .transport import (
    CALL_TIMEOUT,
    Channel,
    EndpointProcess,
    SocketServer,
    apply_deadline,
    readable_unless_eof,
    socket_path,
)
from .wire import (
    MAX_FRAME,
    WireError,
    decode_fds,
    fd_ancillary_space,
    send_frame,
    send_frame_parts,
    send_prefixed,
)

OP_CALL = 1
OP_RESULT = 2
OP_ERROR = 3
OP_REVOKED = 4
OP_CONTROL = 5
OP_BYE = 6
OP_RING = 7  # bulk-ring announcement: dumps((name, size, generation))

# Marshal formats: the first byte of every CALL/RESULT/ERROR/CONTROL
# payload (OP_REVOKED broadcasts stay a bare dumps(list) — they carry no
# capabilities and predate the format byte).
MF_INLINE = 0
MF_TABLED = 1
MF_CALL = 2
MF_CALL_TABLED = 3
MF_SHM = 4

_CALL_HDR = struct.Struct(">IB")  # export_id, method_index

# Whole-prefix packers for the hot composers: one struct call emits the
# frame header and marshal-format byte (and, for calls, the call header)
# back to back.
_VALUE_PREFIX = struct.Struct(">BIB")    # opcode, call_id, fmt
_CALL_PREFIX = struct.Struct(">BIBIB")   # opcode, call_id, fmt, export, index

# Precomputed serializer streams for the two null-call constants: an
# empty argument tuple and a None result.  A no-arg MF_CALL frame and a
# None MF_INLINE reply are fully constant except the call id, so the hot
# composers splice these in (and the parsers compare against them)
# without touching the serializer at all.  Byte-identical to
# ``ObjectWriter.write(())`` / ``write(None)`` minus the memo entry the
# empty tuple would earn — nothing else in a call frame can back-
# reference it, so the entry was dead weight.
_EMPTY_ARGS_STREAM = b"\x0a\x00\x00\x00\x00"   # _T_TUPLE, count=0
_NONE_STREAM = b"\x00"                          # _T_NULL
_REPLY_I64 = struct.Struct(">q")                # _T_INT64 payload
_I64_BOUND = 2 ** 63

# Whole-frame packers (LENGTH PREFIX INCLUDED) for the constant-shaped
# hot frames; paired with ``wire.send_prefixed``, each is one struct
# call and one send.
_NULL_CALL_FRAME = struct.Struct(">IBIBIB5s")  # 16, op, id, fmt, exp, m, args
_NONE_REPLY_FRAME = struct.Struct(">IBIBB")    # 7, op, id, fmt, T_NULL
_INT_REPLY_FRAME = struct.Struct(">IBIBBq")    # 15, op, id, fmt, T_INT64, v

# One-shot header decode for buffered receive: length, opcode, call id.
_HDR9 = struct.Struct(">IBI")

#: Payloads at/over this many bytes ride the shared-memory bulk ring
#: instead of the socket (read at send time, so tests can retune it).
#: The crossover is empirical: below it, one scatter-gather ``sendmsg``
#: ships the frame parts zero-copy and beats the ring's
#: assemble-into-shared-memory memcpy; above it, the ring wins (2.3x at
#: 256 KiB) because the socket path starts paying kernel buffer copies
#: and fragmented sends.  One value with the sealed-region threshold
#: (``repro.core.regions``), which reads the environment for both.
SHM_THRESHOLD = SEAL_THRESHOLD

#: Size of each per-connection bulk ring (one per send direction, lazily
#: created on the first over-threshold payload).
RING_SIZE = 1 << 20

_MAX_METHODS = 256  # a method index is one byte

#: How often the host sweeps its export table for revoked capabilities.
SWEEP_INTERVAL = 0.02

#: Control verbs safe to retry after a transport failure: none of them
#: mutate host state in a way a duplicate delivery could corrupt.
IDEMPOTENT_CONTROL = frozenset({"lookup", "stats", "ping"})

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


class ProtocolError(JKernelError):
    """Malformed or out-of-order cross-process LRMI frame."""


class _PeerClosed(WireError):
    """EOF with no partial frame buffered: the peer hung up *between*
    frames — a normal disconnect for a serving loop, still a transport
    failure for a caller awaiting its reply."""


class _ErrorReply(Exception):
    """Carries the callee's exception out of the reply loop, past the
    handlers that read an ``OSError`` or a ``ProtocolError`` as a broken
    connection: an error reply arrived whole, so the stream is in sync."""

    def __init__(self, error):
        super().__init__(error)
        self.error = error


# Registered so a host-side protocol failure re-raises as itself in the
# caller's process instead of decaying to the nearest registered base.
from repro.core.serial import register_class as _register_class  # noqa: E402

_register_class(ProtocolError, name="jkernel.ProtocolError")


#: Per-dispatch context on host serving threads: the SCM_RIGHTS file
#: descriptors that arrived with the call frame, claimable by the callee
#: (reply streaming).  Unclaimed descriptors are closed after dispatch.
_dispatch_ctx = threading.local()


def claim_fd():
    """Take ownership of a file descriptor granted to the current
    dispatch (sent with the call via SCM_RIGHTS).  The caller owns the
    returned fd and must close it; fds never claimed are closed by the
    dispatch machinery."""
    fds = getattr(_dispatch_ctx, "fds", None)
    if not fds:
        raise ProtocolError("no file descriptor granted to this dispatch")
    return fds.pop(0)


def exported_methods(capability):
    """The remote-method names a capability exposes across the wire.

    For an in-process stub these are the methods of its remote
    interfaces; for a proxy, the method tuple it was built from.  The
    tuple's ORDER is the compiled wire's method numbering: proxy method
    ``i`` dispatches to the host-side binding at index ``i`` — both
    sides derive it from this one function, so they cannot disagree.
    """
    if isinstance(capability, RemoteCapability):
        return capability._methods
    names = set()
    for base in type(capability).__mro__:
        if is_remote_interface(base):
            for name, member in vars(base).items():
                if not name.startswith("_") and callable(member):
                    names.add(name)
    return tuple(sorted(names))


def _host_binding(capability, name):
    """Copy-free host-side dispatch binding for one exported method.

    Deserializing the call frame already performed the protection-domain
    copy — the arguments the host holds are private reconstructions no
    other domain references — so routing the dispatch through the
    in-process stub would deep-copy every payload a SECOND time.  This
    binding keeps the stub's crossing semantics exactly (termination
    check, revocation check, guard check in the caller's context, call
    accounting, segment switch) but invokes the target directly on the
    already-private arguments.  Exceptions propagate raw: marshaling the
    reply is the copy, and unserializable ones degrade to
    RemoteException at the reply layer.
    """
    _enter = _segments._enter
    _exit = _segments._exit
    guard = capability._jk_guard  # fixed when the capability was created

    def invoke(*args):
        domain = capability._domain
        if domain.terminated:
            _raise_terminated(capability, domain)
        target = capability._target
        if target is None:
            _raise_revoked(capability)
        if guard is not None:
            _policy.check_permission(guard)
        domain._lrmi_calls_in += 1
        stack, segment = _enter(domain)
        try:
            return getattr(target, name)(*args)
        finally:
            _exit(stack, segment)

    return invoke


class ExportTable:
    """Kernel-owned table of capabilities reachable from other processes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_id = {}
        self._by_identity = {}
        self._dispatch = {}
        self._next = itertools.count(1).__next__

    def export(self, capability):
        """Register (or re-find) a capability; returns its export id.

        Registration is where the wire gets compiled: the method tuple
        is bound ONCE into an index-addressed dispatch table, so an
        MF_CALL frame goes straight from ``(export_id, method_index)``
        to a bound method — no getattr, no name decode.  The bound
        methods are the in-process stub's generated methods, which check
        revocation/termination on every call, so binding early never
        bypasses a later revoke (and a swept export disappears from this
        table entirely).  The index is the only way a peer names a
        method: ``revoke``, a dunder or any unexported name has no slot.
        """
        with self._lock:
            found = self._by_identity.get(id(capability))
            if found is not None:
                return found
            export_id = self._next()
            self._by_id[export_id] = capability
            self._by_identity[id(capability)] = export_id
            try:
                names = exported_methods(capability)
                if isinstance(capability, Capability):
                    bound = tuple(
                        _host_binding(capability, name) for name in names
                    )
                else:
                    bound = tuple(
                        getattr(capability, name, None) for name in names
                    )
            except Exception:
                bound = ()
            self._dispatch[export_id] = bound
            return export_id

    def get(self, export_id):
        return self._by_id.get(export_id)

    def methods(self, export_id):
        """A live export's index-addressed bound methods, else None."""
        return self._dispatch.get(export_id)

    def sweep(self):
        """Drop exports whose capability has been revoked; returns the
        dropped ids (the kernel broadcasts them)."""
        dropped = []
        with self._lock:
            for export_id, capability in list(self._by_id.items()):
                if getattr(capability, "revoked", False):
                    del self._by_id[export_id]
                    self._by_identity.pop(id(capability), None)
                    self._dispatch.pop(export_id, None)
                    dropped.append(export_id)
        return dropped

    def __len__(self):
        with self._lock:
            return len(self._by_id)


class RemoteCapability:
    """Base class of generated cross-process capability proxies."""

    def __init__(self, peer, export_id, label, methods):
        self._peer = peer
        self._export_id = export_id
        self._label = label
        self._methods = tuple(methods)
        self._revoked = False

    @property
    def revoked(self):
        return self._revoked

    @property
    def label(self):
        return self._label

    def revoke(self):
        """Ask the owning kernel to revoke the underlying capability.

        The host revokes the real stub, sweeps, and broadcasts; the
        local flag flips immediately so this process fails fast even
        before the broadcast round-trips.
        """
        self._revoked = True
        try:
            self._peer.control("revoke", self._export_id)
        except DomainUnavailableException:
            pass  # a dead host has revoked everything de facto

    def __repr__(self):
        state = "revoked" if self._revoked else "live"
        return f"<RemoteCapability {self._label} #{self._export_id} ({state})>"


_proxy_classes = {}

# Names a peer's method tuple may not use: the proxy's own members, whose
# local meaning (``revoke`` asks the owning kernel; ``revoked`` and
# ``label`` read local state) a remote method would replace.
_PROXY_MEMBERS = frozenset(
    name for name in dir(RemoteCapability) if not name.startswith("_")
)


def _check_methods(methods):
    """Reject a method tuple no proxy may be built from: a name that is
    no plain identifier, is private, shadows a proxy member or repeats,
    or more names than a one-byte index can address."""
    if type(methods) is not tuple or len(methods) > _MAX_METHODS:
        raise ProtocolError(f"export descriptor needs <= {_MAX_METHODS} names")
    for name in methods:
        if (type(name) is not str or not name.isidentifier()
                or _keyword.iskeyword(name) or name.startswith("_")
                or name in _PROXY_MEMBERS):
            raise ProtocolError(f"export descriptor names method {name!r}")
    if len(set(methods)) != len(methods):
        raise ProtocolError("export descriptor repeats a method name")


def _proxy_method(index, name):
    """One proxy method: a positional call sent as an MF_CALL frame
    addressed by ``index``; ``name`` serves the retry rule and errors."""
    def method(self, *args, **kwargs):
        if kwargs:
            raise TypeError(f"remote {name}() takes no keyword arguments")
        if self._revoked:
            raise RevokedException(f"{self._label}: capability revoked")
        return self._peer.call_fast(self._export_id, index, name, args)

    method.__name__ = method.__qualname__ = name
    return method


def _proxy_class(methods):
    """Proxy class for one remote-method tuple (checked, then cached)."""
    _check_methods(methods)
    found = _proxy_classes.get(methods)
    if found is not None:
        return found
    body = {name: _proxy_method(index, name)
            for index, name in enumerate(methods)}
    cls = type("RemoteCapabilityProxy", (RemoteCapability,), body)
    # Proxies cross in-process domain boundaries by reference (they ARE
    # the capability, as far as this process is concerned) and ride the
    # serializer's capability side table like real stubs.
    _convention.register_reference_type(cls)
    register_capref_type(cls)
    _proxy_classes[methods] = cls
    return cls


# -- marshalling --------------------------------------------------------------
#
# Capability descriptors (the side table's wire shape):
#
#   ("back", export_id)                    -- the RECEIVER's own export
#   ("export", export_id, label, methods)  -- a fresh export of the sender
#   ("region", name, gen, offset, length)  -- a sealed shared-memory GRANT
#
# A SealedRegion rides the same side table capabilities do, but its
# descriptor is a *grant*, not an export: nothing is recorded in the
# export table — the shared segment's own header carries the revocation
# state, and the serving loop revokes per-call views when the call
# returns (see _serve_call).

def _describe(peer, capability):
    if type(capability) is SealedRegion:
        return capability.grant_descriptor()
    if isinstance(capability, RemoteCapability):
        if capability._peer is not peer and capability._peer is not None:
            raise NotSerializableError(
                "cannot forward a remote capability to a third process"
            )
        return ("back", capability._export_id)
    methods = exported_methods(capability)
    if len(methods) > _MAX_METHODS:
        raise NotSerializableError(
            f"{len(methods)} remote methods, over {_MAX_METHODS}")
    export_id = peer.exports.export(capability)
    label = getattr(capability, "label", None) or type(capability).__name__
    return ("export", export_id, str(label), methods)


def _resolve(peer, descriptor):
    kind = descriptor[0] if type(descriptor) is tuple and descriptor else None
    if kind == "back" and len(descriptor) == 2:
        capability = peer.exports.get(descriptor[1])
        if capability is None:
            raise RevokedException(
                f"export #{descriptor[1]} is gone (revoked or swept)"
            )
        return capability
    if kind == "export" and len(descriptor) == 4:
        _, export_id, label, methods = descriptor
        return peer.proxy_for(export_id, label, methods)
    if kind == "region":
        return peer.attach_region(descriptor)
    raise ProtocolError(f"unknown capability descriptor {descriptor!r}")


def marshal(peer, value):
    """One flat marshal payload (format byte + stream(s)) — the
    standalone entry point; connections compose the same bytes straight
    into their frame buffers."""
    table = []
    stream = dumps(value, capability_table=table)
    if not table:
        return bytes((MF_INLINE,)) + stream
    descriptors = tuple(_describe(peer, capability) for capability in table)
    return bytes((MF_TABLED,)) + dumps(descriptors) + stream


def _read_tabled(peer, view, call=False):
    """Parse ``dumps(descriptors) ++ value stream`` from one buffer."""
    reader = ObjectReader(view)
    descriptors = reader.read()
    if type(descriptors) is not tuple:
        raise ProtocolError("capability descriptors are no tuple")
    reader.capability_table = [
        _resolve(peer, descriptor) for descriptor in descriptors
    ]
    return _finish(reader, reader.read(), call)


def _finish(reader, value, call):
    """End a parse at the end of the stream.  A value payload holds
    exactly one value; a call's may hold one more after its arguments,
    the caller's access-control context, and then ``(args, context)``
    is returned."""
    if reader._offset == len(reader._data):
        return (value, None) if call else value
    if call:
        context = reader.read()
        if reader._offset == len(reader._data):
            return value, _checked_context(context)
    raise ProtocolError("trailing bytes after value")


def _checked_context(context):
    """A trailing context as ``policy.imported_context`` takes it: a
    non-empty tuple of permission sets, each a tuple of ``(kind,
    target)`` string pairs."""
    if type(context) is tuple and context and all(
            type(pairs) is tuple and all(
                type(pair) is tuple and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str
                and pair[0] and ":" not in pair[0]
                for pair in pairs)
            for pairs in context):
        return context
    raise ProtocolError("malformed caller context after the arguments")


def unmarshal(peer, data):
    view = data if isinstance(data, memoryview) else memoryview(data)
    if len(view) == 0:
        raise ProtocolError("empty marshal payload")
    fmt = view[0]
    if fmt == MF_INLINE:
        return loads(view[1:])
    if fmt == MF_TABLED:
        return _read_tabled(peer, view[1:])
    raise ProtocolError(f"unexpected marshal format {fmt}")


class _Peer:
    """State shared by one side of the wire: the export table and the
    proxy cache (stable identity per export id)."""

    def __init__(self, exports=None):
        self.exports = exports if exports is not None else ExportTable()
        self._proxies = {}
        self._proxy_lock = threading.Lock()
        # Sealed-region attachment cache, created on the first inbound
        # grant.
        self._regions = None
        # What this peer's connections would otherwise swallow: ring
        # closes that hit a leaked view pinning a mapping, and ring
        # set-ups that failed (that connection sends inline for good).
        # Sharded: connections close concurrently.
        self.ring_close_failures = ShardedCounter()
        self.ring_setup_failures = ShardedCounter()

    def attach_region(self, descriptor):
        """Resolve a ``("region", ...)`` grant into a view region,
        recording it in the active dispatch's grant segment (if any) so
        the kernel can revoke it when the call returns."""
        cache = self._regions
        if cache is None:
            cache = self._regions = AttachmentCache()
        region = cache.resolve(descriptor)
        grants = getattr(_dispatch_ctx, "region_grants", None)
        if grants is not None:
            grants.append(region)
        return region

    def close_regions(self):
        """Drop the attachment cache (peer teardown); returns the count
        of close failures (for connection stats)."""
        cache, self._regions = self._regions, None
        if cache is None:
            return 0
        return cache.close()

    def proxy_for(self, export_id, label, methods):
        cls = _proxy_class(methods)  # checks the tuple, even on a hit
        with self._proxy_lock:
            proxy = self._proxies.get(export_id)
            if proxy is None:
                proxy = self._proxies[export_id] = cls(
                    self, export_id, label, methods)
            return proxy

    def mark_revoked(self, export_ids):
        with self._proxy_lock:
            for export_id in export_ids:
                proxy = self._proxies.get(export_id)
                if proxy is not None:
                    proxy._revoked = True

    # Overridden by the concrete peers.
    def call_fast(self, export_id, method_index, method, args):
        raise NotImplementedError

    def control(self, verb, *args):
        raise NotImplementedError


class _Connection:
    """One framed socket shared by both protocol directions.

    Strictly nested use: while a caller awaits its reply it dispatches
    any incoming ``OP_CALL`` on its own thread (cross-process re-entry,
    the A→B→A LRMI idiom), and applies revocation broadcasts that arrive
    interleaved with the reply.  That strict nesting is also what makes
    the bulk ring's bump allocator safe — see ``repro.ipc.shm``.
    """

    def __init__(self, sock, peer, dispatcher=None, recv_fds=False):
        self.sock = sock
        self.peer = peer
        self.dispatcher = dispatcher  # host-side: handles CALL/CONTROL
        self._send_lock = threading.Lock()
        self._call_ids = itertools.count(1).__next__
        self.closed = False
        self.last_released = 0.0  # pool-release stamp (probe freshness)
        # Outbound frame assembly: one long-lived writer bound to one
        # reusable buffer; the capability side table is rebuilt per
        # frame.  The writer's buffer/memo/table are managed here
        # directly (not via dumps_into save/restore) — the writer is
        # exclusive to this connection, and a *nested* serialization
        # mid-write goes through ObjectWriter.dumps, which saves and
        # restores around its own pooled buffer.
        self._writer = ObjectWriter()
        self._obuf = bytearray()
        self._table = []
        self._writer.capability_table = self._table
        # Inbound buffering: immutable bytes + offset, so zero-copy
        # memoryview slices of parsed frames survive buffer compaction.
        self._rbuf = b""
        self._roff = 0
        # Pooled reader for plain (untabled) streams, reset per frame —
        # the receive-side twin of the pooled writer above.  Its _data
        # is dropped after every parse so it never pins a receive
        # buffer or a shared-memory ring view.
        self._reader = ObjectReader(b"")
        # Bulk rings, one per direction, lazily created/attached.
        self._send_ring = None
        self._peer_ring = None
        self._ring_failed = False
        # Sealed regions referenced by the last outbound REPLY: the
        # replier may hold no other reference (a response body sealed on
        # the fly), and a GC finalizer poisoning the segment before the
        # caller reads the grant would turn a valid reply into a typed
        # revocation.  Strict nesting per connection guarantees the
        # previous reply is fully consumed before the next composes, so
        # replacing the held list at each reply is the release point.
        self._held_regions = None
        # SCM_RIGHTS receive side (host connections only).
        self._recv_fds = recv_fds
        self._in_fds = []
        self._anc_space = fd_ancillary_space() if recv_fds else 0
        # Post-dispatch hook, resolved once: peers define it as a class
        # method (the host kernel's revocation sweep), never per call.
        self._after_dispatch = getattr(peer, "after_dispatch", None)

    # -- framing ----------------------------------------------------------
    def _send(self, opcode, call_id, payload):
        frame = bytes((opcode,)) + call_id.to_bytes(4, "big") + payload
        with self._send_lock:
            send_frame(self.sock, frame)

    def _frame_buffer(self):
        frame = self._obuf
        try:
            del frame[:]
        except BufferError:
            # A view of the previous frame is still alive somewhere (an
            # exception traceback, typically): abandon that buffer.
            frame = self._obuf = bytearray()
        writer = self._writer
        writer._buffer = frame
        writer._memo.clear()
        del self._table[:]
        return frame

    def _send_value(self, opcode, call_id, value):
        """Compose and send one frame carrying a marshalled value."""
        frame = self._frame_buffer()
        frame += _VALUE_PREFIX.pack(opcode, call_id, MF_INLINE)
        self._writer.write(value)
        table = self._table
        descriptors = None
        if table:
            frame[5] = MF_TABLED
            descriptors = dumps(
                tuple(_describe(self.peer, capability) for capability in table)
            )
            # Pin granted regions until the next reply on this
            # connection (see __init__).
            held = [c for c in table if type(c) is SealedRegion]
            self._held_regions = held or None
        self._send_built(frame, 6, descriptors)

    def _send_call(self, call_id, export_id, method_index, args, fds=()):
        """Compose and send one MF_CALL frame.  A restricted caller's
        compressed access-control context follows the arguments as one
        more value; an unrestricted caller's frame ends with them."""
        context = _policy.restricted() and _policy.exported_wire_context()
        if not args and not fds and not context:
            # A no-arg call is constant but for the ids: one pack, no
            # frame buffer, no serializer.
            frame = _NULL_CALL_FRAME.pack(16, OP_CALL, call_id, MF_CALL,
                                          export_id, method_index,
                                          _EMPTY_ARGS_STREAM)
            with self._send_lock:
                send_prefixed(self.sock, frame)
            return
        frame = self._frame_buffer()
        frame += _CALL_PREFIX.pack(OP_CALL, call_id, MF_CALL,
                                   export_id, method_index)
        self._writer.write(args)
        if context:
            self._writer.write(context)
        table = self._table
        descriptors = None
        if table:
            frame[5] = MF_CALL_TABLED
            descriptors = dumps(
                tuple(_describe(self.peer, capability) for capability in table)
            )
        self._send_built(frame, 6 + _CALL_HDR.size, descriptors, fds)

    def _send_built(self, frame, splice_at, descriptors, fds=()):
        """Ship a composed frame: over the bulk ring when large, else as
        a scatter-gather socket frame.  ``descriptors`` (when present)
        splice in at ``splice_at`` — they were computed AFTER the value
        stream was written (the side table fills during the write), but
        the reader needs them FIRST; scattering the parts avoids ever
        rebuilding the frame to reorder it."""
        payload_length = len(frame) - 5 + (len(descriptors) if descriptors else 0)
        if payload_length >= SHM_THRESHOLD and not fds:
            grant = self._grant(frame, splice_at, descriptors)
            if grant is not None:
                small = frame[:5] + bytes((MF_SHM,)) + grant
                with self._send_lock:
                    send_frame(self.sock, small)
                return
        if descriptors is None:
            with self._send_lock:
                send_frame(self.sock, frame, fds=fds)
            return
        view = memoryview(frame)
        parts = (view[:splice_at], descriptors, view[splice_at:])
        with self._send_lock:
            send_frame_parts(self.sock, parts, fds=fds)

    def _grant(self, frame, splice_at, descriptors):
        ring = self._ensure_send_ring()
        if ring is None:
            return None
        view = memoryview(frame)
        if descriptors is None:
            return ring.grant(view[5:])
        return ring.grant_parts(
            (view[5:splice_at], descriptors, view[splice_at:])
        )

    def _ensure_send_ring(self):
        """The outbound bulk ring, creating and announcing it on first
        use; None when ring setup failed once (inline frames forever)."""
        if self._send_ring is not None:
            return self._send_ring
        if self._ring_failed:
            return None
        try:
            ring = BulkRing.create(RING_SIZE)
        except Exception:
            self._ring_failed = True
            self.peer.ring_setup_failures.add()
            return None
        announcement = (
            bytes((OP_RING,))
            + (0).to_bytes(4, "big")
            + dumps((ring.name, ring.size, ring.generation))
        )
        try:
            with self._send_lock:
                send_frame(self.sock, announcement)
        except (OSError, WireError):
            ring.close()
            raise
        self._send_ring = ring
        return ring

    def _fill(self):
        """One socket read into the inbound buffer (with SCM_RIGHTS
        collection on fd-receiving connections)."""
        if self._recv_fds:
            chunk, ancdata, _flags, _addr = self.sock.recvmsg(
                65536, self._anc_space
            )
            if ancdata:
                self._in_fds.extend(decode_fds(ancdata))
        else:
            chunk = self.sock.recv(65536)
        if not chunk:
            if self._roff < len(self._rbuf):
                raise WireError("connection closed mid-frame")
            raise _PeerClosed("connection closed")
        if self._roff:
            rest = self._rbuf[self._roff:]
            # Steady state: the previous frame was fully consumed, so
            # the new chunk IS the buffer — no copy, no concat.
            self._rbuf = rest + chunk if rest else chunk
            self._roff = 0
        elif self._rbuf:
            self._rbuf += chunk
        else:
            self._rbuf = chunk

    def _recv_raw(self):
        """Next ``(opcode, call_id, payload_view)`` from the buffered
        stream — typically one recv() per frame, and the payload is a
        zero-copy view into the receive buffer."""
        while True:
            buf, off = self._rbuf, self._roff
            available = len(buf) - off
            if available >= 9:
                # Every valid frame is >= 9 bytes on the wire, so the
                # whole header decodes in one unpack.
                length, opcode, call_id = _HDR9.unpack_from(buf, off)
                if length > MAX_FRAME:
                    raise WireError(f"frame too large: {length}")
                if length < 5:
                    raise WireError(f"short frame ({length} bytes)")
                end = off + 4 + length
                if available >= 4 + length:
                    self._roff = end
                    return opcode, call_id, memoryview(buf)[off + 9:end]
            elif available >= 4:
                length = int.from_bytes(buf[off:off + 4], "big")
                if length > MAX_FRAME:
                    raise WireError(f"frame too large: {length}")
                if length < 5:
                    raise WireError(f"short frame ({length} bytes)")
            self._fill()

    def _recv(self):
        while True:
            opcode, call_id, payload = self._recv_raw()
            if opcode == OP_RING:
                self._attach_peer_ring(loads(payload))
                continue
            return opcode, call_id, payload

    def _attach_peer_ring(self, announcement):
        name, _size, generation = announcement
        previous, self._peer_ring = self._peer_ring, None
        if previous is not None and previous.close() and self.peer is not None:
            self.peer.ring_close_failures.add()
        try:
            self._peer_ring = BulkRing.attach(name, generation)
        except (OSError, ValueError) as exc:
            raise WireError(
                f"cannot attach bulk ring {name!r}: {exc}"
            ) from None

    def _open(self, payload):
        """Resolve a payload to ``(format, bytes, ring_view)`` —
        following an MF_SHM grant into the peer's ring when present.
        ``ring_view`` is the live ring export to release once the bytes
        are deserialized (None for inline payloads): deterministic
        release is what keeps ``shm.close()`` from hitting a pinned
        mapping (BufferError) at teardown."""
        if len(payload) == 0:
            raise ProtocolError("empty frame payload")
        fmt = payload[0]
        if fmt != MF_SHM:
            return fmt, payload, None
        if self._peer_ring is None:
            raise ProtocolError("bulk grant before ring announcement")
        generation, offset, length = GRANT.unpack_from(payload, 1)
        try:
            inner = self._peer_ring.view(generation, offset, length)
        except RingError as exc:
            raise ProtocolError(str(exc)) from None
        if len(inner) == 0:
            inner.release()
            raise ProtocolError("empty bulk grant")
        fmt = inner[0]
        if fmt == MF_SHM:
            inner.release()
            raise ProtocolError("nested bulk grant")
        return fmt, inner, inner

    @staticmethod
    def _release_ring_view(ring_view):
        """Release a consumed ring view; an in-flight exception traceback
        can still pin a derived sub-view, in which case the mapping
        unpins at GC and ``BulkRing.close`` counts the miss."""
        try:
            ring_view.release()
        except BufferError:
            pass

    _EMPTY_VIEW = memoryview(b"")

    def _parse(self, fmt, payload, offset=1, call=False):
        if fmt in (MF_INLINE, MF_CALL):
            reader = self._reader
            reader._data = memoryview(payload)[offset:]
            reader._offset = 0
            if reader._memo:
                del reader._memo[:]
            if reader.capability_table:
                del reader.capability_table[:]
            try:
                return _finish(reader, reader.read(), call)
            finally:
                reader._data = self._EMPTY_VIEW
        return _read_tabled(self.peer, payload[offset:], call)

    def _read_value(self, payload):
        # Constant-shaped replies skip the reader entirely: a None
        # (MF_INLINE + T_NULL) and a single in-range int (MF_INLINE +
        # T_INT64 + 8 bytes) — the two dominant result shapes.
        size = len(payload)
        if size == 2 and payload[0] == MF_INLINE and payload[1] == 0x00:
            return None
        if size == 10 and payload[0] == MF_INLINE and payload[1] == 0x03:
            return _REPLY_I64.unpack_from(payload, 2)[0]
        fmt, payload, ring_view = self._open(payload)
        try:
            if fmt not in (MF_INLINE, MF_TABLED):
                raise ProtocolError(f"unexpected marshal format {fmt}")
            return self._parse(fmt, payload)
        finally:
            if ring_view is not None:
                self._release_ring_view(ring_view)

    def send_revoked(self, export_ids):
        """Broadcast revoked export ids WITHOUT ever blocking.

        The broadcaster (the host's sweeper, and after_dispatch on every
        serving thread) must not wedge fleet-wide behind one client that
        stopped reading: the frame goes out with ``MSG_DONTWAIT`` and a
        peer whose socket buffer cannot take it atomically is closed —
        a client not draining its socket while revocations queue is
        indistinguishable from a dead one, and the host-side dispatch
        check keeps revocation correct for it regardless.
        """
        payload = dumps(list(export_ids))
        frame = bytes((OP_REVOKED,)) + (0).to_bytes(4, "big") + payload
        data = len(frame).to_bytes(4, "big") + frame
        flags = getattr(socket, "MSG_DONTWAIT", 0)
        try:
            with self._send_lock:
                sent = self.sock.send(data, flags)
            if sent != len(data):
                self.close()  # partial frame would desync the stream
        except (BlockingIOError, InterruptedError, OSError):
            self.close()

    # -- caller side -------------------------------------------------------
    def control(self, verb, args, deadline=None):
        """One control-verb round trip; serves nested work while waiting.

        ``deadline`` (a ``time.monotonic`` instant) bounds the WHOLE
        round trip, not just each socket operation: a host that drips
        broadcast frames fast enough to keep every individual recv
        under the socket timeout still cannot hold the caller past it.
        """
        call_id = self._call_ids()
        return self._round(
            lambda: self._send_value(OP_CONTROL, call_id, (verb, args)),
            call_id, deadline,
        )

    def call_fast(self, export_id, method_index, args, deadline=None):
        """One call round trip: an MF_CALL frame, index dispatch."""
        call_id = self._call_ids()
        return self._round(
            lambda: self._send_call(call_id, export_id, method_index, args),
            call_id, deadline,
        )

    def call_streamed(self, export_id, method_index, args, fd,
                      deadline=None, on_sent=None):
        """A call that grants ``fd`` to the callee via SCM_RIGHTS (reply
        streaming: the host writes the HTTP response to it directly).
        The frame is the proxies' MF_CALL, with the fd alongside.

        ``on_sent`` fires only after the call frame went out whole.  The
        host dispatches (and can write the granted fd) only on a
        *complete* frame — a failed or truncated send kills the host
        connection, which closes unclaimed fds without dispatching — so
        a send-phase exception means the callee never touched the fd and
        the caller may safely fall back to a marshalled reply.
        """
        call_id = self._call_ids()

        def send():
            self._send_call(call_id, export_id, method_index, args, (fd,))
            if on_sent is not None:
                on_sent()

        return self._round(send, call_id, deadline)

    def _round(self, send, call_id, deadline):
        base_timeout = self.sock.gettimeout()
        try:
            apply_deadline(self.sock, deadline, base_timeout)
            send()
            return self._await(call_id, deadline, base_timeout)
        except _ErrorReply as reply:
            raise reply.error from None
        except socket.timeout as exc:
            raise self._transport_error(exc, timed_out=True) from None
        except (OSError, WireError) as exc:
            raise self._transport_error(exc, timed_out=False) from None
        except ProtocolError:
            # A local parse failure means the stream may be desynced;
            # the connection cannot be trusted for another frame.
            self.close()
            raise
        finally:
            if deadline is not None and not self.closed:
                try:
                    self.sock.settimeout(base_timeout)
                except OSError:
                    pass

    def _transport_error(self, exc, timed_out):
        self.close()
        error = DomainUnavailableException(
            f"out-of-process domain unreachable: {exc}"
        )
        # The channel's retry discriminator: a deadline expiry must
        # never be retried — the time is spent — while a connection
        # reset on a pooled socket is the probe-then-die race.
        error.timed_out = timed_out
        return error

    def _await(self, call_id, deadline=None, base_timeout=None):
        while True:
            apply_deadline(self.sock, deadline, base_timeout)
            opcode, reply_id, payload = self._recv()
            if opcode == OP_REVOKED:
                self.peer.mark_revoked(loads(payload))
                continue
            if opcode == OP_CALL and self.dispatcher is None:
                # Nested callback into this process while we wait.
                self._serve_call(reply_id, payload)
                continue
            if opcode in (OP_CALL, OP_CONTROL):
                self._dispatch(opcode, reply_id, payload)
                continue
            if reply_id != call_id:
                raise WireError(
                    f"reply {reply_id} does not match call {call_id}"
                )
            if opcode == OP_RESULT:
                return self._read_value(payload)
            if opcode == OP_ERROR:
                exc = self._read_value(payload)
                if not isinstance(exc, BaseException):
                    exc = RemoteException(f"remote failure: {exc!r}")
                raise _ErrorReply(exc)
            raise WireError(f"unexpected opcode {opcode}")

    # -- callee side -------------------------------------------------------
    def _reply_result(self, call_id, value):
        # The two dominant result shapes — None and a small int — are
        # constant-sized MF_INLINE frames: one pack, no frame buffer,
        # no serializer (mirrored by the _read_value fast paths).
        if value is None:
            frame = _NONE_REPLY_FRAME.pack(7, OP_RESULT, call_id,
                                           MF_INLINE, 0x00)
            with self._send_lock:
                send_prefixed(self.sock, frame)
            return
        if type(value) is int and -_I64_BOUND <= value < _I64_BOUND:
            frame = _INT_REPLY_FRAME.pack(15, OP_RESULT, call_id,
                                          MF_INLINE, 0x03, value)
            with self._send_lock:
                send_prefixed(self.sock, frame)
            return
        self._send_value(OP_RESULT, call_id, value)

    def _reply_error(self, call_id, exc):
        try:
            self._send_value(OP_ERROR, call_id, exc)
        except (OSError, WireError):
            raise
        except Exception:
            # The exception itself would not serialize; nothing has hit
            # the socket yet (marshalling precedes the send), so degrade
            # to a typed wrapper on a still-synchronized stream.
            self._send_value(
                OP_ERROR, call_id,
                RemoteException(
                    f"{type(exc).__qualname__} in remote domain: {exc}"
                ),
            )

    def _invoke_payload(self, payload):
        # Inline the common non-grant case; _open handles MF_SHM (and
        # re-raises the empty-payload check it shares).  The ring view
        # (when any) is released as soon as the arguments are parsed —
        # the dispatch below can run arbitrarily long, and a view held
        # across it would pin the ring mapping for the duration.
        if len(payload) and payload[0] != MF_SHM:
            fmt = payload[0]
            ring_view = None
        else:
            fmt, payload, ring_view = self._open(payload)
        try:
            if fmt != MF_CALL and fmt != MF_CALL_TABLED:
                raise ProtocolError(f"unexpected call format {fmt}")
            try:
                export_id, method_index = _CALL_HDR.unpack_from(payload, 1)
            except struct.error:
                raise ProtocolError("truncated call header") from None
            if payload[1 + _CALL_HDR.size:] == _EMPTY_ARGS_STREAM:
                args, context = (), None  # the constant no-arg frame
            else:
                args, context = self._parse(fmt, payload,
                                            offset=1 + _CALL_HDR.size,
                                            call=True)
        finally:
            if ring_view is not None:
                del payload  # drop the alias; args are private copies now
                self._release_ring_view(ring_view)
        bound = self.peer.exports.methods(export_id)
        if bound is None:
            raise RevokedException(
                f"export #{export_id} is gone (revoked or swept)"
            )
        if method_index >= len(bound) or bound[method_index] is None:
            raise ProtocolError(
                f"export #{export_id} has no method #{method_index}"
            )
        if context is None:
            return bound[method_index](*args)
        # The caller's context joins this process's walk for the dispatch
        # (and any nested call it makes): the effective-permission
        # intersection spans the process boundary.
        with _policy.imported_context(context):
            return bound[method_index](*args)

    def _serve_call(self, call_id, payload):
        fds = self._in_fds
        if fds:
            self._in_fds = []
            _dispatch_ctx.fds = fds
        # Per-call region grant segment: any sealed-region view resolved
        # while THIS call unmarshals (or during nested calls it makes)
        # is recorded and revoked when the call returns — the kernel's
        # grant-for-the-duration-of-the-call rule.  Armed only for
        # payloads that can carry a side table; the null-call hot path
        # never touches the thread-local.
        tracked = (len(payload) != 0
                   and payload[0] in (MF_CALL_TABLED, MF_SHM))
        if tracked:
            outer_grants = getattr(_dispatch_ctx, "region_grants", None)
            grants = _dispatch_ctx.region_grants = []
        try:
            try:
                result = self._invoke_payload(payload)
                if _chaos is not None:
                    # Chaos crash point: the host dies after executing
                    # the call but before replying — the worst spot for
                    # a caller, which must see a typed error, never a
                    # hang.
                    _chaos.crash_point("lrmi.host.dispatch")
            except Exception as exc:
                self._reply_error(call_id, exc)
            else:
                self._reply_result(call_id, result)
            after = self._after_dispatch
            if after is not None:
                after()
        finally:
            if tracked:
                # Revoke AFTER the reply went out: a granted region may
                # legitimately appear in the result (the callee handing
                # the same bytes back), and its descriptor must still
                # validate when the caller resolves it.
                _dispatch_ctx.region_grants = outer_grants
                for region in grants:
                    region.revoke()
            if fds:
                _dispatch_ctx.fds = []
                for fd in fds:  # whatever the callee did not claim_fd()
                    try:
                        os.close(fd)
                    except OSError:
                        pass

    def _dispatch(self, opcode, call_id, payload):
        if opcode == OP_CALL:
            self._serve_call(call_id, payload)
            return
        try:
            verb, args = self._read_value(payload)
            result = self.dispatcher(verb, args)
        except Exception as exc:
            self._reply_error(call_id, exc)
        else:
            self._reply_result(call_id, result)

    def serve_loop(self):
        """Host-side connection loop: serve until BYE or the peer hangs
        up between frames.  Any other transport failure propagates to
        the accept loop, which counts it (``connection_errors``)."""
        try:
            while not self.closed:
                opcode, call_id, payload = self._recv()
                if opcode == OP_BYE:
                    break
                if opcode == OP_REVOKED:
                    self.peer.mark_revoked(loads(payload))
                    continue
                self._dispatch(opcode, call_id, payload)
        except _PeerClosed:
            pass  # pool eviction and overflow close without a BYE
        finally:
            self.close()

    def close(self):
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass
        fds, self._in_fds = self._in_fds, []
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass
        failures = 0
        ring, self._send_ring = self._send_ring, None
        if ring is not None:
            failures += ring.close()
        ring, self._peer_ring = self._peer_ring, None
        if ring is not None:
            failures += ring.close()
        self._held_regions = None
        peer = self.peer
        if peer is not None:
            if failures:
                peer.ring_close_failures.add(failures)
            if self.dispatcher is not None:
                # Host-side connection: its per-connection peer (and the
                # attachment cache of every grant it resolved) dies with
                # it.  Client-side connections share the DomainClient
                # peer, whose cache closes with the client.
                peer.close_regions()


# -- the host process ---------------------------------------------------------

class _ConnectionPeer(_Peer):
    """Per-connection peer on the host side: shares the kernel's export
    table (any connection may invoke any export) but owns its proxy
    cache and routes outbound (callback) calls over its own socket."""

    def __init__(self, kernel, connection):
        super().__init__(exports=kernel.exports)
        self._kernel = kernel
        self._connection = connection
        # Aggregate kernel-wide: connections come and go, the stats verb
        # reports one counter of each kind for the host.
        self.ring_close_failures = kernel.ring_close_failures
        self.ring_setup_failures = kernel.ring_setup_failures

    def call_fast(self, export_id, method_index, method, args):
        return self._connection.call_fast(export_id, method_index, args)

    def control(self, verb, *args):
        raise ProtocolError("control verbs flow client -> host only")

    def after_dispatch(self):
        self._kernel.sweep_and_broadcast()


class _HostKernel(_Peer):
    """The host-side kernel state: bindings, exports, broadcast bus."""

    def __init__(self, bindings):
        super().__init__()
        self.bindings = bindings
        self.server = None  # the accept loop, once _host_main starts it
        self._connections = []
        self._conn_lock = threading.Lock()

    def register_connection(self, connection):
        with self._conn_lock:
            self._connections.append(connection)

    def unregister_connection(self, connection):
        with self._conn_lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def after_dispatch(self):
        self.sweep_and_broadcast()

    def sweep_and_broadcast(self):
        dropped = self.exports.sweep()
        if not dropped:
            return
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.send_revoked(dropped)

    def handle_control(self, verb, args):
        if verb == "lookup":
            (name,) = args
            capability = self.bindings.get(name)
            if capability is None:
                raise KeyError(f"no binding named {name!r}")
            return capability
        if verb == "revoke":
            (export_id,) = args
            capability = self.exports.get(export_id)
            if capability is not None:
                capability.revoke()
                self.sweep_and_broadcast()
            return True
        if verb == "terminate":
            (name,) = args
            capability = self.bindings.get(name)
            if capability is None:
                raise KeyError(f"no binding named {name!r}")
            domain = getattr(capability, "creator", None)
            if domain is not None:
                domain.terminate()
            self.sweep_and_broadcast()
            return True
        if verb == "stats":
            from repro.core import get_accountant

            domains = {}
            for name, capability in self.bindings.items():
                domain = getattr(capability, "creator", None)
                if domain is not None:
                    domains[name] = {"domain": domain.name,
                                     "terminated": domain.terminated,
                                     **domain.stats}
            return {
                "pid": os.getpid(),
                "bindings": sorted(self.bindings),
                "exports": len(self.exports),
                "accounts": get_accountant().report(),
                "domains": domains,
                "connection_errors": (self.server.connection_errors
                                      if self.server is not None else 0),
                "ring_setup_failures": self.ring_setup_failures.value,
                "ring_close_failures": self.ring_close_failures.value,
            }
        if verb == "ping":
            return "pong"
        if verb == "shutdown":
            threading.Thread(
                target=lambda: (time.sleep(0.05), os._exit(0)),
                daemon=True,
            ).start()
            return True
        raise ProtocolError(f"unknown control verb {verb!r}")


def _host_main(path, setup):
    """Child-process entry: build bindings, serve LRMI until killed."""
    bindings = setup()
    if not isinstance(bindings, dict) or not bindings:
        raise TypeError("setup() must return a non-empty {name: Capability}")
    kernel = _HostKernel(bindings)

    def sweeper():
        while True:
            time.sleep(SWEEP_INTERVAL)
            kernel.sweep_and_broadcast()

    threading.Thread(target=sweeper, daemon=True,
                     name="lrmi-host-sweeper").start()

    def serve(conn_sock):
        connection = _Connection(conn_sock, None,
                                 dispatcher=kernel.handle_control,
                                 recv_fds=True)
        connection.peer = _ConnectionPeer(kernel, connection)
        kernel.register_connection(connection)
        try:
            connection.serve_loop()
        finally:
            kernel.unregister_connection(connection)

    kernel.server = SocketServer(path, serve)
    kernel.server.serve()


class DomainHostProcess(EndpointProcess):
    """Forks a child hosting out-of-process domains behind LRMI.

    ``setup`` runs **in the child** after fork and returns
    ``{name: Capability}`` — the host's published bindings (looked up by
    :meth:`DomainClient.lookup`).  Closures are fine; nothing is pickled.
    """

    def __init__(self, setup, name="domain-host"):
        # Reclaimed on stop: whatever region segments the dead host left
        # in /dev/shm — the supervisor's by-name purge is the cleanup of
        # record.
        super().__init__(socket_path("repro-lrmi"), f"domain host {name!r}",
                         lambda: _host_main(self.path, setup),
                         error=DomainUnavailableException,
                         reclaim=_purge_regions)
        self.name = name


# -- the client ---------------------------------------------------------------

class DomainClient(_Peer, Channel):
    """Parent-side peer: pooled connections to one domain host.

    Robustness knobs (all off by default, preserving PR-5 behaviour):

    * ``call_deadline`` — seconds bounding each whole round trip; on
      expiry the call raises :class:`DomainUnavailableException`
      instead of waiting out per-recv socket timeouts one by one.
    * ``retries``/``backoff`` — bounded retry with exponential backoff
      after a transport failure, applied ONLY to idempotent work:
      control verbs in :data:`IDEMPOTENT_CONTROL` and methods the
      caller declared via ``idempotent=``.

    The pool and the failure handling are ``transport.Channel``'s; what
    is LRMI's: a dialed socket becomes a :class:`_Connection`, and an
    idle one that turns readable is dead only on EOF — a queued
    ``OP_REVOKED`` broadcast is healthy.
    """

    transport_error = DomainUnavailableException
    peer_label = "domain host"
    idle_readable_ok = staticmethod(readable_unless_eof)

    def __init__(self, path, timeout=CALL_TIMEOUT, pool_size=4, *,
                 call_deadline=None, retries=0, backoff=0.05,
                 idempotent=()):
        _Peer.__init__(self)
        Channel.__init__(self, path, timeout=timeout, pool_size=pool_size,
                         call_deadline=call_deadline, retries=retries,
                         backoff=backoff)
        self._idempotent = frozenset(idempotent)

    def _wrap(self, sock):
        return _Connection(sock, self)

    # -- peer interface ----------------------------------------------------
    def call_fast(self, export_id, method_index, method, args):
        deadline = self._deadline()
        return self._roundtrip(
            lambda conn: conn.call_fast(export_id, method_index, args,
                                        deadline),
            deadline, retry=method in self._idempotent,
        )

    def call_streamed(self, export_id, method_index, args, fd, *,
                      on_grant=None):
        """Invoke the method at ``method_index`` in the export's method
        tuple, granting ``fd`` to the host via SCM_RIGHTS.

        No retries of any kind: once the descriptor crosses, the callee
        may have written bytes to it, and a duplicate delivery could
        interleave output.  ``on_grant`` (when given) runs the moment
        the call frame has gone out whole — the point of no return,
        after which the fd is (possibly) in foreign hands.  A send-phase
        failure raises *without* firing it: the host only dispatches a
        complete frame, so the fd was never written and the caller may
        fall back to an ordinary marshalled reply.
        """
        deadline = self._deadline()
        connection, _reused = self._checkout()
        try:
            return connection.call_streamed(export_id, method_index, args,
                                            fd, deadline=deadline,
                                            on_sent=on_grant)
        finally:
            self._release(connection)

    def control(self, verb, *args):
        deadline = self._deadline()
        return self._roundtrip(
            lambda conn: conn.control(verb, args, deadline),
            deadline, retry=verb in IDEMPOTENT_CONTROL,
        )

    # -- convenience -------------------------------------------------------
    def lookup(self, name):
        """Proxy for a host binding (a cross-process capability)."""
        capability = self.control("lookup", name)
        if not isinstance(capability, RemoteCapability):
            raise ProtocolError(
                f"lookup({name!r}) did not yield a capability"
            )
        return capability

    def stats(self):
        return self.control("stats")

    def terminate(self, name):
        """Terminate the domain behind a binding (revokes its exports)."""
        return self.control("terminate", name)

    def close(self):
        for connection in self._drain():
            try:
                connection._send(OP_BYE, 0, b"")
            except (OSError, WireError):
                pass
            connection.close()
        self.close_regions()


def connect(host, **kwargs):
    """Client for a started :class:`DomainHostProcess`; keyword options
    are forwarded to :class:`DomainClient` (deadline/retry knobs)."""
    return DomainClient(host.path, **kwargs)
