"""Sealed shared-memory regions: MPK-style grant/seal/revoke for bulk data.

The calling convention's central trade — immutable data crosses domains
by reference, everything else by copy — only held *in-process* until
now: a sealed carrier crossing a process boundary re-serialized byte by
byte.  This module backs sealed buffers with
``multiprocessing.shared_memory`` so the same bytes are addressable from
every process, and models protection-key semantics in the kernel
(borrowing from "Efficient Sealable Protection Keys for RISC-V" and
"Capacity"):

* **seal** — :func:`seal` copies a payload once into a pooled shared
  segment and returns a :class:`SealedRegion`, validated and deeply
  immutable from birth.  In-process it crosses every boundary by
  reference (``convention.PASS_BY_REFERENCE``, like any sealed class).
* **grant** — cross-process, a region marshals as a tiny generation-
  checked ``("region", name, generation, offset, length)`` descriptor on
  the LRMI side table (``repro.ipc.lrmi``), never as its bytes.  The
  receiver maps the segment (cached per peer) and hands the callee a
  read-only *view* region.
* **revoke** — the kernel records every view materialized while a call
  unmarshals and revokes them when the call returns; a callee that
  stashed its view gets a typed
  :class:`~repro.core.errors.RegionRevokedError` on the next access —
  never stale bytes.  An owner-side :meth:`SealedRegion.revoke` is
  broadcast through the segment itself: the generation word in the
  shared header is poisoned before the segment is recycled, so every
  attached process observes the revocation on its next read without a
  wire frame (the shared memory IS the broadcast channel; the PR 5
  OP_REVOKED fan-out stays what it was — capability-table coherence).

Lifecycle discipline (the ``ipc/shm.py`` rules, extended to pools)
------------------------------------------------------------------

* **self-describing segments** — every segment starts with a 16-byte
  header ``(magic, generation, length)``.  A grant is honored only when
  its generation matches the header: a respawned host replaying stale
  state, or a handle outliving a pool recycle, is refused with a typed
  error, never read.
* **deterministic names** — segments are named ``jkr<pid>g<seq>``, so a
  supervisor that outlives a SIGKILLed owner can reclaim every one of
  its segments by name (:func:`purge_pid`); both ends may unlink, and
  unlink-by-name is idempotent.
* **owner-liveness check** — a view whose owner process died validates
  against a header nobody can poison anymore, so reads additionally
  probe the owner pid (parsed from the name) and fail closed.
* **pooling** — revoked owner segments return to a per-process
  :class:`RegionPool` free list with a *bumped* generation instead of
  being unlinked, amortizing ``shm_open`` across responses the way the
  bulk ring amortizes it across frames.  ``atexit`` drains the pool and
  revokes stragglers; a crash is covered by :func:`purge_pid`.
* **chaos crash point** — ``regions.seal`` kills the process after the
  segment exists but before any grant leaves, the worst spot for leak
  discipline (exercised by the chaos matrix).
"""

from __future__ import annotations

import atexit
import os
import struct
import threading
import weakref

from .errors import RegionRevokedError
from .serial import register_capref_type

#: Shared-segment header: magic, generation, payload length.  Padded to
#: 16 bytes so the payload starts aligned.
HEADER = struct.Struct(">4sII")
HEADER_SIZE = 16
MAGIC = b"JKRG"

#: Generation 0 is the poison value written by revoke — no live grant
#: ever carries it, so a poisoned header can never match a descriptor.
REVOKED_GENERATION = 0

#: Response bodies at/over this many bytes ride a sealed region across
#: the out-of-process servlet boundary (``repro.web.servlet``).  The
#: LRMI bulk-ring threshold (``repro.ipc.lrmi.SHM_THRESHOLD``) is this
#: same value: the environment is read here, once, for both.
SEAL_THRESHOLD = int(os.environ.get("JK_LRMI_SHM_THRESHOLD", "16384"))

#: Segments kept on the pool free list per size class; beyond it a
#: revoked segment is unlinked instead of cached.
POOL_PER_CLASS = 8

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


def _segment_name(pid, seq):
    return f"jkr{pid}g{seq}"


def _owner_pid(name):
    """The owner pid encoded in a segment name, or None."""
    if not name.startswith("jkr"):
        return None
    head = name[3:].split("g", 1)[0]
    return int(head) if head.isdigit() else None


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # EPERM etc.: it exists
    return True


def _shared_memory(**kwargs):
    """A SharedMemory outside resource_tracker adoption (the bulk ring's
    rule: lifetime here is explicit, and the forked tracker's set-backed
    cache cannot survive both ends registering one name)."""
    from multiprocessing.shared_memory import SharedMemory

    from repro.ipc.shm import _untracked

    with _untracked():
        return SharedMemory(**kwargs)


def _round_capacity(nbytes):
    capacity = 4096
    while capacity < nbytes:
        capacity <<= 1
    return capacity


class RegionPool:
    """Per-process allocator of region segments with recycle-on-revoke.

    Generations are pid-salted and strictly increasing per process, so a
    recycled segment can never satisfy a grant minted for its previous
    tenant — the same rule the bulk ring applies per connection, applied
    per segment."""

    def __init__(self):
        self._lock = threading.Lock()
        self._free = {}  # capacity -> [SharedMemory, ...]
        self._pid = os.getpid()
        self._seq = 0
        self._gen = (self._pid & 0xFFFF) << 16

    def _reset_after_fork(self):
        """A forked child inherits the parent's free list; the parent
        still owns those segments, so the child closes its mappings
        (never unlinks) and starts a namespace of its own."""
        inherited, self._free = self._free, {}
        self._pid = os.getpid()
        self._seq = 0
        self._gen = (self._pid & 0xFFFF) << 16
        for segments in inherited.values():
            for shm in segments:
                try:
                    shm.close()
                except (OSError, BufferError):
                    pass

    def _next_generation(self):
        self._gen = (self._gen + 1) & 0xFFFFFFFF
        return self._gen or 1  # never the poison value

    def acquire(self, nbytes):
        """``(shm, generation)`` with capacity for ``nbytes`` of payload
        plus the header; reused from the free list when possible."""
        capacity = _round_capacity(HEADER_SIZE + nbytes)
        with self._lock:
            if self._pid != os.getpid():
                self._reset_after_fork()
            segments = self._free.get(capacity)
            if segments:
                return segments.pop(), self._next_generation()
            self._seq += 1
            name = _segment_name(self._pid, self._seq)
            generation = self._next_generation()
        return _shared_memory(create=True, size=capacity,
                              name=name), generation

    def release(self, shm):
        """Return a segment whose header is already poisoned; unlinks
        when the free list for its class is full (or we forked)."""
        with self._lock:
            if self._pid == os.getpid():
                segments = self._free.setdefault(shm.size, [])
                if len(segments) < POOL_PER_CLASS:
                    segments.append(shm)
                    return
        _discard(shm, unlink=True)

    def close(self):
        """Unmap and unlink every pooled segment (idempotent)."""
        with self._lock:
            free, self._free = self._free, {}
            owner = self._pid == os.getpid()
        for segments in free.values():
            for shm in segments:
                _discard(shm, unlink=owner)


def _finalize_owner(shm, generation):
    """GC fallback for an owner region that was never revoke()d: poison
    the header (every attached view fails typed from here on) and
    recycle the segment.  Runs only when revoke() did not — revoke()
    detaches the finalizer — so the generation necessarily still matches
    and the release cannot double-pool."""
    try:
        buf = shm.buf
        if buf is not None:
            HEADER.pack_into(buf, 0, MAGIC, REVOKED_GENERATION, 0)
    except (OSError, ValueError):
        pass
    _POOL.release(shm)


def _unlink_quiet(shm):
    """Idempotent unlink-by-name, without waking the resource tracker
    about a segment it was never told about."""
    from repro.ipc.shm import _untracked

    with _untracked():
        try:
            shm.unlink()
        except OSError:
            pass


def _discard(shm, unlink):
    try:
        shm.close()
    except (OSError, BufferError):
        pass
    if unlink:
        _unlink_quiet(shm)


_POOL = RegionPool()

#: Live owner regions, revoked at interpreter exit so a clean shutdown
#: leaves no segment behind (a SIGKILL is covered by purge_pid).
_LIVE = weakref.WeakSet()


def _shutdown():
    for region in list(_LIVE):
        region.revoke()
    _POOL.close()


atexit.register(_shutdown)


from .sealed import sealed  # noqa: E402  (after pool setup; cycle-free)


@sealed
class SealedRegion:
    """A validated, deeply-immutable buffer in shared memory.

    Owner instances come from :func:`seal`; *view* instances materialize
    on the receiving side of a cross-process grant.  Both are sealed
    (frozen, final, by-reference in-process); the revocation flag and
    the issued-view list are kernel bookkeeping mutated through
    ``object.__setattr__``, exactly like a capability's target slot.
    """

    __slots__ = ("_shm", "_name", "_generation", "_offset", "_length",
                 "_owner", "_issued", "_revoked", "_finalizer",
                 "__weakref__")

    def __init__(self, shm, generation, offset, length, owner):
        _set = object.__setattr__
        _set(self, "_shm", shm)
        _set(self, "_name", shm.name)
        _set(self, "_generation", generation)
        _set(self, "_offset", offset)
        _set(self, "_length", length)
        _set(self, "_owner", owner)
        _set(self, "_issued", [])
        _set(self, "_revoked", False)
        _set(self, "_finalizer", None)

    # -- construction ------------------------------------------------------
    @classmethod
    def seal(cls, data):
        """Copy ``data`` (bytes-like) once into a pooled shared segment
        and return the sealed owner region."""
        if type(data) is SealedRegion:
            return data
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(
                "SealedRegion payload must be bytes-like, "
                f"not {type(data).__name__}"
            )
        data = memoryview(data).cast("B")
        length = len(data)
        shm, generation = _POOL.acquire(length)
        buf = shm.buf
        HEADER.pack_into(buf, 0, MAGIC, generation, length)
        buf[HEADER_SIZE:HEADER_SIZE + length] = data
        region = cls(shm, generation, HEADER_SIZE, length, owner=True)
        # An owner dropped without revoke() must not leak its segment
        # until process exit: the finalizer poisons the header and
        # recycles through the pool.  revoke() detaches it, so a segment
        # already recycled (now under a NEW generation, possibly another
        # region's) is never touched twice.
        object.__setattr__(
            region, "_finalizer",
            weakref.finalize(region, _finalize_owner, shm, generation),
        )
        _LIVE.add(region)
        if _chaos is not None:
            # Chaos crash point: the segment exists, nothing has been
            # granted yet — the exact window where only the name
            # discipline (purge_pid / both-end unlink) prevents a leak.
            _chaos.crash_point("regions.seal")
        return region

    # -- validated reads ---------------------------------------------------
    def _validate(self):
        if self._revoked:
            raise RegionRevokedError(
                f"sealed region {self._name} has been revoked"
            )
        buf = self._shm.buf
        if buf is None:
            object.__setattr__(self, "_revoked", True)
            raise RegionRevokedError(
                f"sealed region {self._name}: segment unmapped"
            )
        magic, generation, length = HEADER.unpack_from(buf, 0)
        if magic != MAGIC or generation != self._generation:
            object.__setattr__(self, "_revoked", True)
            raise RegionRevokedError(
                f"sealed region {self._name}: generation "
                f"{self._generation} revoked (header {generation})"
            )
        if not self._owner:
            # A dead owner can no longer poison the header, so a view
            # additionally fails closed on owner death: unlinked-but-
            # mapped memory must read as revoked, never as stale bytes.
            pid = _owner_pid(self._name)
            if pid is not None and not _pid_alive(pid):
                object.__setattr__(self, "_revoked", True)
                raise RegionRevokedError(
                    f"sealed region {self._name}: owner process {pid} "
                    "is gone"
                )
        return buf

    def view(self):
        """A read-only zero-copy memoryview of the payload, validated
        now and released by :meth:`revoke` (callers that must outlive
        the grant copy via :meth:`bytes`)."""
        buf = self._validate()
        issued = memoryview(buf)[
            self._offset:self._offset + self._length
        ].toreadonly()
        self._issued.append(issued)
        return issued

    def bytes(self):
        """A private bytes copy of the payload (always safe to keep)."""
        buf = self._validate()
        return builtin_bytes(buf[self._offset:self._offset + self._length])

    __bytes__ = bytes

    def __len__(self):
        return self._length

    def __eq__(self, other):
        if type(other) is SealedRegion:
            if other is self:
                return True
            try:
                return self.bytes() == other.bytes()
            except RegionRevokedError:
                return NotImplemented
        if isinstance(other, (bytes, bytearray, memoryview)):
            try:
                return self.bytes() == other
            except RegionRevokedError:
                return NotImplemented
        return NotImplemented

    # Identity hash (not content hash): content can become unreadable at
    # revocation, and the kernel tracks live owners in a WeakSet.
    __hash__ = object.__hash__

    @property
    def name(self):
        return self._name

    @property
    def generation(self):
        return self._generation

    @property
    def owner(self):
        return self._owner

    @property
    def revoked(self):
        if self._revoked:
            return True
        try:
            self._validate()
        except RegionRevokedError:
            return True
        return False

    # -- the grant handle --------------------------------------------------
    def grant_descriptor(self):
        """The cross-process wire shape of this region: a generation-
        checked handle, never the bytes."""
        self._validate()
        return ("region", self._name, self._generation,
                self._offset, self._length)

    # -- revocation --------------------------------------------------------
    def revoke(self):
        """Revoke this region (idempotent).

        Owner: poison the shared header — every attached view in every
        process observes the revocation on its next read — then recycle
        the segment through the pool under a future generation.  View:
        release issued memoryviews and fail all later access locally
        (the per-call grant revocation the kernel applies on return).
        """
        if self._revoked:
            return
        object.__setattr__(self, "_revoked", True)
        issued = self._issued
        while issued:
            try:
                issued.pop().release()
            except (ValueError, BufferError):
                pass
        shm = self._shm
        if self._owner:
            _LIVE.discard(self)
            if self._finalizer is not None:
                self._finalizer.detach()
            try:
                buf = shm.buf
                if buf is not None:
                    HEADER.pack_into(buf, 0, MAGIC, REVOKED_GENERATION, 0)
            except (OSError, ValueError):
                pass
            _POOL.release(shm)
        # Views never close the mapping here: it belongs to the per-peer
        # attachment cache and may back other (still-granted) views.

    close = revoke

    def __repr__(self):
        role = "owner" if self._owner else "view"
        state = "revoked" if self._revoked else "sealed"
        return (f"<SealedRegion {self._name} [{self._offset}:"
                f"{self._offset + self._length}] gen={self._generation} "
                f"({role}, {state})>")


builtin_bytes = bytes  # SealedRegion.bytes shadows the builtin in-class


def seal(data):
    """Seal ``data`` into a shared-memory region (see module docstring)."""
    return SealedRegion.seal(data)


class AttachmentCache:
    """Per-peer cache of attached region segments, keyed by name.

    Attaching is an ``shm_open`` + ``mmap``; a hot call path granting
    the same region repeatedly must not pay it per call.  The cache
    closes with its peer: mappings whose owner process died are
    *unlinked* as well (idempotent both-end unlink — whichever side
    survives a crash reclaims the name)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._attached = {}  # name -> SharedMemory

    def resolve(self, descriptor):
        """A view :class:`SealedRegion` for one grant descriptor, after
        the generation/bounds checks."""
        _kind, name, generation, offset, length = descriptor
        if generation == REVOKED_GENERATION:
            raise RegionRevokedError(
                f"sealed region {name}: grant carries the revoked "
                "generation"
            )
        with self._lock:
            shm = self._attached.get(name)
            if shm is None:
                try:
                    shm = _shared_memory(name=name)
                except (OSError, ValueError) as exc:
                    raise RegionRevokedError(
                        f"sealed region {name} cannot be attached: {exc}"
                    ) from None
                self._attached[name] = shm
        try:
            magic, live_generation, live_length = HEADER.unpack_from(
                shm.buf, 0
            )
        except (struct.error, ValueError):
            raise RegionRevokedError(
                f"sealed region {name}: segment too small for a header"
            ) from None
        if magic != MAGIC:
            raise RegionRevokedError(
                f"sealed region {name}: bad segment magic"
            )
        if live_generation != generation:
            # Stale grant: a respawned host replaying old state, or a
            # handle that outlived a pool recycle.  Refused, never read.
            raise RegionRevokedError(
                f"sealed region {name}: stale generation {generation} "
                f"(segment is at {live_generation})"
            )
        if (offset < HEADER_SIZE
                or offset + length > HEADER_SIZE + live_length
                or offset + length > shm.size):
            raise RegionRevokedError(
                f"sealed region {name}: grant [{offset}:{offset + length}] "
                f"exceeds the sealed payload"
            )
        return SealedRegion(shm, generation, offset, length, owner=False)

    def invalidate(self, name):
        """Drop one cached attachment (the segment's owner revoked it)."""
        with self._lock:
            shm = self._attached.pop(name, None)
        if shm is not None:
            _discard(shm, unlink=False)

    def close(self):
        """Close every mapping; unlink segments whose owner died (the
        surviving end of a crash reclaims the name — idempotent)."""
        with self._lock:
            attached, self._attached = self._attached, {}
        failures = 0
        for name, shm in attached.items():
            pid = _owner_pid(name)
            owner_dead = pid is not None and not _pid_alive(pid)
            try:
                shm.close()
            except (OSError, BufferError):
                failures += 1
            if owner_dead:
                _unlink_quiet(shm)
        return failures

    def __len__(self):
        with self._lock:
            return len(self._attached)


def purge_pid(pid):
    """Unlink every region segment a (dead) process left behind, by its
    deterministic name prefix.  Idempotent; the supervisor's half of the
    both-end unlink discipline after a SIGKILL."""
    prefix = f"jkr{pid}g"
    removed = []
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return removed
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_dir, name))
                removed.append(name)
            except OSError:
                pass
    return removed


# A region crossing a process boundary rides the LRMI side table as a
# grant descriptor (repro.ipc.lrmi resolves the "region" kind), exactly
# like capabilities ride it as export descriptors.  (RegionRevokedError
# itself is serial-registered with the rest of the error hierarchy in
# serial.py, so a host refusing a stale grant re-raises typed in the
# caller's process even before this module is imported there.)
register_capref_type(SealedRegion)
