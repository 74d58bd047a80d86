"""Guest heap with per-owner allocation accounting.

The heap owns every guest object: allocation registers the object in a live
table, and the collector (``repro.jvm.gc``) frees unreachable entries.  Each
allocation is charged to an *owner* tag (the allocating domain), which is
how the reproduction implements the paper's resource-accounting discussion:
a domain is charged for the objects it allocates for as long as they remain
live, and domain termination (which revokes the domain's capabilities and
kills its threads) makes its garbage collectible — at which point the
charge disappears.
"""

from __future__ import annotations

from .values import JArray, JObject, default_value

_OBJECT_HEADER_BYTES = 16
_SLOT_BYTES = 8

_ELEMENT_BYTES = {"B": 1, "I": 4, "D": 8}

DEFAULT_OWNER = "<system>"

#: The longest array a guest may allocate (``newarray`` above it throws
#: ``java/lang/OutOfMemoryError``), so one guest instruction cannot ask
#: the host for gigabytes.
MAX_ARRAY_LENGTH = 2**24


class HeapStats:
    """Mutable allocation counters for one owner tag."""

    __slots__ = ("allocated_objects", "allocated_bytes", "live_objects", "live_bytes")

    def __init__(self):
        self.allocated_objects = 0
        self.allocated_bytes = 0
        self.live_objects = 0
        self.live_bytes = 0

    def snapshot(self):
        return {
            "allocated_objects": self.allocated_objects,
            "allocated_bytes": self.allocated_bytes,
            "live_objects": self.live_objects,
            "live_bytes": self.live_bytes,
        }


class Heap:
    """Allocator + live-object table for one VM instance."""

    def __init__(self):
        self._live = {}  # id(obj) -> (obj, owner, size_bytes)
        self._stats = {}  # owner -> HeapStats

    # -- allocation ------------------------------------------------------
    def new_object(self, rtclass, owner=DEFAULT_OWNER):
        fields = [
            default_value(field_def.desc) for field_def in rtclass.instance_field_defs
        ]
        obj = JObject(rtclass, fields)
        size = _OBJECT_HEADER_BYTES + _SLOT_BYTES * len(fields)
        self._register(obj, owner, size)
        return obj

    def new_array(self, array_class, length, owner=DEFAULT_OWNER):
        element = array_class.array_element
        elems = [default_value(element)] * length
        arr = JArray(array_class, elems)
        size = _OBJECT_HEADER_BYTES + _ELEMENT_BYTES.get(element, 8) * length
        self._register(arr, owner, size)
        return arr

    def adopt(self, obj, owner=DEFAULT_OWNER, size=_OBJECT_HEADER_BYTES):
        """Register an externally-constructed guest object (native bridge)."""
        self._register(obj, owner, size)
        return obj

    def _register(self, obj, owner, size):
        self._live[id(obj)] = (obj, owner, size)
        stats = self._stats.get(owner)
        if stats is None:
            stats = self._stats[owner] = HeapStats()
        stats.allocated_objects += 1
        stats.allocated_bytes += size
        stats.live_objects += 1
        stats.live_bytes += size

    # -- collection support -----------------------------------------------
    def contains(self, obj):
        return id(obj) in self._live

    def live_objects(self):
        """Snapshot list of live guest objects (order unspecified)."""
        return [entry[0] for entry in self._live.values()]

    def free(self, obj):
        entry = self._live.pop(id(obj), None)
        if entry is None:
            return False
        _, owner, size = entry
        stats = self._stats[owner]
        stats.live_objects -= 1
        stats.live_bytes -= size
        return True

    # -- accounting ---------------------------------------------------------
    def stats(self, owner=DEFAULT_OWNER):
        return self._stats.get(owner) or HeapStats()

    def owners(self):
        return sorted(self._stats)

    def owner_of(self, obj):
        entry = self._live.get(id(obj))
        return entry[1] if entry is not None else None

    @property
    def live_count(self):
        return len(self._live)

    @property
    def live_bytes(self):
        return sum(stats.live_bytes for stats in self._stats.values())
