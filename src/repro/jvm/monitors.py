"""Monitor (lock) implementations.

Two strategies back ``MONITORENTER``/``MONITOREXIT`` and ``Object.wait``/
``notify``, selected by the VM profile (Table 1's "acquire/release lock"
row):

* :class:`ThinLockManager` — a lock word embedded in the object header;
  the uncontended path touches only the object (MS-VM-like: cheap locks).
* :class:`HeavyMonitorManager` — every operation goes through a monitor
  registry: lookup, lazy monitor allocation and owner/queue bookkeeping
  (Sun-VM-like: expensive locks).

Both are *correct*; they differ only in constant factors, which is exactly
what the paper's Table 1 exposes.
"""

from __future__ import annotations


class _Monitor:
    __slots__ = ("owner", "count", "entry_queue", "wait_set")

    def __init__(self):
        self.owner = None
        self.count = 0
        self.entry_queue = []
        self.wait_set = []


class MonitorManagerBase:
    """Shared wait/notify logic; subclasses provide lock-word storage."""

    def _monitor(self, obj, create=True):
        raise NotImplementedError

    # -- enter / exit ------------------------------------------------------
    def try_enter(self, obj, thread):
        """Acquire or recursively re-acquire; False means caller must block
        (the thread has been queued)."""
        monitor = self._monitor(obj)
        if monitor.owner is None:
            monitor.owner = thread
            monitor.count = 1
            return True
        if monitor.owner is thread:
            monitor.count += 1
            return True
        if thread not in monitor.entry_queue:
            monitor.entry_queue.append(thread)
        return False

    def exit(self, obj, thread):
        """Release once.  Returns threads to wake (entry-queue barging)."""
        monitor = self._monitor(obj, create=False)
        if monitor is None or monitor.owner is not thread:
            return None  # caller turns this into IllegalMonitorStateException
        monitor.count -= 1
        if monitor.count > 0:
            return []
        monitor.owner = None
        woken = monitor.entry_queue[:]
        monitor.entry_queue.clear()
        return woken

    def owner(self, obj):
        monitor = self._monitor(obj, create=False)
        return monitor.owner if monitor is not None else None

    # -- wait / notify -----------------------------------------------------------
    def release_for_wait(self, obj, thread):
        """Fully release for Object.wait; returns (saved_count, woken) or
        None if the thread is not the owner."""
        monitor = self._monitor(obj, create=False)
        if monitor is None or monitor.owner is not thread:
            return None
        saved = monitor.count
        monitor.owner = None
        monitor.count = 0
        monitor.wait_set.append(thread)
        woken = monitor.entry_queue[:]
        monitor.entry_queue.clear()
        return saved, woken

    def reacquire_after_wait(self, obj, thread, saved_count):
        """Try to re-acquire with the saved recursion count."""
        monitor = self._monitor(obj)
        if monitor.owner is None:
            monitor.owner = thread
            monitor.count = saved_count
            return True
        if thread not in monitor.entry_queue:
            monitor.entry_queue.append(thread)
        return False

    def notify(self, obj, thread, notify_all=False):
        """Move waiter(s) to the entry queue; returns (ok, woken_threads)."""
        monitor = self._monitor(obj, create=False)
        if monitor is None or monitor.owner is not thread:
            return False, []
        woken = []
        while monitor.wait_set:
            waiter = monitor.wait_set.pop(0)
            woken.append(waiter)
            if not notify_all:
                break
        return True, woken

    def in_wait_set(self, obj, thread):
        monitor = self._monitor(obj, create=False)
        return monitor is not None and thread in monitor.wait_set

    def discard(self, thread):
        """Remove a dying thread from every queue and free the monitors it
        owns (a stop, an uncaught throw, a call that ran out of steps).
        Returns the threads that were blocked entering a freed monitor;
        the caller wakes them, as after ``exit``."""
        woken = []
        for monitor in self._all_monitors():
            if thread in monitor.entry_queue:
                monitor.entry_queue.remove(thread)
            if thread in monitor.wait_set:
                monitor.wait_set.remove(thread)
            if monitor.owner is thread:
                monitor.owner = None
                monitor.count = 0
                woken += monitor.entry_queue
                monitor.entry_queue.clear()
        return woken

    def prune(self, marked):
        """Forget the monitors of objects a collection freed; ``marked``
        holds the ids of the objects that survived it."""
        raise NotImplementedError

    def _all_monitors(self):
        raise NotImplementedError


class ThinLockManager(MonitorManagerBase):
    """Lock word stored directly in the object header (``obj.lockword``).

    ``_inflated`` lists the objects whose lock word holds a monitor, so
    ``discard`` can find a dying thread's monitors and ``prune`` can drop
    the objects a collection freed.
    """

    def __init__(self):
        self._inflated = []

    def _monitor(self, obj, create=True):
        monitor = obj.lockword
        if monitor is None and create:
            monitor = obj.lockword = _Monitor()
            self._inflated.append(obj)
        return monitor

    def prune(self, marked):
        self._inflated = [obj for obj in self._inflated if id(obj) in marked]

    def _all_monitors(self):
        return [obj.lockword for obj in self._inflated]


class HeavyMonitorManager(MonitorManagerBase):
    """Monitors held in a registry keyed by object identity.

    The extra registry lookup plus validation pass on every operation makes
    each acquire/release measurably more expensive — the Sun-VM shape in
    Table 1.
    """

    def __init__(self):
        self._registry = {}

    def _monitor(self, obj, create=True):
        key = id(obj)
        entry = self._registry.get(key)
        if entry is not None:
            monitor, holder = entry
            if holder is not obj:  # identity collision after GC reuse
                if not create:
                    return None
                monitor = _Monitor()
                self._registry[key] = (monitor, obj)
            self._validate(monitor)
            return monitor
        if not create:
            return None
        monitor = _Monitor()
        self._registry[key] = (monitor, obj)
        self._validate(monitor)
        return monitor

    @staticmethod
    def _validate(monitor):
        # Owner/queue consistency walk: this is the deliberate bookkeeping
        # overhead of the heavyweight design.
        owner = monitor.owner
        for queued in monitor.entry_queue:
            if queued is owner:
                raise AssertionError("owner queued on own monitor")
        for waiter in monitor.wait_set:
            if waiter is owner:
                raise AssertionError("owner in own wait set")

    def prune(self, marked):
        self._registry = {
            key: entry for key, entry in self._registry.items()
            if id(entry[1]) in marked
        }

    def _all_monitors(self):
        return [entry[0] for entry in self._registry.values()]
