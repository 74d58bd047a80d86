"""Per-tenant resource quotas: the *enforcement* layer over accounting.

The paper's resource-accounting section measures what crosses into a
domain (``repro.core.accounting`` records copies, allocations and
requests) but enforces nothing — an over-hungry tenant can starve its
neighbours.  This module turns the measurements into budgets:

* **CPU** — explicit tick charges (the MiniJVM scheduler's instruction
  ticks for enforced domains, servlet wall-microseconds for hosted
  ones) accumulate against ``QuotaSpec.cpu_ticks``.
* **Memory** — the account's ``allocated_bytes`` plus ``bytes_copied_in``
  gate against ``QuotaSpec.memory_bytes`` (a domain is charged for what
  is copied *into* it, so copies are attributable memory pressure).
* **Request rate** — a sliding-window counter gates requests/second
  against ``QuotaSpec.requests_per_sec``.

Enforcement is two-stage, Capacity-style:

* crossing ``soft_fraction`` of any budget marks the tenant
  **throttled** — the admission controller (``repro.web.control``)
  deprioritizes it, shedding its traffic first under overload while
  still serving it on an idle box;
* exhausting a hard budget marks the tenant **exceeded** and fires the
  registered kill callback exactly once, off the charging thread — the
  web layer routes it through the existing drain/terminate/release
  teardown, so a quota kill is indistinguishable from a clean
  administrative termination (capabilities revoked, accounts folded
  into retained totals, in-flight callers answered with typed errors).

Quota state survives out-of-process domain hosts: a cell *reconciles*
against the host's control-pipe stats reports, and when the host dies
(crash or quota kill) the last report folds into retained usage — a
respawned host starts its own counters at zero without resetting the
tenant's budget position.
"""

from __future__ import annotations

import threading
import time

from .errors import QuotaExceededException

#: Cell states, ordered by severity.
OK = "ok"
SOFT = "soft"
HARD = "hard"

_SEVERITY = {OK: 0, SOFT: 1, HARD: 2}


class QuotaSpec:
    """An immutable per-tenant budget.  ``None`` disables a dimension.

    ``soft_fraction`` is where throttling starts (deprioritized
    admission); the full budget is the hard (termination) limit.
    """

    __slots__ = ("cpu_ticks", "memory_bytes", "requests_per_sec",
                 "soft_fraction")

    def __init__(self, cpu_ticks=None, memory_bytes=None,
                 requests_per_sec=None, soft_fraction=0.8):
        if not 0.0 < soft_fraction <= 1.0:
            raise ValueError("soft_fraction must be in (0, 1]")
        for name, value in (("cpu_ticks", cpu_ticks),
                            ("memory_bytes", memory_bytes),
                            ("requests_per_sec", requests_per_sec)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")
        object.__setattr__(self, "cpu_ticks", cpu_ticks)
        object.__setattr__(self, "memory_bytes", memory_bytes)
        object.__setattr__(self, "requests_per_sec", requests_per_sec)
        object.__setattr__(self, "soft_fraction", soft_fraction)

    def __setattr__(self, name, value):
        raise AttributeError("QuotaSpec is immutable")

    def __repr__(self):
        return (f"QuotaSpec(cpu_ticks={self.cpu_ticks}, "
                f"memory_bytes={self.memory_bytes}, "
                f"requests_per_sec={self.requests_per_sec}, "
                f"soft_fraction={self.soft_fraction})")


class RateWindow:
    """Sliding-window event rate: requests/second over the last window.

    Coarse sub-window buckets make ``note`` O(1) and ``rate`` O(buckets)
    with bounded memory, trading exactness at bucket edges for never
    growing with traffic.  Safe for concurrent callers (one small lock;
    this is the per-request path, not the per-LRMI hot path).
    """

    __slots__ = ("window_s", "_bucket_s", "_buckets", "_lock", "total")

    def __init__(self, window_s=1.0, buckets=10):
        self.window_s = window_s
        self._bucket_s = window_s / buckets
        self._buckets = {}  # bucket index -> count
        self._lock = threading.Lock()
        self.total = 0

    def note(self, now=None, n=1):
        now = time.monotonic() if now is None else now
        index = int(now / self._bucket_s)
        with self._lock:
            self.total += n
            self._buckets[index] = self._buckets.get(index, 0) + n
            if len(self._buckets) > 64:  # stale-bucket GC, rarely taken
                horizon = index - int(self.window_s / self._bucket_s) - 1
                for key in [k for k in self._buckets if k <= horizon]:
                    del self._buckets[key]

    def rate(self, now=None):
        """Events per second over the trailing window."""
        now = time.monotonic() if now is None else now
        index = int(now / self._bucket_s)
        oldest = index - int(self.window_s / self._bucket_s)
        with self._lock:
            count = sum(c for k, c in self._buckets.items()
                        if oldest < k <= index)
        return count / self.window_s


class QuotaCell:
    """Enforcement state for one tenant: budget position and verdict.

    ``account`` is the tenant's :class:`~repro.core.accounting.
    ResourceAccount` (memory usage reads through it); CPU ticks and the
    request window are charged directly on the cell.  ``_retained`` and
    ``_external`` carry usage reported by out-of-process hosts over the
    control pipe: ``reconcile`` updates the live report, ``fold_external``
    retires it when the host dies — so restarting the host never resets
    the tenant's budget position.
    """

    __slots__ = ("key", "spec", "account", "window", "_cpu_ticks",
                 "_lock", "_state", "_breached", "_killed", "_external",
                 "_retained")

    def __init__(self, key, spec, account=None):
        self.key = key
        self.spec = spec
        self.account = account
        self.window = RateWindow()
        self._cpu_ticks = 0
        self._lock = threading.Lock()
        self._state = OK
        self._breached = None   # (dimension, used, limit) at hard breach
        self._killed = False
        self._external = {}     # latest out-of-process usage report
        self._retained = {"cpu_ticks": 0, "memory_bytes": 0, "requests": 0}

    # -- charging ----------------------------------------------------------
    def charge_cpu(self, ticks):
        with self._lock:
            self._cpu_ticks += ticks
        return self.evaluate()

    def charge_request(self, now=None):
        self.window.note(now)
        return self.evaluate(now)

    # -- out-of-process reconciliation ------------------------------------
    def reconcile(self, snapshot):
        """Fold a live host's stats report into the budget position.

        ``snapshot`` is accounting-shaped: ``allocated_bytes`` /
        ``bytes_copied_in`` / ``requests`` / ``cpu_ticks`` (missing keys
        read as zero).  The report replaces the previous *live* view;
        retained usage from dead hosts stays.
        """
        with self._lock:
            self._external = dict(snapshot)
        return self.evaluate()

    def fold_external(self):
        """Retire the live host report into retained usage (the host
        died or was killed); the next host starts reporting from zero."""
        with self._lock:
            report, self._external = self._external, {}
            self._retained["cpu_ticks"] += report.get("cpu_ticks", 0)
            self._retained["memory_bytes"] += (
                report.get("allocated_bytes", 0)
                + report.get("bytes_copied_in", 0)
            )
            self._retained["requests"] += report.get("requests", 0)

    # -- usage/verdict -----------------------------------------------------
    def cpu_used(self):
        external = self._external
        return (self._cpu_ticks + self._retained["cpu_ticks"]
                + external.get("cpu_ticks", 0))

    def memory_used(self):
        used = self._retained["memory_bytes"]
        account = self.account
        if account is not None:
            used += account.allocated_bytes + account.bytes_copied_in
        external = self._external
        return (used + external.get("allocated_bytes", 0)
                + external.get("bytes_copied_in", 0))

    def usage(self, now=None):
        return {
            "cpu_ticks": self.cpu_used(),
            "memory_bytes": self.memory_used(),
            "requests_per_sec": round(self.window.rate(now), 2),
            "requests": self.window.total + self._retained["requests"]
            + self._external.get("requests", 0),
        }

    @property
    def state(self):
        return self._state

    @property
    def breached(self):
        """(dimension, used, limit) of the first hard breach, or None."""
        return self._breached

    def evaluate(self, now=None):
        """Recompute the verdict; returns the (possibly new) state.

        A hard verdict is sticky: the tenant is being terminated, and a
        momentarily-idle sliding window must not resurrect it.
        """
        if self._state == HARD:
            return HARD
        spec = self.spec
        verdict = OK
        breach = None
        for dimension, used, limit in (
            ("cpu_ticks", self.cpu_used(), spec.cpu_ticks),
            ("memory_bytes", self.memory_used(), spec.memory_bytes),
            ("requests_per_sec", self.window.rate(now),
             spec.requests_per_sec),
        ):
            if limit is None:
                continue
            if used >= limit:
                verdict, breach = HARD, (dimension, used, limit)
                break
            if used >= limit * spec.soft_fraction:
                verdict = SOFT
        with self._lock:
            if self._state != HARD:
                self._state = verdict
                if verdict == HARD:
                    self._breached = breach
        return self._state

    def exceeded_error(self):
        dimension, used, limit = self._breached or ("quota", "?", "?")
        return QuotaExceededException(
            f"tenant {self.key!r} exceeded {dimension} budget "
            f"({used} >= {limit})"
        )

    def snapshot(self, now=None):
        return {
            "state": self._state,
            "usage": self.usage(now),
            "limits": {
                "cpu_ticks": self.spec.cpu_ticks,
                "memory_bytes": self.spec.memory_bytes,
                "requests_per_sec": self.spec.requests_per_sec,
            },
            "breached": self._breached,
        }

    def __repr__(self):
        return f"<QuotaCell {self.key!r} ({self._state})>"


class QuotaManager:
    """Holds per-tenant cells and runs the kill path exactly once.

    ``on_kill(key, cell)`` (registered per cell) performs the clean
    termination — the web layer passes its drain/terminate/unroute
    teardown.  It runs on a dedicated reaper thread, never on the
    charging (request) thread: the charger may be *inside* the domain
    being killed, and terminate would stop its own segment mid-charge.
    A kill that raises is counted in :attr:`kill_failures` (its error
    kept in :attr:`last_kill_error`).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cells = {}
        self._kills = {}
        self.kills_fired = 0
        self.kill_failures = 0
        self.last_kill_error = None

    def set_quota(self, key, spec, account=None, on_kill=None):
        with self._lock:
            cell = self._cells[key] = QuotaCell(key, spec, account)
            if on_kill is not None:
                self._kills[key] = on_kill
            else:
                self._kills.pop(key, None)
            return cell

    def cell(self, key):
        return self._cells.get(key)

    def remove(self, key):
        with self._lock:
            self._kills.pop(key, None)
            return self._cells.pop(key, None)

    def admit(self, key, now=None):
        """Current verdict without charging (the admission-control probe:
        rate is window-based, so probing is side-effect free)."""
        cell = self._cells.get(key)
        if cell is None:
            return OK
        return cell.evaluate(now)

    def charge_request(self, key, now=None):
        """Charge one request; fires the kill callback on a fresh hard
        breach.  Returns the cell state (``OK``/``SOFT``/``HARD``)."""
        cell = self._cells.get(key)
        if cell is None:
            return OK
        state = cell.charge_request(now)
        if state == HARD:
            self._fire_kill(cell)
        return state

    def charge_cpu(self, key, ticks):
        cell = self._cells.get(key)
        if cell is None:
            return OK
        state = cell.charge_cpu(ticks)
        if state == HARD:
            self._fire_kill(cell)
        return state

    def reconcile(self, key, snapshot):
        """Fold an out-of-process host's stats report into the cell."""
        cell = self._cells.get(key)
        if cell is None:
            return OK
        state = cell.reconcile(snapshot)
        if state == HARD:
            self._fire_kill(cell)
        return state

    def _fire_kill(self, cell):
        with self._lock:
            if cell._killed:
                return
            cell._killed = True
            on_kill = self._kills.get(cell.key)
            self.kills_fired += 1
        if on_kill is None:
            return
        threading.Thread(
            target=self._run_kill, args=(on_kill, cell),
            name=f"quota-kill-{cell.key}", daemon=True,
        ).start()

    def _run_kill(self, on_kill, cell):
        try:
            on_kill(cell.key, cell)
        except Exception as exc:  # must not take the manager down
            with self._lock:
                self.kill_failures += 1
                self.last_kill_error = exc

    def throttled_keys(self):
        """Tenants currently soft-throttled or hard-killed (the admission
        controller deprioritizes these)."""
        return [key for key, cell in list(self._cells.items())
                if cell.state != OK]

    def report(self, now=None):
        return {key: cell.snapshot(now)
                for key, cell in sorted(self._cells.items())}


_default = QuotaManager()


def get_quota_manager():
    return _default
