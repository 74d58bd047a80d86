"""Fleet control plane: admission control and worker autoscaling.

The PR-5 prefork master *measures* (STATS control-pipe reports) and
*replaces* (crash respawn, rolling restarts); this module makes the
fleet self-defending and self-sizing:

* :class:`AdmissionController` — bounded admission with weighted
  per-tenant fairness, consulted by the reactor **at the parse
  boundary**: a shed request costs one preformatted 503 (with
  ``Retry-After``) before any servlet dispatch, extension match or
  domain crossing.  Under overload (in-flight above the bound, or p99
  latency above the SLO) tenants above their weighted fair share are
  shed first; tenants the quota layer marked throttled
  (``repro.core.quota``) are deprioritized — shed ahead of everyone
  at a fraction of their share — while still served on an idle box.
* :class:`Autoscaler` — sizes the prefork fleet from the shed-rate and
  p99-latency signals already flowing over the STATS pipe: scale-up
  forks a worker through the crash-replacement path, scale-down drains
  one through the rolling-restart retirement path, so neither direction
  ever drops an in-flight request.
* :class:`LatencyTracker` — the shared p99 estimator (lock-free ring;
  writers race benignly under the GIL, readers snapshot).
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.core.accounting import ShardedCounter
from repro.core.quota import HARD, get_quota_manager


#: A latency snapshot is re-sorted once one part in this many of the
#: samples it held has been overwritten.
_SNAPSHOT_REFRESH = 8


class LatencyTracker:
    """Fixed-size ring of service-time samples (microseconds).

    ``note`` is lock-free: the slot index comes from an atomic counter
    and the list store is a single C-level op, so the per-request cost
    is three attribute loads and two stores.  Percentile reads come from
    a sorted snapshot of the ring that is rebuilt once the write count
    has moved by an eighth of what the snapshot held (every write while
    the ring is nearly empty, every ``size / 8`` writes once it is
    full), so a read costs one index, not one sort — approximate under
    concurrent writes and up to an eighth of a ring stale, which is
    exactly what a load signal needs.
    """

    __slots__ = ("_ring", "_size", "_next", "_written", "_snapshot")

    def __init__(self, size=2048):
        self._ring = [None] * size
        self._size = size
        self._next = itertools.count().__next__
        self._written = 0
        self._snapshot = (0, ())  # (write count it was taken at, sorted)

    def note(self, us):
        index = self._next()
        self._ring[index % self._size] = us
        # Racing writers may store these out of order; the count is only
        # a staleness signal and the next write corrects it.
        self._written = index + 1

    def percentile(self, fraction):
        written = self._written
        taken_at, samples = self._snapshot
        if written - taken_at >= max(
                1, min(taken_at, self._size) // _SNAPSHOT_REFRESH):
            samples = sorted(s for s in self._ring if s is not None)
            self._snapshot = (written, samples)
        if not samples:
            return 0.0
        index = min(len(samples) - 1, int(len(samples) * fraction))
        return samples[index]

    def p99_ms(self):
        return self.percentile(0.99) / 1000.0

    def p50_ms(self):
        return self.percentile(0.50) / 1000.0

    def sample_count(self):
        return sum(1 for s in self._ring if s is not None)


def default_classifier(path):
    """Tenant key for a request path: the first path segment after the
    servlet mount when present (one tenant per servlet prefix), else a
    shared static bucket — so documents and servlets are bounded
    separately."""
    if not path.startswith("/"):
        return "_other"
    parts = path.split("/", 3)
    if len(parts) >= 3 and parts[1] == "servlet":
        return f"/{parts[2]}"
    return "_static"


class AdmissionDecision:
    """The parse-boundary verdict for one request.

    ``weight`` is the admitted tenant's effective weight — its
    configured weight, scaled by ``deprioritized_fraction`` while the
    tenant is throttled: the number that sized its fair share here and
    that orders its request in the worker pool's queue, so shedding and
    queueing cannot disagree about who is favoured.
    """

    __slots__ = ("admitted", "tenant", "retry_after", "reason", "weight")

    def __init__(self, admitted, tenant, retry_after=None, reason="ok",
                 weight=1.0):
        self.admitted = admitted
        self.tenant = tenant
        self.retry_after = retry_after
        self.reason = reason
        self.weight = weight

    def __repr__(self):
        verdict = "admit" if self.admitted else f"shed({self.reason})"
        return f"<AdmissionDecision {self.tenant}: {verdict}>"


class _Tenant:
    __slots__ = ("key", "weight", "in_flight", "admitted", "shed",
                 "deprioritized")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self.in_flight = 0
        self.admitted = 0
        self.shed = 0
        self.deprioritized = False


class AdmissionController:
    """Bounded weighted-fair admission with load shedding.

    ``max_inflight`` bounds requests admitted-but-not-completed across
    the server (the queue-depth signal: every admitted request holds one
    unit until its response slot is ready).  Below ``shed_threshold`` of
    the bound and with p99 under ``slo_ms``, everything is admitted —
    fairness only bites under pressure.  Above it:

    * a tenant whose in-flight share exceeds ``weight/total_weight *
      max_inflight`` is shed (it is the one causing the overload);
    * a *deprioritized* tenant (quota-throttled) is shed at
      ``deprioritized_fraction`` of its fair share — soft-limit
      enforcement as admission priority, not a hard wall;
    * at the full bound everything is shed (fast 503, bounded memory).

    Decisions and completions are counter updates under one small lock
    (hundreds of ns) — admission stays far cheaper than the parse that
    preceded it.
    """

    def __init__(self, max_inflight=256, slo_ms=250.0, classifier=None,
                 weights=None, shed_threshold=0.5,
                 deprioritized_fraction=0.25, retry_after_s=1.0,
                 quota_manager=None, latency=None):
        self.max_inflight = max_inflight
        self.slo_ms = slo_ms
        self.classify = classifier or default_classifier
        self.shed_threshold = shed_threshold
        self.deprioritized_fraction = deprioritized_fraction
        self.retry_after_s = retry_after_s
        self.latency = latency if latency is not None else LatencyTracker()
        self._quota = quota_manager
        self._lock = threading.Lock()
        self._tenants = {}
        self._weights = dict(weights or {})
        self._total_weight = 0.0
        self._total_inflight = 0
        self.admitted = ShardedCounter()
        self.shed = ShardedCounter()

    # -- configuration -----------------------------------------------------
    def set_weight(self, tenant_key, weight):
        with self._lock:
            self._weights[tenant_key] = weight
            tenant = self._tenants.get(tenant_key)
            if tenant is not None:
                self._total_weight += weight - tenant.weight
                tenant.weight = weight
        return self

    def set_deprioritized(self, tenant_key, flag=True):
        """Mark a tenant for shed-first treatment (the quota layer calls
        this when a tenant crosses its soft limit)."""
        with self._lock:
            self._tenant(tenant_key).deprioritized = flag
        return self

    def attach_quota_manager(self, manager):
        self._quota = manager
        return self

    def _tenant(self, key):
        tenant = self._tenants.get(key)
        if tenant is None:
            weight = self._weights.get(key, 1.0)
            tenant = self._tenants[key] = _Tenant(key, weight)
            self._total_weight += weight
        return tenant

    # -- the parse-boundary decision ---------------------------------------
    def decide(self, path, now=None):
        key = self.classify(path)
        quota = self._quota if self._quota is not None \
            else get_quota_manager()
        quota_state = quota.admit(key, now)
        with self._lock:
            tenant = self._tenant(key)
            if quota_state == HARD:
                # The tenant is being terminated for blowing a hard
                # budget; its traffic sheds at the door while teardown
                # completes (routing answers 503 afterwards too).
                tenant.shed += 1
                self.shed.add(1)
                return AdmissionDecision(False, key, self.retry_after_s,
                                         "quota-exceeded")
            deprioritized = tenant.deprioritized or quota_state != "ok"
            total = self._total_inflight
            if total >= self.max_inflight:
                tenant.shed += 1
                self.shed.add(1)
                return AdmissionDecision(False, key, self.retry_after_s,
                                         "at-capacity")
            # One scale factor drives both the fair share below and the
            # weight the worker pool queues the admitted request by.
            scale = self.deprioritized_fraction if deprioritized else 1.0
            pressured = (total >= self.max_inflight * self.shed_threshold
                         or self.latency.p99_ms() > self.slo_ms)
            if pressured:
                share = (tenant.weight / max(self._total_weight, 1e-9)
                         ) * self.max_inflight * scale
                if tenant.in_flight >= max(share, 1.0):
                    tenant.shed += 1
                    self.shed.add(1)
                    reason = ("deprioritized" if deprioritized
                              else "over-fair-share")
                    return AdmissionDecision(False, key,
                                             self.retry_after_s, reason)
            weight = tenant.weight * scale
            tenant.in_flight += 1
            tenant.admitted += 1
            self._total_inflight = total + 1
        self.admitted.add(1)
        return AdmissionDecision(True, key, weight=weight)

    def finish(self, tenant_key, latency_us=None):
        """One admitted request completed (its response slot is ready)."""
        if latency_us is not None:
            self.latency.note(latency_us)
        with self._lock:
            tenant = self._tenants.get(tenant_key)
            if tenant is not None and tenant.in_flight > 0:
                tenant.in_flight -= 1
                self._total_inflight -= 1

    # -- signals -----------------------------------------------------------
    def inflight(self):
        return self._total_inflight

    def shed_rate(self):
        """Fraction of all decisions that shed (lifetime; per-window
        rates come from the stats consumers diffing snapshots)."""
        admitted = self.admitted.value
        shed = self.shed.value
        total = admitted + shed
        return (shed / total) if total else 0.0

    def stats(self):
        with self._lock:
            tenants = {
                key: {"weight": tenant.weight,
                      "in_flight": tenant.in_flight,
                      "admitted": tenant.admitted,
                      "shed": tenant.shed,
                      "deprioritized": tenant.deprioritized}
                for key, tenant in sorted(self._tenants.items())
            }
        return {
            "admitted": self.admitted.value,
            "shed": self.shed.value,
            "shed_rate": round(self.shed_rate(), 4),
            "in_flight": self._total_inflight,
            "max_inflight": self.max_inflight,
            "p99_latency_ms": round(self.latency.p99_ms(), 3),
            "tenants": tenants,
        }


class AutoscalePolicy:
    """When to grow/shrink the prefork fleet.

    Scale-up on ``up_consecutive`` ticks with shed-rate above
    ``shed_high`` or p99 above ``p99_high_ms``; scale-down on
    ``down_consecutive`` calm ticks (hysteresis, so the fleet does not
    flap around a noisy signal), with a cooldown after every action.
    """

    __slots__ = ("min_workers", "max_workers", "shed_high", "p99_high_ms",
                 "p99_low_ms", "interval_s", "up_consecutive",
                 "down_consecutive", "cooldown_s")

    def __init__(self, min_workers=1, max_workers=4, shed_high=0.02,
                 p99_high_ms=200.0, p99_low_ms=50.0, interval_s=0.5,
                 up_consecutive=2, down_consecutive=6, cooldown_s=2.0):
        if min_workers < 1 or max_workers < min_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.shed_high = shed_high
        self.p99_high_ms = p99_high_ms
        self.p99_low_ms = p99_low_ms
        self.interval_s = interval_s
        self.up_consecutive = up_consecutive
        self.down_consecutive = down_consecutive
        self.cooldown_s = cooldown_s


def fleet_signals(stats):
    """Aggregate (shed_rate, p99_ms, sheds, decisions) from a prefork
    ``stats()`` report: each worker's reactor stats ride the STATS pipe
    under ``server``/``admission``."""
    sheds = admitted = 0
    p99 = 0.0
    for report in stats.get("workers", ()):
        server = report.get("server") or {}
        p99 = max(p99, server.get("p99_latency_ms", 0.0) or 0.0)
        admission = server.get("admission") or {}
        sheds += admission.get("shed", 0)
        admitted += admission.get("admitted", 0)
    total = sheds + admitted
    rate = (sheds / total) if total else 0.0
    return rate, p99, sheds, total


class Autoscaler:
    """Drives ``prefork.scale_to`` from STATS-pipe signals.

    Shed-rate is computed over the *window between ticks* (diffing
    cumulative counters), so one historical burst cannot pin the fleet
    at max forever.
    """

    def __init__(self, prefork, policy=None):
        self.prefork = prefork
        self.policy = policy or AutoscalePolicy()
        self._thread = None
        self._stop = threading.Event()
        self._hot_ticks = 0
        self._calm_ticks = 0
        self._last_action_at = 0.0
        self._last_sheds = 0
        self._last_total = 0
        self.decisions = []  # (monotonic, action, workers, reason)

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="autoscaler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None

    def _run(self):
        while not self._stop.wait(self.policy.interval_s):
            try:
                self.tick()
            except Exception:
                # A flaky stats poll (worker mid-restart) must not kill
                # the scaling loop.
                pass

    # -- one evaluation ----------------------------------------------------
    def tick(self, stats=None):
        """Evaluate signals once; returns the action taken (or None).
        Injectable ``stats`` makes the loop unit-testable without forks."""
        policy = self.policy
        if stats is None:
            stats = self.prefork.stats()
        rate, p99, sheds, total = fleet_signals(stats)
        window = total - self._last_total
        window_sheds = sheds - self._last_sheds
        self._last_total, self._last_sheds = total, sheds
        window_rate = (window_sheds / window) if window > 0 else 0.0

        hot = window_rate > policy.shed_high or p99 > policy.p99_high_ms
        calm = window_rate == 0.0 and p99 < policy.p99_low_ms
        self._hot_ticks = self._hot_ticks + 1 if hot else 0
        self._calm_ticks = self._calm_ticks + 1 if calm else 0

        now = time.monotonic()
        if now - self._last_action_at < policy.cooldown_s:
            return None
        workers = stats.get("worker_count", self.prefork.workers)
        if self._hot_ticks >= policy.up_consecutive \
                and workers < policy.max_workers:
            return self._act("up", workers + 1,
                             f"shed={window_rate:.3f} p99={p99:.1f}ms",
                             now)
        if self._calm_ticks >= policy.down_consecutive \
                and workers > policy.min_workers:
            return self._act("down", workers - 1, f"p99={p99:.1f}ms", now)
        return None

    def _act(self, action, target, reason, now):
        self.prefork.scale_to(target)
        self._last_action_at = now
        self._hot_ticks = 0
        self._calm_ticks = 0
        self.decisions.append((now, action, target, reason))
        return action
