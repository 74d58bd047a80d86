"""The fleet coordinator: placement, liveness, failover, federation.

One coordinator process owns a fleet of :class:`~repro.fleet.host.
FleetHostProcess` agents and keeps serving through the loss of any of
them.  The moving parts:

* **placement** — ``place(name, kind, tenant)`` instantiates a servlet
  domain on the least-loaded live host and returns an HMAC-signed
  capability token (``repro.fleet.tokens``) — the only form in which a
  fleet reference exists outside the coordinator;
* **liveness** — a supervision thread pings every host each
  ``heartbeat_interval`` seconds with the host kernel's LRMI ``ping``
  control verb; ``max_missed`` consecutive missed beats evict the host
  (the paper's crash-containment story, one level up: the *host* is
  now the unit that dies);
* **failover** — eviction folds the host's quota slice, bumps the
  fleet epoch (re-keying every outstanding token: stale references
  fail closed, exactly like revoked capabilities), broadcasts the new
  epoch to the survivors, and re-places the dead host's domains on
  them through the same place verb that created them.  Callers racing
  the blackout see :class:`FleetUnavailableError` — a
  ``DomainUnavailableException`` the web layer maps to a retryable
  503 with ``Retry-After`` — and rebind with :meth:`FleetCoordinator.
  lookup` once the failover lands;
* **federation** — per-tenant budgets aggregate across hosts through
  :class:`~repro.fleet.quota.QuotaFederation` (reconcile on heartbeat,
  fold on eviction), and the request-rate window is charged centrally
  at the front end, so a tenant cannot escape its budget by being
  placed on two hosts;
* **revocation** — ``revoke(token)`` takes effect locally at once and
  a sweeper fans the token id out to every live host on the next beat
  (the PR 5 broadcast pattern, fleet-wide).

Each host is reached through two LRMI clients: *data* (``place`` and
``invoke``, under ``call_deadline``) and *control* (everything else,
under ``ping_deadline``).  Every call to a host passes
:meth:`FleetCoordinator._edge`, where the chaos harness models
partitions and heartbeat loss.

Knob relationship (validated at construction, see
:func:`validate_liveness_knobs`): a heartbeat ping runs under
``ping_deadline``; the supervision loop fires every
``heartbeat_interval``.  ``ping_deadline`` must not exceed
``heartbeat_interval`` — otherwise a ping still legitimately in flight
when the next beat fires would be scored as a missed beat and a merely
slow host spuriously evicted.  The eviction window is ``max_missed x
heartbeat_interval``; a client retry loop that should bridge failover
must keep retrying for at least that window plus re-placement time
(:attr:`FleetCoordinator.blackout_hint` is the coordinator's own
estimate, surfaced as ``Retry-After``).
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.errors import DomainUnavailableException
from repro.core.quota import HARD
from repro.core.serial import dumps
from repro.ipc.lrmi import DomainClient

from .host import AGENT, FleetHostProcess
from .quota import QuotaFederation
from .tokens import PlacementGoneError, TokenAuthority, TokenRevokedError

#: Host liveness states.
LIVE = "live"
DEAD = "dead"

#: The data verbs sent again after a transport failure (a duplicate
#: ``place`` replaces the domain the first one made).
_RETRIED = ("place", "invoke")

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


class FleetError(DomainUnavailableException):
    """Base class of coordinator-side fleet failures."""


class FleetUnavailableError(FleetError):
    """The placement cannot be served right now (host dead, partition,
    failover in progress).  Retryable: carries the coordinator's
    blackout estimate for the front end's ``Retry-After`` header."""

    def __init__(self, message, retry_after=1.0):
        super().__init__(message)
        self.retry_after = retry_after


class NoLiveHostError(FleetError):
    """No live host can take a placement (the fleet is empty or dead)."""


def validate_liveness_knobs(ping_deadline, heartbeat_interval, max_missed):
    """Reject silently-conflicting liveness knobs at construction.

    ``ping_deadline`` bounds one heartbeat round trip;
    ``heartbeat_interval`` is the beat period; ``max_missed``
    consecutive failures evict.  A deadline longer than the interval
    means a ping can still be legitimately in flight when the next
    beat fires — that beat would be scored as missed and a slow host
    spuriously evicted, so the combination is rejected rather than
    silently mis-scored.
    """
    if heartbeat_interval <= 0:
        raise ValueError("heartbeat_interval must be positive")
    if ping_deadline <= 0:
        raise ValueError("ping_deadline must be positive")
    if ping_deadline > heartbeat_interval:
        raise ValueError(
            f"ping_deadline ({ping_deadline}s) exceeds heartbeat_interval "
            f"({heartbeat_interval}s): a ping still in flight at the next "
            "beat would score as a missed beat and spuriously evict a "
            "slow host; shrink ping_deadline or stretch the interval"
        )
    if max_missed < 1:
        raise ValueError("max_missed must be at least 1")


class _HostRecord:
    __slots__ = ("host_id", "process", "data_client", "control_client",
                 "data", "control", "state", "missed_beats", "placements",
                 "spawned", "epoch")

    def __init__(self, host_id, process, data_client, control_client,
                 spawned):
        self.host_id = host_id
        self.process = process
        self.data_client = data_client
        self.control_client = control_client
        # The host's agent, looked up once through each client.
        self.data = data_client.lookup(AGENT)
        self.control = control_client.lookup(AGENT)
        self.state = LIVE
        self.missed_beats = 0
        self.placements = set()
        self.spawned = spawned
        # Last epoch the host ACKNOWLEDGED; None until the first
        # successful sync, so a failed broadcast is retried on every
        # heartbeat rather than assumed delivered.
        self.epoch = None


class _PlacementRecord:
    __slots__ = ("name", "kind", "tenant", "host_id", "methods")

    def __init__(self, name, kind, tenant, host_id, methods):
        self.name = name
        self.kind = kind
        self.tenant = tenant
        self.host_id = host_id
        self.methods = methods


class FleetCoordinator:
    """Places servlet domains across fleet hosts and keeps them served.

    ``registry`` is the default ``{kind: setup}`` map for
    :meth:`spawn_host`.  The liveness knobs are validated by
    :func:`validate_liveness_knobs` (see the module docstring for the
    relationship); ``call_deadline``/``retries``/``backoff`` configure
    the *data-path* LRMI client per host, which retries only ``place``
    and ``invoke``.  ``endpoint`` names this coordinator to the chaos
    harness's partition model.
    """

    def __init__(self, registry=None, *, secret=None,
                 heartbeat_interval=0.25, max_missed=3,
                 ping_deadline=None, call_deadline=5.0, retries=1,
                 backoff=0.05, reconcile_every=2, quota=None,
                 endpoint="coordinator"):
        if ping_deadline is None:
            ping_deadline = heartbeat_interval
        validate_liveness_knobs(ping_deadline, heartbeat_interval,
                                max_missed)
        self.registry = dict(registry or {})
        self.tokens = TokenAuthority(secret)
        self.heartbeat_interval = heartbeat_interval
        self.max_missed = max_missed
        self.ping_deadline = ping_deadline
        self.call_deadline = call_deadline
        self.retries = retries
        self.backoff = backoff
        self.reconcile_every = reconcile_every
        self.endpoint = endpoint
        self.federation = quota if quota is not None else QuotaFederation()
        self._hosts = {}
        self._placements = {}
        self._revoked = set()
        self._pending_revocations = set()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._beat_thread = None
        self._beats = 0
        self.heartbeats_sent = 0
        self.evictions = []      # [{host_id, reason, epoch, at_beat}]
        self.failovers = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def epoch(self):
        return self.tokens.epoch

    @property
    def blackout_hint(self):
        """Seconds a caller should wait before retrying through a
        failover: the detection window plus a re-placement beat."""
        return self.heartbeat_interval * (self.max_missed + 1)

    def start(self):
        if self._beat_thread is None:
            self._beat_thread = threading.Thread(
                target=self._supervise, daemon=True,
                name="fleet-heartbeat")
            self._beat_thread.start()
        return self

    def stop(self):
        self._stop.set()
        thread = self._beat_thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._beat_thread = None
        with self._lock:
            records = list(self._hosts.values())
        for record in records:
            record.data_client.close()
            record.control_client.close()
            if record.spawned and record.process is not None:
                record.process.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- host registry -----------------------------------------------------
    def spawn_host(self, host_id, registry=None):
        """Fork and register a fleet host sharing this fleet's secret."""
        process = FleetHostProcess(
            host_id, registry if registry is not None else self.registry,
            secret=self.tokens.secret, epoch=self.tokens.epoch,
        ).start()
        try:
            self.register_host(process, spawned=True)
        except BaseException:
            process.stop()  # nobody else holds it
            raise
        return process

    def register_host(self, process, *, spawned=False):
        """Register a started :class:`FleetHostProcess` for placement."""
        host_id = process.host_id
        data = DomainClient(
            process.path, call_deadline=self.call_deadline,
            retries=self.retries, backoff=self.backoff,
            idempotent=_RETRIED,
        )
        control = DomainClient(process.path, call_deadline=self.ping_deadline)
        try:
            record = _HostRecord(host_id, process, data, control, spawned)
            with self._lock:
                if host_id in self._hosts and \
                        self._hosts[host_id].state == LIVE:
                    raise ValueError(f"host {host_id!r} already registered")
                self._hosts[host_id] = record
        except BaseException:
            data.close()
            control.close()
            raise
        # A late joiner must trust only current-epoch tokens and must
        # honour every revocation issued before it existed.  Failures
        # here are retried after the next successful heartbeat.
        self._sync_epoch(record)
        self._sync_revocations(record)
        # Capacity returning after a total-loss window: placements
        # orphaned while NO host was live stayed unplaced (eviction's
        # re-place fanout had no survivors to try).  The first host to
        # register picks them up — service resumes without an operator
        # re-placing by hand.
        with self._lock:
            orphaned = [placement
                        for placement in self._placements.values()
                        if placement.host_id is None]
        survivors = self._live_records()
        for placement in orphaned:
            self._replace(placement, survivors)
        return record

    def hosts(self):
        with self._lock:
            return {host_id: record.state
                    for host_id, record in self._hosts.items()}

    def _live_records(self):
        with self._lock:
            return [record for record in self._hosts.values()
                    if record.state == LIVE]

    # -- the edge to a host ------------------------------------------------
    def _edge(self, record, heartbeat=False):
        """``record``, once the chaos harness (when armed) lets a call
        from this coordinator reach its host: a partition refuses every
        call, heartbeat loss only the ping — both as the
        ``DomainUnavailableException`` an unreachable host raises."""
        if _chaos is not None:
            if _chaos.partitioned(self.endpoint, record.host_id):
                raise DomainUnavailableException(
                    f"chaos: partition between {self.endpoint} and "
                    f"{record.host_id}")
            if heartbeat and _chaos.heartbeat_lost(self.endpoint,
                                                   record.host_id):
                raise DomainUnavailableException(
                    f"chaos: heartbeat lost between {self.endpoint} and "
                    f"{record.host_id}")
        return record

    # -- epoch / revocation convergence ------------------------------------
    def _sync_epoch(self, record):
        """Bring one host's token-replica epoch up to the fleet's.

        Runs at registration, after every successful heartbeat, and in
        the eviction fanout — so a live host whose eviction-time
        broadcast was lost (tight ping deadline, momentary partition)
        converges within one beat instead of rejecting every
        current-epoch token forever.  ``record.epoch`` tracks the last
        epoch the host ACKNOWLEDGED; the host-side verb is monotonic
        (``max(current, new)``), so resends are idempotent and can
        never regress a replica.  Returns True once the host is known
        to be current.
        """
        epoch = self.tokens.epoch
        if record.epoch is not None and record.epoch >= epoch:
            return True
        try:
            reply = self._edge(record).control.epoch({"epoch": epoch})
        except DomainUnavailableException:
            return False  # retried after the next successful beat
        record.epoch = int(reply["epoch"])
        return True

    def _sync_revocations(self, record):
        """Deliver the FULL revoked-id set to one host (registration
        path): a host that joins after a revocation was flushed would
        otherwise never hear it, leaving a hole in the host-side
        defence-in-depth layer."""
        with self._lock:
            revoked = sorted(self._revoked)
        if not revoked:
            return True
        try:
            self._edge(record).control.revoke_tokens({"ids": revoked})
        except DomainUnavailableException:
            # Re-queue for the sweeper: hosts union the ids, so the
            # fleet-wide resend is idempotent.
            with self._lock:
                self._pending_revocations.update(revoked)
            return False
        return True

    # -- placement ---------------------------------------------------------
    def _least_loaded(self):
        live = self._live_records()
        if not live:
            raise NoLiveHostError("no live host available for placement")
        return min(live, key=lambda record: (len(record.placements),
                                             record.host_id))

    def place(self, name, kind, tenant=None):
        """Place a servlet domain; returns its signed capability token."""
        placement = _PlacementRecord(name, kind, tenant, None, ())
        with self._lock:
            if name in self._placements:
                raise ValueError(f"placement {name!r} already exists")
            # Reserve the name before releasing the lock: a racing
            # place() with the same name must fail the check above, not
            # instantiate a second domain whose record clobbers this
            # one (leaking the first domain as an orphan on its host).
            self._placements[name] = placement
        try:
            record = self._least_loaded()
            reply = self._edge(record).data.place({
                "placement_id": name, "kind": kind, "tenant": tenant,
            })
        except BaseException:
            with self._lock:
                if self._placements.get(name) is placement:
                    del self._placements[name]
            raise
        with self._lock:
            placement.host_id = record.host_id
            placement.methods = tuple(reply.get("methods", ()))
            record.placements.add(name)
        return self._mint(placement)

    def _mint(self, placement):
        return self.tokens.mint(placement.name, tenant=placement.tenant,
                                methods=placement.methods)

    def lookup(self, name):
        """A fresh current-epoch token for an existing placement — the
        rebind path after a failover staled the old token."""
        with self._lock:
            placement = self._placements.get(name)
        if placement is None:
            raise PlacementGoneError(f"no placement named {name!r}")
        return self._mint(placement)

    def placements(self):
        with self._lock:
            return {name: placement.host_id
                    for name, placement in self._placements.items()}

    # -- the data path -----------------------------------------------------
    def call(self, token, method, *args):
        """Invoke a method on the placement a token references.

        Fail-closed order: token authenticity and epoch, revocation,
        data-only arguments, quota verdict, then routing.  Transport
        failures surface as :class:`FleetUnavailableError` (503 +
        Retry-After at the web layer), never a hang and never a raw
        ``OSError``.
        """
        claims = self.tokens.verify(token)
        if claims["tid"] in self._revoked:
            raise TokenRevokedError(
                f"token {claims['tid']} was revoked fleet-wide")
        # Data only: NotSerializableError for a capability at any
        # depth, before LRMI could export it as a live proxy.
        dumps(args)
        tenant = claims.get("tenant")
        if tenant is not None:
            self.federation.charge_request(tenant)
            if self.federation.admit(tenant) == HARD:
                cell = self.federation.manager.cell(tenant)
                raise cell.exceeded_error()
        with self._lock:
            placement = self._placements.get(claims["placement"])
            record = (None if placement is None or placement.host_id is None
                      else self._hosts.get(placement.host_id))
        if placement is None:
            raise PlacementGoneError(
                f"placement {claims['placement']!r} is gone")
        if record is None or record.state != LIVE:
            raise FleetUnavailableError(
                f"placement {placement.name!r} is failing over",
                retry_after=self.blackout_hint)
        try:
            reply = self._edge(record).data.invoke({
                "token": token, "method": method, "args": args,
            })
        except DomainUnavailableException as exc:
            raise FleetUnavailableError(
                f"host {record.host_id!r} unreachable mid-call: {exc}",
                retry_after=self.blackout_hint) from None
        return reply["result"]

    # -- revocation --------------------------------------------------------
    def revoke(self, token):
        """Revoke a token fleet-wide: local effect immediately, host
        broadcast fanned out by the sweeper on the next beat."""
        claims = self.tokens.verify(token)
        with self._lock:
            self._revoked.add(claims["tid"])
            self._pending_revocations.add(claims["tid"])

    def _flush_revocations(self, records):
        with self._lock:
            pending = set(self._pending_revocations)
        if not pending:
            return
        reached = 0
        failed = False
        for record in records:
            try:
                self._edge(record).control.revoke_tokens(
                    {"ids": sorted(pending)})
                reached += 1
            except DomainUnavailableException:
                failed = True  # retried next beat
        # Cleared only once every live host has actually heard the set;
        # with zero live hosts nobody has, so it stays pending for the
        # hosts that register later.
        if reached and not failed:
            with self._lock:
                self._pending_revocations -= pending

    # -- liveness and failover ---------------------------------------------
    def _supervise(self):
        while not self._stop.wait(self.heartbeat_interval):
            self._beats += 1
            records = self._live_records()
            self._flush_revocations(records)
            for record in records:
                if self._stop.is_set():
                    return
                try:
                    self._edge(record, heartbeat=True) \
                        .control_client.control("ping")
                except DomainUnavailableException:
                    record.missed_beats += 1
                    if record.missed_beats >= self.max_missed:
                        self._evict(record, "missed heartbeats")
                    continue
                record.missed_beats = 0
                self.heartbeats_sent += 1
                # Epoch convergence piggybacks on liveness: a host that
                # missed the eviction-time broadcast would otherwise
                # stay LIVE (pings succeed) while rejecting every
                # current-epoch token.  No-op RPC-wise once the host
                # has acknowledged the current epoch.
                self._sync_epoch(record)
                if self._beats % self.reconcile_every == 0:
                    self._reconcile(record)

    def _reconcile(self, record):
        try:
            report = self._edge(record).control.quota_report({})
        except DomainUnavailableException:
            return  # the beat loop scores reachability, not this
        self.federation.ingest(record.host_id, report)

    def _evict(self, record, reason):
        """Eviction + failover: fold quota, re-key the fleet, re-place."""
        with self._lock:
            if record.state == DEAD:
                return
            record.state = DEAD
            # Re-key in the same hold that marks the host dead, so no
            # reader sees it dead under the old epoch: every token
            # minted before this instant is now stale, fleet-wide,
            # including on hosts this coordinator cannot reach (they
            # fail closed the moment they heal and hear the epoch).
            epoch = self.tokens.bump_epoch()
            self.evictions.append({"host_id": record.host_id,
                                   "reason": reason, "epoch": epoch,
                                   "at_beat": self._beats})
            orphaned = [self._placements[name]
                        for name in sorted(record.placements)
                        if name in self._placements]
            record.placements.clear()
        record.data_client.close()
        record.control_client.close()
        # The host's last reconciled report retires into the retained
        # base: its replacement reports from zero without resetting any
        # tenant's budget position.
        self.federation.fold_host(record.host_id)
        survivors = self._live_records()
        for survivor in survivors:
            # A failed fanout is NOT final: record.epoch stays behind,
            # and the heartbeat loop re-sends until acknowledged.
            self._sync_epoch(survivor)
        for placement in orphaned:
            self._replace(placement, survivors)

    def _replace(self, placement, survivors):
        """Re-place one orphaned domain on a survivor (fresh domain —
        the dead host's state died with it, exactly as a crashed
        in-process domain's would)."""
        with self._lock:
            placement.host_id = None
        for survivor in sorted(survivors,
                               key=lambda r: (len(r.placements),
                                              r.host_id)):
            try:
                reply = self._edge(survivor).data.place({
                    "placement_id": placement.name,
                    "kind": placement.kind,
                    "tenant": placement.tenant,
                })
            except DomainUnavailableException:
                continue
            with self._lock:
                placement.host_id = survivor.host_id
                placement.methods = tuple(reply.get("methods", ()))
                survivor.placements.add(placement.name)
            self.failovers += 1
            return True
        return False  # stays unplaced: callers get FleetUnavailableError

    # -- reporting ---------------------------------------------------------
    def stats(self):
        with self._lock:
            hosts = {
                host_id: {
                    "state": record.state,
                    "missed_beats": record.missed_beats,
                    "placements": sorted(record.placements),
                    "pid": (record.process.pid
                            if record.process is not None else None),
                }
                for host_id, record in self._hosts.items()
            }
            placements = {name: placement.host_id
                          for name, placement in self._placements.items()}
        return {
            "pid": os.getpid(),
            "epoch": self.tokens.epoch,
            "hosts": hosts,
            "placements": placements,
            "heartbeats_sent": self.heartbeats_sent,
            "evictions": list(self.evictions),
            "failovers": self.failovers,
            "revoked": len(self._revoked),
            "quota": self.federation.report(),
        }


def wait_until(predicate, timeout=8.0, poll=0.01):
    """Poll ``predicate`` until true or ``timeout``; returns its last
    value (the fleet suites' and benchmarks' convergence helper)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()
