"""One fleet host: an OS process serving servlet domains over ntrpc.

The Remote Playground deployment (PAPERS.md) runs untrusted servlets on
sacrificial machines; here each "machine" is a forked agent process —
the same crash-containment boundary the cross-process LRMI hosts use
(both are a ``repro.ipc.transport.EndpointProcess``), reached through
ntrpc instead of the LRMI wire, because the coordinator needs exactly
the fleet verbs, not a full marshalling proxy layer.

The agent owns:

* a **placement table** — ``place`` instantiates a domain from the
  host's setup registry (the callables survive the fork; nothing is
  pickled) and ``evict`` terminates it through the ordinary
  ``Domain.terminate`` path, revoking its capabilities;
* a **token replica** — a :class:`~repro.fleet.tokens.TokenAuthority`
  built from the shared fleet secret whose epoch advances on coordinator
  broadcast, so the host itself rejects stale-epoch tokens fail-closed
  (defence in depth: the coordinator already rejects them at the front
  end, but a partitioned-then-healed host must not honour pre-failover
  references either);
* a **revocation set** — token ids delivered by the coordinator's
  sweeper broadcast; revoked ids fail with
  :class:`~repro.fleet.tokens.TokenRevokedError` at dispatch;
* **per-tenant usage counters** — requests and servlet CPU
  microseconds, reported cumulatively through ``quota_report`` for the
  coordinator's reconcile/fold federation (the same protocol
  ``OutOfProcessRegistration`` uses over the LRMI control pipe).
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.errors import DomainUnavailableException
from repro.ipc.ntrpc import RpcServer
from repro.ipc.transport import EndpointProcess, socket_path

from .proto import PlacementGoneError, envelope
from .tokens import TokenAuthority, TokenRevokedError

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


class _Placement:
    __slots__ = ("placement_id", "kind", "tenant", "capability")

    def __init__(self, placement_id, kind, tenant, capability):
        self.placement_id = placement_id
        self.kind = kind
        self.tenant = tenant
        self.capability = capability


class FleetHostAgent:
    """The in-process agent state and verb handlers (fork-side)."""

    def __init__(self, host_id, registry, secret, epoch=0):
        self.host_id = host_id
        self.registry = dict(registry)
        self.tokens = TokenAuthority(secret, epoch)
        self.placements = {}
        self.revoked = set()
        self.usage = {}          # tenant -> {"cpu_ticks", "requests"}
        self._lock = threading.Lock()

    # -- verbs -------------------------------------------------------------
    def place(self, request):
        placement_id = request["placement_id"]
        kind = request["kind"]
        setup = self.registry.get(kind)
        if setup is None:
            raise KeyError(f"host {self.host_id!r} has no kind {kind!r}")
        capability = setup()
        placement = _Placement(placement_id, kind,
                               request.get("tenant"), capability)
        with self._lock:
            self.placements[placement_id] = placement
        from repro.ipc.lrmi import exported_methods

        return {"host_id": self.host_id,
                "methods": list(exported_methods(capability))}

    def evict(self, request):
        with self._lock:
            placement = self.placements.pop(request["placement_id"], None)
        if placement is None:
            return {"evicted": False}
        domain = getattr(placement.capability, "creator", None)
        if domain is not None:
            domain.terminate()
        return {"evicted": True}

    def invoke(self, request):
        claims = self.tokens.verify(request["token"])
        if claims["tid"] in self.revoked:
            raise TokenRevokedError(
                f"token {claims['tid']} was revoked fleet-wide")
        method = request["method"]
        # Fail closed: a token authorizes exactly the methods it
        # carries, so an empty claim set authorizes nothing.
        if method not in claims["methods"]:
            raise PlacementGoneError(
                f"token does not carry method {method!r}")
        with self._lock:
            placement = self.placements.get(claims["placement"])
        if placement is None:
            raise PlacementGoneError(
                f"placement {claims['placement']!r} is not on host "
                f"{self.host_id!r}")
        from repro.ipc.lrmi import exported_methods

        # Dispatch stays inside the capability's remote interface even
        # for a token that claims more: getattr must never reach a
        # private attribute of the servlet.
        if method not in exported_methods(placement.capability):
            raise PlacementGoneError(
                f"placement {claims['placement']!r} does not export "
                f"method {method!r}")
        start = time.perf_counter()
        result = getattr(placement.capability, method)(
            *request.get("args", ()))
        self._charge(placement.tenant,
                     (time.perf_counter() - start) * 1e6)
        if _chaos is not None:
            # Chaos crash point: the host dies after executing the call
            # but before replying — mid-LRMI from the caller's view.
            _chaos.crash_point("fleet.host.invoke")
        return {"result": result}

    def _charge(self, tenant, cpu_us):
        if tenant is None:
            return
        with self._lock:
            usage = self.usage.setdefault(
                tenant, {"cpu_ticks": 0, "requests": 0})
            usage["cpu_ticks"] += int(cpu_us)
            usage["requests"] += 1

    def revoke(self, request):
        with self._lock:
            self.revoked.update(request.get("ids", ()))
        return {"revoked": len(self.revoked)}

    def epoch(self, request):
        """Coordinator epoch broadcast (failover re-key).

        Monotonic: the replica only ever advances, so re-broadcasts —
        the coordinator resends on every heartbeat until the host
        acknowledges — are idempotent and a delayed or duplicated
        frame can never regress the epoch and resurrect stale tokens.
        """
        with self._lock:
            self.tokens.epoch = max(self.tokens.epoch,
                                    int(request["epoch"]))
            return {"epoch": self.tokens.epoch}

    def quota_report(self, request):
        """Cumulative per-tenant usage (the reconcile protocol: each
        report *replaces* the previous live view on the coordinator)."""
        with self._lock:
            return {tenant: dict(usage)
                    for tenant, usage in self.usage.items()}

    def stats(self, request):
        with self._lock:
            return {
                "host_id": self.host_id,
                "pid": os.getpid(),
                "epoch": self.tokens.epoch,
                "placements": sorted(self.placements),
                "revoked": len(self.revoked),
            }

    def handlers(self):
        return {
            "place": envelope(self.place),
            "evict": envelope(self.evict),
            "invoke": envelope(self.invoke),
            "revoke": envelope(self.revoke),
            "epoch": envelope(self.epoch),
            "quota_report": envelope(self.quota_report),
            "stats": envelope(self.stats),
        }


class FleetHostProcess(EndpointProcess):
    """Forks an agent process for one fleet host.

    ``registry`` maps a servlet *kind* to a setup callable returning a
    capability (built inside the agent after the fork — closures are
    fine, nothing is pickled).  ``secret`` is the shared fleet secret
    the token replica derives per-epoch keys from.
    """

    def __init__(self, host_id, registry, *, secret, epoch=0):
        def serve():
            agent = FleetHostAgent(host_id, registry, secret, epoch)
            RpcServer(self.path, agent.handlers()).serve()

        super().__init__(socket_path(f"repro-fleet-{host_id}"),
                         f"fleet host {host_id!r}", serve,
                         error=DomainUnavailableException)
        self.host_id = host_id
