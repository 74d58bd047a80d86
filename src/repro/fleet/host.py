"""One fleet host: an OS process serving servlet domains over LRMI.

The Remote Playground deployment (PAPERS.md) runs untrusted servlets on
sacrificial machines; here each "machine" is a forked
:class:`~repro.ipc.lrmi.DomainHostProcess` whose one binding,
:data:`AGENT`, is the capability of a :class:`FleetHostAgent` created in
its own agent domain after the fork.  The coordinator reaches it over
the ordinary LRMI wire: the agent's verbs are the :class:`IFleetHost`
remote interface, the host kernel answers the ``ping`` heartbeat, and
the token and placement errors cross as themselves (they are registered
with ``repro.core.serial``, see ``repro.fleet.tokens``).

The agent owns:

* a **placement table** — ``place`` instantiates a domain from the
  host's setup registry (the callables survive the fork; nothing is
  pickled) and ``evict`` terminates it through the ordinary
  ``Domain.terminate`` path, revoking its capabilities; a second
  ``place`` of an id the host holds replaces the first domain, which is
  terminated, never orphaned;
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

Fleet traffic is data only — a capability crosses hosts only as a
signed token — so ``invoke``'s result must pass ``serial.dumps``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core import Capability, Domain, Remote
from repro.core.serial import dumps
from repro.ipc.lrmi import DomainHostProcess, exported_methods

from .tokens import PlacementGoneError, TokenAuthority, TokenRevokedError

#: The name of the agent's binding on every fleet host.
AGENT = "agent"

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


class _Placement:
    __slots__ = ("placement_id", "kind", "tenant", "capability")

    def __init__(self, placement_id, kind, tenant, capability):
        self.placement_id = placement_id
        self.kind = kind
        self.tenant = tenant
        self.capability = capability


class IFleetHost(Remote):
    """The fleet verbs, each a dict in and a dict out.  Token revocation
    is ``revoke_tokens``: ``revoke`` is every capability's own method."""

    def place(self, request): ...
    def evict(self, request): ...
    def invoke(self, request): ...
    def revoke_tokens(self, request): ...
    def epoch(self, request): ...
    def quota_report(self, request): ...
    def stats(self, request): ...


class FleetHostAgent(IFleetHost):
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
            previous = self.placements.get(placement_id)
            self.placements[placement_id] = placement
        # A retried place, or a re-place onto a host that still holds
        # the id: the domain it replaces would otherwise live on with
        # nobody tracking it.
        if previous is not None:
            _terminate(previous)
        return {"host_id": self.host_id,
                "methods": list(exported_methods(capability))}

    def evict(self, request):
        with self._lock:
            placement = self.placements.pop(request["placement_id"], None)
        if placement is None:
            return {"evicted": False}
        _terminate(placement)
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
        dumps(result)  # data only: NotSerializableError for a capability
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

    def revoke_tokens(self, request):
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


def _terminate(placement):
    """End a placement's domain, revoking every capability it made."""
    domain = getattr(placement.capability, "creator", None)
    if domain is not None:
        domain.terminate()


class FleetHostProcess(DomainHostProcess):
    """Forks an agent process for one fleet host.

    ``registry`` maps a servlet *kind* to a setup callable returning a
    capability (built inside the agent after the fork — closures are
    fine, nothing is pickled).  ``secret`` is the shared fleet secret
    the token replica derives per-epoch keys from.
    """

    def __init__(self, host_id, registry, *, secret, epoch=0):
        def setup():
            agent = FleetHostAgent(host_id, registry, secret, epoch)
            domain = Domain(f"fleet-agent-{host_id}")
            return {AGENT: Capability.create(agent, domain=domain,
                                             label=AGENT)}

        super().__init__(setup, name=f"fleet host {host_id}")
        self.host_id = host_id
