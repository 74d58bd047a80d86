"""Fault injection for the ipc/prefork layers (the chaos harness).

The robustness claim of the fleet control plane is *totality*: under
any injected fault, a client observes a typed error or a successfully
retried call within its deadline — never a hang, never a silently
wrong answer.  This module is how the claim is exercised:

* **crash-at-point** — named crash points in the prefork worker's verbs
  and the LRMI host dispatch path ``os._exit`` the process mid-
  operation (after a configurable number of passes), reproducing a
  worker dying between parse and flush or a host dying mid-call;
* **wire-delay** — every framed send sleeps first, driving calls past
  their deadlines;
* **partial-write** — a framed send emits only a prefix of the frame
  and drops the connection, desynchronizing the peer's stream;
* **socket-drop** — a framed send closes the socket instead;
* **partition** — both directions between a named endpoint pair are
  refused at the calling edge (the fleet coordinator's edge to each
  host, which knows both names), healable at runtime via
  :meth:`ChaosConfig.heal`;
* **heartbeat-loss** — pings between an endpoint pair are dropped
  while data calls still flow, the failure mode that distinguishes
  liveness probing from reachability.

Faults install via hook variables *inside* the target modules
(``repro.ipc.wire._chaos``, ``repro.ipc.lrmi._chaos``,
``repro.web.prefork._chaos``, ``repro.fleet.host._chaos``,
``repro.fleet.coordinator._chaos``, ``repro.core.regions._chaos``):
production code pays one ``is not
None`` check when chaos is off, and the testing package is never
imported outside tests unless a knob is set.  Because installation
mutates interpreter state, forked children (prefork workers, domain
hosts) inherit the active configuration — crash points fire in the
right process, selected by ``scope``.  Partitions and heartbeat loss
are evaluated in the *calling* process (the coordinator side), so
:meth:`ChaosConfig.partition` / :meth:`ChaosConfig.heal` take effect
immediately without cross-process propagation.

Env control (the CI matrix): every knob has a ``JK_CHAOS_*`` variable,
read by :func:`install_from_env` —

============================  =======================================
``JK_CHAOS_CRASH_AT``         comma-separated crash-point names
``JK_CHAOS_CRASH_AFTER``      passes through a crash point before
                              crashing (default 0: first hit)
``JK_CHAOS_WIRE_DELAY_S``     seconds to sleep before each framed send
``JK_CHAOS_PARTIAL_WRITE``    probability [0,1] a send truncates
``JK_CHAOS_DROP_RATE``        probability [0,1] a send drops the socket
``JK_CHAOS_SEED``             RNG seed (default 0: deterministic)
``JK_CHAOS_SCOPE``            ``any`` | ``child`` | ``parent``
``JK_CHAOS_PARTITION``        endpoint pairs to partition, e.g.
                              ``coordinator|h1,h2|h3``
``JK_CHAOS_HEARTBEAT_LOSS``   endpoint pairs whose pings are dropped,
                              in the same ``a|b`` form
============================  =======================================

A pair entry without a ``|``, or with an empty side, is a
``ValueError``, never silently dropped.
"""

from __future__ import annotations

import os
import random
import threading
import time


class ChaosError(OSError):
    """The injected failure surfaced to the faulting layer (an OSError,
    so every wire consumer maps it to its usual typed error)."""


#: Exit status of a crash-point kill (mirrors SIGKILL's 128+9 so
#: supervisors treat it exactly like a real kill).
CRASH_STATUS = 137

#: Crash points wired into the production layers.
KNOWN_POINTS = (
    "prefork.worker.message",   # top of each IWorker verb
    "prefork.worker.stats",     # worker about to answer a stats() poll
    "lrmi.host.dispatch",       # domain host mid-call, pre-reply
    "wire.send",                # either peer, just before a framed send
    "fleet.host.invoke",        # fleet host mid-invoke, pre-reply
    "regions.seal",             # region segment created, nothing granted
)


def _pair(a, b):
    """Canonical unordered endpoint pair (partitions are symmetric)."""
    return frozenset((a, b))


class ChaosConfig:
    """One installed fault configuration (see module docstring)."""

    def __init__(self, crash_at=(), crash_after=0, wire_delay_s=0.0,
                 partial_write=0.0, drop_rate=0.0, seed=0, scope="any",
                 partitions=(), heartbeat_loss=()):
        if scope not in ("any", "child", "parent"):
            raise ValueError(f"unknown scope {scope!r}")
        self.crash_at = frozenset(crash_at)
        self.crash_after = crash_after
        self.wire_delay_s = wire_delay_s
        self.partial_write = partial_write
        self.drop_rate = drop_rate
        self.scope = scope
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._install_pid = os.getpid()
        self._crash_passes = {}
        self._partitions = {_pair(a, b) for a, b in partitions}
        self._heartbeat_loss = {_pair(a, b) for a, b in heartbeat_loss}
        self.injected = {"crash": 0, "delay": 0, "partial": 0, "drop": 0,
                        "partition": 0, "heartbeat": 0}

    # -- scope -------------------------------------------------------------
    def _applies(self):
        if self.scope == "any":
            return True
        is_child = os.getpid() != self._install_pid
        return is_child if self.scope == "child" else not is_child

    def _note(self, fault):
        with self._lock:
            self.injected[fault] += 1

    # -- crash points ------------------------------------------------------
    def crash_point(self, name):
        """``os._exit`` here when the point is armed and its pass budget
        is spent.  Called from the production layers via their hook."""
        if name not in self.crash_at or not self._applies():
            return
        with self._lock:
            passes = self._crash_passes.get(name, 0)
            self._crash_passes[name] = passes + 1
            if passes < self.crash_after:
                return
            self.injected["crash"] += 1
        os._exit(CRASH_STATUS)

    # -- partitions and heartbeat loss ------------------------------------
    def partition(self, a, b):
        """Drop both directions between endpoints ``a`` and ``b`` (the
        calling edge refuses the dial/send with a typed error)."""
        with self._lock:
            self._partitions.add(_pair(a, b))

    def heal(self, a, b):
        """Heal the partition between ``a`` and ``b``."""
        with self._lock:
            self._partitions.discard(_pair(a, b))

    def heal_all(self):
        with self._lock:
            self._partitions.clear()
            self._heartbeat_loss.clear()

    def partitioned(self, a, b):
        """True when the pair is partitioned (noted as an injection)."""
        with self._lock:
            cut = _pair(a, b) in self._partitions
            if cut:
                self.injected["partition"] += 1
        return cut

    def lose_heartbeats(self, a, b):
        """Drop pings between ``a`` and ``b`` while data calls flow —
        the probe-vs-reachability split a partition cannot model."""
        with self._lock:
            self._heartbeat_loss.add(_pair(a, b))

    def restore_heartbeats(self, a, b):
        with self._lock:
            self._heartbeat_loss.discard(_pair(a, b))

    def heartbeat_lost(self, a, b):
        with self._lock:
            lost = _pair(a, b) in self._heartbeat_loss
            if lost:
                self.injected["heartbeat"] += 1
        return lost

    # -- wire faults -------------------------------------------------------
    def before_send(self, sock, data):
        """Apply send-side faults; returns the data to actually send.

        Raises :class:`ChaosError` after dropping/truncating so the
        caller's error path runs exactly as it would for a real network
        failure.
        """
        if not self._applies():
            return data
        self.crash_point("wire.send")
        if self.wire_delay_s > 0.0:
            self._note("delay")
            time.sleep(self.wire_delay_s)
        roll = None
        if self.drop_rate > 0.0 or self.partial_write > 0.0:
            with self._lock:
                roll = self._rng.random()
        if roll is not None and roll < self.drop_rate:
            self._note("drop")
            try:
                sock.close()
            except OSError:
                pass
            raise ChaosError("chaos: socket dropped")
        if roll is not None and roll < self.drop_rate + self.partial_write:
            self._note("partial")
            try:
                sock.sendall(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
            raise ChaosError("chaos: partial write")
        return data


def _target_modules():
    from repro.core import regions
    from repro.fleet import coordinator as fleet_coordinator
    from repro.fleet import host as fleet_host
    from repro.ipc import lrmi, wire
    from repro.web import prefork

    return (wire, lrmi, prefork, fleet_host, fleet_coordinator, regions)


def install(config):
    """Arm the hooks in every target layer; returns the config."""
    for module in _target_modules():
        module._chaos = config
    return config


def uninstall():
    for module in _target_modules():
        module._chaos = None


def active():
    from repro.ipc import wire

    return wire._chaos


def install_from_env(environ=None):
    """Install from ``JK_CHAOS_*`` variables; returns the config, or
    None when no knob is set (and installs nothing)."""
    env = os.environ if environ is None else environ
    crash_at = tuple(
        point.strip()
        for point in env.get("JK_CHAOS_CRASH_AT", "").split(",")
        if point.strip()
    )

    def pairs(name):
        found = []
        for entry in env.get(name, "").split(","):
            if not entry.strip():
                continue
            a, bar, b = (part.strip() for part in entry.partition("|"))
            if not (bar and a and b):
                raise ValueError(
                    f"{name}: {entry!r} is not an endpoint pair 'a|b'")
            found.append((a, b))
        return tuple(found)

    partitions = pairs("JK_CHAOS_PARTITION")
    heartbeat_loss = pairs("JK_CHAOS_HEARTBEAT_LOSS")
    config = ChaosConfig(
        crash_at=crash_at,
        crash_after=int(env.get("JK_CHAOS_CRASH_AFTER", "0")),
        wire_delay_s=float(env.get("JK_CHAOS_WIRE_DELAY_S", "0")),
        partial_write=float(env.get("JK_CHAOS_PARTIAL_WRITE", "0")),
        drop_rate=float(env.get("JK_CHAOS_DROP_RATE", "0")),
        seed=int(env.get("JK_CHAOS_SEED", "0")),
        scope=env.get("JK_CHAOS_SCOPE", "any"),
        partitions=partitions,
        heartbeat_loss=heartbeat_loss,
    )
    if (not crash_at and config.wire_delay_s == 0.0
            and config.partial_write == 0.0 and config.drop_rate == 0.0
            and not partitions and not heartbeat_loss):
        return None
    return install(config)
