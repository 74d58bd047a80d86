"""Prefork multi-process serving: N reactor workers behind one port.

The PR 4 reactor parallelized I/O across event-loop *threads*, but every
thread shares one GIL — the scaling axis a single CPython process cannot
cross.  This tier runs N worker processes, each running its own full
reactor (built by ``app_factory`` in the child), so request processing
uses real cores.

Workers
-------

A worker is a :class:`~repro.ipc.lrmi.DomainHostProcess`.  Its setup
runs in the child: it binds the worker's own ``SO_REUSEPORT`` listener
on the master's port (the kernel hashes incoming connections across the
bound sockets, so there is no shared accept lock and no thundering
herd), builds the app, starts it, and publishes one binding, an
:class:`IWorker` capability.  The setup finishes before the endpoint's
socket is bound, so a worker the master can connect to already serves
HTTP.  ``start()`` fails before any fork where ``SO_REUSEPORT`` is
missing.

Control plane
-------------

The master speaks to each worker over ordinary LRMI: ``stats()`` polls
its counters, ``drain(timeout)`` retires it gracefully (stop accepting,
let in-flight requests finish, report final counters), and a stop is a
final ``stats()`` report followed by the endpoint's ``stop()``.  One
:class:`~repro.ipc.transport.Supervisor` detects crashed workers,
replaces them within the ``max_respawns`` budget, and
``rolling_restart()`` hot-swaps the whole fleet one worker at a time —
each replacement serves before its predecessor starts draining, so the
port is always served.

Accounting
----------

Every worker's counters are :class:`~repro.core.accounting.ShardedCounter`
cells *within* its process; across processes the master reconciles by
summing the workers' reports plus the retained totals of retired
workers — ``stats()["requests_served"]`` equals what clients observed,
whichever worker served them.
"""

from __future__ import annotations

import os
from functools import partial

from repro.core import (
    Capability,
    Domain,
    DomainUnavailableException,
    Remote,
    get_accountant,
)
from repro.ipc.lrmi import DomainHostProcess, connect
from repro.ipc.transport import Supervisor

from .httpd import NativeHttpServer, make_listener

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None

#: The name of the worker's one binding.
WORKER = "worker"


class PreforkError(Exception):
    """Master orchestration misuse (scaling or rotating a stopped
    master)."""


class IWorker(Remote):
    """A prefork worker's control verbs, called by its master."""

    def stats(self): ...
    def drain(self, timeout): ...


class Worker(IWorker):
    """The worker-side verbs over the app this process serves."""

    def __init__(self, server):
        self.server = server

    def stats(self):
        if _chaos is not None:
            # Chaos crash points: die between receiving a control call
            # and acting on it (the master must replace the worker and
            # keep its retained counters consistent).
            _chaos.crash_point("prefork.worker.message")
            _chaos.crash_point("prefork.worker.stats")
        return self._report()

    def drain(self, timeout):
        if _chaos is not None:
            _chaos.crash_point("prefork.worker.message")
        self.server.drain(timeout)
        final = self._report()
        self.server.stop()
        return final

    def _report(self):
        server = self.server
        report = {
            "pid": os.getpid(),
            "requests_served": server.requests_served,
            "live_connections": server.live_connections(),
            "accounts": get_accountant().report(),
        }
        if callable(getattr(server, "stats", None)):
            report["server"] = server.stats()
        return report


def _worker_setup(app_factory, host, port):
    """The worker's setup, run in the child: serve, then publish."""
    listener = make_listener(host, port, reuse_port=True)
    server = app_factory()
    server.start(listener)
    domain = Domain("prefork-worker")
    return {WORKER: Capability.create(Worker(server), domain=domain,
                                      label=WORKER)}


class _WorkerProcess(DomainHostProcess):
    """One worker endpoint, with the master's client and its
    :class:`IWorker` proxy once started, and the last report it gave."""

    def __init__(self, setup, call_deadline):
        super().__init__(setup, name="prefork worker")
        self.call_deadline = call_deadline
        self.client = self.proxy = None
        self.last_stats = {}

    def start(self):
        super().start()
        self.client = connect(self, call_deadline=self.call_deadline)
        self.proxy = self.client.lookup(WORKER)
        return self

    def stop(self):
        if self.client is not None:
            self.client.close()
        super().stop()


class PreforkServer:
    """Master process orchestrating N reactor worker processes.

    ``app_factory`` runs **in each child** and returns the server to run
    there — a :class:`~repro.web.httpd.NativeHttpServer`, a
    :class:`~repro.web.jkweb.JKernelWebServer`, or anything exposing
    ``start(listener)`` / ``drain(timeout)`` / ``live_connections()`` /
    ``requests_served`` / ``stop()``.
    """

    def __init__(self, app_factory=None, *, host="127.0.0.1", port=0,
                 workers=2, drain_timeout=5.0, max_respawns=8):
        self.app_factory = app_factory or NativeHttpServer
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.drain_timeout = drain_timeout
        self.max_respawns = max_respawns

        self._running = False
        self._retired_requests = 0
        self._supervisor = Supervisor(
            self._make_worker, max_respawns=max_respawns,
            name="prefork-supervisor", on_death=self._fold_last_report)
        # Guards the fleet (the supervisor's children) and the retained
        # totals; the supervisor holds it through a whole pass.
        self._lock = self._supervisor.lock

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        if self._running:
            return self
        # Raises before any fork where SO_REUSEPORT is missing.  The
        # reservation closes before workers serve, or the kernel would
        # hash a share of connections into a queue nobody accepts from.
        reservation = make_listener(self.host, self.port, reuse_port=True)
        self.port = reservation.getsockname()[1]
        reservation.close()
        fleet = self._supervisor.children
        try:
            with self._lock:
                for _ in range(self.workers):
                    fleet.append(self._supervisor.spawn())
        except BaseException:
            self._teardown_workers(graceful=False)
            raise
        self._running = True
        self._supervisor.start()
        return self

    def stop(self):
        if not self._running:
            return
        self._running = False
        self._supervisor.stop()
        self._teardown_workers(graceful=True)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- workers -----------------------------------------------------------
    def _make_worker(self):
        return _WorkerProcess(
            partial(_worker_setup, self.app_factory, self.host, self.port),
            call_deadline=self.drain_timeout + 5.0)

    def _fold_last_report(self, worker):
        """A crashed worker's counters: what it last reported."""
        self._retired_requests += worker.last_stats.get("requests_served", 0)

    def _retire(self, worker, final_report):
        """Stop a worker that has left the fleet, folding its final
        counters — ``final_report()``, or its last report when it cannot
        answer — into the retained totals."""
        try:
            final = final_report()
        except DomainUnavailableException:
            final = worker.last_stats
        finally:
            worker.stop()
        with self._lock:
            self._retired_requests += final.get("requests_served", 0)

    def _teardown_workers(self, graceful):
        with self._lock:
            workers = list(self._supervisor.children)
            self._supervisor.children.clear()
        for worker in workers:
            if graceful:
                self._retire(worker, worker.proxy.stats)
            else:
                worker.stop()

    # -- autoscaling -------------------------------------------------------
    def scale_to(self, target):
        """Resize the fleet to ``target`` workers.

        Scale-up spawns through the supervisor, so a new worker serves
        before it joins; scale-down reuses the rolling-restart drain
        (:meth:`_retire`), so in-flight requests on departing workers
        finish and their counters fold into the retained totals.
        Returns the actual worker count afterwards.
        """
        if not self._running:
            raise PreforkError("prefork server is not running")
        target = max(1, int(target))
        fleet = self._supervisor.children
        while True:
            with self._lock:
                current = len(fleet)
                if current < target:
                    fleet.append(self._supervisor.spawn())
                    continue
                if current == target:
                    self.workers = current
                    return current
                victim = fleet.pop()  # the newest worker
            self._retire(victim, partial(victim.proxy.drain,
                                         self.drain_timeout))

    def autoscale(self, policy=None):
        """Start a :class:`repro.web.control.Autoscaler` driving
        :meth:`scale_to` from this master's shed-rate and p99 readings.
        Returns the (already started) autoscaler; stop it with its
        ``stop()`` before stopping the server."""
        from .control import Autoscaler, AutoscalePolicy

        scaler = Autoscaler(self, policy or AutoscalePolicy())
        scaler.start()
        return scaler

    # -- rolling restart ---------------------------------------------------
    def rolling_restart(self):
        """Hot-swap every worker, one at a time, without dropping the
        port: spawn the replacement (serving once spawned), then drain
        and retire the old worker.
        """
        if not self._running:
            raise PreforkError("prefork server is not running")
        fleet = self._supervisor.children
        with self._lock:
            old_workers = list(fleet)
        for old in old_workers:
            with self._lock:
                if old not in fleet:
                    continue  # crashed and replaced mid-rotation
                fleet[fleet.index(old)] = self._supervisor.spawn()
            self._retire(old, partial(old.proxy.drain, self.drain_timeout))
        return self

    # -- introspection -----------------------------------------------------
    def worker_pids(self):
        with self._lock:
            return [worker.pid for worker in self._supervisor.children]

    def stats(self):
        """Cross-process reconciliation: per-worker reports plus retained
        totals of every retired/crashed worker."""
        fleet = self._supervisor.children
        with self._lock:
            workers = list(fleet)
        polled = []
        for worker in workers:
            try:
                report = worker.proxy.stats()
                worker.last_stats = report
            except DomainUnavailableException:
                report = dict(worker.last_stats, stale=True)
            polled.append((worker, report))
        # Sum under the lock, counting only workers STILL in the fleet:
        # the supervisor folds a crashed worker's last_stats into
        # _retired_requests and swaps it out atomically, so a stale
        # report for a replaced worker would double-count.
        with self._lock:
            reports = [report for worker, report in polled
                       if worker in fleet]
            retired = self._retired_requests
            crash_replacements = self._supervisor.respawns
        return {
            "workers": reports,
            "worker_count": len(reports),
            "requests_served": retired + sum(
                report.get("requests_served", 0) for report in reports
            ),
            "retired_requests": retired,
            "crash_replacements": crash_replacements,
            "reuse_port": True,  # every worker binds its own listener
            "port": self.port,
        }
