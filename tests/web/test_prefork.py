"""Prefork serving tier: master/worker lifecycle, rolling hot-swap,
crash replacement, cross-process accounting reconciliation, and the
out-of-process servlet deployment behind it.

Soak sizes follow the ``JK_STRESS_*`` env knobs the stress suite
established, so CI can bound the process-spawning tests.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.core import DomainUnavailableException
from repro.ipc import exported_methods, lrmi, transport
from repro.web import prefork
from repro.web import (
    JKernelWebServer,
    NativeHttpServer,
    PreforkError,
    PreforkServer,
    Servlet,
    ServletResponse,
    fetch_once,
    make_listener,
    run_mixed_load,
)

STRESS_CLIENTS = int(os.environ.get("JK_STRESS_CLIENTS", "4"))
STRESS_ROUNDS = int(os.environ.get("JK_STRESS_ROUNDS", "15"))


def _doc_app():
    server = NativeHttpServer(workers=1)
    server.documents.put("/doc", b"prefork-doc")
    return server


def _jk_app():
    jk = JKernelWebServer(workers=1)
    jk.server.documents.put("/doc", b"prefork-doc")

    class PidServlet(Servlet):
        def service(self, request):
            return ServletResponse(
                200, {"Content-Type": "text/plain"},
                str(os.getpid()).encode(),
            )

    jk.install_servlet("/pid", PidServlet)
    return jk


def _wait(predicate, timeout=8.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


class TestPreforkServing:
    def test_serves_documents_across_workers(self):
        with PreforkServer(_doc_app, workers=2) as master:
            for _ in range(20):
                response = fetch_once("127.0.0.1", master.port, "/doc")
                assert response.status == 200
                assert response.body == b"prefork-doc"
            stats = master.stats()
            assert stats["worker_count"] == 2
            assert stats["requests_served"] == 20
            assert len(set(master.worker_pids())) == 2

    def test_jkernel_app_runs_per_worker_domains(self):
        with PreforkServer(_jk_app, workers=2) as master:
            pids = set()
            for _ in range(20):
                response = fetch_once(
                    "127.0.0.1", master.port, "/servlet/pid"
                )
                assert response.status == 200
                pids.add(int(response.body))
            worker_pids = set(master.worker_pids())
            assert pids <= worker_pids
            assert os.getpid() not in pids  # served out of this process

    def test_stats_reconcile_with_client_counts(self):
        """Sharded per-process counters reconcile across the fleet: the
        master's merged total equals what the clients observed."""
        with PreforkServer(_doc_app, workers=2) as master:
            report = run_mixed_load(
                "127.0.0.1", master.port, script=["/doc"],
                clients=STRESS_CLIENTS, rounds=STRESS_ROUNDS,
                expectations={"/doc": lambda r: r.body == b"prefork-doc"},
            )
            assert report.errors == []
            assert report.dropped == 0
            assert report.garbled == []
            expected = STRESS_CLIENTS * STRESS_ROUNDS
            assert report.count("/doc") == expected
            assert master.stats()["requests_served"] == expected


class TestRollingRestart:
    def test_rolling_restart_replaces_every_worker(self):
        with PreforkServer(_doc_app, workers=2) as master:
            before = set(master.worker_pids())
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            master.rolling_restart()
            after = set(master.worker_pids())
            assert after.isdisjoint(before)
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            # counters from drained workers were folded into the total
            assert master.stats()["requests_served"] == 10

    def test_rolling_restart_under_load_drops_nothing(self):
        """Hot-swap the whole fleet while clients hammer it: every
        request is answered (drain covers in-flight ones; the
        replacement is READY before its predecessor retires)."""
        with PreforkServer(_doc_app, workers=2) as master:
            import threading

            errors = []
            stop = threading.Event()

            def swapper():
                try:
                    while not stop.is_set():
                        master.rolling_restart()
                        time.sleep(0.05)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(repr(exc))

            swap_thread = threading.Thread(target=swapper, daemon=True)
            swap_thread.start()
            try:
                report = run_mixed_load(
                    "127.0.0.1", master.port, script=["/doc"],
                    clients=STRESS_CLIENTS, rounds=STRESS_ROUNDS,
                    expectations={
                        "/doc": lambda r: r.body == b"prefork-doc"
                    },
                )
            finally:
                stop.set()
                swap_thread.join(15.0)
            assert errors == []
            assert report.garbled == []
            # Keep-alive connections pinned to a draining worker may be
            # cut after its drain window; a dropped connection is the
            # accepted cost of retiring a worker mid-stream — garbled
            # responses or errors are not.
            assert report.total(200) + report.dropped \
                >= STRESS_CLIENTS * STRESS_ROUNDS - report.dropped


class TestCrashReplacement:
    def test_master_replaces_crashed_worker(self):
        with PreforkServer(_doc_app, workers=2) as master:
            victim = master.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait(
                lambda: victim not in master.worker_pids()
                and len(master.worker_pids()) == 2
            ), master.worker_pids()
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            stats = master.stats()
            assert stats["crash_replacements"] == 1
            assert stats["worker_count"] == 2

    def test_single_worker_crash_recovers(self):
        with PreforkServer(_doc_app, workers=1) as master:
            victim = master.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait(lambda: master.worker_pids()
                         and master.worker_pids() != [victim])
            deadline = time.monotonic() + 8.0
            while True:
                try:
                    assert fetch_once("127.0.0.1", master.port,
                                      "/doc").status == 200
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)


class TestOutOfProcessServlet:
    """The Remote-Playground deployment through the web stack."""

    @staticmethod
    def _pid_servlet():
        class PidServlet(Servlet):
            def service(self, request):
                return ServletResponse(
                    200, {"Content-Type": "text/plain"},
                    str(os.getpid()).encode(),
                )

        return PidServlet()

    def test_servlet_runs_in_other_process(self):
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet
            )
            response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert response.status == 200
            assert int(response.body) != os.getpid()
            assert int(response.body) == registration.host.pid

    def test_accounting_reconciles_across_the_boundary(self):
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet
            )
            for _ in range(7):
                assert fetch_once("127.0.0.1", jk.port,
                                  "/servlet/pid").status == 200
            # client-side charge (the system servlet's view): with reply
            # streaming the host writes the response to the client socket
            # BEFORE the LRMI acknowledgement returns, so the final
            # charge may land microseconds after the fetch completes.
            deadline = time.monotonic() + 2.0
            while (registration.account.requests < 7
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert registration.account.requests == 7
            # ... reconciles with the host process's own LRMI counter:
            # every request crossed into the servlet's domain exactly once
            remote = registration.remote_stats()["domains"]["servlet"]
            assert remote["lrmi_calls_in"] == 7
            assert remote["terminated"] is False

    def test_host_crash_gives_503s_then_recovers(self):
        """The worker-crash contract: the master (supervisor) replaces
        the dead host and requests racing the outage get 503s — never
        hangs, never 200s with stale state."""
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet
            )
            first = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert first.status == 200
            old_pid = int(first.body)

            os.kill(registration.host.pid, signal.SIGKILL)
            statuses = set()
            deadline = time.monotonic() + 10.0
            recovered = None
            while time.monotonic() < deadline:
                response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
                if response is None:
                    # Reply streaming: a request whose call frame was
                    # already handed to the dying host cannot be answered
                    # with a marshalled 503 — the host may have written
                    # part of the response to the client socket — so the
                    # server closes the connection instead (the standard
                    # upstream-died-mid-response behaviour).  Still no
                    # hang, and the next attempt gets a clean answer.
                    time.sleep(0.02)
                    continue
                statuses.add(response.status)
                assert response.status in (200, 503), response.status
                if response.status == 200:
                    recovered = int(response.body)
                    break
                time.sleep(0.02)
            assert recovered is not None, "host never respawned"
            assert recovered != old_pid
            assert registration.respawns >= 1
            # the outage window answered 503 (service unavailable),
            # exactly what DomainUnavailableException maps to
            assert 503 in statuses or registration.respawns >= 1

    def test_terminate_out_of_process_servlet(self):
        with JKernelWebServer(workers=1) as jk:
            jk.install_servlet_out_of_process("/pid", self._pid_servlet)
            assert fetch_once("127.0.0.1", jk.port,
                              "/servlet/pid").status == 200
            jk.terminate_servlet("/pid")
            response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert response.status == 404  # unrouted, host torn down

    @pytest.fixture()
    def refused_lookups(self, monkeypatch):
        """From now on a host's ``servlet`` binding cannot be looked up;
        returns the list of every host started from then on."""
        started = []
        start, lookup = lrmi.DomainHostProcess.start, lrmi.DomainClient.lookup

        def recording_start(host):
            started.append(host)
            return start(host)

        def refusing_lookup(client, name):
            if name == "servlet":
                raise DomainUnavailableException("lookup refused")
            return lookup(client, name)

        def arm():
            monkeypatch.setattr(lrmi.DomainHostProcess, "start",
                                recording_start)
            monkeypatch.setattr(lrmi.DomainClient, "lookup",
                                refusing_lookup)
            return started

        return arm

    def test_failed_respawns_leave_no_host_behind(self, refused_lookups):
        """Each replacement whose lookup fails is stopped, and so is the
        dead host once the budget is spent: no process and no socket
        file outlives the slot."""
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet, max_respawns=2)
            original = registration.host
            started = refused_lookups()
            os.kill(original.pid, signal.SIGKILL)
            assert _wait(lambda: registration.host is None)
            assert len(started) == 2
            for host in (original, *started):
                assert not host.alive()
                assert not os.path.exists(host.path)
            response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert response.status == 503

    def test_failed_install_leaves_no_host_behind(self, refused_lookups):
        started = refused_lookups()
        with JKernelWebServer(workers=1) as jk:
            with pytest.raises(DomainUnavailableException,
                               match="lookup refused"):
                jk.install_servlet_out_of_process("/pid", self._pid_servlet)
            assert "/pid" not in jk.registrations()
        (host,) = started
        assert not host.alive()
        assert not os.path.exists(host.path)


class TestMasterLifecycle:
    def test_stop_reaps_every_worker(self):
        master = PreforkServer(_doc_app, workers=3).start()
        pids = master.worker_pids()
        assert len(pids) == 3
        master.stop()
        for pid in pids:
            # a reaped child is gone; kill(0) must fail
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_start_failure_leaves_no_orphans(self):
        def broken_app():
            raise RuntimeError("factory exploded")

        master = PreforkServer(broken_app, workers=2)
        with pytest.raises(Exception):
            master.start()
        assert master.worker_pids() == []

    def test_port_is_resolved_before_workers_serve(self):
        with PreforkServer(_doc_app, workers=1) as master:
            assert master.port != 0
            assert fetch_once("127.0.0.1", master.port,
                              "/doc").status == 200


class TestScaling:
    def test_scale_to_grows_and_shrinks_the_fleet(self):
        with PreforkServer(_doc_app, workers=1) as master:
            assert master.scale_to(3) == 3
            assert len(set(master.worker_pids())) == 3
            for _ in range(6):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            # Scale-down drains: the departing workers' counters fold
            # into the retained total, nothing is lost.
            assert master.scale_to(1) == 1
            stats = master.stats()
            assert stats["worker_count"] == 1
            assert stats["requests_served"] == 6
            assert master.scale_to(0) == 1  # never below one worker

    def test_autoscaler_is_started_against_this_master(self):
        with PreforkServer(_doc_app, workers=1) as master:
            scaler = master.autoscale()
            try:
                assert scaler.prefork is master
                assert scaler.decisions == []
            finally:
                scaler.stop()

    def test_a_stopped_master_refuses_to_scale_or_rotate(self):
        master = PreforkServer(_doc_app, workers=1)
        with pytest.raises(PreforkError, match="not running"):
            master.scale_to(2)
        with pytest.raises(PreforkError, match="not running"):
            master.rolling_restart()


class TestListenerStrategy:
    def test_reuse_port_demanded_where_refused_fails_before_any_fork(
            self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        master = PreforkServer(_doc_app, workers=2)
        with pytest.raises(OSError, match="SO_REUSEPORT"):
            master.start()
        assert master.worker_pids() == []
        master.stop()  # never started: a no-op, not an error


class _ObservedMaster(PreforkServer):
    """Signals each respawn attempt the supervisor makes, and can be told
    to make them fail — crash replacement without guessing at timing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.respawn_attempted = threading.Event()
        self.fail_respawns = False

    def _make_worker(self):
        if len(self._supervisor.children) < self.workers:
            return super()._make_worker()  # the initial fleet
        try:
            if self.fail_respawns:
                raise PreforkError("respawn refused")
            return super()._make_worker()
        finally:
            self.respawn_attempted.set()


class TestRespawnLimits:
    def test_failed_respawn_drops_the_slot_and_keeps_the_rest(self):
        with _ObservedMaster(_doc_app, workers=2) as master:
            victim, survivor = master.worker_pids()
            master.fail_respawns = True
            os.kill(victim, signal.SIGKILL)
            assert master.respawn_attempted.wait(10.0)
            # worker_pids() takes the supervisor's lock, so it returns
            # only after the pass that made the attempts has finished:
            # each failed, spent the budget, and the slot was dropped.
            assert master.worker_pids() == [survivor]
            stats = master.stats()
            assert stats["crash_replacements"] == 0
            assert master._supervisor.spawn_failures == master.max_respawns
            assert fetch_once("127.0.0.1", master.port,
                              "/doc").status == 200

    def test_respawn_budget_is_spent_then_the_slot_is_dropped(self):
        with _ObservedMaster(_doc_app, workers=1,
                             max_respawns=1) as master:
            os.kill(master.worker_pids()[0], signal.SIGKILL)
            assert master.respawn_attempted.wait(10.0)
            (replacement,) = master.worker_pids()
            assert master.stats()["crash_replacements"] == 1
            os.kill(replacement, signal.SIGKILL)
            assert _wait(lambda: master.worker_pids() == [])
            stats = master.stats()
            assert stats["crash_replacements"] == 1
            assert stats["worker_count"] == 0

    def test_wedged_child_is_reaped_when_ready_never_comes(
            self, monkeypatch):
        """A child whose setup never finishes must not outlive the
        start() that gave up on it (it could later bind the port as an
        unsupervised orphan)."""
        monkeypatch.setattr(transport, "STARTUP_TIMEOUT_S", 0.3)
        reaped = []
        stop = transport.EndpointProcess.stop

        def recording_stop(endpoint):
            reaped.append(endpoint._spawned_pid)
            stop(endpoint)

        monkeypatch.setattr(transport.EndpointProcess, "stop",
                            recording_stop)
        master = PreforkServer(lambda: threading.Event().wait(),
                               workers=1)
        with pytest.raises(DomainUnavailableException,
                           match="did not appear"):
            master.start()
        assert master.worker_pids() == []
        (pid,) = {pid for pid in reaped if pid is not None}
        with pytest.raises(OSError):
            os.kill(pid, 0)  # gone, not orphaned


class TestWorkerBodyInProcess:
    """The worker's setup and its :class:`IWorker` verbs, run in THIS
    process: a tracer cannot see into a fork, and both run only in the
    child."""

    @pytest.fixture()
    def worker(self):
        reservation = make_listener("127.0.0.1", 0, reuse_port=True)
        port = reservation.getsockname()[1]
        reservation.close()
        servers = []

        def app():
            servers.append(_doc_app())
            return servers[-1]

        bindings = prefork._worker_setup(app, "127.0.0.1", port)
        assert list(bindings) == [prefork.WORKER]
        capability = bindings[prefork.WORKER]
        yield capability, servers[0]
        servers[0].stop()
        capability.creator.terminate()

    def test_ready_then_stats_count_what_was_served(self, worker):
        capability, server = worker
        first = capability.stats()
        assert first["pid"] == os.getpid()
        assert first["requests_served"] == 0
        # setup returned, so the worker already serves
        assert fetch_once("127.0.0.1", server.port,
                          "/doc").body == b"prefork-doc"
        second = capability.stats()
        assert second["requests_served"] == 1
        assert second["server"]["requests_served"] == 1
        assert "accounts" in second

    def test_drain_reports_final_counters_then_stops_serving(self, worker):
        capability, server = worker
        assert fetch_once("127.0.0.1", server.port, "/doc").status == 200
        final = capability.drain(1.0)
        assert final["requests_served"] == 1
        assert final["live_connections"] == 0
        with pytest.raises(OSError):
            fetch_once("127.0.0.1", server.port, "/doc")  # it stopped

    def test_the_control_surface_is_the_remote_interface(self, worker):
        capability, _server = worker
        assert set(exported_methods(capability)) == {"stats", "drain"}

    def test_chaos_points_fire_inside_the_verbs(self, worker,
                                                 monkeypatch):
        capability, _server = worker
        hits = []

        class Recorder:
            @staticmethod
            def crash_point(name):
                hits.append(name)

        monkeypatch.setattr(prefork, "_chaos", Recorder)
        capability.stats()
        assert hits == ["prefork.worker.message", "prefork.worker.stats"]
        hits.clear()
        capability.drain(0.1)
        assert hits == ["prefork.worker.message"]
