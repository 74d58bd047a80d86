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

from repro.ipc.wire import send_frame
from repro.web import prefork
from repro.web import (
    JKernelWebServer,
    NativeHttpServer,
    PreforkError,
    PreforkServer,
    Servlet,
    ServletResponse,
    WorkerHandle,
    fetch_once,
    run_mixed_load,
)

STRESS_CLIENTS = int(os.environ.get("JK_STRESS_CLIENTS", "4"))
STRESS_ROUNDS = int(os.environ.get("JK_STRESS_ROUNDS", "15"))

HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")

MODES = [False] + ([True] if HAS_REUSEPORT else [])


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


@pytest.mark.parametrize("reuse_port", MODES)
class TestPreforkServing:
    def test_serves_documents_across_workers(self, reuse_port):
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
            for _ in range(20):
                response = fetch_once("127.0.0.1", master.port, "/doc")
                assert response.status == 200
                assert response.body == b"prefork-doc"
            stats = master.stats()
            assert stats["worker_count"] == 2
            assert stats["requests_served"] == 20
            assert len(set(master.worker_pids())) == 2

    def test_jkernel_app_runs_per_worker_domains(self, reuse_port):
        with PreforkServer(_jk_app, workers=2,
                           reuse_port=reuse_port) as master:
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

    def test_stats_reconcile_with_client_counts(self, reuse_port):
        """Sharded per-process counters reconcile across the fleet: the
        master's merged total equals what the clients observed."""
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
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


@pytest.mark.parametrize("reuse_port", MODES)
class TestRollingRestart:
    def test_rolling_restart_replaces_every_worker(self, reuse_port):
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
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

    def test_rolling_restart_under_load_drops_nothing(self, reuse_port):
        """Hot-swap the whole fleet while clients hammer it: every
        request is answered (drain covers in-flight ones; the
        replacement is READY before its predecessor retires)."""
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
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
    def test_without_so_reuseport_workers_share_the_inherited_listener(
            self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with PreforkServer(_doc_app, workers=2) as master:
            assert master.reuse_port is False
            assert master.stats()["reuse_port"] is False
            for _ in range(4):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").body == b"prefork-doc"

    def test_reuse_port_demanded_where_refused_fails_before_any_fork(
            self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        master = PreforkServer(_doc_app, workers=2, reuse_port=True)
        with pytest.raises(OSError, match="SO_REUSEPORT"):
            master.start()
        assert master.worker_pids() == []
        master.stop()  # never started: a no-op, not an error


class _ObservedMaster(PreforkServer):
    """Signals each respawn attempt the monitor makes, and can be told
    to make them fail — crash replacement without guessing at timing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.respawn_attempted = threading.Event()
        self.fail_respawns = False

    def _spawn(self):
        if len(self._handles) < self.workers:
            return super()._spawn()  # the initial fleet
        try:
            if self.fail_respawns:
                raise PreforkError("respawn refused")
            return super()._spawn()
        finally:
            self.respawn_attempted.set()


class TestRespawnLimits:
    def test_failed_respawn_drops_the_slot_and_keeps_the_rest(self):
        with _ObservedMaster(_doc_app, workers=2) as master:
            victim, survivor = master.worker_pids()
            master.fail_respawns = True
            os.kill(victim, signal.SIGKILL)
            assert master.respawn_attempted.wait(10.0)
            # worker_pids() takes the monitor's lock, so it returns only
            # after the pass that made the attempt has finished.
            assert master.worker_pids() == [survivor]
            assert master.stats()["crash_replacements"] == 0
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
        """A child that never reports READY must not outlive the start()
        that gave up on it (in reuse-port mode it could later bind the
        port as an unsupervised orphan)."""
        master = PreforkServer(lambda: threading.Event().wait(),
                               workers=1, ready_timeout=0.3)
        reaped = []
        kill = master._kill
        monkeypatch.setattr(
            master, "_kill",
            lambda handle: (reaped.append(handle.pid), kill(handle)))
        with pytest.raises(PreforkError, match="timeout"):
            master.start()
        assert master.worker_pids() == []
        (pid,) = reaped
        with pytest.raises(OSError):
            os.kill(pid, 0)  # gone, not orphaned


class TestControlPipeFraming:
    """The master's half of the control pipe against a peer that
    misbehaves — no worker process involved."""

    @pytest.fixture()
    def pipe(self):
        master_side, worker_side = socket.socketpair()
        yield WorkerHandle(os.getpid(), master_side, 1), worker_side
        master_side.close()
        worker_side.close()

    def test_reply_to_an_earlier_request_is_discarded(self, pipe):
        """A STATS reply that missed its deadline must not be read as
        the answer to the DRAIN that follows it."""
        handle, worker_side = pipe
        prefork._send_msg(worker_side, {"type": "STATS", "seq": 0})
        prefork._send_msg(worker_side, {"type": "DRAINED", "seq": 1})
        reply = handle.request({"type": "DRAIN"}, timeout=5.0)
        assert reply["type"] == "DRAINED"
        assert handle.control.gettimeout() is None  # restored for reuse

    def test_frame_that_is_not_json_is_a_control_failure(self, pipe):
        handle, worker_side = pipe
        send_frame(worker_side, b"\xff not json")
        with pytest.raises(PreforkError, match="control channel failed"):
            handle.request({"type": "STATS"}, timeout=5.0)

    def test_peer_that_hung_up_is_a_control_failure(self, pipe):
        handle, worker_side = pipe
        worker_side.close()
        with pytest.raises(PreforkError, match="control channel failed"):
            handle.request({"type": "DRAIN"}, timeout=5.0)

    def test_silent_peer_times_out(self, pipe):
        handle, _worker_side = pipe
        with pytest.raises(PreforkError, match="timeout"):
            handle.request({"type": "STATS"}, timeout=0.05)

    def test_only_stale_replies_still_time_out(self, pipe):
        handle, worker_side = pipe
        prefork._send_msg(worker_side, {"type": "STATS", "seq": 99})
        with pytest.raises(PreforkError, match="timeout"):
            handle.request({"type": "STATS"}, timeout=0.05)


class TestWorkerBodyInProcess:
    """``_worker_main`` — the forked child's body — served by a thread of
    THIS process over a socketpair: a tracer cannot see into a fork, and
    the STATS / DRAIN / STOP / orphan paths live entirely in the child."""

    @pytest.fixture()
    def worker(self, monkeypatch):
        # signal.signal only works on the main thread; the child ignores
        # SIGINT there, which is not what this harness is about.
        monkeypatch.setattr(prefork.signal, "signal", lambda *args: None)
        servers = []

        def app():
            servers.append(_doc_app())
            return servers[-1]

        master_side, worker_side = socket.socketpair()
        master = PreforkServer(app, workers=1, reuse_port=HAS_REUSEPORT)
        if not HAS_REUSEPORT:
            master._listener = prefork.make_listener("127.0.0.1", 0)
        thread = threading.Thread(target=master._worker_main,
                                  args=(worker_side,), daemon=True)
        thread.start()
        ready = prefork._recv_msg(master_side, timeout=10.0)
        master_side.settimeout(None)
        handle = WorkerHandle(ready["pid"], master_side, 1)
        yield handle, thread, servers[0], ready
        master_side.close()  # EOF: an orphaned worker stops itself
        thread.join(10.0)
        worker_side.close()
        assert not thread.is_alive()

    def test_ready_then_stats_count_what_was_served(self, worker):
        handle, _thread, server, ready = worker
        assert ready["type"] == "READY" and ready["pid"] == os.getpid()
        first = handle.request({"type": "STATS"}, timeout=5.0)
        assert first["type"] == "STATS"
        assert first["requests_served"] == 0
        assert fetch_once("127.0.0.1", server.port,
                          "/doc").body == b"prefork-doc"
        second = handle.request({"type": "PING"}, timeout=5.0)
        assert second["requests_served"] == 1
        assert second["server"]["requests_served"] == 1
        assert "accounts" in second

    def test_unknown_message_is_ignored_not_fatal(self, worker):
        handle, thread, _server, _ready = worker
        prefork._send_msg(handle.control, {"type": "BOGUS"})
        assert handle.request({"type": "STATS"},
                              timeout=5.0)["type"] == "STATS"
        assert thread.is_alive()

    @pytest.mark.parametrize("verb, answer", [("DRAIN", "DRAINED"),
                                              ("STOP", "STOPPED")])
    def test_retirement_reports_final_counters_then_returns(
            self, worker, verb, answer):
        handle, thread, server, _ready = worker
        assert fetch_once("127.0.0.1", server.port, "/doc").status == 200
        final = handle.request({"type": verb, "timeout": 1.0},
                               timeout=10.0)
        assert final["type"] == answer
        assert final["requests_served"] == 1
        thread.join(10.0)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            fetch_once("127.0.0.1", server.port, "/doc")  # it stopped

    def test_master_hangup_stops_the_orphan(self, worker):
        handle, thread, server, _ready = worker
        handle.control.close()
        thread.join(10.0)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            fetch_once("127.0.0.1", server.port, "/doc")
