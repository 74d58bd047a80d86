"""Conformance of the transport core (``repro.ipc.transport``).

The client channel's failure handling and the supervised endpoint's
lifecycle exist once; this suite pins them once, through every user:
each client case runs against ``RpcClient`` <-> ``RpcServer`` and
``DomainClient`` <-> ``DomainHostProcess``, each lifecycle case against
the three endpoint classes.  What differs per protocol (a pending
broadcast is not death, ``__ping__``, idempotent sets, fd-granting calls)
stays in ``test_ntrpc.py`` / ``test_client_hardening.py``.
"""

import os
import pathlib
import re
import socket
import tempfile
import threading
import time

import pytest

from repro.core import Capability, Domain, DomainUnavailableException, Remote
from repro.fleet import FleetHostProcess
from repro.ipc import DomainHostProcess, RpcClient, RpcServer, connect
from repro.ipc import transport
from repro.ipc.ntrpc import RpcServerProcess, RpcTransportError

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


# -- the two client/server pairs ---------------------------------------------

class _NtrpcWorld:
    """RpcClient <-> RpcServer, served from a thread of this process."""

    error = RpcTransportError

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "conformance.sock")
        self.naps = []
        self.start()

    def start(self):
        def nap(payload):
            self.naps.append(1)
            time.sleep(float(payload))
            return b"rested"

        self.server = RpcServer(self.path, {"echo": lambda p: p, "nap": nap})
        ready = threading.Event()
        threading.Thread(target=self.server.serve, args=(ready,),
                         daemon=True).start()
        assert ready.wait(5.0)

    def crash(self):
        self.server.stop()  # every accepted connection reads EOF

    stop = crash

    def client(self, retryable=False, **knobs):
        return RpcClient(self.path, **knobs)  # every ntrpc call may retry

    def echo(self, client, text):
        return client.call("echo", text.encode()).decode()

    def nap(self, client, seconds):
        return client.call("nap", str(seconds).encode())

    def nap_count(self):
        return len(self.naps)


class IConformance(Remote):
    def echo(self, text): ...
    def nap(self, seconds): ...
    def nap_count(self): ...


class _ConformanceImpl(IConformance):
    naps = 0

    def echo(self, text):
        return text

    def nap(self, seconds):
        type(self).naps += 1
        time.sleep(seconds)
        return "rested"

    def nap_count(self):
        return self.naps


def _lrmi_setup():
    domain = Domain("conformance-server")
    return {"servlet": domain.run(
        lambda: Capability.create(_ConformanceImpl(), label="servlet"))}


class _LrmiWorld:
    """DomainClient <-> DomainHostProcess (a forked host)."""

    error = DomainUnavailableException

    def __init__(self, tmp_path):
        self.host = DomainHostProcess(_lrmi_setup, name="conformance")
        self.start()

    def start(self):
        self.host.start()
        # Export ids are assigned at lookup and a fresh kernel hands out
        # the same first id: re-exporting here keeps proxies looked up
        # before a crash valid against the replacement host.
        with connect(self.host) as other:
            self._proxy_id = other.lookup("servlet")._export_id

    def crash(self):
        self.host.kill()

    def stop(self):
        self.host.stop()

    def client(self, retryable=False, **knobs):
        if retryable:
            knobs["idempotent"] = ("echo", "nap")
        return connect(self.host, **knobs)

    def _proxy(self, client):
        return client.proxy_for(self._proxy_id, "servlet",
                                ("echo", "nap", "nap_count"))

    def echo(self, client, text):
        return self._proxy(client).echo(text)

    def nap(self, client, seconds):
        return self._proxy(client).nap(seconds)

    def nap_count(self):
        with connect(self.host) as other:
            return other.lookup("servlet").nap_count()


@pytest.fixture(params=[_NtrpcWorld, _LrmiWorld], ids=["ntrpc", "lrmi"])
def world(request, tmp_path):
    instance = request.param(tmp_path)
    yield instance
    instance.stop()


def _blind_the_probe(monkeypatch):
    """Checkout hands back a dead pooled socket as if it were healthy —
    exactly the losing side of the probe-then-die race."""
    monkeypatch.setattr(transport, "PROBE_FRESH_S", 0.0)
    monkeypatch.setattr(transport.select, "poll", _BlindPoll)


class _BlindPoll:
    """A ``select.poll`` that never reports an event."""

    def register(self, fd, events):
        pass

    def poll(self, timeout=None):
        return []


class TestChannel:
    def test_dead_pooled_socket_is_evicted_at_checkout(self, world):
        client = world.client()
        assert world.echo(client, "one") == "one"
        assert len(client._free) == 1
        world.crash()
        time.sleep(0.05)  # let the kernel deliver the EOF
        world.start()
        # The corpse is dropped by the probe, not burned mid-call.
        assert world.echo(client, "two") == "two"
        assert client.evicted == 1
        assert client.fresh_dial_replays == 0
        assert client.dials == 2
        client.close()

    def test_reused_socket_failure_replayed_on_a_fresh_dial(
            self, world, monkeypatch):
        """Independent of the retry budget (``retries=0``), and for a
        call nobody declared idempotent."""
        client = world.client()
        assert client.retries == 0
        assert world.echo(client, "warm") == "warm"
        world.crash()
        world.start()
        _blind_the_probe(monkeypatch)
        assert world.echo(client, "back") == "back"
        # The save came from the replay, not from eviction.
        assert client.evicted == 0
        assert client.fresh_dial_replays == 1
        client.close()

    def test_failed_fresh_dial_surfaces_immediately(self, world,
                                                    monkeypatch):
        client = world.client()
        assert world.echo(client, "warm") == "warm"
        world.crash()
        _blind_the_probe(monkeypatch)
        with pytest.raises(world.error):
            world.echo(client, "nobody home")
        assert client.fresh_dial_replays == 0
        client.close()

    @pytest.mark.parametrize("knob", ["timeout", "call_deadline"],
                             ids=["timeout", "deadline"])
    def test_timed_out_reused_call_is_never_resent(self, world, knob):
        """Neither replayed on a fresh dial nor retried with back-off,
        whichever clock ran out: the time is spent, and the call may
        have executed — sending it again could execute it twice."""
        client = world.client(retryable=True, retries=5, backoff=0.01,
                              **{knob: 0.3})
        assert world.echo(client, "warm") == "warm"  # pools the socket
        start = time.monotonic()
        with pytest.raises(world.error) as failure:
            world.nap(client, 1.0)
        assert failure.value.timed_out
        assert time.monotonic() - start < 0.9
        time.sleep(1.0)  # a second delivery would have started by now
        assert world.nap_count() == 1
        assert client.fresh_dial_replays == 0
        assert client.backoff_retries == 0
        client.close()

    def test_backoff_bridges_a_restart(self, world):
        client = world.client(retryable=True, retries=20, backoff=0.05)
        assert world.echo(client, "pre") == "pre"
        world.crash()
        respawn = threading.Timer(0.2, world.start)
        respawn.start()
        try:
            assert world.echo(client, "post") == "post"
        finally:
            respawn.join()
        assert client.backoff_retries >= 1
        client.close()

    def test_backoff_stops_at_the_deadline(self, world):
        client = world.client(retryable=True, retries=50, backoff=0.2,
                              call_deadline=0.5)
        world.crash()
        start = time.monotonic()
        with pytest.raises(world.error):
            world.echo(client, "nobody home")
        assert 0.4 < time.monotonic() - start < 3.0
        assert 1 <= client.backoff_retries < 50
        client.close()

    def test_without_retries_a_dead_server_fails_at_once(self, world):
        client = world.client(retryable=True)
        assert world.echo(client, "up") == "up"
        world.crash()
        with pytest.raises(world.error):
            world.echo(client, "down")
        assert client.backoff_retries == 0
        client.close()

    def test_closed_client_refuses_checkout(self, world):
        client = world.client()
        assert world.echo(client, "open") == "open"
        client.close()
        assert client._free == []
        with pytest.raises(world.error):
            world.echo(client, "closed")
        assert client.dials == 1  # refused before any dial

    def test_invalid_call_deadline_rejected_at_construction(self, world):
        with pytest.raises(ValueError):
            world.client(call_deadline=0)


# -- the three supervised endpoints -------------------------------------------

ENDPOINTS = {
    "ntrpc": lambda: RpcServerProcess({"echo": lambda p: p}),
    "lrmi": lambda: DomainHostProcess(_lrmi_setup, name="conformance"),
    "fleet": lambda: FleetHostProcess("conformance", {}, secret=b"s3cret"),
}


@pytest.fixture(params=sorted(ENDPOINTS))
def endpoint(request):
    instance = ENDPOINTS[request.param]()
    yield instance
    instance.stop()


def _connectable(path):
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def _gone(pid):
    """True when ``pid`` is neither running nor a zombie of ours."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestEndpoint:
    def test_socket_name_lives_in_the_temp_dir(self, endpoint):
        directory, name = os.path.split(endpoint.path)
        assert directory == tempfile.gettempdir()
        assert re.fullmatch(r"repro-(rpc|lrmi|fleet-conformance)"
                            r"-[0-9a-f]{12}\.sock", name)

    def test_kill_leaves_path_restart_recovers_stop_unlinks(self, endpoint):
        assert endpoint.pid is None and not endpoint.alive()
        endpoint.start()
        first = endpoint.pid
        assert endpoint.alive() and _connectable(endpoint.path)
        endpoint.kill()  # a crash: the stale path stays behind
        assert not endpoint.alive() and endpoint.pid is None
        assert _gone(first)
        assert os.path.exists(endpoint.path)
        assert not _connectable(endpoint.path)
        endpoint.start()  # restart-in-place, same path
        assert endpoint.alive() and endpoint.pid != first
        assert _connectable(endpoint.path)
        second = endpoint.pid
        endpoint.stop()
        assert _gone(second)
        assert not os.path.exists(endpoint.path)
        assert endpoint.pid is None and not endpoint.alive()
        endpoint.stop()  # idempotent

    def test_context_manager_starts_and_stops(self, endpoint):
        with endpoint as started:
            assert started is endpoint and endpoint.alive()
        assert not os.path.exists(endpoint.path)

    def test_stop_unlinks_the_path_it_bound(self, endpoint, tmp_path):
        """``path`` reassigned while the child runs used to make stop()
        unlink the new name and orphan the socket file really bound."""
        with endpoint:
            bound = endpoint.path
            endpoint.path = str(tmp_path / "elsewhere.sock")
        assert not os.path.exists(bound)

    def test_failed_start_leaves_no_child(self, endpoint, monkeypatch,
                                          tmp_path):
        """A child too slow to bind used to outlive the start() that
        gave up on it — with nobody left holding its pid."""
        pidfile = tmp_path / "child.pid"

        def never_binds():
            pidfile.write_text(str(os.getpid()))
            time.sleep(30)

        monkeypatch.setattr(endpoint, "_serve", never_binds)
        monkeypatch.setattr(transport, "STARTUP_TIMEOUT_S", 0.3)
        with pytest.raises(endpoint.start_error, match="did not appear"):
            endpoint.start()
        assert _gone(int(pidfile.read_text()))
        assert endpoint.pid is None
        assert not os.path.exists(endpoint.path)

    def test_child_failure_is_printed_and_exits_nonzero(
            self, endpoint, monkeypatch, capfd):
        def explodes():
            raise RuntimeError("handler table exploded")

        monkeypatch.setattr(endpoint, "_serve", explodes)
        pid = os.fork()
        if pid == 0:
            endpoint._child(os.getppid())  # never returns
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 1
        assert "handler table exploded" in capfd.readouterr().err
        with pytest.raises(endpoint.start_error,
                           match="died during startup"):
            endpoint.start()
        assert "handler table exploded" in capfd.readouterr().err

    def test_orphaned_child_exits_on_its_own(self, endpoint, monkeypatch):
        """The watchdog compares against the parent pid captured at
        fork, so a child whose parent is gone stops serving."""
        monkeypatch.setattr(endpoint, "_serve", lambda: time.sleep(30))
        pid = os.fork()
        if pid == 0:
            endpoint._child(-1)  # "my parent is somebody else"
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("orphaned child kept running")
        assert os.WEXITSTATUS(status) == 0


def test_probe_takes_a_descriptor_above_fd_setsize(above_fd_setsize):
    """A pooled socket numbered past ``select``'s ceiling is probed like
    any other: kept while idle, evicted on EOF — not silently redialed
    on every checkout."""
    left, right = socket.socketpair()
    high = socket.socket(fileno=above_fd_setsize(left.fileno()))
    try:
        channel = transport.Channel("unused.sock", timeout=1.0, pool_size=1)
        connection = transport.Connection(high)
        assert channel._healthy(connection)
        right.close()
        assert not channel._healthy(connection)
    finally:
        high.detach()  # the fixture closes the descriptor
        left.close()
        right.close()


def test_rpc_server_process_bind_failure_not_swallowed(capfd):
    """The child used to exit 0 in silence when its bind failed."""
    server = RpcServerProcess({"echo": lambda p: p})
    server.path = "/nonexistent-directory/rpc.sock"
    with pytest.raises(RpcTransportError, match="died during startup"):
        server.start()
    assert "cannot bind" in capfd.readouterr().err


def test_stopped_server_leaves_its_successors_path_alone(tmp_path):
    """stop() wakes the accept thread, which exits later, on its own
    schedule — by then a successor may own the path."""
    path = str(tmp_path / "handover.sock")
    first = RpcServer(path, {})
    ready = threading.Event()
    accepting = threading.Thread(target=first.serve, args=(ready,),
                                 daemon=True)
    accepting.start()
    assert ready.wait(5.0)
    first.stop()
    second = RpcServer(path, {}).bind()
    try:
        accepting.join(5.0)
        assert not accepting.is_alive()  # accept() woke; nothing leaks
        assert os.path.exists(path)
    finally:
        second.stop()


# -- the mechanisms exist once ------------------------------------------------

def _files_containing(needle):
    return sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if needle in path.read_text(encoding="utf-8"))


class TestTheMechanismsExistOnce:
    def test_only_the_core_and_prefork_fork(self):
        assert _files_containing("os.fork(") == [
            "ipc/transport.py", "web/prefork.py"]

    def test_only_the_core_probes_with_select(self):
        # web/streaming.py waits for *writability* of a client socket.
        # Both probe with poll: select.select refuses descriptors above
        # FD_SETSIZE, which a busy reactor hands out.
        assert _files_containing("select.poll(") == [
            "ipc/transport.py", "web/streaming.py"]
        assert _files_containing("select.select(") == []

    def test_users_keep_no_copy_of_their_own(self):
        for name in ("ipc/ntrpc.py", "ipc/lrmi.py", "fleet/host.py"):
            text = (SRC / name).read_text(encoding="utf-8")
            for mechanism in ("_wait_for_socket", "waitpid", "time.sleep(min",
                              "MSG_PEEK", "os.kill("):
                assert mechanism not in text, (name, mechanism)
