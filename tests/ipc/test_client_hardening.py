"""DomainClient robustness, the LRMI-specific half: what the checkout
probe may NOT evict (a socket with a revocation broadcast queued), which
calls the retry budget applies to (idempotent control verbs and declared
methods, nothing else), and per-call deadlines.

What LRMI shares with ntrpc — eviction of EOF'd pooled sockets, the
fresh-dial replay, back-off across a restart, the closed client — is
pinned for both in ``test_transport.py``.
"""

import os
import signal
import time

import pytest

from repro.core import (
    Capability,
    Domain,
    DomainUnavailableException,
    Remote,
    RevokedException,
)
from repro.ipc import DomainHostProcess, connect
from repro.ipc.lrmi import IDEMPOTENT_CONTROL, DomainClient


class IEcho(Remote):
    def echo(self, text): ...
    def nap(self, seconds): ...


class EchoImpl(IEcho):
    def echo(self, text):
        return text

    def nap(self, seconds):
        time.sleep(seconds)
        return "rested"


def _echo_setup():
    domain = Domain("hardening-server")
    cap = domain.run(lambda: Capability.create(EchoImpl(), label="echo"))
    return {"echo": cap, "victim": domain.run(
        lambda: Capability.create(EchoImpl(), label="victim"))}


@pytest.fixture()
def host():
    host = DomainHostProcess(_echo_setup, name="hardening").start()
    yield host
    host.stop()


class TestCheckoutHealthCheck:
    def test_dead_pooled_connections_are_evicted(self, host):
        client = connect(host)
        proxy = client.lookup("echo")
        assert proxy.echo("hi") == "hi"
        assert len(client._free) >= 1
        # Kill the host: every pooled connection is now half-dead.
        os.kill(host.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while host.alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)  # let the kernel deliver the EOFs
        with pytest.raises(DomainUnavailableException):
            proxy.echo("again")
        # The stale socket was dropped at checkout, not burned mid-call.
        assert client.evicted >= 1
        client.close()

    def test_pending_broadcast_does_not_evict(self, host):
        """A readable pooled socket holding a revocation broadcast is
        HEALTHY — eviction must key on EOF, not on readability."""
        client = connect(host)
        victim = client.lookup("victim")
        echo = client.lookup("echo")
        assert echo.echo("warm") == "warm"
        evicted_before = client.evicted
        # Revoke server-side: the broadcast lands on the idle pooled
        # connection while nobody is reading it.
        client.control("revoke", victim._export_id)
        time.sleep(0.1)
        assert echo.echo("after") == "after"
        assert client.evicted == evicted_before
        with pytest.raises(RevokedException):
            victim.echo("dead")
        client.close()


class TestCallDeadlines:
    def test_deadline_bounds_a_slow_call(self, host):
        client = connect(host, call_deadline=0.3, timeout=30.0)
        proxy = client.lookup("echo")
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            proxy.nap(5.0)
        assert time.monotonic() - start < 2.0
        client.close()

    def test_fast_calls_unaffected_by_deadline(self, host):
        client = connect(host, call_deadline=5.0)
        proxy = client.lookup("echo")
        for _ in range(10):
            assert proxy.echo("quick") == "quick"
        assert client.stats()["pid"] == host.pid
        client.close()


class TestIdempotentRetry:
    def test_control_verbs_are_declared_idempotent(self):
        assert {"lookup", "stats", "ping"} <= IDEMPOTENT_CONTROL
        assert "terminate" not in IDEMPOTENT_CONTROL
        assert "revoke" not in IDEMPOTENT_CONTROL

    def test_lookup_retries_through_a_host_restart(self, host):
        client = connect(host, retries=20, backoff=0.05)
        assert client.lookup("echo").echo("pre") == "pre"
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)

        # Restart the host concurrently with the retrying lookup: the
        # client's backoff loop must bridge the outage window.
        import threading

        def respawn():
            time.sleep(0.2)
            host.start()

        spawner = threading.Thread(target=respawn)
        spawner.start()
        try:
            proxy = client.lookup("echo")
            assert proxy.echo("post") == "post"
        finally:
            spawner.join()
            client.close()

    def test_non_idempotent_methods_do_not_retry(self, host):
        client = connect(host, retries=5, backoff=0.01)
        proxy = client.lookup("echo")
        assert proxy.echo("up") == "up"
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            proxy.echo("down")  # echo not declared idempotent: one shot
        assert time.monotonic() - start < 1.0
        client.close()

    def test_declared_idempotent_methods_retry(self, host):
        client = DomainClient(host.path, retries=3, backoff=0.01,
                              idempotent=("echo",))
        proxy = client.lookup("echo")
        assert proxy.echo("fine") == "fine"  # retry path, healthy host
        client.close()

    def test_retries_stop_at_the_deadline(self, host):
        client = connect(host, retries=50, backoff=0.2, call_deadline=0.5)
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            client.stats()
        assert time.monotonic() - start < 3.0
        client.close()
