"""Host failure: eviction, re-placement, epoch re-key, typed blackout.

The acceptance scenario: kill a host mid-service; the coordinator
evicts it within ``max_missed`` beats, re-places its domains on a
survivor, and a well-behaved client (rebind + retry) bridges the
blackout having seen only typed errors — never a hang, never a raw
``OSError``.
"""

import threading
import time

import pytest

from repro.fleet import (
    FleetUnavailableError,
    NoLiveHostError,
    TokenStaleError,
)
from repro.fleet.coordinator import wait_until
from tests.fleet.conftest import retry_call

pytestmark = pytest.mark.timeout(120)


def _kill_placement_host(coordinator, hosts, name):
    victim_id = coordinator.placements()[name]
    hosts[victim_id].kill()
    return victim_id


class TestEviction:
    def test_killed_host_evicted_within_missed_beat_window(self, fleet):
        coordinator = fleet(heartbeat_interval=0.1, max_missed=3)
        host = coordinator.spawn_host("h1")
        start = time.monotonic()
        host.kill()
        assert wait_until(
            lambda: coordinator.hosts()["h1"] == "dead", timeout=15)
        elapsed = time.monotonic() - start
        # 3 missed beats at 0.1s each, plus scheduling slack: an order
        # of magnitude under the 30s a TCP-ish timeout would take.
        assert elapsed < 5.0
        evictions = coordinator.stats()["evictions"]
        assert evictions and evictions[0]["host_id"] == "h1"
        assert evictions[0]["reason"] == "missed heartbeats"

    def test_eviction_bumps_epoch_exactly_once(self, fleet):
        coordinator = fleet()
        host = coordinator.spawn_host("h1")
        assert coordinator.epoch == 0
        host.kill()
        assert wait_until(
            lambda: coordinator.hosts()["h1"] == "dead", timeout=15)
        time.sleep(0.5)  # further beats must not re-evict
        assert coordinator.epoch == 1
        assert len(coordinator.stats()["evictions"]) == 1

    def test_no_reader_sees_the_host_dead_under_the_old_epoch(
            self, fleet, monkeypatch):
        """Eviction used to mark the host dead, let go of the lock, and
        re-key only after folding its quota: in that gap ``hosts()``
        read ``dead`` while ``lookup()`` still minted tokens of the
        epoch about to go stale.  Folding is held open here, so the gap,
        if any, stays open while the test looks."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        host = coordinator.spawn_host("h2")
        coordinator.place("front", "echo")
        folding = threading.Event()
        release = threading.Event()
        fold_host = coordinator.federation.fold_host

        def held_fold(host_id):
            folding.set()
            release.wait(10)
            return fold_host(host_id)

        monkeypatch.setattr(coordinator.federation, "fold_host", held_fold)
        try:
            host.kill()
            assert wait_until(
                lambda: coordinator.hosts()["h2"] == "dead", timeout=15)
            assert coordinator.epoch == 1
            assert coordinator.evictions[0]["epoch"] == 1
            assert folding.wait(5)
            assert coordinator.epoch == 1  # folding, not yet re-keying
        finally:
            release.set()


class TestFailover:
    def test_kill_evict_replace_retry_bridges(self, fleet):
        coordinator = fleet()
        hosts = {"h1": coordinator.spawn_host("h1"),
                 "h2": coordinator.spawn_host("h2")}
        token = coordinator.place("front", "echo", tenant="acme")
        assert coordinator.call(token, "echo", "before") == "before"

        victim_id = _kill_placement_host(coordinator, hosts, "front")
        result, seen = retry_call(coordinator, "front", "echo", "after")
        assert result == "after"
        # Only typed, retryable errors during the blackout.
        assert seen <= {"FleetUnavailableError", "TokenStaleError"}

        survivor_id = coordinator.placements()["front"]
        assert survivor_id not in (None, victim_id)
        assert coordinator.stats()["failovers"] == 1

    def test_stale_token_fails_closed_after_failover(self, fleet):
        coordinator = fleet()
        hosts = {"h1": coordinator.spawn_host("h1"),
                 "h2": coordinator.spawn_host("h2")}
        token = coordinator.place("front", "echo")
        _kill_placement_host(coordinator, hosts, "front")
        assert wait_until(
            lambda: coordinator.epoch == 1, timeout=15)
        with pytest.raises(TokenStaleError):
            coordinator.call(token, "echo", "stale")

    def test_survivor_host_rejects_stale_token_after_broadcast(
            self, fleet):
        """Defence in depth: the SURVIVOR's token replica heard the new
        epoch and refuses pre-failover tokens itself."""
        coordinator = fleet()
        hosts = {"h1": coordinator.spawn_host("h1"),
                 "h2": coordinator.spawn_host("h2")}
        token = coordinator.place("front", "echo")
        victim_id = _kill_placement_host(coordinator, hosts, "front")
        assert wait_until(
            lambda: coordinator.placements()["front"] not in
            (None, victim_id), timeout=15)
        survivor = coordinator._hosts[coordinator.placements()["front"]]

        def survivor_epoch():
            return survivor.control.stats({})["epoch"]

        assert wait_until(lambda: survivor_epoch() == 1, timeout=15)
        with pytest.raises(TokenStaleError):
            survivor.data.invoke(
                {"token": token, "method": "echo", "args": ["x"]})

    def test_heartbeat_resyncs_a_host_that_missed_the_broadcast(
            self, fleet):
        """A LIVE host that never heard an epoch bump (the eviction-time
        fanout RPC failed) must not stay wedged rejecting every
        current-epoch token: the heartbeat loop re-sends the epoch until
        the host acknowledges, so lookup()/rebind works again."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        # Simulate the lost broadcast: re-key the fleet without telling
        # anybody — exactly the state after a failed fanout call.
        coordinator.tokens.bump_epoch()
        assert wait_until(
            lambda: coordinator._hosts["h1"].epoch == coordinator.epoch,
            timeout=15)
        record = coordinator._hosts["h1"]
        assert record.control.stats({})["epoch"] == coordinator.epoch
        # The pre-bump token is stale fail-closed; the rebind path
        # mints a token the re-synced host accepts.
        with pytest.raises(TokenStaleError):
            coordinator.call(token, "echo", "stale")
        fresh = coordinator.lookup("front")
        assert coordinator.call(fresh, "echo", "again") == "again"

    def test_blackout_callers_get_unavailable_with_retry_after(
            self, fleet):
        """Callers racing the failover window see the typed 503-shaped
        error carrying the coordinator's blackout estimate."""
        coordinator = fleet()
        hosts = {"h1": coordinator.spawn_host("h1"),
                 "h2": coordinator.spawn_host("h2")}
        coordinator.place("front", "echo")
        _kill_placement_host(coordinator, hosts, "front")
        saw_unavailable = None
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                coordinator.call(coordinator.lookup("front"), "echo", "x")
                break
            except FleetUnavailableError as exc:
                saw_unavailable = exc
                time.sleep(0.02)
            except TokenStaleError:
                time.sleep(0.02)
        assert saw_unavailable is not None
        assert saw_unavailable.retry_after > 0

    def test_multiple_placements_all_fail_over(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        for index in range(4):
            coordinator.place(f"svc-{index}", "echo")
        victims = {host_id for host_id
                   in coordinator.placements().values()}
        assert victims == {"h1", "h2"}

        coordinator._hosts["h1"].process.kill()
        assert wait_until(
            lambda: all(host == "h2" for host
                        in coordinator.placements().values()),
            timeout=15)
        for index in range(4):
            result, _ = retry_call(coordinator, f"svc-{index}",
                                   "echo", str(index))
            assert result == str(index)

    def test_last_host_death_leaves_typed_unavailability(self, fleet):
        coordinator = fleet()
        host = coordinator.spawn_host("h1")
        coordinator.place("front", "echo")
        host.kill()
        assert wait_until(
            lambda: coordinator.hosts()["h1"] == "dead", timeout=15)
        with pytest.raises(FleetUnavailableError):
            coordinator.call(coordinator.lookup("front"), "echo", "x")
        with pytest.raises(NoLiveHostError):
            coordinator.place("another", "echo")

    def test_fresh_host_after_total_loss_restores_service(self, fleet):
        """Capacity returning after a total-loss window re-places the
        orphaned placements automatically: registering the fresh host is
        all it takes — no operator re-place by hand."""
        coordinator = fleet()
        host = coordinator.spawn_host("h1")
        coordinator.place("front", "echo")
        host.kill()
        assert wait_until(
            lambda: coordinator.placements()["front"] is None,
            timeout=15)
        coordinator.spawn_host("h2")
        assert coordinator.placements()["front"] == "h2"
        result, _ = retry_call(coordinator, "front", "echo", "back")
        assert result == "back"
