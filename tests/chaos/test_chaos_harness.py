"""The fault-injection harness itself: knobs, scope, wire faults and
env-var installation.  The end-to-end matrix lives in
``test_chaos_matrix.py``; this file pins the harness mechanics."""

import os
import socket

import pytest

from repro.ipc import lrmi, wire
from repro.testing.chaos import (
    CRASH_STATUS,
    KNOWN_POINTS,
    ChaosConfig,
    ChaosError,
    install,
    install_from_env,
    uninstall,
)
from repro.web import prefork


class TestInstallation:
    def test_install_arms_every_target_layer(self, chaos):
        from repro.fleet import coordinator, host

        config = ChaosConfig(wire_delay_s=0.01)
        assert install(config) is config
        layers = (wire, lrmi, prefork, host, coordinator)
        assert all(layer._chaos is config for layer in layers)
        assert chaos.active() is config
        uninstall()
        assert all(layer._chaos is None for layer in layers)

    def test_env_install_reads_every_knob(self, chaos):
        config = install_from_env({
            "JK_CHAOS_CRASH_AT": "wire.send, lrmi.host.dispatch",
            "JK_CHAOS_CRASH_AFTER": "3",
            "JK_CHAOS_WIRE_DELAY_S": "0.5",
            "JK_CHAOS_PARTIAL_WRITE": "0.1",
            "JK_CHAOS_DROP_RATE": "0.2",
            "JK_CHAOS_SEED": "7",
            "JK_CHAOS_SCOPE": "child",
        })
        assert config.crash_at == {"wire.send", "lrmi.host.dispatch"}
        assert config.crash_after == 3
        assert config.wire_delay_s == 0.5
        assert config.partial_write == 0.1
        assert config.drop_rate == 0.2
        assert config.scope == "child"
        assert wire._chaos is config

    def test_env_install_with_no_knobs_is_inert(self, chaos):
        assert install_from_env({}) is None
        assert wire._chaos is None

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(scope="sideways")

    def test_known_points_cover_the_matrix(self):
        assert "prefork.worker.message" in KNOWN_POINTS
        assert "lrmi.host.dispatch" in KNOWN_POINTS
        assert "wire.send" in KNOWN_POINTS
        assert "fleet.host.invoke" in KNOWN_POINTS
        assert CRASH_STATUS == 137

    def test_env_install_reads_partition_pairs(self, chaos):
        config = install_from_env({
            "JK_CHAOS_PARTITION": "coordinator|h1,h2|h3",
            "JK_CHAOS_HEARTBEAT_LOSS": "coordinator|h2",
        })
        assert config.partitioned("coordinator", "h1")
        assert config.partitioned("h1", "coordinator")  # symmetric
        assert config.partitioned("h2", "h3")
        assert not config.partitioned("coordinator", "h2")
        assert config.heartbeat_lost("coordinator", "h2")
        assert not config.heartbeat_lost("coordinator", "h1")

    def test_partition_knob_alone_arms_the_hooks(self, chaos):
        from repro.fleet import coordinator as fleet_coordinator
        from repro.fleet import host as fleet_host

        config = install_from_env({"JK_CHAOS_PARTITION": "a|b"})
        assert config is not None
        assert fleet_coordinator._chaos is config
        assert fleet_host._chaos is config

    @pytest.mark.parametrize("knob", ["JK_CHAOS_PARTITION",
                                      "JK_CHAOS_HEARTBEAT_LOSS"])
    @pytest.mark.parametrize("value", ["coordinator-h1", "a|b,c-d",
                                       "|h1", "coordinator|", " | "])
    def test_malformed_pair_is_rejected_not_dropped(self, chaos, knob,
                                                    value):
        """The dash form once documented for these knobs used to be
        dropped in silence, arming nothing."""
        with pytest.raises(ValueError, match=knob):
            install_from_env({knob: value})
        assert wire._chaos is None


class TestPartitionModel:
    def test_partition_and_heal_are_dynamic(self, chaos):
        config = ChaosConfig()
        assert not config.partitioned("a", "b")
        config.partition("a", "b")
        assert config.partitioned("a", "b")
        assert config.injected["partition"] == 1
        config.heal("a", "b")
        assert not config.partitioned("a", "b")

    def test_heal_all_clears_every_pair(self, chaos):
        config = ChaosConfig(partitions=(("a", "b"), ("c", "d")))
        config.lose_heartbeats("a", "c")
        config.heal_all()
        assert not config.partitioned("a", "b")
        assert not config.partitioned("c", "d")
        assert not config.heartbeat_lost("a", "c")

    def test_heartbeat_loss_is_separate_from_partition(self, chaos):
        config = ChaosConfig()
        config.lose_heartbeats("a", "b")
        assert config.heartbeat_lost("a", "b")
        assert not config.partitioned("a", "b")
        config.restore_heartbeats("a", "b")
        assert not config.heartbeat_lost("a", "b")

    def test_unnamed_endpoints_are_never_partitioned(self, chaos):
        """Only the fleet coordinator's edge to a host names its two
        endpoints; any other client ignores the partition model
        entirely — partitioning is opt-in per edge."""
        from repro.bench.baselines.ntrpc import RpcClient, RpcServer
        import threading

        config = ChaosConfig(partitions=(("coordinator", "h1"),))
        install(config)
        server = RpcServer(handlers={"echo": lambda p: p})
        ready = threading.Event()
        threading.Thread(target=server.serve, args=(ready,),
                         daemon=True).start()
        assert ready.wait(5.0)
        try:
            with RpcClient(server.path) as client:
                assert client.call("echo", b"x") == b"x"
        finally:
            server.stop()


class TestScope:
    def test_parent_scope_never_fires_in_install_process(self):
        config = ChaosConfig(crash_at=("wire.send",), scope="child")
        # We ARE the install (parent) process: the crash must not fire.
        config.crash_point("wire.send")
        assert config.injected["crash"] == 0

    def test_unarmed_point_never_fires(self):
        config = ChaosConfig(crash_at=("lrmi.host.dispatch",))
        config.crash_point("prefork.worker.stats")
        assert config.injected["crash"] == 0

    def test_crash_in_child_scope_fires_in_fork(self):
        config = ChaosConfig(crash_at=("wire.send",), scope="child")
        pid = os.fork()
        if pid == 0:
            config.crash_point("wire.send")
            os._exit(0)  # reached only if the point failed to fire
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == CRASH_STATUS

    def test_crash_after_spends_a_pass_budget(self):
        config = ChaosConfig(crash_at=("wire.send",), crash_after=2,
                             scope="child")
        pid = os.fork()
        if pid == 0:
            config.crash_point("wire.send")  # pass 1
            config.crash_point("wire.send")  # pass 2
            os.write(2, b"")  # still alive here
            config.crash_point("wire.send")  # pass 3: boom
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == CRASH_STATUS


class TestWireFaults:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(2.0)
        right.settimeout(2.0)
        return left, right

    def test_delay_then_delivery(self, chaos):
        config = install(ChaosConfig(wire_delay_s=0.05))
        left, right = self._pair()
        try:
            wire.send_frame(left, b"payload")
            assert wire.recv_frame(right) == b"payload"
            assert config.injected["delay"] == 1
        finally:
            left.close()
            right.close()

    def test_drop_closes_and_raises_typed(self, chaos):
        install(ChaosConfig(drop_rate=1.0))
        left, right = self._pair()
        try:
            with pytest.raises(ChaosError):
                wire.send_frame(left, b"payload")
            with pytest.raises(wire.WireError):
                wire.recv_frame(right)  # peer sees a clean EOF error
        finally:
            right.close()

    def test_partial_write_desynchronizes_then_raises(self, chaos):
        config = install(ChaosConfig(partial_write=1.0))
        left, right = self._pair()
        try:
            with pytest.raises(ChaosError):
                wire.send_frame(left, b"x" * 64)
            # The peer got a prefix only: the stream errors, not hangs.
            with pytest.raises(wire.WireError):
                wire.recv_frame(right)
            assert config.injected["partial"] == 1
        finally:
            right.close()

    def test_seeded_rolls_are_deterministic(self):
        outcomes = []
        for _ in range(2):
            config = ChaosConfig(drop_rate=0.5, seed=42)
            left, right = self._pair()
            run = []
            for _ in range(20):
                try:
                    config.before_send(left, b"d")
                    run.append("ok")
                except ChaosError:
                    left, right = self._pair()  # dropped: re-pair
                    run.append("drop")
            outcomes.append(run)
            left.close()
            right.close()
        assert outcomes[0] == outcomes[1]
        assert "drop" in outcomes[0] and "ok" in outcomes[0]
