"""Coordinator basics: knob validation, placement, routing, revocation."""

import time

import pytest

from repro.fleet import (
    FleetCoordinator,
    FleetUnavailableError,
    NoLiveHostError,
    PlacementGoneError,
    TokenRevokedError,
    validate_liveness_knobs,
)
from repro.fleet.coordinator import wait_until

pytestmark = pytest.mark.timeout(120)


class TestLivenessKnobValidation:
    """Satellite: ping_deadline and heartbeat_interval can silently
    conflict — a deadline longer than the interval means an in-flight
    ping scores the next beat as missed, spuriously evicting a slow
    host.  The conflict is rejected at construction."""

    def test_ping_deadline_longer_than_interval_rejected(self):
        with pytest.raises(ValueError) as err:
            validate_liveness_knobs(ping_deadline=0.5,
                                    heartbeat_interval=0.1, max_missed=3)
        assert "spuriously evict" in str(err.value)

    def test_equal_deadline_and_interval_allowed(self):
        validate_liveness_knobs(ping_deadline=0.1,
                                heartbeat_interval=0.1, max_missed=3)

    @pytest.mark.parametrize("kwargs", [
        {"ping_deadline": 0, "heartbeat_interval": 1, "max_missed": 3},
        {"ping_deadline": 1, "heartbeat_interval": 0, "max_missed": 3},
        {"ping_deadline": 0.1, "heartbeat_interval": 1, "max_missed": 0},
    ])
    def test_degenerate_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            validate_liveness_knobs(**kwargs)

    def test_coordinator_constructor_validates(self):
        with pytest.raises(ValueError):
            FleetCoordinator(heartbeat_interval=0.1, ping_deadline=0.5)

    def test_ping_deadline_defaults_to_interval(self):
        coordinator = FleetCoordinator(heartbeat_interval=0.2)
        assert coordinator.ping_deadline == 0.2

    def test_blackout_hint_covers_detection_window(self):
        coordinator = FleetCoordinator(heartbeat_interval=0.1,
                                       max_missed=3)
        assert coordinator.blackout_hint >= 0.3


class TestPlacement:
    def test_place_and_call_round_trip(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        assert coordinator.call(token, "echo", "hello") == "hello"
        assert coordinator.call(token, "shout", "hello") == "HELLO"

    def test_placement_spreads_by_load(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        for index in range(4):
            coordinator.place(f"svc-{index}", "echo")
        by_host = {}
        for _, host_id in coordinator.placements().items():
            by_host[host_id] = by_host.get(host_id, 0) + 1
        assert by_host == {"h1": 2, "h2": 2}

    def test_no_live_host_is_typed(self, fleet):
        coordinator = fleet()
        with pytest.raises(NoLiveHostError):
            coordinator.place("front", "echo")

    def test_duplicate_placement_name_rejected(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.place("front", "echo")
        with pytest.raises(ValueError):
            coordinator.place("front", "echo")

    def test_lookup_unknown_placement_is_gone(self, fleet):
        coordinator = fleet()
        with pytest.raises(PlacementGoneError):
            coordinator.lookup("never-placed")

    def test_unknown_kind_surfaces_remotely(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        # The host's KeyError crosses the LRMI wire as itself.
        with pytest.raises(KeyError, match="no-such-kind"):
            coordinator.place("front", "no-such-kind")

    def test_failed_place_rolls_back_the_name_reservation(self, fleet):
        """place() reserves the name under the lock (so a racing
        duplicate fails the existence check, not the insert) and must
        release the reservation on ANY failure — remote or local."""
        coordinator = fleet()
        with pytest.raises(NoLiveHostError):
            coordinator.place("front", "echo")
        assert "front" not in coordinator.placements()
        coordinator.spawn_host("h1")
        with pytest.raises(KeyError):
            coordinator.place("front", "no-such-kind")
        assert "front" not in coordinator.placements()
        token = coordinator.place("front", "echo")
        assert coordinator.call(token, "echo", "x") == "x"

    def test_duplicate_host_id_rejected(self, fleet):
        coordinator = fleet()
        host = coordinator.spawn_host("h1")
        with pytest.raises(ValueError):
            coordinator.register_host(host)


class TestCallPath:
    def test_method_outside_token_claims_refused(self, fleet):
        """The token carries the method set it was minted for — the
        host refuses anything else, like a narrowed capability."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        from repro.fleet.tokens import TokenAuthority

        narrowed = TokenAuthority(
            coordinator.tokens.secret,
            coordinator.tokens.epoch).mint(
                "front", methods=("echo",))
        assert coordinator.call(narrowed, "echo", "x") == "x"
        with pytest.raises(PlacementGoneError):
            coordinator.call(narrowed, "shout", "x")

    def test_forged_token_refused_at_front_door(self, fleet):
        from repro.fleet import TokenInvalidError
        from repro.fleet.tokens import TokenAuthority

        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.place("front", "echo")
        forged = TokenAuthority(b"attacker-secret-0123456789abcdef") \
            .mint("front")
        with pytest.raises(TokenInvalidError):
            coordinator.call(forged, "echo", "x")

    def test_heartbeats_flow(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        assert wait_until(lambda: coordinator.heartbeats_sent >= 3)


class TestRevocation:
    def test_revoked_token_fails_locally_at_once(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        assert coordinator.call(token, "echo", "x") == "x"
        coordinator.revoke(token)
        with pytest.raises(TokenRevokedError):
            coordinator.call(token, "echo", "y")

    def test_revocation_reaches_hosts_by_broadcast(self, fleet):
        """Defence in depth: after the sweeper's broadcast the HOST
        refuses the token id too, even if the coordinator's own check
        were bypassed."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        coordinator.revoke(token)
        record = coordinator._hosts["h1"]

        def host_knows():
            return record.control.stats({})["revoked"] >= 1

        assert wait_until(host_knows)
        # And the pending set drains once delivered.
        assert wait_until(
            lambda: not coordinator._pending_revocations)

    def test_late_registered_host_hears_prior_revocations(self, fleet):
        """A host that joins AFTER a revocation was flushed still gets
        the full revoked-id set at registration — no hole in the
        host-side defence-in-depth layer."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        coordinator.revoke(token)
        assert wait_until(lambda: not coordinator._pending_revocations)
        coordinator.spawn_host("h2")
        record = coordinator._hosts["h2"]
        assert record.control.stats({})["revoked"] >= 1

    def test_revocations_pend_with_zero_live_hosts(self, fleet):
        """With nobody to tell, the sweeper must NOT mark the set
        delivered; the first host to register receives it."""
        coordinator = fleet()
        token = coordinator.tokens.mint("front", methods=("echo",))
        coordinator.revoke(token)
        time.sleep(0.35)  # several beats fire with zero live hosts
        assert coordinator._pending_revocations
        coordinator.spawn_host("h1")
        record = coordinator._hosts["h1"]
        assert record.control.stats({})["revoked"] >= 1

    def test_lookup_after_revoke_mints_a_usable_token(self, fleet):
        """Revocation kills the TOKEN, not the placement."""
        coordinator = fleet()
        coordinator.spawn_host("h1")
        token = coordinator.place("front", "echo")
        coordinator.revoke(token)
        fresh = coordinator.lookup("front")
        assert coordinator.call(fresh, "echo", "z") == "z"


class TestLifecycle:
    def test_stop_reaps_spawned_hosts(self, fleet):
        coordinator = fleet()
        h1 = coordinator.spawn_host("h1")
        h2 = coordinator.spawn_host("h2")
        coordinator.stop()
        assert not h1.alive() and not h2.alive()

    def test_stats_shape(self, fleet):
        coordinator = fleet()
        coordinator.spawn_host("h1")
        coordinator.place("front", "echo", tenant="acme")
        stats = coordinator.stats()
        assert stats["epoch"] == 0
        assert stats["hosts"]["h1"]["state"] == "live"
        assert stats["placements"] == {"front": "h1"}
        assert stats["failovers"] == 0
        assert "quota" in stats

    def test_context_manager(self):
        from tests.fleet.conftest import REGISTRY

        with FleetCoordinator(REGISTRY, heartbeat_interval=0.1) as fleet:
            fleet.spawn_host("h1")
            token = fleet.place("front", "echo")
            assert fleet.call(token, "echo", "x") == "x"
