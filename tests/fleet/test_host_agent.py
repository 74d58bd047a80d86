"""FleetHostAgent verbs, exercised in-process.

The e2e suites drive the agent across a fork; these tests call the
verb handlers directly so the agent-side logic (placement table, token
replica, revocation set, usage counters, envelope error mapping) is
pinned — and measured — in the parent process.  What crosses the
LRMI wire between coordinator and a forked host is pinned in
``test_wire_boundary.py``.
"""

import pytest

from repro.core import Capability
from repro.fleet import (
    PlacementGoneError,
    TokenAuthority,
    TokenRevokedError,
    TokenStaleError,
)
from repro.fleet.host import FleetHostAgent
from repro.ipc import exported_methods
from tests.fleet.conftest import REGISTRY

pytestmark = pytest.mark.timeout(60)

SECRET = b"agent-test-secret-32-bytes-long!"


@pytest.fixture()
def agent():
    return FleetHostAgent("h-test", REGISTRY, SECRET)


def _mint(agent, placement="front", **kwargs):
    # Tokens authorize exactly the methods they carry (empty = none),
    # so the default grant covers the echo servlet's interface.
    kwargs.setdefault("methods", ("echo", "shout"))
    return TokenAuthority(SECRET, agent.tokens.epoch).mint(
        placement, **kwargs)


class TestPlaceEvict:
    def test_place_returns_exported_methods(self, agent):
        reply = agent.place({"placement_id": "front", "kind": "echo"})
        assert reply["host_id"] == "h-test"
        assert set(reply["methods"]) == {"echo", "shout"}
        assert "front" in agent.placements

    def test_place_unknown_kind_raises(self, agent):
        with pytest.raises(KeyError):
            agent.place({"placement_id": "x", "kind": "nope"})

    def test_evict_terminates_the_domain(self, agent):
        agent.place({"placement_id": "front", "kind": "echo"})
        capability = agent.placements["front"].capability
        assert agent.evict({"placement_id": "front"})["evicted"]
        assert "front" not in agent.placements
        assert capability.creator.terminated

    def test_second_place_terminates_the_domain_it_replaces(self, agent):
        """A retried place, or a re-place onto a host that still holds
        the id, used to overwrite the placement and leave the first
        domain alive with nobody tracking it."""
        agent.place({"placement_id": "front", "kind": "echo"})
        first = agent.placements["front"].capability
        agent.place({"placement_id": "front", "kind": "echo"})
        second = agent.placements["front"].capability
        assert second is not first
        assert first.creator.terminated
        assert not second.creator.terminated
        reply = agent.invoke({"token": _mint(agent), "method": "echo",
                              "args": ["x"]})
        assert reply["result"] == "x"

    def test_evict_missing_placement_is_not_an_error(self, agent):
        assert agent.evict({"placement_id": "ghost"}) == \
            {"evicted": False}


class TestInvoke:
    def test_invoke_dispatches_and_charges(self, agent):
        agent.place({"placement_id": "front", "kind": "echo",
                     "tenant": "acme"})
        token = _mint(agent, tenant="acme")
        reply = agent.invoke({"token": token, "method": "echo",
                              "args": ["hi"]})
        assert reply["result"] == "hi"
        usage = agent.quota_report({})["acme"]
        assert usage["requests"] == 1
        assert usage["cpu_ticks"] >= 0

    def test_invoke_untenanted_charges_nothing(self, agent):
        agent.place({"placement_id": "front", "kind": "echo"})
        agent.invoke({"token": _mint(agent), "method": "echo",
                      "args": ["x"]})
        assert agent.quota_report({}) == {}

    def test_stale_epoch_token_refused(self, agent):
        agent.place({"placement_id": "front", "kind": "echo"})
        token = _mint(agent)
        agent.epoch({"epoch": agent.tokens.epoch + 1})
        with pytest.raises(TokenStaleError):
            agent.invoke({"token": token, "method": "echo",
                          "args": ["x"]})

    def test_revoked_tid_refused(self, agent):
        agent.place({"placement_id": "front", "kind": "echo"})
        token = _mint(agent)
        claims = agent.tokens.verify(token)
        agent.revoke_tokens({"ids": [claims["tid"]]})
        with pytest.raises(TokenRevokedError):
            agent.invoke({"token": token, "method": "echo",
                          "args": ["x"]})

    def test_method_outside_claims_refused(self, agent):
        agent.place({"placement_id": "front", "kind": "echo"})
        token = _mint(agent, methods=("echo",))
        with pytest.raises(PlacementGoneError):
            agent.invoke({"token": token, "method": "shout",
                          "args": ["x"]})

    def test_empty_method_set_authorizes_nothing(self, agent):
        """Fail closed: a token with NO method claims grants no method
        at all — not every method."""
        agent.place({"placement_id": "front", "kind": "echo"})
        token = _mint(agent, methods=())
        with pytest.raises(PlacementGoneError):
            agent.invoke({"token": token, "method": "echo",
                          "args": ["x"]})

    def test_unexported_method_refused_even_when_claimed(self, agent):
        """Dispatch is bounded by the capability's remote interface:
        a token claiming a non-exported attribute (here the stub's
        ``creator`` backref) must not reach it through getattr."""
        agent.place({"placement_id": "front", "kind": "echo"})
        token = _mint(agent, methods=("creator",))
        with pytest.raises(PlacementGoneError):
            agent.invoke({"token": token, "method": "creator",
                          "args": []})

    def test_unplaced_placement_is_gone(self, agent):
        with pytest.raises(PlacementGoneError):
            agent.invoke({"token": _mint(agent, "never-placed"),
                          "method": "echo", "args": ["x"]})


class TestControlVerbs:
    def test_epoch_broadcast_updates_replica(self, agent):
        assert agent.epoch({"epoch": 4}) == {"epoch": 4}
        assert agent.tokens.epoch == 4

    def test_epoch_broadcast_never_regresses(self, agent):
        """Resends are idempotent and a delayed duplicate of an OLD
        broadcast cannot roll the replica back (which would resurrect
        stale tokens)."""
        agent.epoch({"epoch": 4})
        assert agent.epoch({"epoch": 2}) == {"epoch": 4}
        assert agent.tokens.epoch == 4

    def test_quota_report_is_cumulative_per_tenant(self, agent):
        agent.place({"placement_id": "front", "kind": "echo",
                     "tenant": "acme"})
        token = _mint(agent, tenant="acme")
        for _ in range(3):
            agent.invoke({"token": token, "method": "echo",
                          "args": ["x"]})
        assert agent.quota_report({})["acme"]["requests"] == 3

    def test_stats_shape(self, agent):
        agent.place({"placement_id": "front", "kind": "echo"})
        stats = agent.stats({})
        assert stats["host_id"] == "h-test"
        assert stats["placements"] == ["front"]
        assert stats["epoch"] == 0

    def test_remote_interface_covers_every_verb(self, agent):
        assert set(exported_methods(Capability.create(agent))) == {
            "place", "evict", "invoke", "revoke_tokens", "epoch",
            "quota_report", "stats",
        }
