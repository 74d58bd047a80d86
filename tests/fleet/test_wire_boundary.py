"""What crosses the LRMI wire between the coordinator and a forked host.

The fleet's verdicts arrive in the coordinator as themselves (they are
registered with the kernel's codec beside its own errors), a servlet's
failure arrives typed, and fleet traffic stays data only: a capability
can cross hosts only as a signed token, never as a live proxy, in
either direction.
"""

import pytest

from repro.core import Capability, Domain, NotSerializableError, Remote
from repro.fleet import (
    PlacementGoneError,
    TokenInvalidError,
    TokenRevokedError,
    TokenStaleError,
)
from repro.fleet.tokens import TokenAuthority
from tests.fleet.conftest import REGISTRY, EchoImpl

pytestmark = pytest.mark.timeout(120)


class IFaulty(Remote):
    def fail(self, text): ...

    def leak(self): ...


class FaultyImpl(IFaulty):
    def fail(self, text):
        raise RuntimeError(text)

    def leak(self):
        return Capability.create(EchoImpl(), label="leaked")


def faulty_setup():
    domain = Domain("fleet-faulty")
    return domain.run(lambda: Capability.create(FaultyImpl(), label="faulty"))


@pytest.fixture()
def host(fleet):
    """A coordinator with one forked host holding an echo and a faulty
    placement; yields ``(coordinator, record)``."""
    coordinator = fleet()
    coordinator.spawn_host("h1", {**REGISTRY, "faulty": faulty_setup})
    coordinator.place("front", "echo")
    coordinator.place("bad", "faulty")
    return coordinator, coordinator._hosts["h1"]


def _invoke(record, token, method="echo", *args):
    return record.data.invoke(
        {"token": token, "method": method, "args": args})


class TestVerdictsCrossAsThemselves:
    def _raises_exactly(self, cls, call):
        with pytest.raises(cls) as caught:
            call()
        assert type(caught.value) is cls

    def test_stale_token(self, host):
        coordinator, record = host
        token = coordinator.lookup("front")
        record.control.epoch({"epoch": coordinator.epoch + 1})
        self._raises_exactly(TokenStaleError,
                             lambda: _invoke(record, token, "echo", "x"))

    def test_revoked_token(self, host):
        coordinator, record = host
        token = coordinator.lookup("front")
        tid = coordinator.tokens.verify(token)["tid"]
        record.control.revoke_tokens({"ids": [tid]})
        self._raises_exactly(TokenRevokedError,
                             lambda: _invoke(record, token, "echo", "x"))

    def test_invalid_token(self, host):
        _coordinator, record = host
        forged = TokenAuthority(b"attacker-secret-0123456789abcdef") \
            .mint("front", methods=("echo",))
        self._raises_exactly(TokenInvalidError,
                             lambda: _invoke(record, forged, "echo", "x"))

    def test_placement_gone(self, host):
        coordinator, record = host
        token = coordinator.tokens.mint("never-placed", methods=("echo",))
        self._raises_exactly(PlacementGoneError,
                             lambda: _invoke(record, token, "echo", "x"))

    def test_a_tuple_stays_a_tuple(self, host):
        coordinator, _record = host
        token = coordinator.lookup("front")
        assert coordinator.call(token, "echo", (1, "two")) == (1, "two")


class TestServletFailures:
    def test_runtime_error_arrives_typed(self, host):
        coordinator, _record = host
        with pytest.raises(RuntimeError, match="servlet broke"):
            coordinator.call(coordinator.lookup("bad"), "fail",
                             "servlet broke")


class TestDataOnly:
    def test_capability_result_is_refused_not_proxied(self, host):
        coordinator, record = host
        exports_before = record.control_client.stats()["exports"]
        with pytest.raises(NotSerializableError):
            coordinator.call(coordinator.lookup("bad"), "leak")
        assert len(record.data_client.exports) == 0
        assert len(record.control_client.exports) == 0
        # Nor did the host export it on the way out.
        assert record.control_client.stats()["exports"] == exports_before

    @pytest.mark.parametrize("shape", ["bare", "nested"])
    def test_capability_argument_fails_before_anything_is_exported(
            self, host, shape):
        coordinator, record = host
        capability = Domain("caller").run(
            lambda: Capability.create(EchoImpl(), label="mine"))
        arg = capability if shape == "bare" else {"deep": [capability]}
        with pytest.raises(NotSerializableError):
            coordinator.call(coordinator.lookup("front"), "echo", arg)
        assert len(record.data_client.exports) == 0
        assert len(record.control_client.exports) == 0
