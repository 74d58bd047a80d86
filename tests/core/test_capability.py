"""Capabilities: stub generation, invocation, revocation, failure
propagation."""

import gc
import weakref

import pytest

from repro.core import (
    Capability,
    Domain,
    Remote,
    RemoteException,
    RemoteInterfaceError,
    RevokedException,
    remote_interfaces,
    remote_methods,
)


class ReadFile(Remote):
    def read_byte(self): ...
    def read_bytes(self, n): ...


class WriteFile(Remote):
    def write_bytes(self, data): ...


class ReadWriteImpl(ReadFile, WriteFile):
    def __init__(self):
        self.written = []

    def read_byte(self):
        return 7

    def read_bytes(self, n):
        return bytes(n)

    def write_bytes(self, data):
        self.written.append(data)
        return len(data)

    def not_remote(self):
        return "internal"


@pytest.fixture()
def domain():
    return Domain("cap-test")


@pytest.fixture()
def cap(domain):
    return domain.run(lambda: Capability.create(ReadWriteImpl()))


class TestRemoteInterfaces:
    def test_interfaces_discovered(self):
        assert set(remote_interfaces(ReadWriteImpl)) == {ReadFile, WriteFile}

    def test_methods_union(self):
        assert set(remote_methods(ReadWriteImpl)) == {
            "read_byte", "read_bytes", "write_bytes",
        }

    def test_no_interface_rejected(self):
        class Naked:
            def f(self):
                return 1

        with pytest.raises(RemoteInterfaceError):
            Capability.create(Naked())

    def test_empty_interface_rejected(self):
        class Empty(Remote):
            pass

        class Impl(Empty):
            pass

        with pytest.raises(RemoteInterfaceError):
            Capability.create(Impl())

    def test_missing_implementation_rejected(self):
        class Iface(Remote):
            def f(self): ...

        class Impl(Iface):
            f = None  # deliberately breaks the contract

        with pytest.raises(RemoteInterfaceError):
            remote_methods(Impl)

    @pytest.mark.parametrize(
        "member", ["create", "creator", "guard", "label", "revoke", "revoked"]
    )
    def test_capability_member_name_rejected(self, member):
        """A remote method named like a Capability member would shadow
        it on the stub (a remote ``revoke`` would stop revocation)."""
        iface = type("Iface", (Remote,), {member: lambda self: None})
        impl = type("Impl", (iface,), {member: lambda self: 1})
        with pytest.raises(RemoteInterfaceError, match=member):
            Capability.create(impl())


class TestStubs:
    def test_stub_implements_interfaces(self, cap):
        assert isinstance(cap, ReadFile)
        assert isinstance(cap, WriteFile)
        assert isinstance(cap, Capability)

    def test_stub_is_not_the_target(self, cap):
        assert not isinstance(cap, ReadWriteImpl)

    def test_only_interface_methods_exposed(self, cap):
        assert not hasattr(cap, "not_remote")

    def test_stub_class_cached(self, domain):
        first = domain.run(lambda: Capability.create(ReadWriteImpl()))
        second = domain.run(lambda: Capability.create(ReadWriteImpl()))
        assert type(first) is type(second)
        assert first is not second

    def test_stub_source_recorded(self, cap):
        assert "_lrmi" in type(cap).__stub_source__

    def test_calls_work(self, cap):
        assert cap.read_byte() == 7
        assert cap.read_bytes(3) == b"\x00\x00\x00"
        assert cap.write_bytes(b"xy") == 2


class TestRevocation:
    def test_revoked_call_throws(self, cap):
        cap.revoke()
        with pytest.raises(RevokedException):
            cap.read_byte()

    def test_revocation_is_immediate_and_total(self, cap):
        assert cap.read_byte() == 7
        cap.revoke()
        for method in ("read_byte",):
            with pytest.raises(RevokedException):
                getattr(cap, method)()

    def test_revoked_property(self, cap):
        assert not cap.revoked
        cap.revoke()
        assert cap.revoked

    def test_revocation_releases_target_memory(self, domain):
        target = ReadWriteImpl()
        cap = domain.run(lambda: Capability.create(target))
        ref = weakref.ref(target)
        del target
        gc.collect()
        assert ref() is not None  # the stub still pins the target
        cap.revoke()
        gc.collect()
        assert ref() is None  # paper: target becomes collectible

    def test_domain_tracks_live_capabilities(self, domain):
        caps = [domain.run(lambda: Capability.create(ReadWriteImpl()))
                for _ in range(3)]
        assert len(domain.capabilities()) == 3
        caps[0].revoke()
        assert len(domain.capabilities()) == 2

    def test_separate_capabilities_revoke_independently(self, domain):
        target = ReadWriteImpl()
        first = domain.run(lambda: Capability.create(target))
        second = domain.run(lambda: Capability.create(target))
        first.revoke()
        with pytest.raises(RevokedException):
            first.read_byte()
        assert second.read_byte() == 7


class TestFailurePropagation:
    def test_callee_exception_copied_to_caller(self, domain):
        class Boom(Remote):
            def go(self): ...

        class BoomImpl(Boom):
            def go(self):
                raise ValueError("from callee")

        cap = domain.run(lambda: Capability.create(BoomImpl()))
        with pytest.raises(ValueError, match="from callee") as info:
            cap.go()
        # the exception is a copy, not the callee's object
        assert info.value.args == ("from callee",)

    def test_uncopyable_result_raises_remote_exception(self, domain):
        class Leak(Remote):
            def get(self): ...

        class Opaque:
            pass

        class LeakImpl(Leak):
            def get(self):
                return Opaque()

        cap = domain.run(lambda: Capability.create(LeakImpl()))
        with pytest.raises(RemoteException):
            cap.get()

    def test_uncopyable_argument_raises_remote_exception(self, cap):
        class Opaque:
            pass

        with pytest.raises(RemoteException):
            cap.write_bytes(Opaque())

    def test_creator_and_label(self, domain, cap):
        assert cap.creator is domain
        assert "ReadWriteImpl" in cap.label
        assert "cap-test" in repr(cap)

    def test_create_in_terminated_domain_rejected(self, domain):
        from repro.core import DomainError

        domain.terminate()
        with pytest.raises((DomainError, RemoteException)):
            domain.run(lambda: Capability.create(ReadWriteImpl()))


class TestCallingThroughCapabilityChains:
    def test_capability_passed_through_call_stays_reference(self, domain):
        class Registry(Remote):
            def register(self, cap): ...

        class RegistryImpl(Registry):
            def __init__(self):
                self.seen = None

            def register(self, cap):
                self.seen = cap
                return True

        class Target(Remote):
            def hit(self): ...

        class TargetImpl(Target):
            def hit(self):
                return "direct"

        registry_impl = RegistryImpl()
        registry = domain.run(lambda: Capability.create(registry_impl))
        target_cap = domain.run(lambda: Capability.create(TargetImpl()))
        registry.register(target_cap)
        assert registry_impl.seen is target_cap
        assert registry_impl.seen.hit() == "direct"

    def test_nested_lrmi(self, domain):
        """Domain A calls B, whose implementation calls C."""
        class Leaf(Remote):
            def leaf(self): ...

        class LeafImpl(Leaf):
            def leaf(self):
                return Domain.current().name

        class Mid(Remote):
            def via(self, leaf_cap): ...

        class MidImpl(Mid):
            def via(self, leaf_cap):
                return f"{Domain.current().name}->{leaf_cap.leaf()}"

        domain_b = Domain("B")
        domain_c = Domain("C")
        leaf = domain_c.run(lambda: Capability.create(LeafImpl()))
        mid = domain_b.run(lambda: Capability.create(MidImpl()))
        assert mid.via(leaf) == "B->C"
