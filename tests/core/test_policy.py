"""Stack-based access control: permissions, the effective-permission
walk, do_privileged scoping, guarded capabilities, wire contexts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessControlContext,
    AccessDeniedError,
    Capability,
    Domain,
    Permission,
    PermissionSet,
    Remote,
    check_permission,
    current_context,
    do_privileged,
    dumps,
    loads,
)
from repro.core.policy import (
    coerce_policy,
    exported_wire_context,
    imported_context,
    restricted,
)


class Store(Remote):
    def read(self): ...
    def write(self): ...


class StoreImpl(Store):
    def read(self):
        return "data"

    def write(self):
        check_permission("kv.write")
        return "wrote"


class Relay(Remote):
    def relay(self): ...
    def privileged_relay(self): ...


class RelayImpl(Relay):
    def __init__(self, target):
        self._target = target

    def relay(self):
        return self._target.write()

    def privileged_relay(self):
        return do_privileged(self._target.write)


class Chain(Remote):
    """Forwards ``relay`` one hop further down a Relay chain."""

    def relay(self): ...


class ChainImpl(Chain):
    def __init__(self, next_relay):
        self._next = next_relay

    def relay(self):
        return self._next.relay()


@pytest.fixture
def cleanup_domains():
    domains = []
    yield domains
    for domain in domains:
        domain.terminate()


def make_domain(cleanup, name, policy=None):
    domain = Domain(name)
    if policy is not None:
        domain.set_policy(policy)
    cleanup.append(domain)
    return domain


class TestPermission:
    def test_exact_match(self):
        assert Permission("kv.read", "motd").implies(
            Permission("kv.read", "motd")
        )

    def test_kind_mismatch(self):
        assert not Permission("kv.read").implies(Permission("kv.write"))

    def test_default_target_is_wildcard(self):
        assert Permission("kv.read").implies(
            Permission("kv.read", "anything")
        )

    def test_trailing_glob(self):
        broad = Permission("file.read", "/tmp/*")
        assert broad.implies(Permission("file.read", "/tmp/x/y"))
        assert not broad.implies(Permission("file.read", "/etc/passwd"))

    def test_parse_string(self):
        p = Permission.parse("kv.read:motd")
        assert p.kind == "kv.read" and p.target == "motd"

    def test_parse_bare_kind(self):
        assert Permission.parse("kv.read").target == "*"

    def test_parse_passthrough(self):
        p = Permission("a")
        assert Permission.parse(p) is p

    def test_colon_in_kind_rejected(self):
        with pytest.raises(ValueError):
            Permission("a:b", "c")

    def test_eq_hash_str(self):
        a, b = Permission("x", "y"), Permission("x", "y")
        assert a == b and hash(a) == hash(b) and str(a) == "x:y"


class TestPermissionSet:
    def test_implies_any_member(self):
        ps = PermissionSet(["kv.read", "kv.write:motd"])
        assert ps.implies(Permission.parse("kv.write:motd"))
        assert not ps.implies(Permission.parse("kv.write:other"))

    def test_union(self):
        ps = PermissionSet(["a"]).union(PermissionSet(["b"]))
        assert ps.implies(Permission.parse("a"))
        assert ps.implies(Permission.parse("b"))

    def test_wire_roundtrip(self):
        ps = PermissionSet(["kv.read:motd", "net.connect"])
        assert PermissionSet.from_wire(ps.wire()) == ps

    def test_coerce_policy(self):
        assert coerce_policy(None) is None
        ps = PermissionSet(["a"])
        assert coerce_policy(ps) is ps
        assert coerce_policy("a:b").implies(Permission("a", "b"))
        assert coerce_policy([Permission("c")]).implies(Permission("c"))


class TestEffectiveWalk:
    def test_unrestricted_host_code_passes(self):
        check_permission("anything.at.all")

    def test_restricted_domain_denies(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store")
        tenant = make_domain(cleanup_domains, "tenant", ["kv.read"])
        impl = StoreImpl()
        cap = store.run(lambda: Capability.create(impl))
        holder = tenant.run(lambda: Capability.create(RelayImpl(cap)))
        with pytest.raises(AccessDeniedError) as info:
            holder.relay()
        assert info.value.permission == "kv.write:*"
        assert info.value.domain == "tenant"

    def test_granted_domain_passes(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store2")
        tenant = make_domain(cleanup_domains, "tenant2", ["kv.write"])
        cap = store.run(lambda: Capability.create(StoreImpl()))
        holder = tenant.run(lambda: Capability.create(RelayImpl(cap)))
        assert holder.relay() == "wrote"

    def test_every_domain_on_chain_must_imply(self, cleanup_domains):
        # broad -> narrow -> check: the narrow domain poisons the chain.
        store = make_domain(cleanup_domains, "store3")
        narrow = make_domain(cleanup_domains, "narrow", ["kv.read"])
        broad = make_domain(cleanup_domains, "broad",
                            ["kv.read", "kv.write"])
        cap = store.run(lambda: Capability.create(StoreImpl()))
        inner = narrow.run(lambda: Capability.create(RelayImpl(cap)))
        outer = broad.run(lambda: Capability.create(ChainImpl(inner)))
        with pytest.raises(AccessDeniedError) as info:
            outer.relay()
        assert info.value.domain == "narrow"

    def test_confused_deputy_denied(self, cleanup_domains):
        # restricted caller -> broad deputy -> guarded op: denied,
        # because the caller's domain stays on the chain.
        store = make_domain(cleanup_domains, "store4")
        deputy = make_domain(cleanup_domains, "deputy4",
                             ["kv.read", "kv.write"])
        tenant = make_domain(cleanup_domains, "tenant4", ["kv.read"])
        cap = store.run(lambda: Capability.create(StoreImpl()))
        deputy_cap = deputy.run(lambda: Capability.create(RelayImpl(cap)))
        attacker = tenant.run(
            lambda: Capability.create(ChainImpl(deputy_cap))
        )
        with pytest.raises(AccessDeniedError) as info:
            attacker.relay()
        assert info.value.domain == "tenant4"


class TestDoPrivileged:
    def test_truncates_walk_at_asserting_domain(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store5")
        deputy = make_domain(cleanup_domains, "deputy5",
                             ["kv.read", "kv.write"])
        tenant = make_domain(cleanup_domains, "tenant5", ["kv.read"])
        cap = store.run(lambda: Capability.create(StoreImpl()))
        deputy_cap = deputy.run(lambda: Capability.create(RelayImpl(cap)))

        # deputy vouches (privileged_relay): tenant's restriction is cut.
        class Indirect(Remote):
            def go(self): ...

        class IndirectImpl(Indirect):
            def go(self):
                return deputy_cap.privileged_relay()

        caller = tenant.run(lambda: Capability.create(IndirectImpl()))
        assert caller.go() == "wrote"

    def test_own_domain_stays_in_walk(self, cleanup_domains):
        # A restricted domain cannot self-elevate with do_privileged.
        store = make_domain(cleanup_domains, "store6")
        tenant = make_domain(cleanup_domains, "tenant6", ["kv.read"])
        cap = store.run(lambda: Capability.create(StoreImpl()))
        abuser = tenant.run(lambda: Capability.create(RelayImpl(cap)))
        with pytest.raises(AccessDeniedError):
            abuser.privileged_relay()

    def test_scope_pops_on_exception(self, cleanup_domains):
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            do_privileged(boom)
        # the priv frame must not linger
        assert exported_wire_context() is None

    def test_passes_args(self):
        assert do_privileged(lambda a, b=1: a + b, 2, b=3) == 5


class TestGuardedCapabilities:
    def test_guard_checked_before_entry(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store7")
        tenant = make_domain(cleanup_domains, "tenant7", ["other"])
        cap = store.run(
            lambda: Capability.create(StoreImpl(), guard="kv.enter")
        )

        class Caller(Remote):
            def go(self): ...

        class CallerImpl(Caller):
            def go(self):
                return cap.read()

        caller = tenant.run(lambda: Capability.create(CallerImpl()))
        with pytest.raises(AccessDeniedError) as info:
            caller.go()
        assert info.value.permission == "kv.enter:*"

    def test_unguarded_unchanged(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store8")
        cap = store.run(lambda: Capability.create(StoreImpl()))
        assert cap.guard is None
        assert cap.read() == "data"

    def test_guard_property(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store9")
        cap = store.run(
            lambda: Capability.create(StoreImpl(), guard="kv.enter:x")
        )
        assert str(cap.guard) == "kv.enter:x"

    def test_unrestricted_caller_passes_guard(self, cleanup_domains):
        store = make_domain(cleanup_domains, "store10")
        cap = store.run(
            lambda: Capability.create(StoreImpl(), guard="kv.enter")
        )
        assert cap.read() == "data"


class TestWireContext:
    def test_unrestricted_exports_none(self):
        assert exported_wire_context() is None
        assert not restricted()

    def test_restricted_exports_sets(self, cleanup_domains):
        tenant = make_domain(cleanup_domains, "tenant11", ["kv.read"])
        seen = {}

        class Probe(Remote):
            def go(self): ...

        class ProbeImpl(Probe):
            def go(self):
                seen["ctx"] = exported_wire_context()
                seen["restricted"] = restricted()

        probe = tenant.run(lambda: Capability.create(ProbeImpl()))
        probe.go()
        assert seen["restricted"]
        assert seen["ctx"] == (("tenant11", (("kv.read", "*"),)),)
        sets = [PermissionSet.from_wire(w) for _, w in seen["ctx"]]
        assert any(s.implies(Permission.parse("kv.read")) for s in sets)

    def test_access_control_context_capture_check(self, cleanup_domains):
        tenant = make_domain(cleanup_domains, "tenant12", ["kv.read"])
        captured = {}

        class Probe(Remote):
            def go(self): ...

        class ProbeImpl(Probe):
            def go(self):
                captured["ctx"] = current_context()

        probe = tenant.run(lambda: Capability.create(ProbeImpl()))
        probe.go()
        ctx = captured["ctx"]
        assert isinstance(ctx, AccessControlContext)
        assert ctx == (("tenant12", PermissionSet(["kv.read"])),)
        ctx.check(Permission.parse("kv.read"))
        with pytest.raises(AccessDeniedError) as info:
            ctx.check(Permission.parse("kv.write"))
        assert info.value.domain == "tenant12"
        assert info.value.permission == "kv.write:*"

    def test_compressed_roundtrip(self, cleanup_domains):
        tenant = make_domain(cleanup_domains, "tenant13", ["kv.read"])
        captured = {}

        class Probe(Remote):
            def go(self): ...

        class ProbeImpl(Probe):
            def go(self):
                captured["wire"] = current_context().compressed()

        probe = tenant.run(lambda: Capability.create(ProbeImpl()))
        probe.go()
        rebuilt = AccessControlContext.from_compressed(captured["wire"])
        with pytest.raises(AccessDeniedError) as info:
            rebuilt.check(Permission.parse("kv.write"))
        assert info.value.domain == "tenant13"
        assert AccessControlContext.from_compressed(()) == ()

    @pytest.mark.parametrize("wire", [
        None, ("kv.read",), ((("kv.read", "*"),),),
        (("", (("kv.read", "*"),)),), ((7, (("kv.read", "*"),)),),
        (("t", ("kv.read:*",)),), (("t", (("kv:read", "*"),)),),
        (("t", (("kv.read", 7),)),), (("t", (("kv.read", "*"),), "x"),),
    ])
    def test_malformed_wire_is_refused(self, wire):
        with pytest.raises(ValueError):
            AccessControlContext.from_compressed(wire)


# -- the one check, against a reference model ---------------------------------

UNIVERSE = ("u.a", "u.b", "u.c")
policies = st.one_of(st.none(), st.sets(st.sampled_from(UNIVERSE)))


class Hop(Remote):
    def go(self): ...


class HopImpl(Hop):
    """One frame of a generated chain: call the next hop or, at the end
    of the chain, run ``probe`` — under ``do_privileged`` when this frame
    asserts it."""

    def __init__(self, next_hop, privileged, probe):
        self._next, self._privileged, self._probe = next_hop, privileged, probe

    def go(self):
        step = self._probe if self._next is None else self._next.go
        if self._privileged:
            return do_privileged(step)
        return step()


def _decision(check, permission):
    """``None`` for allowed, else the name of the denying domain."""
    try:
        check(permission)
    except AccessDeniedError as exc:
        assert exc.permission == permission
        return exc.domain
    return None


def _reference(chain, privileged_at, imported, permission):
    """Intersection over the chain above the cut, most recent first: a
    ``do_privileged`` asserted by hop ``k`` keeps hop ``k`` itself and
    drops every frame below it, imported callers included."""
    walk = chain if privileged_at is None else chain[privileged_at:]
    entries = [*reversed(walk),
               *(imported if privileged_at is None else ())]
    for name, policy in entries:
        if policy is not None and permission not in policy:
            return name
    return None


class TestOneCheck:
    @settings(deadline=None)
    @given(
        chain=st.lists(policies, min_size=1, max_size=6),
        privileged=st.data(),
        imported=st.lists(st.sets(st.sampled_from(UNIVERSE)), max_size=2),
        permission=st.sampled_from(UNIVERSE),
    )
    def test_walk_capture_and_wire_agree_with_the_model(
        self, chain, privileged, imported, permission
    ):
        chain = [(f"hop{i}", policy) for i, policy in enumerate(chain)]
        imported = [(f"remote{i}", policy)
                    for i, policy in enumerate(imported)]
        privileged_at = privileged.draw(st.one_of(
            st.none(), st.integers(0, len(chain) - 1)))
        target = f"{permission}:*"
        seen = {}

        def probe():
            context = current_context()
            rebuilt = AccessControlContext.from_compressed(
                context.compressed())
            seen["walk"] = _decision(check_permission, target)
            seen["captured"] = _decision(context.check, target)
            seen["rebuilt"] = _decision(rebuilt.check, target)

        domains = []
        try:
            hop = None
            for index in reversed(range(len(chain))):
                name, policy = chain[index]
                domain = Domain(name)
                domains.append(domain)
                if policy is not None:
                    domain.set_policy(policy)
                hop = domain.run(lambda: Capability.create(HopImpl(
                    hop, index == privileged_at, probe)))
            with imported_context(AccessControlContext(
                    (name, PermissionSet(policy))
                    for name, policy in imported)):
                hop.go()
        finally:
            for domain in domains:
                domain.terminate()
        expected = _reference(chain, privileged_at, imported, permission)
        assert seen == {"walk": expected, "captured": expected,
                        "rebuilt": expected}
        assert not restricted()  # every scope popped


class TestErrorSerialization:
    def test_typed_fields_cross_the_wire(self):
        err = AccessDeniedError("denied here", permission="kv.write:*",
                                domain="tenant-a")
        back = loads(dumps(err))
        assert isinstance(back, AccessDeniedError)
        assert back.permission == "kv.write:*"
        assert back.domain == "tenant-a"
        assert str(back) == "denied here"
