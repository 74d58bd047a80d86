"""The marketplace deny matrix, end to end.

Three attacks — a direct guarded call, ``do_privileged`` self-elevation,
and the confused deputy — each exercised in all three deployment shapes
a marketplace servlet can take: in-process (hosted Python behind LRMI
stubs), VM-hosted (verified MiniJVM bytecode behind the enforced VM
kernel), and out-of-process (a forked domain host behind the marshalled
wire, where the caller's restricted context crosses in the call frame).
Plus the web-facing surface: least-privilege install from generated
policy, and typed denials surfacing as HTTP 403.
"""

import pytest

from repro.core import (
    AccessDeniedError,
    Capability,
    Domain,
    Remote,
    check_permission,
    do_privileged,
)
from repro.ipc import DomainHostProcess, connect
from repro.web import JKernelWebServer, Servlet, ServletResponse
from repro.web.client import fetch_once


# -- shared in-process cast ----------------------------------------------------

class Vault(Remote):
    def write(self): ...


class VaultImpl(Vault):
    def write(self):
        check_permission("kv.write")
        return "written"


class Deputy(Remote):
    def relay(self): ...
    def vouch(self): ...


class DeputyImpl(Deputy):
    def __init__(self, vault):
        self._vault = vault

    def relay(self):
        return self._vault.write()

    def vouch(self):
        return do_privileged(self._vault.write)


class Attacker(Remote):
    def direct(self): ...
    def privileged(self): ...
    def via_deputy(self): ...
    def sanctioned(self): ...


class AttackerImpl(Attacker):
    def __init__(self, vault, deputy):
        self._vault = vault
        self._deputy = deputy

    def direct(self):
        return self._vault.write()

    def privileged(self):
        return do_privileged(self._vault.write)

    def via_deputy(self):
        return self._deputy.relay()

    def sanctioned(self):
        return self._deputy.vouch()


@pytest.fixture
def domains():
    created = []
    yield created
    for domain in created:
        domain.terminate()


def make_domain(created, name, policy=None):
    domain = Domain(name)
    if policy is not None:
        domain.set_policy(policy)
    created.append(domain)
    return domain


class TestInProcessMatrix:
    @pytest.fixture
    def attacker(self, domains):
        store = make_domain(domains, "mk-store")
        deputy = make_domain(domains, "mk-deputy",
                             ["kv.read", "kv.write"])
        tenant = make_domain(domains, "mk-tenant", ["kv.read"])
        vault = store.run(lambda: Capability.create(VaultImpl()))
        deputy_cap = deputy.run(
            lambda: Capability.create(DeputyImpl(vault))
        )
        return tenant.run(
            lambda: Capability.create(AttackerImpl(vault, deputy_cap))
        )

    def test_direct_denied(self, attacker):
        with pytest.raises(AccessDeniedError) as info:
            attacker.direct()
        assert info.value.permission == "kv.write:*"
        assert info.value.domain == "mk-tenant"

    def test_do_privileged_abuse_denied(self, attacker):
        with pytest.raises(AccessDeniedError) as info:
            attacker.privileged()
        assert info.value.domain == "mk-tenant"

    def test_confused_deputy_denied(self, attacker):
        with pytest.raises(AccessDeniedError) as info:
            attacker.via_deputy()
        assert info.value.domain == "mk-tenant"

    def test_deputy_vouch_allowed(self, attacker):
        # The sanctioned path: the deputy do_privilege's its own callee,
        # cutting the tenant out of the walk.
        assert attacker.sanctioned() == "written"


# -- VM-hosted matrix ----------------------------------------------------------

LEDGER = "mk/Ledger"
DEPUTY = "mk/Deputy"
KERNEL_SIG = "(Ljava/lang/String;)V"


def _build_vm_market():
    from repro.jkvm import JKernelVM
    from repro.jvm import ClassAssembler, interface
    from repro.jvm.classfile import CONSTRUCTOR_NAME
    from repro.jvm.instructions import (
        ALOAD,
        ICONST,
        INVOKEINTERFACE,
        INVOKESPECIAL,
        INVOKESTATIC,
        IRETURN,
        LDC_STR,
        RETURN,
    )

    def ctor(assembler):
        with assembler.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object",
                   CONSTRUCTOR_NAME, "()V")
            m.emit(RETURN)

    ledger_iface = interface(LEDGER, [("record", "()I")],
                             extends=("jk/Remote",))
    ledger_impl = ClassAssembler("mk/LedgerImpl",
                                 interfaces=(LEDGER, "jk/Remote"))
    ctor(ledger_impl)
    with ledger_impl.method("record", "()I") as m:
        m.emit(LDC_STR, "ledger.append")
        m.emit(INVOKESTATIC, "jk/Kernel", "checkPermission", KERNEL_SIG)
        m.emit(ICONST, 1)
        m.emit(IRETURN)

    deputy_iface = interface(
        DEPUTY,
        [("go", f"(L{LEDGER};)I"), ("vouch", f"(L{LEDGER};)I")],
        extends=("jk/Remote",),
    )
    deputy_impl = ClassAssembler("mk/DeputyImpl",
                                 interfaces=(DEPUTY, "jk/Remote"))
    ctor(deputy_impl)
    with deputy_impl.method("go", f"(L{LEDGER};)I") as m:
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, LEDGER, "record", "()I")
        m.emit(IRETURN)
    with deputy_impl.method("vouch", f"(L{LEDGER};)I") as m:
        m.emit(INVOKESTATIC, "jk/Kernel", "beginPrivileged", "()V")
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, LEDGER, "record", "()I")
        m.emit(INVOKESTATIC, "jk/Kernel", "endPrivileged", "()V")
        m.emit(IRETURN)

    vendor = ClassAssembler("mk/Vendor")
    with vendor.method("direct", f"(L{LEDGER};)I", 0x0009) as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, LEDGER, "record", "()I")
        m.emit(IRETURN)
    with vendor.method("abuse", f"(L{LEDGER};)I", 0x0009) as m:
        # beginPrivileged from the vendor's own root frame: the mark is
        # at depth 0, so the vendor's domain stays in the walk.
        m.emit(INVOKESTATIC, "jk/Kernel", "beginPrivileged", "()V")
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, LEDGER, "record", "()I")
        m.emit(INVOKESTATIC, "jk/Kernel", "endPrivileged", "()V")
        m.emit(IRETURN)
    with vendor.method("launder", f"(L{DEPUTY};L{LEDGER};)I",
                       0x0009) as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, DEPUTY, "go", f"(L{LEDGER};)I")
        m.emit(IRETURN)
    with vendor.method("sanctioned", f"(L{DEPUTY};L{LEDGER};)I",
                       0x0009) as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, DEPUTY, "vouch", f"(L{LEDGER};)I")
        m.emit(IRETURN)

    kernel = JKernelVM()
    ledger_domain = kernel.new_domain("vm-ledger")
    ledger_domain.define([ledger_iface, ledger_impl.build()])
    target = kernel.vm.construct(ledger_domain.load("mk/LedgerImpl"),
                                 domain_tag=ledger_domain.tag)
    ledger_cap = ledger_domain.create_capability(target)

    deputy_domain = kernel.new_domain("vm-deputy")
    deputy_domain.set_policy(["ledger.append"])
    deputy_domain.share_from(ledger_domain, LEDGER)
    deputy_domain.define([deputy_iface, deputy_impl.build()])
    deputy_target = kernel.vm.construct(
        deputy_domain.load("mk/DeputyImpl"),
        domain_tag=deputy_domain.tag,
    )
    deputy_cap = deputy_domain.create_capability(deputy_target)

    vendor_domain = kernel.new_domain("vm-vendor")
    vendor_domain.set_policy(["window.shop"])
    vendor_domain.share_from(ledger_domain, LEDGER)
    vendor_domain.share_from(deputy_domain, DEPUTY)
    vendor_domain.define([vendor.build()])
    driver = vendor_domain.load("mk/Vendor")
    return kernel, vendor_domain, driver, ledger_cap, deputy_cap


@pytest.fixture(scope="class")
def vm_market():
    return _build_vm_market()


class TestVMHostedMatrix:
    def _call(self, vm_market, method, args, desc=None):
        kernel, vendor_domain, driver, ledger_cap, deputy_cap = vm_market
        desc = desc or f"(L{LEDGER};)I"
        return kernel.vm.call_static(driver, method, desc, args,
                                     domain_tag=vendor_domain.tag)

    def _expect_denied(self, vm_market, method, args, desc=None,
                       denier="vm-vendor"):
        from repro.jvm.errors import JThrowable

        with pytest.raises(JThrowable) as info:
            self._call(vm_market, method, args, desc)
        assert "AccessDenied" in str(info.value)
        assert (f"domain {denier!r} lacks permission ledger.append:*"
                in str(info.value))

    def test_direct_denied(self, vm_market):
        ledger_cap = vm_market[3]
        self._expect_denied(vm_market, "direct", [ledger_cap])

    def test_begin_privileged_abuse_denied(self, vm_market):
        ledger_cap = vm_market[3]
        self._expect_denied(vm_market, "abuse", [ledger_cap])

    def test_confused_deputy_denied(self, vm_market):
        _, _, _, ledger_cap, deputy_cap = vm_market
        self._expect_denied(vm_market, "launder",
                            [deputy_cap, ledger_cap],
                            f"(L{DEPUTY};L{LEDGER};)I")

    def test_deputy_vouch_allowed(self, vm_market):
        _, _, _, ledger_cap, deputy_cap = vm_market
        assert self._call(vm_market, "sanctioned",
                          [deputy_cap, ledger_cap],
                          f"(L{DEPUTY};L{LEDGER};)I") == 1

    def test_granted_vendor_allowed(self, vm_market):
        kernel, vendor_domain, driver, ledger_cap, _ = vm_market
        vendor_domain.set_policy(["window.shop", "ledger.append"])
        try:
            assert self._call(vm_market, "direct", [ledger_cap]) == 1
        finally:
            vendor_domain.set_policy(["window.shop"])


# -- out-of-process matrix -----------------------------------------------------
#
# The host process carries two domains: a restricted "booth" (the direct
# and do_privileged attacks live entirely in the child) and a broad
# "clerk" (the confused deputy: a restricted *parent* domain's wire
# context must poison the clerk's otherwise-sufficient chain).

class Booth(Remote):
    def write(self): ...
    def write_privileged(self): ...


class BoothImpl(Booth):
    def write(self):
        check_permission("kv.write")
        return "booth-wrote"

    def write_privileged(self):
        return do_privileged(self.write)


class Clerk(Remote):
    def write(self): ...


class ClerkImpl(Clerk):
    def write(self):
        check_permission("kv.write")
        return "clerk-wrote"


def _market_host_setup():
    booth = Domain("oop-booth").set_policy(["kv.read"])
    clerk = Domain("oop-clerk").set_policy(["kv.read", "kv.write"])
    return {
        "booth": booth.run(
            lambda: Capability.create(BoothImpl(), label="booth")
        ),
        "clerk": clerk.run(
            lambda: Capability.create(ClerkImpl(), label="clerk")
        ),
    }


class Launderer(Remote):
    def go(self): ...


class LaundererImpl(Launderer):
    def __init__(self, proxy):
        self._proxy = proxy

    def go(self):
        return self._proxy.write()


@pytest.fixture(scope="class")
def market_host():
    host = DomainHostProcess(_market_host_setup, name="market").start()
    client = connect(host)
    yield client
    client.close()
    host.stop()


class TestOutOfProcessMatrix:
    def test_direct_denied_typed_across_the_wire(self, market_host):
        booth = market_host.lookup("booth")
        with pytest.raises(AccessDeniedError) as info:
            booth.write()
        assert info.value.permission == "kv.write:*"
        assert info.value.domain == "oop-booth"

    def test_do_privileged_abuse_denied(self, market_host):
        booth = market_host.lookup("booth")
        with pytest.raises(AccessDeniedError) as info:
            booth.write_privileged()
        assert info.value.domain == "oop-booth"

    def test_confused_deputy_denied_via_imported_context(
        self, market_host, domains
    ):
        # Unrestricted parent: the broad clerk suffices on its own.
        clerk = market_host.lookup("clerk")
        assert clerk.write() == "clerk-wrote"
        # Restricted parent domain: its context crosses in the call
        # frame and the intersection denies, even though every domain
        # in the *child* implies kv.write.
        tenant = make_domain(domains, "oop-tenant", ["kv.read"])
        launderer = tenant.run(
            lambda: Capability.create(LaundererImpl(clerk))
        )
        with pytest.raises(AccessDeniedError) as info:
            launderer.go()
        assert info.value.permission == "kv.write:*"
        assert info.value.domain == "oop-tenant"
        # The wire still works for the sanctioned caller afterwards.
        assert clerk.write() == "clerk-wrote"


# -- the web surface -----------------------------------------------------------

HONEST_VENDOR = '''
class ShopFront(Servlet):
    def service(self, request):
        return ServletResponse(200, {}, "motd: %s" % kv.read("motd"))
servlet = ShopFront
'''

ROGUE_VENDOR = '''
class ShopLifter(Servlet):
    def service(self, request):
        if request.path.endswith("/steal"):
            kv_admin.write("motd", "pwned")
            return ServletResponse(200, {}, "stolen")
        return ServletResponse(200, {}, "motd: %s" % kv.read("motd"))
servlet = ShopLifter
'''


class KvStore(Remote):
    def read(self, key): ...
    def write(self, key, value): ...


class KvStoreImpl(KvStore):
    def __init__(self):
        self.data = {"motd": "hello"}

    def read(self, key):
        return self.data.get(key)

    def write(self, key, value):
        self.data[key] = value
        return True


class _PolicedServlet(Servlet):
    def service(self, request):
        check_permission("market.admin")
        return ServletResponse(200, {}, b"admin")


class TestWebSurface:
    @pytest.fixture
    def market(self, domains):
        store = make_domain(domains, "web-store")
        impl = KvStoreImpl()
        read_cap = store.run(
            lambda: Capability.create(impl, guard="kv.read")
        )
        write_cap = store.run(
            lambda: Capability.create(impl, guard="kv.write")
        )
        with JKernelWebServer(workers=1) as server:
            yield server, server.port, read_cap, write_cap

    def test_generated_policy_install_and_denials(self, market):
        server, port, read_cap, write_cap = market
        from repro.toolchain import propose_policy_source

        grants = {"kv": read_cap, "kv_admin": write_cap}
        proposal = propose_policy_source(ROGUE_VENDOR, grants)
        kinds = sorted(str(p) for p in proposal)
        assert kinds == ["kv.read:*", "kv.write:*"]

        server.install_source("/shop", HONEST_VENDOR, grants=grants,
                              policy="generate")
        assert fetch_once("127.0.0.1", port,
                          "/servlet/shop").status == 200

        # Operator grants the rogue vendor less than it asked for.
        server.install_source("/lifter", ROGUE_VENDOR, grants=grants,
                              policy=["kv.read"])
        assert fetch_once("127.0.0.1", port,
                          "/servlet/lifter").status == 200
        denied = fetch_once("127.0.0.1", port, "/servlet/lifter/steal")
        assert denied.status == 403
        assert b"access denied" in denied.body
        assert b"domain 'servlet-lifter' lacks permission" in denied.body

    def test_in_process_policy_install_403(self, market):
        server, port, _, _ = market
        server.install_servlet("/adminless", _PolicedServlet,
                               policy=["market.page"])
        denied = fetch_once("127.0.0.1", port, "/servlet/adminless")
        assert denied.status == 403
        assert b"domain 'servlet-adminless' lacks permission" in denied.body

    def test_out_of_process_policy_install_403(self, market):
        server, port, _, _ = market
        server.install_servlet_out_of_process(
            "/oopbooth", _PolicedServlet, supervise=False,
            policy=["market.page"],
        )
        denied = fetch_once("127.0.0.1", port, "/servlet/oopbooth")
        assert denied.status == 403
        assert b"domain 'servlet-oopbooth' lacks permission" in denied.body
