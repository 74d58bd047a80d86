"""Differential LRMI testing: hosted kernel vs VM kernel.

The J-Kernel exists twice in this repo — the hosted implementation over
Python objects (``repro.core``) and the enforced implementation over
verified bytecode on the MiniJVM (``repro.jkvm``).  The paper describes
*one* calling convention; this suite runs the same scenario matrix through
both implementations and normalizes what the caller observes, so the two
can never silently diverge:

* null call, int-argument call (values returned unchanged),
* reference arguments (callee mutations invisible to the caller; the
  returned copy carries them),
* immutable ``String`` arguments (pass by reference, value preserved),
* revocation before a call and revocation *during* a call (the in-flight
  call completes; the next one fails),
* callee exceptions (propagate to the caller with the caller's domain
  context restored),
* cross-domain re-entry (A -> B -> A nested segments).

Each scenario produces an implementation-independent outcome tuple;
the matrix asserts hosted == VM, then spot-checks the per-side invariants
(segment stacks balanced, heap/domain context restored).
"""

import pytest

from repro.core import Capability, Domain, Remote, RevokedException
from repro.jkvm import JKernelVM
from repro.jvm import ClassAssembler, interface
from repro.jvm.classfile import CONSTRUCTOR_NAME
from repro.jvm.errors import JThrowable
from repro.jvm.instructions import (
    ALOAD,
    ARETURN,
    ATHROW,
    BALOAD,
    BASTORE,
    CHECKCAST,
    DUP,
    GOTO,
    IADD,
    ICONST,
    ILOAD,
    INVOKEINTERFACE,
    INVOKESPECIAL,
    INVOKEVIRTUAL,
    IRETURN,
    NEW,
    RETURN,
)
from tests.support import spawned_threads

PUBLIC_STATIC = 0x0009

IFACE = "svc/IDiff"

OK = "ok"
REVOKED = "revoked"
CALLEE_EXCEPTION = "callee-exception"


# ---------------------------------------------------------------------------
# hosted world
# ---------------------------------------------------------------------------

class IDiff(Remote):
    def ping(self): ...
    def add3(self, a, b, c): ...
    def fill(self, buf): ...
    def echo(self, text): ...
    def boom(self): ...
    def revoke_it(self, cap): ...
    def call_back(self, cb): ...
    def bump(self, outer): ...


class HostedImpl(IDiff):
    def ping(self):
        return 99

    def add3(self, a, b, c):
        return a + b + c

    def fill(self, buf):
        buf[0] = 77
        return buf

    def echo(self, text):
        return text

    def boom(self):
        raise RuntimeError("boom")

    def revoke_it(self, cap):
        cap.revoke()
        return 1

    def call_back(self, cb):
        return cb.ping() + 1

    def bump(self, outer):
        inner = outer[0]
        inner[0] += 1
        return inner


class HostedPing(IDiff):
    """Client-side target for the re-entry scenario."""

    def ping(self):
        return 99

    def add3(self, a, b, c): ...
    def fill(self, buf): ...
    def echo(self, text): ...
    def boom(self): ...
    def revoke_it(self, cap): ...
    def call_back(self, cb): ...
    def bump(self, outer): ...


class HostedWorld:
    name = "hosted"

    def __init__(self):
        self.server = Domain("diff-server")
        self.client = Domain("diff-client")
        self.cap = self.server.run(lambda: Capability.create(HostedImpl()))

    def _call(self, fn):
        try:
            return self.client.run(fn)
        except RevokedException:
            return (REVOKED,)
        except RuntimeError:
            return (CALLEE_EXCEPTION,)

    def null_call(self):
        result = self._call(lambda: self.cap.ping())
        return result if isinstance(result, tuple) else (OK, result)

    def int_args(self):
        result = self._call(lambda: self.cap.add3(1, 2, 3))
        return result if isinstance(result, tuple) else (OK, result)

    def reference_args(self):
        buf = [0, 0, 0, 0]  # mirrors the VM-side byte array
        result = self._call(lambda: self.cap.fill(buf))
        if isinstance(result, tuple):
            return result
        return (OK, result[0], buf[0])

    def string_arg(self):
        result = self._call(lambda: self.cap.echo("hello"))
        return result if isinstance(result, tuple) else (OK, result)

    def revoked_call(self):
        self.server.run(self.cap.revoke)
        return self.null_call()

    def revoke_mid_call(self):
        first = self._call(lambda: self.cap.revoke_it(self.cap))
        if isinstance(first, tuple):
            return first
        after = self.null_call()
        return (OK, first) + after

    def callee_throw(self):
        outcome = self._call(lambda: self.cap.boom())
        from repro.core import current_domain

        # unwound cleanly: the calling thread is back outside any segment
        assert current_domain() is None
        return outcome if isinstance(outcome, tuple) else (OK, outcome)

    def reentry(self):
        callback = self.client.run(
            lambda: Capability.create(HostedPing())
        )
        result = self._call(lambda: self.cap.call_back(callback))
        return result if isinstance(result, tuple) else (OK, result)

    def graph_args(self):
        inner = [5]
        outer = [inner]  # two-level graph: copy must recurse
        result = self._call(lambda: self.cap.bump(outer))
        if isinstance(result, tuple):
            return result
        # callee bumped its *copy* of the inner node and returned it
        return (OK, result[0], inner[0])


# ---------------------------------------------------------------------------
# VM world
# ---------------------------------------------------------------------------

def _iface_classfile():
    return interface(
        IFACE,
        [
            ("ping", "()I"),
            ("add3", "(III)I"),
            ("fill", "([B)[B"),
            ("echo", "(Ljava/lang/String;)Ljava/lang/String;"),
            ("boom", "()I"),
            ("revokeIt", f"(L{IFACE};)I"),
            ("callBack", f"(L{IFACE};)I"),
            ("bump", "(Lsvc/Node;)Lsvc/Node;"),
        ],
        extends=("jk/Remote",),
    )


def _node_classfile():
    """A linked guest object: exercises the deep copier's reference-slot
    plan and back-reference memo when it crosses domains."""
    ca = ClassAssembler("svc/Node")
    ca.field("val", "I")
    ca.field("next", "Lsvc/Node;")
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    return ca.build()


def _impl_classfile(name="svc/DiffImpl", ping_value=99):
    ca = ClassAssembler(name, interfaces=(IFACE, "jk/Remote"))
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method("ping", "()I") as m:
        m.emit(ICONST, ping_value)
        m.emit(IRETURN)
    with ca.method("add3", "(III)I") as m:
        m.emit(ILOAD, 1)
        m.emit(ILOAD, 2)
        m.emit(IADD)
        m.emit(ILOAD, 3)
        m.emit(IADD)
        m.emit(IRETURN)
    with ca.method("fill", "([B)[B") as m:
        m.emit(ALOAD, 1)
        m.emit(ICONST, 0)
        m.emit(ICONST, 77)
        m.emit(BASTORE)
        m.emit(ALOAD, 1)
        m.emit(ARETURN)
    with ca.method("echo", "(Ljava/lang/String;)Ljava/lang/String;") as m:
        m.emit(ALOAD, 1)
        m.emit(ARETURN)
    with ca.method("boom", "()I") as m:
        m.emit(NEW, "java/lang/IllegalStateException")
        m.emit(DUP)
        m.emit(INVOKESPECIAL, "java/lang/IllegalStateException",
               CONSTRUCTOR_NAME, "()V")
        m.emit(ATHROW)
    with ca.method("revokeIt", f"(L{IFACE};)I") as m:
        m.emit(ALOAD, 1)
        m.emit(CHECKCAST, "jk/Capability")
        m.emit(INVOKEVIRTUAL, "jk/Capability", "revoke", "()V")
        m.emit(ICONST, 1)
        m.emit(IRETURN)
    with ca.method("callBack", f"(L{IFACE};)I") as m:
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, IFACE, "ping", "()I")
        m.emit(ICONST, 1)
        m.emit(IADD)
        m.emit(IRETURN)
    with ca.method("bump", "(Lsvc/Node;)Lsvc/Node;") as m:
        # m = n.next; m.val += 1; return m
        m.emit(ALOAD, 1)
        m.emit("getfield", "svc/Node", "next")
        m.emit("astore", 2)
        m.emit(ALOAD, 2)
        m.emit(ALOAD, 2)
        m.emit("getfield", "svc/Node", "val")
        m.emit(ICONST, 1)
        m.emit(IADD)
        m.emit("putfield", "svc/Node", "val")
        m.emit(ALOAD, 2)
        m.emit(ARETURN)
    return ca.build()


def _driver_classfile():
    """Client-side entry points, one static method per scenario leg."""
    ca = ClassAssembler("cl/DiffDriver")
    with ca.method("ping", f"(L{IFACE};)I", PUBLIC_STATIC) as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, IFACE, "ping", "()I")
        m.emit(IRETURN)
    with ca.method("add3", f"(L{IFACE};)I", PUBLIC_STATIC) as m:
        m.emit(ALOAD, 0)
        m.emit(ICONST, 1)
        m.emit(ICONST, 2)
        m.emit(ICONST, 3)
        m.emit(INVOKEINTERFACE, IFACE, "add3", "(III)I")
        m.emit(IRETURN)
    with ca.method("fillSum", f"(L{IFACE};[B)I", PUBLIC_STATIC) as m:
        # returns 10 * returned_copy[0] + caller_buffer[0]
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, IFACE, "fill", "([B)[B")
        m.emit(ICONST, 0)
        m.emit(BALOAD)
        m.emit(ICONST, 10)
        m.emit("imul")
        m.emit(ALOAD, 1)
        m.emit(ICONST, 0)
        m.emit(BALOAD)
        m.emit(IADD)
        m.emit(IRETURN)
    with ca.method("echo",
                   f"(L{IFACE};Ljava/lang/String;)Ljava/lang/String;",
                   PUBLIC_STATIC) as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, IFACE, "echo",
               "(Ljava/lang/String;)Ljava/lang/String;")
        m.emit(ARETURN)
    with ca.method("boom", f"(L{IFACE};)I", PUBLIC_STATIC) as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, IFACE, "boom", "()I")
        m.emit(IRETURN)
    with ca.method("revokeIt", f"(L{IFACE};)I", PUBLIC_STATIC) as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, IFACE, "revokeIt", f"(L{IFACE};)I")
        m.emit(IRETURN)
    with ca.method("callBack", f"(L{IFACE};L{IFACE};)I", PUBLIC_STATIC) as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, IFACE, "callBack", f"(L{IFACE};)I")
        m.emit(IRETURN)
    with ca.method("bumpGraph",
                   f"(L{IFACE};Lsvc/Node;Lsvc/Node;)I", PUBLIC_STATIC) as m:
        # returns returned_node.val * 10 + caller_inner_node.val
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, IFACE, "bump", "(Lsvc/Node;)Lsvc/Node;")
        m.emit("getfield", "svc/Node", "val")
        m.emit(ICONST, 10)
        m.emit("imul")
        m.emit(ALOAD, 2)
        m.emit("getfield", "svc/Node", "val")
        m.emit(IADD)
        m.emit(IRETURN)
    # boomCaught: catch the callee's exception in guest code, then prove
    # the thread still runs client-side by completing a second LRMI.
    with ca.method("boomCaught", f"(L{IFACE};)I", PUBLIC_STATIC) as m:
        start = m.here()
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, IFACE, "boom", "()I")
        m.emit(IRETURN)
        end = m.here()
        handler = m.here()
        m.emit("pop")
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, IFACE, "ping", "()I")
        m.emit(IRETURN)
        m.handler(start, end, handler, "java/lang/IllegalStateException")
    return ca.build()


class VMWorld:
    name = "vm"

    def __init__(self, profile="sunvm"):
        self.kernel = JKernelVM(profile=profile)
        self.vm = self.kernel.vm
        self.server = self.kernel.new_domain("diff-server")
        self.client = self.kernel.new_domain("diff-client")
        self.server.define([_node_classfile(), _iface_classfile(),
                            _impl_classfile()])
        target = self.vm.construct(
            self.server.load("svc/DiffImpl"), domain_tag=self.server.tag
        )
        self.cap = self.server.create_capability(target)
        self.client.share_from(self.server, IFACE)
        self.client.share_from(self.server, "svc/Node")
        self.client.define([_driver_classfile()])
        self.driver = self.client.load("cl/DiffDriver")

    def _call(self, method, desc, args):
        try:
            return self.vm.call_static(
                self.driver, method, desc, args, domain_tag=self.client.tag
            )
        except JThrowable as exc:
            name = exc.jobject.jclass.name
            if name == "jk/RevokedException":
                return (REVOKED,)
            return (CALLEE_EXCEPTION,)

    def null_call(self):
        result = self._call("ping", f"(L{IFACE};)I", [self.cap])
        return result if isinstance(result, tuple) else (OK, result)

    def int_args(self):
        result = self._call("add3", f"(L{IFACE};)I", [self.cap])
        return result if isinstance(result, tuple) else (OK, result)

    def reference_args(self):
        buf = self.vm.heap.new_array(
            self.vm.array_class_for_descriptor("[B", self.vm.boot_loader),
            4, owner=self.client.tag,
        )
        result = self._call("fillSum", f"(L{IFACE};[B)I", [self.cap, buf])
        if isinstance(result, tuple):
            return result
        # fillSum packed both observations: returned[0] * 10 + caller[0]
        return (OK, result // 10, result % 10)

    def string_arg(self):
        text = self.vm.new_string("hello", owner=self.client.tag)
        result = self._call(
            "echo", f"(L{IFACE};Ljava/lang/String;)Ljava/lang/String;",
            [self.cap, text],
        )
        if isinstance(result, tuple):
            return result
        return (OK, self.vm.text_of(result))

    def revoked_call(self):
        self.server.revoke_capability(self.cap)
        return self.null_call()

    def revoke_mid_call(self):
        first = self._call("revokeIt", f"(L{IFACE};)I", [self.cap])
        if isinstance(first, tuple):
            return first
        after = self.null_call()
        return (OK, first) + after

    def callee_throw(self):
        with spawned_threads(self.vm) as threads:
            outcome = self._call("boom", f"(L{IFACE};)I", [self.cap])
        # unwound cleanly: no dangling segments on any guest thread
        assert threads
        assert all(not t.segments for t in threads)
        return outcome if isinstance(outcome, tuple) else (OK, outcome)

    def graph_args(self):
        node_class = self.client.load("svc/Node")
        inner = self.vm.construct(node_class, domain_tag=self.client.tag)
        inner.fields[node_class.field_slots["val"]] = 5
        head = self.vm.construct(node_class, domain_tag=self.client.tag)
        head.fields[node_class.field_slots["next"]] = inner
        result = self._call(
            "bumpGraph", f"(L{IFACE};Lsvc/Node;Lsvc/Node;)I",
            [self.cap, head, inner],
        )
        if isinstance(result, tuple):
            return result
        return (OK, result // 10, result % 10)

    def reentry(self):
        self.client.define([_impl_classfile(name="cl/PingImpl")])
        target = self.vm.construct(
            self.client.load("cl/PingImpl"), domain_tag=self.client.tag
        )
        callback = self.client.create_capability(target)
        result = self._call(
            "callBack", f"(L{IFACE};L{IFACE};)I", [self.cap, callback]
        )
        return result if isinstance(result, tuple) else (OK, result)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------

SCENARIOS = {
    "null_call": (OK, 99),
    "int_args": (OK, 6),
    # callee saw its copy and mutated it (77); the caller's buffer kept 0
    "reference_args": (OK, 77, 0),
    "string_arg": (OK, "hello"),
    "revoked_call": (REVOKED,),
    # the in-flight call survives its own revocation; the next one fails
    "revoke_mid_call": (OK, 1, REVOKED),
    "callee_throw": (CALLEE_EXCEPTION,),
    "reentry": (OK, 100),
    # the callee bumped the copied graph; the caller's nodes kept 5
    "graph_args": (OK, 6, 5),
}


def _world_pairs():
    return [
        ("sunvm", lambda: (HostedWorld(), VMWorld("sunvm"))),
        ("msvm", lambda: (HostedWorld(), VMWorld("msvm"))),
    ]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("profile", ["sunvm", "msvm"])
def test_hosted_and_vm_agree(scenario, profile):
    hosted = HostedWorld()
    vm_world = VMWorld(profile)
    expected = SCENARIOS[scenario]
    hosted_outcome = getattr(hosted, scenario)()
    vm_outcome = getattr(vm_world, scenario)()
    assert hosted_outcome == vm_outcome, (
        f"{scenario}: hosted={hosted_outcome} vm={vm_outcome}"
    )
    assert hosted_outcome == expected


def test_exception_unwind_leaves_caller_usable_vm():
    """After a callee throw is *caught in guest code*, the same guest
    thread must keep running with the caller's domain context (a further
    LRMI through a live capability succeeds)."""
    world = VMWorld()
    result = world.vm.call_static(
        world.driver, "boomCaught", f"(L{IFACE};)I", [world.cap],
        domain_tag=world.client.tag,
    )
    assert result == 99


def test_string_identity_shared_across_domains_vm():
    """The VM convention shares immutable Strings by reference (stubgen's
    copy-skip): the callee must observe the identical object."""
    world = VMWorld()
    text = world.vm.new_string("shared", owner=world.client.tag)
    result = world.vm.call_static(
        world.driver, "echo",
        f"(L{IFACE};Ljava/lang/String;)Ljava/lang/String;",
        [world.cap, text], domain_tag=world.client.tag,
    )
    assert result is text
