"""The VM-level J-Kernel: generated stub bytecode, copy semantics,
revocation, domains, repository natives."""

import pytest

from repro.jkvm import JKernelVM, generate_stub_classfile, stub_name_for
from repro.jvm import ClassAssembler, interface
from repro.jvm.classfile import CONSTRUCTOR_NAME
from repro.jvm.errors import JThrowable, OutOfStepsError, VMError
from repro.jvm.instructions import (
    ALOAD,
    ARETURN,
    BALOAD,
    BASTORE,
    GOTO,
    IADD,
    ICONST,
    ILOAD,
    INVOKEINTERFACE,
    INVOKESPECIAL,
    INVOKESTATIC,
    INVOKEVIRTUAL,
    IRETURN,
    LDC_STR,
    RETURN,
)
from tests.support import spawned_threads

SERVICE_IFACE = "svc/Service"


def service_interface():
    return interface(
        SERVICE_IFACE,
        [("ping", "()I"), ("add3", "(III)I"), ("fill", "([B)[B")],
        extends=("jk/Remote",),
    )


def service_impl():
    ca = ClassAssembler("svc/ServiceImpl",
                        interfaces=(SERVICE_IFACE, "jk/Remote"))
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method("ping", "()I") as m:
        m.emit(ICONST, 99)
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
    return ca.build()


@pytest.fixture(params=["msvm", "sunvm"])
def kernel(request):
    return JKernelVM(profile=request.param)


@pytest.fixture()
def world(kernel):
    server = kernel.new_domain("server")
    client = kernel.new_domain("client")
    server.define([service_interface(), service_impl()])
    target = kernel.vm.construct(
        server.load("svc/ServiceImpl"), domain_tag=server.tag
    )
    capability = server.create_capability(target)
    client.share_from(server, SERVICE_IFACE)
    return kernel, server, client, capability, target


def client_driver(client):
    ca = ClassAssembler("cl/Driver")
    with ca.method("ping", f"(L{SERVICE_IFACE};)I", 0x0009) as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, SERVICE_IFACE, "ping", "()I")
        m.emit(IRETURN)
    with ca.method("fillThenReadLocal", f"(L{SERVICE_IFACE};[B)I",
                   0x0009) as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKEINTERFACE, SERVICE_IFACE, "fill", "([B)[B")
        m.emit(ICONST, 0)
        m.emit(BALOAD)  # returned copy's first byte
        m.emit(ALOAD, 1)
        m.emit(ICONST, 0)
        m.emit(BALOAD)  # local buffer's first byte
        m.emit(IADD)
        m.emit(IRETURN)
    client.define([ca.build()])
    return client.load("cl/Driver")


class TestStubGeneration:
    def test_stub_classfile_shape(self, world):
        kernel, server, _, capability, target = world
        stub_class = capability.jclass
        assert stub_class.name == stub_name_for(target.jclass)
        assert stub_class.superclass.name == "jk/Capability"
        iface_names = {iface.name for iface in stub_class.all_interfaces}
        assert SERVICE_IFACE in iface_names
        assert "jk/Remote" in iface_names

    def test_stub_fields_private(self, world):
        _, _, _, capability, _ = world
        from repro.jvm.classfile import ACC_PRIVATE

        for field_def in capability.jclass.instance_field_defs:
            assert field_def.flags & ACC_PRIVATE

    def test_stub_passes_verifier(self, world):
        # define() verified the stub already; re-verify explicitly.
        kernel, server, _, capability, _ = world
        from repro.jvm.verifier import verify_class

        verify_class(kernel.vm, capability.jclass)

    def test_stub_class_cached_per_target_class(self, world):
        kernel, server, _, capability, target = world
        second_target = kernel.vm.construct(
            target.jclass, domain_tag=server.tag
        )
        second = server.create_capability(second_target)
        assert second.jclass is capability.jclass
        assert second is not capability

    def test_no_remote_interface_rejected(self, kernel):
        domain = kernel.new_domain("plain")
        plain = ClassAssembler("p/Plain")
        with plain.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME,
                   "()V")
            m.emit(RETURN)
        domain.define([plain.build()])
        obj = kernel.vm.construct(domain.load("p/Plain"),
                                  domain_tag=domain.tag)
        with pytest.raises(VMError, match="no interface extending"):
            domain.create_capability(obj)


class TestLrmiSemantics:
    def test_null_call(self, world):
        kernel, _, client, capability, _ = world
        driver = client_driver(client)
        assert kernel.vm.call_static(
            driver, "ping", f"(L{SERVICE_IFACE};)I", [capability],
            domain_tag=client.tag,
        ) == 99

    def test_arguments_copied_caller_buffer_isolated(self, world):
        kernel, _, client, capability, _ = world
        driver = client_driver(client)
        buffer = kernel.vm.heap.new_array(
            kernel.vm.array_class_for_descriptor("[B", kernel.vm.boot_loader),
            4, owner=client.tag,
        )
        result = kernel.vm.call_static(
            driver, "fillThenReadLocal", f"(L{SERVICE_IFACE};[B)I",
            [capability, buffer], domain_tag=client.tag,
        )
        # returned copy was mutated (77), caller's buffer was not (0)
        assert result == 77
        assert buffer.elems == [0, 0, 0, 0]

    def test_copies_charged_to_callee_domain(self, world):
        kernel, server, client, capability, _ = world
        driver = client_driver(client)
        buffer = kernel.vm.heap.new_array(
            kernel.vm.array_class_for_descriptor("[B", kernel.vm.boot_loader),
            64, owner=client.tag,
        )
        before = kernel.vm.heap.stats(server.tag).allocated_bytes
        kernel.vm.call_static(
            driver, "fillThenReadLocal", f"(L{SERVICE_IFACE};[B)I",
            [capability, buffer], domain_tag=client.tag,
        )
        after = kernel.vm.heap.stats(server.tag).allocated_bytes
        assert after > before  # the argument copy landed on the server

    def test_segment_restored_after_callee_throw(self, world):
        kernel, server, client, capability, _ = world
        # a service whose method throws
        thrower_iface = interface(
            "svc/Thrower", [("boom", "()I")], extends=("jk/Remote",)
        )
        ca = ClassAssembler("svc/ThrowerImpl",
                            interfaces=("svc/Thrower", "jk/Remote"))
        with ca.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME,
                   "()V")
            m.emit(RETURN)
        with ca.method("boom", "()I") as m:
            m.emit("new", "java/lang/IllegalStateException")
            m.emit("dup")
            m.emit(INVOKESPECIAL, "java/lang/IllegalStateException",
                   "<init>", "()V")
            m.emit("athrow")
        server.define([thrower_iface, ca.build()])
        target = kernel.vm.construct(server.load("svc/ThrowerImpl"),
                                     domain_tag=server.tag)
        cap = server.create_capability(target)
        client.share_from(server, "svc/Thrower")
        drv = ClassAssembler("cl/ThrowDriver")
        with drv.method("call", "(Lsvc/Thrower;)I", 0x0009) as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKEINTERFACE, "svc/Thrower", "boom", "()I")
            m.emit(IRETURN)
        client.define([drv.build()])
        driver = client.load("cl/ThrowDriver")
        with spawned_threads(kernel.vm) as threads, \
                pytest.raises(JThrowable, match="IllegalState"):
            kernel.vm.call_static(driver, "call", "(Lsvc/Thrower;)I",
                                  [cap], domain_tag=client.tag)
        # thread's segment stack must be balanced again
        assert threads
        assert all(not t.segments for t in threads)

    def test_segment_unwound_after_out_of_steps(self, world):
        """A call abandoned inside the callee's segment is ended there:
        its segments are unwound and its caller's heap tag restored."""
        kernel, server, client, capability, _ = world
        spinner_iface = interface(
            "svc/Spinner", [("spin", "()I")], extends=("jk/Remote",)
        )
        ca = ClassAssembler("svc/SpinnerImpl",
                            interfaces=("svc/Spinner", "jk/Remote"))
        with ca.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME,
                   "()V")
            m.emit(RETURN)
        with ca.method("spin", "()I") as m:
            loop = m.here()
            m.emit(GOTO, loop.pc)
        server.define([spinner_iface, ca.build()])
        target = kernel.vm.construct(server.load("svc/SpinnerImpl"),
                                     domain_tag=server.tag)
        cap = server.create_capability(target)
        client.share_from(server, "svc/Spinner")
        drv = ClassAssembler("cl/SpinDriver")
        with drv.method("call", "(Lsvc/Spinner;)I", 0x0009) as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKEINTERFACE, "svc/Spinner", "spin", "()I")
            m.emit(IRETURN)
        client.define([drv.build()])
        with spawned_threads(kernel.vm) as threads, \
                pytest.raises(OutOfStepsError):
            kernel.vm.call_static(client.load("cl/SpinDriver"), "call",
                                  "(Lsvc/Spinner;)I", [cap],
                                  domain_tag=client.tag, max_steps=2000)
        (call_thread,) = threads
        assert call_thread.state == "TERMINATED"
        assert not call_thread.segments
        assert call_thread.domain_tag == client.tag
        assert kernel.vm.scheduler.threads == []
        assert kernel.vm.call_static(
            client_driver(client), "ping", f"(L{SERVICE_IFACE};)I",
            [capability], domain_tag=client.tag,
        ) == 99

    def test_heap_tag_restored_after_callee_athrow(self, world):
        """Regression: the stub's exception handler restores the caller's
        segment, so an allocation made right after *catching* a callee
        ATHROW must be charged to the caller's heap tag, not the callee's.
        """
        kernel, server, client, _, _ = world
        thrower_iface = interface(
            "svc/Thrower2", [("boom", "()I")], extends=("jk/Remote",)
        )
        ca = ClassAssembler("svc/Thrower2Impl",
                            interfaces=("svc/Thrower2", "jk/Remote"))
        with ca.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME,
                   "()V")
            m.emit(RETURN)
        with ca.method("boom", "()I") as m:
            m.emit("new", "java/lang/IllegalStateException")
            m.emit("dup")
            m.emit(INVOKESPECIAL, "java/lang/IllegalStateException",
                   "<init>", "()V")
            m.emit("athrow")
        server.define([thrower_iface, ca.build()])
        target = kernel.vm.construct(server.load("svc/Thrower2Impl"),
                                     domain_tag=server.tag)
        cap = server.create_capability(target)
        client.share_from(server, "svc/Thrower2")
        drv = ClassAssembler("cl/CatchDriver")
        with drv.method("probe", "(Lsvc/Thrower2;)Ljava/lang/Object;",
                        0x0009) as m:
            start = m.here()
            m.emit(ALOAD, 0)
            m.emit(INVOKEINTERFACE, "svc/Thrower2", "boom", "()I")
            m.emit("pop")
            m.emit("aconst_null")
            m.emit(ARETURN)
            end = m.here()
            handler = m.here()
            m.emit("pop")
            m.emit("new", "java/lang/Object")
            m.emit("dup")
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME,
                   "()V")
            m.emit(ARETURN)
            m.handler(start, end, handler, None)
        client.define([drv.build()])
        driver = client.load("cl/CatchDriver")
        with spawned_threads(kernel.vm) as threads:
            result = kernel.vm.call_static(
                driver, "probe", "(Lsvc/Thrower2;)Ljava/lang/Object;", [cap],
                domain_tag=client.tag,
            )
        assert result is not None
        # the post-catch allocation landed on the *caller's* heap account
        assert kernel.vm.heap.owner_of(result) == client.tag
        call_thread = threads[-1]
        assert call_thread.domain_tag == client.tag
        assert not call_thread.segments


class TestRevocation:
    def test_revoke_via_host(self, world):
        kernel, server, client, capability, _ = world
        driver = client_driver(client)
        server.revoke_capability(capability)
        with pytest.raises(JThrowable, match="RevokedException"):
            kernel.vm.call_static(driver, "ping", f"(L{SERVICE_IFACE};)I",
                                  [capability], domain_tag=client.tag)

    def test_revoke_via_guest_native(self, world):
        kernel, _, client, capability, _ = world
        kernel.vm.call_virtual(capability, "revoke", "()V")
        assert kernel.vm.call_virtual(capability, "isRevoked", "()Z") == 1

    def test_termination_revokes_all(self, world):
        kernel, server, client, capability, _ = world
        driver = client_driver(client)
        server.terminate()
        assert server.terminated
        with pytest.raises(JThrowable, match="RevokedException"):
            kernel.vm.call_static(driver, "ping", f"(L{SERVICE_IFACE};)I",
                                  [capability], domain_tag=client.tag)

    def test_revocation_frees_target_memory(self, world):
        kernel, server, client, capability, target = world
        kernel.vm.pinned.add(capability)  # client still holds the stub
        server.revoke_capability(capability)
        del target
        stats = kernel.vm.collect()
        live_impls = [
            obj for obj in kernel.vm.heap.live_objects()
            if getattr(getattr(obj, "jclass", None), "name", "")
            == "svc/ServiceImpl"
        ]
        assert live_impls == []  # the target was collected
        assert kernel.vm.heap.contains(capability)  # the stub survives

    def test_terminated_domain_rejects_new_work(self, world):
        kernel, server, _, _, _ = world
        server.terminate()
        with pytest.raises(VMError, match="terminated"):
            server.define([interface("x/I", [], extends=("jk/Remote",))])


class TestSharingRules:
    def test_share_requires_no_statics(self, kernel):
        domain_a = kernel.new_domain("share-a")
        domain_b = kernel.new_domain("share-b")
        from repro.jvm.classfile import ACC_PUBLIC, ACC_STATIC, FieldDef

        ca = ClassAssembler("s/WithStatic")
        ca.field("counter", "I", ACC_PUBLIC | ACC_STATIC)
        with ca.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME,
                   "()V")
            m.emit(RETURN)
        domain_a.define([ca.build()])
        with pytest.raises(VMError, match="static fields"):
            domain_b.share_from(domain_a, "s/WithStatic")

    def test_namespaces_isolated_without_sharing(self, kernel):
        domain_a = kernel.new_domain("iso-a")
        domain_b = kernel.new_domain("iso-b")
        domain_a.define([service_interface()])
        from repro.jvm import ClassNotFoundError

        with pytest.raises(ClassNotFoundError):
            domain_b.load(SERVICE_IFACE)


class TestRepositoryNatives:
    def test_guest_bind_and_lookup(self, world):
        kernel, server, client, capability, _ = world
        kernel.bind("svc", capability)
        driver_ca = ClassAssembler("cl/Repo")
        with driver_ca.method("fetchAndPing", "()I", 0x0009) as m:
            m.emit(LDC_STR, "svc")
            m.emit(INVOKESTATIC, "jk/Repository", "lookup",
                   "(Ljava/lang/String;)Ljava/lang/Object;")
            m.emit("checkcast", SERVICE_IFACE)
            m.emit(INVOKEINTERFACE, SERVICE_IFACE, "ping", "()I")
            m.emit(IRETURN)
        client.define([driver_ca.build()])
        result = kernel.vm.call_static(
            client.load("cl/Repo"), "fetchAndPing", "()I", [],
            domain_tag=client.tag,
        )
        assert result == 99

    def test_bind_non_capability_rejected(self, world):
        kernel, server, _, _, _ = world
        plain = kernel.vm.heap.new_object(kernel.vm.object_class)
        with pytest.raises(VMError, match="only capabilities"):
            kernel.bind("bad", plain)

    def test_double_bind_rejected(self, world):
        kernel, _, _, capability, _ = world
        kernel.bind("one", capability)
        with pytest.raises(VMError, match="already bound"):
            kernel.bind("one", capability)

    def test_current_domain_name_native(self, world):
        kernel, server, client, capability, _ = world
        ca = ClassAssembler("cl/Who")
        with ca.method("who", "()Ljava/lang/String;", 0x0009) as m:
            m.emit(INVOKESTATIC, "jk/Kernel", "currentDomainName",
                   "()Ljava/lang/String;")
            m.emit(ARETURN)
        client.define([ca.build()])
        result = kernel.vm.call_static(
            client.load("cl/Who"), "who", "()Ljava/lang/String;", [],
            domain_tag=client.tag,
        )
        assert kernel.vm.text_of(result) == "<system>"
