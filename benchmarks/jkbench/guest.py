"""The ``calls_vm`` world: jkbench's own guest classes on the MiniJVM
(``sunvm`` profile) behind ``JKernelVM``, one checked guest loop per call
class, and the loop-minus-empty-loop probes of Table 1's rows."""

from __future__ import annotations

import time

from repro.core import Capability, Domain, Remote
from repro.jkvm import JKernelVM
from repro.jvm import ACC_PUBLIC, ACC_STATIC, ClassAssembler, interface

from .script import BATCH

_STATIC = ACC_PUBLIC | ACC_STATIC
_OBJECT = "java/lang/Object"
_PROBE_ITERATIONS = 2000


def _constructor(assembler):
    with assembler.method("<init>", "()V") as m:
        m.emit("aload", 0)
        m.emit("invokespecial", _OBJECT, "<init>", "()V")
        m.emit("return")


def _loop(assembler, name, desc, count_slot, body):
    """``acc = 0; for (i = 0; i < n; i++) { body } return acc`` with n in
    ``count_slot``; the body sees ``i`` and ``acc`` in the next two
    slots and leaves the stack empty."""
    i, acc = count_slot + 1, count_slot + 2
    m = assembler.method(name, desc, _STATIC)
    m.emit("iconst", 0)
    m.emit("istore", acc)
    m.emit("iconst", 0)
    m.emit("istore", i)
    top = m.here()
    done = m.label()
    m.emit("iload", i)
    m.emit("iload", count_slot)
    m.emit("if_icmpge", done)
    body(m, i, acc)
    m.emit("iinc", i, 1)
    m.emit("goto", top.pc)
    m.mark(done)
    m.emit("iload", acc)
    m.emit("ireturn")


def _classfiles():
    remote = interface("jkb/IRemote",
                       [("nullOp", "()V"), ("add3", "(III)I")],
                       extends=("jk/Remote",))
    target = ClassAssembler("jkb/Target",
                            interfaces=("jkb/IRemote", "jk/Remote"))
    _constructor(target)
    with target.method("nullOp", "()V") as m:
        m.emit("return")
    with target.method("add3", "(III)I") as m:
        for slot in (1, 2, 3):
            m.emit("iload", slot)
        m.emit("iadd")
        m.emit("iadd")
        m.emit("ireturn")

    stepper = interface("jkb/IStep", [("step", "(I)I")])
    local = ClassAssembler("jkb/Local", interfaces=("jkb/IStep",))
    _constructor(local)
    with local.method("step", "(I)I") as m:
        m.emit("iload", 1)
        m.emit("iconst", 1)
        m.emit("iadd")
        m.emit("ireturn")

    driver = ClassAssembler("jkb/Driver")

    def count(m, i, acc):
        m.emit("iinc", acc, 1)

    def null_op(m, i, acc):
        m.emit("aload", 0)
        m.emit("invokeinterface", "jkb/IRemote", "nullOp", "()V")
        m.emit("iinc", acc, 1)

    def add3(m, i, acc):
        m.emit("iload", acc)
        m.emit("aload", 0)
        m.emit("iload", i)
        m.emit("iload", 1)
        m.emit("iload", 2)
        m.emit("invokeinterface", "jkb/IRemote", "add3", "(III)I")
        m.emit("iadd")
        m.emit("istore", acc)

    def virtual(m, i, acc):
        m.emit("aload", 0)
        m.emit("iload", acc)
        m.emit("invokevirtual", "jkb/Local", "step", "(I)I")
        m.emit("istore", acc)

    def iface(m, i, acc):
        m.emit("aload", 1)
        m.emit("iload", acc)
        m.emit("invokeinterface", "jkb/IStep", "step", "(I)I")
        m.emit("istore", acc)

    def lock(m, i, acc):
        m.emit("aload", 2)
        m.emit("monitorenter")
        m.emit("aload", 2)
        m.emit("monitorexit")

    def local_mix(m, i, acc):
        virtual(m, i, acc)
        iface(m, i, acc)
        lock(m, i, acc)

    shape = "(Ljkb/Local;Ljkb/IStep;Ljava/lang/Object;I)I"
    _loop(driver, "loopEmpty", "(I)I", 0, count)
    _loop(driver, "loopNull", "(Ljkb/IRemote;I)I", 1, null_op)
    _loop(driver, "loopAdd3", "(Ljkb/IRemote;III)I", 3, add3)
    _loop(driver, "loopLocal", shape, 3, local_mix)
    _loop(driver, "loopVirtual", shape, 3, virtual)
    _loop(driver, "loopIface", shape, 3, iface)
    _loop(driver, "loopLock", shape, 3, lock)
    return ([remote, target.build()],
            [stepper, local.build(), driver.build()])


class _Null(Remote):
    def null(self): ...


class _NullImpl(_Null):
    def null(self):
        return None


def _i32(value):
    return (value + 2 ** 31) % 2 ** 32 - 2 ** 31


class World:
    layers = {"vm_null": "jkvm.kernel.vm_null",
              "vm_ints3": "jkvm.kernel.vm_ints3",
              "vm_local": "jvm.threaded.vm_local"}

    def __init__(self, seed):
        self.kernel = JKernelVM(profile="sunvm")
        vm = self.vm = self.kernel.vm
        server = self.kernel.new_domain("jkb-server")
        client = self.client = self.kernel.new_domain("jkb-client")
        server_classes, client_classes = _classfiles()
        started = time.perf_counter()
        server.define(server_classes)
        client.share_from(server, "jkb/IRemote")
        client.define(client_classes)
        self.define_ms = (time.perf_counter() - started) * 1e3
        target = vm.construct(server.load("jkb/Target"),
                              domain_tag=server.tag)
        self.capability = server.create_capability(target)
        self.driver = client.load("jkb/Driver")
        self.local = vm.construct(client.load("jkb/Local"),
                                  domain_tag=client.tag)
        self.lock = vm.heap.new_object(vm.object_class, owner=client.tag)
        vm.pinned.add(self.lock)
        self.batches = {"vm_null": self._vm_null, "vm_ints3": self._vm_ints3,
                        "vm_local": self._vm_local}
        for batch in self.batches.values():  # inline caches, pooled segments
            batch(1, 2, 3)

    def close(self):
        for name in list(self.kernel.domains):
            self.kernel.terminate_domain(name)

    def _call(self, method, desc, args):
        """One guest loop on a fresh guest thread, reaped afterwards as
        an embedder has to: the scheduler keeps every terminated thread
        in ``threads`` and scans the list once per quantum, so without
        this the VM slows down linearly with the number of calls ever
        made (24 us per empty iteration after 3300 calls, against 0.8).
        Its private tid index still grows; that shows in peak_rss_mb."""
        try:
            return self.vm.call_static(self.driver, method, desc, args,
                                       domain_tag=self.client.tag,
                                       max_steps=200_000_000)
        finally:
            del self.vm.scheduler.threads[:]

    def _local_args(self, count):
        return [self.local, self.local, self.lock, count]

    # -- one checked guest loop per call class (wrong results out) ---
    def _vm_null(self, a, b, c):
        got = self._call("loopNull", "(Ljkb/IRemote;I)I",
                         [self.capability, BATCH])
        return 0 if got == BATCH else BATCH

    def _vm_ints3(self, a, b, c):
        got = self._call("loopAdd3", "(Ljkb/IRemote;III)I",
                         [self.capability, a, b, BATCH])
        expected = _i32(sum(i + a + b for i in range(BATCH)))
        return 0 if got == expected else BATCH

    def _vm_local(self, a, b, c):
        got = self._call(
            "loopLocal", "(Ljkb/Local;Ljkb/IStep;Ljava/lang/Object;I)I",
            self._local_args(BATCH))
        return 0 if got == 2 * BATCH else BATCH

    # -- Table 1's rows: guest loop minus empty loop ---
    def probe(self, timer):
        n = _PROBE_ITERATIONS
        shape = "(Ljkb/Local;Ljkb/IStep;Ljava/lang/Object;I)I"

        def per_iteration(method, desc, args):
            return timer.per_call_us(
                lambda: self._call(method, desc, args)) / n

        empty = per_iteration("loopEmpty", "(I)I", [n])

        def row(method, desc, args):
            return max(per_iteration(method, desc, args) - empty, 0.0)

        null_us = row("loopNull", "(Ljkb/IRemote;I)I", [self.capability, n])
        domain = Domain("jkbench-hosted-null")
        hosted = domain.run(lambda: Capability.create(_NullImpl()))
        try:
            hosted_null_us = timer.per_call_us(hosted.null)
        finally:
            domain.terminate()
        return {
            "jkvm.kernel.null_lrmi_us": null_us,
            "jkvm.kernel.lrmi_3int_us": row(
                "loopAdd3", "(Ljkb/IRemote;III)I",
                [self.capability, 1, 2, n]),
            "jkvm.kernel.vm_over_hosted_null": null_us / hosted_null_us,
            "jvm.threaded.invoke_virtual_us": row(
                "loopVirtual", shape, self._local_args(n)),
            "jvm.threaded.invoke_interface_us": row(
                "loopIface", shape, self._local_args(n)),
            "jvm.threaded.lock_us": row(
                "loopLock", shape, self._local_args(n)),
            "jvm.threaded.loop_iter_us": empty,
            "jvm.verifier.define_ms": self.define_ms,
        }
