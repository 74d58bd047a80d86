"""Concurrency stress for pooled VM thread segments.

Many guest threads hammer cross-domain calls while a guest revoker thread
revokes a capability mid-traffic.  The properties under test:

* pooled ``_VMSegment`` reuse never leaks across threads or overlaps —
  at every scheduler slice, each live segment object sits on exactly one
  thread's stack, pooled segments are retired (dead incarnation) and
  disjoint from every active stack;
* ``jk/RevokedException`` is the *only* failure mode guest code observes
  (workers catch it; nothing else may unwind a worker);
* after the storm every thread is terminated with a balanced segment
  stack and its original domain tag.
"""

import pytest

from repro.jkvm import JKernelVM
from repro.jvm import ClassAssembler, interface
from repro.jvm.classfile import CONSTRUCTOR_NAME
from repro.jvm.instructions import (
    ALOAD,
    CHECKCAST,
    GETFIELD,
    GOTO,
    IADD,
    ICONST,
    IF_ICMPGE,
    IINC,
    ILOAD,
    INVOKEINTERFACE,
    INVOKESPECIAL,
    INVOKESTATIC,
    INVOKEVIRTUAL,
    IRETURN,
    ISTORE,
    POP,
    PUTFIELD,
    RETURN,
)
from tests.support import spawned_threads

IFACE = "svc/IStress"
WORKERS = 6
CALLS_PER_WORKER = 40


def _service_classfiles():
    iface = interface(IFACE, [("ping", "()I")], extends=("jk/Remote",))
    impl = ClassAssembler("svc/StressImpl", interfaces=(IFACE, "jk/Remote"))
    with impl.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with impl.method("ping", "()I") as m:
        m.emit(ICONST, 99)
        m.emit(IRETURN)
    return [iface, impl.build()]


def _worker_classfile():
    """``cap`` is hammered and may be revoked mid-run; ``stable`` must
    stay callable.  Catches RevokedException, records it, and keeps
    hammering the stable capability so traffic continues post-revocation.
    """
    ca = ClassAssembler("cl/Worker", super_name="java/lang/Thread")
    ca.field("cap", f"L{IFACE};")
    ca.field("stable", f"L{IFACE};")
    ca.field("ok", "I")
    ca.field("sawRevoked", "I")
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Thread", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method("run", "()V") as m:
        m.emit(ICONST, 0)
        m.emit(ISTORE, 1)
        loop = m.here()
        m.emit(ILOAD, 1)
        m.emit(ICONST, CALLS_PER_WORKER)
        done = m.label("done")
        m.emit(IF_ICMPGE, done)
        try_start = m.here()
        m.emit(ALOAD, 0)
        m.emit(GETFIELD, "cl/Worker", "cap")
        m.emit(INVOKEINTERFACE, IFACE, "ping", "()I")
        m.emit(POP)
        # success: ok += 1
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 0)
        m.emit(GETFIELD, "cl/Worker", "ok")
        m.emit(ICONST, 1)
        m.emit(IADD)
        m.emit(PUTFIELD, "cl/Worker", "ok")
        try_end = m.here()
        next_round = m.label("next")
        m.emit(GOTO, next_round)
        handler = m.here()
        # revoked: record it, swap in the stable capability, keep going
        m.emit(POP)
        m.emit(ALOAD, 0)
        m.emit(ICONST, 1)
        m.emit(PUTFIELD, "cl/Worker", "sawRevoked")
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 0)
        m.emit(GETFIELD, "cl/Worker", "stable")
        m.emit(PUTFIELD, "cl/Worker", "cap")
        m.mark(next_round)
        m.emit(IINC, 1, 1)
        m.emit(GOTO, loop.pc)
        m.handler(try_start, try_end, handler, "jk/RevokedException")
        m.mark(done)
        m.emit(RETURN)
    return ca.build()


def _revoker_classfile():
    ca = ClassAssembler("cl/Revoker", super_name="java/lang/Thread")
    ca.field("victim", "Ljk/Capability;")
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Thread", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method("run", "()V") as m:
        # let the workers get going, then revoke mid-traffic
        m.emit(ICONST, 0)
        m.emit(ISTORE, 1)
        loop = m.here()
        m.emit(ILOAD, 1)
        m.emit(ICONST, 4)
        done = m.label("done")
        m.emit(IF_ICMPGE, done)
        m.emit(INVOKESTATIC, "java/lang/Thread", "yield", "()V")
        m.emit(IINC, 1, 1)
        m.emit(GOTO, loop.pc)
        m.mark(done)
        m.emit(ALOAD, 0)
        m.emit(GETFIELD, "cl/Revoker", "victim")
        m.emit(INVOKEVIRTUAL, "jk/Capability", "revoke", "()V")
        m.emit(RETURN)
    return ca.build()


def _set_field(obj, name, value):
    obj.fields[obj.jclass.field_slots[name]] = value


def _get_field(obj, name):
    return obj.fields[obj.jclass.field_slots[name]]


def _assert_no_stale_segment_reuse(threads):
    """Every live segment is on exactly one stack with a live incarnation;
    every pooled segment is retired and on no stack."""
    active_ids = set()
    for thread in threads:
        for segment in thread.segments:
            assert segment.state[0], "dead incarnation on an active stack"
            assert id(segment) not in active_ids, (
                "one segment object active on two stacks"
            )
            active_ids.add(id(segment))
    for thread in threads:
        for segment in thread.segment_pool:
            assert not segment.state[0], "pooled segment still live"
            assert id(segment) not in active_ids, (
                "pooled segment simultaneously on an active stack"
            )


@pytest.mark.parametrize("profile", ["msvm", "sunvm"])
def test_pooled_segments_under_revocation_storm(profile):
    kernel = JKernelVM(profile=profile)
    vm = kernel.vm
    server = kernel.new_domain("server")
    client = kernel.new_domain("client")
    server.define(_service_classfiles())
    target = vm.construct(server.load("svc/StressImpl"),
                          domain_tag=server.tag)
    victim = server.create_capability(target)
    stable = server.create_capability(target)
    client.share_from(server, IFACE)
    client.define([_worker_classfile(), _revoker_classfile()])

    workers = []
    for _ in range(WORKERS):
        worker = vm.construct(client.load("cl/Worker"),
                              domain_tag=client.tag)
        _set_field(worker, "cap", victim)
        _set_field(worker, "stable", stable)
        vm.pinned.add(worker)
        vm.call_virtual(worker, "start", "()V", domain_tag=client.tag)
        workers.append(worker)
    revoker = vm.construct(client.load("cl/Revoker"),
                           domain_tag=client.tag)
    _set_field(revoker, "victim", victim)
    vm.pinned.add(revoker)
    vm.call_virtual(revoker, "start", "()V", domain_tag=client.tag)

    contexts = [w.native for w in workers] + [revoker.native]
    # drive in slices, checking the reuse invariants mid-flight
    for _ in range(400):
        if all(not c.alive for c in contexts):
            break
        vm.scheduler.run_for(300)
        _assert_no_stale_segment_reuse(vm.scheduler.threads)
    assert all(not c.alive for c in contexts), "storm did not finish"

    # RevokedException is the only failure mode — and it was caught, so
    # no worker may have died with anything uncaught.
    for context in contexts:
        assert context.uncaught is None
        assert not context.segments
        assert context.domain_tag == client.tag

    total_ok = sum(_get_field(w, "ok") for w in workers)
    saw_revoked = [w for w in workers if _get_field(w, "sawRevoked")]
    # every round either succeeded or was the (single) caught revocation
    assert total_ok + len(saw_revoked) == WORKERS * CALLS_PER_WORKER
    # the revoker really interrupted live traffic
    assert saw_revoked
    # the victim really is dead, the stable capability really is alive
    assert vm.call_virtual(victim, "isRevoked", "()Z") == 1
    assert vm.call_virtual(stable, "isRevoked", "()Z") == 0


@pytest.mark.parametrize("profile", ["msvm", "sunvm"])
def test_segment_pool_reuse_is_bounded_and_recycled(profile):
    """A deep burst of sequential LRMIs must recycle pooled segments
    instead of growing the pool or allocating per call."""
    kernel = JKernelVM(profile=profile)
    vm = kernel.vm
    server = kernel.new_domain("server")
    client = kernel.new_domain("client")
    server.define(_service_classfiles())
    target = vm.construct(server.load("svc/StressImpl"),
                          domain_tag=server.tag)
    cap = server.create_capability(target)
    client.share_from(server, IFACE)

    driver = ClassAssembler("cl/Burst")
    with driver.method("burst", f"(L{IFACE};I)I", 0x0009) as m:
        m.emit(ICONST, 0)
        m.emit(ISTORE, 2)
        loop = m.here()
        m.emit(ILOAD, 2)
        m.emit(ILOAD, 1)
        done = m.label("done")
        m.emit(IF_ICMPGE, done)
        m.emit(ALOAD, 0)
        m.emit(INVOKEINTERFACE, IFACE, "ping", "()I")
        m.emit(POP)
        m.emit(IINC, 2, 1)
        m.emit(GOTO, loop.pc)
        m.mark(done)
        m.emit(ILOAD, 2)
        m.emit(IRETURN)
    client.define([driver.build()])
    with spawned_threads(vm) as threads:
        result = vm.call_static(client.load("cl/Burst"), "burst",
                                f"(L{IFACE};I)I", [cap, 200],
                                domain_tag=client.tag)
    assert result == 200
    burst_thread = threads[-1]
    # one non-nested call chain: exactly one pooled segment, reused 200x
    assert len(burst_thread.segment_pool) == 1
    assert not burst_thread.segment_pool[0].state[0]
    assert not burst_thread.segments
