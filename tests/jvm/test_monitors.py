"""Monitors under both lock implementations: mutual exclusion, reentrancy,
wait/notify, illegal states."""

import pytest

from repro.jvm import JThrowable
from repro.jvm.instructions import (
    ALOAD,
    DUP,
    GETFIELD,
    GETSTATIC,
    GOTO,
    ICONST,
    IF_ICMPGE,
    IINC,
    ILOAD,
    INVOKESTATIC,
    INVOKEVIRTUAL,
    ISTORE,
    MONITORENTER,
    MONITOREXIT,
    PUTFIELD,
    RETURN,
)
from repro.jvm.monitors import HeavyMonitorManager, ThinLockManager
from repro.jvm.threads import ThreadContext
from tests.support import PUBLIC_STATIC, assemble, fresh_vm, load_classes


@pytest.fixture(params=[ThinLockManager, HeavyMonitorManager])
def manager(request):
    return request.param()


class _FakeObj:
    __slots__ = ("lockword",)

    def __init__(self):
        self.lockword = None


class TestManagerUnit:
    def test_enter_exit(self, manager):
        obj = _FakeObj()
        thread = ThreadContext("t1")
        assert manager.try_enter(obj, thread)
        assert manager.owner(obj) is thread
        assert manager.exit(obj, thread) == []
        assert manager.owner(obj) is None

    def test_reentrancy(self, manager):
        obj = _FakeObj()
        thread = ThreadContext("t1")
        assert manager.try_enter(obj, thread)
        assert manager.try_enter(obj, thread)
        assert manager.exit(obj, thread) == []
        assert manager.owner(obj) is thread  # still held once
        assert manager.exit(obj, thread) == []
        assert manager.owner(obj) is None

    def test_contention_queues(self, manager):
        obj = _FakeObj()
        first = ThreadContext("t1")
        second = ThreadContext("t2")
        assert manager.try_enter(obj, first)
        assert not manager.try_enter(obj, second)
        woken = manager.exit(obj, first)
        assert woken == [second]
        assert manager.try_enter(obj, second)

    def test_exit_without_ownership_signalled(self, manager):
        obj = _FakeObj()
        thread = ThreadContext("t1")
        assert manager.exit(obj, thread) is None
        other = ThreadContext("t2")
        manager.try_enter(obj, other)
        assert manager.exit(obj, thread) is None

    def test_wait_releases_fully(self, manager):
        obj = _FakeObj()
        waiter = ThreadContext("w")
        other = ThreadContext("o")
        manager.try_enter(obj, waiter)
        manager.try_enter(obj, waiter)  # recursion 2
        saved, woken = manager.release_for_wait(obj, waiter)
        assert saved == 2
        assert manager.owner(obj) is None
        assert manager.try_enter(obj, other)
        ok, notified = manager.notify(obj, other)
        assert ok and notified == [waiter]
        manager.exit(obj, other)
        assert manager.reacquire_after_wait(obj, waiter, saved)
        assert manager.owner(obj) is waiter

    def test_notify_requires_ownership(self, manager):
        obj = _FakeObj()
        thread = ThreadContext("t")
        ok, _ = manager.notify(obj, thread)
        assert not ok

    def test_discard_cleans_queues(self, manager):
        obj = _FakeObj()
        owner = ThreadContext("o")
        blocked = ThreadContext("b")
        manager.try_enter(obj, owner)
        manager.try_enter(obj, blocked)
        assert manager.discard(blocked) == []
        assert manager.exit(obj, owner) == []

    def test_discard_returns_waiters_of_freed_monitors(self, manager):
        obj = _FakeObj()
        owner = ThreadContext("o")
        blocked = ThreadContext("b")
        manager.try_enter(obj, owner)
        manager.try_enter(obj, owner)  # recursion 2: still freed at once
        assert not manager.try_enter(obj, blocked)
        assert manager.discard(owner) == [blocked]
        assert manager.owner(obj) is None
        assert manager.try_enter(obj, blocked)


def _locked_counter_classfile():
    """Thread subclass incrementing a shared counter under its monitor."""
    def build(ca):
        with ca.method("run", "()V") as m:
            m.emit(ICONST, 0)
            m.emit(ISTORE, 1)
            loop = m.here()
            m.emit(ILOAD, 1)
            m.emit(ICONST, 100)
            done = m.label()
            m.emit(IF_ICMPGE, done)
            m.emit(ALOAD, 0)
            m.emit(GETFIELD, "m/Inc", "shared")
            m.emit(MONITORENTER)
            # counter.count++ (under the lock)
            m.emit(ALOAD, 0)
            m.emit(GETFIELD, "m/Inc", "shared")
            m.emit(DUP)
            m.emit(GETFIELD, "m/Counter", "count")
            m.emit(ICONST, 1)
            m.emit("iadd")
            m.emit(PUTFIELD, "m/Counter", "count")
            m.emit(INVOKESTATIC, "java/lang/Thread", "yield", "()V")
            m.emit(ALOAD, 0)
            m.emit(GETFIELD, "m/Inc", "shared")
            m.emit(MONITOREXIT)
            m.emit(IINC, 1, 1)
            m.emit(GOTO, loop.pc)
            m.mark(done)
            m.emit(RETURN)

    return assemble("m/Inc", build, super_name="java/lang/Thread",
                    fields=[("shared", "Lm/Counter;")])


class TestGuestMonitors:
    def test_mutual_exclusion_under_contention(self, vm):
        counter_cf = assemble("m/Counter", None, fields=[("count", "I")])
        inc_cf = _locked_counter_classfile()
        loader = load_classes(vm, [counter_cf, inc_cf], "monitors")
        counter_class = loader.load("m/Counter")
        inc_class = loader.load("m/Inc")
        counter = vm.construct(counter_class)
        threads = []
        for _ in range(3):
            thread = vm.construct(inc_class)
            thread.fields[inc_class.field_slots["shared"]] = counter
            threads.append(thread)
        for thread in threads:
            vm.call_virtual(thread, "start", "()V")
        vm.scheduler.run(max_steps=50_000_000)
        count = counter.fields[counter_class.field_slots["count"]]
        assert count == 300

    def test_monitorexit_not_owner_throws(self, vm):
        def build(ca):
            with ca.method("bad", "(Ljava/lang/Object;)V",
                           PUBLIC_STATIC) as m:
                m.emit(ALOAD, 0)
                m.emit(MONITOREXIT)
                m.emit(RETURN)

        cf = assemble("m/Bad", build)
        loader = load_classes(vm, [cf], "monitors")
        obj = vm.heap.new_object(vm.object_class)
        with pytest.raises(JThrowable) as info:
            vm.call_static(loader.load("m/Bad"), "bad",
                           "(Ljava/lang/Object;)V", [obj])
        assert "IllegalMonitorState" in str(info.value)

    def test_monitorenter_null_throws(self, vm):
        def build(ca):
            with ca.method("bad", "(Ljava/lang/Object;)V",
                           PUBLIC_STATIC) as m:
                m.emit(ALOAD, 0)
                m.emit(MONITORENTER)
                m.emit(ALOAD, 0)
                m.emit(MONITOREXIT)
                m.emit(RETURN)

        cf = assemble("m/Null", build)
        loader = load_classes(vm, [cf], "monitors")
        with pytest.raises(JThrowable) as info:
            vm.call_static(loader.load("m/Null"), "bad",
                           "(Ljava/lang/Object;)V", [None])
        assert "NullPointerException" in str(info.value)

    def test_wait_notify_roundtrip(self, vm):
        """Producer waits, consumer notifies."""
        def build_waiter(ca):
            with ca.method("run", "()V") as m:
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "m/Waiter", "lock")
                m.emit(MONITORENTER)
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "m/Waiter", "lock")
                m.emit(INVOKEVIRTUAL, "java/lang/Object", "wait", "()V")
                m.emit(ALOAD, 0)
                m.emit(ICONST, 1)
                m.emit(PUTFIELD, "m/Waiter", "woken")
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "m/Waiter", "lock")
                m.emit(MONITOREXIT)
                m.emit(RETURN)

        def build_notifier(ca):
            with ca.method("run", "()V") as m:
                # give the waiter time to enter wait()
                m.emit(ICONST, 500)
                m.emit(INVOKESTATIC, "java/lang/Thread", "sleep", "(I)V")
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "m/Notifier", "lock")
                m.emit(MONITORENTER)
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "m/Notifier", "lock")
                m.emit(INVOKEVIRTUAL, "java/lang/Object", "notify", "()V")
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "m/Notifier", "lock")
                m.emit(MONITOREXIT)
                m.emit(RETURN)

        waiter_cf = assemble(
            "m/Waiter", build_waiter, super_name="java/lang/Thread",
            fields=[("lock", "Ljava/lang/Object;"), ("woken", "I")],
        )
        notifier_cf = assemble(
            "m/Notifier", build_notifier, super_name="java/lang/Thread",
            fields=[("lock", "Ljava/lang/Object;")],
        )
        loader = load_classes(vm, [waiter_cf, notifier_cf], "monitors")
        waiter_class = loader.load("m/Waiter")
        notifier_class = loader.load("m/Notifier")
        lock = vm.heap.new_object(vm.object_class)
        waiter = vm.construct(waiter_class)
        waiter.fields[waiter_class.field_slots["lock"]] = lock
        notifier = vm.construct(notifier_class)
        notifier.fields[notifier_class.field_slots["lock"]] = lock
        vm.call_virtual(waiter, "start", "()V")
        vm.call_virtual(notifier, "start", "()V")
        vm.scheduler.run()
        assert waiter.fields[waiter_class.field_slots["woken"]] == 1

    def test_wait_without_ownership_throws(self, vm):
        def build(ca):
            with ca.method("bad", "(Ljava/lang/Object;)V",
                           PUBLIC_STATIC) as m:
                m.emit(ALOAD, 0)
                m.emit(INVOKEVIRTUAL, "java/lang/Object", "wait", "()V")
                m.emit(RETURN)

        cf = assemble("m/NoOwn", build)
        loader = load_classes(vm, [cf], "monitors")
        obj = vm.heap.new_object(vm.object_class)
        with pytest.raises(JThrowable) as info:
            vm.call_static(loader.load("m/NoOwn"), "bad",
                           "(Ljava/lang/Object;)V", [obj])
        assert "IllegalMonitorState" in str(info.value)


def _listed_objects(monitors):
    """The objects a monitor manager keeps a monitor for."""
    if isinstance(monitors, ThinLockManager):
        return list(monitors._inflated)
    return [holder for _, holder in monitors._registry.values()]


class TestMonitorPruning:
    def test_collection_forgets_freed_objects_monitors(self, vm):
        """Locking 1 000 fresh objects lists 1 000 monitors; once the
        objects are collected, none of their monitors stays listed."""
        def build(ca):
            with ca.method("lockMany", "(I)V", PUBLIC_STATIC) as m:
                m.emit(ICONST, 0)
                m.emit(ISTORE, 1)
                loop = m.here()
                m.emit(ILOAD, 1)
                m.emit(ILOAD, 0)
                done = m.label()
                m.emit(IF_ICMPGE, done)
                m.emit("new", "java/lang/Object")
                m.emit(DUP)
                m.emit("invokespecial", "java/lang/Object", "<init>", "()V")
                m.emit(DUP)
                m.emit(MONITORENTER)
                m.emit(MONITOREXIT)
                m.emit(IINC, 1, 1)
                m.emit(GOTO, loop.pc)
                m.mark(done)
                m.emit(RETURN)

        loader = load_classes(vm, [assemble("m/Many", build)], "monitors")
        kept = vm.heap.new_object(vm.object_class)
        vm.pinned.add(kept)
        assert vm.monitors.try_enter(kept, ThreadContext("host"))
        vm.call_static(loader.load("m/Many"), "lockMany", "(I)V", [1000])
        assert len(_listed_objects(vm.monitors)) == 1001
        stats = vm.collect()
        assert stats["collected"] >= 1000
        assert _listed_objects(vm.monitors) == [kept]
        assert vm.monitors.owner(kept) is not None
