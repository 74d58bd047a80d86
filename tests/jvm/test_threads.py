"""Green threads: scheduling, yield, sleep, priorities, stop/suspend,
join, deadlock detection."""

import pytest

from repro.jvm import DeadlockError, JThrowable, MapResolver, OutOfStepsError
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
    INVOKESPECIAL,
    INVOKESTATIC,
    IRETURN,
    ISTORE,
    MONITORENTER,
    MONITOREXIT,
    PUTFIELD,
    PUTSTATIC,
    RETURN,
)
from tests.support import (
    PUBLIC_STATIC,
    assemble,
    fresh_vm,
    load_classes,
)


def counting_thread_class(name, limit, do_yield=True):
    """A Thread subclass whose run() increments its 'n' field."""
    def build(ca):
        with ca.method("run", "()V") as m:
            m.emit(ICONST, 0)
            m.emit(ISTORE, 1)
            loop = m.here()
            m.emit(ILOAD, 1)
            m.emit(ICONST, limit)
            done = m.label()
            m.emit(IF_ICMPGE, done)
            m.emit(ALOAD, 0)
            m.emit(DUP)
            m.emit(GETFIELD, name, "n")
            m.emit(ICONST, 1)
            m.emit("iadd")
            m.emit(PUTFIELD, name, "n")
            if do_yield:
                m.emit(INVOKESTATIC, "java/lang/Thread", "yield", "()V")
            m.emit(IINC, 1, 1)
            m.emit(GOTO, loop.pc)
            m.mark(done)
            m.emit(RETURN)

    return assemble(name, build, super_name="java/lang/Thread",
                    fields=[("n", "I")])


def joiner_thread_class(name):
    """A Thread subclass whose run() joins its 'target', then sets 'done'."""
    def build(ca):
        with ca.method("run", "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(GETFIELD, name, "target")
            m.emit("invokevirtual", "java/lang/Thread", "join", "()V")
            m.emit(ALOAD, 0)
            m.emit(ICONST, 1)
            m.emit(PUTFIELD, name, "done")
            m.emit(RETURN)

    return assemble(
        name, build, super_name="java/lang/Thread",
        fields=[("target", "Ljava/lang/Thread;"), ("done", "I")],
    )


def field_of(vm, obj, name):
    return obj.fields[obj.jclass.field_slots[name]]


class TestBasicScheduling:
    def test_two_threads_interleave(self, vm):
        cf = counting_thread_class("t/Count", 10)
        loader = load_classes(vm, [cf], "threads")
        rtclass = loader.load("t/Count")
        first = vm.construct(rtclass)
        second = vm.construct(rtclass)
        vm.call_virtual(first, "start", "()V")
        vm.call_virtual(second, "start", "()V")
        before = vm.scheduler.context_switches
        vm.scheduler.run()
        assert field_of(vm, first, "n") == 10
        assert field_of(vm, second, "n") == 10
        assert vm.scheduler.context_switches - before >= 10

    def test_double_start_rejected(self, vm):
        cf = counting_thread_class("t/Once", 1, do_yield=False)
        loader = load_classes(vm, [cf], "threads")
        thread = vm.construct(loader.load("t/Once"))
        vm.call_virtual(thread, "start", "()V")
        with pytest.raises(JThrowable) as info:
            vm.call_virtual(thread, "start", "()V")
        assert "IllegalStateException" in str(info.value)

    def test_is_alive_lifecycle(self, vm):
        cf = counting_thread_class("t/Alive", 5)
        loader = load_classes(vm, [cf], "threads")
        thread = vm.construct(loader.load("t/Alive"))
        assert vm.call_virtual(thread, "isAlive", "()Z") == 0
        vm.call_virtual(thread, "start", "()V")
        assert vm.call_virtual(thread, "isAlive", "()Z") == 1
        vm.scheduler.run()
        assert vm.call_virtual(thread, "isAlive", "()Z") == 0

    def test_sleep_delays_completion(self, vm):
        def build(ca):
            with ca.method("run", "()V") as m:
                m.emit(ICONST, 500)
                m.emit(INVOKESTATIC, "java/lang/Thread", "sleep", "(I)V")
                m.emit(ALOAD, 0)
                m.emit(ICONST, 1)
                m.emit(PUTFIELD, "t/Sleeper", "n")
                m.emit(RETURN)

        cf = assemble("t/Sleeper", build, super_name="java/lang/Thread",
                      fields=[("n", "I")])
        loader = load_classes(vm, [cf], "threads")
        thread = vm.construct(loader.load("t/Sleeper"))
        vm.call_virtual(thread, "start", "()V")
        start_tick = vm.scheduler.tick
        vm.scheduler.run()
        assert field_of(vm, thread, "n") == 1
        assert vm.scheduler.tick - start_tick >= 500


class TestPriorities:
    def test_higher_priority_runs_first(self, vm):
        """With no yields, the higher-priority thread finishes first."""
        cf = counting_thread_class("t/Prio", 50, do_yield=False)
        order_cf = assemble(
            "t/Order", None, fields=[("first", "I", PUBLIC_STATIC)]
        )

        def build_recorder(ca):
            with ca.method("run", "()V") as m:
                # if Order.first == 0: Order.first = marker
                m.emit(GETSTATIC, "t/Order", "first")
                done = m.label()
                m.emit("ifne", done)
                m.emit(ALOAD, 0)
                m.emit(GETFIELD, "t/Rec", "marker")
                m.emit(PUTSTATIC, "t/Order", "first")
                m.mark(done)
                m.emit(RETURN)

        recorder = assemble("t/Rec", build_recorder,
                            super_name="java/lang/Thread",
                            fields=[("marker", "I")])
        loader = load_classes(vm, [cf, order_cf, recorder], "threads")
        rec_class = loader.load("t/Rec")
        low = vm.construct(rec_class)
        low.fields[rec_class.field_slots["marker"]] = 1
        high = vm.construct(rec_class)
        high.fields[rec_class.field_slots["marker"]] = 2
        vm.call_virtual(low, "start", "()V")
        vm.call_virtual(high, "start", "()V")
        vm.call_virtual(low, "setPriority", "(I)V", [2])
        vm.call_virtual(high, "setPriority", "(I)V", [9])
        vm.scheduler.run()
        order_class = loader.load("t/Order")
        assert order_class.static_slots[order_class.static_index["first"]] == 2

    def test_priority_clamped(self, vm):
        cf = counting_thread_class("t/Clamp", 1)
        loader = load_classes(vm, [cf], "threads")
        thread = vm.construct(loader.load("t/Clamp"))
        vm.call_virtual(thread, "start", "()V")
        vm.call_virtual(thread, "setPriority", "(I)V", [99])
        assert vm.call_virtual(thread, "getPriority", "()I") == 10
        vm.call_virtual(thread, "setPriority", "(I)V", [-5])
        assert vm.call_virtual(thread, "getPriority", "()I") == 1
        vm.scheduler.run()


class TestStopSuspend:
    def test_stop_kills_thread(self, vm):
        cf = counting_thread_class("t/Stopme", 1_000_000)
        loader = load_classes(vm, [cf], "threads")
        thread = vm.construct(loader.load("t/Stopme"))
        vm.call_virtual(thread, "start", "()V")
        vm.scheduler.run_for(2000)  # let it make some progress
        vm.call_virtual(thread, "stop", "()V")
        vm.scheduler.run()
        context = thread.native
        assert context.state == "TERMINATED"
        assert context.uncaught is not None
        assert context.uncaught.jclass.name == "java/lang/ThreadDeath"
        assert field_of(vm, thread, "n") < 1_000_000

    def test_suspend_pauses_resume_continues(self, vm):
        cf = counting_thread_class("t/Susp", 10_000)
        loader = load_classes(vm, [cf], "threads")
        thread = vm.construct(loader.load("t/Susp"))
        vm.call_virtual(thread, "start", "()V")
        vm.scheduler.run_for(500)
        vm.call_virtual(thread, "suspend", "()V")
        progress = field_of(vm, thread, "n")
        # scheduler returns because the only live thread is suspended
        vm.scheduler.run_for(5000)
        assert field_of(vm, thread, "n") == progress
        vm.call_virtual(thread, "resume", "()V")
        vm.scheduler.run_for(200_000)
        assert field_of(vm, thread, "n") > progress

    def test_join_waits_for_target(self, vm):
        joiner_cf = joiner_thread_class("t/Joiner")
        worker_cf = counting_thread_class("t/Worked", 200)
        loader = load_classes(vm, [joiner_cf, worker_cf], "threads")
        worker = vm.construct(loader.load("t/Worked"))
        joiner_class = loader.load("t/Joiner")
        joiner = vm.construct(joiner_class)
        joiner.fields[joiner_class.field_slots["target"]] = worker
        vm.call_virtual(worker, "start", "()V")
        vm.call_virtual(joiner, "start", "()V")
        vm.scheduler.run()
        assert field_of(vm, joiner, "done") == 1
        assert field_of(vm, worker, "n") == 200


class TestDeadlock:
    def test_self_deadlock_detected(self, vm):
        """A thread blocking on a monitor nobody will release."""
        lock_holder_cf = counting_thread_class("t/Holder", 1, do_yield=False)

        def build(ca):
            with ca.method("run", "()V") as m:
                # enter the lock twice from two different threads: the
                # second blocks forever.
                m.emit(GETSTATIC, "t/Blocker", "lock")
                m.emit(MONITORENTER)
                m.emit(ICONST, 1_000_000)
                m.emit(INVOKESTATIC, "java/lang/Thread", "sleep", "(I)V")
                m.emit(GETSTATIC, "t/Blocker", "lock")
                m.emit(MONITOREXIT)
                m.emit(RETURN)

        blocker_cf = assemble(
            "t/Blocker", build, super_name="java/lang/Thread",
            fields=[("lock", "Ljava/lang/Object;", PUBLIC_STATIC)],
        )
        loader = load_classes(vm, [lock_holder_cf, blocker_cf], "threads")
        blocker_class = loader.load("t/Blocker")
        lock = vm.heap.new_object(vm.object_class)
        blocker_class.static_slots[blocker_class.static_index["lock"]] = lock
        # Host grabs the lock on a fake thread; guest blocks forever.
        from repro.jvm.threads import ThreadContext

        host_thread = ThreadContext("host-holder")
        assert vm.monitors.try_enter(lock, host_thread)
        guest = vm.construct(blocker_class)
        vm.call_virtual(guest, "start", "()V")
        with pytest.raises(DeadlockError):
            vm.scheduler.run(max_steps=100_000)

    def test_current_thread_identity(self, vm):
        def build(ca):
            with ca.method("self", "()Ljava/lang/Thread;",
                           PUBLIC_STATIC) as m:
                m.emit(INVOKESTATIC, "java/lang/Thread", "currentThread",
                       "()Ljava/lang/Thread;")
                m.emit("areturn")

        cf = assemble("t/Current", build)
        loader = load_classes(vm, [cf], "threads")
        result = vm.call_static(loader.load("t/Current"), "self",
                                "()Ljava/lang/Thread;", [])
        assert result is not None
        assert result.jclass.name == "java/lang/Thread"


def lifecycle_class():
    """Static, virtual and throwing methods for the reaping tests."""
    def build(ca):
        with ca.method("add", "(II)I", PUBLIC_STATIC) as m:
            m.emit(ILOAD, 0)
            m.emit(ILOAD, 1)
            m.emit("iadd")
            m.emit(IRETURN)
        with ca.method("make", "()Ljava/lang/Object;", PUBLIC_STATIC) as m:
            m.emit("new", "java/lang/Object")
            m.emit(DUP)
            m.emit(INVOKESPECIAL, "java/lang/Object", "<init>", "()V")
            m.emit("areturn")
        with ca.method("boom", "()V", PUBLIC_STATIC) as m:
            m.emit("new", "java/lang/IllegalStateException")
            m.emit(DUP)
            m.emit(INVOKESPECIAL, "java/lang/IllegalStateException",
                   "<init>", "()V")
            m.emit("athrow")
        with ca.method("spin", "(Ljava/lang/Object;)V", PUBLIC_STATIC) as m:
            m.emit(ALOAD, 0)
            m.emit(MONITORENTER)
            loop = m.here()
            m.emit(GOTO, loop.pc)
        with ca.method("count", "(I)I", PUBLIC_STATIC) as m:
            m.emit(ICONST, 0)
            m.emit(ISTORE, 1)
            loop = m.here()
            m.emit(ILOAD, 1)
            m.emit(ILOAD, 0)
            done = m.label()
            m.emit(IF_ICMPGE, done)
            m.emit(IINC, 1, 1)
            m.emit(GOTO, loop.pc)
            m.mark(done)
            m.emit(ILOAD, 1)
            m.emit(IRETURN)
        with ca.method("get", "()I") as m:
            m.emit(ALOAD, 0)
            m.emit(GETFIELD, "t/Life", "n")
            m.emit(IRETURN)

    return assemble("t/Life", build, fields=[("n", "I")])


class TestLifecycle:
    """The scheduler holds live threads only: a thread is reaped when it
    terminates, and a call that runs out of steps is ended, not left
    running."""

    @pytest.fixture()
    def life(self, vm):
        return load_classes(vm, [lifecycle_class()], "life").load("t/Life")

    def test_calls_leave_no_threads_behind(self, vm, life):
        for i in range(500):
            assert vm.call_static(life, "add", "(II)I", [i, 1]) == i + 1
            box = vm.construct(life)
            assert vm.call_virtual(box, "get", "()I") == 0
            with pytest.raises(JThrowable, match="IllegalState"):
                vm.call_static(life, "boom", "()V")
        assert vm.scheduler.threads == []
        assert vm.scheduler._by_tid == {}

    def test_unpinned_result_is_collected(self, vm, life):
        kept = vm.call_static(life, "make", "()Ljava/lang/Object;")
        vm.pinned.add(kept)
        dropped = vm.call_static(life, "make", "()Ljava/lang/Object;")
        vm.collect()
        assert vm.heap.contains(kept)
        assert not vm.heap.contains(dropped)

    def test_lookups_agree_after_reap(self, vm, life):
        scheduler = vm.scheduler
        assert vm.call_static(life, "add", "(II)I", [2, 3]) == 5
        answers = set()
        for lookup in ("cached", "hashed"):
            scheduler.thread_lookup = lookup
            answers.add(scheduler.current_thread())
        assert answers == {None}

    def test_join_and_is_alive_after_reap(self, vm):
        loader = load_classes(
            vm, [counting_thread_class("t/Reaped", 50),
                 joiner_thread_class("t/LateJoiner")], "threads",
        )
        worker = vm.construct(loader.load("t/Reaped"))
        vm.call_virtual(worker, "start", "()V")
        vm.scheduler.run()
        context = worker.native
        assert context.state == "TERMINATED"
        assert context not in vm.scheduler.threads
        assert vm.call_virtual(worker, "isAlive", "()Z") == 0
        joiner_class = loader.load("t/LateJoiner")
        joiner = vm.construct(joiner_class)
        joiner.fields[joiner_class.field_slots["target"]] = worker
        vm.call_virtual(joiner, "start", "()V")
        vm.scheduler.run(max_steps=10_000)
        assert field_of(vm, joiner, "done") == 1

    def test_out_of_steps_call_is_ended(self, vm, life):
        locks = [vm.heap.new_object(vm.object_class) for _ in range(4)]
        for lock in locks:
            with pytest.raises(OutOfStepsError):
                vm.call_static(life, "spin", "(Ljava/lang/Object;)V",
                               [lock], max_steps=1000)
        # count(1000) needs about 5 000 steps; no spinner may take a share
        assert vm.call_static(life, "count", "(I)I", [1000],
                              max_steps=20_000) == 1000
        assert vm.scheduler.threads == []
        assert all(vm.monitors.owner(lock) is None for lock in locks)


def lock_classes():
    """``t/Spinner`` takes the static lock and spins; ``t/Waiter`` takes
    it, sets ``done`` and lets it go."""
    def spinner(ca):
        with ca.method("run", "()V") as m:
            m.emit(GETSTATIC, "t/Spinner", "lock")
            m.emit(MONITORENTER)
            loop = m.here()
            m.emit(GOTO, loop.pc)

    def waiter(ca):
        with ca.method("run", "()V") as m:
            m.emit(GETSTATIC, "t/Spinner", "lock")
            m.emit(MONITORENTER)
            m.emit(ALOAD, 0)
            m.emit(ICONST, 1)
            m.emit(PUTFIELD, "t/Waiter", "done")
            m.emit(GETSTATIC, "t/Spinner", "lock")
            m.emit(MONITOREXIT)
            m.emit(RETURN)

    return [
        assemble("t/Spinner", spinner, super_name="java/lang/Thread",
                 fields=[("lock", "Ljava/lang/Object;", PUBLIC_STATIC)]),
        assemble("t/Waiter", waiter, super_name="java/lang/Thread",
                 fields=[("done", "I")]),
    ]


class TestDyingHolder:
    def test_stopped_holder_wakes_its_waiter(self, vm):
        """Stopping a lock holder frees its monitor; the thread blocked on
        it must get the lock, not be left BLOCKED until a deadlock."""
        loader = load_classes(vm, lock_classes(), "threads")
        spinner_class = loader.load("t/Spinner")
        lock = vm.heap.new_object(vm.object_class)
        vm.pinned.add(lock)
        spinner_class.static_slots[spinner_class.static_index["lock"]] = lock
        holder = vm.construct(spinner_class)
        waiter = vm.construct(loader.load("t/Waiter"))
        vm.call_virtual(holder, "start", "()V")
        vm.scheduler.run_for(200)
        assert vm.monitors.owner(lock) is holder.native
        vm.call_virtual(waiter, "start", "()V")
        vm.scheduler.run_for(200)
        assert waiter.native.state == "BLOCKED"
        vm.call_virtual(holder, "stop", "()V")
        vm.scheduler.run(max_steps=100_000)
        assert holder.native.uncaught.jclass.name == "java/lang/ThreadDeath"
        assert field_of(vm, waiter, "done") == 1
        assert vm.monitors.owner(lock) is None


def spin_classes():
    """``t/Main.main`` starts a ``t/Setter``, spins until the setter has
    set the static ``flag`` and returns it; ``t/Main.count`` increments
    the static ``n`` forever."""
    def setter(ca):
        with ca.method("run", "()V") as m:
            m.emit(ICONST, 1)
            m.emit(PUTSTATIC, "t/Main", "flag")
            m.emit(RETURN)

    def main(ca):
        with ca.method("main", "()I", PUBLIC_STATIC) as m:
            m.emit("new", "t/Setter")
            m.emit(DUP)
            m.emit(INVOKESPECIAL, "t/Setter", "<init>", "()V")
            m.emit("invokevirtual", "java/lang/Thread", "start", "()V")
            spin = m.here()
            m.emit(GETSTATIC, "t/Main", "flag")
            m.emit("ifeq", spin.pc)
            m.emit(GETSTATIC, "t/Main", "flag")
            m.emit(IRETURN)
        with ca.method("count", "()V", PUBLIC_STATIC) as m:
            top = m.here()
            m.emit(GETSTATIC, "t/Main", "n")
            m.emit(ICONST, 1)
            m.emit("iadd")
            m.emit(PUTSTATIC, "t/Main", "n")
            m.emit(GOTO, top.pc)

    return [
        assemble("t/Setter", setter, super_name="java/lang/Thread"),
        assemble("t/Main", main, fields=[("flag", "I", PUBLIC_STATIC),
                                         ("n", "I", PUBLIC_STATIC)]),
    ]


def nesting_class():
    """``t/Nest.main(n)`` passes ``n`` three times through the native
    ``nested``; ``count(n)`` counts to ``n``."""
    def build(ca):
        ca.native_method("nested", "(I)I", PUBLIC_STATIC)
        with ca.method("main", "(I)I", PUBLIC_STATIC) as m:
            for _ in range(3):
                m.emit(ILOAD, 0)
                m.emit(INVOKESTATIC, "t/Nest", "nested", "(I)I")
                m.emit(ISTORE, 0)
            m.emit(ILOAD, 0)
            m.emit(IRETURN)
        with ca.method("count", "(I)I", PUBLIC_STATIC) as m:
            m.emit(ICONST, 0)
            m.emit(ISTORE, 1)
            loop = m.here()
            m.emit(ILOAD, 1)
            m.emit(ILOAD, 0)
            done = m.label()
            m.emit(IF_ICMPGE, done)
            m.emit(IINC, 1, 1)
            m.emit(GOTO, loop.pc)
            m.mark(done)
            m.emit(ILOAD, 1)
            m.emit(IRETURN)

    return assemble("t/Nest", build)


def on_both_tiers(profile, run):
    """``run(vm)`` on a fast-tier and a generic-tier VM of ``profile``."""
    return [run(fresh_vm(profile, threaded_code=threaded))
            for threaded in (True, False)]


def retired(vm, call):
    before = vm.interpreter.instructions_retired
    return call(), vm.interpreter.instructions_retired - before


class TestLoneSlices:
    """A thread alone runs its call's whole budget in one step, which
    ends wherever another thread can run."""

    def test_a_started_thread_runs_while_its_starter_spins(self, profile):
        """The spinner's step is cut at ``Thread.start``, so the setter
        runs; the spinner alone would never give its step up."""
        def run(vm):
            main = load_classes(vm, spin_classes(), "spin").loaded("t/Main")
            return retired(vm, lambda: vm.call_static(
                main, "main", "()I", max_steps=100_000))

        fast, generic = on_both_tiers(profile, run)
        assert fast == generic
        assert fast[0] == 1

    def test_until_stops_the_run_within_a_quantum(self, vm):
        """``until`` is asked between steps: a thread alone under any
        ``until`` but ``run_thread``'s still runs one quantum a step."""
        main = load_classes(vm, spin_classes(), "spin").loaded("t/Main")
        slot = main.static_index["n"]
        counter = vm.scheduler.spawn(
            main, main.declared[("count", "()V")], [])
        vm.scheduler.run(max_steps=1_000_000,
                         until=lambda: main.static_slots[slot] >= 100)
        assert counter.alive
        # five ticks a trip; a fast-tier step overshoots by at most four
        assert main.static_slots[slot] - 100 <= (vm.scheduler.quantum
                                                 + 4) // 5

    def test_a_nested_call_leaves_the_outer_step_as_it_found_it(self,
                                                                 profile):
        """A native that runs ``vm.call_static`` mid-step: the nested run
        never steps the outer thread, and the outer step gets its current
        thread and its lone slice back."""
        def run(vm):
            nest = load_classes(vm, [nesting_class()], "nest").loaded(
                "t/Nest")
            scheduler = vm.scheduler
            kept = []

            def nested(vm, thread, args):
                def state():
                    return (scheduler.current_thread(), scheduler._stepping,
                            scheduler._lone)
                before = state()
                result = vm.call_static(nest, "count", "(I)I",
                                        [args[0] + 100])
                kept.append(before == state() and before[0] is thread)
                return result
            vm.natives.register("t/Nest", "nested", "(I)I", nested)
            outcome = retired(vm, lambda: vm.call_static(
                nest, "main", "(I)I", [1]))
            return outcome, kept, scheduler.threads

        fast, generic = on_both_tiers(profile, run)
        assert fast == generic
        assert fast == ((301, fast[0][1]), [True] * 3, [])
