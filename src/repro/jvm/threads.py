"""Green threads and the scheduler.

The MiniJVM multiplexes guest threads onto the host thread that calls
:meth:`Scheduler.run`, exactly as a user-level threads package would.  Time
is measured in *ticks* (instructions executed).  The scheduler supports
priorities, suspension, asynchronous stop (the ``Thread.stop`` the paper's
thread-segment design defends against), sleeping and deadlock detection.

The paper's Table 1 row "thread info lookup" is the cost of finding the
current thread; VM profiles select between a hashed lookup with validation
(MS-VM-like) and a cached pointer (Sun-VM-like) — see ``current_thread``.

The scheduler holds live threads only (a thread is reaped when it
terminates), so a host that keeps a guest object a call returned must add
it to ``vm.pinned`` for it to survive a collection.
"""

from __future__ import annotations

from .errors import DeadlockError, OutOfStepsError
from .values import default_value, parse_method_descriptor

NEW = "NEW"
RUNNABLE = "RUNNABLE"
BLOCKED = "BLOCKED"  # contended monitor
WAITING = "WAITING"  # Object.wait / join
TIMED_WAITING = "TIMED_WAITING"  # sleep / timed wait
TERMINATED = "TERMINATED"

MIN_PRIORITY = 1
NORM_PRIORITY = 5
MAX_PRIORITY = 10


class Frame:
    """One activation record of guest code.

    On the generic tier a frame holds every activation.  On the fast tier
    (:mod:`repro.jvm.frameless`) a method's function holds its state in
    Python locals and writes it into a frame only where it spills, at a
    resume entry; the interpreter resumes the function from there.
    """

    __slots__ = ("rtclass", "method", "code", "locals", "stack", "pc")

    def __init__(self, rtclass, method, args):
        self.rtclass = rtclass
        self.method = method
        self.code = method.code
        local_slots = list(args)
        pad = method.max_locals - len(local_slots)
        if pad > 0:
            local_slots += [None] * pad
        self.locals = local_slots
        self.stack = []
        self.pc = 0

    def __repr__(self):
        return (
            f"<Frame {self.rtclass.name}.{self.method.name} pc={self.pc}>"
        )


class ThreadContext:
    """One guest thread."""

    _next_tid = 1

    __slots__ = (
        "tid",
        "name",
        "frames",
        "state",
        "priority",
        "suspended",
        "blocked_on",
        "wake_at",
        "native_state",
        "pending_stop",
        "guest_obj",
        "domain_tag",
        "result",
        "uncaught",
        "last_scheduled",
        "segments",
        "segment_pool",
        "yielded",
        "in_native",
    )

    def __init__(self, name, domain_tag="<system>"):
        self.tid = ThreadContext._next_tid
        ThreadContext._next_tid += 1
        self.name = name
        self.frames = []
        self.state = NEW
        self.priority = NORM_PRIORITY
        self.suspended = False
        self.blocked_on = None
        self.wake_at = None
        self.native_state = {}
        self.pending_stop = None
        self.guest_obj = None
        self.domain_tag = domain_tag
        self.result = None
        self.uncaught = None
        self.last_scheduled = 0
        self.segments = []  # used by repro.jkvm thread segments
        self.segment_pool = []  # retired _VMSegments kept for reuse
        self.yielded = False
        # inside a native that runs the scheduler: its step is on the
        # host stack, so the nested run must not step it
        self.in_native = False

    @property
    def alive(self):
        return self.state not in (NEW, TERMINATED)

    @property
    def schedulable(self):
        return (self.state == RUNNABLE and not self.suspended
                and not self.in_native)

    def __repr__(self):
        return f"<ThreadContext #{self.tid} {self.name!r} {self.state}>"


class Scheduler:
    """Round-robin, priority-aware green-thread scheduler.

    ``threads`` and ``_by_tid`` hold live threads only: ``run`` reaps a
    thread right after the step that ends it.  A finished thread's result
    is no GC root, so a host that holds it must pin it in ``vm.pinned``.

    A step lasts one ``quantum``, except a *lone slice*: when
    :meth:`run_thread` picks the only live thread, which is the one it
    waits for, no other thread could use a quantum's end, so the step
    gets the whole remaining budget.  It ends where another thread can
    run: a :meth:`spawn` made during it (a guest ``Thread.start``, or a
    native's nested ``call_static``) marks the stepping thread
    ``yielded``, so the native's call site pauses it as ``Thread.yield``
    does, but without moving it behind other threads.  A nested run
    (a native's ``call_static``) never steps the outer thread, whose step
    is still on the host stack, and gives that step back its current
    thread and its lone slice when it returns.
    """

    def __init__(self, vm, quantum=64, thread_lookup="cached"):
        self.vm = vm
        self.quantum = quantum
        self.thread_lookup = thread_lookup
        self.threads = []
        self.tick = 0
        self._current = None
        self._by_tid = {}
        self.context_switches = 0
        self._stepping = None  # the thread inside interpreter.step
        self._lone = False  # ... and it runs a lone slice

    # -- thread management ---------------------------------------------------
    def spawn(self, rtclass, method, args, name=None, domain_tag="<system>",
              guest_obj=None, priority=NORM_PRIORITY):
        """Create a guest thread entering ``rtclass.method(args)``."""
        thread = ThreadContext(name or f"thread-{ThreadContext._next_tid}",
                               domain_tag)
        thread.priority = priority
        thread.guest_obj = guest_obj
        thread.frames.append(Frame(rtclass, method, args))
        thread.state = RUNNABLE
        self.threads.append(thread)
        self._by_tid[thread.tid] = thread
        if self._lone:
            # another thread can run now: end the lone slice at the
            # native's call site
            self._stepping.yielded = True
        return thread

    def current_thread(self):
        """Return the running thread, via the profile's lookup strategy.

        ``cached``: direct pointer read.  ``hashed``: dictionary lookup by
        tid plus a liveness validation scan — deliberately the slower
        strategy some 1990s VMs used, surfaced by Table 1.
        """
        if self.thread_lookup == "cached" or self._current is None:
            return self._current
        thread = self._by_tid.get(self._current.tid)
        for candidate in self.threads:
            if candidate is thread:
                break
        return thread

    # -- wakeups ------------------------------------------------------------
    def wake(self, thread):
        if thread.state in (BLOCKED, WAITING, TIMED_WAITING):
            thread.state = RUNNABLE
            thread.wake_at = None

    def _wake_sleepers(self):
        for thread in self.threads:
            if thread.state == TIMED_WAITING and thread.wake_at is not None:
                if thread.wake_at <= self.tick:
                    thread.state = RUNNABLE
                    thread.wake_at = None

    def _advance_to_next_wake(self):
        wakes = [
            thread.wake_at
            for thread in self.threads
            if thread.state == TIMED_WAITING and thread.wake_at is not None
        ]
        if not wakes:
            return False
        self.tick = max(self.tick, min(wakes))
        self._wake_sleepers()
        return True

    # -- scheduling ------------------------------------------------------------
    def _pick(self):
        best = None
        for thread in self.threads:
            if not thread.schedulable:
                continue
            if best is None:
                best = thread
                continue
            if thread.priority > best.priority or (
                thread.priority == best.priority
                and thread.last_scheduled < best.last_scheduled
            ):
                best = thread
        return best

    def run_for(self, steps):
        """Run up to ``steps`` instructions and return; never raises on
        budget exhaustion (for incremental driving)."""
        try:
            self.run(max_steps=steps)
        except OutOfStepsError:
            pass

    def run(self, max_steps=10_000_000, until=None):
        """Run until no live threads remain, ``until()`` is true, or the
        step budget is exhausted (:class:`OutOfStepsError`).  ``until``
        is asked between steps, so it stops the run within a quantum."""
        self._run(max_steps, until, False)

    def _run(self, max_steps, until, lone):
        """:meth:`run`; with ``lone``, ``until`` waits only for the end
        of one thread, which runs lone slices while it is alone."""
        interpreter = self.vm.interpreter
        threads = self.threads
        steps_left = max_steps
        # set when a native runs the scheduler: the step it runs inside
        outer, outer_lone, outer_current = (
            self._stepping, self._lone, self._current)
        if outer is not None:
            outer.in_native = True
        try:
            while True:
                if until is not None and until():
                    return
                self._wake_sleepers()
                thread = self._pick()
                if thread is None:
                    if self._advance_to_next_wake():
                        continue
                    if not threads:
                        return
                    if any(t.suspended and t.state == RUNNABLE
                           for t in threads):
                        # Suspended threads may be resumed by the embedder.
                        return
                    raise DeadlockError(
                        "all live threads are blocked: "
                        + ", ".join(repr(t) for t in threads)
                    )
                if steps_left <= 0:
                    raise OutOfStepsError(f"exceeded {max_steps} steps")
                if thread is not self._current:
                    self.context_switches += 1
                self._current = thread
                thread.last_scheduled = self.tick
                self._stepping = thread
                self._lone = lone and len(threads) == 1
                executed = interpreter.step(
                    thread, steps_left if self._lone
                    else min(self.quantum, steps_left))
                self.tick += executed
                steps_left -= max(executed, 1)
                if thread.state == TERMINATED:
                    self._reap(thread)
        finally:
            self._stepping, self._lone = outer, outer_lone
            if outer is not None:
                outer.in_native = False
                self._current = outer_current

    def _reap(self, thread):
        self.threads.remove(thread)
        self._by_tid.pop(thread.tid, None)
        self._current = None

    def _abandon(self, thread):
        """End a thread that ran out of steps as a stop would, without
        running more guest code: free its monitors, unwind its segments."""
        for waiter in self.vm.monitors.discard(thread):
            self.wake(waiter)
        while thread.segments:
            segment = thread.segments.pop()
            thread.domain_tag = segment.saved_tag
            segment.state[0] = False
        thread.frames.clear()
        thread.state = TERMINATED
        self._reap(thread)

    def run_thread(self, thread, max_steps=10_000_000):
        """Run the scheduler until ``thread`` terminates; returns its result
        or raises its uncaught guest exception."""
        from .errors import JThrowable

        try:
            self._run(max_steps, lambda: thread.state == TERMINATED, True)
            if thread.state != TERMINATED:
                raise OutOfStepsError(
                    f"{thread!r} did not finish within {max_steps} steps"
                )
        except OutOfStepsError:
            self._abandon(thread)
            raise
        if thread.uncaught is not None:
            raise JThrowable(thread.uncaught)
        return thread.result


def build_arguments(method, args):
    """Pad an argument list to a method's local slots (for spawn helpers)."""
    parsed, _ = parse_method_descriptor(method.desc)
    padded = list(args)
    padded += [default_value(desc) for desc in parsed[len(args):]]
    return padded
