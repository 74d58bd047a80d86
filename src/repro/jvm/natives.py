"""Native method bridge and the core library natives.

Native methods are host (Python) functions with signature
``fn(vm, thread, args) -> value``; ``args`` includes the receiver first for
instance methods.  A native may:

* return a guest value (or ``None`` for void / null),
* raise a guest exception via :func:`guest_throw`,
* return :data:`~repro.jvm.interp.NATIVE_BLOCKED` to block; the interpreter
  leaves the pc on the invoke instruction and retries the native when the
  thread is runnable again (used by ``wait``/``sleep``/``join``).

This mirrors how a real JVM's core library bottoms out in native code.
"""

from __future__ import annotations

import time

from .interp import NATIVE_BLOCKED, GuestUnwind
from .values import JArray, JObject

ILLEGAL_MONITOR = "java/lang/IllegalMonitorStateException"
ILLEGAL_STATE = "java/lang/IllegalStateException"
INDEX_OOB = "java/lang/IndexOutOfBoundsException"
NULL_POINTER = "java/lang/NullPointerException"
ARRAY_STORE = "java/lang/ArrayStoreException"


def guest_throw(vm, thread, class_name, message=None):
    """Raise a guest exception from native code."""
    raise GuestUnwind(
        vm.make_throwable(class_name, message, owner=thread.domain_tag)
    )


class NativeRegistry:
    """Maps (class name, method name, descriptor) to host functions."""

    def __init__(self):
        self._by_class = {}

    def register(self, class_name, method_name, desc, fn):
        self._by_class.setdefault(class_name, {})[(method_name, desc)] = fn

    def register_many(self, class_name, table):
        for (method_name, desc), fn in table.items():
            self.register(class_name, method_name, desc, fn)

    def lookup(self, rtclass, method):
        table = self._by_class.get(rtclass.name)
        if table is None:
            return None
        return table.get(method.key)

    def bind_class(self, rtclass):
        """Attach known bindings at link time (missing ones fail lazily)."""
        table = self._by_class.get(rtclass.name)
        if not table:
            return
        for key, method in rtclass.declared.items():
            if method.is_native and key in table:
                rtclass.native_bindings[key] = table[key]


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def as_text(jobject):
    """Host string of a guest String (empty if constructed uninitialized)."""
    if jobject is None:
        return None
    value = jobject.native
    return value if isinstance(value, str) else ""


def _require(vm, thread, value, what):
    if value is None:
        guest_throw(vm, thread, NULL_POINTER, what)
    return value


# --------------------------------------------------------------------------
# java/lang/Object
# --------------------------------------------------------------------------

def _object_equals(vm, thread, args):
    return 1 if args[0] is args[1] else 0


def _object_hash(vm, thread, args):
    return id(args[0]) & 0x7FFFFFFF


def _object_to_string(vm, thread, args):
    receiver = args[0]
    text = f"{receiver.jclass.name}@{id(receiver) & 0xFFFFFF:x}"
    return vm.new_string(text, owner=thread.domain_tag)


def _object_wait(vm, thread, args):
    receiver = args[0]
    state = thread.native_state.get("wait")
    if state is None:
        released = vm.monitors.release_for_wait(receiver, thread)
        if released is None:
            guest_throw(vm, thread, ILLEGAL_MONITOR, "wait while not owner")
        saved_count, woken = released
        for waiter in woken:
            vm.scheduler.wake(waiter)
        thread.native_state["wait"] = (receiver, saved_count)
        from .threads import WAITING

        thread.state = WAITING
        return NATIVE_BLOCKED
    target, saved_count = state
    if vm.monitors.reacquire_after_wait(target, thread, saved_count):
        del thread.native_state["wait"]
        return None
    from .threads import BLOCKED

    thread.state = BLOCKED
    thread.blocked_on = target
    return NATIVE_BLOCKED


def _object_notify(vm, thread, args):
    ok, woken = vm.monitors.notify(args[0], thread, notify_all=False)
    if not ok:
        guest_throw(vm, thread, ILLEGAL_MONITOR, "notify while not owner")
    for waiter in woken:
        vm.scheduler.wake(waiter)
    return None


def _object_notify_all(vm, thread, args):
    ok, woken = vm.monitors.notify(args[0], thread, notify_all=True)
    if not ok:
        guest_throw(vm, thread, ILLEGAL_MONITOR, "notifyAll while not owner")
    for waiter in woken:
        vm.scheduler.wake(waiter)
    return None


# --------------------------------------------------------------------------
# java/lang/String
# --------------------------------------------------------------------------

def _string_length(vm, thread, args):
    return len(as_text(args[0]))


def _string_char_at(vm, thread, args):
    text = as_text(args[0])
    index = args[1]
    if not 0 <= index < len(text):
        guest_throw(vm, thread, INDEX_OOB, f"charAt({index})")
    return ord(text[index])


def _string_concat(vm, thread, args):
    other = _require(vm, thread, args[1], "concat(null)")
    return vm.new_string(as_text(args[0]) + as_text(other),
                         owner=thread.domain_tag)


def _string_substring(vm, thread, args):
    text = as_text(args[0])
    start, end = args[1], args[2]
    if not (0 <= start <= end <= len(text)):
        guest_throw(vm, thread, INDEX_OOB, f"substring({start},{end})")
    return vm.new_string(text[start:end], owner=thread.domain_tag)


def _string_equals(vm, thread, args):
    other = args[1]
    if other is None or other.jclass is not vm.string_class:
        return 0
    return 1 if as_text(args[0]) == as_text(other) else 0


def _string_starts_with(vm, thread, args):
    other = _require(vm, thread, args[1], "startsWith(null)")
    return 1 if as_text(args[0]).startswith(as_text(other)) else 0


def _string_index_of(vm, thread, args):
    return as_text(args[0]).find(chr(args[1] & 0xFFFF))


def _string_hash(vm, thread, args):
    # Java's 31-based rolling hash, wrapped to 32 bits.
    value = 0
    for ch in as_text(args[0]):
        value = (value * 31 + ord(ch)) & 0xFFFFFFFF
    if value >= 0x80000000:
        value -= 0x100000000
    return value


def _string_intern(vm, thread, args):
    return vm.intern(as_text(args[0]))


def _string_get_bytes(vm, thread, args):
    data = as_text(args[0]).encode("utf-8")
    array_class = vm.array_class_for_descriptor("[B", vm.boot_loader)
    array = vm.heap.new_array(array_class, len(data), owner=thread.domain_tag)
    for index, byte in enumerate(data):
        array.elems[index] = byte - 256 if byte >= 128 else byte
    return array


def _string_from_bytes(vm, thread, args):
    array = _require(vm, thread, args[0], "fromBytes(null)")
    data = bytes((value & 0xFF) for value in array.elems)
    return vm.new_string(data.decode("utf-8", "replace"),
                         owner=thread.domain_tag)


def _string_value_of_int(vm, thread, args):
    return vm.new_string(str(args[0]), owner=thread.domain_tag)


# --------------------------------------------------------------------------
# java/lang/StringBuilder
# --------------------------------------------------------------------------

def _sb_init(vm, thread, args):
    args[0].native = []
    return None


def _sb_parts(vm, thread, receiver):
    if not isinstance(receiver.native, list):
        receiver.native = []
    return receiver.native


def _sb_append(vm, thread, args):
    other = _require(vm, thread, args[1], "append(null)")
    _sb_parts(vm, thread, args[0]).append(as_text(other))
    return args[0]


def _sb_append_int(vm, thread, args):
    _sb_parts(vm, thread, args[0]).append(str(args[1]))
    return args[0]


def _sb_to_string(vm, thread, args):
    return vm.new_string("".join(_sb_parts(vm, thread, args[0])),
                         owner=thread.domain_tag)


# --------------------------------------------------------------------------
# java/lang/System
# --------------------------------------------------------------------------

def _system_println(vm, thread, args):
    vm.emit_output(thread.domain_tag, as_text(args[0]) or "")
    return None


def _system_print_int(vm, thread, args):
    vm.emit_output(thread.domain_tag, str(args[0]))
    return None


def _system_nano_time(vm, thread, args):
    return float(time.perf_counter_ns())


def _system_identity_hash(vm, thread, args):
    return 0 if args[0] is None else id(args[0]) & 0x7FFFFFFF


def _system_arraycopy(vm, thread, args):
    src, src_pos, dest, dest_pos, length = args
    _require(vm, thread, src, "arraycopy src")
    _require(vm, thread, dest, "arraycopy dest")
    if not isinstance(src, JArray) or not isinstance(dest, JArray):
        guest_throw(vm, thread, ARRAY_STORE, "arraycopy of non-array")
    if length < 0 or src_pos < 0 or dest_pos < 0:
        guest_throw(vm, thread, INDEX_OOB, "arraycopy negative index")
    if src_pos + length > len(src.elems) or dest_pos + length > len(dest.elems):
        guest_throw(vm, thread, INDEX_OOB, "arraycopy out of range")
    src_elem = src.jclass.array_element
    dest_elem = dest.jclass.array_element
    if src_elem != dest_elem:
        compatible = (
            src.jclass.element_class is not None
            and dest.jclass.element_class is not None
            and src.jclass.element_class.is_assignable_to(
                dest.jclass.element_class
            )
        )
        if not compatible:
            guest_throw(vm, thread, ARRAY_STORE, "incompatible array types")
    dest.elems[dest_pos:dest_pos + length] = src.elems[src_pos:src_pos + length]
    return None


# --------------------------------------------------------------------------
# java/lang/Thread
# --------------------------------------------------------------------------

def _thread_context(receiver):
    context = receiver.native
    from .threads import ThreadContext

    return context if isinstance(context, ThreadContext) else None


def _thread_start(vm, thread, args):
    receiver = args[0]
    if _thread_context(receiver) is not None:
        guest_throw(vm, thread, ILLEGAL_STATE, "thread already started")
    index = receiver.jclass.vindex[("run", "()V")]
    owner, method = receiver.jclass.vtable[index]
    context = vm.scheduler.spawn(
        owner,
        method,
        [receiver],
        name=f"guest-{receiver.jclass.name}",
        domain_tag=thread.domain_tag,
        guest_obj=receiver,
    )
    receiver.native = context
    return None


def _thread_current(vm, thread, args):
    context = vm.scheduler.current_thread()
    if context.guest_obj is None:
        thread_class = vm.boot_loader.load("java/lang/Thread")
        guest = vm.heap.new_object(thread_class, owner=context.domain_tag)
        guest.native = context
        context.guest_obj = guest
    return context.guest_obj


def _thread_yield(vm, thread, args):
    thread.yielded = True
    thread.last_scheduled = vm.scheduler.tick + 1
    return None


def _thread_sleep(vm, thread, args):
    until = thread.native_state.get("sleep")
    if until is None:
        until = vm.scheduler.tick + max(args[0], 0)
        thread.native_state["sleep"] = until
        from .threads import TIMED_WAITING

        thread.state = TIMED_WAITING
        thread.wake_at = until
        return NATIVE_BLOCKED
    if vm.scheduler.tick >= until:
        del thread.native_state["sleep"]
        return None
    from .threads import TIMED_WAITING

    thread.state = TIMED_WAITING
    thread.wake_at = until
    return NATIVE_BLOCKED


def _thread_join(vm, thread, args):
    target = _thread_context(args[0])
    from .threads import TERMINATED, TIMED_WAITING

    if target is None or target.state == TERMINATED:
        thread.native_state.pop("join", None)
        return None
    thread.native_state["join"] = True
    thread.state = TIMED_WAITING
    thread.wake_at = vm.scheduler.tick + 32
    return NATIVE_BLOCKED


def _deliver_stop(vm, thread, target, throwable):
    from .threads import TERMINATED

    if target is None or target.state == TERMINATED:
        return
    target.pending_stop = throwable
    target.native_state.clear()
    scheduler = vm.scheduler
    for waiter in vm.monitors.discard(target):
        scheduler.wake(waiter)
    scheduler.wake(target)


def _thread_stop(vm, thread, args):
    target = _thread_context(args[0])
    throwable = vm.make_throwable("java/lang/ThreadDeath", None,
                                  owner=thread.domain_tag)
    _deliver_stop(vm, thread, target, throwable)
    return None


def _thread_stop_with(vm, thread, args):
    target = _thread_context(args[0])
    throwable = _require(vm, thread, args[1], "stop(null)")
    _deliver_stop(vm, thread, target, throwable)
    return None


def _thread_suspend(vm, thread, args):
    target = _thread_context(args[0])
    if target is not None:
        target.suspended = True
    return None


def _thread_resume(vm, thread, args):
    target = _thread_context(args[0])
    if target is not None:
        target.suspended = False
    return None


def _thread_set_priority(vm, thread, args):
    target = _thread_context(args[0])
    from .threads import MAX_PRIORITY, MIN_PRIORITY

    priority = min(MAX_PRIORITY, max(MIN_PRIORITY, args[1]))
    if target is not None:
        target.priority = priority
    return None


def _thread_get_priority(vm, thread, args):
    target = _thread_context(args[0])
    from .threads import NORM_PRIORITY

    return target.priority if target is not None else NORM_PRIORITY


def _thread_is_alive(vm, thread, args):
    target = _thread_context(args[0])
    return 1 if target is not None and target.alive else 0


# --------------------------------------------------------------------------
# registration
# --------------------------------------------------------------------------

def install_core_natives(registry):
    registry.register_many("java/lang/Object", {
        ("equals", "(Ljava/lang/Object;)Z"): _object_equals,
        ("hashCode", "()I"): _object_hash,
        ("toString", "()Ljava/lang/String;"): _object_to_string,
        ("wait", "()V"): _object_wait,
        ("notify", "()V"): _object_notify,
        ("notifyAll", "()V"): _object_notify_all,
    })
    registry.register_many("java/lang/String", {
        ("length", "()I"): _string_length,
        ("charAt", "(I)I"): _string_char_at,
        ("concat", "(Ljava/lang/String;)Ljava/lang/String;"): _string_concat,
        ("substring", "(II)Ljava/lang/String;"): _string_substring,
        ("equalsString", "(Ljava/lang/String;)Z"): _string_equals,
        ("startsWith", "(Ljava/lang/String;)Z"): _string_starts_with,
        ("indexOf", "(I)I"): _string_index_of,
        ("hashCode", "()I"): _string_hash,
        ("intern", "()Ljava/lang/String;"): _string_intern,
        ("getBytes", "()[B"): _string_get_bytes,
        ("fromBytes", "([B)Ljava/lang/String;"): _string_from_bytes,
        ("valueOfInt", "(I)Ljava/lang/String;"): _string_value_of_int,
    })
    registry.register_many("java/lang/StringBuilder", {
        ("<init>", "()V"): _sb_init,
        ("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;"): _sb_append,
        ("appendInt", "(I)Ljava/lang/StringBuilder;"): _sb_append_int,
        ("toString", "()Ljava/lang/String;"): _sb_to_string,
    })
    registry.register_many("java/lang/System", {
        ("println", "(Ljava/lang/String;)V"): _system_println,
        ("printInt", "(I)V"): _system_print_int,
        ("nanoTime", "()D"): _system_nano_time,
        ("identityHashCode", "(Ljava/lang/Object;)I"): _system_identity_hash,
        ("arraycopy",
         "(Ljava/lang/Object;ILjava/lang/Object;II)V"): _system_arraycopy,
    })
    registry.register_many("java/lang/Thread", {
        ("start", "()V"): _thread_start,
        ("stop", "()V"): _thread_stop,
        ("stop", "(Ljava/lang/Throwable;)V"): _thread_stop_with,
        ("suspend", "()V"): _thread_suspend,
        ("resume", "()V"): _thread_resume,
        ("setPriority", "(I)V"): _thread_set_priority,
        ("getPriority", "()I"): _thread_get_priority,
        ("isAlive", "()Z"): _thread_is_alive,
        ("join", "()V"): _thread_join,
        ("currentThread", "()Ljava/lang/Thread;"): _thread_current,
        ("sleep", "(I)V"): _thread_sleep,
        ("yield", "()V"): _thread_yield,
    })
