"""The specialized dispatch tier: per-method threaded code.

The generic interpreter (:mod:`repro.jvm.interp`) re-decodes the same
instruction tuple and walks one long opcode-comparison chain every time an
instruction executes.  This module compiles each verified method once — at
class-definition (link) time — into a *threaded-code stream*: one Python
closure per instruction slot, with the operands already decoded into the
closure's cells.  Executing an instruction is then a single indexed call,
and per-site state (resolved classes, static targets, native bindings,
monomorphic field/virtual-dispatch caches) lives in the closure instead of
being recomputed per execution.

Semantics are *identical* to the generic tier by construction, and
``tests/jvm/test_interp_equivalence.py`` holds the two to the same fuzzed
behaviour (results, guest exceptions, and retired-instruction counts).
Points of care:

* ``frame.pc`` is only advanced after all guest-visible faults of an
  instruction are past, so exception delivery sees the same fault pc the
  generic tier reports;
* closures return the number of instructions they retired (``None`` means
  one), keeping tick accounting — and therefore scheduling and step
  budgets — aligned with the generic tier;
* lazy resolution (``loader.load`` at first execution, not at compile
  time) preserves the generic tier's class-loading order;
* ``invokeinterface`` still goes through ``vm.dispatcher`` on every call:
  the interface-dispatch strategy is a measured VM-profile property
  (Table 1) that this tier must not optimize away.

Frameless calls
---------------

The four invoke closures resolve their callee to a
:func:`~repro.jvm.frameless.callee_entry`, the same record the frameless
tier's own invoke sites use, and call it through one helper,
:func:`_invoke`.  A call to a *bounded* method (one without a backward
branch) runs as one generated Python function without allocating a
:class:`Frame`.  The function returns the result and the ticks it
retired, or materialises its frame at a deopt point (or at an invoke
once it has retired the step's ``thread.budget``) and lets this tier
carry on there.  What
stays here is what can loop: driver loops, and any method the frameless
tier deopts out of (allocation, throws, monitors, arrays).

Superinstructions
-----------------

A peephole pass fuses the multi-instruction idioms of loops into one
closure:

* ``ALOAD/ILOAD/DLOAD/const`` runs — argument pushes before a call;
* ``ILOAD · ILOAD · IF_ICMP*`` and ``IINC · GOTO`` — loop heads/tails.

Fusion never spans a *entry point* (branch target or handler start): any
pc that can be jumped to keeps its own closure, so a fused head simply
covers the straight-line window after it.  No fused idiom can fault.
"""

from __future__ import annotations

from .dispatch import DispatchError
from .frameless import (
    DEOPT,
    callee_entry,
    guest_throw as _guest_throw,
    resolve_type as _resolve_type,
)
from .interp import (
    ARITHMETIC,
    ARRAY_BOUNDS,
    ARRAY_STORE,
    CLASS_CAST,
    GuestUnwind,
    ILLEGAL_MONITOR,
    INCOMPATIBLE,
    NATIVE_BLOCKED,
    NEGATIVE_SIZE,
    NULL_POINTER,
)
from .instructions import BRANCH_OPCODES as _BRANCH_OPS
from .threads import BLOCKED, Frame, TERMINATED
from .values import i8, i32, parse_method_descriptor

#: Opcodes a push-run superinstruction may cover (each pushes one value
#: taken from a local slot or a compile-time constant; none can fault).
_PUSH_LOCAL = frozenset(("iload", "aload", "dload"))
_PUSH_CONST = frozenset(("iconst", "dconst", "aconst_null"))

_CMP_BRANCHES = {
    "if_icmpeq": lambda a, b: a == b,
    "if_icmpne": lambda a, b: a != b,
    "if_icmplt": lambda a, b: a < b,
    "if_icmple": lambda a, b: a <= b,
    "if_icmpgt": lambda a, b: a > b,
    "if_icmpge": lambda a, b: a >= b,
}

_MAX_RUN = 8


# ---------------------------------------------------------------------------
# per-opcode closure builders
#
# Each builder receives the compile context and returns ``fn(thread, frame)``.
# ``next_pc`` is captured as a constant so the hot path stores rather than
# increments.  Builders for resolving opcodes cache the resolution in a cell
# on first execution — the defining loader is fixed per compiled class, so
# the cache can never cross namespaces.
# ---------------------------------------------------------------------------

def _c_load(slot, next_pc):
    def run(thread, frame):
        frame.stack.append(frame.locals[slot])
        frame.pc = next_pc
    return run


def _c_store(slot, next_pc):
    def run(thread, frame):
        frame.locals[slot] = frame.stack.pop()
        frame.pc = next_pc
    return run


def _c_const(value, next_pc):
    def run(thread, frame):
        frame.stack.append(value)
        frame.pc = next_pc
    return run


def _c_ldc_str(vm, text, next_pc):
    if vm.intern_weak:
        # A weak intern table may drop (and GC may free) the interned
        # object between executions; re-intern like the generic tier.
        intern = vm.intern

        def run(thread, frame):
            frame.stack.append(intern(text))
            frame.pc = next_pc
        return run

    cached = None

    def run(thread, frame):
        nonlocal cached
        if cached is None:
            cached = vm.intern(text)  # strong table: rooted forever
        frame.stack.append(cached)
        frame.pc = next_pc
    return run


def _c_iinc(slot, delta, next_pc):
    def run(thread, frame):
        locals_ = frame.locals
        locals_[slot] = i32(locals_[slot] + delta)
        frame.pc = next_pc
    return run


def _c_int_arith(op, next_pc):
    if op == "iadd":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] + b)
            frame.pc = next_pc
    elif op == "isub":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] - b)
            frame.pc = next_pc
    elif op == "imul":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] * b)
            frame.pc = next_pc
    elif op == "ishl":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] << (b & 31))
            frame.pc = next_pc
    elif op == "ishr":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] >> (b & 31))
            frame.pc = next_pc
    elif op == "iand":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] & b)
            frame.pc = next_pc
    elif op == "ior":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] | b)
            frame.pc = next_pc
    elif op == "ixor":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = i32(stack[-1] ^ b)
            frame.pc = next_pc
    elif op == "ineg":
        def run(thread, frame):
            stack = frame.stack
            stack[-1] = i32(-stack[-1])
            frame.pc = next_pc
    else:  # pragma: no cover - caller dispatches exhaustively
        raise AssertionError(op)
    return run


def _c_idiv(vm, next_pc):
    def run(thread, frame):
        stack = frame.stack
        b = stack.pop()
        a = stack[-1]
        if b == 0:
            _guest_throw(vm, thread, ARITHMETIC, "/ by zero")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        stack[-1] = i32(quotient)
        frame.pc = next_pc
    return run


def _c_irem(vm, next_pc):
    def run(thread, frame):
        stack = frame.stack
        b = stack.pop()
        a = stack[-1]
        if b == 0:
            _guest_throw(vm, thread, ARITHMETIC, "% by zero")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        stack[-1] = i32(a - quotient * b)
        frame.pc = next_pc
    return run


def _c_double_arith(op, next_pc):
    if op == "dadd":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = stack[-1] + b
            frame.pc = next_pc
    elif op == "dsub":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = stack[-1] - b
            frame.pc = next_pc
    elif op == "dmul":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            stack[-1] = stack[-1] * b
            frame.pc = next_pc
    elif op == "dneg":
        def run(thread, frame):
            stack = frame.stack
            stack[-1] = -stack[-1]
            frame.pc = next_pc
    else:  # pragma: no cover
        raise AssertionError(op)
    return run


def _c_ddiv(next_pc):
    def run(thread, frame):
        stack = frame.stack
        b = stack.pop()
        a = stack[-1]
        if b == 0.0:
            stack[-1] = float("nan") if a == 0.0 else (
                float("inf") if a > 0 else float("-inf")
            )
        else:
            stack[-1] = a / b
        frame.pc = next_pc
    return run


def _c_dcmp(next_pc):
    def run(thread, frame):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        if a != a or b != b:  # NaN
            stack.append(-1)
        elif a < b:
            stack.append(-1)
        elif a > b:
            stack.append(1)
        else:
            stack.append(0)
        frame.pc = next_pc
    return run


def _c_i2d(next_pc):
    def run(thread, frame):
        stack = frame.stack
        stack[-1] = float(stack[-1])
        frame.pc = next_pc
    return run


def _c_d2i(next_pc):
    def run(thread, frame):
        stack = frame.stack
        value = stack[-1]
        if value != value:
            stack[-1] = 0
        elif value >= 2147483647.0:
            stack[-1] = 2147483647
        elif value <= -2147483648.0:
            stack[-1] = -2147483648
        else:
            stack[-1] = int(value)
        frame.pc = next_pc
    return run


def _c_stack_op(op, next_pc):
    if op == "pop":
        def run(thread, frame):
            frame.stack.pop()
            frame.pc = next_pc
    elif op == "dup":
        def run(thread, frame):
            stack = frame.stack
            stack.append(stack[-1])
            frame.pc = next_pc
    elif op == "dup_x1":
        def run(thread, frame):
            stack = frame.stack
            top = stack.pop()
            under = stack.pop()
            stack += (top, under, top)
            frame.pc = next_pc
    elif op == "swap":
        def run(thread, frame):
            stack = frame.stack
            stack[-1], stack[-2] = stack[-2], stack[-1]
            frame.pc = next_pc
    elif op == "nop":
        def run(thread, frame):
            frame.pc = next_pc
    else:  # pragma: no cover
        raise AssertionError(op)
    return run


def _c_goto(target):
    def run(thread, frame):
        frame.pc = target
    return run


def _c_if_unary(op, target, next_pc):
    if op == "ifeq":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() == 0 else next_pc
    elif op == "ifne":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() != 0 else next_pc
    elif op == "iflt":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() < 0 else next_pc
    elif op == "ifle":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() <= 0 else next_pc
    elif op == "ifgt":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() > 0 else next_pc
    elif op == "ifge":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() >= 0 else next_pc
    elif op == "ifnull":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() is None else next_pc
    elif op == "ifnonnull":
        def run(thread, frame):
            frame.pc = target if frame.stack.pop() is not None else next_pc
    else:  # pragma: no cover
        raise AssertionError(op)
    return run


def _c_if_binary(op, target, next_pc):
    if op == "if_acmpeq":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            frame.pc = target if stack.pop() is b else next_pc
        return run
    if op == "if_acmpne":
        def run(thread, frame):
            stack = frame.stack
            b = stack.pop()
            frame.pc = target if stack.pop() is not b else next_pc
        return run
    compare = _CMP_BRANCHES[op]

    def run(thread, frame):
        stack = frame.stack
        b = stack.pop()
        frame.pc = target if compare(stack.pop(), b) else next_pc
    return run


def _c_getfield(vm, field_name, next_pc):
    cache_class = None
    cache_slot = 0

    def run(thread, frame):
        nonlocal cache_class, cache_slot
        stack = frame.stack
        receiver = stack[-1]
        if receiver is None:
            stack.pop()
            _guest_throw(vm, thread, NULL_POINTER, f"getfield {field_name}")
        jclass = receiver.jclass
        if jclass is not cache_class:
            cache_slot = jclass.field_slots[field_name]
            cache_class = jclass
        stack[-1] = receiver.fields[cache_slot]
        frame.pc = next_pc
    return run


def _c_putfield(vm, field_name, next_pc):
    cache_class = None
    cache_slot = 0

    def run(thread, frame):
        nonlocal cache_class, cache_slot
        stack = frame.stack
        value = stack.pop()
        receiver = stack.pop()
        if receiver is None:
            _guest_throw(vm, thread, NULL_POINTER, f"putfield {field_name}")
        jclass = receiver.jclass
        if jclass is not cache_class:
            cache_slot = jclass.field_slots[field_name]
            cache_class = jclass
        receiver.fields[cache_slot] = value
        frame.pc = next_pc
    return run


def _c_getstatic(loader, class_name, field_name, next_pc):
    resolved = None

    def run(thread, frame):
        nonlocal resolved
        if resolved is None:
            owner, index, _ = loader.load(class_name).find_static(field_name)
            resolved = (owner.static_slots, index)
        slots, index = resolved
        frame.stack.append(slots[index])
        frame.pc = next_pc
    return run


def _c_putstatic(loader, class_name, field_name, next_pc):
    resolved = None

    def run(thread, frame):
        nonlocal resolved
        if resolved is None:
            owner, index, _ = loader.load(class_name).find_static(field_name)
            resolved = (owner.static_slots, index)
        slots, index = resolved
        slots[index] = frame.stack.pop()
        frame.pc = next_pc
    return run


def _c_new(vm, loader, class_name, next_pc):
    new_object = vm.heap.new_object
    rtclass = None

    def run(thread, frame):
        nonlocal rtclass
        if rtclass is None:
            rtclass = loader.load(class_name)
        frame.stack.append(new_object(rtclass, owner=thread.domain_tag))
        frame.pc = next_pc
    return run


def _c_newarray(vm, loader, element_desc, next_pc):
    new_array = vm.heap.new_array
    array_class = None

    def run(thread, frame):
        nonlocal array_class
        stack = frame.stack
        length = stack.pop()
        if length < 0:
            _guest_throw(vm, thread, NEGATIVE_SIZE, str(length))
        if array_class is None:
            array_class = vm.array_class_for_descriptor(
                "[" + element_desc, loader
            )
        stack.append(new_array(array_class, length, owner=thread.domain_tag))
        frame.pc = next_pc
    return run


def _c_aload_elem(vm, next_pc):
    def run(thread, frame):
        stack = frame.stack
        index = stack.pop()
        array = stack.pop()
        if array is None:
            _guest_throw(vm, thread, NULL_POINTER, "array load")
        elems = array.elems
        if not 0 <= index < len(elems):
            _guest_throw(vm, thread, ARRAY_BOUNDS, str(index))
        stack.append(elems[index])
        frame.pc = next_pc
    return run


def _c_astore_elem(vm, op, next_pc):
    def run(thread, frame):
        stack = frame.stack
        value = stack.pop()
        index = stack.pop()
        array = stack.pop()
        if array is None:
            _guest_throw(vm, thread, NULL_POINTER, op)
        elems = array.elems
        if not 0 <= index < len(elems):
            _guest_throw(vm, thread, ARRAY_BOUNDS, str(index))
        if op == "bastore":
            elems[index] = i8(value)
        elif op == "iastore":
            elems[index] = i32(value)
        elif op == "dastore":
            elems[index] = value
        else:  # aastore
            if value is not None:
                element_class = array.jclass.element_class
                if element_class is not None and \
                        not value.jclass.is_assignable_to(element_class):
                    _guest_throw(
                        vm, thread, ARRAY_STORE,
                        f"{value.jclass.name} into {array.jclass.name}",
                    )
            elems[index] = value
        frame.pc = next_pc
    return run


def _c_arraylength(vm, next_pc):
    def run(thread, frame):
        stack = frame.stack
        array = stack.pop()
        if array is None:
            _guest_throw(vm, thread, NULL_POINTER, "arraylength")
        stack.append(len(array.elems))
        frame.pc = next_pc
    return run


def _c_checkcast(vm, loader, name, next_pc):
    target = None
    cache_ok = None  # last receiver class that passed this cast

    def run(thread, frame):
        nonlocal target, cache_ok
        value = frame.stack[-1]
        if value is not None:
            jclass = value.jclass
            if jclass is not cache_ok:
                if target is None:
                    target = _resolve_type(vm, loader, name)
                if not jclass.is_assignable_to(target):
                    _guest_throw(
                        vm, thread, CLASS_CAST,
                        f"{jclass.name} cannot be cast to {target.name}",
                    )
                cache_ok = jclass
        frame.pc = next_pc
    return run


def _c_instanceof(vm, loader, name, next_pc):
    target = None

    def run(thread, frame):
        nonlocal target
        stack = frame.stack
        value = stack.pop()
        if value is None:
            stack.append(0)
        else:
            if target is None:
                target = _resolve_type(vm, loader, name)
            stack.append(1 if value.jclass.is_assignable_to(target) else 0)
        frame.pc = next_pc
    return run


# -- invocation --------------------------------------------------------------

def _invoke(vm, thread, frame, entry, total, void, next_pc):
    """Call a resolved :func:`callee_entry` with the top ``total`` stack
    slots: a native's binding, a bounded method's frameless function, or
    a pushed :class:`Frame`."""
    binding, fn, _, owner, method = entry
    stack = frame.stack
    args = stack[len(stack) - total:]
    if binding is not None:
        result = binding(vm, thread, args)
        if result is NATIVE_BLOCKED:
            return
        del stack[len(stack) - total:]
        if not void:
            stack.append(result)
        frame.pc = next_pc
        return
    del stack[len(stack) - total:]
    frame.pc = next_pc
    if fn is None:
        thread.frames.append(Frame(owner, method, args))
        return
    result, ticks = fn(thread, args)
    if not void and result is not DEOPT:
        stack.append(result)
    return ticks


def _c_invokestatic(vm, loader, class_name, mname, desc, next_pc):
    total = len(parse_method_descriptor(desc)[0])
    void = desc.endswith(")V")
    entry = None

    def run(thread, frame):
        nonlocal entry
        if entry is None:
            owner, method = loader.load(class_name).find_declared(mname, desc)
            entry = callee_entry(vm, thread, owner, method)
        return _invoke(vm, thread, frame, entry, total, void, next_pc)
    return run


def _c_invokespecial(vm, loader, class_name, mname, desc, next_pc):
    total = len(parse_method_descriptor(desc)[0]) + 1
    void = desc.endswith(")V")
    entry = None

    def run(thread, frame):
        nonlocal entry
        if frame.stack[-total] is None:
            _guest_throw(
                vm, thread, NULL_POINTER, f"invokespecial {mname}"
            )
        if entry is None:
            owner, method = loader.load(class_name).find_declared(mname, desc)
            entry = callee_entry(vm, thread, owner, method)
        return _invoke(vm, thread, frame, entry, total, void, next_pc)
    return run


def _c_invokevirtual(vm, mname, desc, next_pc):
    total = len(parse_method_descriptor(desc)[0]) + 1
    void = desc.endswith(")V")
    key = (mname, desc)
    klass = entry = None  # monomorphic inline cache

    def run(thread, frame):
        nonlocal klass, entry
        receiver = frame.stack[-total]
        if receiver is None:
            _guest_throw(
                vm, thread, NULL_POINTER, f"invokevirtual {mname}"
            )
        jclass = receiver.jclass
        if jclass is not klass:
            owner, method = jclass.vtable[jclass.vindex[key]]
            entry = callee_entry(vm, thread, owner, method)
            klass = jclass
        return _invoke(vm, thread, frame, entry, total, void, next_pc)
    return run


def _c_invokeinterface(vm, loader, iface_name, mname, desc, next_pc):
    total = len(parse_method_descriptor(desc)[0]) + 1
    void = desc.endswith(")V")
    dispatcher = vm.dispatcher
    iface = None
    entry = None

    def run(thread, frame):
        nonlocal iface, entry
        receiver = frame.stack[-total]
        if receiver is None:
            _guest_throw(
                vm, thread, NULL_POINTER, f"invokeinterface {mname}"
            )
        if iface is None:
            iface = loader.load(iface_name)
        # Deliberately uncached: interface dispatch cost is a profile
        # property (Table 1); the dispatcher applies its own strategy.
        try:
            owner, method = dispatcher.lookup(
                receiver.jclass, iface, mname, desc
            )
        except DispatchError as exc:
            _guest_throw(vm, thread, INCOMPATIBLE, str(exc))
        if entry is None or method is not entry[4]:
            entry = callee_entry(vm, thread, owner, method)
        return _invoke(vm, thread, frame, entry, total, void, next_pc)
    return run


# -- returns / exceptions / monitors -----------------------------------------

def _c_return():
    def run(thread, frame):
        frames = thread.frames
        frames.pop()
        if not frames:
            thread.result = None
            thread.state = TERMINATED
    return run


def _c_value_return():
    def run(thread, frame):
        frames = thread.frames
        value = frame.stack.pop()
        frames.pop()
        if frames:
            frames[-1].stack.append(value)
        else:
            thread.result = value
            thread.state = TERMINATED
    return run


def _c_athrow(vm):
    def run(thread, frame):
        value = frame.stack.pop()
        if value is None:
            _guest_throw(vm, thread, NULL_POINTER, "athrow null")
        raise GuestUnwind(value)
    return run


def _c_monitorenter(vm, next_pc):
    monitors = vm.monitors

    def run(thread, frame):
        stack = frame.stack
        target = stack[-1]
        if target is None:
            _guest_throw(vm, thread, NULL_POINTER, "monitorenter")
        if monitors.try_enter(target, thread):
            stack.pop()
            frame.pc = next_pc
        else:
            thread.state = BLOCKED
            thread.blocked_on = target
    return run


def _c_monitorexit(vm, next_pc):
    monitors = vm.monitors
    scheduler = vm.scheduler

    def run(thread, frame):
        target = frame.stack.pop()
        if target is None:
            _guest_throw(vm, thread, NULL_POINTER, "monitorexit")
        woken = monitors.exit(target, thread)
        if woken is None:
            _guest_throw(vm, thread, ILLEGAL_MONITOR, "not owner")
        for waiter in woken:
            scheduler.wake(waiter)
        frame.pc = next_pc
    return run


# ---------------------------------------------------------------------------
# superinstructions
#
# Fused closures return the number of instruction slots they retired so the
# interpreter's tick accounting matches the generic tier exactly.
# ---------------------------------------------------------------------------

def _f_cmp_branch(op, slot_a, slot_b, target, pc):
    """ILOAD · ILOAD · IF_ICMP* — loop heads and guards."""
    compare = _CMP_BRANCHES[op]
    next_pc = pc + 3

    def run(thread, frame):
        locals_ = frame.locals
        frame.pc = (
            target if compare(locals_[slot_a], locals_[slot_b]) else next_pc
        )
        return 3
    return run


def _f_iinc_goto(slot, delta, target):
    """IINC · GOTO — loop tails."""
    def run(thread, frame):
        locals_ = frame.locals
        locals_[slot] = i32(locals_[slot] + delta)
        frame.pc = target
        return 2
    return run


def _f_push_run(items, pc):
    """A run of local/const pushes (the stub's argument-push sequence).

    ``items`` holds ``(is_local, operand)`` pairs: a local slot index or a
    ready-to-push constant.  None of the fused ops can fault.
    """
    width = len(items)
    next_pc = pc + width
    kinds = tuple(is_local for is_local, _ in items)
    if kinds == (True, True):
        slot_a, slot_b = items[0][1], items[1][1]

        def run(thread, frame):
            locals_ = frame.locals
            frame.stack += (locals_[slot_a], locals_[slot_b])
            frame.pc = next_pc
            return 2
        return run
    if kinds == (True, True, True):
        slot_a, slot_b, slot_c = (operand for _, operand in items)

        def run(thread, frame):
            locals_ = frame.locals
            frame.stack += (locals_[slot_a], locals_[slot_b],
                            locals_[slot_c])
            frame.pc = next_pc
            return 3
        return run
    if True not in kinds:  # all constants
        values = tuple(operand for _, operand in items)

        def run(thread, frame):
            frame.stack += values
            frame.pc = next_pc
            return width
        return run

    def run(thread, frame):
        locals_ = frame.locals
        stack = frame.stack
        for is_local, operand in items:
            stack.append(locals_[operand] if is_local else operand)
        frame.pc = next_pc
        return width
    return run


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

def _compile_instr(vm, loader, pc, instr):
    """One instruction tuple -> one closure (no fusion)."""
    op = instr[0]
    next_pc = pc + 1
    if op in _PUSH_LOCAL:
        return _c_load(instr[1], next_pc)
    if op == "istore" or op == "astore" or op == "dstore":
        return _c_store(instr[1], next_pc)
    if op == "iconst" or op == "dconst":
        return _c_const(instr[1], next_pc)
    if op == "aconst_null":
        return _c_const(None, next_pc)
    if op == "ldc_str":
        return _c_ldc_str(vm, instr[1], next_pc)
    if op == "iinc":
        return _c_iinc(instr[1], instr[2], next_pc)
    if op in ("iadd", "isub", "imul", "ineg", "ishl", "ishr", "iand",
              "ior", "ixor"):
        return _c_int_arith(op, next_pc)
    if op == "idiv":
        return _c_idiv(vm, next_pc)
    if op == "irem":
        return _c_irem(vm, next_pc)
    if op in ("dadd", "dsub", "dmul", "dneg"):
        return _c_double_arith(op, next_pc)
    if op == "ddiv":
        return _c_ddiv(next_pc)
    if op == "dcmp":
        return _c_dcmp(next_pc)
    if op == "i2d":
        return _c_i2d(next_pc)
    if op == "d2i":
        return _c_d2i(next_pc)
    if op in ("pop", "dup", "dup_x1", "swap", "nop"):
        return _c_stack_op(op, next_pc)
    if op == "goto":
        return _c_goto(instr[1])
    if op in ("ifeq", "ifne", "iflt", "ifle", "ifgt", "ifge", "ifnull",
              "ifnonnull"):
        return _c_if_unary(op, instr[1], next_pc)
    if op in ("if_icmpeq", "if_icmpne", "if_icmplt", "if_icmple",
              "if_icmpgt", "if_icmpge", "if_acmpeq", "if_acmpne"):
        return _c_if_binary(op, instr[1], next_pc)
    if op == "getfield":
        return _c_getfield(vm, instr[2], next_pc)
    if op == "putfield":
        return _c_putfield(vm, instr[2], next_pc)
    if op == "getstatic":
        return _c_getstatic(loader, instr[1], instr[2], next_pc)
    if op == "putstatic":
        return _c_putstatic(loader, instr[1], instr[2], next_pc)
    if op == "new":
        return _c_new(vm, loader, instr[1], next_pc)
    if op == "newarray":
        return _c_newarray(vm, loader, instr[1], next_pc)
    if op in ("baload", "iaload", "daload", "aaload"):
        return _c_aload_elem(vm, next_pc)
    if op in ("bastore", "iastore", "dastore", "aastore"):
        return _c_astore_elem(vm, op, next_pc)
    if op == "arraylength":
        return _c_arraylength(vm, next_pc)
    if op == "checkcast":
        return _c_checkcast(vm, loader, instr[1], next_pc)
    if op == "instanceof":
        return _c_instanceof(vm, loader, instr[1], next_pc)
    if op == "invokevirtual":
        return _c_invokevirtual(vm, instr[2], instr[3], next_pc)
    if op == "invokeinterface":
        return _c_invokeinterface(vm, loader, instr[1], instr[2], instr[3],
                                  next_pc)
    if op == "invokespecial":
        return _c_invokespecial(vm, loader, instr[1], instr[2], instr[3],
                                next_pc)
    if op == "invokestatic":
        return _c_invokestatic(vm, loader, instr[1], instr[2], instr[3],
                               next_pc)
    if op == "return":
        return _c_return()
    if op in ("ireturn", "areturn", "dreturn"):
        return _c_value_return()
    if op == "athrow":
        return _c_athrow(vm)
    if op == "monitorenter":
        return _c_monitorenter(vm, next_pc)
    if op == "monitorexit":
        return _c_monitorexit(vm, next_pc)
    raise AssertionError(  # pragma: no cover - check_classfile rejects these
        f"unknown opcode {op!r}"
    )


def _entry_points(code, handlers):
    """Every pc that can be jumped to; fusion must not cover them."""
    entries = {0}
    for instr in code:
        if len(instr) > 1 and instr[0] in _BRANCH_OPS:
            entries.add(instr[1])
    for handler in handlers:
        entries.add(handler.handler_pc)
    return entries


def _clear(entries, start, stop):
    """True if no pc in [start, stop) is an entry point."""
    for pc in range(start, stop):
        if pc in entries:
            return False
    return True


def _try_fuse(code, entries, pc, length):
    """Return (fused_closure, width) for the longest idiom at ``pc``."""
    op = code[pc][0]
    # ILOAD · ILOAD · IF_ICMP* (loop head / guard)
    if (op == "iload" and pc + 2 < length
            and code[pc + 1][0] == "iload"
            and code[pc + 2][0] in _CMP_BRANCHES
            and _clear(entries, pc + 1, pc + 3)):
        return (
            _f_cmp_branch(code[pc + 2][0], code[pc][1], code[pc + 1][1],
                          code[pc + 2][1], pc),
            3,
        )
    # IINC · GOTO (loop tail)
    if (op == "iinc" and pc + 1 < length
            and code[pc + 1][0] == "goto"
            and pc + 1 not in entries):
        return _f_iinc_goto(code[pc][1], code[pc][2], code[pc + 1][1]), 2
    # run of local/const pushes (argument pushes)
    if op in _PUSH_LOCAL or op in _PUSH_CONST:
        stop = pc + 1
        limit = min(length, pc + _MAX_RUN)
        while (stop < limit and stop not in entries
               and (code[stop][0] in _PUSH_LOCAL
                    or code[stop][0] in _PUSH_CONST)):
            stop += 1
        if stop - pc >= 2:
            items = tuple(
                (True, code[run_pc][1])
                if code[run_pc][0] in _PUSH_LOCAL
                else (False,
                      None if code[run_pc][0] == "aconst_null"
                      else code[run_pc][1])
                for run_pc in range(pc, stop)
            )
            return _f_push_run(items, pc), stop - pc
    return None


def compile_method(vm, rtclass, method):
    """Compile one method body into a threaded-code stream."""
    loader = rtclass.loader
    code = method.code
    stream = [
        _compile_instr(vm, loader, pc, instr)
        for pc, instr in enumerate(code)
    ]
    entries = _entry_points(code, method.handlers)
    length = len(code)
    pc = 0
    while pc < length:
        fused = _try_fuse(code, entries, pc, length)
        if fused is not None:
            stream[pc], width = fused
            pc += width
        else:
            pc += 1
    return stream


def compile_class(vm, rtclass):
    """Compile every concrete method of a linked class (called by the
    loader after verification)."""
    classfile = rtclass.classfile
    if classfile is None:
        return
    streams = rtclass.code_streams
    for method in classfile.methods:
        if method.code:
            streams[(method.name, method.desc)] = compile_method(
                vm, rtclass, method
            )
