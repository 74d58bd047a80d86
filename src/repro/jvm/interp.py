"""The MiniJVM bytecode interpreter.

A steppable, re-entrant stack-machine interpreter: the scheduler hands it a
thread and an instruction budget, and it executes until the budget runs
out, the thread blocks, or the thread terminates.  All guest-visible
failures (null dereference, bad cast, division by zero, …) are delivered
as guest exceptions that unwind guest frames through exception handlers.

Verified code cannot reach the interpreter's internal error paths: the
verifier guarantees operand types, stack bounds and resolution success, so
the only dynamic checks here are the ones the JVM also makes at run time
(null, bounds, cast, array store, interface dispatch, monitor ownership).
"""

from __future__ import annotations

from .dispatch import DispatchError
from .heap import MAX_ARRAY_LENGTH
from .values import OBJECT, i8, i32
from .threads import BLOCKED, RUNNABLE, TERMINATED, Frame

# Sentinel returned by a native method that must block and be retried.
NATIVE_BLOCKED = object()

NULL_POINTER = "java/lang/NullPointerException"
ARITHMETIC = "java/lang/ArithmeticException"
ARRAY_BOUNDS = "java/lang/ArrayIndexOutOfBoundsException"
NEGATIVE_SIZE = "java/lang/NegativeArraySizeException"
OUT_OF_MEMORY = "java/lang/OutOfMemoryError"
CLASS_CAST = "java/lang/ClassCastException"
ARRAY_STORE = "java/lang/ArrayStoreException"
ILLEGAL_MONITOR = "java/lang/IllegalMonitorStateException"
INCOMPATIBLE = "java/lang/IncompatibleClassChangeError"
UNSATISFIED_LINK = "java/lang/UnsatisfiedLinkError"


class GuestUnwind(Exception):
    """A guest exception in flight inside the interpreter.

    ``ticks`` is how many instruction slots the raiser accounts for —
    normally 1 (the faulting instruction), but a fast-tier function that
    faults (:mod:`repro.jvm.frameless`) reports every instruction it
    retired before the fault too, keeping retired-tick accounting
    identical across dispatch tiers.
    """

    __slots__ = ("jobject", "ticks")

    def __init__(self, jobject, ticks=1):
        self.jobject = jobject
        self.ticks = ticks


class Interpreter:
    """Drives guest threads through one of two dispatch tiers.

    ``use_threaded`` (the VM's ``threaded_code``) selects the fast tier,
    the default: each method runs as one Python function generated from
    the templates of :mod:`repro.jvm.frameless`, compiled the first time
    the method runs.  Otherwise every instruction goes through the generic
    decoder in :meth:`_execute`, the oracle the templates are held to.
    The two tiers are behaviourally identical; the flag exists for
    differential testing and for embedders that want the simpler decoder.
    Flip it only between calls: the fast tier resumes a frame only at a
    block start, and the generic decoder may leave one anywhere.
    """

    def __init__(self, vm):
        # imported here: the fast tier's templates build on this module
        from .frameless import resume

        self.vm = vm
        self.instructions_retired = 0
        self.use_threaded = True
        self._resume = resume

    # -- driving ---------------------------------------------------------
    def step(self, thread, max_instrs):
        """Execute up to ``max_instrs`` instructions of ``thread``.

        On the fast tier one iteration resumes the top frame's function,
        which runs until it returns, spills (at a call it may not make
        directly, a contended monitor, a native that pauses the thread)
        or has retired what is left of the budget; it reports every tick
        it retired, so tick accounting
        matches the generic tier.  It checks the budget at backward
        branches, invokes and returns, so the step overshoots by at most
        the straight-line code between two checks plus one bounded callee
        and one leaf, and the thread never finishes inside the overshoot.
        """
        executed = 0
        use_threaded = self.use_threaded
        resume = self._resume
        vm = self.vm
        frames = thread.frames
        while executed < max_instrs:
            if thread.state != RUNNABLE or thread.suspended:
                break
            if thread.pending_stop is not None:
                jobject = thread.pending_stop
                thread.pending_stop = None
                executed += 1
                self._deliver(thread, jobject)
                continue
            if not frames:
                thread.state = TERMINATED
                break
            frame = frames[-1]
            try:
                if use_threaded:
                    executed += resume(vm, thread, frame,
                                       max_instrs - executed)
                else:
                    self._execute(thread, frame)
                    executed += 1
            except GuestUnwind as unwind:
                executed += unwind.ticks
                self._deliver(thread, unwind.jobject)
            if thread.yielded:
                thread.yielded = False
                break
        self.instructions_retired += executed
        return executed

    # -- guest exception machinery ---------------------------------------------
    def throw(self, thread, class_name, message=None):
        """Create and raise a guest exception (used by opcode handlers and
        native methods)."""
        jobject = self.vm.make_throwable(
            class_name, message, owner=thread.domain_tag
        )
        raise GuestUnwind(jobject)

    def _deliver(self, thread, jobject):
        top = True
        while thread.frames:
            frame = thread.frames[-1]
            fault_pc = frame.pc if top else frame.pc - 1
            handler = self._find_handler(frame, fault_pc, jobject)
            if handler is not None:
                frame.pc = handler
                frame.stack.clear()
                frame.stack.append(jobject)
                return
            thread.frames.pop()
            top = False
        thread.uncaught = jobject
        thread.state = TERMINATED
        wake = self.vm.scheduler.wake
        for waiter in self.vm.monitors.discard(thread):
            wake(waiter)

    def _find_handler(self, frame, fault_pc, jobject):
        for handler in frame.method.handlers:
            if not handler.start_pc <= fault_pc < handler.end_pc:
                continue
            if handler.catch_type is None:
                return handler.handler_pc
            catch_class = frame.rtclass.loader.load(handler.catch_type)
            if jobject.jclass.is_assignable_to(catch_class):
                return handler.handler_pc
        return None

    # -- invocation --------------------------------------------------------------
    def _invoke(self, thread, frame, owner, method, total_args):
        stack = frame.stack
        if method.is_native:
            binding = owner.native_bindings.get(method.key)
            if binding is None:
                found = self.vm.natives.lookup(owner, method)
                if found is None:
                    self.throw(
                        thread,
                        UNSATISFIED_LINK,
                        f"{owner.name}.{method.name}{method.desc}",
                    )
                binding = owner.native_bindings[method.key] = found
            args = stack[len(stack) - total_args:] if total_args else []
            result = binding(self.vm, thread, args)
            if result is NATIVE_BLOCKED:
                return
            if total_args:
                del stack[len(stack) - total_args:]
            if not method.desc.endswith(")V"):
                stack.append(result)
            frame.pc += 1
            return
        args = stack[len(stack) - total_args:] if total_args else []
        if total_args:
            del stack[len(stack) - total_args:]
        frame.pc += 1
        thread.frames.append(Frame(owner, method, args))

    # -- the big switch --------------------------------------------------------
    def _execute(self, thread, frame):
        vm = self.vm
        stack = frame.stack
        locals_ = frame.locals
        instr = frame.code[frame.pc]
        op = instr[0]

        # --- loads/stores/constants (hot) ---
        if op == "iload" or op == "aload" or op == "dload":
            stack.append(locals_[instr[1]])
            frame.pc += 1
        elif op == "istore" or op == "astore" or op == "dstore":
            locals_[instr[1]] = stack.pop()
            frame.pc += 1
        elif op == "iconst":
            stack.append(instr[1])
            frame.pc += 1
        elif op == "dconst":
            stack.append(instr[1])
            frame.pc += 1
        elif op == "ldc_str":
            stack.append(vm.intern(instr[1]))
            frame.pc += 1
        elif op == "aconst_null":
            stack.append(None)
            frame.pc += 1
        elif op == "iinc":
            locals_[instr[1]] = i32(locals_[instr[1]] + instr[2])
            frame.pc += 1

        # --- int arithmetic ---
        elif op == "iadd":
            b = stack.pop()
            stack[-1] = i32(stack[-1] + b)
            frame.pc += 1
        elif op == "isub":
            b = stack.pop()
            stack[-1] = i32(stack[-1] - b)
            frame.pc += 1
        elif op == "imul":
            b = stack.pop()
            stack[-1] = i32(stack[-1] * b)
            frame.pc += 1
        elif op == "idiv":
            b = stack.pop()
            a = stack[-1]
            if b == 0:
                self.throw(thread, ARITHMETIC, "/ by zero")
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            stack[-1] = i32(quotient)
            frame.pc += 1
        elif op == "irem":
            b = stack.pop()
            a = stack[-1]
            if b == 0:
                self.throw(thread, ARITHMETIC, "% by zero")
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            stack[-1] = i32(a - quotient * b)
            frame.pc += 1
        elif op == "ineg":
            stack[-1] = i32(-stack[-1])
            frame.pc += 1
        elif op == "ishl":
            b = stack.pop()
            stack[-1] = i32(stack[-1] << (b & 31))
            frame.pc += 1
        elif op == "ishr":
            b = stack.pop()
            stack[-1] = i32(stack[-1] >> (b & 31))
            frame.pc += 1
        elif op == "iand":
            b = stack.pop()
            stack[-1] = i32(stack[-1] & b)
            frame.pc += 1
        elif op == "ior":
            b = stack.pop()
            stack[-1] = i32(stack[-1] | b)
            frame.pc += 1
        elif op == "ixor":
            b = stack.pop()
            stack[-1] = i32(stack[-1] ^ b)
            frame.pc += 1

        # --- double arithmetic ---
        elif op == "dadd":
            b = stack.pop()
            stack[-1] = stack[-1] + b
            frame.pc += 1
        elif op == "dsub":
            b = stack.pop()
            stack[-1] = stack[-1] - b
            frame.pc += 1
        elif op == "dmul":
            b = stack.pop()
            stack[-1] = stack[-1] * b
            frame.pc += 1
        elif op == "ddiv":
            b = stack.pop()
            a = stack[-1]
            if b == 0.0:
                stack[-1] = float("nan") if a == 0.0 else (
                    float("inf") if a > 0 else float("-inf")
                )
            else:
                stack[-1] = a / b
            frame.pc += 1
        elif op == "dneg":
            stack[-1] = -stack[-1]
            frame.pc += 1
        elif op == "dcmp":
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
            frame.pc += 1
        elif op == "i2d":
            stack[-1] = float(stack[-1])
            frame.pc += 1
        elif op == "d2i":
            value = stack[-1]
            if value != value:
                stack[-1] = 0
            elif value >= 2147483647.0:
                stack[-1] = 2147483647
            elif value <= -2147483648.0:
                stack[-1] = -2147483648
            else:
                stack[-1] = int(value)
            frame.pc += 1

        # --- stack ops ---
        elif op == "pop":
            stack.pop()
            frame.pc += 1
        elif op == "dup":
            stack.append(stack[-1])
            frame.pc += 1
        elif op == "dup_x1":
            top = stack.pop()
            under = stack.pop()
            stack += [top, under, top]
            frame.pc += 1
        elif op == "swap":
            stack[-1], stack[-2] = stack[-2], stack[-1]
            frame.pc += 1
        elif op == "nop":
            frame.pc += 1

        # --- branches ---
        elif op == "goto":
            frame.pc = instr[1]
        elif op == "ifeq":
            frame.pc = instr[1] if stack.pop() == 0 else frame.pc + 1
        elif op == "ifne":
            frame.pc = instr[1] if stack.pop() != 0 else frame.pc + 1
        elif op == "iflt":
            frame.pc = instr[1] if stack.pop() < 0 else frame.pc + 1
        elif op == "ifle":
            frame.pc = instr[1] if stack.pop() <= 0 else frame.pc + 1
        elif op == "ifgt":
            frame.pc = instr[1] if stack.pop() > 0 else frame.pc + 1
        elif op == "ifge":
            frame.pc = instr[1] if stack.pop() >= 0 else frame.pc + 1
        elif op == "if_icmpeq":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() == b else frame.pc + 1
        elif op == "if_icmpne":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() != b else frame.pc + 1
        elif op == "if_icmplt":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() < b else frame.pc + 1
        elif op == "if_icmple":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() <= b else frame.pc + 1
        elif op == "if_icmpgt":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() > b else frame.pc + 1
        elif op == "if_icmpge":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() >= b else frame.pc + 1
        elif op == "if_acmpeq":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() is b else frame.pc + 1
        elif op == "if_acmpne":
            b = stack.pop()
            frame.pc = instr[1] if stack.pop() is not b else frame.pc + 1
        elif op == "ifnull":
            frame.pc = instr[1] if stack.pop() is None else frame.pc + 1
        elif op == "ifnonnull":
            frame.pc = instr[1] if stack.pop() is not None else frame.pc + 1

        # --- fields ---
        elif op == "getfield":
            receiver = stack.pop()
            if receiver is None:
                self.throw(thread, NULL_POINTER, f"getfield {instr[2]}")
            stack.append(receiver.fields[receiver.jclass.field_slots[instr[2]]])
            frame.pc += 1
        elif op == "putfield":
            value = stack.pop()
            receiver = stack.pop()
            if receiver is None:
                self.throw(thread, NULL_POINTER, f"putfield {instr[2]}")
            receiver.fields[receiver.jclass.field_slots[instr[2]]] = value
            frame.pc += 1
        elif op == "getstatic":
            rtclass = frame.rtclass.loader.load(instr[1])
            owner, index, _ = rtclass.find_static(instr[2])
            stack.append(owner.static_slots[index])
            frame.pc += 1
        elif op == "putstatic":
            rtclass = frame.rtclass.loader.load(instr[1])
            owner, index, _ = rtclass.find_static(instr[2])
            owner.static_slots[index] = stack.pop()
            frame.pc += 1

        # --- allocation ---
        elif op == "new":
            rtclass = frame.rtclass.loader.load(instr[1])
            stack.append(vm.heap.new_object(rtclass, owner=thread.domain_tag))
            frame.pc += 1
        elif op == "newarray":
            length = stack.pop()
            if length < 0:
                self.throw(thread, NEGATIVE_SIZE, str(length))
            if length > MAX_ARRAY_LENGTH:
                self.throw(thread, OUT_OF_MEMORY, str(length))
            array_class = vm.array_class_for_descriptor(
                "[" + instr[1], frame.rtclass.loader
            )
            stack.append(
                vm.heap.new_array(array_class, length, owner=thread.domain_tag)
            )
            frame.pc += 1

        # --- arrays ---
        elif op in ("baload", "iaload", "daload", "aaload"):
            index = stack.pop()
            array = stack.pop()
            if array is None:
                self.throw(thread, NULL_POINTER, "array load")
            if not 0 <= index < len(array.elems):
                self.throw(thread, ARRAY_BOUNDS, str(index))
            stack.append(array.elems[index])
            frame.pc += 1
        elif op == "bastore":
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is None:
                self.throw(thread, NULL_POINTER, "bastore")
            if not 0 <= index < len(array.elems):
                self.throw(thread, ARRAY_BOUNDS, str(index))
            array.elems[index] = i8(value)
            frame.pc += 1
        elif op == "iastore":
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is None:
                self.throw(thread, NULL_POINTER, "iastore")
            if not 0 <= index < len(array.elems):
                self.throw(thread, ARRAY_BOUNDS, str(index))
            array.elems[index] = i32(value)
            frame.pc += 1
        elif op == "dastore":
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is None:
                self.throw(thread, NULL_POINTER, "dastore")
            if not 0 <= index < len(array.elems):
                self.throw(thread, ARRAY_BOUNDS, str(index))
            array.elems[index] = value
            frame.pc += 1
        elif op == "aastore":
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is None:
                self.throw(thread, NULL_POINTER, "aastore")
            if not 0 <= index < len(array.elems):
                self.throw(thread, ARRAY_BOUNDS, str(index))
            if value is not None:
                element_class = array.jclass.element_class
                if element_class is not None and not value.jclass.is_assignable_to(
                    element_class
                ):
                    self.throw(
                        thread,
                        ARRAY_STORE,
                        f"{value.jclass.name} into {array.jclass.name}",
                    )
            array.elems[index] = value
            frame.pc += 1
        elif op == "arraylength":
            array = stack.pop()
            if array is None:
                self.throw(thread, NULL_POINTER, "arraylength")
            stack.append(len(array.elems))
            frame.pc += 1

        # --- invocation ---
        elif op == "invokevirtual":
            total = vm.arg_count(instr[3]) + 1
            receiver = stack[-total]
            if receiver is None:
                self.throw(thread, NULL_POINTER, f"invokevirtual {instr[2]}")
            index = receiver.jclass.vindex[(instr[2], instr[3])]
            owner, method = receiver.jclass.vtable[index]
            self._invoke(thread, frame, owner, method, total)
        elif op == "invokeinterface":
            total = vm.arg_count(instr[3]) + 1
            receiver = stack[-total]
            if receiver is None:
                self.throw(thread, NULL_POINTER, f"invokeinterface {instr[2]}")
            iface = frame.rtclass.loader.load(instr[1])
            try:
                owner, method = vm.dispatcher.lookup(
                    receiver.jclass, iface, instr[2], instr[3]
                )
            except DispatchError as exc:
                self.throw(thread, INCOMPATIBLE, str(exc))
            self._invoke(thread, frame, owner, method, total)
        elif op == "invokespecial":
            total = vm.arg_count(instr[3]) + 1
            receiver = stack[-total]
            if receiver is None:
                self.throw(thread, NULL_POINTER, f"invokespecial {instr[2]}")
            target_class = frame.rtclass.loader.load(instr[1])
            owner, method = target_class.find_declared(instr[2], instr[3])
            self._invoke(thread, frame, owner, method, total)
        elif op == "invokestatic":
            total = vm.arg_count(instr[3])
            target_class = frame.rtclass.loader.load(instr[1])
            owner, method = target_class.find_declared(instr[2], instr[3])
            self._invoke(thread, frame, owner, method, total)

        # --- casts ---
        elif op == "checkcast":
            value = stack[-1]
            if value is not None:
                target = self._type_operand(frame, instr[1])
                if not value.jclass.is_assignable_to(target):
                    self.throw(
                        thread,
                        CLASS_CAST,
                        f"{value.jclass.name} cannot be cast to {target.name}",
                    )
            frame.pc += 1
        elif op == "instanceof":
            value = stack.pop()
            if value is None:
                stack.append(0)
            else:
                target = self._type_operand(frame, instr[1])
                stack.append(1 if value.jclass.is_assignable_to(target) else 0)
            frame.pc += 1

        # --- returns ---
        elif op == "return":
            thread.frames.pop()
            if not thread.frames:
                thread.result = None
                thread.state = TERMINATED
        elif op in ("ireturn", "areturn", "dreturn"):
            value = stack.pop()
            thread.frames.pop()
            if thread.frames:
                thread.frames[-1].stack.append(value)
            else:
                thread.result = value
                thread.state = TERMINATED

        # --- exceptions and monitors ---
        elif op == "athrow":
            value = stack.pop()
            if value is None:
                self.throw(thread, NULL_POINTER, "athrow null")
            raise GuestUnwind(value)
        elif op == "monitorenter":
            target = stack[-1]
            if target is None:
                self.throw(thread, NULL_POINTER, "monitorenter")
            if vm.monitors.try_enter(target, thread):
                stack.pop()
                frame.pc += 1
            else:
                thread.state = BLOCKED
                thread.blocked_on = target
        elif op == "monitorexit":
            target = stack.pop()
            if target is None:
                self.throw(thread, NULL_POINTER, "monitorexit")
            woken = vm.monitors.exit(target, thread)
            if woken is None:
                self.throw(thread, ILLEGAL_MONITOR, "not owner")
            for waiter in woken:
                vm.scheduler.wake(waiter)
            frame.pc += 1
        else:  # pragma: no cover - verifier rejects unknown opcodes
            raise AssertionError(f"unhandled opcode {op}")

    def _type_operand(self, frame, name):
        if name.startswith("["):
            return self.vm.array_class_for_descriptor(name, frame.rtclass.loader)
        return frame.rtclass.loader.load(name)
