"""The fast tier: every guest method as one generated Python function.

The first time a method runs on the fast tier, :func:`function_for`
compiles it from the per-opcode source templates below into one function
``fn(thread, args, frame, cap) -> (result, ticks)``.  The operand stack
and the locals are Python locals, per-site caches are closure cells, and
a loop is a Python loop.  :mod:`repro.jvm.interp`'s generic decoder is
the oracle these templates are held to; no opcode's semantics is written
anywhere else.

Two ways in
-----------

* **Fresh**, ``fn(thread, args, None, cap)``: an invoke site calls its
  callee directly, with the arguments, and no :class:`Frame` is made.
  ``ticks`` then counts the invoke too, as the generic tier does.
* **Resumed**, ``fn(thread, None, frame, cap)``: :func:`resume` runs the
  top frame of a thread from ``frame.pc`` with the frame's locals and
  operand stack.  It may resume only at a *block start*, and which pcs
  those are is fixed by the bytecode: pc 0, every branch target and
  fall-through, every handler pc, each invoke's pc and pc + 1, each
  ``monitorenter`` and each return.  Any other pc raises
  :class:`AssertionError`; nothing falls back to the generic decoder.

Who calls whom directly is fixed by the callee's *kind*: a *leaf* has no
invoke and no backward branch, a *bounded* method no backward branch.
A resumed function calls any bounded callee directly, a fresh function
only leaves, and every other call pushes the callee's frame.  So at most
three generated functions nest on the host stack, and guest recursion
always goes through frames.  ``invokeinterface`` asks ``vm.dispatcher``
on every call, because Table 1 prices the dispatch strategy.

The spill contract
------------------

Where a function cannot go on, it *spills*: it writes its pc, locals and
operand stack into a frame and returns ``(SPILLED, ticks)``.  A resumed
function writes into the frame it was resumed from; a fresh one pushes a
new frame (beneath the frame of a leaf that spilled or faulted first).
It spills at an invoke of a callee it may not call directly (after
pushing the callee's frame: the dispatcher is asked once per call), at a
native that blocks (to retry it) or that leaves the thread unable to go
on (past it), at a contended ``monitorenter`` (after setting ``BLOCKED``
and retiring one tick, as the generic tier does), and where the budget
runs out.  A guest fault spills at the faulting pc and raises
:class:`GuestUnwind` with every tick retired, so handler lookup, fault pc
and tick counts are the generic tier's by construction.  A handler runs
when the interpreter has delivered the unwind and resumes the frame.

The budget
----------

``cap`` is the number of ticks the function may retire: the interpreter
passes what is left of its step, a function passes a callee what is left
of its own.  Every backward branch, invoke and resumed return checks the
ticks retired so far against it and spills (at the branch target, the
invoke or the return) once they reach it.  So a step overshoots its
budget by at most the straight-line code between two checks, one bounded
callee's and one leaf's, never by a whole loop, and a native runs exactly
when the generic tier would run it.  Because a resumed return checks
too, a thread never finishes inside the overshoot; a fault inside it is
delivered, where the generic tier would have stopped the step first.

GC invariant: a collection runs only from the host, between scheduler
steps, and between steps every guest reference is in a frame.  Guest
references held in a function's Python locals therefore need no
rooting.  If a collection could ever run inside a step (from a native,
say), they would have to be rooted.
"""

from __future__ import annotations

import functools

from .dispatch import DispatchError
from .heap import MAX_ARRAY_LENGTH
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
    OUT_OF_MEMORY,
    UNSATISFIED_LINK,
)
from .instructions import BRANCH_OPCODES
from .natives import guest_throw
from .threads import BLOCKED, RUNNABLE, TERMINATED, Frame
from .values import i8, i32, parse_method_descriptor

#: Result of a function that spilled its state into a frame.
SPILLED = object()


def native_binding(vm, thread, owner, method):
    """Resolve a native binding like the generic tier (lazy, cached on the
    class; unresolved natives throw per call and stay unresolved)."""
    binding = owner.native_bindings.get(method.key)
    if binding is None:
        binding = vm.natives.lookup(owner, method)
        if binding is None:
            guest_throw(
                vm, thread, UNSATISFIED_LINK,
                f"{owner.name}.{method.name}{method.desc}",
            )
        owner.native_bindings[method.key] = binding
    return binding


def resolve_type(vm, loader, name):
    if name.startswith("["):
        return vm.array_class_for_descriptor(name, loader)
    return loader.load(name)


# ---------------------------------------------------------------------------
# templates
#
# ``op -> (stack delta, cache cells, source)``.  In the source, ``{a}``,
# ``{b}`` and ``{c}`` name the top three operand-stack slots, ``{n}`` the
# slot a push fills, ``{o}``/``{o2}`` the operands, ``{P}`` the
# instruction tuple (bound in the function's globals, so the source
# depends on the shape of the code, not on the names it uses), ``{f}``
# the prefix of the site's cache cells, ``{here}`` the arguments of a
# spill at this pc, ``{tk}`` the ticks retired with this instruction and
# ``{fault}`` the arguments of a throw here.  Lazy
# resolution at first execution keeps the generic tier's class-loading
# order.
# ---------------------------------------------------------------------------

_LOAD = (1, "", "{n} = l{o}")
_STORE = (-1, "", "l{o} = {a}")
_ARRAY_LOAD = (-1, "", """\
if {b} is None: raise _throw({fault}, NULL_POINTER, 'array load')
if not 0 <= {a} < len({b}.elems): raise _throw({fault}, ARRAY_BOUNDS, str({a}))
{b} = {b}.elems[{a}]""")
_ARRAY_STORE = """\
if {c} is None: raise _throw({fault}, NULL_POINTER, '%s')
if not 0 <= {b} < len({c}.elems): raise _throw({fault}, ARRAY_BOUNDS, str({b}))
"""
_STATIC = "if {f}s is None: {f}s, {f}i = _static_field(loader, {P})\n"
_TEMPLATES = {
    "iload": _LOAD, "aload": _LOAD, "dload": _LOAD,
    "istore": _STORE, "astore": _STORE, "dstore": _STORE,
    "iconst": (1, "", "{n} = {o!r}"),
    "dconst": (1, "", "{n} = {P}[1]"),
    "aconst_null": (1, "", "{n} = None"),
    # a strong intern table roots the string forever, so the site caches
    # it; a weak one may drop it, so the site re-interns (see _source)
    "ldc_str": (1, "v", """\
if {f}v is None: {f}v = vm.intern({P}[1])
{n} = {f}v"""),
    "iinc": (0, "", "l{o} = i32(l{o} + {o2!r})"),
    "iadd": (-1, "", "{b} = i32({b} + {a})"),
    "isub": (-1, "", "{b} = i32({b} - {a})"),
    "imul": (-1, "", "{b} = i32({b} * {a})"),
    "ishl": (-1, "", "{b} = i32({b} << ({a} & 31))"),
    "ishr": (-1, "", "{b} = i32({b} >> ({a} & 31))"),
    "iand": (-1, "", "{b} = i32({b} & {a})"),
    "ior": (-1, "", "{b} = i32({b} | {a})"),
    "ixor": (-1, "", "{b} = i32({b} ^ {a})"),
    "ineg": (0, "", "{a} = i32(-{a})"),
    "idiv": (-1, "", """\
if {a} == 0: raise _throw({fault}, ARITHMETIC, '/ by zero')
{b} = i32(_quotient({b}, {a}))"""),
    "irem": (-1, "", """\
if {a} == 0: raise _throw({fault}, ARITHMETIC, '% by zero')
{b} = i32({b} - _quotient({b}, {a}) * {a})"""),
    "dadd": (-1, "", "{b} = {b} + {a}"),
    "dsub": (-1, "", "{b} = {b} - {a}"),
    "dmul": (-1, "", "{b} = {b} * {a}"),
    "ddiv": (-1, "", "{b} = _ddiv({b}, {a})"),
    "dneg": (0, "", "{a} = -{a}"),
    "dcmp": (-1, "", "{b} = _dcmp({b}, {a})"),
    "i2d": (0, "", "{a} = float({a})"),
    "d2i": (0, "", "{a} = _d2i({a})"),
    "nop": (0, "", ""),
    "pop": (-1, "", ""),
    "dup": (1, "", "{n} = {a}"),
    "dup_x1": (1, "", "{n} = {a}\n{a} = {b}\n{b} = {n}"),
    "swap": (0, "", "{a}, {b} = {b}, {a}"),
    "getfield": (0, "cs", """\
if {a} is None: raise _throw({fault}, NULL_POINTER, 'getfield ' + {P}[2])
if {a}.jclass is not {f}c:
    {f}s = {a}.jclass.field_slots[{P}[2]]
    {f}c = {a}.jclass
{a} = {a}.fields[{f}s]"""),
    "putfield": (-2, "cs", """\
if {b} is None: raise _throw({fault}, NULL_POINTER, 'putfield ' + {P}[2])
if {b}.jclass is not {f}c:
    {f}s = {b}.jclass.field_slots[{P}[2]]
    {f}c = {b}.jclass
{b}.fields[{f}s] = {a}"""),
    "getstatic": (1, "si", _STATIC + "{n} = {f}s[{f}i]"),
    "putstatic": (-1, "si", _STATIC + "{f}s[{f}i] = {a}"),
    "new": (1, "c", """\
if {f}c is None: {f}c = loader.load({P}[1])
{n} = heap.new_object({f}c, owner=thread.domain_tag)"""),
    "newarray": (0, "c", """\
if {a} < 0: raise _throw({fault}, NEGATIVE_SIZE, str({a}))
if {a} > MAX_ARRAY_LENGTH: raise _throw({fault}, OUT_OF_MEMORY, str({a}))
if {f}c is None:
    {f}c = vm.array_class_for_descriptor('[' + {P}[1], loader)
{a} = heap.new_array({f}c, {a}, owner=thread.domain_tag)"""),
    "baload": _ARRAY_LOAD, "iaload": _ARRAY_LOAD,
    "daload": _ARRAY_LOAD, "aaload": _ARRAY_LOAD,
    "bastore": (-3, "", _ARRAY_STORE % "bastore" + "{c}.elems[{b}] = i8({a})"),
    "iastore": (-3, "", _ARRAY_STORE % "iastore"
                + "{c}.elems[{b}] = i32({a})"),
    "dastore": (-3, "", _ARRAY_STORE % "dastore" + "{c}.elems[{b}] = {a}"),
    "aastore": (-3, "", _ARRAY_STORE % "aastore" + """\
if {a} is not None and {c}.jclass.element_class is not None \\
        and not {a}.jclass.is_assignable_to({c}.jclass.element_class):
    raise _throw({fault}, ARRAY_STORE, \
{a}.jclass.name + ' into ' + {c}.jclass.name)
{c}.elems[{b}] = {a}"""),
    "arraylength": (0, "", """\
if {a} is None: raise _throw({fault}, NULL_POINTER, 'arraylength')
{a} = len({a}.elems)"""),
    "checkcast": (0, "ct", """\
if {a} is not None and {a}.jclass is not {f}c:
    if {f}t is None: {f}t = resolve_type(vm, loader, {P}[1])
    if not {a}.jclass.is_assignable_to({f}t): raise _throw({fault}, \
CLASS_CAST, {a}.jclass.name + ' cannot be cast to ' + {f}t.name)
    {f}c = {a}.jclass"""),
    "instanceof": (0, "t", """\
if {a} is not None:
    if {f}t is None: {f}t = resolve_type(vm, loader, {P}[1])
    {a} = 1 if {a}.jclass.is_assignable_to({f}t) else 0
else: {a} = 0"""),
    "athrow": (-1, "", """\
if {a} is None: raise _throw({fault}, NULL_POINTER, 'athrow null')
raise _unwind({here}, {tk}, {a})"""),
    "monitorenter": (-1, "", """\
if {a} is None: raise _throw({fault}, NULL_POINTER, 'monitorenter')
if not monitors.try_enter({a}, thread):
    thread.state = BLOCKED
    thread.blocked_on = {a}
    return _spill({here}), {tk}"""),
    "monitorexit": (-1, "", """\
if {a} is None: raise _throw({fault}, NULL_POINTER, 'monitorexit')
woken = monitors.exit({a}, thread)
if woken is None: raise _throw({fault}, ILLEGAL_MONITOR, 'not owner')
for waiter in woken: scheduler.wake(waiter)"""),
}
_LDC_WEAK = (1, "", "{n} = vm.intern({P}[1])")

#: conditional branch -> (operands popped, condition)
_CONDITIONS = {
    "ifeq": (1, "{a} == 0"), "ifne": (1, "{a} != 0"),
    "iflt": (1, "{a} < 0"), "ifle": (1, "{a} <= 0"),
    "ifgt": (1, "{a} > 0"), "ifge": (1, "{a} >= 0"),
    "ifnull": (1, "{a} is None"), "ifnonnull": (1, "{a} is not None"),
    "if_icmpeq": (2, "{b} == {a}"), "if_icmpne": (2, "{b} != {a}"),
    "if_icmplt": (2, "{b} < {a}"), "if_icmple": (2, "{b} <= {a}"),
    "if_icmpgt": (2, "{b} > {a}"), "if_icmpge": (2, "{b} >= {a}"),
    "if_acmpeq": (2, "{b} is {a}"), "if_acmpne": (2, "{b} is not {a}"),
}

_RETURNS = frozenset(("return", "ireturn", "areturn", "dreturn"))

#: invoke -> (cache cells, how the site finds its :func:`callee_entry`
#: ``e``).  ``{r}`` is the receiver slot.
_STATIC_SITE = ("e", "if {f}e is None: {f}e = _static_site(vm, thread, "
                     "loader, {P})\ne = {f}e")
_INVOKES = {
    "invokestatic": _STATIC_SITE,
    "invokespecial": _STATIC_SITE,
    "invokevirtual": ("ce", """\
if {r}.jclass is not {f}c:
    {f}e = _virtual_site(vm, thread, {r}.jclass, {P})
    {f}c = {r}.jclass
e = {f}e"""),
    "invokeinterface": ("", "e = _interface_site(vm, thread, loader, "
                            "{r}.jclass, {P}, C{pc})"),
}

#: The rest of an invoke site, after its entry ``e`` is found.  ``nest``
#: is 0 in a resumed function and 1 in a fresh one.
_CALL = """\
    if e[0] is not None: r = e[0](vm, thread, {args})
    elif e[2] > nest: r, tt = e[1](thread, {args}, None, cap - t)
    else: return _framed({here}, {base}, e), t + 1
except BaseException as u:
    raise _unwound(u, {here}, {base}, e, t)
if e[0] is None:
    t += tt
    if r is SPILLED: return _spill({after}, 1), t
else:
    t += 1
    if r is NATIVE_BLOCKED or thread.state != RUNNABLE or thread.yielded \\
            or thread.suspended or thread.pending_stop is not None:
        return _paused({here}, {base}, {void}, r), t
"""


# -- run-time helpers the generated code calls -------------------------------

def _spill(thread, frame, rtclass, method, pc, locals_, stack, beneath=0):
    """Write the function's state into ``frame``, or into a new frame
    pushed on ``thread.frames`` (beneath the frame a leaf pushed).
    Returns :data:`SPILLED`."""
    if frame is None:
        frame = Frame(rtclass, method, locals_)
        frames = thread.frames
        if beneath:
            frames.insert(len(frames) - 1, frame)
        else:
            frames.append(frame)
    else:
        frame.locals = locals_
    frame.stack = stack
    frame.pc = pc
    return SPILLED


def _unwind(thread, frame, rtclass, method, pc, locals_, stack, ticks,
            jobject):
    """Throw ``jobject`` at ``pc``: spill there, return the unwind."""
    _spill(thread, frame, rtclass, method, pc, locals_, stack)
    return GuestUnwind(jobject, ticks)


def _throw(vm, thread, frame, rtclass, method, pc, locals_, stack, ticks,
           class_name, message):
    """A new guest exception thrown at ``pc``."""
    return _unwind(
        thread, frame, rtclass, method, pc, locals_, stack, ticks,
        vm.make_throwable(class_name, message, owner=thread.domain_tag))


def _unwound(exc, thread, frame, rtclass, method, pc, locals_, stack, base,
             entry, ticks):
    """An exception out of the invoke at ``pc``: spill at the invoke, or
    past it and beneath the frame of the callee that raised.  Returns
    ``exc`` with the ticks retired before the invoke added."""
    if entry is not None and entry[0] is None:
        _spill(thread, frame, rtclass, method, pc + 1, locals_, stack[:base],
               1)
    else:
        _spill(thread, frame, rtclass, method, pc, locals_, stack)
    if type(exc) is GuestUnwind:
        exc.ticks += ticks
    return exc


def _framed(thread, frame, rtclass, method, pc, locals_, stack, base, entry):
    """Execute the invoke at ``pc`` of a callee this function may not call
    directly: spill past the invoke, push the callee's frame."""
    _spill(thread, frame, rtclass, method, pc + 1, locals_, stack[:base])
    thread.frames.append(Frame(entry[3], entry[4], stack[base:]))
    return SPILLED


def _paused(thread, frame, rtclass, method, pc, locals_, stack, base, void,
            result):
    """Spill after a native that blocked (retry the invoke) or that left
    the thread unable to go on (resume past it)."""
    if result is NATIVE_BLOCKED:
        return _spill(thread, frame, rtclass, method, pc, locals_, stack)
    stack = stack[:base] if void else stack[:base] + [result]
    return _spill(thread, frame, rtclass, method, pc + 1, locals_, stack)


def _no_entry(frame):
    raise AssertionError(f"{frame!r}: no resume entry at this pc")


def callee_entry(vm, thread, owner, method):
    """``(binding, fn, kind, owner, method)`` for one resolved callee: a
    native's binding, or a method's function and its kind (2 for a leaf,
    1 for a bounded method, 0 for one that may loop)."""
    if method.is_native:
        binding = native_binding(vm, thread, owner, method)
        return binding, None, 0, owner, method
    fn, leaf, bounded = function_for(vm, owner, method)
    return None, fn, leaf + bounded, owner, method


def _static_site(vm, thread, loader, instr):
    owner, method = loader.load(instr[1]).find_declared(instr[2], instr[3])
    return callee_entry(vm, thread, owner, method)


def _virtual_site(vm, thread, jclass, instr):
    owner, method = jclass.vtable[jclass.vindex[(instr[2], instr[3])]]
    return callee_entry(vm, thread, owner, method)


def _interface_site(vm, thread, loader, jclass, instr, cache):
    """Ask the dispatcher on every call (Table 1 prices its strategy);
    ``cache`` holds ``[interface, method, entry]``."""
    if cache[0] is None:
        cache[0] = loader.load(instr[1])
    try:
        owner, method = vm.dispatcher.lookup(
            jclass, cache[0], instr[2], instr[3])
    except DispatchError as exc:
        guest_throw(vm, thread, INCOMPATIBLE, str(exc))
    if method is not cache[1]:
        cache[2] = callee_entry(vm, thread, owner, method)
        cache[1] = method
    return cache[2]


def _static_field(loader, instr):
    owner, index, _ = loader.load(instr[1]).find_static(instr[2])
    return owner.static_slots, index


def _quotient(a, b):
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _ddiv(a, b):
    if b == 0.0:
        return float("nan") if a == 0.0 else (
            float("inf") if a > 0 else float("-inf"))
    return a / b


def _dcmp(a, b):
    if a != a or b != b or a < b:  # NaN compares as less
        return -1
    return 1 if a > b else 0


def _d2i(value):
    if value != value:
        return 0
    if value >= 2147483647.0:
        return 2147483647
    if value <= -2147483648.0:
        return -2147483648
    return int(value)


_GLOBALS = {helper.__name__: helper for helper in (
    i8, i32, resolve_type, _d2i, _dcmp, _ddiv, _framed, _interface_site,
    _no_entry, _paused, _quotient, _spill, _static_field, _static_site,
    _throw, _unwind, _unwound, _virtual_site)}
_GLOBALS.update(
    ARITHMETIC=ARITHMETIC, ARRAY_BOUNDS=ARRAY_BOUNDS, ARRAY_STORE=ARRAY_STORE,
    BLOCKED=BLOCKED, CLASS_CAST=CLASS_CAST, ILLEGAL_MONITOR=ILLEGAL_MONITOR,
    MAX_ARRAY_LENGTH=MAX_ARRAY_LENGTH, NATIVE_BLOCKED=NATIVE_BLOCKED,
    NEGATIVE_SIZE=NEGATIVE_SIZE, NULL_POINTER=NULL_POINTER,
    OUT_OF_MEMORY=OUT_OF_MEMORY, RUNNABLE=RUNNABLE, SPILLED=SPILLED)


# -- the compiler --------------------------------------------------------------

def _arg_count(op, desc):
    return len(parse_method_descriptor(desc)[0]) + (op != "invokestatic")


def _plan(method):
    """Operand-stack depth at every pc the verifier reached (from pc 0 and
    along exception edges), and the block starts: the resume entries."""
    code = method.code
    depth = {0: 0}
    leaders = {0}
    work = [0]
    while work:
        pc = work.pop()
        instr = code[pc]
        op = instr[0]
        here = depth[pc]
        if op in _CONDITIONS:
            after = here - _CONDITIONS[op][0]
            successors = [(instr[1], after), (pc + 1, after)]
        elif op == "goto":
            successors = [(instr[1], here)]
        elif op in _INVOKES:
            leaders.add(pc)
            successors = [(pc + 1, here - _arg_count(op, instr[3])
                           + (not instr[3].endswith(")V")))]
        elif op in _RETURNS or op == "athrow":
            leaders.add(pc)
            successors = []
        else:
            if op == "monitorenter":
                leaders.add(pc)
            successors = [(pc + 1, here + _TEMPLATES[op][0])]
        if op in BRANCH_OPCODES or op in _INVOKES:
            leaders.update(successor for successor, _ in successors)
        successors += [(handler.handler_pc, 1) for handler in method.handlers
                       if handler.start_pc <= pc < handler.end_pc]
        for successor, successor_depth in successors:
            if successor not in depth:
                depth[successor] = successor_depth
                work.append(successor)
    leaders.update(handler.handler_pc for handler in method.handlers
                   if handler.handler_pc in depth)
    return depth, leaders


def _source(method, weak_intern=False):
    """Source of ``_make()``, which returns the method's function.

    Blocks follow in pc order, each under ``if pc == L``, inside a
    ``while True`` when some branch goes backward.  ``t`` counts the
    ticks retired up to the current block or invoke and ``k`` the
    instructions since.
    """
    code = method.code
    depth, leaders = _plan(method)
    loops = any(code[pc][0] in BRANCH_OPCODES and code[pc][1] <= pc
                for pc in depth)
    nargs = len(parse_method_descriptor(method.desc)[0]) + (
        not method.is_static)
    locals_ = "[" + ", ".join(f"l{i}" for i in range(method.max_locals)) + "]"
    cells = []
    body = []
    indent = ""
    k = 0
    invokes = False

    def stack(top, bottom=0):
        return "[" + ", ".join(f"s{i}" for i in range(bottom, top)) + "]"

    def at(pc, top, bottom=0):
        return f"thread, frame, R, M, {pc}, {locals_}, {stack(top, bottom)}"

    def emit(text):
        body.extend(indent + line for line in text.splitlines())

    def flush(extra=0):
        if k + extra:
            emit(f"t += {k + extra}")

    def backward(target, target_depth):
        emit(f"if t >= cap: return _spill({at(target, target_depth)}), t\n"
             f"pc = {target}\ncontinue")

    for pc in sorted(depth):
        instr = code[pc]
        op = instr[0]
        d = depth[pc]
        if pc in leaders:
            previous = code[pc - 1][0] if pc - 1 in depth else "goto"
            if previous not in _CONDITIONS and previous not in _RETURNS \
                    and previous not in ("goto", "athrow"):
                flush()
                emit(f"pc = {pc}")
            indent = ""
            emit(f"if pc == {pc}:")
            indent = "    "
            k = 0
        names = {
            "a": f"s{d - 1}", "b": f"s{d - 2}", "c": f"s{d - 3}",
            "n": f"s{d}", "pc": pc, "P": f"P{pc}", "f": f"x{pc}",
            "o": instr[1] if len(instr) > 1 else None,
            "o2": instr[2] if len(instr) > 2 else None,
            "here": at(pc, d), "tk": f"t + {k + 1}",
            "fault": f"vm, {at(pc, d)}, t + {k + 1}",
        }
        if op in _TEMPLATES:
            _, site_cells, template = (
                _LDC_WEAK if op == "ldc_str" and weak_intern
                else _TEMPLATES[op])
            cells += [f"x{pc}{cell}" for cell in site_cells]
            emit(template.format(**names))
            k += 1
        elif op in _CONDITIONS:
            flush(1)
            popped, condition = _CONDITIONS[op]
            condition = condition.format(**names)
            target = instr[1]
            if target > pc:
                emit(f"pc = {target} if {condition} else {pc + 1}")
            else:
                emit(f"if {condition}:")
                indent += "    "
                backward(target, d - popped)
                indent = indent[:-4]
                emit(f"pc = {pc + 1}")
        elif op == "goto":
            flush(1)
            if instr[1] > pc:
                emit(f"pc = {instr[1]}")
            else:
                backward(instr[1], d)
        elif op in _RETURNS:
            emit(f"if frame is not None and t >= cap: "
                 f"return _spill({at(pc, d)}), t")
            value = "None" if op == "return" else names["a"]
            emit(f"return {value}, t + 1")
        else:  # an invoke
            flush()
            k = 0
            base = d - _arg_count(op, instr[3])
            void = instr[3].endswith(")V")
            site_cells, resolve = _INVOKES[op]
            cells += [f"x{pc}{cell}" for cell in site_cells]
            invokes = True
            emit(f"if t >= cap: return _spill({at(pc, d)}), t")
            if op != "invokestatic":
                emit(f"if s{base} is None: raise _throw({names['fault']}, "
                     f"NULL_POINTER, '{op} ' + P{pc}[2])")
            emit("e = None\ntry:")
            indent += "    "
            emit(resolve.format(r=f"s{base}", **names))
            indent = indent[:-4]
            emit(_CALL.format(
                args=stack(d, base), here=at(pc, d), base=base,
                after=at(pc + 1, base), void=void))
            if not void:
                emit(f"s{base} = r")
    entry_depths = sorted({depth[pc] for pc in leaders} - {0})
    head = ["def _make():"]
    head += [f"    {cell} = None" for cell in cells]
    head.append("    def fn(thread, args, frame, cap):")
    if cells:
        head.append("        nonlocal " + ", ".join(cells))
    head.append("        if frame is None:")
    if nargs:
        head.append("            " + "".join(
            f"l{i}, " for i in range(nargs)) + "= args")
    if method.max_locals > nargs:
        head.append("            " + " = ".join(
            f"l{i}" for i in range(nargs, method.max_locals)) + " = None")
    head += ["            pc = 0", "            t = 1"]
    if invokes:
        head.append("            nest = 1")
    head += ["        else:",
             "            pc = frame.pc",
             "            if pc not in {%s}: _no_entry(frame)"
             % ", ".join(map(str, sorted(leaders)))]
    if method.max_locals:
        head.append("            " + "".join(
            f"l{i}, " for i in range(method.max_locals)) + "= frame.locals")
    if entry_depths:
        head.append("            S = frame.stack")
        head.append("            n = len(S)")
        for index, entry_depth in enumerate(entry_depths):
            keyword = "elif" if index else "if"
            head.append(f"            {keyword} n == {entry_depth}: "
                        f"{stack(entry_depth)[1:-1]}, = S")
    head.append("            t = 0")
    if invokes:
        head.append("            nest = 0")
    pad = "        "
    if loops:
        head.append("        while True:")
        pad = "            "
    return "\n".join(
        head + [pad + line for line in body] + ["    return fn", ""])


@functools.lru_cache(maxsize=1024)
def _code(method, weak_intern):
    """Equal methods (every world defines its own copy of the same
    classfiles) share one code object, generated once: names, classes
    and constants other than ints live in each function's globals."""
    return compile(_source(method, weak_intern), "<frameless>", "exec")


def _compile(vm, rtclass, method):
    namespace = dict(_GLOBALS, vm=vm, R=rtclass, M=method,
                     loader=rtclass.loader, heap=vm.heap,
                     monitors=vm.monitors, scheduler=vm.scheduler)
    for pc, instr in enumerate(method.code):
        namespace[f"P{pc}"] = instr
        if instr[0] == "invokeinterface":
            namespace[f"C{pc}"] = [None, None, None]
    exec(_code(method, vm.intern_weak), namespace)
    return namespace["_make"]()


def _bounded(code):
    """No backward branch: one activation retires at most len(code)."""
    return all(instr[1] > pc for pc, instr in enumerate(code)
               if instr[0] in BRANCH_OPCODES)


def function_for(vm, rtclass, method):
    """``(fn, is_leaf, is_bounded)`` for a method with code, compiled on
    first use and cached on its class."""
    key = (method.name, method.desc)
    found = rtclass.frameless.get(key)
    if found is None:
        code = method.code
        bounded = _bounded(code)
        leaf = bounded and not any(instr[0] in _INVOKES for instr in code)
        found = (_compile(vm, rtclass, method), leaf, bounded)
        rtclass.frameless[key] = found
    return found


def resume(vm, thread, frame, cap):
    """Run ``frame``, the top of ``thread.frames``, from its pc for at
    most about ``cap`` ticks; returns the ticks retired.  A method that
    returns pops its frame and hands the result on."""
    result, ticks = function_for(vm, frame.rtclass, frame.method)[0](
        thread, None, frame, cap)
    if result is not SPILLED:
        frames = thread.frames
        frames.pop()
        if frames:
            if not frame.method.desc.endswith(")V"):
                frames[-1].stack.append(result)
        else:
            thread.result = result
            thread.state = TERMINATED
    return ticks
