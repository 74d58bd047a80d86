"""The frameless tier: a bounded method as one generated Python function.

A method is *bounded* when its code has no backward branch, so one
activation retires at most ``len(code)`` instructions.  The first time a
threaded-code invoke site (:mod:`repro.jvm.threaded`) resolves to a
bounded method, :func:`function_for` compiles it from the per-opcode
source templates below into one function ``fn(thread, args) ->
(result, ticks)``: the operand stack and the locals are Python locals,
per-site caches are closure cells, and no :class:`Frame` is allocated.
``ticks`` counts the invoke that made the call and every instruction the
function retired, as the generic tier would.  Inside a function a native
invoke calls the native's binding directly; a non-native invoke calls
the callee's function directly only when the callee is a *leaf*, bounded
with no invoke at all (whether an invoke reaches a native is known only
once it resolves), so nesting stops at two levels and recursion is
impossible.

The deopt contract
------------------
Everything without a template is a deopt point: any other opcode
(``new``, ``athrow``, monitors, arrays, statics, ``ldc_str``), an invoke
of a non-leaf, a native that returns ``NATIVE_BLOCKED`` or leaves the
thread not ``RUNNABLE``, yielded, suspended or with a ``pending_stop``,
and any :class:`GuestUnwind`.  There the function materialises the
:class:`Frame` the interpreter would hold — same locals, operand stack
and pc — pushes it on ``thread.frames`` and returns ``(DEOPT, ticks)``;
the threaded tier carries on at that pc.  An invoke of a non-leaf is
executed first (the callee's frame goes on top), so the dispatcher is
asked once per call on both tiers.  A leaf that deopts or faults has
pushed its frame already, and its caller's frame goes beneath it.  On a
fault the frame is pushed at the faulting pc and the unwind re-raised
with the ticks retired so far, so handler lookup, fault pc and tick
counts are the interpreter's by construction (the unwind clears a
faulting frame's stack, so only its locals and pc matter).

A function never outlives the scheduler step that called it.  It reads
that step's budget from ``thread.budget`` and, once it has retired as
many ticks, deopts at its next invoke instead of making the call.  So a
step overshoots its budget by at most one more budget, one function's
straight-line code and one leaf, however often the function calls that
leaf, and a native runs at most one budget of ticks later than the
generic tier's step boundary would allow.  (Telling the function the
ticks left in the step instead would cost an attribute store on every
closure dispatch, loops included.)  Since the caller's frame is still
live then, a thread never finishes inside the overshoot.

GC invariant: a collection runs only from the host, between scheduler
steps, so guest references held in a function's Python locals need no
rooting.  If a collection could ever run inside a step (from a native,
say), those references would have to be rooted.
"""

from __future__ import annotations

import functools

from .dispatch import DispatchError
from .interp import (
    ARITHMETIC,
    CLASS_CAST,
    GuestUnwind,
    INCOMPATIBLE,
    NATIVE_BLOCKED,
    NULL_POINTER,
    UNSATISFIED_LINK,
)
from .instructions import BRANCH_OPCODES
from .threads import RUNNABLE, Frame
from .values import i32, parse_method_descriptor

#: Result of a function that materialised its frame instead of returning.
DEOPT = object()


def guest_throw(vm, thread, class_name, message):
    raise GuestUnwind(
        vm.make_throwable(class_name, message, owner=thread.domain_tag))


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
# ``op -> (stack delta, cache cells, source)``.  In the source, ``{a}``
# and ``{b}`` name the top two operand-stack slots, ``{n}`` the slot a
# push fills, ``{o}``/``{o2}`` the operands, ``{P}`` the instruction tuple
# (bound in the function's globals, so the source depends on the shape of
# the code, not on the names it uses), ``{f}`` the prefix of the site's
# cache cells and ``{fault}`` the spill arguments of a throw here.
# ---------------------------------------------------------------------------

_LOAD = (1, "", "{n} = l{o}")
_STORE = (-1, "", "l{o} = {a}")
_TEMPLATES = {
    "iload": _LOAD, "aload": _LOAD, "dload": _LOAD,
    "istore": _STORE, "astore": _STORE, "dstore": _STORE,
    "iconst": (1, "", "{n} = {o!r}"),
    "dconst": (1, "", "{n} = {P}[1]"),
    "aconst_null": (1, "", "{n} = None"),
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
}

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

#: The rest of an invoke site, after its entry ``e`` is found.
_CALL = """\
    if e[0] is not None: r = e[0](vm, thread, {args})
    elif e[2]: r, tt = e[1](thread, {args})
    else: return _framed(thread, R, M, {pc}, {L}, {S}, {base}, e), t + 1
except BaseException as u:
    raise _unwound(u, thread, R, M, {pc}, {L}, {S}, {base}, e, t)
if e[0] is None:
    t += tt
    if r is DEOPT: return _spill(thread, R, M, {pc} + 1, {L}, {under}, 1), t
else:
    t += 1
    if r is NATIVE_BLOCKED or thread.state != RUNNABLE or thread.yielded \\
            or thread.suspended or thread.pending_stop is not None:
        return _paused(thread, R, M, {pc}, {L}, {S}, {base}, {void}, r), t
"""


# -- run-time helpers the generated code calls -------------------------------

def _spill(thread, rtclass, method, pc, locals_, stack, beneath):
    """Materialise a frame: on top of ``thread.frames``, or beneath the
    frame a leaf pushed.  Returns :data:`DEOPT`."""
    frame = Frame(rtclass, method, locals_)
    frame.stack = stack
    frame.pc = pc
    frames = thread.frames
    if beneath:
        frames.insert(len(frames) - 1, frame)
    else:
        frames.append(frame)
    return DEOPT


def _throw(vm, thread, rtclass, method, pc, locals_, stack, ticks,
           class_name, message):
    """A guest throw at ``pc``: spill the frame, return the unwind."""
    _spill(thread, rtclass, method, pc, locals_, stack, 0)
    return GuestUnwind(
        vm.make_throwable(class_name, message, owner=thread.domain_tag),
        ticks,
    )


def _unwound(exc, thread, rtclass, method, pc, locals_, stack, base, entry,
             ticks):
    """An exception out of the invoke at ``pc``: spill the frame at the
    invoke, or past it and beneath the frame of the leaf that raised.
    Returns ``exc`` with the ticks retired before the invoke added."""
    if entry is not None and entry[0] is None:
        _spill(thread, rtclass, method, pc + 1, locals_, stack[:base], 1)
    else:
        _spill(thread, rtclass, method, pc, locals_, stack, 0)
    if type(exc) is GuestUnwind:
        exc.ticks += ticks
    return exc


def _framed(thread, rtclass, method, pc, locals_, stack, base, entry):
    """Execute the invoke at ``pc`` of a callee that is no leaf as the
    interpreter would: spill past the invoke, push the callee's frame."""
    _spill(thread, rtclass, method, pc + 1, locals_, stack[:base], 0)
    thread.frames.append(Frame(entry[3], entry[4], stack[base:]))
    return DEOPT


def _paused(thread, rtclass, method, pc, locals_, stack, base, void, result):
    """Spill after a native that blocked (retry the invoke) or that left
    the thread unable to go on (resume past it)."""
    if result is NATIVE_BLOCKED:
        return _spill(thread, rtclass, method, pc, locals_, stack, 0)
    stack = stack[:base] if void else stack[:base] + [result]
    return _spill(thread, rtclass, method, pc + 1, locals_, stack, 0)


def callee_entry(vm, thread, owner, method):
    """``(binding, fn, is_leaf, owner, method)`` for one resolved callee:
    a native's binding, or the function of a bounded method (``None``
    when the callee runs on a :class:`Frame`)."""
    if method.is_native:
        binding = native_binding(vm, thread, owner, method)
        return binding, None, False, owner, method
    found = function_for(vm, owner, method) or (None, False)
    return None, found[0], found[1], owner, method


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
    i32, resolve_type, _d2i, _dcmp, _ddiv, _framed, _interface_site,
    _paused, _quotient, _spill, _static_site, _throw, _unwound,
    _virtual_site, GuestUnwind)}
_GLOBALS.update(ARITHMETIC=ARITHMETIC, CLASS_CAST=CLASS_CAST, DEOPT=DEOPT,
                NATIVE_BLOCKED=NATIVE_BLOCKED, NULL_POINTER=NULL_POINTER,
                RUNNABLE=RUNNABLE)


# -- the compiler --------------------------------------------------------------

#: Opcodes a function may start with (any other would deopt at once).
_COMPILED = (frozenset(_TEMPLATES) | frozenset(_CONDITIONS) | _RETURNS
             | frozenset(_INVOKES))


def _bounded(code):
    """No backward branch: one activation retires at most len(code)."""
    return all(instr[1] > pc for pc, instr in enumerate(code)
               if instr[0] in BRANCH_OPCODES)


def _arg_count(op, desc):
    return len(parse_method_descriptor(desc)[0]) + (op != "invokestatic")


def _plan(code):
    """Operand-stack depth at every pc reachable without a deopt, and the
    pcs where a block starts (branch targets and branch fall-throughs)."""
    depth = {0: 0}
    leaders = set()
    for pc, instr in enumerate(code):
        if pc not in depth:
            continue
        op = instr[0]
        here = depth[pc]
        if op in _TEMPLATES:
            successors = [(pc + 1, here + _TEMPLATES[op][0])]
        elif op in _CONDITIONS:
            after = here - _CONDITIONS[op][0]
            successors = [(instr[1], after), (pc + 1, after)]
            leaders.update((instr[1], pc + 1))
        elif op == "goto":
            successors = [(instr[1], here)]
            leaders.add(instr[1])
        elif op in _INVOKES:
            successors = [(pc + 1, here - _arg_count(op, instr[3])
                           + (not instr[3].endswith(")V")))]
        else:  # a return or a deopt point
            successors = []
        for successor, successor_depth in successors:
            depth.setdefault(successor, successor_depth)
    return depth, leaders


def _source(method):
    """Source of ``_make()``, which returns the method's function.

    Blocks follow in pc order, each but the first under ``if pc == L``;
    since every branch goes forward, a block's successors come after it.
    ``t`` counts the ticks retired up to the current block or invoke,
    ``k`` the instructions since, and ``cap`` the step's budget.
    """
    code = method.code
    depth, leaders = _plan(code)
    nargs = len(parse_method_descriptor(method.desc)[0]) + (
        not method.is_static)
    locals_ = "[" + ", ".join(f"l{i}" for i in range(method.max_locals)) + "]"
    cells = []
    body = []
    indent = "    "
    k = 0
    invokes = False

    def stack(top, bottom=0):
        return "[" + ", ".join(f"s{i}" for i in range(bottom, top)) + "]"

    def emit(text):
        body.extend(indent + line for line in text.splitlines())

    def flush(extra=0):
        if k + extra:
            emit(f"t += {k + extra}")

    for pc, instr in enumerate(code):
        if pc not in depth:
            continue
        op = instr[0]
        d = depth[pc]
        if pc in leaders:
            previous = code[pc - 1][0]
            if pc - 1 in depth and (previous in _TEMPLATES
                                    or previous in _INVOKES):
                flush()
                emit(f"pc = {pc}")
            indent = "    "
            emit(f"if pc == {pc}:")
            indent = "        "
            k = 0
        names = {
            "a": f"s{d - 1}", "b": f"s{d - 2}", "n": f"s{d}", "pc": pc,
            "P": f"P{pc}", "f": f"x{pc}",
            "o": instr[1] if len(instr) > 1 else None,
            "o2": instr[2] if len(instr) > 2 else None,
            "fault": f"vm, thread, R, M, {pc}, {locals_}, {stack(d)}, "
                     f"t + {k + 1}",
        }
        if op in _TEMPLATES:
            _, site_cells, template = _TEMPLATES[op]
            cells += [f"x{pc}{cell}" for cell in site_cells]
            emit(template.format(**names))
            k += 1
        elif op in _CONDITIONS:
            flush(1)
            condition = _CONDITIONS[op][1].format(**names)
            emit(f"pc = {instr[1]} if {condition} else {pc + 1}")
        elif op == "goto":
            flush(1)
            emit(f"pc = {instr[1]}")
        elif op in _RETURNS:
            value = "None" if op == "return" else names["a"]
            emit(f"return {value}, t + {k + 1}")
        elif op in _INVOKES:
            flush()
            k = 0
            base = d - _arg_count(op, instr[3])
            void = instr[3].endswith(")V")
            site_cells, resolve = _INVOKES[op]
            cells += [f"x{pc}{cell}" for cell in site_cells]
            invokes = True
            emit(f"if t >= cap: return _spill(thread, R, M, {pc}, "
                 f"{locals_}, {stack(d)}, 0), t")
            if op != "invokestatic":
                emit(f"if s{base} is None: raise _throw(vm, thread, R, M, "
                     f"{pc}, {locals_}, {stack(d)}, t + 1, NULL_POINTER, "
                     f"'{op} ' + P{pc}[2])")
            emit("e = None\ntry:")
            indent += "    "
            emit(resolve.format(r=f"s{base}", **names))
            indent = indent[:-4]
            emit(_CALL.format(
                args=stack(d, base), pc=pc, L=locals_, S=stack(d), base=base,
                under=stack(base), void=void))
            if not void:
                emit(f"s{base} = r")
        else:  # deopt point: the threaded tier executes this instruction
            flush()
            emit(f"return _spill(thread, R, M, {pc}, {locals_}, "
                 f"{stack(d)}, 0), t")
    head = ["def _make():"]
    head += [f"    {cell} = None" for cell in cells]
    head.append("    def fn(thread, args):")
    if cells:
        head.append("        nonlocal " + ", ".join(cells))
    if nargs:
        head.append("        " + "".join(
            f"l{i}, " for i in range(nargs)) + "= args")
    if method.max_locals > nargs:
        head.append("        " + " = ".join(
            f"l{i}" for i in range(nargs, method.max_locals)) + " = None")
    head.append("        t = 1")
    if invokes:
        head.append("        cap = thread.budget")
    return "\n".join(
        head + ["    " + line for line in body] + ["    return fn", ""])


@functools.lru_cache(maxsize=512)
def _code(source):
    """Methods of the same shape share one code object: names, classes
    and constants other than ints live in each function's globals."""
    return compile(source, "<frameless>", "exec")


def _compile(vm, rtclass, method):
    namespace = dict(_GLOBALS, vm=vm, R=rtclass, M=method,
                     loader=rtclass.loader)
    for pc, instr in enumerate(method.code):
        namespace[f"P{pc}"] = instr
        if instr[0] == "invokeinterface":
            namespace[f"C{pc}"] = [None, None, None]
    exec(_code(_source(method)), namespace)
    return namespace["_make"]()


def function_for(vm, rtclass, method):
    """``(fn, is_leaf)`` for a bounded method, compiled on first use and
    cached on its class; ``None`` when the method stays threaded."""
    cache = rtclass.frameless
    key = (method.name, method.desc)
    if key in cache:
        return cache[key]
    code = method.code
    found = None
    if code and code[0][0] in _COMPILED and _bounded(code):
        leaf = not any(instr[0] in _INVOKES for instr in code)
        found = (_compile(vm, rtclass, method), leaf)
    cache[key] = found
    return found
