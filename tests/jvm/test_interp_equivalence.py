"""Generic decoder vs fast tier equivalence.

The fast tier (:mod:`repro.jvm.frameless`, every method one generated
function) must be observationally identical to the generic decoder in
:mod:`repro.jvm.interp`: same results, same guest exceptions delivered to
the same handlers, and the same retired-instruction counts, so scheduling
quanta and step budgets behave the same.

The attack angles:

* fuzzed method bodies (the ``test_verifier_fuzz`` instruction pool) run
  under both tiers in parallel VMs and must agree;
* structured top-level bodies (loops, monitors, arrays, statics, throws
  and handlers) that the fast tier resumes from their frame;
* deterministic programs target block entries — branches into the middle
  of straight-line code, fault-pc attribution, polymorphic call/field
  sites flipping the inline caches — and loops resumed between quanta;
* fuzzed bounded callees reached through static, virtual and interface
  sites, and LRMI stubs whose calls fault, block, yield, stop or run out
  of steps mid-function.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jkvm import JKernelVM
from repro.jvm import ClassFormatError, MapResolver, VerifyError, interface
from repro.jvm.classfile import (
    ClassFile,
    ExceptionHandler,
    FieldDef,
    MethodDef,
)
from repro.jvm.errors import (
    DeadlockError,
    JThrowable,
    LinkageError,
    OutOfStepsError,
)
from repro.jvm.interp import CLASS_CAST, NULL_POINTER
from tests.jvm.test_verifier_fuzz import _POOL, _random_method
from tests.support import assemble, fresh_vm, load_classes, spawned_threads

PUBLIC_STATIC = 0x0009
FUZZ_DESC = "(IIDLjava/lang/Object;)I"


def _run_fuzz_case(vm, code, max_steps=20_000):
    """Define and run one fuzz method; returns (outcome, retired)."""
    classfile = ClassFile(
        name="eq/F",
        methods=(
            MethodDef("f", FUZZ_DESC, PUBLIC_STATIC,
                      max_stack=16, max_locals=8, code=code),
        ),
    )
    loader = vm.new_loader("eq", resolver=MapResolver({}))
    try:
        rtclass = loader.define(classfile)
    except (VerifyError, ClassFormatError, LinkageError) as exc:
        return ("rejected", type(exc).__name__), None
    obj = vm.heap.new_object(vm.object_class)
    before = vm.interpreter.instructions_retired
    try:
        result = vm.call_static(
            rtclass, "f", FUZZ_DESC, [5, -3, 2.5, obj], max_steps=max_steps
        )
    except JThrowable as exc:
        retired = vm.interpreter.instructions_retired - before
        return ("guest-exception", exc.jobject.jclass.name), retired
    except OutOfStepsError:
        return ("out-of-steps",), None
    except DeadlockError:
        return ("deadlock",), None
    retired = vm.interpreter.instructions_retired - before
    return ("ok", result), retired


class TestFuzzedEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(code=_random_method())
    def test_both_tiers_agree(self, code):
        threaded = fresh_vm()
        generic = fresh_vm(threaded_code=False)
        threaded_outcome, threaded_retired = _run_fuzz_case(threaded, code)
        generic_outcome, generic_retired = _run_fuzz_case(generic, code)
        assert threaded_outcome == generic_outcome
        if threaded_outcome[0] in ("ok", "guest-exception"):
            # Tick parity: a function reports every instruction it
            # retired, including those before a fault (GuestUnwind.ticks).
            assert threaded_retired == generic_retired


def _both_vms():
    return fresh_vm(), fresh_vm(threaded_code=False)


def _run_static(vm, classfiles, class_name, method, desc, args):
    loader = load_classes(vm, classfiles)
    return vm.call_static(loader.loaded(class_name), method, desc,
                          list(args))


def _agree(classfiles_builder, class_name, method, desc, args):
    """Run the same program under both tiers; return the (equal) result."""
    results = []
    for vm in _both_vms():
        results.append(
            _run_static(vm, classfiles_builder(), class_name, method, desc,
                        args)
        )
    assert results[0] == results[1]
    return results[0]


def _holder_classfile():
    def build(ca):
        with ca.method("get", "()I") as m:
            m.emit("aload", 0)
            m.emit("getfield", "eq/Holder", "value")
            m.emit("ireturn")
    return assemble("eq/Holder", build, fields=(("value", "I"),))


def _holder2_classfile():
    """Same field name at a different slot (extra leading field)."""
    def build(ca):
        with ca.method("get", "()I") as m:
            m.emit("aload", 0)
            m.emit("getfield", "eq/Holder2", "value")
            m.emit("ireturn")
    return assemble(
        "eq/Holder2", build,
        fields=(("pad", "Ljava/lang/Object;"), ("value", "I")),
    )


class TestFusionEdgeCases:
    def test_fault_pc_inside_fused_getfield(self):
        """An NPE from a GETFIELD must hit a handler that covers only the
        GETFIELD pc: ``probe`` resumed from its frame (called from the
        host), called directly from ``drive`` and as a leaf of ``mid``."""
        def classfiles():
            def build(ca):
                with ca.method("probe", "(Leq/Holder;)I",
                               PUBLIC_STATIC) as m:
                    m.emit("aload", 0)        # pc 0
                    start = m.here()
                    m.emit("getfield", "eq/Holder", "value")  # pc 1: faults
                    end = m.here()
                    m.emit("ireturn")         # pc 2
                    handler = m.here()
                    m.emit("pop")
                    m.emit("iconst", 7)
                    m.emit("ireturn")
                    m.handler(start, end, handler, None)
                for name, callee in (("mid", "probe"), ("drive", "probe"),
                                     ("driveMid", "mid")):
                    with ca.method(name, "(Leq/Holder;)I",
                                   PUBLIC_STATIC) as m:
                        m.emit("aload", 0)
                        m.emit("invokestatic", "eq/Probe", callee,
                               "(Leq/Holder;)I")
                        m.emit("ireturn")
            return [_holder_classfile(), assemble("eq/Probe", build)]

        def run(vm):
            probe = load_classes(vm, classfiles()).loaded("eq/Probe")
            return [_outcome(vm, lambda: vm.call_static(
                probe, name, "(Leq/Holder;)I", [None]))
                for name in ("probe", "drive", "driveMid")]
        # tick parity across the fault (ALOAD retired, GETFIELD
        # faulted): both tiers must retire identical counts
        threaded, generic = _both(run)
        assert threaded == generic
        assert [outcome for outcome, _ in threaded] == [("ok", 7)] * 3

    def test_branch_into_middle_of_push_run(self):
        """A jump target inside a run of pushes starts a block of its
        own, so both ways into it run the same code."""
        def classfiles():
            def build(ca):
                with ca.method("probe", "(I)I", PUBLIC_STATIC) as m:
                    mid = m.label("mid")
                    m.emit("iload", 0)     # pc 0
                    m.emit("ifne", mid)    # pc 1
                    m.emit("iconst", 5)    # pc 2: straight-line code...
                    m.emit("istore", 0)    # pc 3
                    m.mark(mid)
                    m.emit("iconst", 1)    # pc 4: branch target
                    m.emit("iconst", 2)    # pc 5
                    m.emit("iadd")
                    m.emit("ireturn")
            return [assemble("eq/Probe", build)]

        for arg, expected in ((0, 3), (1, 3)):
            assert _agree(classfiles, "eq/Probe", "probe", "(I)I",
                          [arg]) == expected

    def test_polymorphic_field_site_refills_inline_cache(self):
        """The same GETFIELD site sees receivers whose field lives at
        different slots; the monomorphic cache must refill, not go stale."""
        def classfiles():
            def build(ca):
                with ca.method("sum", "(Leq/Holder;Leq/Holder2;)I",
                               PUBLIC_STATIC) as m:
                    m.emit("aload", 0)
                    m.emit("invokevirtual", "eq/Holder", "get", "()I")
                    m.emit("aload", 1)
                    m.emit("invokevirtual", "eq/Holder2", "get", "()I")
                    m.emit("iadd")
                    m.emit("ireturn")
            return [_holder_classfile(), _holder2_classfile(),
                    assemble("eq/Probe", build)]

        results = []
        for vm in _both_vms():
            loader = load_classes(vm, classfiles())
            holder = vm.construct(loader.loaded("eq/Holder"))
            holder.fields[holder.jclass.field_slots["value"]] = 30
            holder2 = vm.construct(loader.loaded("eq/Holder2"))
            holder2.fields[holder2.jclass.field_slots["value"]] = 12
            # same objects twice: cache hit path after the refill path
            for _ in range(2):
                results.append(
                    vm.call_static(
                        loader.loaded("eq/Probe"), "sum",
                        "(Leq/Holder;Leq/Holder2;)I", [holder, holder2],
                    )
                )
        assert results == [42, 42, 42, 42]

    def test_loop_retires_same_tick_count(self):
        """A counted loop, run inside one function and resumed from its
        frame after every quantum, retires identical totals under both
        tiers."""
        def classfiles():
            def build(ca):
                with ca.method("loop", "(I)I", PUBLIC_STATIC) as m:
                    m.emit("iconst", 0)
                    m.emit("istore", 1)
                    loop = m.here()
                    m.emit("iload", 1)     # loop head: a resume entry
                    m.emit("iload", 0)
                    done = m.label("done")
                    m.emit("if_icmpge", done)
                    m.emit("iinc", 1, 1)   # backward branch: budget check
                    m.emit("goto", loop.pc)
                    m.mark(done)
                    m.emit("iload", 1)
                    m.emit("ireturn")
            return [assemble("eq/Probe", build)]

        retireds = []
        for vm in _both_vms():
            loader = load_classes(vm, classfiles())
            before = vm.interpreter.instructions_retired
            result = vm.call_static(loader.loaded("eq/Probe"), "loop",
                                    "(I)I", [500])
            retireds.append(vm.interpreter.instructions_retired - before)
            assert result == 500
        assert retireds[0] == retireds[1]

    def test_revocation_idiom_branches_and_falls_through(self):
        """The stub's ALOAD·GETFIELD·DUP·IFNONNULL revocation idiom: both
        the live (branch) and revoked (fall-through) paths must match the
        generic tier, ``check`` resumed from its frame (called from the
        host) and called directly (from ``drive``)."""
        def classfiles():
            def build(ca):
                with ca.method("check", "(Leq/Holder2;)I",
                               PUBLIC_STATIC) as m:
                    m.emit("aload", 0)
                    m.emit("getfield", "eq/Holder2", "pad")
                    m.emit("dup")
                    live = m.label("live")
                    m.emit("ifnonnull", live)
                    m.emit("pop")
                    m.emit("iconst", -1)
                    m.emit("ireturn")
                    m.mark(live)
                    m.emit("pop")
                    m.emit("iconst", 1)
                    m.emit("ireturn")
                with ca.method("drive", "(Leq/Holder2;)I",
                               PUBLIC_STATIC) as m:
                    m.emit("aload", 0)
                    m.emit("invokestatic", "eq/Probe", "check",
                           "(Leq/Holder2;)I")
                    m.emit("ireturn")
            return [_holder_classfile(), _holder2_classfile(),
                    assemble("eq/Probe", build)]

        for fill_pad, expected in ((False, -1), (True, 1)):
            results = []
            for vm in _both_vms():
                loader = load_classes(vm, classfiles())
                holder2 = vm.construct(loader.loaded("eq/Holder2"))
                if fill_pad:
                    slot = holder2.jclass.field_slots["pad"]
                    holder2.fields[slot] = vm.heap.new_object(
                        vm.object_class
                    )
                results.append([
                    vm.call_static(loader.loaded("eq/Probe"), name,
                                   "(Leq/Holder2;)I", [holder2])
                    for name in ("check", "drive")])
            assert results == [[expected] * 2] * 2

    def test_toggling_tier_on_one_vm(self):
        """``use_threaded`` can be flipped at run time; both tiers of the
        same VM agree (the fast tier compiles a method when it first runs
        it)."""
        vm = fresh_vm()
        loader = load_classes(vm, [_holder_classfile()])
        holder = vm.construct(loader.loaded("eq/Holder"))
        holder.fields[holder.jclass.field_slots["value"]] = 11
        first = vm.call_virtual(holder, "get", "()I")
        vm.interpreter.use_threaded = False
        second = vm.call_virtual(holder, "get", "()I")
        assert (first, second) == (11, 11)


# ---------------------------------------------------------------------------
# the frameless tier
# ---------------------------------------------------------------------------

_SLOT_OPS = frozenset(("iload", "istore", "dload", "dstore", "aload",
                       "astore", "iinc"))
_INT_OPS = ("iadd", "isub", "imul", "idiv", "irem", "ishl", "ishr", "iand",
            "ior", "ixor")


_HOLDER = "fz/C"  # the callee class also holds the int field ``v``
_CASTS = ("java/lang/Object", _HOLDER, "java/lang/Thread")
#: array lengths, one above the VM's limit (an OutOfMemoryError)
_SIZES = (-1, 0, 3, 2**31 - 1)


def _expr(draw, kind, depth):
    """Instructions pushing one value of ``kind``: ``I``, ``D``, ``A`` (an
    Object), ``H`` (a holder of ``v``, or null) or ``[`` (an int array).
    Locals 0..4 hold I, I, D, A, H."""
    if kind == "H":
        return [("aload", 4) if draw(st.integers(0, 3)) else ("aconst_null",)]
    pick = draw(st.integers(0, 11 if depth else 1))
    sub = depth - 1
    if kind == "I":
        if pick == 0:
            return [("iload", draw(st.sampled_from((0, 1))))]
        if pick == 1:
            return [("iconst", draw(st.sampled_from((0, 1, 3, -7, 2**31 - 1))))]
        if pick <= 3:
            return (_expr(draw, "I", sub) + _expr(draw, "I", sub)
                    + [(draw(st.sampled_from(_INT_OPS)),)])
        if pick == 4:
            return _expr(draw, "I", sub) + [("ineg",)]
        if pick == 5:
            if draw(st.booleans()):
                return _expr(draw, "D", sub) + [("d2i",)]
            return (_expr(draw, "D", sub) + _expr(draw, "D", sub)
                    + [("dcmp",)])
        if pick == 6:
            return (_expr(draw, "[", sub) + _expr(draw, "I", sub)
                    + [("iaload",)])
        if pick == 7:
            return _expr(draw, "A", sub) + [
                ("instanceof", draw(st.sampled_from(_CASTS)))]
        if pick == 8:
            return _expr(draw, "H", sub) + [("getfield", _HOLDER, "v")]
        op = (draw(st.sampled_from(_INT_OPS)),)
        if pick == 9:
            return _expr(draw, "I", sub) + [("dup",), op]
        pair = _expr(draw, "I", sub) + _expr(draw, "I", sub)
        if pick == 10:
            return pair + [("dup_x1",), op, (draw(st.sampled_from(_INT_OPS)),)]
        return pair + [("swap",), op]
    if kind == "D":
        if pick == 0:
            return [("dload", 2)]
        if pick == 1:
            return [("dconst", draw(st.sampled_from((0.5, -3.0, 0.0))))]
        if pick <= 4:
            return (_expr(draw, "D", sub) + _expr(draw, "D", sub)
                    + [(draw(st.sampled_from(
                        ("dadd", "dsub", "dmul", "ddiv"))),)])
        if pick == 5:
            return _expr(draw, "D", sub) + [("dneg",)]
        return _expr(draw, "I", sub) + [("i2d",)]
    if kind == "A":
        if pick == 0:
            return [("aload", draw(st.sampled_from((3, 4))))]
        if pick == 1:
            return [("aconst_null",)]
        if pick <= 3:
            return [("new", "java/lang/Object")]
        return _expr(draw, "A", sub) + [
            ("checkcast", draw(st.sampled_from(_CASTS)))]
    return [("iconst", draw(st.sampled_from(_SIZES))), ("newarray", "I")]


def _statement(draw, pick=None):
    """Instructions that leave the stack empty; a branch (``pick`` 9 to
    13) holds ``("label", k)``: the start of the k-th statement after
    this one."""
    if pick is None:
        pick = draw(st.integers(0, 13))
    if pick == 0:
        return _expr(draw, "I", 2) + [("istore", draw(st.integers(0, 1)))]
    if pick == 1:
        return _expr(draw, "D", 2) + [("dstore", 2)]
    if pick == 2:
        return _expr(draw, "A", 1) + [("astore", 3)]
    if pick == 3:
        return [("iinc", draw(st.integers(0, 1)), draw(st.integers(-2, 2)))]
    if pick == 4:
        return (_expr(draw, "[", 1) + _expr(draw, "I", 1)
                + _expr(draw, "I", 1) + [("iastore",)])
    if pick == 5:
        return [("invokestatic", "java/lang/Thread", "yield", "()V")]
    if pick == 6:
        return _expr(draw, "I", 2) + [("ireturn",)]
    if pick == 7:
        return _expr(draw, "I", 2) + [("pop",)]
    if pick == 8:
        return (_expr(draw, "H", 0) + _expr(draw, "I", 2)
                + [("putfield", _HOLDER, "v")])
    label = ("label", draw(st.integers(1, 4)))
    if pick == 9:
        return _expr(draw, "I", 2) + [(draw(st.sampled_from(
            ("ifeq", "ifne", "iflt", "ifle", "ifgt", "ifge"))), label)]
    if pick == 10:
        return _expr(draw, "A", 1) + [(draw(st.sampled_from(
            ("ifnull", "ifnonnull"))), label)]
    if pick == 11:
        return (_expr(draw, "I", 1) + _expr(draw, "I", 1)
                + [(draw(st.sampled_from(
                    ("if_icmpeq", "if_icmpne", "if_icmplt", "if_icmple",
                     "if_icmpgt", "if_icmpge"))), label)])
    if pick == 12:
        return (_expr(draw, "A", 1) + _expr(draw, "A", 1)
                + [(draw(st.sampled_from(("if_acmpeq", "if_acmpne"))),
                    label)])
    return [("goto", label)]


@st.composite
def _bounded_method(draw):
    """``(code, handlers)``: a type-correct body of forward branches only
    (so it is called directly), with faults, spill points and a yielding
    native, perhaps under a handler that returns 99."""
    statements = [_statement(draw) for _ in range(draw(st.integers(1, 6)))]
    statements.append(_expr(draw, "I", 2) + [("ireturn",)])
    starts = []
    pc = 0
    for statement in statements:
        starts.append(pc)
        pc += len(statement)
    code = []
    for index, statement in enumerate(statements):
        for instr in statement:
            if isinstance(instr[-1], tuple):  # ("label", k)
                target = min(index + instr[-1][1], len(statements) - 1)
                instr = (instr[0], starts[target])
            code.append(instr)
    handlers = ()
    if draw(st.booleans()):
        start = draw(st.integers(0, len(code) - 1))
        handlers = (ExceptionHandler(
            start, draw(st.integers(start + 1, len(code))), len(code),
            draw(st.sampled_from((None, NULL_POINTER, CLASS_CAST)))),)
        code += [("pop",), ("iconst", 99), ("ireturn",)]
    return tuple(code), handlers


def _as_instance(code):
    """The same body as an instance method: every local one slot up."""
    return tuple(
        (instr[0], instr[1] + 1, *instr[2:]) if instr[0] in _SLOT_OPS
        else instr
        for instr in code
    )


_CALLEE_DESC = f"(IIDLjava/lang/Object;L{_HOLDER};)I"


def _callee_classfiles(code, handlers):
    """``fz/C`` holds the fuzz body as static ``f`` and instance ``g``
    (declared by ``fz/I``).  ``fz/D.viaX`` is a bounded middle method that
    calls it (so the body also runs as a leaf); ``viaXDrive`` calls
    ``viaX`` and then the body directly."""
    iface = interface("fz/I", [("g", _CALLEE_DESC)])
    callee = ClassFile(
        name=_HOLDER, interfaces=("fz/I",), fields=(FieldDef("v", "I"),),
        methods=(
            MethodDef("<init>", "()V", 0x0001, max_stack=1, max_locals=1,
                      code=(("aload", 0),
                            ("invokespecial", "java/lang/Object", "<init>",
                             "()V"),
                            ("return",))),
            MethodDef("f", _CALLEE_DESC, PUBLIC_STATIC, max_stack=16,
                      max_locals=8, code=code, handlers=handlers),
            MethodDef("g", _CALLEE_DESC, 0x0001, max_stack=16, max_locals=9,
                      code=_as_instance(code), handlers=handlers),
        ),
    )

    def args(m, first):
        for op, slot in (("iload", first), ("iload", first + 1),
                         ("dload", first + 2), ("aload", first + 3),
                         ("aload", first + 4)):
            m.emit(op, slot)

    def build(ca):
        for name, receiver, site in (
                ("viaStatic", None, ("invokestatic", _HOLDER, "f")),
                ("viaVirtual", _HOLDER, ("invokevirtual", _HOLDER, "g")),
                ("viaIface", "fz/I", ("invokeinterface", "fz/I", "g"))):
            desc = "(L" + (receiver or _HOLDER) + ";" + _CALLEE_DESC[1:]
            with ca.method(name, desc, PUBLIC_STATIC) as m:
                if receiver:
                    m.emit("aload", 0)
                args(m, 1)
                m.emit(*site, _CALLEE_DESC)
                m.emit("ireturn")
            with ca.method(name + "Drive", desc, PUBLIC_STATIC) as m:
                m.emit("aload", 0)
                args(m, 1)
                m.emit("invokestatic", "fz/D", name, desc)
                if receiver:
                    m.emit("aload", 0)
                args(m, 1)
                m.emit(*site, _CALLEE_DESC)
                m.emit("iadd")
                m.emit("ireturn")
    return [iface, callee, assemble("fz/D", build)]


def _run_callee_case(vm, body):
    """Run the three driver shapes; returns [(outcome, retired), ...].
    The receiver is also the holder, so ``v`` carries over between runs."""
    loader = vm.new_loader("fz", resolver=MapResolver(
        {cf.name: cf for cf in _callee_classfiles(*body)}))
    try:
        driver = loader.load("fz/D")
        receiver = vm.construct(loader.load(_HOLDER))
    except (VerifyError, ClassFormatError, LinkageError) as exc:
        return [("rejected", type(exc).__name__)]
    obj = vm.heap.new_object(vm.object_class)
    outcomes = []
    for name, cls in (("viaStatic", _HOLDER), ("viaVirtual", _HOLDER),
                      ("viaIface", "fz/I")):
        desc = f"(L{cls};" + _CALLEE_DESC[1:]
        outcomes.append(_outcome(vm, lambda: vm.call_static(
            driver, name + "Drive", desc,
            [receiver, 5, -3, 2.5, obj, receiver], max_steps=20_000)))
    return outcomes


class TestFramelessEquivalence:
    @settings(deadline=None)  # the ci profile runs it ten times deeper
    @given(body=_bounded_method())
    def test_fuzzed_callee_agrees_through_every_site(self, body):
        """A fuzzed bounded body reached from a resumed driver (as the
        outer function) and from a bounded middle method (as a leaf),
        through static, virtual and interface sites: the same results,
        guest exceptions and retired ticks as the generic tier."""
        threaded = _run_callee_case(fresh_vm(), body)
        generic = _run_callee_case(fresh_vm(threaded_code=False), body)
        assert threaded == generic

    def test_fuzzed_callee_runs_frameless(self):
        """The fuzz above exercises the frameless tier, not only frames."""
        code = (("iload", 0), ("iload", 1), ("iadd",), ("ireturn",))
        vm = fresh_vm()
        assert _run_callee_case(vm, (code, ()))[0][0] == ("ok", 4)
        callee = vm.loaders[-1].loaded(_HOLDER)
        assert callee.frameless[("f", _CALLEE_DESC)][1] is True


# -- structured top-level bodies ---------------------------------------------

#: array element kind -> (newarray operand, load, store); an ``S`` array
#: holds Strings, so storing an Object into it is an ArrayStoreException
_ARRAYS = {
    "I": ("I", "iaload", "iastore"), "B": ("B", "baload", "bastore"),
    "D": ("D", "daload", "dastore"),
    "A": ("Ljava/lang/Object;", "aaload", "aastore"),
    "S": ("Ljava/lang/String;", "aaload", "aastore"),
}
#: where a loaded element of each kind goes
_KEEP = {"I": ("istore", 0), "B": ("istore", 1), "D": ("dstore", 2),
         "A": ("astore", 3), "S": ("astore", 3)}
_CATCHES = (None, NULL_POINTER, "java/lang/ArithmeticException",
            "java/lang/ArrayIndexOutOfBoundsException")
_THROWN = ([("aconst_null",)],
           [("new", "java/lang/IllegalStateException")],
           [("aload", 3), ("checkcast", "java/lang/Throwable")])


#: calls of ``fz/C``'s helpers: ``a``, ``d`` and ``v`` yield before they
#: return, so their returns run resumed from a frame too
_CALLS = (
    [("aload", 3), ("invokestatic", _HOLDER, "a",
                    "(Ljava/lang/Object;)Ljava/lang/Object;"), ("astore", 3)],
    [("dload", 2), ("invokestatic", _HOLDER, "d", "(D)D"), ("dstore", 2)],
    [("invokestatic", _HOLDER, "v", "()V")],
    [("aload", 4), ("iload", 0), ("invokevirtual", _HOLDER, "g", "(I)I"),
     ("istore", 0)],
    [("aload", 4), ("iload", 1), ("invokeinterface", "fz/I", "g", "(I)I"),
     ("istore", 1)],
    [("new", _HOLDER), ("dup",), ("invokespecial", _HOLDER, "<init>", "()V"),
     ("astore", 4)],
)


def _array(draw):
    """``(kind, instructions)`` pushing an array of some kind (mostly of
    length 3), or null."""
    kind = draw(st.sampled_from(sorted(_ARRAYS)))
    if not draw(st.integers(0, 5)):
        return kind, [("aconst_null",)]
    size = draw(st.sampled_from(_SIZES)) if draw(st.booleans()) else 3
    return kind, [("iconst", size), ("newarray", _ARRAYS[kind][0])]


def _element(draw, kind):
    if kind in "IB":
        return _expr(draw, "I", 1)
    if kind == "D":
        return _expr(draw, "D", 1)
    if kind == "S" and draw(st.booleans()):
        return [("ldc_str", "fz")]
    return _expr(draw, "A", 1)


def _top_statement(draw, depth, loops):
    """One statement of a top-level body: ``("plain", code)`` (branches
    labelled as in :func:`_statement`), ``("loop", slot, count, block)``,
    ``("monitor", block)`` on the Object in slot 3, or ``("try", block,
    catch_type)``.  Loop counters live in slots 5 and 6, one a level."""
    pick = draw(st.integers(0, 12 if depth < 2 else 9))
    if pick == 10 and loops == 2:
        pick = 11
    if pick <= 1:
        return "plain", _statement(draw)
    if pick == 2:
        return "plain", _statement(draw, draw(st.integers(9, 12)))
    if pick == 3:
        kind, array = _array(draw)
        return "plain", (array + _expr(draw, "I", 1) + _element(draw, kind)
                         + [(_ARRAYS[kind][2],)])
    if pick == 4:
        kind, array = _array(draw)
        return "plain", (array + _expr(draw, "I", 1)
                         + [(_ARRAYS[kind][1],), _KEEP[kind]])
    if pick == 5:
        return "plain", _array(draw)[1] + [("arraylength",), ("istore", 1)]
    if pick == 6:
        if draw(st.booleans()):
            return "plain", (_expr(draw, "I", 1)
                             + [("putstatic", _HOLDER, "s")])
        return "plain", ([("getstatic", _HOLDER, "s")] + _expr(draw, "I", 1)
                         + [("iadd",), ("istore", 0)])
    if pick == 7:
        return "plain", [("nop",), ("ldc_str", draw(st.sampled_from(
            ("fz", "")))), ("astore", 3)]
    if pick == 8:
        return "plain", draw(st.sampled_from(_THROWN)) + [("athrow",)]
    if pick == 9:
        return "plain", draw(st.sampled_from(_CALLS))
    block = _top_block(draw, depth + 1, loops + (pick == 10))
    if pick == 10:
        return "loop", 5 + loops, draw(st.integers(0, 4)), block
    if pick == 11:
        return "monitor", block
    return "try", block, draw(st.sampled_from(_CATCHES))


def _top_block(draw, depth, loops):
    return [_top_statement(draw, depth, loops)
            for _ in range(draw(st.integers(1, 3)))]


def _assemble(block, code, handlers, last):
    """Append ``block``'s code: a branch labelled k in statement i goes to
    the start of statement ``min(i + k, last)`` (``len(block)`` is the
    end of the block).  A loop counts its slot down to 0, a try block's
    handler keeps the exception in slot 3 and carries on after it."""
    starts, branches = [], []
    for index, statement in enumerate(block):
        starts.append(len(code))
        kind = statement[0]
        if kind == "plain":
            for instr in statement[1]:
                if isinstance(instr[-1], tuple):  # ("label", k)
                    branches.append(
                        (len(code), min(index + instr[-1][1], last)))
                code.append(instr)
        elif kind == "loop":
            _, slot, count, body = statement
            code += [("iconst", count), ("istore", slot)]
            head = len(code)
            code += [("iload", slot), None]
            _assemble(body, code, handlers, len(body))
            code += [("iinc", slot, -1), ("goto", head)]
            code[head + 1] = ("ifle", len(code))
        elif kind == "monitor":
            code += [("aload", 3), ("monitorenter",)]
            _assemble(statement[1], code, handlers, len(statement[1]))
            code += [("aload", 3), ("monitorexit",)]
        else:
            start = len(code)
            _assemble(statement[1], code, handlers, len(statement[1]))
            handlers.append(ExceptionHandler(
                start, len(code), len(code) + 1, statement[2]))
            code += [("goto", len(code) + 2), ("astore", 3)]
    starts.append(len(code))
    for at, target in branches:
        code[at] = (code[at][0], starts[target])


@st.composite
def _top_method(draw):
    """``(code, handlers)``: a type-correct body with counted loops (so it
    is resumed from its frame at backward branches), monitor blocks,
    every array kind, the class's static ``s``, ``ldc_str``, ``athrow``
    and handlers inside or around loops, perhaps under a handler that
    returns 99."""
    block = _top_block(draw, 0, 0)
    block.append(("plain", _expr(draw, "I", 2) + [("ireturn",)]))
    code, handlers = [], []
    _assemble(block, code, handlers, len(block) - 1)
    if draw(st.booleans()):
        handlers.append(ExceptionHandler(
            0, len(code), len(code), draw(st.sampled_from(_CATCHES))))
        code += [("pop",), ("iconst", 99), ("ireturn",)]
    return tuple(code), tuple(handlers)


def _run_top_case(vm, body):
    """Run the body as static ``fz/C.f`` on a fresh thread, the receiver
    as holder: ``(outcome, retired)``."""
    code, handlers = body

    def build(ca):
        yielding = (("invokestatic", "java/lang/Thread", "yield", "()V"),)
        for name, desc, tail in (
                ("a", "(Ljava/lang/Object;)Ljava/lang/Object;",
                 (("aload", 0), ("areturn",))),
                ("d", "(D)D", (("dload", 0), ("dreturn",))),
                ("v", "()V", (("return",),))):
            with ca.method(name, desc, PUBLIC_STATIC) as m:
                for instr in yielding + tail:
                    m.emit(*instr)
        with ca.method("g", "(I)I") as m:
            m.emit("iload", 1)
            m.emit("ireturn")
    holder = assemble(_HOLDER, build, interfaces=("fz/I",),
                      fields=(("v", "I"), ("s", "I", PUBLIC_STATIC)))
    holder = dataclasses.replace(holder, methods=holder.methods + (
        MethodDef("f", _CALLEE_DESC, PUBLIC_STATIC, max_stack=16,
                  max_locals=7, code=code, handlers=handlers),))
    classfiles = [interface("fz/I", [("g", "(I)I")]), holder]
    loader = vm.new_loader("fz", resolver=MapResolver(
        {cf.name: cf for cf in classfiles}))
    try:
        rtclass = loader.load(_HOLDER)
    except (VerifyError, ClassFormatError, LinkageError) as exc:
        return ("rejected", type(exc).__name__), None
    receiver = vm.construct(rtclass)
    obj = vm.heap.new_object(vm.object_class)
    return _outcome(vm, lambda: vm.call_static(
        rtclass, "f", _CALLEE_DESC, [5, -3, 2.5, obj, receiver],
        max_steps=20_000))


class TestTopLevelEquivalence:
    @settings(deadline=None)  # the ci profile runs it ten times deeper
    @given(body=_top_method())
    def test_fuzzed_body_agrees_when_resumed(self, body):
        """A fuzzed top-level body, which the fast tier resumes from its
        frame at every quantum and after every fault it handles: the
        same results, guest exceptions and retired ticks as the generic
        tier, and every body verifies."""
        fast = _run_top_case(fresh_vm(), body)
        generic = _run_top_case(fresh_vm(threaded_code=False), body)
        assert fast == generic
        assert fast[0][0] != "rejected"

    def test_every_opcode_has_one_template(self):
        """Apart from the generic decoder, each opcode's semantics is one
        entry of the compiler's tables."""
        from repro.jvm import frameless
        from repro.jvm.instructions import OPERAND_SHAPES

        tables = (set(frameless._TEMPLATES), set(frameless._CONDITIONS),
                  set(frameless._RETURNS), {"goto"},
                  set(frameless._INVOKES))
        assert set().union(*tables) == set(OPERAND_SHAPES)
        assert sum(map(len, tables)) == len(OPERAND_SHAPES)


def _static_class(name, desc, emit):
    """A class whose static ``f`` has the body ``emit(m)`` writes."""
    def build(ca):
        with ca.method("f", desc, PUBLIC_STATIC) as m:
            emit(m)
    return assemble(name, build)


def _both(run):
    """``run(vm)`` on both tiers; returns the two results."""
    return [run(vm) for vm in _both_vms()]


def _outcome(vm, call):
    before = vm.interpreter.instructions_retired
    try:
        value = ("ok", call())
    except JThrowable as exc:
        value = ("guest-exception", exc.jobject.jclass.name)
    except OutOfStepsError:
        value = ("out-of-steps",)
    return value, vm.interpreter.instructions_retired - before


class TestFramelessDeopt:
    def _callee(self, vm, emit):
        """``fl/Drive.drive(I)I`` calling ``fl/F.f(I)I``, whose body
        ``emit(m)`` writes."""
        def driver(ca):
            with ca.method("drive", "(I)I", PUBLIC_STATIC) as m:
                m.emit("iload", 0)
                m.emit("invokestatic", "fl/F", "f", "(I)I")
                m.emit("ireturn")
        loader = load_classes(vm, [_static_class("fl/F", "(I)I", emit),
                                   assemble("fl/Drive", driver)])
        return loader.loaded("fl/Drive")

    def test_native_that_blocks_mid_function(self):
        def emit(m):
            m.emit("iconst", 40)
            m.emit("invokestatic", "java/lang/Thread", "sleep", "(I)V")
            m.emit("iload", 0)
            m.emit("ireturn")

        def run(vm):
            driver = self._callee(vm, emit)
            with spawned_threads(vm) as threads:
                outcome = _outcome(vm, lambda: vm.call_static(
                    driver, "drive", "(I)I", [9]))
            return outcome, vm.scheduler.tick >= 40, len(threads)
        assert _both(run) == [((("ok", 9), 8), True, 1)] * 2

    def test_native_that_yields_mid_function(self):
        """Two threads yield from inside a bounded method: the direct call
        spills at the yield, so they alternate as on the generic tier and
        leave the same trace."""
        def emit(m):
            m.emit("iload", 0)
            m.emit("invokestatic", "java/lang/System", "printInt", "(I)V")
            m.emit("invokestatic", "java/lang/Thread", "yield", "()V")
            m.emit("iload", 0)
            m.emit("iconst", 100)
            m.emit("iadd")
            m.emit("invokestatic", "java/lang/System", "printInt", "(I)V")
            m.emit("iload", 0)
            m.emit("ireturn")

        def run(vm):
            driver = self._callee(vm, emit)
            printed = []
            vm.emit_output = lambda tag, text: printed.append(text)
            method = driver.declared[("drive", "(I)I")]
            for arg in (1, 2):
                vm.scheduler.spawn(driver, method, [arg])
            vm.scheduler.run()
            return printed
        assert _both(run) == [["1", "2", "101", "102"]] * 2

    def test_stop_of_the_running_thread_from_a_native(self):
        """``Thread.stop`` of the current thread from inside a bounded
        method: the direct call spills and the stop is delivered at the
        next instruction, to the driver's handler."""
        def emit(m):
            m.emit("invokestatic", "java/lang/Thread", "currentThread",
                   "()Ljava/lang/Thread;")
            m.emit("invokevirtual", "java/lang/Thread", "stop", "()V")
            m.emit("iload", 0)
            m.emit("ireturn")

        def run(vm):
            def driver(ca):
                with ca.method("drive", "(I)I", PUBLIC_STATIC) as m:
                    start = m.here()
                    m.emit("iload", 0)
                    m.emit("invokestatic", "fl/F", "f", "(I)I")
                    end = m.here()
                    m.emit("ireturn")
                    handler = m.here()
                    m.emit("pop")
                    m.emit("iconst", -5)
                    m.emit("ireturn")
                    m.handler(start, end, handler, "java/lang/ThreadDeath")
            loader = load_classes(vm, [_static_class("fl/F", "(I)I", emit),
                                       assemble("fl/Drive", driver)])
            caught = _outcome(vm, lambda: vm.call_static(
                loader.loaded("fl/Drive"), "drive", "(I)I", [3]))
            uncaught = _outcome(vm, lambda: vm.call_static(
                loader.loaded("fl/F"), "f", "(I)I", [3]))
            return caught, uncaught
        threaded, generic = _both(run)
        assert threaded == generic
        assert threaded[0][0] == ("ok", -5)
        assert threaded[1][0] == ("guest-exception", "java/lang/ThreadDeath")

    def test_out_of_steps_across_a_frameless_call(self):
        """Whatever the budget, both tiers stop (or finish) alike; the
        whole call retires 11 ticks."""
        def emit(m):
            for _ in range(6):
                m.emit("iinc", 0, 1)
            m.emit("iload", 0)
            m.emit("ireturn")

        for budget in range(1, 14):
            def run(vm):
                driver = self._callee(vm, emit)
                outcome = _outcome(vm, lambda: vm.call_static(
                    driver, "drive", "(I)I", [1], max_steps=budget))
                return outcome[0], vm.scheduler.threads
            threaded, generic = _both(run)
            assert threaded == generic
            assert threaded[0] == (("ok", 7) if budget >= 11
                                   else ("out-of-steps",))
            assert threaded[1] == []

    def test_budget_stops_a_method_that_calls_a_long_leaf_often(self):
        """A bounded method calling a long leaf many times makes no call
        once it has retired its step's budget, so a run out of steps
        overshoots by a bound set by the code, not by calls × leaf."""
        calls, width, max_steps = 200, 300, 1_000

        def build(ca):
            with ca.method("leaf", "(I)I", PUBLIC_STATIC) as m:
                for _ in range(width):
                    m.emit("iinc", 0, 1)
                m.emit("iload", 0)
                m.emit("ireturn")
            with ca.method("mid", "(I)I", PUBLIC_STATIC) as m:
                m.emit("iload", 0)
                for _ in range(calls):
                    m.emit("invokestatic", "fl/L", "leaf", "(I)I")
                m.emit("ireturn")
            with ca.method("drive", "(I)I", PUBLIC_STATIC) as m:
                m.emit("iload", 0)
                m.emit("invokestatic", "fl/L", "mid", "(I)I")
                m.emit("ireturn")

        def run(vm):
            loader = load_classes(vm, [assemble("fl/L", build)])
            return _outcome(vm, lambda: vm.call_static(
                loader.loaded("fl/L"), "drive", "(I)I", [0],
                max_steps=max_steps))
        (threaded, retired), generic = _both(run)
        assert threaded == generic[0] == ("out-of-steps",)
        assert generic[1] == max_steps
        assert retired <= max_steps + (calls + 2) + (width + 2)

    def test_fault_in_leaf_caught_at_the_invoke(self):
        """A handler that covers exactly the invoke of a faulting leaf:
        the frame beneath the leaf's must sit past that invoke."""
        def classfiles():
            def build(ca):
                with ca.method("leaf", "(I)I", PUBLIC_STATIC) as m:
                    _divide_by_zero_static(m)
                with ca.method("mid", "(I)I", PUBLIC_STATIC) as m:
                    m.emit("iload", 0)
                    start = m.here()
                    m.emit("invokestatic", "fl/M", "leaf", "(I)I")
                    end = m.here()
                    m.emit("ireturn")
                    handler = m.here()
                    m.emit("pop")
                    m.emit("iconst", -9)
                    m.emit("ireturn")
                    m.handler(start, end, handler, None)
                with ca.method("drive", "(I)I", PUBLIC_STATIC) as m:
                    m.emit("iload", 0)
                    m.emit("invokestatic", "fl/M", "mid", "(I)I")
                    m.emit("ireturn")
            return [assemble("fl/M", build)]

        def run(vm):
            loader = load_classes(vm, classfiles())
            return _outcome(vm, lambda: vm.call_static(
                loader.loaded("fl/M"), "drive", "(I)I", [4]))
        assert _both(run) == [(("ok", -9), 11)] * 2

    def test_every_branch_at_its_boundaries(self):
        ops = ("ifeq", "ifne", "iflt", "ifle", "ifgt", "ifge", "if_icmpeq",
               "if_icmpne", "if_icmplt", "if_icmple", "if_icmpgt",
               "if_icmpge")

        def classfiles():
            def build(ca):
                for op in ops:
                    with ca.method(op, "(II)I", PUBLIC_STATIC) as m:
                        taken = m.label()
                        m.emit("iload", 0)
                        if op.startswith("if_"):
                            m.emit("iload", 1)
                        m.emit(op, taken)
                        m.emit("iconst", 0)
                        m.emit("ireturn")
                        m.mark(taken)
                        m.emit("iconst", 1)
                        m.emit("ireturn")
                    with ca.method(op + "Drive", "(II)I", PUBLIC_STATIC) as m:
                        m.emit("iload", 0)
                        m.emit("iload", 1)
                        m.emit("invokestatic", "fl/B", op, "(II)I")
                        m.emit("ireturn")
            return [assemble("fl/B", build)]

        def run(vm):
            branches = load_classes(vm, classfiles()).loaded("fl/B")
            return [vm.call_static(branches, op + "Drive", "(II)I", [a, b])
                    for op in ops for a in (-1, 0, 1) for b in (-1, 0, 1)]
        threaded, generic = _both(run)
        assert threaded == generic

    def test_recursion_goes_through_frames(self):
        """A bounded method that calls itself is no leaf: each level is
        one frameless call that pushes the next level's frame, so the
        host stack stays flat however deep the guest recursion."""
        def emit(m):
            bottom = m.label()
            m.emit("iload", 0)
            m.emit("ifle", bottom)
            m.emit("iload", 0)
            m.emit("iconst", 1)
            m.emit("isub")
            m.emit("invokestatic", "fl/F", "f", "(I)I")
            m.emit("iconst", 2)
            m.emit("iadd")
            m.emit("ireturn")
            m.mark(bottom)
            m.emit("iconst", 0)
            m.emit("ireturn")

        def run(vm):
            driver = self._callee(vm, emit)
            return _outcome(vm, lambda: vm.call_static(
                driver, "drive", "(I)I", [3000], max_steps=1_000_000))
        threaded, generic = _both(run)
        assert threaded == generic
        assert threaded[0] == ("ok", 6000)


class TestResumedLoops:
    """Loops that the fast tier runs inside one function and resumes from
    their frame between quanta."""

    def test_two_threads_contend_for_a_monitor_in_a_loop(self):
        """Each thread takes the lock ``n`` times and spins inside it
        for longer than a quantum, so the other one blocks on its
        ``monitorenter``; the shared count comes out right on both tiers
        and both saw contention."""
        def build(ca):
            with ca.method("work", "(Ljava/lang/Object;I)I",
                           PUBLIC_STATIC) as m:
                top = m.here()
                done = m.label()
                m.emit("iload", 1)
                m.emit("ifle", done)
                m.emit("aload", 0)
                m.emit("monitorenter")
                m.emit("getstatic", "fl/W", "count")
                m.emit("iconst", 30)
                m.emit("istore", 2)
                spin = m.here()
                m.emit("iinc", 2, -1)
                m.emit("iload", 2)
                m.emit("ifgt", spin.pc)
                m.emit("iconst", 1)
                m.emit("iadd")
                m.emit("putstatic", "fl/W", "count")
                m.emit("aload", 0)
                m.emit("monitorexit")
                m.emit("iinc", 1, -1)
                m.emit("goto", top.pc)
                m.mark(done)
                m.emit("getstatic", "fl/W", "count")
                m.emit("ireturn")

        def run(vm):
            loader = load_classes(vm, [assemble(
                "fl/W", build, fields=(("count", "I", PUBLIC_STATIC),))])
            work = loader.loaded("fl/W")
            lock = vm.heap.new_object(vm.object_class)
            blocked = []
            try_enter = vm.monitors.try_enter

            def counting(target, thread):
                entered = try_enter(target, thread)
                blocked.append(not entered)
                return entered
            vm.monitors.try_enter = counting
            threads = [vm.scheduler.spawn(
                work, work.declared[("work", "(Ljava/lang/Object;I)I")],
                [lock, 5]) for _ in range(2)]
            vm.scheduler.run()
            return sorted(t.result for t in threads), any(blocked)
        results = _both(run)
        assert results[0] == results[1]
        assert results[0][0][1] == 10 and results[0][1]

    def test_contended_monitorenter_retires_one_tick(self):
        """``hold`` yields with the lock held, so ``take`` blocks on its
        ``monitorenter`` once; yields are the only switch points, so
        both tiers run the same schedule and retire the same ticks."""
        def build(ca):
            for name, pause, result in (("hold", True, 1),
                                        ("take", False, 2)):
                with ca.method(name, "(Ljava/lang/Object;)I",
                               PUBLIC_STATIC) as m:
                    m.emit("aload", 0)
                    m.emit("monitorenter")
                    if pause:
                        m.emit("invokestatic", "java/lang/Thread", "yield",
                               "()V")
                    m.emit("aload", 0)
                    m.emit("monitorexit")
                    m.emit("iconst", result)
                    m.emit("ireturn")

        def run(vm):
            lock_class = load_classes(vm, [assemble("fl/Y", build)]).loaded(
                "fl/Y")
            lock = vm.heap.new_object(vm.object_class)
            threads = [vm.scheduler.spawn(
                lock_class, lock_class.declared[
                    (name, "(Ljava/lang/Object;)I")], [lock])
                for name in ("hold", "take")]
            vm.scheduler.run()
            return ([t.result for t in threads],
                    vm.interpreter.instructions_retired)
        assert _both(run) == [([1, 2], 14)] * 2

    def test_stop_between_quanta_of_a_running_loop(self):
        """A second thread stops a thread that is looping: the stop is
        delivered when the loop's frame is next resumed, to the handler
        around the loop."""
        def build(ca):
            with ca.method("spin", "(I)I", PUBLIC_STATIC) as m:
                m.emit("invokestatic", "java/lang/Thread", "currentThread",
                       "()Ljava/lang/Thread;")
                m.emit("putstatic", "fl/S", "victim")
                start = m.here()
                top = m.here()
                done = m.label()
                m.emit("iload", 0)
                m.emit("ifle", done)
                m.emit("iinc", 0, -1)
                m.emit("goto", top.pc)
                m.mark(done)
                end = m.here()
                m.emit("iconst", 1)
                m.emit("ireturn")
                handler = m.here()
                m.emit("pop")
                m.emit("iconst", -5)
                m.emit("ireturn")
                m.handler(start, end, handler, "java/lang/ThreadDeath")
            with ca.method("kill", "()V", PUBLIC_STATIC) as m:
                top = m.here()
                found = m.label()
                m.emit("getstatic", "fl/S", "victim")
                m.emit("ifnonnull", found)
                m.emit("invokestatic", "java/lang/Thread", "yield", "()V")
                m.emit("goto", top.pc)
                m.mark(found)
                m.emit("getstatic", "fl/S", "victim")
                m.emit("invokevirtual", "java/lang/Thread", "stop", "()V")
                m.emit("return")

        def run(vm):
            loader = load_classes(vm, [assemble(
                "fl/S", build,
                fields=(("victim", "Ljava/lang/Thread;", PUBLIC_STATIC),))])
            spin = loader.loaded("fl/S")
            victim = vm.scheduler.spawn(
                spin, spin.declared[("spin", "(I)I")], [100_000])
            vm.scheduler.spawn(spin, spin.declared[("kill", "()V")], [])
            vm.scheduler.run()
            return victim.result, vm.interpreter.instructions_retired < 1000
        assert _both(run) == [(-5, True)] * 2

    def test_fault_in_a_loop_body_handled_at_the_loop_head(self):
        """``12 / (n % 3)`` faults on every third trip; the handler's
        target is the loop head itself, which keeps the exception (or
        null) in slot 2 and goes round again."""
        def build(ca):
            with ca.method("f", "(I)I", PUBLIC_STATIC) as m:
                m.emit("iconst", 0)
                m.emit("istore", 1)
                m.emit("aconst_null")
                head = m.here()
                done = m.label()
                m.emit("astore", 2)
                m.emit("iload", 0)
                m.emit("ifle", done)
                m.emit("iinc", 0, -1)
                m.emit("iconst", 12)
                m.emit("iload", 0)
                m.emit("iconst", 3)
                m.emit("irem")
                start = m.here()
                m.emit("idiv")
                end = m.here()
                m.emit("iload", 1)
                m.emit("iadd")
                m.emit("istore", 1)
                m.emit("aconst_null")
                m.emit("goto", head.pc)
                m.mark(done)
                m.emit("iload", 1)
                m.emit("ireturn")
                m.handler(start, end, head, "java/lang/ArithmeticException")

        def run(vm):
            loader = load_classes(vm, [assemble("fl/H", build)])
            return [_outcome(vm, lambda: vm.call_static(
                loader.loaded("fl/H"), "f", "(I)I", [n]))
                for n in (7, 300)]
        fast, generic = _both(run)
        assert fast == generic
        assert [outcome for outcome, _ in fast] == [("ok", 36), ("ok", 1800)]


class TestArrayLimit:
    def test_huge_newarray_is_a_guest_out_of_memory_error(self):
        """``newarray`` of 2**31 - 1 ints throws the guest an
        OutOfMemoryError on both tiers, called from the host and from a
        driver, instead of asking the host for gigabytes."""
        def emit(m):
            m.emit("iconst", 2**31 - 1)
            m.emit("newarray", "I")
            m.emit("arraylength")
            m.emit("ireturn")

        def driver(ca):
            with ca.method("drive", "(I)I", PUBLIC_STATIC) as m:
                m.emit("iload", 0)
                m.emit("invokestatic", "fl/F", "f", "(I)I")
                m.emit("ireturn")

        def run(vm):
            loader = load_classes(vm, [_static_class("fl/F", "(I)I", emit),
                                       assemble("fl/Drive", driver)])
            return [_outcome(vm, lambda: vm.call_static(
                loader.loaded(cls), name, "(I)I", [0]))
                for cls, name in (("fl/F", "f"), ("fl/Drive", "drive"))]
        threaded, generic = _both(run)
        assert threaded == generic
        assert [outcome for outcome, _ in threaded] == [
            ("guest-exception", "java/lang/OutOfMemoryError")] * 2


def _divide_by_zero_static(m):
    m.emit("iload", 0)
    m.emit("iconst", 0)
    m.emit("idiv")
    m.emit("ireturn")


# -- LRMI stubs running frameless ---------------------------------------------

_IT = "fl/IT"


def _lrmi_world(vm, call_body, helpers=()):
    """A server target ``fl/T.call(I)I`` behind a capability, and a client
    driver ``fl/Drive.drive(Lfl/IT;I)I`` that calls it (catching any
    throw as -1)."""
    kernel = JKernelVM(vm=vm)
    server = kernel.new_domain("server")
    client = kernel.new_domain("client")

    def target(ca):
        with ca.method("call", "(I)I") as m:
            call_body(m)
        for helper in helpers:
            helper(ca)

    server.define([
        interface(_IT, [("call", "(I)I")], extends=("jk/Remote",)),
        assemble("fl/T", target, interfaces=(_IT, "jk/Remote")),
    ])
    client.share_from(server, _IT)

    def driver(ca):
        with ca.method("drive", f"(L{_IT};I)I", PUBLIC_STATIC) as m:
            start = m.here()
            m.emit("aload", 0)
            m.emit("iload", 1)
            m.emit("invokeinterface", _IT, "call", "(I)I")
            end = m.here()
            m.emit("ireturn")
            handler = m.here()
            m.emit("pop")
            m.emit("iconst", -1)
            m.emit("ireturn")
            m.handler(start, end, handler, None)

    client.define([assemble("fl/Drive", driver)])
    capability = server.create_capability(
        vm.construct(server.load("fl/T"), domain_tag=server.tag))
    return kernel, capability, client


def _lrmi(vm, kernel, capability, client, arg, max_steps=10_000):
    """One LRMI: (outcome, retired), and the calling thread's segment
    depth and domain tag afterwards."""
    driver = client.load("fl/Drive")
    with spawned_threads(vm) as threads:
        outcome = _outcome(vm, lambda: vm.call_static(
            driver, "drive", f"(L{_IT};I)I", [capability, arg],
            domain_tag=client.tag, max_steps=max_steps))
    thread = threads[0]
    return outcome, len(thread.segments), thread.domain_tag == client.tag


def _add_one(m):
    m.emit("iload", 1)
    m.emit("iconst", 1)
    m.emit("iadd")
    m.emit("ireturn")


def _divide_by_zero(m):
    m.emit("iload", 1)
    m.emit("iconst", 0)
    m.emit("idiv")
    m.emit("ireturn")


def _via_helper(m):
    m.emit("iload", 1)
    m.emit("invokestatic", "fl/T", "helper", "(I)I")
    m.emit("ireturn")


def _helper(ca):
    with ca.method("helper", "(I)I", PUBLIC_STATIC) as m:
        m.emit("iload", 0)
        m.emit("iconst", 1)
        m.emit("iadd")
        m.emit("ireturn")


class TestFramelessStubs:
    def _both_lrmi(self, call_body, arg=4, helpers=(), prepare=None,
                   max_steps=10_000):
        results = []
        for vm in _both_vms():
            kernel, capability, client = _lrmi_world(vm, call_body, helpers)
            if prepare is not None:
                prepare(kernel, capability)
            results.append(_lrmi(vm, kernel, capability, client, arg,
                                 max_steps))
            assert vm.scheduler.threads == []
        if results[0][0][0] == ("out-of-steps",):
            # a frameless call retires its ticks at once, so the tiers
            # stop at different counts; both must stop and unwind
            results = [((outcome[0],), *rest) for outcome, *rest in results]
        assert results[0] == results[1]
        return results[0]

    def test_leaf_target_runs_frameless(self):
        vm = fresh_vm()
        kernel, capability, client = _lrmi_world(vm, _add_one)
        assert _lrmi(vm, kernel, capability, client, 4) == (
            (("ok", 5), 20), 0, True)
        stub_fn = capability.jclass.frameless[("call", "(I)I")]
        target_fn = kernel.domains["server"].load("fl/T").frameless[
            ("call", "(I)I")]
        assert stub_fn[1] is False and target_fn[1] is True
        assert self._both_lrmi(_add_one) == ((("ok", 5), 20), 0, True)

    def test_fault_in_leaf_runs_the_stubs_handler(self):
        """An ArithmeticException in the leaf: the stub's handler runs
        ``exitSegment`` and rethrows, the driver catches it, and the
        caller's domain tag is back."""
        assert self._both_lrmi(_divide_by_zero) == (
            (("ok", -1), 21), 0, True)

    def test_revoked_stub(self):
        def revoke(kernel, capability):
            kernel.domains["server"].revoke_capability(capability)
        outcome = self._both_lrmi(_add_one, prepare=revoke)
        assert outcome[0][0] == ("ok", -1)
        assert outcome[1:] == (0, True)

    def test_enter_segment_on_a_terminated_domain(self):
        def kill(kernel, capability):
            kernel.domains["server"].terminated = True
        outcome = self._both_lrmi(_add_one, prepare=kill)
        assert outcome[0][0] == ("ok", -1)
        assert outcome[1:] == (0, True)

    def test_target_that_is_no_leaf(self):
        """The target calls a helper, so the stub spills at its
        ``invokevirtual`` and the target gets a frame."""
        assert self._both_lrmi(_via_helper, helpers=(_helper,)) == (
            (("ok", 5), 23), 0, True)

    def test_out_of_steps_inside_the_stub(self):
        """The budget runs out before, inside or after the stub: both
        tiers stop (or finish) alike, end the call and unwind its
        segment.  The whole LRMI retires 20 ticks."""
        for budget in range(1, 22):
            outcome = self._both_lrmi(_add_one, max_steps=budget)
            assert outcome == (
                ((("ok", 5), 20) if budget >= 20 else (("out-of-steps",),)),
                0, True)

    def test_crossing_costs_are_counted_alike(self):
        """Per LRMI both tiers call ``enterSegment``, ``exitSegment`` and
        the interface dispatcher exactly once: the frameless tier drops
        interpretation, not Table 1's costs."""
        counts = []
        for vm in _both_vms():
            seen = {"enterSegment": 0, "exitSegment": 0, "lookup": 0}
            vm.dispatcher.lookup = _counted(seen, "lookup",
                                            vm.dispatcher.lookup)
            for body, helpers in ((_add_one, ()), (_via_helper, (_helper,))):
                kernel, capability, client = _lrmi_world(vm, body, helpers)
                natives = kernel.jk_loader.load("jk/Kernel").native_bindings
                for (name, desc), binding in list(natives.items()):
                    if name in seen:
                        natives[(name, desc)] = _counted(seen, name, binding)
                for arg in range(5):
                    assert _lrmi(vm, kernel, capability, client, arg)[0][0] \
                        == ("ok", arg + 1)
            counts.append(seen)
        assert counts[0] == counts[1] == {
            "enterSegment": 10, "exitSegment": 10, "lookup": 10}


def _counted(seen, name, fn):
    def counting(*args):
        seen[name] += 1
        return fn(*args)
    return counting
