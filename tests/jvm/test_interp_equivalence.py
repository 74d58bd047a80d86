"""Generic decoder vs threaded-code tier equivalence.

The specialized dispatch tier (:mod:`repro.jvm.threaded`) must be
observationally identical to the generic decoder in
:mod:`repro.jvm.interp`: same results, same guest exceptions delivered to
the same handlers, and the same retired-instruction counts (superinstruction
widths included), so scheduling quanta and step budgets behave the same.

Two attack angles:

* fuzzed method bodies (the ``test_verifier_fuzz`` instruction pool) run
  under both tiers in parallel VMs and must agree;
* deterministic programs target the fusion edge cases — branches into the
  middle of a would-be superinstruction, fault-pc attribution inside a
  fused window, polymorphic call/field sites flipping the inline caches;
* the frameless tier (:mod:`repro.jvm.frameless`): fuzzed bounded callees
  reached through static, virtual and interface sites, and LRMI stubs
  whose calls fault, block, yield, stop or run out of steps mid-function.
"""

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
            # Tick parity: superinstructions must report their width,
            # including the completed sub-instructions of a fused window
            # that faults midway (GuestUnwind.ticks).
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
        GETFIELD pc.  The ALOAD·GETFIELD superinstruction this once
        probed is gone, so it now covers ``probe`` run on the plain
        threaded path (called from the host), as a frameless function
        (called from ``drive``) and as a leaf (called from ``mid``)."""
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
        # tick parity across the fault (ALOAD completed, GETFIELD
        # faulted): both tiers must retire identical counts
        threaded, generic = _both(run)
        assert threaded == generic
        assert [outcome for outcome, _ in threaded] == [("ok", 7)] * 3

    def test_branch_into_middle_of_push_run(self):
        """A jump target inside a would-be push run must stay executable
        (fusion is suppressed across entry points)."""
        def classfiles():
            def build(ca):
                with ca.method("probe", "(I)I", PUBLIC_STATIC) as m:
                    mid = m.label("mid")
                    m.emit("iload", 0)     # pc 0
                    m.emit("ifne", mid)    # pc 1
                    m.emit("iconst", 5)    # pc 2: would fuse with pc 3...
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
        """IINC·GOTO and ILOAD·ILOAD·IF_ICMPGE fusions must report their
        widths: a counted loop retires identical totals under both tiers."""
        def classfiles():
            def build(ca):
                with ca.method("loop", "(I)I", PUBLIC_STATIC) as m:
                    m.emit("iconst", 0)
                    m.emit("istore", 1)
                    loop = m.here()
                    m.emit("iload", 1)     # fused cmp-branch head
                    m.emit("iload", 0)
                    done = m.label("done")
                    m.emit("if_icmpge", done)
                    m.emit("iinc", 1, 1)   # fused iinc+goto
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
        generic tier, run threaded (``check`` called from the host) and
        frameless (called from ``drive``)."""
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
        same VM agree (streams are compiled either way)."""
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
    # small sizes only: a fuzzed size could ask for gigabytes
    return [("iconst", draw(st.sampled_from((-1, 0, 3)))), ("newarray", "I")]


def _statement(draw):
    """Instructions that leave the stack empty; a branch holds
    ``("label", k)``: the start of the k-th statement after this one."""
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
            ("ifeq", "ifne", "iflt", "ifge"))), label)]
    if pick == 10:
        return _expr(draw, "A", 1) + [(draw(st.sampled_from(
            ("ifnull", "ifnonnull"))), label)]
    if pick == 11:
        return (_expr(draw, "I", 1) + _expr(draw, "I", 1)
                + [(draw(st.sampled_from(("if_icmplt", "if_icmpeq"))),
                    label)])
    if pick == 12:
        return (_expr(draw, "A", 1) + _expr(draw, "A", 1)
                + [(draw(st.sampled_from(("if_acmpeq", "if_acmpne"))),
                    label)])
    return [("goto", label)]


@st.composite
def _bounded_method(draw):
    """``(code, handlers)``: a type-correct body of forward branches only
    (so it runs frameless), with faults, deopt points and a yielding
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
        """A fuzzed bounded body reached from a threaded driver (as the
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
        """Two threads yield from inside a bounded method: the frameless
        call deopts at the yield, so they alternate as on the generic
        tier and leave the same trace."""
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
        method: the frameless call deopts and the stop is delivered at
        the next instruction, to the driver's handler."""
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
        """The target calls a helper, so the stub deopts at its
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
