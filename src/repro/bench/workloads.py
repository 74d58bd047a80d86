"""Benchmark fixtures: one builder per paper table.

Each fixture packages the workload (guest classes, domains, capabilities,
servers) plus measurement methods returning µs/op or pages/sec, for the
paper-shape assertions of the pytest-benchmark suite
(``benchmarks/test_table*.py``).  Performance itself is measured by
``benchmarks/jkbench``, which imports nothing from here.
"""

from __future__ import annotations

import threading
import time

from repro.core import Capability, Domain, Remote, fast_copy, serializable
from repro.jkvm import JKernelVM
from repro.jvm import ClassAssembler, interface
from repro.jvm.classfile import ACC_PUBLIC, ACC_STATIC, CONSTRUCTOR_NAME
from repro.jvm.instructions import (
    ALOAD,
    GOTO,
    ICONST,
    IF_ICMPGE,
    IINC,
    ILOAD,
    INVOKEINTERFACE,
    INVOKESPECIAL,
    INVOKESTATIC,
    INVOKEVIRTUAL,
    IRETURN,
    IADD,
    ISTORE,
    MONITORENTER,
    MONITOREXIT,
    POP,
    RETURN,
)

from .timer import measure, measure_batch

_STATIC = ACC_PUBLIC | ACC_STATIC


def _loop_method(ca, name, desc, body_emitter, counter_slot, limit_slot):
    """Emit ``for (i = 0; i < n; i++) { body }`` with n in ``limit_slot``."""
    m = ca.method(name, desc, _STATIC)
    m.emit(ICONST, 0)
    m.emit(ISTORE, counter_slot)
    loop = m.here()
    m.emit(ILOAD, counter_slot)
    m.emit(ILOAD, limit_slot)
    done = m.label()
    m.emit(IF_ICMPGE, done)
    body_emitter(m)
    m.emit(IINC, counter_slot, 1)
    m.emit(GOTO, loop.pc)
    m.mark(done)
    m.emit(RETURN)
    return m


class Table1Fixture:
    """Null-invocation micro-benchmarks on the MiniJVM, per VM profile."""

    def __init__(self, profile):
        self.profile = profile
        self.kernel = JKernelVM(profile=profile)
        vm = self.kernel.vm
        self.vm = vm

        self.server = self.kernel.new_domain("bench-server")
        self.client = self.kernel.new_domain("bench-client")

        remote_iface = interface(
            "bench/INull", [("nullOp", "()V"), ("add3", "(III)I")],
            extends=("jk/Remote",),
        )
        target = ClassAssembler(
            "bench/Target", interfaces=("bench/INull", "jk/Remote")
        )
        with target.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
            m.emit(RETURN)
        with target.method("nullOp", "()V") as m:
            m.emit(RETURN)
        with target.method("add3", "(III)I") as m:
            m.emit(ILOAD, 1)
            m.emit(ILOAD, 2)
            m.emit(IADD)
            m.emit(ILOAD, 3)
            m.emit(IADD)
            m.emit(IRETURN)
        self.server.define([remote_iface, target.build()])
        target_obj = vm.construct(
            self.server.load("bench/Target"), domain_tag=self.server.tag
        )
        self.capability = self.server.create_capability(target_obj)
        self.client.share_from(self.server, "bench/INull")

        # Local (same-domain) classes for the non-LRMI rows.
        local_iface = interface("bench/ILocal", [("nullOp", "()V")])
        local_impl = ClassAssembler(
            "bench/Local", interfaces=("bench/ILocal",)
        )
        with local_impl.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
            m.emit(RETURN)
        with local_impl.method("nullOp", "()V") as m:
            m.emit(RETURN)

        driver = ClassAssembler("bench/Driver")
        # loopEmpty(I)V            -- loop overhead baseline
        _loop_method(driver, "loopEmpty", "(I)V", lambda m: None, 1, 0)
        # loopInvoke(Lbench/Local;I)V   -- regular virtual invocation
        _loop_method(
            driver, "loopInvoke", "(Lbench/Local;I)V",
            lambda m: (
                m.emit(ALOAD, 0),
                m.emit(INVOKEVIRTUAL, "bench/Local", "nullOp", "()V"),
            ),
            2, 1,
        )
        # loopIface(Lbench/ILocal;I)V   -- interface invocation
        _loop_method(
            driver, "loopIface", "(Lbench/ILocal;I)V",
            lambda m: (
                m.emit(ALOAD, 0),
                m.emit(INVOKEINTERFACE, "bench/ILocal", "nullOp", "()V"),
            ),
            2, 1,
        )
        # loopThreadInfo(I)V       -- current-thread lookup
        _loop_method(
            driver, "loopThreadInfo", "(I)V",
            lambda m: (
                m.emit(INVOKESTATIC, "java/lang/Thread", "currentThread",
                       "()Ljava/lang/Thread;"),
                m.emit(POP),
            ),
            1, 0,
        )
        # loopLock(Ljava/lang/Object;I)V -- one acquire/release per round
        _loop_method(
            driver, "loopLock", "(Ljava/lang/Object;I)V",
            lambda m: (
                m.emit(ALOAD, 0),
                m.emit(MONITORENTER),
                m.emit(ALOAD, 0),
                m.emit(MONITOREXIT),
            ),
            2, 1,
        )
        # loopLrmi(Lbench/INull;I)V  -- cross-domain call via capability
        _loop_method(
            driver, "loopLrmi", "(Lbench/INull;I)V",
            lambda m: (
                m.emit(ALOAD, 0),
                m.emit(INVOKEINTERFACE, "bench/INull", "nullOp", "()V"),
            ),
            2, 1,
        )
        # loopLrmi3(Lbench/INull;I)V -- 3-argument LRMI (Table 6 row)
        _loop_method(
            driver, "loopLrmi3", "(Lbench/INull;I)V",
            lambda m: (
                m.emit(ALOAD, 0),
                m.emit(ICONST, 1),
                m.emit(ICONST, 2),
                m.emit(ICONST, 3),
                m.emit(INVOKEINTERFACE, "bench/INull", "add3", "(III)I"),
                m.emit(POP),
            ),
            2, 1,
        )
        self.client.define([local_iface, local_impl.build(), driver.build()])
        self.driver = self.client.load("bench/Driver")
        self.local_obj = vm.construct(
            self.client.load("bench/Local"), domain_tag=self.client.tag
        )
        self.lock_obj = vm.heap.new_object(
            vm.object_class, owner=self.client.tag
        )
        vm.pinned.add(self.lock_obj)

    # -- measurement -------------------------------------------------------
    def _run(self, method, extra_args, batch):
        self.vm.call_static(
            self.driver, method[0], method[1], [*extra_args, batch],
            domain_tag=self.client.tag, max_steps=200_000_000,
        )

    def _per_op(self, method, extra_args, batch=2000, rounds=3):
        timed = measure_batch(
            lambda n: self._run(method, extra_args, n), batch, rounds
        )
        baseline = measure_batch(
            lambda n: self._run(("loopEmpty", "(I)V"), [], n), batch, rounds
        )
        return max(timed.us_per_op - baseline.us_per_op, 0.001)

    def regular_invocation_us(self, batch=2000):
        return self._per_op(("loopInvoke", "(Lbench/Local;I)V"),
                            [self.local_obj], batch)

    def interface_invocation_us(self, batch=2000):
        return self._per_op(("loopIface", "(Lbench/ILocal;I)V"),
                            [self.local_obj], batch)

    def thread_info_us(self, batch=2000):
        return self._per_op(("loopThreadInfo", "(I)V"), [], batch)

    def lock_us(self, batch=2000):
        return self._per_op(("loopLock", "(Ljava/lang/Object;I)V"),
                            [self.lock_obj], batch)

    def lrmi_us(self, batch=500):
        return self._per_op(("loopLrmi", "(Lbench/INull;I)V"),
                            [self.capability], batch)

    def lrmi3_us(self, batch=500):
        return self._per_op(("loopLrmi3", "(Lbench/INull;I)V"),
                            [self.capability], batch)

    def row(self, batch=2000):
        return {
            "Regular method invocation": self.regular_invocation_us(batch),
            "Interface method invocation": self.interface_invocation_us(batch),
            "Thread info lookup": self.thread_info_us(batch),
            "Acquire/release lock": self.lock_us(batch),
            "J-Kernel LRMI": self.lrmi_us(max(batch // 4, 100)),
        }


class Table3Fixture:
    """Double thread switches: host threads (NT-base) vs VM green threads."""

    def __init__(self, profile):
        self.profile = profile

    @staticmethod
    def host_double_switch_us(switches=2000):
        """Ping-pong between two host threads via two events."""
        ping = threading.Event()
        pong = threading.Event()
        rounds = switches // 2

        def other():
            for _ in range(rounds):
                ping.wait()
                ping.clear()
                pong.set()

        worker = threading.Thread(target=other, daemon=True)
        worker.start()
        started = time.perf_counter()
        for _ in range(rounds):
            ping.set()
            pong.wait()
            pong.clear()
        elapsed = time.perf_counter() - started
        worker.join()
        return elapsed / rounds * 1e6  # per double switch

    def vm_double_switch_us(self, switches=4000):
        """Ping-pong between two guest threads via Thread.yield."""
        from repro.jvm import VM, MapResolver

        vm = VM(profile=self.profile)
        ca = ClassAssembler("bench/Yielder", super_name="java/lang/Thread")
        with ca.method(CONSTRUCTOR_NAME, "()V") as m:
            m.emit(ALOAD, 0)
            m.emit(INVOKESPECIAL, "java/lang/Thread", CONSTRUCTOR_NAME, "()V")
            m.emit(RETURN)
        m = ca.method("run", "()V")
        m.emit(ICONST, 0)
        m.emit("istore", 1)
        loop = m.here()
        m.emit(ILOAD, 1)
        m.emit(ICONST, switches // 2)
        done = m.label()
        m.emit(IF_ICMPGE, done)
        m.emit(INVOKESTATIC, "java/lang/Thread", "yield", "()V")
        m.emit(IINC, 1, 1)
        m.emit(GOTO, loop.pc)
        m.mark(done)
        m.emit(RETURN)
        cf = ca.build()
        loader = vm.new_loader("bench", resolver=MapResolver({cf.name: cf}))
        yielder = loader.load("bench/Yielder")
        first = vm.construct(yielder)
        second = vm.construct(yielder)
        vm.call_virtual(first, "start", "()V")
        vm.call_virtual(second, "start", "()V")
        before = vm.scheduler.context_switches
        started = time.perf_counter()
        vm.scheduler.run(max_steps=200_000_000)
        elapsed = time.perf_counter() - started
        switched = vm.scheduler.context_switches - before
        if switched < 2:
            return 0.0
        return elapsed / (switched / 2) * 1e6


# -- Table 4 payloads ---------------------------------------------------------

@fast_copy(fields=("payload",))
@serializable(fields=("payload",), acyclic=True)
class Chunk:
    """One copyable object carrying a Java-style byte array.

    The payload is a list of per-element integers, not Python ``bytes``:
    the 1997 serializer the paper measures copies array *elements* through
    the stream, so its cost grows with payload size.  Python ``bytes``
    would cross via one memcpy and erase exactly the effect Table 4
    measures (see the substitution note in DESIGN.md); the bytes-payload
    variant is kept for the ablation bench.

    ``acyclic=True``: a payload chunk never participates in wire-level
    sharing, so the compiled serializer skips the back-reference memo for
    it (the serialization-side analogue of the fast-copy non-``cyclic``
    default).

    The payload field is deliberately *not* declared ``list[int]``: the
    declared-batch writer would trust the annotation and skip the
    per-element homogeneity scan, and that scan is part of the
    per-element cost this class exists to measure (the fast-copy path
    pays its per-element cost regardless — it ignores annotations).
    """

    def __init__(self, payload):
        self.payload = payload

    @classmethod
    def of_size(cls, nbytes):
        # Signed values, like Java's byte (-128..127).  This also keeps
        # the payload off the serializer's byte-wide u8 batch tag (which
        # needs 0..255): that tag would cross the whole array in one C
        # call and erase the per-element cost this class exists to
        # measure, exactly like the bytes substitution described above.
        return cls([(index & 0xFF) - 128 for index in range(nbytes)])


@fast_copy(fields=("payload",))
@serializable(fields=("payload",), acyclic=True)
class TypedChunk:
    """Table 6 payload: a byte array whose element type is *declared*,
    the way Java's ``byte[]`` declares it.

    Java's serializer knows a ``byte[]``'s element type statically; the
    ``list[int]`` declaration gives the compiled wire the same
    knowledge, so it batches the array in one C call instead of paying
    a Python-only per-element type scan.  Table 6 compares crossing
    *mechanisms* on this one object: the in-process fast-copy path
    still rebuilds it element by element (it ignores annotations),
    while the wire ships it byte-wide — exactly the marshalling
    difference between the two crossings that the table measures.
    :class:`Chunk` above deliberately stays undeclared because Table 4
    measures the scanned per-element serializer, not the wire.
    """

    payload: list[int]

    def __init__(self, payload):
        self.payload = payload

    @classmethod
    def of_size(cls, nbytes):
        return cls([index & 0xFF for index in range(nbytes)])


@fast_copy(fields=("payload",))
@serializable(fields=("payload",), acyclic=True)
class RawChunk:
    """Ablation variant: payload is immutable Python bytes (memcpy path)."""

    payload: bytes

    def __init__(self, payload):
        self.payload = payload


class _Sink(Remote):
    def take(self, value): ...


class _SinkImpl(_Sink):
    def take(self, value):
        return 0


class Table4Fixture:
    """Argument copying during hosted LRMI: serialization vs fast-copy."""

    SHAPES = {
        "1 x 10 bytes": lambda: Chunk.of_size(10),
        "1 x 100 bytes": lambda: Chunk.of_size(100),
        "10 x 10 bytes": lambda: [Chunk.of_size(10) for _ in range(10)],
        "1 x 1000 bytes": lambda: Chunk.of_size(1000),
    }

    def __init__(self):
        self.domain = Domain(f"table4-{id(self)}")
        impl = _SinkImpl()
        self.serial_cap = self.domain.run(
            lambda: Capability.create(impl, copy="serial")
        )
        self.fast_cap = self.domain.run(
            lambda: Capability.create(impl, copy="fast")
        )

    def copy_us(self, shape, mechanism, min_time=0.02):
        payload = self.SHAPES[shape]()
        capability = self.serial_cap if mechanism == "serial" else self.fast_cap
        result = measure(lambda: capability.take(payload), min_time=min_time)
        return result.us_per_op

    def raw_bytes_us(self, nbytes, mechanism, min_time=0.02):
        """Ablation: the same transfer with a memcpy-able bytes payload."""
        payload = RawChunk(bytes(nbytes))
        capability = self.serial_cap if mechanism == "serial" else self.fast_cap
        result = measure(lambda: capability.take(payload), min_time=min_time)
        return result.us_per_op


# -- Table 5 servers ------------------------------------------------------------

PAGE_SIZES = (10, 100, 1000)


def make_documents():
    return {
        f"/doc{size}": bytes(ord("a") + (i % 26) for i in range(size))
        for size in PAGE_SIZES
        for i in [0]
    }


def build_iis(workers=None):
    from repro.web import NativeHttpServer

    server = (NativeHttpServer(workers=workers) if workers is not None
              else NativeHttpServer())
    for path, body in make_documents().items():
        server.documents.put(path, body)
    return server


def build_iis_jkernel(workers=None):
    from repro.web import JKernelWebServer, Servlet, ServletResponse

    class DocServlet(Servlet):
        """Static-document servlet: builds its (sealed, immutable)
        response once and returns it per request — the servlet-side
        analogue of the native server's file cache."""

        def __init__(self, body):
            self.response = ServletResponse(
                200, {"Content-Type": "text/html"}, body
            )

        def service(self, request):
            return self.response

    server = build_iis(workers)
    jk = JKernelWebServer(server=server, mount="/servlet")
    for path, body in make_documents().items():
        jk.install_servlet(path, lambda body=body: DocServlet(body))
    return jk


def build_jws(profile="sunvm"):
    from .baselines.jws import JWSServer

    return JWSServer(make_documents(), profile=profile)


#: WebStone-era browser request headers: the paper's Table 5 clients are
#: "eight multithreaded clients" driving the servers the way period HTTP
#: benchmarks did, so the load generator sends realistic request weight
#: (the server parses all of it on every request).
BROWSER_HEADERS = {
    "Host": "bench.local",
    "User-Agent": "Mozilla/4.0 (compatible; WebStone; Table5 harness)",
    "Accept": "text/html, image/gif, image/jpeg, */*",
    "Accept-Language": "en",
    "Connection": "keep-alive",
}


class _XSink(Remote):
    """Remote interface for the Table 6 crossing-cost comparison."""

    def nop(self): ...
    def take(self, value): ...


class _XSinkImpl(_XSink):
    def nop(self):
        return None

    def take(self, value):
        return 0


def _xsink_setup():
    """Runs in the forked domain host: the out-of-process twin of the
    in-process Table 6 target."""
    domain = Domain("table6-xproc")
    cap = domain.run(lambda: Capability.create(_XSinkImpl(), label="xsink"))
    return {"sink": cap}


class Table6Fixture:
    """Crossing-cost comparison: in-process LRMI vs cross-process LRMI
    vs prefork HTTP throughput (the Table 6 claim, measured).

    The paper argues the J-Kernel's language-enforced crossings beat
    OS-process alternatives by orders of magnitude; this fixture
    measures that against our own out-of-process tier: the same
    capability call (null and 1000-byte payload) through the in-process
    compiled stub and through the cross-process marshalling proxy, plus
    the serving-layer consequence — pages/second of the prefork tier.
    """

    def __init__(self):
        self.domain = Domain(f"table6-{id(self)}")
        impl = _XSinkImpl()
        self.inproc_cap = self.domain.run(
            lambda: Capability.create(impl, label="sink")
        )
        from repro.ipc import DomainHostProcess, connect

        self.host = DomainHostProcess(_xsink_setup, name="table6").start()
        self.client = connect(self.host)
        self.xproc_cap = self.client.lookup("sink")
        # Warm both paths: stub bound-method cache, proxy connection,
        # the host's compiled dispatch bindings, and the bulk-payload
        # wire (frame buffers and, above the shm threshold, the ring
        # announcement handshake) — so the measured rounds see the
        # steady state, not first-call setup.
        warm_chunk = TypedChunk.of_size(1000)
        for _ in range(100):
            self.inproc_cap.nop()
            self.xproc_cap.nop()
        for _ in range(20):
            self.inproc_cap.take(warm_chunk)
            self.xproc_cap.take(warm_chunk)

    def close(self):
        self.client.close()
        self.host.stop()
        self.domain.terminate()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- crossing costs ----------------------------------------------------
    def inproc_null_us(self, min_time=0.05):
        return measure(self.inproc_cap.nop, min_time=min_time).us_per_op

    def xproc_null_us(self, min_time=0.05):
        return measure(self.xproc_cap.nop, min_time=min_time).us_per_op

    def inproc_1000b_us(self, min_time=0.05):
        payload = TypedChunk.of_size(1000)
        return measure(
            lambda: self.inproc_cap.take(payload), min_time=min_time
        ).us_per_op

    def xproc_1000b_us(self, min_time=0.05):
        payload = TypedChunk.of_size(1000)
        return measure(
            lambda: self.xproc_cap.take(payload), min_time=min_time
        ).us_per_op

    # -- prefork serving ---------------------------------------------------
    @staticmethod
    def _prefork_app():
        """Runs in each prefork child: exactly the Table 5 J-Kernel
        configuration (same documents, same servlets), sized to one
        event loop per process — so the prefork numbers compare
        apples-to-apples against Table 5's IIS+J-K column."""
        return build_iis_jkernel(workers=1)

    @staticmethod
    def prefork_pages_per_sec(workers, clients=4, requests_per_client=150):
        """Pages/second of the J-Kernel servlet path served by a prefork
        fleet of ``workers`` processes."""
        from repro.web import PreforkServer, measure_throughput

        master = PreforkServer(Table6Fixture._prefork_app, workers=workers)
        master.start()
        try:
            return measure_throughput(
                "127.0.0.1", master.port, "/servlet/doc100",
                clients, requests_per_client, warmup=8,
                headers=BROWSER_HEADERS,
            )
        finally:
            master.stop()
