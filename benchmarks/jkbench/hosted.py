"""The ``calls_hosted`` world: a file-server-shaped set of domains and
capabilities on the hosted kernel, one checked batch function per call
class, and the direct timed calls that price ``repro.core``'s layers."""

from __future__ import annotations

from repro.core import (
    Capability,
    Domain,
    Remote,
    RevokedException,
    dumps,
    fast_copy,
    loads,
    serializable,
    transfer,
)

from . import script
from .script import BATCH, chunk_check


@fast_copy(fields=("payload",))
@serializable(fields=("payload",), acyclic=True)
class Block:
    """A copyable object carrying a Java-style byte array as per-element
    integers (Table 4's payload): the copy cost grows with its size,
    which one ``bytes`` memcpy would hide."""

    def __init__(self, payload):
        self.payload = payload


class FileServer(Remote):
    def null(self): ...
    def ints3(self, a, b, c): ...
    def write(self, block): ...
    def notify(self, listener, value): ...


class FileServerImpl(FileServer):
    def null(self):
        return None

    def ints3(self, a, b, c):
        return a + b + c

    def write(self, block):
        return chunk_check(block.payload)

    def notify(self, listener, value):
        return listener.on_event(value)


class Listener(Remote):
    def on_event(self, value): ...


class ListenerImpl(Listener):
    def on_event(self, value):
        return value + 1


class Hop(Remote):
    def go(self): ...


class HopImpl(Hop):
    """One extra crossing in front of a null target: the comparable
    shape for the guarded chain (a guard is checked against a
    *restricted caller*, hence two hops either way)."""

    def __init__(self, target):
        self.target = target

    def go(self):
        return self.target.ints3(1, 2, 4)


class World:
    #: span name (the layer doing the work) per call class
    layers = {
        "null": "core.stubs.null", "ints3": "core.stubs.ints3",
        "fast100": "core.fastcopy.fast100",
        "fast1000": "core.fastcopy.fast1000",
        "serial100": "core.serial.serial100",
        "serial1000": "core.serial.serial1000",
        "cap_pass": "core.convention.cap_pass",
        "guarded": "core.policy.guarded",
        "lifecycle": "core.capability.lifecycle",
    }

    def __init__(self, seed):
        self.domains = []
        self.server = self._domain("jkbench-files")
        impl = FileServerImpl()
        create = lambda **kw: self.server.run(  # noqa: E731
            lambda: Capability.create(impl, **kw))
        self.auto, self.fast, self.serial = (
            create(), create(copy="fast"), create(copy="serial"))
        self.listener = self._domain("jkbench-client").run(
            lambda: Capability.create(ListenerImpl()))
        self.blocks = {size: Block(script.chunk_payload(seed, size))
                       for size in (100, 1000)}
        self.plain_chain = self._chain(None)
        self.guarded_chain = self._chain("jkbench.call")
        self.scratch = self._domain("jkbench-scratch")
        self.spawned = 0
        self.batches = {
            "null": self._null, "ints3": self._ints3,
            "fast100": self._writer(self.fast, 100),
            "fast1000": self._writer(self.fast, 1000),
            "serial100": self._writer(self.serial, 100),
            "serial1000": self._writer(self.serial, 1000),
            "cap_pass": self._cap_pass, "guarded": self._guarded,
            "lifecycle": self._lifecycle,
        }
        for batch in self.batches.values():  # bind every stub once
            batch(1, 2, 3)

    def _domain(self, name):
        domain = Domain(name)
        self.domains.append(domain)
        return domain

    def _chain(self, guard):
        """caller -> hop domain -> target; with ``guard`` the hop domain
        is policied and the target capability guarded by it."""
        target = self._domain(f"jkbench-store-{guard}").run(
            lambda: Capability.create(FileServerImpl(), guard=guard))
        hop = self._domain(f"jkbench-hop-{guard}")
        if guard:
            hop.set_policy([guard])
        return hop.run(lambda: Capability.create(HopImpl(target)))

    def close(self):
        for domain in self.domains:
            domain.terminate()

    # -- one checked batch per call class ---
    def _null(self, a, b, c):
        call = self.auto.null
        return sum(call() is not None for _ in range(BATCH))

    def _ints3(self, a, b, c):
        call, expected = self.auto.ints3, a + b + c
        return sum(call(a, b, c) != expected for _ in range(BATCH))

    def _writer(self, capability, size):
        block = self.blocks[size]
        expected = chunk_check(block.payload)

        def batch(a, b, c):
            call = capability.write
            return sum(call(block) != expected for _ in range(BATCH))

        return batch

    def _cap_pass(self, a, b, c):
        call, listener = self.auto.notify, self.listener
        return sum(call(listener, a) != a + 1 for _ in range(BATCH))

    def _guarded(self, a, b, c):
        call = self.guarded_chain.go
        return sum(call() != 7 for _ in range(BATCH))

    def _lifecycle(self, a, b, c):
        """create -> call -> revoke -> the next call must raise; one
        domain is created and terminated per batch (every 64th call)."""
        wrong = 0
        impl = FileServerImpl()
        scratch = self.scratch
        for _ in range(BATCH):
            capability = Capability.create(impl, domain=scratch)
            wrong += capability.ints3(a, b, c) != a + b + c
            capability.revoke()
            try:
                capability.null()
                wrong += 1
            except RevokedException:
                pass
        self.spawned += 1
        short_lived = Domain(f"jkbench-short-{self.spawned}")
        survivor = short_lived.run(lambda: Capability.create(impl))
        short_lived.terminate()
        wrong += not survivor.revoked
        return wrong

    # -- direct timed calls ---
    def probe(self, timer):
        per_call_us = timer.per_call_us
        auto, fast, serial = self.auto, self.fast, self.serial
        small, large = self.blocks[100], self.blocks[1000]
        null_us = per_call_us(auto.null)
        wire = dumps(large)
        impl = FileServerImpl()
        scratch = self.scratch

        def create_revoke():
            Capability.create(impl, domain=scratch).revoke()

        return {
            "core.stubs.null_lrmi_us": null_us,
            "core.stubs.lrmi_3int_us": per_call_us(
                lambda: auto.ints3(1, 2, 3)),
            "core.capability.create_revoke_us": per_call_us(create_revoke),
            "core.domain.create_terminate_us": per_call_us(
                lambda: Domain("jkbench-probe").terminate()),
            "core.convention.transfer_fast_100B_us": per_call_us(
                lambda: transfer(small, mode="fast")),
            "core.convention.transfer_serial_100B_us": per_call_us(
                lambda: transfer(small, mode="serial")),
            "core.fastcopy.lrmi_1000B_us": max(
                per_call_us(lambda: fast.write(large)) - null_us, 0.0),
            "core.serial.lrmi_1000B_us": max(
                per_call_us(lambda: serial.write(large)) - null_us, 0.0),
            "core.serial.dumps_1000B_us": per_call_us(lambda: dumps(large)),
            "core.serial.loads_1000B_us": per_call_us(lambda: loads(wire)),
            "core.policy.guarded_overhead_us": timer.paired_difference_us(
                self.plain_chain.go, self.guarded_chain.go),
        }
