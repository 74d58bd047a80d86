"""Shared helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

from repro.jvm import VM, ClassAssembler, MapResolver
from repro.jvm.classfile import (
    ACC_PRIVATE,
    ACC_PUBLIC,
    ACC_STATIC,
    CONSTRUCTOR_NAME,
)
from repro.jvm.instructions import ALOAD, INVOKESPECIAL, RETURN

PUBLIC_STATIC = ACC_PUBLIC | ACC_STATIC


def emit_default_constructor(ca, super_name="java/lang/Object"):
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, super_name, CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    return ca


def assemble(name, build, super_name="java/lang/Object", interfaces=(),
             fields=(), flags=ACC_PUBLIC, constructor=True):
    """Compact classfile builder: ``build(ca)`` adds methods."""
    ca = ClassAssembler(name, super_name=super_name, interfaces=interfaces,
                        flags=flags)
    for field_name, desc, *rest in fields:
        ca.field(field_name, desc, rest[0] if rest else ACC_PUBLIC)
    if constructor:
        emit_default_constructor(ca, super_name)
    if build is not None:
        build(ca)
    return ca.build()


def load_classes(vm, classfiles, loader_name="test"):
    """Define a batch of classfiles in a fresh loader; returns the loader."""
    loader = vm.new_loader(
        loader_name,
        resolver=MapResolver({cf.name: cf for cf in classfiles}),
    )
    for cf in classfiles:
        loader.load(cf.name)
    return loader


def static_method(ca, name, desc, emit):
    """Add a public static method; ``emit(m)`` writes the body."""
    m = ca.method(name, desc, PUBLIC_STATIC)
    emit(m)
    return m


def fresh_vm(profile="sunvm", **kwargs):
    return VM(profile=profile, **kwargs)


@contextmanager
def spawned_threads(vm):
    """Record the ``ThreadContext`` of every guest thread spawned inside
    the block.  The scheduler reaps a thread when it terminates, so a
    test that inspects a finished call's thread keeps it from here."""
    spawn = vm.scheduler.spawn
    recorded = []

    def recording(*args, **kwargs):
        thread = spawn(*args, **kwargs)
        recorded.append(thread)
        return thread

    vm.scheduler.spawn = recording
    try:
        yield recorded
    finally:
        del vm.scheduler.spawn
