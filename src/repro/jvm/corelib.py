"""Bootstrap classfiles for the MiniJVM core library.

These are the system classes every loader can see (unless a domain's
resolver deliberately hides or replaces them — the paper's §3.1 notes that
``Thread`` and ``System`` are precisely the classes the J-Kernel must
interpose on).
"""

from __future__ import annotations

from .asm import ClassAssembler
from .classfile import (
    ACC_FINAL,
    ACC_NATIVE,
    ACC_PRIVATE,
    ACC_PUBLIC,
    ACC_STATIC,
    CONSTRUCTOR_NAME,
)
from .instructions import (
    ALOAD,
    ARETURN,
    GETFIELD,
    INVOKESPECIAL,
    PUTFIELD,
    RETURN,
)

OBJECT = "java/lang/Object"
STRING = "java/lang/String"
THROWABLE = "java/lang/Throwable"

#: Exception class name -> superclass name.
EXCEPTION_HIERARCHY = {
    "java/lang/Exception": THROWABLE,
    "java/lang/Error": THROWABLE,
    "java/lang/RuntimeException": "java/lang/Exception",
    "java/lang/InterruptedException": "java/lang/Exception",
    "java/lang/NullPointerException": "java/lang/RuntimeException",
    "java/lang/ArithmeticException": "java/lang/RuntimeException",
    "java/lang/IndexOutOfBoundsException": "java/lang/RuntimeException",
    "java/lang/ArrayIndexOutOfBoundsException":
        "java/lang/IndexOutOfBoundsException",
    "java/lang/NegativeArraySizeException": "java/lang/RuntimeException",
    "java/lang/ClassCastException": "java/lang/RuntimeException",
    "java/lang/ArrayStoreException": "java/lang/RuntimeException",
    "java/lang/IllegalMonitorStateException": "java/lang/RuntimeException",
    "java/lang/IllegalArgumentException": "java/lang/RuntimeException",
    "java/lang/IllegalStateException": "java/lang/RuntimeException",
    "java/lang/IncompatibleClassChangeError": "java/lang/Error",
    "java/lang/UnsatisfiedLinkError": "java/lang/Error",
    "java/lang/ThreadDeath": "java/lang/Error",
    "java/lang/OutOfMemoryError": "java/lang/Error",
}


def _object_classfile():
    ca = ClassAssembler(OBJECT, super_name=None)
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(RETURN)
    ca.native_method("equals", "(Ljava/lang/Object;)Z")
    ca.native_method("hashCode", "()I")
    ca.native_method("toString", "()Ljava/lang/String;")
    ca.native_method("wait", "()V")
    ca.native_method("notify", "()V")
    ca.native_method("notifyAll", "()V")
    return ca.build()


def _string_classfile():
    ca = ClassAssembler(STRING, flags=ACC_PUBLIC | ACC_FINAL)
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, OBJECT, CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    ca.native_method("length", "()I")
    ca.native_method("charAt", "(I)I")
    ca.native_method("concat", "(Ljava/lang/String;)Ljava/lang/String;")
    ca.native_method("substring", "(II)Ljava/lang/String;")
    ca.native_method("equalsString", "(Ljava/lang/String;)Z")
    ca.native_method("startsWith", "(Ljava/lang/String;)Z")
    ca.native_method("indexOf", "(I)I")
    ca.native_method("hashCode", "()I")
    ca.native_method("intern", "()Ljava/lang/String;")
    ca.native_method("getBytes", "()[B")
    ca.native_method("fromBytes", "([B)Ljava/lang/String;",
                     ACC_PUBLIC | ACC_STATIC)
    ca.native_method("valueOfInt", "(I)Ljava/lang/String;",
                     ACC_PUBLIC | ACC_STATIC)
    return ca.build()


def _stringbuilder_classfile():
    ca = ClassAssembler("java/lang/StringBuilder", flags=ACC_PUBLIC | ACC_FINAL)
    ca.native_method(CONSTRUCTOR_NAME, "()V")
    ca.native_method("append",
                     "(Ljava/lang/String;)Ljava/lang/StringBuilder;")
    ca.native_method("appendInt", "(I)Ljava/lang/StringBuilder;")
    ca.native_method("toString", "()Ljava/lang/String;")
    return ca.build()


def _throwable_classfile():
    ca = ClassAssembler(THROWABLE)
    ca.field("message", "Ljava/lang/String;", ACC_PRIVATE)
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, OBJECT, CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method(CONSTRUCTOR_NAME, "(Ljava/lang/String;)V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, OBJECT, CONSTRUCTOR_NAME, "()V")
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(PUTFIELD, THROWABLE, "message")
        m.emit(RETURN)
    with ca.method("getMessage", "()Ljava/lang/String;") as m:
        m.emit(ALOAD, 0)
        m.emit(GETFIELD, THROWABLE, "message")
        m.emit(ARETURN)
    return ca.build()


def _exception_classfile(name, super_name):
    ca = ClassAssembler(name, super_name=super_name)
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, super_name, CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method(CONSTRUCTOR_NAME, "(Ljava/lang/String;)V") as m:
        m.emit(ALOAD, 0)
        m.emit(ALOAD, 1)
        m.emit(INVOKESPECIAL, super_name, CONSTRUCTOR_NAME,
               "(Ljava/lang/String;)V")
        m.emit(RETURN)
    return ca.build()


def _system_classfile():
    ca = ClassAssembler("java/lang/System", flags=ACC_PUBLIC | ACC_FINAL)
    static = ACC_PUBLIC | ACC_STATIC
    ca.native_method("println", "(Ljava/lang/String;)V", static)
    ca.native_method("printInt", "(I)V", static)
    ca.native_method("nanoTime", "()D", static)
    ca.native_method("identityHashCode", "(Ljava/lang/Object;)I", static)
    ca.native_method("arraycopy",
                     "(Ljava/lang/Object;ILjava/lang/Object;II)V", static)
    return ca.build()


def _thread_classfile():
    ca = ClassAssembler("java/lang/Thread")
    with ca.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, OBJECT, CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    with ca.method("run", "()V") as m:
        m.emit(RETURN)
    ca.native_method("start", "()V")
    ca.native_method("stop", "()V")
    ca.native_method("stop", "(Ljava/lang/Throwable;)V")
    ca.native_method("suspend", "()V")
    ca.native_method("resume", "()V")
    ca.native_method("setPriority", "(I)V")
    ca.native_method("getPriority", "()I")
    ca.native_method("isAlive", "()Z")
    ca.native_method("join", "()V")
    static = ACC_PUBLIC | ACC_STATIC
    ca.native_method("currentThread", "()Ljava/lang/Thread;", static)
    ca.native_method("sleep", "(I)V", static)
    ca.native_method("yield", "()V", static)
    return ca.build()


def core_classfiles():
    """All bootstrap classfiles, in no particular order (loaded on demand)."""
    classfiles = [
        _object_classfile(),
        _string_classfile(),
        _stringbuilder_classfile(),
        _throwable_classfile(),
        _system_classfile(),
        _thread_classfile(),
    ]
    classfiles += [
        _exception_classfile(name, super_name)
        for name, super_name in EXCEPTION_HIERARCHY.items()
    ]
    return classfiles
