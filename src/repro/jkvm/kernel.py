"""The VM-level J-Kernel: domains, capabilities and LRMI on the MiniJVM.

This is the *enforced* implementation path: domain code is verified
bytecode, per-domain loaders control class namespaces, and capability
stubs are generated bytecode (``repro.jkvm.stubgen``).  The hosted
implementation (``repro.core``) offers the same architecture over Python
objects; this one is used where the paper's claims require memory safety
against arbitrary code, and for the Table 1 / Table 6 measurements.

Layout:

* ``jk/Remote`` — marker interface for remote interfaces;
* ``jk/Capability`` — stub base class with ``revoke()``/``isRevoked()``;
* ``jk/Kernel`` — segment-switch and copy natives used by stubs;
* ``jk/Repository`` — the system-wide name service, callable from guest
  code;
* :class:`VMDomain` — loader + heap tag + capability registry +
  termination;
* :class:`JKernelVM` — one kernel instance per VM.
"""

from __future__ import annotations

from repro.core import policy as _policy
from repro.core.errors import AccessDeniedError
from repro.jvm.asm import ClassAssembler, interface
from repro.jvm.classfile import ACC_PUBLIC, ACC_STATIC, CONSTRUCTOR_NAME
from repro.jvm.corelib import _exception_classfile
from repro.jvm.errors import VMError
from repro.jvm.instructions import ALOAD, INVOKESPECIAL, RETURN
from repro.jvm.interp import GuestUnwind
from repro.jvm.machine import VM

from .copying import copy_value
from .stubgen import (
    CAPABILITY,
    DOMAIN_FIELD,
    KERNEL,
    REMOTE,
    REVOKED,
    TARGET_FIELD,
    generate_stub_classfile,
    stub_name_for,
)


#: Retired segments kept per guest thread; deeper LRMI nesting falls back
#: to allocating and the excess is dropped on exit.
_SEGMENT_POOL_MAX = 16

#: Guest exception thrown when a stack-based permission check fails.
ACCESS_DENIED = "jk/AccessDenied"


class _GuardedRef:
    """The ``native`` payload of a *guarded* capability's domain handle:
    the owning domain plus the Permission every caller chain must imply
    before ``enterSegment`` will switch into it."""

    __slots__ = ("domain", "guard")

    def __init__(self, domain, guard):
        self.domain = domain
        self.guard = guard


class _VMSegment:
    """One entry of a guest thread's segment stack.

    Segments are pooled per guest thread (``ThreadContext.segment_pool``),
    mirroring the hosted kernel's pooled :class:`~repro.core.segments.
    ThreadSegment`: ``enterSegment`` re-arms a retired object instead of
    allocating, so the LRMI fast path is allocation-free.  Each arming is a
    fresh *incarnation* identified by a new one-element ``state`` list
    ``[alive]``; retiring flips the old list to dead.  Host code that held
    on to a segment across an LRMI return can check its captured
    incarnation and goes inert instead of observing (or affecting) a later
    reuse of the pooled object — the same stale-handle defence PR 1's
    hosted segments use.
    """

    __slots__ = ("domain", "saved_tag", "state")

    def __init__(self, domain, saved_tag):
        self.domain = domain
        self.saved_tag = saved_tag
        self.state = [True]


def _jk_classfiles():
    remote = interface(REMOTE, [])

    capability = ClassAssembler(CAPABILITY)
    with capability.method(CONSTRUCTOR_NAME, "()V") as m:
        m.emit(ALOAD, 0)
        m.emit(INVOKESPECIAL, "java/lang/Object", CONSTRUCTOR_NAME, "()V")
        m.emit(RETURN)
    capability.native_method("revoke", "()V")
    capability.native_method("isRevoked", "()Z")

    kernel = ClassAssembler(KERNEL)
    static = ACC_PUBLIC | ACC_STATIC
    kernel.native_method("enterSegment", "(Ljava/lang/Object;)V", static)
    kernel.native_method("exitSegment", "()V", static)
    kernel.native_method("copyValue",
                         "(Ljava/lang/Object;)Ljava/lang/Object;", static)
    kernel.native_method("currentDomainName", "()Ljava/lang/String;", static)
    # Stack-based access control (repro.core.policy, mirrored for guest
    # code): checkPermission walks the guest segment chain AND the hosted
    # chain; begin/endPrivileged bracket a doPrivileged scope.
    kernel.native_method("checkPermission", "(Ljava/lang/String;)V", static)
    kernel.native_method("beginPrivileged", "()V", static)
    kernel.native_method("endPrivileged", "()V", static)

    repository = ClassAssembler("jk/Repository")
    repository.native_method(
        "bind", "(Ljava/lang/String;Ljava/lang/Object;)V", static
    )
    repository.native_method(
        "lookup", "(Ljava/lang/String;)Ljava/lang/Object;", static
    )

    revoked = _exception_classfile(REVOKED, "java/lang/RuntimeException")
    denied = _exception_classfile(ACCESS_DENIED, "java/lang/RuntimeException")

    return [remote, capability.build(), kernel.build(), repository.build(),
            revoked, denied]


class VMDomain:
    """A protection domain on the MiniJVM: its own namespace + heap tag."""

    def __init__(self, kernel, name, resolver=None):
        self.kernel = kernel
        self.name = name
        self.tag = f"domain:{name}"
        self.terminated = False
        self.loader = kernel.vm.new_loader(
            f"domain:{name}", resolver=resolver, parent=kernel.jk_loader
        )
        self.lock_object = kernel.vm.heap.new_object(
            kernel.vm.object_class, owner=self.tag
        )
        kernel.vm.pinned.add(self.lock_object)
        self._capabilities = []
        self._stub_classes = {}
        # Stack-based access control: None means unrestricted (this
        # domain never denies); set via set_policy.
        self.permissions = None

    def __repr__(self):
        state = "terminated" if self.terminated else "live"
        return f"<VMDomain {self.name!r} ({state})>"

    # -- policy ------------------------------------------------------------
    def set_policy(self, policy):
        """Install (or clear) this domain's permission set (see
        ``repro.core.policy``): ``None``, a PermissionSet, or an iterable
        of permissions / ``"kind:target"`` strings."""
        self.permissions = _policy.coerce_policy(policy)
        return self

    # -- code loading ------------------------------------------------------
    def define(self, classfiles, initcheck=True):
        """Define a batch of classfiles in this domain's namespace.

        Every classfile first passes the secure-initialization pass
        (``repro.toolchain.initcheck``): constructors that leak
        uninitialized ``this`` — into a field, an argument, a return or
        a throw — are rejected *before* the loader sees them, closing
        the partially-initialized-object escape a domain boundary must
        never observe.  ``initcheck=False`` opts a trusted batch out.
        """
        self._check_live()
        if initcheck:
            from repro.toolchain.initcheck import check_initialization

            for classfile in classfiles:
                check_initialization(classfile)
        return self.loader.define_all(classfiles)

    def load(self, class_name):
        return self.loader.load(class_name)

    def share_from(self, other_domain, class_name):
        """Install another domain's class into this namespace (SharedClass).

        Shared classes must have no static fields (paper §3.1 fn. 3); the
        check is transitive over the class's superclasses.
        """
        rtclass = other_domain.loader.load(class_name)
        cursor = rtclass
        while cursor is not None:
            if cursor.static_defs:
                raise VMError(
                    f"cannot share {class_name}: {cursor.name} has "
                    "static fields"
                )
            cursor = cursor.superclass
        return self.loader.share(rtclass)

    # -- capabilities -----------------------------------------------------------
    def create_capability(self, target, guard=None):
        """Create a capability (generated-bytecode stub) for ``target``.

        ``guard`` (a Permission or ``"kind:target"`` string) makes the
        capability guarded: ``enterSegment`` checks the caller's
        effective chain — guest segments and the hosted chain both —
        before switching in, throwing ``jk/AccessDenied`` on failure.
        """
        self._check_live()
        vm = self.kernel.vm
        target_class = target.jclass
        stub_class = self._stub_classes.get(target_class)
        if stub_class is None:
            classfile = generate_stub_classfile(
                target_class, self.kernel.remote_class
            )
            existing = self.loader.loaded(classfile.name)
            stub_class = existing or self.loader.define(classfile)
            self._stub_classes[target_class] = stub_class
        stub = vm.heap.new_object(stub_class, owner=self.tag)
        stub.fields[stub_class.field_slots[TARGET_FIELD]] = target
        handle = vm.heap.new_object(vm.object_class, owner=self.tag)
        if guard is not None:
            handle.native = _GuardedRef(self, _policy.Permission.parse(guard))
        else:
            handle.native = self
        stub.fields[stub_class.field_slots[DOMAIN_FIELD]] = handle
        self._capabilities.append(stub)
        return stub

    def revoke_capability(self, stub):
        stub.fields[stub.jclass.field_slots[TARGET_FIELD]] = None

    # -- lifecycle ---------------------------------------------------------------
    def terminate(self):
        """Revoke every capability this domain created; mark it dead."""
        if self.terminated:
            return
        self.terminated = True
        for stub in self._capabilities:
            self.revoke_capability(stub)
        self._capabilities.clear()
        self.kernel.vm.pinned.discard(self.lock_object)

    def _check_live(self):
        if self.terminated:
            raise VMError(f"domain {self.name} has terminated")

    def heap_stats(self):
        return self.kernel.vm.heap.stats(self.tag)


class JKernelVM:
    """One J-Kernel instance on one MiniJVM."""

    def __init__(self, vm=None, profile="sunvm"):
        self.vm = vm or VM(profile=profile)
        self.jk_loader = self.vm.new_loader(
            "<jkernel>", parent=self.vm.boot_loader
        )
        self._install_natives()
        self.jk_loader.define_all(_jk_classfiles())
        self.remote_class = self.jk_loader.load(REMOTE)
        self.capability_class = self.jk_loader.load(CAPABILITY)
        self.domains = {}
        self.repository = {}

    # -- domains -----------------------------------------------------------
    def new_domain(self, name, resolver=None):
        if name in self.domains:
            raise VMError(f"domain {name!r} already exists")
        domain = VMDomain(self, name, resolver=resolver)
        self.domains[name] = domain
        return domain

    def terminate_domain(self, name):
        domain = self.domains.pop(name, None)
        if domain is not None:
            domain.terminate()
        return domain

    # -- repository ------------------------------------------------------------
    def bind(self, name, stub):
        if not stub.jclass.is_assignable_to(self.capability_class):
            raise VMError("only capabilities may be bound in the repository")
        if name in self.repository:
            raise VMError(f"name {name!r} already bound")
        self.repository[name] = stub
        self.vm.pinned.add(stub)

    def lookup(self, name):
        stub = self.repository.get(name)
        if stub is None:
            raise VMError(f"name {name!r} not bound")
        return stub

    # -- natives ------------------------------------------------------------------
    def _install_natives(self):
        kernel = self

        def enter_segment(vm, thread, args):
            handle = args[0]
            ref = handle.native if handle is not None else None
            if type(ref) is _GuardedRef:
                domain = ref.domain
                guard = ref.guard
            else:
                domain = ref
                guard = None
            if domain is None:
                _throw_revoked(kernel, vm, thread, "bad domain handle")
            if domain.terminated:
                _throw_revoked(kernel, vm, thread,
                               f"domain {domain.name} terminated")
            context = vm.scheduler.current_thread() or thread
            if guard is not None:
                # Checked in the CALLER's context, before the callee
                # segment joins the chain (mirrors the hosted guard).
                _vm_check_permission(vm, thread, context, guard, kernel)
            segments = context.segments
            caller_lock = (
                segments[-1].domain.lock_object
                if segments
                else kernel._root_lock(vm)
            )
            # Two lock acquire/release pairs (caller + callee segment),
            # elided while uncontended: when a segment lock is free or
            # already ours, the acquire/release pair is a provable no-op,
            # so the fast path skips the monitor machinery entirely and
            # leaves the lock state untouched.  Only a lock held by
            # *another* thread takes the original slow path (which, as
            # before, records the contention without blocking a native).
            monitors = vm.monitors
            callee_lock = domain.lock_object
            owner = monitors.owner(caller_lock)
            if owner is not None and owner is not context:
                if monitors.try_enter(caller_lock, context):
                    monitors.exit(caller_lock, context)
            owner = monitors.owner(callee_lock)
            if owner is not None and owner is not context:
                if monitors.try_enter(callee_lock, context):
                    monitors.exit(callee_lock, context)
            pool = context.segment_pool
            if pool:
                segment = pool.pop()
                segment.domain = domain
                segment.saved_tag = context.domain_tag
                segment.state = [True]  # fresh incarnation
            else:
                segment = _VMSegment(domain, context.domain_tag)
            segments.append(segment)
            context.domain_tag = domain.tag
            return None

        def exit_segment(vm, thread, args):
            context = vm.scheduler.current_thread() or thread
            segments = context.segments
            if not segments:
                return None
            segment = segments.pop()
            context.domain_tag = segment.saved_tag
            segment.state[0] = False  # retire this incarnation
            segment.domain = None
            pool = context.segment_pool
            if len(pool) < _SEGMENT_POOL_MAX:
                pool.append(segment)
            return None

        def copy_value_native(vm, thread, args):
            return copy_value(vm, kernel, thread, args[0])

        def current_domain_name(vm, thread, args):
            context = vm.scheduler.current_thread() or thread
            if context.segments:
                name = context.segments[-1].domain.name
            else:
                name = "<system>"
            return vm.new_string(name, owner=context.domain_tag)

        def revoke(vm, thread, args):
            stub = args[0]
            slot = stub.jclass.field_slots.get(TARGET_FIELD)
            if slot is None:
                _throw_revoked(kernel, vm, thread, "not a capability stub")
            stub.fields[slot] = None
            return None

        def is_revoked(vm, thread, args):
            stub = args[0]
            slot = stub.jclass.field_slots.get(TARGET_FIELD)
            if slot is None:
                return 1
            return 1 if stub.fields[slot] is None else 0

        def repo_bind(vm, thread, args):
            name = vm.text_of(args[0])
            try:
                kernel.bind(name, args[1])
            except VMError as exc:
                raise GuestUnwind(
                    vm.make_throwable(
                        "java/lang/IllegalArgumentException", str(exc),
                        owner=thread.domain_tag,
                    )
                ) from None
            return None

        def repo_lookup(vm, thread, args):
            name = vm.text_of(args[0])
            return kernel.repository.get(name)

        def check_permission(vm, thread, args):
            context = vm.scheduler.current_thread() or thread
            permission = _policy.Permission.parse(vm.text_of(args[0]))
            _vm_check_permission(vm, thread, context, permission, kernel)
            return None

        def begin_privileged(vm, thread, args):
            # The doPrivileged scope marker: records the segment depth
            # (and the incarnation of the frame opening the scope, so a
            # mark leaked past an exitSegment goes stale instead of
            # truncating someone else's walk).
            context = vm.scheduler.current_thread() or thread
            marks = context.native_state.setdefault("jk_priv", [])
            segments = context.segments
            marks.append(
                (len(segments), segments[-1].state if segments else None)
            )
            return None

        def end_privileged(vm, thread, args):
            context = vm.scheduler.current_thread() or thread
            marks = context.native_state.get("jk_priv")
            if marks:
                marks.pop()
            return None

        registry = self.vm.natives
        registry.register(KERNEL, "enterSegment",
                          "(Ljava/lang/Object;)V", enter_segment)
        registry.register(KERNEL, "exitSegment", "()V", exit_segment)
        registry.register(KERNEL, "copyValue",
                          "(Ljava/lang/Object;)Ljava/lang/Object;",
                          copy_value_native)
        registry.register(KERNEL, "currentDomainName",
                          "()Ljava/lang/String;", current_domain_name)
        registry.register(KERNEL, "checkPermission",
                          "(Ljava/lang/String;)V", check_permission)
        registry.register(KERNEL, "beginPrivileged", "()V", begin_privileged)
        registry.register(KERNEL, "endPrivileged", "()V", end_privileged)
        registry.register(CAPABILITY, "revoke", "()V", revoke)
        registry.register(CAPABILITY, "isRevoked", "()Z", is_revoked)
        registry.register("jk/Repository", "bind",
                          "(Ljava/lang/String;Ljava/lang/Object;)V",
                          repo_bind)
        registry.register("jk/Repository", "lookup",
                          "(Ljava/lang/String;)Ljava/lang/Object;",
                          repo_lookup)

    _root_lock_obj = None

    def _root_lock(self, vm):
        if self._root_lock_obj is None:
            self._root_lock_obj = vm.heap.new_object(
                vm.object_class, owner="<system>"
            )
            vm.pinned.add(self._root_lock_obj)
        return self._root_lock_obj


def _throw_revoked(kernel, vm, thread, message):
    raise GuestUnwind(
        vm.make_throwable(REVOKED, message, owner=thread.domain_tag,
                          loader=kernel.jk_loader)
    )


def _throw_access_denied(kernel, vm, thread, message):
    raise GuestUnwind(
        vm.make_throwable(ACCESS_DENIED, message, owner=thread.domain_tag,
                          loader=kernel.jk_loader)
    )


def _guest_walk_cut(context):
    """Where the guest walk stops, honouring the most recent live
    ``beginPrivileged`` mark: ``(segment_cut, include_root)``.  The
    domain chain is ``[root, segments[0].domain, ...]`` — a mark at
    segment depth ``k`` keeps the marking frame's own domain in the walk
    (segment ``k-1``, or the root for ``k == 0``), exactly the hosted
    ``max(depth-1, 0)`` rule, so privilege cannot be self-asserted.
    Stale marks (their opening frame's segment incarnation has retired)
    are pruned lazily here, so a guest that leaked a mark past an
    exitSegment cannot truncate a later caller's walk."""
    marks = context.native_state.get("jk_priv")
    segments = context.segments
    while marks:
        depth, state = marks[-1]
        if depth > len(segments) or (
            depth > 0 and segments[depth - 1].state is not state
        ):
            marks.pop()
            continue
        if depth > 0:
            return depth - 1, False
        return 0, True
    return 0, True


def _root_domain(kernel, context):
    """The VMDomain the thread's *root* code belongs to (the tag active
    before any segment was pushed), or None for system/untagged code."""
    segments = context.segments
    tag = segments[0].saved_tag if segments else context.domain_tag
    if isinstance(tag, str) and tag.startswith("domain:"):
        return kernel.domains.get(tag[len("domain:"):])
    return None


def _vm_check_permission(vm, thread, context, permission, kernel):
    """The guest-side stack walk: collect every restricted guest domain on
    the chain (down to the privileged cut, root code included), then the
    hosted chain of the embedding thread, and check them as one context —
    the intersection spans both kernels.  A denial surfaces as
    ``jk/AccessDenied`` naming the domain."""
    segments = context.segments
    cut, include_root = _guest_walk_cut(context)
    entries = []
    for index in range(len(segments) - 1, cut - 1, -1):
        domain = segments[index].domain
        if domain.permissions is not None:
            entries.append((domain.name, domain.permissions))
    root = _root_domain(kernel, context) if include_root else None
    if root is not None and root.permissions is not None:
        entries.append((root.name, root.permissions))
    entries += _policy.hosted_entries()
    try:
        _policy.AccessControlContext.check(entries, permission)
    except AccessDeniedError as exc:
        _throw_access_denied(kernel, vm, thread, str(exc))
