"""Mark-sweep garbage collector.

Roots: every live thread's frames (locals + operand stacks) and pending
state, static fields of every loaded class in every loader, the intern table
(unless the VM was configured with ``intern_weak=True`` — the fix the paper
suggests for the ``String.intern`` shared leak), and host-pinned objects.
The scheduler reaps a thread when it terminates, so a finished call's
result is a root only if the host pinned it.

The collector is what gives the J-Kernel's revocation and termination
stories teeth: once a capability is revoked, its target is unreachable from
any root and its memory — charged to the domain that allocated it — is
reclaimed here.
"""

from __future__ import annotations

from .values import JArray, JObject


def _walk_host_value(value, push, seen_containers):
    """Follow host-side containers (native payloads) looking for guest refs."""
    if isinstance(value, (JObject, JArray)):
        push(value)
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        key = id(value)
        if key in seen_containers:
            return
        seen_containers.add(key)
        for item in value:
            _walk_host_value(item, push, seen_containers)
    elif isinstance(value, dict):
        key = id(value)
        if key in seen_containers:
            return
        seen_containers.add(key)
        for item_key, item in value.items():
            _walk_host_value(item_key, push, seen_containers)
            _walk_host_value(item, push, seen_containers)


def collect(vm):
    """Run one full collection.  Returns a statistics dict."""
    marked = set()
    stack = []
    seen_containers = set()

    def push(obj):
        if isinstance(obj, (JObject, JArray)) and id(obj) not in marked:
            marked.add(id(obj))
            stack.append(obj)

    # -- roots -------------------------------------------------------------
    for thread in vm.scheduler.threads:
        for frame in thread.frames:
            for value in frame.locals:
                push(value)
            for value in frame.stack:
                push(value)
        push(thread.pending_stop)
        push(thread.guest_obj)
        push(thread.blocked_on)
        push(thread.result)
        push(thread.uncaught)
        _walk_host_value(thread.native_state, push, seen_containers)

    for loader in vm.loaders:
        for rtclass in loader.namespace.values():
            for value in rtclass.static_slots:
                push(value)

    if not vm.intern_weak:
        for jstring in vm.interned.values():
            push(jstring)

    _walk_host_value(vm.pinned, push, seen_containers)

    # -- mark -----------------------------------------------------------------
    while stack:
        obj = stack.pop()
        if isinstance(obj, JObject):
            for value in obj.fields:
                push(value)
            if obj.native is not None and not isinstance(
                obj.native, (str, int, float, bytes, bool)
            ):
                _walk_host_value(obj.native, push, seen_containers)
        else:  # JArray
            if obj.jclass.element_class is not None:
                for value in obj.elems:
                    push(value)

    # -- sweep -----------------------------------------------------------------
    live_before = vm.heap.live_count
    freed = 0
    for obj in vm.heap.live_objects():
        if id(obj) not in marked:
            vm.heap.free(obj)
            freed += 1

    if vm.intern_weak:
        vm.interned = {
            text: jstring
            for text, jstring in vm.interned.items()
            if id(jstring) in marked
        }

    vm.monitors.prune(marked)

    return {
        "live_before": live_before,
        "collected": freed,
        "live_after": vm.heap.live_count,
    }
