"""Stack-based access control over the capability kernel.

The J-Kernel's capabilities are *possession*-based: holding a stub is the
authority to call it.  This module layers the Java 2 security model on
top (the AccessControlContext/DomainCombiner design, cf. "Generating
Stack-based Access Control Policies"): each protection domain may carry a
:class:`PermissionSet`, and a *guarded* capability call succeeds only
when every domain on the effective call chain implies the guard — the
effective permissions are the **intersection** across the chain, so an
unprivileged domain cannot launder a call through a privileged one
(confused deputy).

The chain is the LRMI segment stack of the current thread (every domain
the request has passed through, ``repro.core.segments``), with two
modifiers:

* :func:`do_privileged` truncates the walk at the caller's own frame —
  the deputy vouches for everything *above* it, but its own domain is
  still checked, so an unrestricted tenant cannot grant itself anything
  by calling ``do_privileged``.
* Cross-process calls carry the caller's :class:`AccessControlContext`
  in the call frame (``repro.ipc.lrmi``): the caller side sends
  :func:`exported_wire_context`, and the host side extends its local
  walk with the decoded entries via :func:`imported_context` — the
  intersection spans processes.

A walk only collects ``(domain name, PermissionSet)`` entries; the one
deny rule is :meth:`AccessControlContext.check`, so every denial names
the domain that lacked the permission.

Domains whose ``permissions`` attribute is ``None`` (the default) are
**unrestricted**: they never deny, and a chain containing only
unrestricted domains short-circuits to "allowed".  The policy layer
therefore costs nothing until a policy is actually installed — the LRMI
hot path is untouched, and policy state lives in this module's own
thread-local, not on the pooled thread segments.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from . import segments
from .errors import AccessDeniedError

__all__ = [
    "AccessControlContext",
    "Permission",
    "PermissionSet",
    "check_permission",
    "current_context",
    "do_privileged",
    "exported_wire_context",
    "imported_context",
    "restricted",
]

# Per-thread policy frames, strictly LIFO (pushed/popped under
# try/finally).  Each frame is a tuple ``(kind, payload)``:
#   ("priv", depth)     -- do_privileged scope opened at segment-stack
#                          ``depth``; truncates the walk at depth-1
#   ("imported", ctx)   -- the AccessControlContext a cross-process call
#                          frame carried in
_tls = threading.local()


def _frames():
    try:
        return _tls.frames
    except AttributeError:
        frames = _tls.frames = []
        return frames


class Permission:
    """One permission: a ``kind`` plus a ``target`` pattern.

    ``target`` supports a single trailing-``*`` glob (``"kv:orders/*"``);
    ``"*"`` matches everything of that kind.  The string form is
    ``"kind:target"`` (:meth:`parse`), which is also the wire form.
    """

    __slots__ = ("kind", "target")

    def __init__(self, kind, target="*"):
        if not kind or ":" in kind:
            raise ValueError(f"invalid permission kind: {kind!r}")
        self.kind = kind
        self.target = target

    @classmethod
    def parse(cls, text):
        """``"kind:target"`` (or bare ``"kind"``, target ``*``)."""
        if isinstance(text, Permission):
            return text
        kind, sep, target = text.partition(":")
        return cls(kind, target if sep else "*")

    def implies(self, other):
        """Does holding *self* satisfy a check for *other*?"""
        if self.kind != other.kind:
            return False
        pattern = self.target
        if pattern == "*":
            return True
        if pattern.endswith("*"):
            return other.target.startswith(pattern[:-1])
        return pattern == other.target

    def __eq__(self, other):
        return (
            isinstance(other, Permission)
            and self.kind == other.kind
            and self.target == other.target
        )

    def __hash__(self):
        return hash((self.kind, self.target))

    def __str__(self):
        return f"{self.kind}:{self.target}"

    def __repr__(self):
        return f"Permission({self.kind!r}, {self.target!r})"


class PermissionSet:
    """An immutable set of :class:`Permission` — one domain's policy.

    ``implies(p)`` is true when any member implies ``p``.  Construct from
    Permission objects or ``"kind:target"`` strings.
    """

    __slots__ = ("_permissions",)

    def __init__(self, permissions=()):
        parsed = tuple(
            dict.fromkeys(Permission.parse(p) for p in permissions)
        )
        self._permissions = parsed

    def implies(self, permission):
        for held in self._permissions:
            if held.implies(permission):
                return True
        return False

    def union(self, other):
        return PermissionSet((*self._permissions, *other))

    def wire(self):
        """Compressed wire form: tuple of ``(kind, target)`` pairs."""
        return tuple((p.kind, p.target) for p in self._permissions)

    @classmethod
    def from_wire(cls, pairs):
        return cls(Permission(kind, target) for kind, target in pairs)

    def __iter__(self):
        return iter(self._permissions)

    def __len__(self):
        return len(self._permissions)

    def __contains__(self, permission):
        return Permission.parse(permission) in self._permissions

    def __eq__(self, other):
        return (
            isinstance(other, PermissionSet)
            and self._permissions == other._permissions
        )

    def __hash__(self):
        return hash(self._permissions)

    def __repr__(self):
        inner = ", ".join(str(p) for p in self._permissions)
        return f"PermissionSet([{inner}])"


def coerce_policy(policy):
    """Normalise a policy argument: ``None``, a :class:`PermissionSet`,
    or an iterable of permissions / ``"kind:target"`` strings."""
    if policy is None or isinstance(policy, PermissionSet):
        return policy
    if isinstance(policy, (str, Permission)):
        return PermissionSet((policy,))
    return PermissionSet(policy)


# -- the context and its one check ------------------------------------------

class AccessControlContext(tuple):
    """An effective context (the Java ``AccessControlContext``): the
    ordered ``(domain name, PermissionSet)`` entries of the chain's
    restricted domains, most recent first.

    Every walk only collects entries — the hosted segment stack
    (:func:`hosted_entries`), the MiniJVM guest chain
    (``repro.jkvm.kernel``) and a cross-process caller's context
    (:meth:`from_compressed`) — and :meth:`check` alone decides.  Capture
    one with :func:`current_context` and check it later, e.g. from a
    thread servicing a queued request on the original caller's authority.
    """

    __slots__ = ()

    def check(self, permission):
        """Raise :class:`AccessDeniedError`, naming the domain, at the
        first entry that does not imply ``permission``."""
        if not isinstance(permission, Permission):
            permission = Permission.parse(permission)
        for name, permissions in self:
            if not permissions.implies(permission):
                raise AccessDeniedError(
                    f"domain {name!r} lacks permission {permission}",
                    permission=str(permission),
                    domain=name,
                )

    def compressed(self):
        """The wire form: a tuple of ``(name, ((kind, target), ...))``."""
        return tuple((name, permissions.wire()) for name, permissions in self)

    @classmethod
    def from_compressed(cls, wire):
        """Decode :meth:`compressed`'s form, checking its shape; raise
        ``ValueError`` on anything else (a peer's bytes are untrusted)."""
        if type(wire) is not tuple:
            raise ValueError("a context is a tuple of entries")
        entries = []
        for entry in wire:
            if not (type(entry) is tuple and len(entry) == 2
                    and type(entry[0]) is str and entry[0]
                    and type(entry[1]) is tuple
                    and all(type(pair) is tuple and len(pair) == 2
                            and type(pair[0]) is str
                            and type(pair[1]) is str
                            for pair in entry[1])):
                raise ValueError("a context entry is (name, permissions)")
            entries.append((entry[0], PermissionSet.from_wire(entry[1])))
        return cls(entries)

    def __repr__(self):
        return f"AccessControlContext({list(self)!r})"


# -- the hosted walk ----------------------------------------------------------

def hosted_entries():
    """Collect the hosted chain's entries: the restricted domains of the
    segment stack down to the most recent ``do_privileged`` scope — which
    keeps the deputy's *own* frame — most recent first, then the entries
    of the imported contexts above that scope."""
    stack = segments._stack()
    frames = getattr(_tls, "frames", None)
    cut = 0
    imported = ()
    if frames:
        imported = []
        for kind, payload in reversed(frames):
            if kind == "priv":
                cut = payload - 1 if payload else 0
                break
            imported += payload
    entries = []
    for index in range(len(stack) - 1, cut - 1, -1):
        domain = stack[index].domain
        permissions = getattr(domain, "permissions", None)
        if permissions is not None:
            entries.append((domain.name, permissions))
    if imported:
        entries += imported
    return entries


def check_permission(permission):
    """Raise :class:`AccessDeniedError` unless every domain on the
    effective call chain implies ``permission``.

    ``permission`` may be a :class:`Permission` or a ``"kind:target"``
    string.  Domains without an installed policy never deny.
    """
    # The check reads its entries in order, so the walk's list is
    # checked as it is, not copied into a context first.
    AccessControlContext.check(hosted_entries(), permission)


def current_context():
    """Capture the effective :class:`AccessControlContext` of this thread."""
    return AccessControlContext(dict.fromkeys(hosted_entries()))


def do_privileged(fn, *args, **kwargs):
    """Run ``fn`` with the access-control walk truncated at the caller.

    The Java ``AccessController.doPrivileged`` analogue: permission
    checks inside ``fn`` stop walking at the calling frame's domain
    instead of the whole chain — the caller vouches for its callers.
    The caller's **own** domain remains in the walk, so an unprivileged
    domain gains nothing by wrapping a call in ``do_privileged``.
    """
    frames = _frames()
    frames.append(("priv", len(segments._stack())))
    try:
        return fn(*args, **kwargs)
    finally:
        frames.pop()


@contextmanager
def imported_context(context):
    """Extend the walk with a cross-process caller's
    :class:`AccessControlContext` (decoded by :meth:`~AccessControlContext.
    from_compressed`) for every check the dispatched call performs."""
    frames = _frames()
    frames.append(("imported", context))
    try:
        yield
    finally:
        frames.pop()


def restricted():
    """Cheap probe: could the current chain possibly deny anything?

    ``False`` means no restricted domain and no imported context — the
    cross-process proxy fast path uses this to skip exporting a context.
    Conservative: may return ``True`` when only a ``do_privileged``
    marker is active.
    """
    if getattr(_tls, "frames", None):
        return True
    for segment in segments._stack():
        if getattr(segment.domain, "permissions", None) is not None:
            return True
    return False


def exported_wire_context():
    """The compressed context a cross-process call frame should carry:
    ``None`` when nothing on the chain is restricted (the common case —
    the frame ends with its arguments)."""
    return current_context().compressed() or None
