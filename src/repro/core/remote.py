"""Remote interfaces.

Following Sun's RMI convention the paper adopts (§3.1), a *remote
interface* is a class that extends the marker :class:`Remote` and declares
the methods callable across domains.  An implementation class subclasses
one or more remote interfaces; only the methods declared in the interfaces
become visible through a capability — extra public methods of the
implementation are not exposed.

Example::

    class ReadFile(Remote):
        def read_byte(self): ...
        def read_bytes(self, n): ...

    class ReadFileImpl(ReadFile):       # implementation, never shared
        def read_byte(self): return 7
        def read_bytes(self, n): return bytes(n)
        def secret(self): ...           # NOT exposed via capabilities
"""

from __future__ import annotations

import inspect

from .capability import Capability
from .errors import RemoteInterfaceError

#: Public members of :class:`Capability` (``revoke``, ``label``, ...).  A
#: remote method of the same name would shadow the member on the stub.
_CAPABILITY_MEMBERS = frozenset(
    name for name in dir(Capability) if not name.startswith("_")
)


class Remote:
    """Marker base class for remote interfaces (cf. ``java.rmi.Remote``)."""

    __slots__ = ()


def is_remote_interface(cls):
    """True for a proper subclass of Remote used as an interface."""
    return (
        isinstance(cls, type)
        and issubclass(cls, Remote)
        and cls is not Remote
    )


def remote_interfaces(implementation_cls):
    """The remote interfaces implemented by a class.

    Every proper ancestor of the implementation that subclasses
    :class:`Remote` counts (the implementation class itself does not —
    it is the hidden object, not the contract).
    """
    interfaces = []
    for ancestor in implementation_cls.__mro__[1:]:
        if is_remote_interface(ancestor):
            interfaces.append(ancestor)
    return tuple(interfaces)


def remote_methods(implementation_cls):
    """Map of method name -> interface callable exposed via capabilities.

    Raises :class:`RemoteInterfaceError` if the class implements no remote
    interface, or an interface declares a non-callable public attribute or
    a method named like a public member of :class:`Capability`.
    """
    interfaces = remote_interfaces(implementation_cls)
    if not interfaces:
        raise RemoteInterfaceError(
            f"{implementation_cls.__name__} implements no remote interface "
            "(subclass a class extending Remote)"
        )
    methods = {}
    for iface in interfaces:
        for name, member in vars(iface).items():
            if name.startswith("_"):
                continue
            if not callable(member):
                raise RemoteInterfaceError(
                    f"remote interface {iface.__name__} declares "
                    f"non-callable public attribute {name!r}"
                )
            if name in _CAPABILITY_MEMBERS:
                raise RemoteInterfaceError(
                    f"remote interface {iface.__name__} declares {name!r}, "
                    "which would shadow Capability's own member"
                )
            methods.setdefault(name, member)
    if not methods:
        raise RemoteInterfaceError(
            f"{implementation_cls.__name__}'s remote interfaces declare "
            "no methods"
        )
    for name in methods:
        implementation = getattr(implementation_cls, name, None)
        if implementation is None or not callable(implementation):
            raise RemoteInterfaceError(
                f"{implementation_cls.__name__} does not implement "
                f"remote method {name!r}"
            )
    return methods


def method_signature(func):
    """Parameter list (excluding self) for stub generation."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return None
    parameters = list(signature.parameters.values())
    if parameters and parameters[0].name == "self":
        parameters = parameters[1:]
    return parameters
