"""Interface method dispatch strategies (Table 1, "interface method
invocation").

* :class:`LinearInterfaceDispatch` — re-checks the interface relation and
  scans the receiver's virtual table on every call (MS-VM-like: interface
  calls cost ~10x a virtual call).
* :class:`CachedInterfaceDispatch` — builds a per-(class, interface) itable
  once, then every call is two dictionary hits (Sun-VM-like: interface
  calls cost about the same as virtual calls).

Both verify at run time that the receiver actually implements the
interface; the verifier defers that check to here, as the JVM does.
"""

from __future__ import annotations


class DispatchError(Exception):
    """Receiver does not implement the interface (runtime check)."""


class LinearInterfaceDispatch:
    name = "linear"

    def lookup(self, receiver_class, iface, method_name, desc):
        implemented = False
        for candidate in receiver_class.all_interfaces:
            if candidate is iface:
                implemented = True
                break
        if not implemented:
            raise DispatchError(
                f"{receiver_class.name} does not implement {iface.name}"
            )
        key = (method_name, desc)
        for owner, method in receiver_class.vtable:
            if method.key == key:
                return owner, method
        raise DispatchError(
            f"{receiver_class.name} has no implementation of "
            f"{iface.name}.{method_name}{desc}"
        )


class CachedInterfaceDispatch:
    name = "cached"

    def lookup(self, receiver_class, iface, method_name, desc):
        itable = receiver_class.itables.get(iface)
        if itable is None:
            itable = self._build_itable(receiver_class, iface)
            receiver_class.itables[iface] = itable
        entry = itable.get((method_name, desc))
        if entry is None:
            raise DispatchError(
                f"{receiver_class.name} has no implementation of "
                f"{iface.name}.{method_name}{desc}"
            )
        return entry

    @staticmethod
    def _build_itable(receiver_class, iface):
        if iface not in receiver_class.all_interfaces:
            raise DispatchError(
                f"{receiver_class.name} does not implement {iface.name}"
            )
        itable = {}
        pending = [iface]
        seen = set()
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            pending.extend(current.interfaces)
            for key in current.declared:
                index = receiver_class.vtable_index(*key)
                if index is not None:
                    itable[key] = receiver_class.vtable[index]
        return itable


def make_dispatcher(strategy):
    if strategy == "linear":
        return LinearInterfaceDispatch()
    if strategy == "cached":
        return CachedInterfaceDispatch()
    raise ValueError(f"unknown dispatch strategy {strategy!r}")
