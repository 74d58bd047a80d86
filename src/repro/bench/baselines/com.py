"""A COM-like component model (Table 2's in-proc / out-of-proc pair).

COM's essential mechanics, reproduced:

* components implement *interfaces* identified by IIDs; method dispatch is
  through a vtable (an ordered method list), so an in-proc call is one
  indirection plus the call — "COM in-proc" in Table 2 is exactly this;
* classes register under CLSIDs in a registry;
* ``create_instance`` activates either in-process (returns a vtable-backed
  interface pointer) or out-of-process (spawns/uses a component host
  process and returns a proxy whose vtable marshals each call over the
  NT-RPC substrate — the ~3-orders-of-magnitude-slower path).
"""

from __future__ import annotations

import struct

from repro.ipc.ntrpc import RpcClient, RpcError, RpcServerProcess

IN_PROC = "in-proc"
OUT_OF_PROC = "out-of-proc"

_PACK_U32 = struct.Struct(">I")


class ComError(Exception):
    pass


class ComInterface:
    """An interface definition: an IID plus an ordered method list."""

    def __init__(self, iid, methods):
        self.iid = iid
        self.methods = tuple(methods)

    def vtable_index(self, method_name):
        try:
            return self.methods.index(method_name)
        except ValueError:
            raise ComError(f"{self.iid} has no method {method_name}") from None


class InterfacePointer:
    """An activated interface: a vtable plus a receiver.

    ``ptr.invoke(index, *args)`` is the COM calling convention; the
    convenience ``ptr.method(name)`` resolves an index once so hot loops
    pay only the vtable indirection.
    """

    def __init__(self, interface, vtable):
        self.interface = interface
        self._vtable = vtable

    def invoke(self, index, *args):
        return self._vtable[index](*args)

    def method(self, name):
        return self._vtable[self.interface.vtable_index(name)]

    def query_interface(self, iid):
        if iid != self.interface.iid:
            raise ComError(f"E_NOINTERFACE: {iid}")
        return self


class ComRegistry:
    """CLSID -> (factory, interface) registrations."""

    def __init__(self):
        self._classes = {}

    def register_class(self, clsid, factory, interface):
        self._classes[clsid] = (factory, interface)

    def lookup(self, clsid):
        entry = self._classes.get(clsid)
        if entry is None:
            raise ComError(f"REGDB_E_CLASSNOTREG: {clsid}")
        return entry


def _build_vtable(component, interface):
    return tuple(
        getattr(component, method_name) for method_name in interface.methods
    )


def _encode_args(args):
    # Only flat int/bytes/str arguments cross the COM wire here; richer
    # marshalling belongs to the J-Kernel layer, not this baseline.
    parts = [_PACK_U32.pack(len(args))]
    for arg in args:
        if isinstance(arg, int):
            parts.append(b"i" + struct.pack(">q", arg))
        elif isinstance(arg, bytes):
            parts.append(b"b" + _PACK_U32.pack(len(arg)) + arg)
        elif isinstance(arg, str):
            encoded = arg.encode("utf-8")
            parts.append(b"s" + _PACK_U32.pack(len(encoded)) + encoded)
        else:
            raise ComError(f"unmarshalable argument {type(arg).__name__}")
    return b"".join(parts)


def _decode_args(data):
    (count,) = _PACK_U32.unpack_from(data, 0)
    offset = 4
    args = []
    for _ in range(count):
        kind = data[offset:offset + 1]
        offset += 1
        if kind == b"i":
            (value,) = struct.unpack_from(">q", data, offset)
            offset += 8
        else:
            (length,) = _PACK_U32.unpack_from(data, offset)
            offset += 4
            raw = data[offset:offset + length]
            offset += length
            value = raw.decode("utf-8") if kind == b"s" else raw
        args.append(value)
    return args


class ComHost:
    """The out-of-proc component host: one process serving one CLSID."""

    def __init__(self, registry, clsid):
        factory, interface = registry.lookup(clsid)
        component = factory()
        vtable = _build_vtable(component, interface)

        def dispatch(payload):
            (index,) = _PACK_U32.unpack_from(payload, 0)
            args = _decode_args(payload[4:])
            result = vtable[index](*args)
            return _encode_args([result if result is not None else 0])

        self.interface = interface
        self._server = RpcServerProcess({"invoke": dispatch})

    def start(self):
        self._server.start()
        return self

    def stop(self):
        self._server.stop()

    @property
    def socket_path(self):
        return self._server.path

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


class _ProxyMethod:
    __slots__ = ("_client", "_index")

    def __init__(self, client, index):
        self._client = client
        self._index = index

    def __call__(self, *args):
        payload = _PACK_U32.pack(self._index) + _encode_args(args)
        try:
            reply = self._client.call("invoke", payload)
        except RpcError as exc:
            raise ComError(f"RPC_E_FAULT: {exc}") from None
        return _decode_args(reply)[0]


def connect_proxy(host):
    """Interface pointer whose vtable marshals to the host process."""
    client = RpcClient(host.socket_path).connect()
    vtable = tuple(
        _ProxyMethod(client, index)
        for index in range(len(host.interface.methods))
    )
    pointer = InterfacePointer(host.interface, vtable)
    pointer._rpc_client = client  # keep the connection alive with the ptr
    return pointer


def create_instance(registry, clsid, context=IN_PROC):
    """CoCreateInstance: activate a registered class in- or out-of-proc."""
    factory, interface = registry.lookup(clsid)
    if context == IN_PROC:
        component = factory()
        return InterfacePointer(interface, _build_vtable(component, interface))
    if context == OUT_OF_PROC:
        host = ComHost(registry, clsid).start()
        pointer = connect_proxy(host)
        pointer._com_host = host  # host process lifetime tied to the pointer
        return pointer
    raise ComError(f"unknown activation context {context!r}")
