"""OS IPC substrate: the cross-process LRMI transport that deploys whole
J-Kernel domains out-of-process behind marshalling capability proxies —
the product's one cross-process call, which the fleet rides too.
Table 2's comparators, NT-RPC and COM, live in
``repro.bench.baselines.ntrpc`` and ``repro.bench.baselines.com``."""

from .lrmi import (
    DomainClient,
    DomainHostProcess,
    ExportTable,
    ProtocolError,
    RemoteCapability,
    connect,
    exported_methods,
)
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "DomainClient",
    "DomainHostProcess",
    "ExportTable",
    "ProtocolError",
    "RemoteCapability",
    "WireError",
    "connect",
    "exported_methods",
    "recv_frame",
    "send_frame",
]
