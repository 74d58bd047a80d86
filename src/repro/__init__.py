"""repro — a reproduction of "Implementing Multiple Protection Domains in
Java" (Hawblitzel et al., USENIX 1998): the J-Kernel.

Public API highlights (see README.md):

* ``repro.core`` — domains, capabilities, LRMI (the hosted J-Kernel);
* ``repro.jvm`` — the MiniJVM substrate (verifier, loaders, threads, GC);
* ``repro.jkvm`` — the J-Kernel on the MiniJVM (enforced path);
* ``repro.web`` — the extensible HTTP server of §4;
* ``repro.toolchain`` — the CS314 Jr compiler / assembler / linker;
* ``repro.ipc`` — local RPC and the cross-process LRMI transport;
* ``repro.bench`` — paper-shape fixtures and the COM / JWS comparators.
"""

from .core import (
    Capability,
    Domain,
    DomainTerminatedException,
    JKernelError,
    Remote,
    RemoteException,
    Repository,
    RevokedException,
    fast_copy,
    get_repository,
    serializable,
    share_class,
)

__version__ = "0.1.0"

__all__ = [
    "Capability",
    "Domain",
    "DomainTerminatedException",
    "JKernelError",
    "Remote",
    "RemoteException",
    "Repository",
    "RevokedException",
    "__version__",
    "fast_copy",
    "get_repository",
    "serializable",
    "share_class",
]
