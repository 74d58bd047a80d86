"""J-Kernel error hierarchy.

Mirrors the RMI-flavoured design of the paper: every cross-domain failure
surfaces as a :class:`RemoteException` (or subclass) in the caller, so a
caller can catch one exception type at every capability call site and be
guaranteed correct failure propagation — including when the callee domain
has been terminated or the capability revoked.
"""

from __future__ import annotations


class JKernelError(Exception):
    """Base class for all J-Kernel errors."""


class RemoteException(JKernelError):
    """A cross-domain call failed.

    Raised for revoked capabilities, terminated domains, uncopyable
    arguments and callee-side exceptions that could not be copied back.
    """


class RevokedException(RemoteException):
    """The capability was revoked; all uses throw (paper §3)."""


class DomainTerminatedException(RevokedException):
    """The creating domain terminated, revoking all of its capabilities."""


class RegionRevokedError(RevokedException):
    """A sealed shared-memory region was revoked (``repro.core.regions``).

    The MPK-style grant model: a domain *grants* a region to a callee
    for the duration of a call and the kernel *revokes* the view when
    the call returns — any later access through the view raises this,
    never stale bytes.  Also raised for stale-generation grants (a
    recycled or respawned segment) and reads of a region whose owner
    revoked it or died.  A :class:`RevokedException` subclass so every
    existing revocation-handling path treats it identically.
    """


class SegmentStoppedException(RemoteException):
    """This thread segment was stopped (the segment-local ``Thread.stop``)."""


class DomainUnavailableException(RemoteException):
    """An out-of-process domain cannot be reached.

    Raised by the cross-process LRMI transport (``repro.ipc.lrmi``) when
    the host process is dead, the wire connection drops mid-call, or a
    reply times out.  Distinct from :class:`RevokedException`: the
    capability may still be live — its *process* is gone — so callers
    (e.g. the web layer's system servlet) map it to a retryable 503
    rather than a permanent failure.
    """


class QuotaExceededException(RemoteException):
    """A domain exhausted a hard resource budget (``repro.core.quota``).

    The kernel's enforcement answer to the paper's resource-accounting
    section: the accounting machinery *measures* what crosses into a
    domain; a quota turns the measurement into a budget, and exhausting
    the hard limit terminates the domain through the same revoke/teardown
    path ``Domain.terminate`` has always guaranteed.  Callers racing the
    kill see this exception (or the 503 the web layer maps it to), never
    a hang or a half-dead domain.
    """


class AccessDeniedError(RemoteException):
    """A stack-based access-control check failed (``repro.core.policy``).

    Raised when a guarded capability is invoked — or ``check_permission``
    is called — while some protection domain on the effective call chain
    lacks the required permission.  The chain is the LRMI segment stack
    (every domain the request passed through), truncated at the most
    recent ``do_privileged`` scope and extended by the caller context a
    cross-process call frame carried in; in the MiniJVM, the guest chain
    comes first.  ``AccessControlContext.check`` raises it, so
    ``domain`` always names the first domain on the chain that lacks
    ``permission`` (a ``"kind:target"`` string), in-process, in the VM
    (whose ``jk/AccessDenied`` carries the same message) and across
    processes.  For an entry imported across processes, ``domain`` is
    the name the remote caller wrote into its context: its own,
    unauthenticated claim, which can only narrow that caller's
    authority.  A ``RemoteException`` subclass so it propagates through
    every existing failure path; the web layer maps it to a typed 403
    rather than a 500.
    """

    def __init__(self, message, permission=None, domain=None):
        # All three ride in ``args`` so the wire rebuild (``cls(*args)``)
        # preserves the typed fields across process boundaries.
        super().__init__(message, permission, domain)
        self.permission = permission
        self.domain = domain

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class NotSerializableError(RemoteException):
    """A value crossing a domain boundary has no registered copy mechanism."""


class RemoteInterfaceError(JKernelError):
    """A target object does not implement any valid remote interface."""


class SharingError(JKernelError):
    """A class violates the shared-class rules (static state, or its
    referenced classes are not shared along with it — paper §3.1 fn. 3)."""


class NameAlreadyBoundError(JKernelError):
    """Repository bind() on a name that is already bound."""


class NameNotBoundError(JKernelError):
    """Repository lookup()/unbind() on an unknown name."""


class DomainError(JKernelError):
    """Invalid domain operation (e.g. acting on a terminated domain)."""
