"""Multi-host fleet coordination over the LRMI wire.

The paper scales protection domains *within* one JVM; this package
scales them *across* OS processes standing in for machines: a
:class:`FleetCoordinator` places servlet domains on
:class:`FleetHostProcess` agents, health-checks them by heartbeat,
fails placements over to survivors when a host dies, re-keys the
fleet's HMAC capability tokens on every failover so stale references
fail closed, and federates per-tenant quotas so a tenant cannot escape
its budget by spanning hosts.  The fleet rides LRMI, the product's one
cross-process call; a reference crosses hosts only as a signed token.
See ``docs/robustness-notes.md`` ("Multi-host" section) for the state
machines.
"""

from .coordinator import (
    FleetCoordinator,
    FleetError,
    FleetUnavailableError,
    NoLiveHostError,
    validate_liveness_knobs,
    wait_until,
)
from .host import FleetHostAgent, FleetHostProcess
from .quota import QuotaFederation
from .tokens import (
    PlacementGoneError,
    TokenAuthority,
    TokenError,
    TokenInvalidError,
    TokenRevokedError,
    TokenStaleError,
)

__all__ = [
    "FleetCoordinator",
    "FleetError",
    "FleetHostAgent",
    "FleetHostProcess",
    "FleetUnavailableError",
    "NoLiveHostError",
    "PlacementGoneError",
    "QuotaFederation",
    "TokenAuthority",
    "TokenError",
    "TokenInvalidError",
    "TokenRevokedError",
    "TokenStaleError",
    "validate_liveness_knobs",
    "wait_until",
]
