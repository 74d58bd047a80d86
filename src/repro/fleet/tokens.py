"""Unforgeable cross-host capability references (Capacity-style tokens).

In-process, a capability is unforgeable because the kernel hands out the
only reference; cross-process LRMI keeps that property because export
ids are meaningless outside their connection.  Across *machines* neither
trick works — a reference must survive being printed into a frame, so it
must carry its own proof of authenticity.  Following Capacity (see
PAPERS.md), a fleet capability reference is an HMAC-signed token:

* the **claims** (token id, placement, tenant, method set, epoch) are
  JSON, base64url-encoded;
* the **signature** is HMAC-SHA256 over the claims bytes, keyed by a
  per-epoch key derived from the fleet secret (``HMAC(secret, epoch)``),
  so possession of a valid token proves the coordinator minted it;
* the **epoch** scopes validity: the coordinator bumps the fleet epoch
  on every failover, which re-keys the fleet — tokens minted before the
  bump fail closed (:class:`TokenStaleError`) everywhere that knows the
  current epoch, including hosts that receive the epoch broadcast.  A
  host cut off by a partition keeps the old epoch; after healing, the
  tokens it minted or honoured are stale fleet-wide.

Verification failures are :class:`RevokedException` subclasses: a token
that cannot be trusted is treated exactly like a revoked capability —
fail closed, typed error, never a fallback to "probably fine".
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
import uuid

from repro.core.errors import RemoteException, RevokedException
from repro.core.serial import register_class

#: Signature length in bytes (HMAC-SHA256).
_MAC_BYTES = 32


class TokenError(RevokedException):
    """A fleet token failed verification (fail closed)."""


class TokenInvalidError(TokenError):
    """Malformed or forged token: bad encoding or wrong signature."""


class TokenStaleError(TokenError):
    """The token's epoch predates the current fleet epoch (minted
    before a failover re-keyed the fleet)."""


class TokenRevokedError(TokenError):
    """The token id was explicitly revoked (broadcast fleet-wide)."""


class PlacementGoneError(RemoteException):
    """The placement no longer exists on the host (evicted or never
    placed there — e.g. a frame that outlived a failover), or the token
    does not authorize the method called on it."""


# Registered beside the kernel's own errors, so a host-side verdict
# crosses the LRMI wire and re-raises as itself in the coordinator.
for _error in (TokenError, TokenInvalidError, TokenStaleError,
               TokenRevokedError, PlacementGoneError):
    register_class(_error, name=f"fleet.{_error.__name__}")


def _b64(data):
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def _unb64(text):
    padded = text + "=" * (-len(text) % 4)
    return base64.urlsafe_b64decode(padded.encode("ascii"))


class TokenAuthority:
    """Mints and verifies epoch-keyed HMAC capability tokens.

    The coordinator owns the authoritative instance; each fleet host
    holds a replica constructed from the shared ``secret`` whose
    ``epoch`` is advanced by coordinator broadcast.  Keys never cross
    the wire — only the epoch number does; both sides derive the
    per-epoch key from the secret they were born with.
    """

    def __init__(self, secret=None, epoch=0):
        self._secret = secret if secret is not None else os.urandom(32)
        if not isinstance(self._secret, (bytes, bytearray)):
            raise TypeError("secret must be bytes")
        self.epoch = epoch

    @property
    def secret(self):
        return self._secret

    def _key(self, epoch):
        return hmac.new(self._secret, b"fleet-epoch-%d" % epoch,
                        hashlib.sha256).digest()

    def bump_epoch(self):
        """Advance the fleet epoch (failover re-key); returns it."""
        self.epoch += 1
        return self.epoch

    def mint(self, placement, *, tenant=None, methods=(), epoch=None):
        """A signed token string for one placement at ``epoch`` (the
        current epoch by default)."""
        at = self.epoch if epoch is None else epoch
        claims = {
            "tid": uuid.uuid4().hex,
            "placement": placement,
            "tenant": tenant,
            "methods": sorted(methods),
            "epoch": at,
        }
        body = json.dumps(claims, sort_keys=True).encode("utf-8")
        mac = hmac.new(self._key(at), body, hashlib.sha256).digest()
        return _b64(body) + "." + _b64(mac)

    def verify(self, token, *, epoch=None):
        """The claims dict, after signature and epoch checks.

        Raises :class:`TokenInvalidError` for anything malformed or
        forged and :class:`TokenStaleError` when the (authentically
        signed) token belongs to an older epoch.
        """
        at = self.epoch if epoch is None else epoch
        if not isinstance(token, str) or "." not in token:
            raise TokenInvalidError("malformed fleet token")
        body_text, _, mac_text = token.rpartition(".")
        try:
            body = _unb64(body_text)
            mac = _unb64(mac_text)
            claims = json.loads(body)
            token_epoch = int(claims["epoch"])
        except (ValueError, KeyError, TypeError):
            raise TokenInvalidError("malformed fleet token") from None
        # Authenticate against the key for the epoch the token CLAIMS:
        # a correctly signed old-epoch token is stale (a meaningful,
        # distinct verdict), while a bad signature is a forgery.
        expected = hmac.new(self._key(token_epoch), body,
                            hashlib.sha256).digest()
        if len(mac) != _MAC_BYTES or not hmac.compare_digest(mac, expected):
            raise TokenInvalidError("fleet token signature mismatch")
        if token_epoch != at:
            raise TokenStaleError(
                f"fleet token epoch {token_epoch} != current {at} "
                "(minted before a failover re-keyed the fleet)"
            )
        return claims
