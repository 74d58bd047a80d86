"""The servlet API (paper §4).

Servlets customize HTTP request processing for a subset of the server's
URL space; each user servlet runs in its own protection domain and is
reached through a capability.

``ServletRequest``/``ServletResponse`` are *sealed* classes
(``repro.core.sealed``): validated deeply immutable at construction —
exact ``str``/``int``/``bytes`` fields plus a :class:`FrozenMap` of
headers — then frozen, final, and registered to cross domain boundaries
by reference.  Every request and response crosses two boundaries (native
server → system servlet → user servlet and back), so this is the hottest
transferred data in the web stack; sealing moves the cost of isolation
from four deep copies per request to one validation per object, the same
immutability argument the calling convention has always applied to
primitives and the enforced kernel applies to final String classes.
Mutable or cyclic payloads still ride the Table 4 copy machinery — the
body is a ``bytes`` snapshot taken at construction.
"""

import struct
import weakref

from repro.core import Remote, register_class
from repro.core import regions as _regions
from repro.core.regions import SealedRegion
from repro.core.sealed import FrozenMap, sealed

from .http import format_response


def _text(value, what):
    if type(value) is str:
        return value
    coerced = str(value)
    if type(coerced) is not str:
        raise TypeError(f"{what} must coerce to exact str")
    return coerced


def _binary(value, what):
    if type(value) is bytes:
        return value
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeError(f"{what} must be bytes-like or str, "
                    f"not {type(value).__name__}")


def _headers(value):
    if type(value) is FrozenMap:
        return value
    return FrozenMap(value or ())


@sealed
class ServletRequest:
    """One HTTP request as seen by a servlet (sealed: immutable)."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method, path, headers=None, body=b""):
        _set = object.__setattr__
        _set(self, "method",
             method if type(method) is str else _text(method, "method"))
        _set(self, "path",
             path if type(path) is str else _text(path, "path"))
        _set(self, "headers",
             headers if type(headers) is FrozenMap else _headers(headers))
        _set(self, "body",
             body if type(body) is bytes else _binary(body, "body"))

    def __repr__(self):
        return f"<ServletRequest {self.method} {self.path}>"


#: Memoized wire forms, keyed by response id with a weakref finalizer
#: evicting the entry when the response dies (the callback runs during
#: deallocation, before the id can be recycled; the identity re-check in
#: ``wire_bytes`` guards the remainder).  Module-private rather than an
#: instance slot: a slot-held dict would hand any code that can read the
#: attribute a mutation handle, and a servlet that poisoned its own
#: response's cached bytes could desynchronize HTTP framing (response
#: splitting) for later requests on the connection.  An id-keyed plain
#: dict beats a WeakKeyDictionary here because the lookup is on the
#: per-request hot path.
_WIRE_MEMO = {}


def _evict_wire(ident):
    _WIRE_MEMO.pop(ident, None)


@sealed
class ServletResponse:
    """One HTTP response produced by a servlet (sealed: immutable)."""

    __slots__ = ("status", "headers", "body", "__weakref__")

    def __init__(self, status=200, headers=None, body=b""):
        if type(status) is not int:
            status = int(status)
        _set = object.__setattr__
        _set(self, "status", status)
        _set(self, "headers",
             headers if type(headers) is FrozenMap else _headers(headers))
        if type(body) is not bytes and type(body) is not SealedRegion:
            body = _binary(body, "body")
        if type(body) is bytes and len(body) >= _regions.SEAL_THRESHOLD:
            # Bulk bodies ride a sealed shared-memory region end to end:
            # across a process boundary the response marshals as a tiny
            # generation-checked grant instead of its bytes (the LRMI
            # side table), and in-process the region crosses by
            # reference like any sealed value.
            body = SealedRegion.seal(body)
        _set(self, "body", body)

    def wire_bytes(self, version="HTTP/1.0", keep_alive=False):
        """Formatted response bytes, memoized per (version, keep-alive).

        A sealed response is immutable, so its wire form is a pure
        function of the transport flags: memoizing it is unobservable
        derived state, the same pattern as str's cached hash.  Servlets
        that keep one response object per static page (see the Table 5
        ``DocServlet``) thereby amortize formatting across every request,
        like the native server's own response cache.
        """
        ident = id(self)
        entry = _WIRE_MEMO.get(ident)
        if entry is None or entry[0]() is not self:
            anchor = weakref.ref(
                self, lambda _ref, _ident=ident: _evict_wire(_ident)
            )
            entry = _WIRE_MEMO[ident] = (anchor, {})
        wire = entry[1]
        key = (version, keep_alive)
        cached = wire.get(key)
        if cached is None:
            cached = wire[key] = format_response(self, keep_alive, version)
        return cached

    def __repr__(self):
        return f"<ServletResponse {self.status} ({len(self.body)} bytes)>"


# Wire forms for the cross-process servlet tier (``repro.ipc.lrmi``):
# in-process crossings keep the sealed by-reference fast path; over a
# process boundary the carriers byte-encode through the compiled
# serializer and the sealing constructors re-validate them on arrival.
#
# A request crosses on every out-of-process page, so it packs into ONE
# ``bytes`` value when it can: a u32 head length, the UTF-8 head
# ``method NUL path (NUL key NUL value)*``, then the body.  That holds
# when every header key and value is a ``str`` and no field contains a
# NUL (the head would not split back); any other request crosses
# field-wise.  Either form rebuilds through FrozenMap and
# ServletRequest, so arrival validation is the constructor's, as ever.
_HEAD_LENGTH = struct.Struct(">I")


def _reduce_request(request):
    parts = [request.method, request.path]
    for key, value in request.headers.items():
        if type(key) is not str or type(value) is not str:
            break
        parts += (key, value)
    else:
        head = "\0".join(parts)
        if head.count("\0") == len(parts) - 1:  # no NUL inside a field
            head = head.encode("utf-8")
            return (_HEAD_LENGTH.pack(len(head)) + head + request.body,)
    return (request.method, request.path, request.headers, request.body)


def _rebuild_request(*values):
    if len(values) != 1:
        return ServletRequest(*values)
    (packed,) = values
    if type(packed) is not bytes or len(packed) < _HEAD_LENGTH.size:
        raise ValueError("packed request has no head length")
    end = _HEAD_LENGTH.size + _HEAD_LENGTH.unpack_from(packed)[0]
    if end > len(packed):
        raise ValueError("packed request head runs past the end")
    parts = str(memoryview(packed)[_HEAD_LENGTH.size:end], "utf-8").split(
        "\0")
    if len(parts) % 2:
        raise ValueError("packed request head is ragged")
    return ServletRequest(parts[0], parts[1],
                          FrozenMap(zip(parts[2::2], parts[3::2])),
                          packed[end:])


register_class(ServletRequest, name="repro.web.ServletRequest",
               reduce=_reduce_request, rebuild=_rebuild_request)
register_class(ServletResponse, name="repro.web.ServletResponse",
               fields=("status", "headers", "body"),
               rebuild=ServletResponse)


class Servlet(Remote):
    """The remote interface every servlet implements."""

    def service(self, request):
        """Handle one request; returns a ServletResponse."""


def text_response(text, status=200, content_type="text/plain"):
    return ServletResponse(
        status,
        {"Content-Type": content_type},
        text.encode("utf-8") if isinstance(text, str) else text,
    )


def error_response(status, message="", headers=None):
    merged = {"Content-Type": "text/plain"}
    if headers:
        merged.update(headers)
    return ServletResponse(
        status, merged,
        (message or f"error {status}").encode("utf-8"),
    )
