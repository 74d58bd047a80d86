"""The ISAPI bridge (paper §4).

"The J-Kernel runs within the same process as IIS (as an in-proc ISAPI
extension) and includes a system servlet … that allows it to receive HTTP
requests from IIS and return corresponding replies."

The bridge converts native-server requests into sealed ``ServletRequest``
objects and forwards them to the system servlet.  In the paper's
architecture that crossing is a JNI call from native code into *trusted*
J-Kernel kernel code — the system servlet is kernel infrastructure, not
an isolated user domain — and the LRMI domain crossing happens where the
protection boundary actually is: system servlet → user servlet.
:class:`~repro.web.jkweb.JKernelWebServer` models exactly that
(``system`` is the :class:`~repro.web.jkweb.SystemServlet` itself,
called host-side).

``handle`` is called concurrently from every event loop (and pool
worker) of the native server, so the bridged-request counter is sharded
rather than a bare ``+= 1``.
"""

from __future__ import annotations

from repro.core import RemoteException
from repro.core.accounting import ShardedCounter

from .http import Response
from .servlet import ServletRequest


class IsapiBridge:
    """Adapter between the native server and the J-Kernel system servlet.

    ``system`` is anything exposing ``service(request)``: the system
    servlet object (paper-faithful trusted call) or its capability (full
    LRMI accounting).
    """

    def __init__(self, system, strip_prefix="", request_cache=512):
        self._system = system
        self._strip_prefix = strip_prefix
        self._bridged = ShardedCounter()
        # Request interning: a sealed ServletRequest is immutable, so
        # identical bodiless requests (the keep-alive GET steady state)
        # may share one carrier object across time and connections —
        # the request-side counterpart of the document response cache.
        self._requests = {} if request_cache else None
        self._requests_cap = request_cache

    @property
    def requests_bridged(self):
        return self._bridged.value

    def _intern_request(self, request):
        # Keyed by (method, path) with a C-speed dict equality check on
        # the headers — cheaper than hashing a headers tuple per request
        # in the steady state where each client repeats one request.
        cache = self._requests
        key = (request.method, request.path)
        entry = cache.get(key)
        headers = request.headers
        if entry is not None and entry[0] == headers:
            return entry[1]
        built = self._build(request)
        # Only a genuinely NEW key can grow the dict: replacing an
        # existing entry at capacity must not wipe every other path.
        if key not in cache and len(cache) >= self._requests_cap:
            cache.clear()
        cache[key] = (headers, built)
        return built

    def _build(self, request):
        path = request.path
        if self._strip_prefix and path.startswith(self._strip_prefix):
            path = path[len(self._strip_prefix):] or "/"
        return ServletRequest(
            request.method, path, request.headers, request.body
        )

    def handle(self, request):
        """Native-server extension entry point."""
        self._bridged.add(1)
        if self._requests is not None and not request.body:
            servlet_request = self._intern_request(request)
        else:
            servlet_request = self._build(request)
        try:
            # Sealed and immutable, the response needs no defensive
            # re-wrap — it goes back to the server as-is (keeping its
            # memoized wire form when the servlet reuses responses).
            return self._system.service(servlet_request)
        except RemoteException as exc:
            return Response(
                503, {"Content-Type": "text/plain"},
                f"servlet unavailable: {exc}".encode("utf-8"),
            )
