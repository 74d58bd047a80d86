"""jkbench's own servlets.  Bodies come from the pure functions in
``script``, which is how the load generator knows every expected CRC
without asking the system under test."""

from __future__ import annotations

import json
import time

from repro.web import Servlet, ServletResponse

from . import script
from .trace import now_ns

_HTML = {"Content-Type": "text/html"}
_TEXT = {"Content-Type": "text/plain"}


class StaticServlet(Servlet):
    """A prebuilt sealed response: the request-interning and
    wire-memo caches all hit."""

    def __init__(self, size, corrupt=False):
        body = script.static_body(size)
        if corrupt:  # the injected wrong-body servlet of the self-tests
            body = body[:-1] + b"!"
        self.response = ServletResponse(200, _HTML, body)

    def service(self, request):
        return self.response


class EchoServlet(Servlet):
    """``/echo/<key>/<n>``: an n-byte body built per request."""

    def service(self, request):
        _, _, key, size = request.path.split("/")
        return ServletResponse(200, _HTML, script.echo_body(key, int(size)))


class SumServlet(Servlet):
    def service(self, request):
        return ServletResponse(200, _TEXT, script.sum_body(request.body))


class BulkServlet(Servlet):
    """``/bulk/<variant>``: 64 KiB, above the 16 KiB seal threshold, so
    the response body rides a sealed region."""

    def service(self, request):
        variant = int(request.path.rsplit("/", 1)[1])
        return ServletResponse(200, _HTML, script.bulk_body(variant))


class SleepServlet(Servlet):
    """``/<tenant>/<sleep_us>/<arrival>``: the open-loop tenants'
    service demand."""

    def __init__(self, tenant):
        self.tenant = tenant

    def service(self, request):
        sleep_us = int(request.path.split("/")[2])
        time.sleep(sleep_us / 1e6)
        return ServletResponse(
            200, _TEXT, script.sleep_body(self.tenant, sleep_us))


class TracedServlet(Servlet):
    """The servlet object inside its domain, with a span around its
    body.  It may live in a forked domain host, so the span buffer is
    switched and fetched through reserved paths of the servlet itself:
    ``.../__jkbench__/on``, ``/off`` and ``/dump``."""

    def __init__(self, inner, name="servlet.body"):
        self.inner = inner
        self.name = name
        self.enabled = False
        self.spans = []

    def service(self, request):
        if "/__jkbench__/" in request.path:
            return self._control(request.path.rsplit("/", 1)[1])
        if not self.enabled:
            return self.inner.service(request)
        start = now_ns()
        try:
            return self.inner.service(request)
        finally:
            self.spans.append((self.name, start, now_ns()))

    def _control(self, verb):
        if verb == "dump":
            spans, self.spans = self.spans, []
            return ServletResponse(200, _TEXT, json.dumps(spans))
        self.enabled = verb == "on"
        return ServletResponse(200, _TEXT, verb)
