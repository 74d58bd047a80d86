"""The system under test as a child process: builds one of the page or
overload servers from the public API, then obeys one-line JSON commands
on stdin (answers on stdout) until told to stop.

Everything here is jkbench's own code *around* the system: servlets,
span wrappers installed where the public API takes a callable or an
object, and direct timed calls of public entry points.
"""

from __future__ import annotations

import json
import random
import sys

from repro.core import Capability, Domain, Remote, seal
from repro.core.quota import QuotaManager, QuotaSpec
from repro.ipc import DomainHostProcess, connect
from repro.web import (
    IsapiBridge,
    JKernelWebServer,
    OutOfProcessRegistration,
    RequestParser,
    ServletResponse,
    SystemServlet,
    format_response,
)
from repro.web.control import AdmissionController

from . import script, servlets
from .timing import Timer
from .trace import Recorder, Spanned, now_ns

_SIZES = script.STATIC_SIZES

def _admission():
    """Fair shares bite from 4 requests in flight; the abuser's share of
    the bound is 4 and steady's 60.  With equal weights and a bound of
    16, steady's own five or six requests in flight on top of the
    abuser's eight reach the bound often enough that steady is shed for
    the abuser's overload (2-3 % of its requests), and the contract wants
    a workload on which no operation fails.  The bound is this wide so
    that the burst after a 100 ms stall of a shared host's CPU — some
    35 steady arrivals at once — does not reach it either."""
    return AdmissionController(max_inflight=64, shed_threshold=0.0625,
                               weights={"/steady": 15.0, "/abuser": 1.0})


def _factories(kind, corrupt):
    table = {f"/doc{n}": (lambda n=n: servlets.StaticServlet(
        n, corrupt=corrupt and n == 100)) for n in _SIZES}
    table["/echo"] = servlets.EchoServlet
    table["/sum"] = servlets.SumServlet
    if kind == "pages_xproc":
        table["/bulk"] = servlets.BulkServlet
    return table


class _Sink(Remote):
    def nop(self): ...
    def take(self, value): ...
    def take_region(self, region): ...


class _SinkImpl(_Sink):
    def nop(self):
        return None

    def take(self, value):
        return len(value)

    def take_region(self, region):
        return len(region)


def _probe_host_setup():
    domain = Domain("jkbench-probe")
    return {"sink": domain.run(lambda: Capability.create(_SinkImpl()))}


class Sut:
    def __init__(self, kind, seed, traced, corrupt, quick):
        self.kind = kind
        self.timer = Timer(quick)
        self.seed = seed
        self.traced = traced
        self.recorder = Recorder()
        self.probe_host = None
        if kind == "overload_isolation":
            self.jk = JKernelWebServer(workers=2, bridge_inline=False,
                                       admission=_admission())
            for tenant in script.TENANTS:
                self._install(f"/{tenant}",
                              lambda t=script.TENANTS.index(tenant):
                              servlets.SleepServlet(t))
        else:
            self.jk = JKernelWebServer()
            for n in _SIZES:
                self.jk.server.documents.put(f"/doc{n}",
                                             script.static_body(n))
            for prefix, factory in _factories(kind, corrupt).items():
                self._install(prefix, factory)
            if traced and kind == "pages_xproc":
                # Forked before the server's threads exist.
                self.probe_host = DomainHostProcess(
                    _probe_host_setup, name="jkbench-probe").start()
        self.traced_handle = self._shadow_chain() if traced else None
        self.jk.start()

    def _install(self, prefix, factory):
        if self.traced:
            plain = factory
            factory = lambda: servlets.TracedServlet(plain())  # noqa: E731
        if self.kind == "pages_xproc":
            self.jk.install_servlet_out_of_process(prefix, factory)
        else:
            self.jk.install_servlet(prefix, factory)

    # -- tracing -----------------------------------------------------------
    def _shadow_chain(self):
        """The bridge -> system servlet -> capability chain rebuilt from
        the same public classes, with a span at every seam; switching
        tracing on registers its entry point as the mount's extension
        handler in place of the server's own bridge."""
        recorder = self.recorder
        if self.kind == "overload_isolation":
            # Pool threads run handlers concurrently: one tagged span
            # per request (the arrival number rides the path).
            handle = self.jk.bridge.handle

            def tagged(request):
                if not recorder.enabled:
                    return handle(request)
                start = now_ns()
                try:
                    return handle(request)
                finally:
                    recorder.spans.append((
                        "web.isapi.handle", start, now_ns(),
                        int(request.path.rsplit("/", 1)[1])))

            return tagged
        system = SystemServlet()
        for prefix, registration in self.jk.registrations().items():
            capability = registration.capability
            if isinstance(registration, OutOfProcessRegistration):
                registration.proxy = Spanned(
                    recorder, "ipc.lrmi.call_marshalled", registration.proxy)
                registration.client = Spanned(
                    recorder, "ipc.lrmi.call_streamed", registration.client,
                    method="call_streamed")
                capability = Spanned(recorder, "ipc.lrmi.gateway", capability)
            else:
                capability = Spanned(recorder, "core.stubs.crossing",
                                     capability)
            system.add_route(prefix, capability, registration)
        bridge = IsapiBridge(Spanned(recorder, "web.jkweb.route", system),
                             strip_prefix=self.jk.mount)
        return recorder.wrap("web.isapi.handle", bridge.handle)

    def trace(self, on):
        inline = self.kind != "overload_isolation"
        self.recorder.enabled = on
        self.jk.server.add_extension(
            self.jk.mount,
            self.traced_handle if on else self.jk.bridge.handle,
            inline=inline)
        return {"tracing": on}

    def spans(self):
        return {"spans": self.recorder.drain()}

    # -- counters ----------------------------------------------------------
    def stats(self):
        snapshot = self.jk.stats()
        redials = 0
        for registration in self.jk.registrations().values():
            if isinstance(registration, OutOfProcessRegistration):
                redials += registration.respawns + registration.client.evicted
        snapshot["redials"] = redials
        return {"stats": snapshot}

    # -- direct timed calls ------------------------------------------------
    def probe(self):
        values = (self._probe_control()
                  if self.kind == "overload_isolation"
                  else self._probe_http())
        if self.probe_host is not None:
            values.update(self._probe_ipc())
        return {"values": values}

    def _probe_http(self):
        """Parser and formatter on a seeded sample of the workload's own
        request bytes and response bodies."""
        rng = random.Random(f"{self.seed}:probe")
        sample = rng.sample(
            script.pages_script(self.seed, 0,
                                bulk=self.kind == "pages_xproc",
                                length=2048), 256)
        parser = RequestParser()

        def parse_all():
            for entry in sample:
                parser.feed(entry[1])
                parser.next_request()

        responses = []
        for cls, request, *_ in sample:
            path = request.split(b" ", 2)[1].decode("ascii")
            if cls == script.STATIC:
                body = script.static_body(int(path.rsplit("doc", 1)[1]))
            elif cls == script.DYNAMIC:
                _, _, _, key, size = path.split("/")
                body = script.echo_body(key, int(size))
            elif cls == script.POST:
                body = script.sum_body(request.split(b"\r\n\r\n", 1)[1])
            else:
                body = script.bulk_body(int(path.rsplit("/", 1)[1]))
            responses.append(ServletResponse(
                200, {"Content-Type": "text/html"}, body))

        def format_all():
            for response in responses:
                format_response(response, True, "HTTP/1.0")

        return {
            "web.http.parse_us":
                self.timer.per_call_us(parse_all) / len(sample),
            "web.http.format_us":
                self.timer.per_call_us(format_all) / len(sample),
        }

    def _probe_control(self):
        admission = _admission()
        path = "/servlet/steady/2000/0"

        def decide():
            admission.finish(admission.decide(path).tenant, 2000.0)

        quota = QuotaManager()
        quota.set_quota("/steady", QuotaSpec(requests_per_sec=1e9))
        return {
            "web.control.decide_us": self.timer.per_call_us(decide),
            "core.quota.charge_request_us": self.timer.per_call_us(
                lambda: quota.charge_request("/steady")),
        }

    def _probe_ipc(self):
        """Proxy calls into a forked probe host, beside the same calls
        through an in-process capability."""
        client = connect(self.probe_host)
        domain = Domain("jkbench-probe-local")
        local = domain.run(lambda: Capability.create(_SinkImpl()))
        try:
            sink = client.lookup("sink")
            chunk = script.chunk_payload(self.seed, 1000)
            bulk = script.bulk_body(0)
            region = seal(bulk)
            for _ in range(50):  # dial, bind, announce the bulk ring
                sink.nop()
                sink.take(chunk)
                sink.take(bulk)
                sink.take_region(region)
            null_us = self.timer.per_call_us(sink.nop)
            values = {
                "ipc.lrmi.null_call_us": null_us,
                "ipc.lrmi.call_1000B_us": self.timer.per_call_us(
                    lambda: sink.take(chunk)),
                "ipc.shm.ring_call_64k_us": self.timer.per_call_us(
                    lambda: sink.take(bulk)),
                "core.regions.grant_64k_us": self.timer.per_call_us(
                    lambda: sink.take_region(region)),
                "core.regions.seal_64k_us": self.timer.per_call_us(
                    lambda: seal(bulk).revoke()),
                "ipc.lrmi.xproc_over_inproc_null":
                    null_us / self.timer.per_call_us(local.nop),
            }
            region.revoke()
            return values
        finally:
            client.close()
            domain.terminate()

    def stop(self):
        self.jk.stop()
        if self.probe_host is not None:
            self.probe_host.stop()
        return {"stopped": True}


def main(kind, seed, traced, corrupt, quick):
    sut = Sut(kind, seed, traced, corrupt, quick)
    out = sys.stdout
    print(json.dumps({"ready": True, "port": sut.jk.port}), file=out,
          flush=True)
    commands = {"stats": sut.stats, "spans": sut.spans, "probe": sut.probe,
                "trace_on": lambda: sut.trace(True),
                "trace_off": lambda: sut.trace(False)}
    try:
        for line in sys.stdin:
            verb = line.strip()
            if verb == "stop":
                break
            print(json.dumps(commands[verb]()), file=out, flush=True)
    finally:
        print(json.dumps(sut.stop()), file=out, flush=True)
    return 0
