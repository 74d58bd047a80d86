"""``pages_inproc`` and ``pages_xproc``: closed-loop keep-alive pages.

Two client threads, two keep-alive connections, the whole process tree
on one CPU (the paper's machines were uniprocessors and the hosted
kernel is GIL-bound; see README.md for the measured evidence).
"""

from __future__ import annotations

import json
import statistics

from . import harness, httpclient, proc, script, trace
from .calibrate import Calibrator
from .script import PAGE_CLASSES
from .timing import Timer

_FAR = 1 << 62
_CONNECTIONS = 2


def _prefixes(kind):
    names = [f"doc{n}" for n in script.STATIC_SIZES] + ["echo", "sum"]
    return names + (["bulk"] if kind == "pages_xproc" else [])


class _Clients:
    """Closed-loop generators, one thread per keep-alive connection.
    ``run`` drives one interval and parks them again; connections,
    script positions and sample streams persist across intervals."""

    def __init__(self, port, scripts):
        self.scripts = scripts
        self.socks = [httpclient.connect(port) for _ in scripts]
        self.positions = [0] * len(scripts)
        #: per connection: completion times, latencies, failures
        self.streams = [([], [], []) for _ in scripts]

    def run(self, deadline_ns, spans=None):
        def one(connection):
            ends, latencies, failures = self.streams[connection]
            self.positions[connection] = httpclient.closed_loop(
                self.socks[connection], self.scripts[connection],
                self.positions[connection], deadline_ns, ends, latencies,
                failures, spans)

        threads = [harness.start_thread(one, connection)
                   for connection in range(len(self.socks))]
        for thread in threads:
            thread.join()

    def run_for(self, seconds, spans=None):
        """One interval of ``seconds``; returns correct pages per second
        over it."""
        before = self.good()
        started = harness.now_ns()
        self.run(started + int(seconds * 1e9), spans)
        return (self.good() - before) / ((harness.now_ns() - started) / 1e9)

    def good(self):
        return sum(len(ends) - len(failures)
                   for ends, _, failures in self.streams)

    def close(self):
        for sock in self.socks:
            sock.close()

    def reasons(self):
        return [reason for _, _, failures in self.streams
                for _, reason in failures]


def run(kind, seed, shape, traced, out_dir, corrupt=False):
    bulk = kind == "pages_xproc"
    scripts = [script.pages_script(seed, c, bulk=bulk,
                                   length=2048 if shape.smoke else 16384)
               for c in range(_CONNECTIONS)]
    harness.freeze_inputs()
    sut_cpu, _ = proc.cpus()
    proc.pin(sut_cpu)  # inherited by the child tree: one CPU for all
    before = proc.leak_snapshot()
    calibrator = Calibrator()
    child, setup_s, pids = harness.spawn_measured(
        kind, seed, traced, shape, calibrator, corrupt)
    info = {"placement": {"sut_cpu": sut_cpu, "generator_cpu": sut_cpu},
            "script": script.digest(scripts), "unresolved": []}
    try:
        if traced:
            result = _traced(kind, shape, child, scripts, out_dir, info,
                             calibrator)
        else:
            result = _measured(shape, child, scripts, info, calibrator)
            result["values"]["setup_s"] = {"value": setup_s}
    finally:
        child.stop()
    result["failures"] += proc.leaks(before, pids)
    result["info"] = info
    return result


def _measured(shape, child, scripts, info, calibrator):
    clients = _Clients(child.port, scripts)
    clients.run_for(shape.warmup_s)
    windows = harness.measure(shape, clients.run, child.pids, calibrator)
    clients.close()
    values, attempted, failed = harness.reduce_windows(
        windows, clients.streams, info)
    values["peak_rss_mb"] = {"value": proc.peak_rss_mib(child.pids)}
    return {"values": values, "attempted": attempted, "failed": failed,
            "failures": sorted(set(clients.reasons()))}


# -- the traced run ---

def _servlet_trace(port, kind, verb):
    """Switch (or fetch) the span buffers of the servlet objects, which
    may live in forked domain hosts: reserved paths of each servlet."""
    spans = []
    for prefix in _prefixes(kind):
        _, body = httpclient.fetch(port, script.request_bytes(
            "GET", f"/servlet/{prefix}/__jkbench__/{verb}",
            keep_alive=False))
        if verb == "dump":
            spans += [tuple(span) for span in json.loads(body)]
    return spans


class _StubSocket:
    """A canned response with no kernel behind it: what is left is the
    generator's own cost per page.  Hangs up after ``pages`` pages."""

    def __init__(self, response, pages):
        self.response = response
        self.left = pages

    def sendall(self, data):
        pass

    def recv_into(self, view):
        self.left -= 1
        if self.left < 0:
            return 0
        view[:len(self.response)] = self.response
        return len(self.response)


def _client_self_us(scripts, timer):
    """Per-page cost of the closed-loop generator itself, on a 1000-byte
    dynamic page of the script."""
    entry = next(e for e in scripts[0]
                 if e[0] == script.DYNAMIC and e[3] == 1000)
    key, size = entry[1].split(b" ", 2)[1].decode("ascii").split("/")[3:5]
    body = script.echo_body(key, int(size))
    response = (b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n"
                b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                % len(body)) + body
    pages = 1000
    return timer.per_call_us(
        lambda: httpclient.closed_loop(
            _StubSocket(response, pages), [entry], 0, _FAR, [], [], [])
    ) / pages


def _jk_over_native(port, seconds, reasons, calibrator):
    """Table 5's shape: servlet-static beside native documents, in
    interleaved segments so both see the same machine mood.  Returns
    the median ratio of pages/s and the native page's median latency."""
    columns = {"native": _Clients(port, [script.native_script()]
                                  * _CONNECTIONS),
               "servlet": _Clients(port, [script.servlet_static_script()]
                                   * _CONNECTIONS)}
    ratios, speeds = [], [calibrator.speed()]
    for pair in range(3):
        order = ["native", "servlet"] if pair % 2 == 0 else ["servlet",
                                                              "native"]
        rate = {name: columns[name].run_for(seconds) for name in order}
        ratios.append(rate["servlet"] / rate["native"])
        speeds.append(calibrator.speed())
    native_latencies = [latency
                        for _, latencies, _ in columns["native"].streams
                        for latency in latencies]
    for clients in columns.values():
        reasons += clients.reasons()
        clients.close()
    return (statistics.median(ratios),
            statistics.median(native_latencies) / 1e3
            * statistics.mean(speeds))


def _traced(kind, shape, child, scripts, out_dir, info, calibrator):
    port = child.port
    segment_s = shape.segment_s
    reasons = []
    layer = {}

    warm = _Clients(port, scripts)
    warm.run_for(shape.warmup_s)
    warm.close()
    reasons += warm.reasons()
    stats_before = child.ask("stats")["stats"]

    if kind == "pages_inproc":
        (layer["web.jkweb.jk_over_native"],
         layer["web.httpd.native_page_us"]) = _jk_over_native(
            port, segment_s / 2, reasons, calibrator)

    # One connection, untraced and traced segments interleaved: one
    # operation at a time, so spans nest by containment.
    single = scripts[0]
    untraced, traced = _Clients(port, [single]), _Clients(port, [single])
    spans = []
    untraced_rate, traced_rate, speeds = [], [], [calibrator.speed()]
    for _ in range(3):
        untraced_rate.append(untraced.run_for(segment_s))
        _servlet_trace(port, kind, "on")
        child.ask("trace_on")
        traced_rate.append(traced.run_for(segment_s, spans))
        speeds.append(calibrator.speed())
        child.ask("trace_off")
        spans += [tuple(span) for span in child.ask("spans")["spans"]]
        spans += _servlet_trace(port, kind, "dump")
        _servlet_trace(port, kind, "off")
    by_class = {}
    for index, latency in enumerate(untraced.streams[0][1]):
        by_class.setdefault(single[index % len(single)][0],
                            []).append(latency)
    for clients in (untraced, traced):
        reasons += clients.reasons()
        clients.close()

    records = trace.nest(spans)
    own = trace.self_times(records)
    trace.write_jsonl(out_dir / f"trace-{kind}.jsonl", records,
                      limit_ops=5000)
    total, count, duration = {}, {}, {}
    for record, self_ns in zip(records, own):
        name = record["name"]
        total[name] = total.get(name, 0) + self_ns
        count[name] = count.get(name, 0) + 1
        duration[name] = (duration.get(name, 0)
                          + record["end_ns"] - record["start_ns"])
    info["span_counts"] = count

    # span times, like every other time, at reference host speed
    to_us = statistics.mean(speeds) / 1e3

    def mean_self(name):
        return total.get(name, 0) / max(count.get(name, 0), 1) * to_us

    pages = max(count.get("loadgen.page", 0), 1)
    page_us = duration.get("loadgen.page", 0) / pages * to_us
    handle_us = duration.get("web.isapi.handle", 0) / pages * to_us
    layer["web.httpd.reactor_self_us"] = page_us - handle_us
    layer["web.isapi.handle_self_us"] = mean_self("web.isapi.handle")
    layer["web.jkweb.route_self_us"] = mean_self("web.jkweb.route")
    layer["core.stubs.servlet_crossing_self_us"] = mean_self(
        "core.stubs.crossing")
    layer["ipc.lrmi.gateway_self_us"] = mean_self("ipc.lrmi.gateway")
    streamed = count.get("ipc.lrmi.call_streamed", 0)
    marshalled = count.get("ipc.lrmi.call_marshalled", 0)
    if streamed + marshalled:
        layer["web.streaming.streamed_share"] = (
            streamed / (streamed + marshalled))
    for cls, latencies in by_class.items():
        layer[f"web.jkweb.{PAGE_CLASSES[cls]}_page_us"] = (
            statistics.median(latencies) * to_us)

    layer.update(child.ask("probe")["values"])
    layer["loadgen.client_self_us"] = _client_self_us(
        scripts, Timer(shape.smoke))
    layer["trace.overhead_share"] = 1 - (statistics.median(traced_rate)
                                         / statistics.median(untraced_rate))
    covered = (handle_us + layer["web.http.parse_us"]
               + layer["web.http.format_us"]
               + layer["loadgen.client_self_us"])
    layer["trace.unattributed_share"] = max(0.0, 1 - covered / page_us)

    stats_after = child.ask("stats")["stats"]
    hits = stats_after["cache_hits"] - stats_before["cache_hits"]
    misses = stats_after["cache_misses"] - stats_before["cache_misses"]
    if hits + misses:
        layer["web.httpd.cache_hit_share"] = hits / (hits + misses)
    layer["web.httpd.pool_rejected"] = (
        stats_after["pool"]["rejected"] - stats_before["pool"]["rejected"])
    layer["ipc.lrmi.redials"] = stats_after["redials"]
    return {"values": {name: {"value": value}
                       for name, value in layer.items()},
            "attempted": pages, "failed": len(reasons),
            "failures": sorted(set(reasons))}
