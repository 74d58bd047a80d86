"""``overload_isolation``: an open loop.  A steady tenant beside an abuser
that offers several times the pool's capacity; the operations are the
**steady tenant's** requests only, each with a fixed latency limit — a
steady request that is shed, errors, returns a wrong body or completes
later than the limit has failed.  The abuser is background load whose
outcomes are layer metrics.

The system under test sits on one CPU and the generator on another, so
arrivals stay on schedule; latency runs from the instant a request was
*due*, and how late the generator ran is reported with the result.
"""

from __future__ import annotations

import statistics
import time

from . import harness, httpclient, proc, script, trace
from .calibrate import Calibrator, Sampler
from .script import ABUSER, STEADY
from .stats import aggregate, percentile

#: Arrivals per second.  Steady is sized so that a window holds the
#: thousand samples a p99 needs; the abuser asks for about 5.6 workers'
#: worth of sleep from a pool of two.
RATES = {STEADY: 350, ABUSER: 1200}
LIMIT_NS = 100_000_000
#: A window the generator itself ran late in says nothing about the
#: server: discarded and re-run once, unresolved if it recurs.  Late
#: means a lateness p99 over 5 ms, or one stall long enough (50 ms) to
#: pile arrivals up against the outstanding-request ceiling.
LATE_P99_US, LATE_MAX_US = 5000, 50_000


class _Phase:
    """One generator run over a schedule of laid-end-to-end segments,
    with the tree's CPU read at every segment boundary and the speed of
    the server's CPU sampled throughout (``calibrate.Sampler``)."""

    def __init__(self, port, seed, segments, pids, sut_cpu,
                 at_boundary=None):
        self.schedule = script.arrivals(seed, segments, RATES)
        self.loop = httpclient.OpenLoop(port, self.schedule)
        self.edges = [0.0]
        for duration, _ in segments:
            self.edges.append(self.edges[-1] + duration)
        harness.freeze_inputs()
        sampler = Sampler(sut_cpu)  # forked before any thread exists
        self.origin_ns = harness.now_ns() + 50_000_000
        thread = harness.start_thread(self.loop.run, self.origin_ns)
        self.cpu = []
        for number, edge in enumerate(self.edges):
            time.sleep(max(
                0.0,
                (self.origin_ns + edge * 1e9 - harness.now_ns()) / 1e9))
            if at_boundary is not None:
                at_boundary(number)
            self.cpu.append(proc.cpu_us(pids))
        thread.join(60)
        self.speeds = [((at - self.origin_ns) / 1e9, speed)
                       for at, speed in sampler.stop()]

    def speed(self, number):
        """Mean host speed sampled during one segment."""
        lo, hi = self.edges[number], self.edges[number + 1]
        inside = [speed for at, speed in self.speeds if lo <= at < hi]
        return statistics.mean(inside) if inside else 1.0

    def segment(self, number):
        """Outcomes and generator lateness of the arrivals due in one
        segment: ``({tenant: [(latency_ns, kind)]}, [late_ns])``."""
        lo, hi = self.edges[number], self.edges[number + 1]
        by_tenant = {STEADY: [], ABUSER: []}
        for index, latency, kind in self.loop.outcomes:
            due, tenant = self.schedule[index][:2]
            if lo <= due < hi:
                by_tenant[tenant].append((latency, kind))
        late = [late_ns for index, late_ns in self.loop.late
                if lo <= self.schedule[index][0] < hi]
        return by_tenant, late


def _steady(outcomes):
    """``(ok latencies sorted, failed count, attempted)`` of one window."""
    good = sorted(latency for latency, kind in outcomes
                  if kind == "ok" and latency <= LIMIT_NS)
    return good, len(outcomes) - len(good), len(outcomes)


def _late_p99_us(late):
    return percentile(sorted(late), 0.99) / 1e3 if late else 0.0


def _ran_late(late):
    return bool(late) and (_late_p99_us(late) > LATE_P99_US
                           or max(late) / 1e3 > LATE_MAX_US)


def _share(outcomes, kind):
    return (sum(1 for _, k in outcomes if k == kind) / len(outcomes)
            if outcomes else 0.0)


def run(seed, shape, traced, out_dir):
    sut_cpu, generator_cpu = proc.cpus()
    proc.pin(sut_cpu)  # the child tree inherits the server's CPU
    before = proc.leak_snapshot()
    child, setup_s, pids = harness.spawn_measured(
        "overload_isolation", seed, traced, shape, Calibrator())
    info = {"placement": {"sut_cpu": sut_cpu,
                          "generator_cpu": generator_cpu},
            "unresolved": []}
    proc.pin(generator_cpu)
    try:
        if traced:
            result = _traced(seed, shape, child, sut_cpu, out_dir)
        else:
            result = _measured(seed, shape, child, sut_cpu, info)
            result["values"]["setup_s"] = {"value": setup_s}
    finally:
        child.stop()
    result["failures"] += proc.leaks(before, pids)
    result["info"] = info
    return result


def _window(phase, number):
    """One segment of a phase as a measurement window."""
    by_tenant, late = phase.segment(number)
    return {"steady": by_tenant[STEADY], "abuser": by_tenant[ABUSER],
            "late": late, "speed": phase.speed(number),
            "cpu_us": phase.cpu[number + 1] - phase.cpu[number]}


def _measured(seed, shape, child, sut_cpu, info):
    window_s = shape.window_s
    phase = _Phase(child.port, seed,
                   [(shape.warmup_s, True)]
                   + [(window_s, True)] * shape.windows,
                   child.pids, sut_cpu)
    windows = [_window(phase, k + 1) for k in range(shape.windows)]
    # The validity rule: what the generator ran late in is re-run once;
    # a window it ran late in twice says nothing about the server and
    # is left out (and reported), unless that would leave none.
    invalid = [k for k, window in enumerate(windows)
               if _ran_late(window["late"])]
    if invalid:
        redo = _Phase(child.port, seed + 1,
                      [(1.0, True)] + [(window_s, True)] * len(invalid),
                      child.pids, sut_cpu)
        for slot, k in enumerate(invalid):
            windows[k] = _window(redo, slot + 1)
        twice = [k for k in invalid if _ran_late(windows[k]["late"])]
        info["unresolved"] += [
            f"window {k}: generator late twice "
            f"(p99 {_late_p99_us(windows[k]['late']):.0f} us)"
            for k in twice]
        if len(twice) < len(windows):
            windows = [w for k, w in enumerate(windows) if k not in twice]

    throughput, p50, p99, cpu_per_op, raw_cpu = [], [], [], [], []
    attempted = failed = 0
    kinds = {}
    for k, window in enumerate(windows):
        good, bad, total = _steady(window["steady"])
        attempted += total
        failed += bad
        for latency, kind in window["steady"]:
            if kind == "ok" and latency > LIMIT_NS:
                kind = "over the latency limit"
            kinds[kind] = kinds.get(kind, 0) + 1
        if len(good) < harness.P99_SAMPLES:
            info["unresolved"].append(
                f"window {k}: {len(good)} samples, p99 needs "
                f"{harness.P99_SAMPLES}")
        throughput.append(len(good) / window_s)
        p50.append(percentile(good, 0.50) / 1e3 if good else 0.0)
        p99.append(percentile(good, 0.99) / 1e3 if good else 0.0)
        raw_cpu.append(window["cpu_us"] / max(len(good), 1))
        # The open loop cannot stop for calibration and its latency is
        # sleep and queueing, not CPU speed: only CPU per request is
        # brought to reference host speed.
        cpu_per_op.append(raw_cpu[-1] * window["speed"])
    info["steady_outcomes"] = kinds
    info["abuser_shed_share"] = statistics.mean(
        _share(window["abuser"], "shed") for window in windows)
    info["late_p99_us"] = _late_p99_us(
        [late for window in windows for late in window["late"]])
    info["host_speed"] = statistics.median(w["speed"] for w in windows)
    info["uncorrected"] = {"cpu_us_per_op": statistics.median(raw_cpu)}
    malformed = sum(kind == "malformed" for window in windows
                    for _, kind in window["steady"] + window["abuser"])
    failures = [f"steady: {count} {kind}" for kind, count in kinds.items()
                if kind != "ok"]
    if malformed:
        failures.append(f"{malformed} 503s without an integer Retry-After")
    return {
        "values": {
            "throughput_ops_s": aggregate(throughput),
            "latency_p50_us": aggregate(p50),
            "latency_p99_us": aggregate(p99),
            "cpu_us_per_op": aggregate(cpu_per_op),
            "peak_rss_mb": {"value": proc.peak_rss_mib(child.pids)},
        },
        "attempted": attempted, "failed": failed, "failures": failures,
    }


def _traced(seed, shape, child, sut_cpu, out_dir):
    """Steady alone, then the abuser joins; the last loaded segment is
    traced (one tagged span per request on each side)."""
    part = 3 * shape.segment_s
    stats_before = child.ask("stats")["stats"]

    def at_boundary(number):
        if number == 3:
            child.ask("trace_on")
        elif number == 4:
            child.ask("trace_off")

    phase = _Phase(child.port, seed,
                   [(part, False), (part / 2, True), (part, True),
                    (part, True)],
                   child.pids, sut_cpu, at_boundary)
    alone, _ = phase.segment(0)
    loaded, late = phase.segment(2)
    traced_segment, traced_late = phase.segment(3)
    alone_good, alone_bad, _ = _steady(alone[STEADY])
    loaded_good, loaded_bad, loaded_total = _steady(loaded[STEADY])
    traced_good, traced_bad, traced_total = _steady(traced_segment[STEADY])

    # Spans: the generator's from due to done, the server's handler span,
    # joined by the arrival number that rides the path.
    lo, hi = phase.edges[3], phase.edges[4]
    roots = {}
    for index, latency, kind in phase.loop.outcomes:
        due, tenant = phase.schedule[index][:2]
        if lo <= due < hi and kind != "not_issued":
            due_ns = phase.origin_ns + int(due * 1e9)
            roots[index] = (f"loadgen.request.{script.TENANTS[tenant]}",
                            due_ns, due_ns + latency)
    records = []
    for name, start, end, number in child.ask("spans")["spans"]:
        if number in roots:
            root = roots.pop(number)
            records.append({"name": root[0], "op_id": number, "parent": None,
                            "start_ns": root[1], "end_ns": root[2]})
            records.append({"name": name, "op_id": number,
                            "parent": len(records) - 1,
                            "start_ns": start, "end_ns": end})
    trace.write_jsonl(out_dir / "trace-overload_isolation.jsonl", records)

    stats_after = child.ask("stats")["stats"]
    layer = child.ask("probe")["values"]
    alone_p99 = percentile(alone_good, 0.99) / 1e3
    loaded_p99 = percentile(loaded_good, 0.99) / 1e3
    untraced_cpu = (phase.cpu[3] - phase.cpu[2]) / max(len(loaded_good), 1)
    traced_cpu = (phase.cpu[4] - phase.cpu[3]) / max(len(traced_good), 1)
    layer.update({
        "web.control.abuser_shed_share": _share(loaded[ABUSER], "shed"),
        "web.control.steady_shed_share": _share(loaded[STEADY], "shed"),
        "web.control.steady_alone_p99_us": alone_p99,
        "web.control.isolation_p99_ratio": loaded_p99 / alone_p99,
        "web.httpd.pool_rejected": (stats_after["pool"]["rejected"]
                                    - stats_before["pool"]["rejected"]),
        "loadgen.late_p99_us": _late_p99_us(late + traced_late),
        "loadgen.not_issued": sum(
            kind == "not_issued" for _, _, kind in phase.loop.outcomes),
        # Open loop: the rate is fixed, so tracing shows as CPU per
        # steady request instead of as lost throughput.
        "trace.overhead_share": traced_cpu / untraced_cpu - 1,
    })
    failed = alone_bad + loaded_bad + traced_bad
    return {
        "values": {name: {"value": value} for name, value in layer.items()},
        "attempted": len(alone[STEADY]) + loaded_total + traced_total,
        "failed": failed,
        "failures": [f"steady: {failed} failed"] if failed else [],
    }
