"""``calls_hosted`` and ``calls_vm``: no sockets, one thread making
cross-domain calls, the whole process on one CPU.

A latency sample is one batch of 64 same-class calls divided by 64: a
0.85 µs call cannot be timed singly without the clock dominating.
Every return value is checked inside the batch.
"""

from __future__ import annotations

import os
import statistics

from . import harness, proc, script, trace
from .calibrate import Calibrator
from .script import BATCH
from .timing import Timer


class _Driver:
    """The batch script (cycled), driven on the calling thread one
    interval at a time; position and sample stream persist."""

    def __init__(self, lines, batches):
        self.lines = lines
        self.batches = batches
        self.position = 0
        self.ends, self.latencies, self.failures = [], [], []

    def run(self, deadline_ns, spans=None):
        lines, batches, size = self.lines, self.batches, len(self.lines)
        ends, latencies = self.ends, self.latencies
        while True:
            name, a, b, c = lines[self.position % size]
            started = harness.now_ns()
            if started >= deadline_ns:
                return
            wrong = batches[name](a, b, c)
            finished = harness.now_ns()
            ends.append(finished)
            latencies.append((finished - started) / BATCH)
            if spans is not None:
                spans.append(("loadgen.batch", started, finished))
            if wrong:
                self.failures.append(
                    (len(ends) - 1, f"{name}: {wrong} wrong results"))
            self.position += 1

    def run_for(self, seconds, spans=None):
        """One interval; returns calls per second over it."""
        before, started = len(self.ends), harness.now_ns()
        self.run(started + int(seconds * 1e9), spans)
        return ((len(self.ends) - before) * BATCH
                / ((harness.now_ns() - started) / 1e9))

    def reasons(self):
        return sorted({reason for _, reason in self.failures})


def run(name, seed, shape, traced, out_dir):
    if name == "calls_hosted":
        from . import hosted as world
        mix = script.HOSTED_MIX
    else:
        from . import guest as world
        mix = script.VM_MIX
    lines = script.calls_script(seed, mix, name)
    cpu, _ = proc.cpus()
    proc.pin(cpu)
    calibrator = Calibrator()
    built, setup_s = harness.repeated_setup(
        3 * shape.setups, lambda: world.World(seed), world.World.close,
        calibrator)
    info = {"placement": {"sut_cpu": cpu, "generator_cpu": cpu},
            "script": script.digest(lines), "unresolved": []}
    pids = [os.getpid()]
    harness.freeze_inputs()
    try:
        if traced:
            result = _traced(name, shape, built, lines, out_dir)
        else:
            driver = _Driver(lines, built.batches)
            driver.run_for(shape.warmup_s)
            windows = harness.measure(shape, driver.run, pids, calibrator)
            values, attempted, failed = harness.reduce_windows(
                windows,
                [(driver.ends, driver.latencies, driver.failures)],
                info, BATCH)
            values["peak_rss_mb"] = {"value": proc.peak_rss_mib(pids)}
            values["setup_s"] = {"value": setup_s}
            result = {"values": values, "attempted": attempted,
                      "failed": failed, "failures": driver.reasons()}
    finally:
        built.close()
    result["info"] = info
    return result


def _traced(name, shape, built, lines, out_dir):
    recorder = trace.Recorder()
    recorder.enabled = True
    plain = _Driver(lines, built.batches)
    spanned = _Driver(lines, {cls: recorder.wrap(built.layers[cls], batch)
                              for cls, batch in built.batches.items()})
    plain.run_for(shape.warmup_s)
    untraced_rate, traced_rate = [], []
    for _ in range(3):
        untraced_rate.append(plain.run_for(shape.segment_s))
        traced_rate.append(spanned.run_for(shape.segment_s, recorder.spans))
    reasons = plain.reasons() + spanned.reasons()
    records = trace.nest(recorder.drain())
    trace.write_jsonl(out_dir / f"trace-{name}.jsonl", records,
                      limit_ops=5000)
    layer = built.probe(Timer(shape.smoke))
    layer["trace.overhead_share"] = 1 - (statistics.median(traced_rate)
                                         / statistics.median(untraced_rate))
    return {"values": {key: {"value": value}
                       for key, value in layer.items()},
            "attempted": len(spanned.ends) * BATCH,
            "failed": len(reasons) * BATCH, "failures": reasons}
