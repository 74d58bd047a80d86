"""What every workload shares: the child process holding the system
under test, the run shape (set-up, warm-up, measurement windows) and
the reduction of raw samples to the end-to-end metrics."""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from time import perf_counter_ns as now_ns

from . import proc, spec
from .stats import aggregate, percentile, samples_needed

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
WARMUP_S = 3.0
P99_SAMPLES = samples_needed(0.99)


class Shape:
    """Durations of one run.

    The measured interval is cut into windows of about ``window_s``:
    each workload's shortest window that still holds the thousand
    samples a p99 needs.  Short windows are what makes the median over
    windows robust on a shared host, whose speed drops by 10-40 % for
    anything from a quarter of a second to a few seconds at a time: a
    slow episode spoils the windows it covers and the median ignores
    them, where four long windows would each average some of it in.
    ``smoke`` shrinks everything so the self-tests finish in seconds
    (and says nothing about speed).
    """

    def __init__(self, seconds, window_s, smoke=False):
        self.smoke = smoke
        self.windows = 4 if smoke else max(4, round(seconds / window_s))
        self.window_s = seconds / self.windows
        self.setups = 1 if smoke else SETUPS
        self.warmup_s = 0.2 if smoke else WARMUP_S
        #: length of one segment of a traced run (they come in series)
        self.segment_s = seconds / 10


class Child:
    """One system-under-test process (see ``sut.py``) and its tree."""

    def __init__(self, kind, seed, traced, corrupt=False, smoke=False):
        self.process = subprocess.Popen(
            [sys.executable, str(spec.HERE / "run.py"), "--sut", kind,
             "--seed", str(seed), "--trace", str(int(traced)),
             "--corrupt", str(int(corrupt))] + ["--smoke"] * smoke,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = self._read()["port"]
        self.pids = proc.tree(self.process.pid)

    def _read(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"system under test exited with {self.process.wait()}")
        return json.loads(line)

    def ask(self, verb):
        self.process.stdin.write(verb + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self):
        """Stop the server and its hosts and wait for the process."""
        try:
            self.ask("stop")
        finally:
            self.process.stdin.close()
            self.process.stdout.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def repeated_setup(count, build, discard, calibrator):
    """Set up ``count`` times, discarding all but the last.  Returns
    ``(built, setup_s)``: the median wall time of ``build()``, each at
    reference host speed."""
    times = []
    after = calibrator.speed()
    for attempt in range(count):
        before, started = after, time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - started
        after = calibrator.speed()
        times.append(elapsed * (before + after) / 2)
        if attempt + 1 < count:
            discard(built)
    return built, statistics.median(times)


def spawn_measured(kind, seed, traced, shape, calibrator, corrupt=False):
    """``(child, setup_s, pids)`` after ``shape.setups`` set-ups; ``pids``
    are those of every tree started, for the leak check at the end."""
    pids = []

    def build():
        child = Child(kind, seed, traced, corrupt, shape.smoke)
        pids.extend(child.pids)
        return child

    child, setup_s = repeated_setup(shape.setups, build, Child.stop,
                                    calibrator)
    return child, setup_s, pids


def measure(shape, run_window, pids, calibrator):
    """The measured interval: ``shape.windows`` windows, the host's
    speed calibrated before and after each (the generators are parked
    meanwhile, so the calibration loop has the CPU the system runs on).

    ``run_window(deadline_ns)`` drives the load until the deadline and
    returns once every generator has stopped.  Returns one record per
    window: its span, the tree's CPU (us) and the host speed.
    """
    window_ns = int(shape.window_s * 1e9)
    windows = []
    after = calibrator.speed()
    for _ in range(shape.windows):
        before, cpu_before, started = after, proc.cpu_us(pids), now_ns()
        run_window(started + window_ns)
        ended, cpu_after = now_ns(), proc.cpu_us(pids)
        after = calibrator.speed()
        windows.append({"start_ns": started, "end_ns": ended,
                        "cpu_us": cpu_after - cpu_before,
                        "speed": (before + after) / 2})
    return windows


def reduce_windows(windows, streams, info, ops_per_sample=1):
    """End-to-end metrics from per-generator sample streams.

    ``streams`` is a list of ``(ends_ns, latencies_ns, failures)`` with
    ``ends_ns`` ascending and ``failures`` a list of ``(sample_index,
    reason)``; a sample stands for ``ops_per_sample``
    operations (a batch of calls).  Rates and percentiles are computed
    per window, brought to reference host speed (see ``calibrate``) and
    reported as the median over windows; the uncorrected medians and
    the host speed go into ``info``.
    """
    throughput, p50, p99, cpu_per_op, speeds = [], [], [], [], []
    attempted = failed = 0
    for k, window in enumerate(windows):
        lo_ns, hi_ns = window["start_ns"], window["end_ns"]
        latencies, done, bad = [], 0, 0
        for ends, lats, failures in streams:
            lo, hi = bisect_left(ends, lo_ns), bisect_left(ends, hi_ns)
            done += (hi - lo) * ops_per_sample
            bad += ops_per_sample * sum(
                1 for index, _ in failures if lo <= index < hi)
            latencies += lats[lo:hi]
        latencies.sort()
        attempted += done
        failed += bad
        good = done - bad
        if len(latencies) < P99_SAMPLES:
            info["unresolved"].append(
                f"window {k}: {len(latencies)} samples, p99 needs "
                f"{P99_SAMPLES}")
        speeds.append(window["speed"])
        throughput.append(good / ((hi_ns - lo_ns) / 1e9))
        p50.append(percentile(latencies, 0.50) / 1e3 if latencies else 0.0)
        p99.append(percentile(latencies, 0.99) / 1e3 if latencies else 0.0)
        cpu_per_op.append(window["cpu_us"] / max(good, 1))
    raw = {"throughput_ops_s": throughput, "latency_p50_us": p50,
           "latency_p99_us": p99, "cpu_us_per_op": cpu_per_op}
    info["host_speed"] = statistics.median(speeds)
    info["uncorrected"] = {name: statistics.median(values)
                           for name, values in raw.items()}
    return {
        name: aggregate(
            [value / speed if name == "throughput_ops_s" else value * speed
             for value, speed in zip(values, speeds)])
        for name, values in raw.items()
    }, attempted, failed


def freeze_inputs():
    """Call once the inputs exist: moves them out of the collector's
    reach, so a full collection during measurement does not walk tens
    of thousands of script tuples (a pause the size of a p99)."""
    gc.collect()
    gc.freeze()


def start_thread(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def scratch_tmpdir():
    """Keep the LRMI socket files inside the checkout when the path is
    short enough for a UNIX socket address (108 bytes)."""
    path = os.path.join(os.getcwd(), ".jkbench_tmp")
    if len(path) + len("/repro-lrmi-0123456789ab.sock") < 100:
        os.makedirs(path, exist_ok=True)
        os.environ["TMPDIR"] = path
