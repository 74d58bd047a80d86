"""How fast is this host right now?

The development and driver hosts are small shared VMs whose speed drops
by 10-40 % for anything from a quarter of a second to minutes at a time
(measured: a fixed spin loop pinned to one CPU, no steal time reported,
so it is slower execution — noisy neighbours — not lost time slices).
Left alone that is a 15-25 % run-to-run spread on every CPU-bound metric,
wider than any bound worth having.

So the closed-loop and call workloads stop between measurement windows
and run this fixed calibration loop on the same CPU; each window's
numbers are then reported *at reference host speed*: throughput divided,
times multiplied, by the speed measured just before and after it.  Under
synthetic neighbour load on the sibling CPU this took the spread of 12 s
medians from 12 % to 2.5 %.

The loop is plain Python over the standard library — small-object
allocation, attribute and dict traffic, method calls, and a strided
walk over a list too big for the cache — so it slows down the way the
interpreter-bound system does, and no change to the system can move it.
The raw numbers are kept in the run file.
"""

from __future__ import annotations

import math
import os
import signal
import time
from time import perf_counter_ns, thread_time as now

#: Iterations per second of the two loops on the development host (2
#: vCPUs, Python 3.11) when nothing else disturbs it: the anchor that
#: makes "reference host speed" mean something.  Only ratios between
#: runs matter; on another class of host every metric scales alike.
REFERENCE = (9500.0, 14400.0)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def shifted(self, x):
        return self.a + x


def _objects():
    table, out = {}, []
    for i in range(300):
        point = _Point(i, [i, i + 1])
        table[i & 63] = point
        out.append(point.shifted(i))
        other = table.get((i * 7) & 63)
        if other is not None:
            out.append(len(other.b))
    return out


def _rate(loop, seconds):
    # thread CPU time, not wall time: what is measured is how fast this
    # CPU executes, and being preempted must not read as slowness
    started, count = now(), 0
    while now() - started < seconds:
        loop()
        count += 1
    return count / (now() - started)


class Calibrator:
    """Owns the 200 000-element list the memory loop walks, so that a
    process which never calibrates (the system under test, in an
    untraced run) does not carry it in its resident set."""

    def __init__(self):
        self._big = list(range(200_000))

    def _memory(self):
        big, total = self._big, 0
        for index in range(0, len(big), 97):
            total += big[index]
        return total

    def speed(self, seconds=0.025):
        """Host speed relative to the reference (1.0 = reference), from
        ``2 * seconds`` of CPU time on the calling thread's CPU."""
        objects = _rate(_objects, seconds) / REFERENCE[0]
        memory = _rate(self._memory, seconds) / REFERENCE[1]
        return math.sqrt(objects * memory)


class Sampler:
    """A forked helper pinned to ``cpu`` that samples that CPU's speed
    in short bursts while something else is being measured there: the
    open loop cannot park its generator, and a calibrating thread in
    the generator's own process would hold its interpreter lock.  The
    bursts are timed in CPU time, so being preempted by the system under
    test does not read as slowness; they cost it about 4 % of the CPU.
    """

    def __init__(self, cpu, interval=0.25, burst=0.005):
        read_end, write_end = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(read_end)
                os.sched_setaffinity(0, {cpu})
                calibrator = Calibrator()
                with os.fdopen(write_end, "w") as out:
                    while True:
                        out.write(f"{perf_counter_ns()} "
                                  f"{calibrator.speed(burst)}\n")
                        out.flush()
                        time.sleep(interval)
            finally:
                os._exit(0)
        os.close(write_end)
        self._samples = os.fdopen(read_end)

    def stop(self):
        """Ends the helper; returns its ``(monotonic_ns, speed)`` samples."""
        os.kill(self.pid, signal.SIGTERM)
        os.waitpid(self.pid, 0)
        with self._samples as lines:
            return [(int(at), float(speed))
                    for at, speed in (line.split() for line in lines)]
