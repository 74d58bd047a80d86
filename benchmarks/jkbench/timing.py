"""jkbench's own timer for direct calls into a layer's entry points.
Times are brought to reference host speed like everything else (see
``calibrate``)."""

from __future__ import annotations

import statistics
from time import perf_counter_ns as now_ns

from .calibrate import Calibrator


class Timer:
    """``quick`` (the smoke runs) spends a tenth of the time per probe."""

    def __init__(self, quick=False):
        self.min_time = 0.002 if quick else 0.02
        self.calibration_s = 0.003 if quick else 0.025
        self._calibrator = None  # made on first use, see Calibrator

    def _speed(self):
        if self._calibrator is None:
            self._calibrator = Calibrator()
        return self._calibrator.speed(self.calibration_s)

    def per_call_us(self, fn, rounds=5):
        """Median over ``rounds`` of the mean µs of one ``fn()`` call,
        each round looping long enough for the clock not to matter."""
        budget_ns = self.min_time * 1e9
        loops = 1
        while True:
            start = now_ns()
            for _ in range(loops):
                fn()
            elapsed = now_ns() - start
            if elapsed >= budget_ns / 4 or loops >= 1 << 20:
                break
            loops *= 4
        loops = max(1, int(loops * budget_ns / max(elapsed, 1)))
        samples = []
        speed = self._speed()
        for _ in range(rounds):
            start = now_ns()
            for _ in range(loops):
                fn()
            samples.append((now_ns() - start) / loops / 1e3)
        speed = (speed + self._speed()) / 2
        return statistics.median(samples) * speed

    def paired_difference_us(self, first, second, rounds=5):
        """Median of ``second - first`` over interleaved pairs, floored
        at 0: both sides see the same machine mood moments apart."""
        deltas = [self.per_call_us(second, 1) - self.per_call_us(first, 1)
                  for _ in range(rounds)]
        return max(statistics.median(deltas), 0.0)
