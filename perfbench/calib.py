"""Calibration kernel and the interleaved timer that cancels host speed.

On a small shared host the CPU speed moves by tens of percent within a
second, so wall time alone cannot compare two commits. The timer below runs
a fixed calibration kernel (no tsm code) in short slices *during* the timed
call, from a SIGALRM handler, and expresses the call's time in units of the
kernel: every stretch of workload between two slices is divided by the
median duration of the slices around it. Multiplying by the nominal slice
duration (perfbench/host.json) turns that back into seconds on a host whose
slice takes the nominal time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SLICE_INTERVAL_S = 0.02  # workload time between calibration slices
KERNEL_ROUNDS = 5        # one slice is about 1.6 ms on a 2-vCPU cloud host
WARM_ROUNDS = 2          # untimed rounds before each slice
EDGE_SLICES = 2          # slices run before and after the call
SMOOTH = 3               # slices on each side of a stretch that scale it

_GRID = np.linspace(1e-6, 1.0 - 1e-6, 6144)


class _Cell:
    __slots__ = ("key", "value", "tags")

    def __init__(self, key, value, tags):
        self.key = key
        self.value = value
        self.tags = tags


def kernel(rounds: int = KERNEL_ROUNDS) -> float:
    """Interpreter-bound object churn plus numpy log/log1p, like tsm's mix."""
    acc = 0.0
    for r in range(rounds):
        cells = [_Cell(i, i * 0.5, {"round": r}) for i in range(400)]
        acc += sum(c.value for c in cells if c.key & 1)
        acc += float((np.log(_GRID * (1.0 + r)) + np.log1p(-_GRID)).sum())
    return acc


class CalibratedTimer:
    """Times calls in calibration-kernel units, with slices interleaved.

    `now()` is a clock that excludes the time spent in slices, so spans
    recorded by the tracer measure only workload code.
    """

    def __init__(self, nominal_slice_s: float, interval_s: float = SLICE_INTERVAL_S):
        self.nominal_slice_s = nominal_slice_s
        self.interval_s = interval_s
        self.paused_s = 0.0
        self.slice_s: list[float] = []  # every slice duration, for calib_ms
        self._slices: list[tuple[float, float, float]] = []  # warm-up start, start, end

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def _slice(self, *_signal_args) -> None:
        # The untimed warm-up run refills the caches the workload evicted,
        # so the timed run measures the host, not the workload's footprint.
        warm_start = time.perf_counter()
        kernel(WARM_ROUNDS)
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._slices.append((warm_start, start, end))
        self.paused_s += end - warm_start

    def measure(self, fn):
        """Run fn(); return (result, raw_s, calibrated_s).

        raw_s is the wall time of fn alone, slices and their warm-up
        excluded; calibrated_s scales each stretch of it by nominal / local
        slice duration.
        """
        self._slices = []
        for _ in range(EDGE_SLICES):
            self._slice()
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        fn_start = time.perf_counter()
        try:
            result = fn()
        finally:
            fn_end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(EDGE_SLICES):
            self._slice()
        durations = [end - start for _, start, end in self._slices]
        # Stretch i runs from slice i to slice i + 1. The first stretch
        # starts with fn and the last ends with it; the stretches between
        # the back-to-back edge slices hold no workload.
        last = len(self._slices) - EDGE_SLICES
        raw = units = 0.0
        for i in range(EDGE_SLICES - 1, last):
            begin = fn_start if i == EDGE_SLICES - 1 else self._slices[i][2]
            stop = fn_end if i + 1 == last else self._slices[i + 1][0]
            gap = max(0.0, stop - begin)
            # A median over the slices around the gap, not the two that
            # touch it: one slice stretched by preemption would otherwise
            # shrink the weight of its neighbouring stretch of workload.
            local = statistics.median(durations[max(0, i - SMOOTH + 1):i + 1 + SMOOTH])
            raw += gap
            units += gap / local
        self.slice_s.extend(durations)
        return result, raw, units * self.nominal_slice_s


def median_slice_s(samples: int) -> float:
    """Median duration of `samples` back-to-back slices, after one warm-up."""
    kernel()
    durations = []
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)
