"""Host-speed sampling: wall time rescaled to a fixed reference speed.

The benchmark shares a few cores of a host whose speed for interpreted
code swings by up to 2x within seconds (other tenants, frequency
changes).  Raw wall times of identical work then spread more across
runs than any regression bound worth having.  So every timing the
benchmark reports is *host-adjusted*: while a run measures, a timer
interrupts the main thread every ``INTERVAL_S`` and times :func:`probe`,
a fixed piece of interpreted and numpy work that does not touch the
program.  An interval's adjusted duration is its wall time, minus the
probes that ran inside it, times ``NOMINAL_PROBE_S`` over the mean
probe time in it: the seconds the interval would have taken on a host
where the probe takes ``NOMINAL_PROBE_S``.  A faster program still
reads faster; a slower host does not read as a slower program.

The probe is much shorter than the interpreter's thread switch
interval, so it seldom gives up the GIL once it has it; a probe that
did (or was preempted) reads several times longer than host swings
explain and is left out of the speed estimate.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["HostSpeed", "probe"]

_now = time.perf_counter
_X = np.arange(1.0, 31.0)
_Y = 0.9 - 0.5 * _X ** -0.7

#: Probe time the adjusted seconds are expressed at (about the probe's
#: time on an idle 2-vCPU x86_64 VM).
NOMINAL_PROBE_S = 5.0e-4
INTERVAL_S = 0.05
#: An interval holding fewer probes borrows the nearest ones around it.
MIN_PROBES = 5
#: A probe longer than this many times the run's median was stopped
#: part-way (the GIL handed to another thread, a preemption) and says
#: nothing about host speed; host speed itself swings about 2x.
OUTLIER = 3.0


def probe() -> float:
    """Fixed work in the program's two modes: an interpreted loop of
    dict, list, tuple and float operations, then gradient steps of a
    three-parameter curve fit on 30-point numpy arrays (small-array
    numpy calls, as in curve prediction).  The loop alone tracks
    simulator time best and the fit alone prediction time best; together
    they track both within a few per cent."""
    table = {}
    acc = 0.0
    items = []
    for i in range(600):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append((key, acc))
        acc += table[key] / (1 + len(items) % 13)
        if len(items) > 200:
            items.clear()
    params = np.array([0.5, 0.1, 0.3])
    for _ in range(15):
        decay = _X ** -params[2]
        residual = params[0] - params[1] * decay - _Y
        jacobian = np.stack([np.ones_like(_X), -decay, params[1] * np.log(_X) * decay], axis=1)
        gradient = jacobian.T @ residual
        acc += float(residual @ residual)
        params = params - 1e-3 * gradient
    return acc


class HostSpeed:
    """Samples :func:`probe` from a SIGALRM timer on the main thread and
    converts wall-clock intervals into host-adjusted seconds."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        started = _now()
        probe()
        self.durations.append(_now() - started)
        self.starts.append(started)

    def _window(self, start: float, end: float) -> Tuple[int, int]:
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        while high - low < MIN_PROBES and (low > 0 or high < len(self.starts)):
            if low > 0:
                low -= 1
            if high < len(self.starts) and high - low < MIN_PROBES:
                high += 1
        return low, high

    def seconds(self, start: float, end: float) -> float:
        """Host-adjusted seconds of the wall interval ``[start, end)``."""
        low, high = self._window(start, end)
        if high <= low:
            raise RuntimeError("no host-speed probes were taken")
        inside = [
            duration
            for probe_start, duration in zip(self.starts[low:high], self.durations[low:high])
            if start <= probe_start < end
        ]
        busy = sum(inside)
        limit = OUTLIER * statistics.median(self.durations)
        speed = [d for d in self.durations[low:high] if d <= limit]
        return (end - start - busy) * NOMINAL_PROBE_S / statistics.fmean(speed)

    def probe_ms(self) -> Optional[float]:
        """Median probe time over the run, in milliseconds."""
        return statistics.median(self.durations) * 1e3 if self.durations else None
