"""Reference-speed clock: timings that do not move with the shared host's load.

The benchmark runs on virtual CPUs that share their physical cores.  The same
pure-Python work runs up to 1.8x slower while the host is busy, in phases of
seconds to minutes, and process CPU time slows with it.  A run-level
calibration between passes cannot follow phases that short, so this clock
samples the machine's speed *during* the timed work instead:

- a SIGALRM timer interrupts the process every ``PERIOD_S`` and runs a small
  fixed exact-arithmetic kernel (Fraction elimination, the same kind of work
  the library does), recording when it started and ended;
- the kernel's durations, median-smoothed over ``WINDOW`` neighbouring
  samples, give the speed of each stretch of work between two samples;
- ``at(t)`` maps a raw ``time.monotonic()`` reading to *reference seconds*:
  the work done since the first sample, each stretch scaled by
  ``REF_KERNEL_S / kernel duration``.  The kernels' own time is left out.

A reference second is the time the work takes on a core that runs the kernel
in ``REF_KERNEL_S``, about the speed of this benchmark's 2-vCPU Xeon VM when
its host is quiet.  Timings in reference seconds stay proportional to the
work a change saves or adds, which is what the benchmark compares.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
WINDOW = 7
REF_KERNEL_S = 0.0004

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(6)]
           for i in range(5)]


def kernel() -> list:
    """Reduced row echelon form of a fixed 5 x 6 rational matrix."""
    rows = [r[:] for r in _MATRIX]
    piv = 0
    for c in range(len(rows[0])):
        for r in range(piv, len(rows)):
            if rows[r][c]:
                rows[piv], rows[r] = rows[r], rows[piv]
                break
        else:
            continue
        inv = 1 / rows[piv][c]
        rows[piv] = [x * inv for x in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
        piv += 1
    return rows


class SpeedClock:
    """Samples the machine's speed while running; converts raw times after ``stop``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._scale: list[float] = []
        self._cum: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        durations = [b - a for a, b in zip(self.starts, self.ends)]
        h = WINDOW // 2
        self._scale = [REF_KERNEL_S / statistics.median(durations[max(0, i - h):i + h + 1])
                       for i in range(len(durations))]
        self._cum = [0.0]
        for i in range(1, len(durations)):
            gap = self.starts[i] - self.ends[i - 1]
            self._cum.append(self._cum[-1] + gap * self._scale[i - 1])

    def at(self, t: float) -> float:
        """Reference seconds of work from the first sample to raw monotonic time ``t``."""
        i = bisect.bisect_right(self.ends, t) - 1
        if i < 0:  # before the first sample ended: extrapolate at its speed
            return min(0.0, t - self.starts[0]) * self._scale[0]
        if i + 1 < len(self.starts):
            t = min(t, self.starts[i + 1])
        return self._cum[i] + (t - self.ends[i]) * self._scale[i]

    def span(self, a: float, b: float) -> float:
        return self.at(b) - self.at(a)

    def slowdown(self) -> float:
        """Median kernel duration over ``REF_KERNEL_S``: how loaded the host was."""
        return statistics.median(1.0 / s for s in self._scale)
