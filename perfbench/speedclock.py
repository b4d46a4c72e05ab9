"""A clock that runs at a fixed reference speed of the host.

This benchmark runs on a shared host whose speed drifts: a fixed Python
loop takes 16 ms in one second and 25 ms in the next, and stretches of up
to a minute run at the slow speed.  Pipeline wall times follow the same
drift, so plain wall times of one workload spread by 15-30% between runs,
more than any bound a later change could be judged by.

The benchmark therefore times its work on a second clock.  Every
`period` seconds of wall time a SIGALRM handler, running in the measured
process itself, times a fixed calibration loop.  Between two samples the
reference clock advances by the wall time over the local slowdown, the
median of the nearest `SMOOTH` sample times divided by `REFERENCE_S`.
Neither clock counts the samples' own time.  The calibration loop does
not use the program, so a change to the program moves reference times as
it moves wall times; only the host's drift is taken out.  A sample waits
for a long call into C code to return, so such a call is timed at the
speed measured just after it.

The module uses the standard library only, so that importing it does not
import what the benchmark times the import of.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The calibration is integer arithmetic in the interpreter.  It touches
# almost no memory, so the cache state the program leaves behind does not
# change its time once an untimed first pass has brought the interpreter
# loop back into cache (timed after a 240 MB array sweep it reads 5.6%
# slower without that pass, 1.1% with it).  A calibration that read
# scattered memory followed the design-sweep drift a little better but ran
# 2.6 times slower after the pipelines' own accesses than alone, so a
# program change could move it.
WARM_LOOPS = 1000
CAL_LOOPS = 5000
# the calibration's time at the reference speed (2-vCPU Xeon host the
# benchmark was defined on); only a scale, identical for every commit
REFERENCE_S = 4.0e-4
PERIOD_S = 0.1
SMOOTH = 5


def _calibrate(loops: int) -> int:
    s = 0
    for i in range(loops):
        s += i * i % 7
    return s


class SpeedClock:
    """Samples the host's speed from `start()` to `stop()`; afterwards
    `elapsed()` converts perf_counter intervals into reference seconds."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []  # a sample's own time, left out of both clocks
        self.ends: list[float] = []
        self.durations: list[float] = []  # the timed calibration pass
        self._sampling = False
        self._knots: tuple[list[float], list[float]] | None = None

    def _sample(self, signum, frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        _calibrate(WARM_LOOPS)
        t1 = time.perf_counter()
        _calibrate(CAL_LOOPS)
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.durations.append(t2 - t1)
        self._sampling = False

    def start(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.starts:
            raise RuntimeError("the speed clock took no samples")
        half = SMOOTH // 2
        slow = [statistics.median(self.durations[max(0, i - half):i + half + 1]) / REFERENCE_S
                for i in range(len(self.durations))]
        # piecewise-linear map from perf_counter time to reference time;
        # it stands still while a sample runs
        raw, ref = [self.starts[0], self.ends[0]], [0.0, 0.0]
        for i in range(1, len(self.starts)):
            ref.append(ref[-1] + (self.starts[i] - self.ends[i - 1]) * 2 / (slow[i - 1] + slow[i]))
            raw.append(self.starts[i])
            ref.append(ref[-1])
            raw.append(self.ends[i])
        self._knots = (raw, ref)
        self._edge_slow = (slow[0], slow[-1])

    def reference(self, t: float) -> float:
        """Reference time of the perf_counter reading `t`."""
        raw, ref = self._knots
        if t <= raw[0]:
            return (t - raw[0]) / self._edge_slow[0]
        if t >= raw[-1]:
            return ref[-1] + (t - raw[-1]) / self._edge_slow[1]
        i = bisect.bisect_right(raw, t) - 1
        if raw[i + 1] == raw[i]:
            return ref[i]
        return ref[i] + (t - raw[i]) / (raw[i + 1] - raw[i]) * (ref[i + 1] - ref[i])

    def elapsed(self, t0: float, t1: float) -> float:
        """Reference seconds between two perf_counter readings."""
        return self.reference(t1) - self.reference(t0)

    def wall(self, t0: float, t1: float) -> float:
        """Wall seconds between two perf_counter readings, without the samples."""
        inside = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in zip(self.starts, self.ends))
        return t1 - t0 - inside
