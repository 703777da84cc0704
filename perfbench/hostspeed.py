"""The host's speed, sampled while a workload runs.

The benchmark host is shared: a pure-Python loop there swings between
0.6x and 1.3x of its median time, in stretches from a second to minutes,
and the program's operations swing with it.  So every process samples the
host with a fixed pure-Python probe, run from a SIGALRM handler every
PERIOD_S seconds, and times its work with `clock`, which leaves the probes
out.  Multiplying a time by `factor` rescales it to the reference speed,
at which the probe takes REFERENCE_S: the end-to-end times the benchmark
reports are taken at that speed, the raw ones are printed beside them.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
LOOPS = 10_000
REFERENCE_S = 0.0008  # typical probe time on the reference host (2-core Xeon VM, Python 3.11)


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOPS):
            x += i * i
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the time spent in probes."""
        return time.perf_counter() - self.spent

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """REFERENCE_S over the mean of samples[start:stop]; 1 without samples."""
        samples = self.samples[start:stop]
        return REFERENCE_S * len(samples) / sum(samples) if samples else 1.0
