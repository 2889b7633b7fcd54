"""Machine-speed calibration for the timed phases.

On a host shared with other tenants, such as the 2-vCPU machine of the
README's reference figures, speed swings by up to 40 % within seconds: a
fixed pure-Python loop alternates between about 25 and 36 ms per 300k
iterations, in phases of one to twenty seconds.  Raw times of one workload
read 20-45 % apart from one run to the next there.

While a phase runs, a SIGALRM handler times one calibration unit (a fixed
loop that builds tuples, zips and sorts, about 1 ms of CPU) every PERIOD_S
seconds, in the same thread as the program, which costs about 2 % of the
time.  A time is then reported at the reference speed at which the unit
takes REF_UNIT_S: each stretch of the interval is divided by the slowdown
measured near it (the mean unit time of the samples within SMOOTH_S).  A
program change alters the measured time and not the unit, so it moves the
scaled time in proportion.  The raw times stay in the run's result file.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from bisect import bisect_right
from multiprocessing.util import Finalize
from pathlib import Path

CAL_ITERS = 1000
PERIOD_S = 0.05
#: samples within this distance are averaged into the speed at a point
SMOOTH_S = 0.25
REF_UNIT_S = 0.001


def unit() -> float:
    """CPU time of one calibration unit.  CPU time, not wall time, so that a
    unit preempted by the jobs=2 workers still measures the CPU's speed.  The
    collector is off meanwhile: the unit's tuples would otherwise trigger
    collections whose cost depends on the program's heap, not on the CPU."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.thread_time()
        out = []
        for i in range(CAL_ITERS):
            v = (i, i + 1, i % 3)
            out.append(tuple(a * 3 + b for a, b in zip(v, v)))
        sorted(set(out))
        return time.thread_time() - t
    finally:
        if enabled:
            gc.enable()


def burst_scale(n: int = 30, skip: int = 5) -> float:
    """Scale factor from n units timed back to back, for short phases; the
    first units after start-up run slow and are skipped."""
    units = [unit() for _ in range(n)]
    return REF_UNIT_S / statistics.fmean(units[skip:])


class Sampler:
    """Times a calibration unit every PERIOD_S seconds between start() and
    stop(), and scales intervals inside that window to the reference speed.

    With a log path the samples are appended to that file instead, which is
    how the jobs=2 worker processes report theirs (see start_in_worker)."""

    def __init__(self, log: str | None = None) -> None:
        self.times: list[float] = []
        self.units: list[float] = []
        self._fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND) if log else None
        self._mids: list[float] = []
        self._smooth: list[float] = []

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        u = unit()
        if self._fd is None:
            self.times.append(t)
            self.units.append(u)
        else:
            os.write(self._fd, f"{t!r} {u!r}\n".encode())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._finish()

    @classmethod
    def from_logs(cls, paths: list[Path]) -> "Sampler":
        """The merged samples of several processes (one time base:
        perf_counter is the system's monotonic clock)."""
        rows = sorted(
            tuple(map(float, line.split())) for p in paths for line in p.read_text().splitlines()
        )
        merged = cls()
        merged.times = [t for t, _ in rows]
        merged.units = [u for _, u in rows]
        merged._finish()
        return merged

    def _finish(self) -> None:
        if not self.units:  # a phase shorter than one period
            self.times.append(time.perf_counter())
            self.units.append(statistics.fmean(unit() for _ in range(5)))
        self._mids = [(a + b) / 2 for a, b in zip(self.times, self.times[1:])]
        lo = hi = 0
        smooth = []
        for t in self.times:
            while self.times[lo] < t - SMOOTH_S:
                lo += 1
            while hi < len(self.times) and self.times[hi] <= t + SMOOTH_S:
                hi += 1
            smooth.append(statistics.fmean(self.units[lo:hi]))
        self._smooth = smooth

    def ref_duration(self, start: float, end: float) -> float:
        """Integral over [start, end] of REF_UNIT_S / (unit time near the
        point), i.e. the interval's length at the reference speed."""
        k = bisect_right(self._mids, start)
        total, t = 0.0, start
        while t < end:
            stop = min(end, self._mids[k]) if k < len(self._mids) else end
            total += (stop - t) * REF_UNIT_S / self._smooth[k]
            t, k = stop, k + 1
        return total


_worker_sampler: Sampler | None = None


def start_in_worker(log_dir: str) -> None:
    """Pool initializer (or after-fork hook): sample this worker process
    into log_dir/cal-<pid>.log for as long as it lives."""
    global _worker_sampler
    _worker_sampler = Sampler(os.path.join(log_dir, f"cal-{os.getpid()}.log"))
    _worker_sampler.start()
    # multiprocessing workers leave through os._exit, which skips atexit; an
    # alarm after the interpreter has reset its handlers would kill them
    Finalize(None, signal.setitimer, (signal.ITIMER_REAL, 0, 0), exitpriority=100)
