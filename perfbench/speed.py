"""Machine-speed calibration of every timing the benchmark reports.

On a shared 2-CPU virtual machine the speed of a core changes by up to 40 %
within seconds, as other tenants load the host, and a run's median moves with
it.  So the benchmark pins all its processes to one CPU, and a sampler
process on that CPU times a fixed pure-Python reference kernel every
PERIOD_S while the benchmark works.  An interval is scaled to the kernel's
nominal duration by the mean of the samples taken during it:

    seconds = raw seconds * NOMINAL_S / mean(kernel samples in the interval)

A reported second is a second at the speed at which the kernel takes
NOMINAL_S.  The kernel is part of the benchmark, not of the program, so a
change to the program moves the scaled times as it moves the raw ones.
Sampling takes about 3 % of the CPU, which the raw times include.

Run as a script, this module is the sampler: it writes one line per sample,
`<perf_counter at start> <kernel seconds>`, until its parent exits.  Both
processes read CLOCK_MONOTONIC through time.perf_counter (Linux), so their
timestamps compare.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
from time import perf_counter, sleep

PERIOD_S = 0.04
# The sampled kernel's mean duration on the 2-CPU virtual machine the
# benchmark was tuned on (Xeon, Python 3.11), with the CPU busy and the host
# lightly loaded.
NOMINAL_S = 0.0006


def kernel_s() -> float:
    """Wall time of the reference kernel: a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return perf_counter() - start


class Clock:
    """Scales intervals by the kernel samples taken while they ran.  Close
    it (or use it as a context manager) to stop its sampler process."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdout=subprocess.PIPE)
        self._fd = self._proc.stdout.fileno()
        os.set_blocking(self._fd, False)
        self._pending = b""
        self._samples = []          # (start, kernel seconds), in time order

    def _read(self, timeout: float) -> None:
        if not select.select([self._fd], [], [], timeout)[0]:
            return
        chunk = os.read(self._fd, 1 << 16)
        if not chunk:
            raise RuntimeError("the speed sampler exited")
        *lines, self._pending = (self._pending + chunk).split(b"\n")
        self._samples.extend(tuple(map(float, line.split())) for line in lines)

    def scale(self, start: float, end: float) -> float:
        """Speed-scaled seconds of the interval [start, end] of perf_counter.
        An interval too short to hold a sample uses the next sample."""
        self._read(0.0)
        give_up = perf_counter() + 5.0
        while not self._samples or self._samples[-1][0] < start - PERIOD_S:
            if perf_counter() > give_up:
                raise RuntimeError("the speed sampler stalled")
            self._read(1.0)
        self._samples = [s for s in self._samples if s[0] >= start - PERIOD_S]
        inside = [d for t, d in self._samples if t <= end] or [self._samples[0][1]]
        return (end - start) * NOMINAL_S / statistics.fmean(inside)

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _sample() -> None:
    parent = os.getppid()
    while os.getppid() == parent:
        start = perf_counter()
        seconds = kernel_s()
        sys.stdout.write(f"{start!r} {seconds!r}\n")
        sys.stdout.flush()
        sleep(PERIOD_S)


if __name__ == "__main__":
    try:
        _sample()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
