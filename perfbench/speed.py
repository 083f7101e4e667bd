"""Machine speed, sampled with a fixed pure-Python reference loop.

On a shared host the speed of one virtual CPU changes by up to 1.6x within
seconds (other guests on the same physical cores), and a run of the same
job list can take half as long again as the run before it.  The benchmark
therefore times a fixed reference loop (a *chunk*) right before every job
and, through a profiling timer, every ``INTERVAL_S`` of CPU time while the
job runs.  A job's time is divided by the machine's slowness while it ran
(mean chunk time over ``NOMINAL_CHUNK_S``): figures are seconds at the
reference speed at which one chunk takes ``NOMINAL_CHUNK_S``.  The raw wall
times are printed beside them.

The chunk is hopfcm-independent (int arithmetic and a small dict, like the
interpreter work of exact arithmetic), so a change to hopfcm moves job times
but not the chunk.  Chunks taken inside a job are subtracted from its time.
"""

from __future__ import annotations

import signal
import time

CHUNK_ITERS = 25_000
# Chunk time at the reference speed, about the median chunk time on an
# Intel Xeon (family 6, model 207) virtual CPU with CPython 3.
NOMINAL_CHUNK_S = 0.005
# CPU time between two chunks inside a job.
INTERVAL_S = 0.1
# A job's slowness is estimated from at least this many chunks, reaching
# back before the job when it took fewer.
MIN_SAMPLES = 8


def reference_loop(n=CHUNK_ITERS):
    acc = {}
    for i in range(n):
        k = i & 31
        acc[k] = acc.get(k, 0) + i * i % 7
    return acc


class SpeedMeter:
    def __init__(self):
        self.samples = []  # chunk durations, in the order they were taken
        self.in_job_s = 0.0  # time spent in chunks taken by the timer
        self._busy = False

    def chunk(self):
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def _on_timer(self, signum, frame):
        if self._busy:  # the timer fired inside a chunk: that one counts
            return
        t0 = time.perf_counter()
        self.chunk()
        self.in_job_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def slowness(self, first=0):
        """Mean chunk time over ``NOMINAL_CHUNK_S`` for the chunks taken
        from index ``first`` on (at least ``MIN_SAMPLES`` of the latest),
        after dropping the fastest and slowest fifth."""
        lo = max(0, min(first, len(self.samples) - MIN_SAMPLES))
        xs = sorted(self.samples[lo:])
        cut = len(xs) // 5
        if cut:
            xs = xs[cut:-cut]
        return sum(xs) / len(xs) / NOMINAL_CHUNK_S
