"""Timing that holds still on a shared host.

On a shared host two things move a timing that the program has no part
in. The core this process runs on switches, for seconds to minutes at a
time, between states up to 1.8x apart in speed (other tenants on the same
physical core). And the host now and then runs another tenant on this
core altogether (steal time), so wall time passes while nothing here runs.
No statistic over a run removes a state that lasts the whole run.

`Slicer` therefore times a block in slices of about SLICE_S seconds and
runs a fixed pure-Python kernel before each slice. Each slice is divided by
the kernel time measured just before it, on the same core in the same
state, and multiplied by KERNEL_REF_S, the kernel's time on the reference
machine. The sum is the block's time in reference seconds: what the block
would take on the reference machine in its usual state. The kernel is
benchmark code and never changes with the program, so a program that does
less work reads lower, as it does in plain seconds.

A slice, like the kernel, counts its wall time but no more than the CPU
time the process used in it. Linux counts steal time to the host, not to
the process, so a single-threaded slice counts only the time it ran, while
a slice in which several threads ran at once still counts wall time.
Work moved to child processes is not counted; the workloads start none.

The slices are cut by SIGALRM from a one-shot ITIMER_REAL that the handler
re-arms, so the program needs no hooks. Kernel time is left out of both
`seconds` and `ref_seconds` and kept in `kernel_seconds`. Use it from the
main thread only.
"""

from __future__ import annotations

import signal
import time

SLICE_S = 0.02
KERNEL_LOOPS = 1200
# Median kernel time on the reference machine (2-vCPU Xeon, Python 3.11.7).
KERNEL_REF_S = 6.0e-4


def now() -> tuple[float, float]:
    """(wall, process CPU) clock readings."""
    return time.perf_counter(), time.process_time()


def busy(start: tuple[float, float]) -> float:
    """Seconds since `start`, a `now()` reading: wall time, capped at the
    CPU time the process used since."""
    wall, cpu = now()
    return min(wall - start[0], cpu - start[1])


def kernel() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work."""
    start = now()
    acc = 0.0
    counts: dict[int, int] = {}
    xs = [0.5 * i for i in range(16)]
    for i in range(KERNEL_LOOPS):
        v = xs[i & 15] * 1.0001 + acc * 0.5
        acc = v - int(v)
        counts[i & 31] = counts.get(i & 31, 0) + 1
        xs[i & 15] = min(v, 8.0)
    return busy(start)


class Slicer:
    """Context manager: `seconds` and `ref_seconds` of the block it wraps.

    With `since`, the `time.perf_counter()` reading a parent process took
    just before starting this one (the clock is system-wide), the span from
    then to entering the block is counted as its first slice.
    """

    def __init__(self, since: float | None = None):
        self.since = since
        self.seconds = 0.0
        self.ref_seconds = 0.0
        self.slices = 0
        self.kernel_seconds = 0.0
        self._active = False

    def _kernel(self) -> float:
        self._kernel_s = kernel()
        self.kernel_seconds += self._kernel_s
        return self._kernel_s

    def _add(self, dt: float, kernel_s: float) -> None:
        self.seconds += dt
        self.ref_seconds += dt / kernel_s * KERNEL_REF_S
        self.slices += 1

    def _cut(self, signum=None, frame=None) -> None:
        if not self._active:
            return
        self._add(busy(self._start), self._kernel_s)
        self._kernel()
        self._start = now()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)

    def __enter__(self) -> "Slicer":
        wall, cpu = now()
        self._kernel()
        if self.since is not None:
            # The process's CPU clock started with the process.
            self._add(min(wall - self.since, cpu), self._kernel_s)
        self._previous = signal.signal(signal.SIGALRM, self._cut)
        self._active = True
        self._start = now()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        return self

    def __exit__(self, *exc) -> None:
        # Inactive first, so a signal already on its way neither cuts nor
        # re-arms; the timer is off before the previous handler returns.
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = busy(self._start)
        signal.signal(signal.SIGALRM, self._previous)
        self._add(dt, self._kernel_s)
