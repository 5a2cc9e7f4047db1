"""Machine-speed calibration for the end-to-end times.

On a shared 2-vCPU virtual machine, other tenants' work slows everything by
up to a third for tens of seconds at a time; run-to-run spread of raw wall
times was 20-35 %.  A fixed pure-Python kernel (an interpreter loop plus
big-integer arithmetic, no pclab code) is timed right before and after every
op, and every ``SAMPLE_INTERVAL_S`` while the op runs.  Each op's time, less
the kernel's own time, is scaled by ``REFERENCE_KERNEL_S`` over the kernel's
mean time, so it reads in seconds at the reference speed.  Set-up time is
scaled the same way by the time of an empty interpreter start.  The scale
factors depend only on the machine, never on the program under test.
"""
from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

# typical times of the kernel and of an empty interpreter start on the 2.1 GHz
# machine the benchmark was defined on; constants, so they cancel in any comparison
REFERENCE_KERNEL_S = 0.0030
REFERENCE_SPAWN_S = 0.0090
SAMPLE_INTERVAL_S = 0.25


def _kernel() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    x = 3**40000
    for _ in range(20):
        x = (x * 7 + s) // 5
    return x.bit_length() + s


def kernel_s(repeats: int = 5) -> float:
    """Median time of the calibration kernel, now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def spawn_s(repeats: int = 3) -> float:
    """Median time to start and stop an empty interpreter, now.

    Set-up is scaled by this instead of the kernel: it is the same kind of
    work (loading code and libraries).  Over a quarter of an hour its ratio to
    set-up time moved by 6 %, the kernel's by 10 %.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the kernel on a timer signal while the body of a `with` runs.

    The handler runs between bytecodes of the main thread, so a long call
    into native code delays a sample but is never interrupted.  ``spent`` is
    the time the samples took, to be taken off the measured time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(seconds: float, samples: list[float], reference: float = REFERENCE_KERNEL_S) -> float:
    """`seconds` at the reference speed, given calibration times taken over that interval."""
    return seconds * reference / statistics.fmean(samples)
