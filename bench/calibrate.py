"""Host-speed calibration: a fixed kernel sampled every few milliseconds.

On a shared host the same code runs up to 2x slower from one moment to the
next (other tenants on the same cores), often several times within one
operation, which no number of repetitions averages away within one run.
While a ``Meter`` is active, a wall-clock timer interrupts the program
every ``TICK_S`` seconds and times one run of a small fixed kernel. The
runner converts the wall time of every operation and set-up interpreter
to *reference seconds*: the time the work would have taken on a host that
runs the kernel in ``REFERENCE_S``,

    reference = (wall - ticks inside) * REFERENCE_S * mean(1 / kernel time),

the mean taken over the ticks from ``WINDOW_S`` before the start to
``WINDOW_S`` after the end. The kernel does the kinds of work yamabe's
operations do (Python-level float arithmetic through ``math`` calls,
function calls and small numpy array operations), so a slow stretch of the
host slows both about alike. It is part of the benchmark, not of yamabe: a
change to yamabe changes the wall time of an operation but not the
kernel's, so it shows in full. ``REFERENCE_S`` is about the kernel's time in the fast
stretches of the 2-vCPU host the baseline was taken on, which keeps
reference seconds close to that host's wall seconds when it is not slowed.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.35e-3    # nominal kernel time; see the module docstring
TICK_S = 0.025           # wall seconds between two kernel samples
WINDOW_S = 0.05          # ticks this close to an interval count for it


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def _step(x: float) -> float:
    return math.exp(-x) * math.sin(x) / (1.0 + x * x) + math.log1p(x)


def _split(a: float, b: float) -> tuple[float, float]:
    return a * b, a + b


def kernel() -> float:
    """A fixed mix of the work yamabe does: float arithmetic through
    ``math`` calls, small function calls with tuples, attribute and dict
    access, and small numpy vector steps. Each part alone tracks the
    host's speed well on some workloads and less well on others; the mix
    tracks it on all three."""
    s = 0.0
    for i in range(200):
        x = 1e-3 * i + 0.1
        s += _step(x) * math.sqrt(x)
    pair, d = _Pair(1.5, 0.5), {"x": 1.0}
    for i in range(350):
        p, q = _split(pair.a, d["x"] + i * 1e-3)
        s += p - q if i & 1 else q - p
        d["x"] = 1.0 + s * 1e-9
    v = np.linspace(0.1, 1.0, 8)
    for _ in range(30):
        v = v * 0.999 + np.sin(v) * 1e-3
        s += float(np.dot(v, v))
    return s


class Meter:
    """Samples the kernel every TICK_S of wall time inside ``with``.

    The samples are taken by a SIGALRM handler on the main thread, so they
    run between the bytecodes of whatever is being measured and never at
    the same time as it; ``span`` takes their time back out."""

    def __init__(self):
        self.starts: list[float] = []    # when each tick began
        self.kernel: list[float] = []    # the kernel's time in each tick
        self.spent: list[float] = []     # the whole handler's time
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel.append(t1 - t0)
        self.spent.append(time.perf_counter() - t0)

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the interval [start, end]
        of ``time.perf_counter``, without the ticks taken inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        wall = (end - start) - math.fsum(self.spent[lo:hi])
        near = self.kernel[bisect.bisect_left(self.starts, start - WINDOW_S):
                           bisect.bisect_left(self.starts, end + WINDOW_S)]
        if not near:
            raise RuntimeError("no calibration tick near the interval")
        speed = statistics.fmean(1.0 / k for k in near)
        return wall, wall * REFERENCE_S * speed
