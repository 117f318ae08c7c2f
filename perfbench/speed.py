"""Machine-speed probe: scales wall times to a fixed reference speed.

On a shared machine each core's speed changes by up to 1.8x within a
second, as neighbours come and go, and the cores change independently. A
run's wall time then follows the neighbours as much as the program. The
probe runs a small fixed kernel every TICK_S of CPU time in each process
that does the work. The kernel's time at each moment says how slow the
core the work runs on is then. There are two kernels:

- "numeric" (the python kernel plus Fraction arithmetic and small numpy
  products, as in gcfloer's Novikov elimination, Newton solves and
  quadrature) runs in the benchmark process for the in-process workloads,
  which have imported numpy already. The python kernel alone slows less
  than gcfloer's hot loops when the machine slows, and the numpy part
  alone slows more; of the mixes tried, this one tracked them best.
- "python" (exact integer and complex arithmetic, imports nothing) runs in
  each child process (through probed.py or the set-up probe), where
  importing numpy early would hide the cost of gcfloer's own imports.

``Probe.cost(a, b)`` is the work done between perf_counter times a and b
(CLOCK_MONOTONIC, shared by all processes), in seconds at reference speed:
the wall time minus the probe's own time, times the kernel's reference time
over its measured time. The kernel times used are those of the samples
taken inside [a, b], or, for a span too short to hold one, those within
MARGIN_S of it. A kernel's reference time is its time on a quiet core of
the machine the bounds were set on (a 2-vCPU Xeon VM, Python 3.11, numpy
2.4), so a cost reads as seconds on that machine when quiet.

The probe shares the process with the workload, so it cannot tell a slower
machine from a program that loads the same core (a spinning helper thread,
say). The readable report prints the raw wall times next to the costs.

The module imports only bisect, signal and time (about 2 ms in a fresh
interpreter), so a probed child process pays for little beyond its own
imports.
"""

import bisect
import signal
import time

TICK_S = 0.1
MARGIN_S = 0.5


def python_kernel():
    num, den = 0, 1
    for k in range(1, 300):  # an exact rational sum, as Fraction does it
        num, den = num * (2 * k + 1) + den * k, den * (2 * k + 1)
    z = 0j
    for k in range(25000):
        z = z * (0.999 + 0.001j) + k
    return num, den, z


def numeric_kernel():
    from fractions import Fraction

    import numpy as np

    python_kernel()
    s = Fraction(0)
    for k in range(1, 120):
        s += Fraction(k, k + 1) * Fraction(1, 2 * k + 1)
    a, b = np.eye(3), np.array([[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, 0.3, 0.5]])
    for _ in range(500):
        a = a @ b + 0.1
        a /= np.abs(a).sum()
    return s, a


# kernel name -> (kernel, reference seconds)
KERNELS = {"python": (python_kernel, 0.0025), "numeric": (numeric_kernel, 0.0055)}


def _trimmed_mean(xs):
    xs = sorted(xs)
    cut = len(xs) // 10
    xs = xs[cut:len(xs) - cut]
    return sum(xs) / len(xs)


class Probe:
    """The samples of one run; ``with probe.ticking(kernel):`` takes them."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample, sorted
        self.times = []  # kernel wall time of each sample
        self.speeds = []  # reference time / kernel time of each sample

    def add(self, start, seconds, speed):
        i = bisect.bisect_right(self.starts, start)
        self.starts.insert(i, start)
        self.times.insert(i, seconds)
        self.speeds.insert(i, speed)

    def ticking(self, kernel_name):
        self._kernel, self._ref_s = KERNELS[kernel_name]
        self._kernel()  # a first call may import
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - start
        self.add(start, seconds, self._ref_s / seconds)

    def __enter__(self):
        """Sample every TICK_S of this process's CPU time."""
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def dumps(self):
        return " ".join(f"{a!r},{b!r},{c!r}"
                        for a, b, c in zip(self.starts, self.times, self.speeds))

    def loads(self, text):
        """Add the samples of another process's dumps()."""
        for triple in text.split():
            self.add(*map(float, triple.split(",")))

    def cost(self, a, b):
        """Seconds [a, b] would take at reference speed, probe time excluded."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        busy = (b - a) - sum(self.times[lo:hi])
        if lo == hi:  # too short to hold a sample: use those near it
            lo = bisect.bisect_left(self.starts, a - MARGIN_S)
            hi = bisect.bisect_right(self.starts, b + MARGIN_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return busy * _trimmed_mean(self.speeds[lo:hi])

    def median_speed(self):
        xs = sorted(self.speeds)
        return xs[len(xs) // 2] if xs else float("nan")
