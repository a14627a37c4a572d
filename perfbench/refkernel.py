"""The reference kernel the benchmark times beside every operation.

The machine the benchmark runs on is shared: the speed one process gets
drifts by tens of percent over minutes, and other processes take turns on
its cores.  Timing the operation in process CPU time removes the turns;
dividing by the CPU time of this fixed kernel, timed at short intervals
throughout the run (Sampler), removes the drift.  The kernel is a mix like
islab's own hot paths: Python-level loops over small numpy arrays (a
standard-map step and its Jacobian on 64 points) and scalar float
arithmetic.  It depends on nothing in ``src/``, so a change to islab cannot
change it.

A time in reference seconds is CPU seconds times REF_NOMINAL_S / (the
kernel's CPU time on the same machine at the same moment): what the time
would read on a machine where the kernel takes REF_NOMINAL_S.
"""

import contextlib
import math
import signal
import statistics
from time import process_time

import numpy as np

# The kernel's median CPU time on the 2-vCPU VM the bounds were tuned on
# (Intel Xeon, Python 3.11, numpy 2.4).  Only a scale: it turns ratios back
# into seconds of about the size that machine measures.
REF_NOMINAL_S = 0.0125

_X0 = (np.arange(64) + 0.5) / 64.0


def ref_kernel(steps=300):
    """A fixed amount of Python and small-array numpy work; returns a
    checksum so that nothing can be skipped."""
    x, y, acc = _X0.copy(), _X0[::-1].copy(), 0.0
    for k in range(steps):
        y = (y + 0.9 / (2 * math.pi) * np.sin(2 * math.pi * x)) % 1.0
        x = (x + y) % 1.0
        jac = np.stack([np.ones_like(x), 0.9 * np.cos(2 * math.pi * x)])
        acc += float(jac.sum()) * 1e-9
        s = 0.0
        for i in range(60):
            s += math.sqrt(i + k) * 0.5
        acc += s * 1e-12
    return acc


def ref_seconds(repeats):
    """Median CPU time of ``repeats`` runs of the kernel."""
    times = []
    for _ in range(repeats):
        t0 = process_time()
        ref_kernel()
        times.append(process_time() - t0)
    return statistics.median(times)


def in_ref_seconds(cpu_s, kernel_s):
    """CPU seconds of work, in reference seconds, given the kernel's CPU
    time on the same machine at the same time."""
    return cpu_s * REF_NOMINAL_S / kernel_s


def trimmed_mean(values):
    """Mean without the highest and the lowest tenth.  The samples are
    evenly spaced in time, so their mean follows the machine's average speed
    over the interval; the trim drops a sample that a page fault or a
    preemption inside the kernel spoiled."""
    values = sorted(values)
    k = len(values) // 10
    return statistics.fmean(values[k:len(values) - k])


class Sampler:
    """Times one run of the kernel every ``period_s`` of wall time, from a
    SIGALRM handler, so that readings fall inside long operations as well as
    between short ones.  The handler runs between two Python bytecodes of the
    main thread and touches nothing but its own list, so the work it
    interrupts computes the same bytes.  (A CPU-time timer would do instead,
    but while one is armed Linux reads the process CPU clock only to the
    scheduler tick.)"""

    def __init__(self, period_s=0.25):
        self.period_s = period_s
        self.samples = []  # (process CPU time at its start, kernel CPU s)
        # name -> context manager; set during traced operations so that each
        # kernel run is a span of its own, outside every islab layer
        self.span = None
        self._busy = False  # a signal that comes during a sample is dropped
        self._old = None

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            with (self.span("trace.sampler") if self.span
                  else contextlib.nullcontext()):
                t0 = process_time()
                ref_kernel()
                self.samples.append((t0, process_time() - t0))
        finally:
            self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def own_cpu(self, a, b):
        """CPU seconds the sampler took inside the CPU-time interval [a, b)."""
        return sum(d for t, d in self.samples if a <= t < b)

    def reading(self, a, b):
        """The kernel's mean time over the samples taken in [a, b), widened
        by 1.5 periods on each side so that an operation shorter than a
        period still gets a few (CPU and wall time run alike in a
        single-threaded process).  With none there, the nearest sample."""
        pad = 1.5 * self.period_s
        near = [d for t, d in self.samples if a - pad <= t < b + pad]
        if not near:
            mid = (a + b) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return trimmed_mean(near)

    def in_ref_seconds(self, a, b):
        """The work of the CPU-time interval [a, b), less the sampler's own,
        in reference seconds."""
        return in_ref_seconds(b - a - self.own_cpu(a, b), self.reading(a, b))
