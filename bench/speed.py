"""Host-speed reference for the benchmark's CPU times.

The benchmark was written on a 2-vCPU VM whose host other tenants share.
Its speed drifts by a quarter within half an hour: a `sieve_deep` call took
a median 1.72 s of CPU time over one set of ten runs and 1.27 s over the
next.  So the benchmark times a fixed task that runs no sievesim code before
and after each measurement, in CPU time of the calling thread, and rescales
the measured CPU time by it.  The task mixes what sievesim spends its time
on: plain Python, scalar numpy draws, mpmath and small vectorised numpy
operations.

REFERENCE_S fixes the scale.  It is the task's CPU time on that VM at the
time of writing, so a rescaled time is what the measured one would have
been at that speed, and a change that makes sievesim faster lowers it in the
same proportion.
"""

import time

import mpmath
import numpy as np

REFERENCE_S = 0.07


def reference_seconds() -> float:
    """CPU seconds of the calling thread for the fixed reference task."""
    start = time.thread_time()
    gen = np.random.Generator(np.random.PCG64(12345))
    acc = {}
    for i in range(120_000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    for _ in range(8000):
        gen.binomial(1000, 0.3)
    for _ in range(600):
        mpmath.floor(mpmath.power(10**12, 0.25))
    for _ in range(200):
        x = gen.exponential(1.0, 8000)
        np.cumsum(x, out=x)
        x.sort()
    return time.thread_time() - start


def rescale(cpu_s: float, before: float, after: float) -> float:
    """cpu_s at the reference speed, given the reference task's CPU times
    just before and just after the measurement."""
    return cpu_s * REFERENCE_S * 2 / (before + after)
