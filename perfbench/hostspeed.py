"""Host-speed probe: a fixed pure-Python loop that never touches bhbounds.

On a shared 2-core Xeon virtual machine, identical code ran up to 1.8x
slower for stretches of tens of seconds to minutes, with CPU time tracking
wall time.  Medians within a 20-second run cannot absorb that, so every
timed interval is paired with probes taken right before and after it, and
the benchmark reports time scaled to a host on which the probe takes
``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

The raw times are printed too.  A change to bhbounds cannot change the
probe's own cost; the worker pins OpenBLAS to one thread so that no BLAS
thread spinning after a round slows the probe that follows it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.007
_LOOP = 100_000


def probe():
    """Best of three timings of the fixed loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def scale(measured, before, after):
    """``measured`` seconds at the reference host speed."""
    return measured * REFERENCE_S / ((before + after) / 2)


class Clock:
    """Times calls, each one between two probes; sums raw and scaled time.

    The host's speed can change within a second, so each call of a round,
    not the round as a whole, gets the probes on either side of it.
    """

    def __init__(self):
        self.probes = []
        self.reset()

    def reset(self):
        """Start a new round: zero the sums and take a fresh probe."""
        self.raw = self.scaled = 0.0
        self.probes.append(probe())

    def call(self, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        self.probes.append(probe())
        self.raw += elapsed
        self.scaled += scale(elapsed, self.probes[-2], self.probes[-1])
        return result
