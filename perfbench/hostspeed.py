"""The host's speed through a run, to put times on one scale.

The benchmark shares its core with work it does not control.  Python code on
that core runs either at full speed or about 1.7 times slower, switching
every few milliseconds, and the share of slow time drifts over minutes.  A
query longer than a few milliseconds therefore runs at the average speed of
its minute, and runs of the same code minutes apart differ by up to half.

:class:`HostSpeed` times a fixed piece of pure-Python work (:func:`probe`)
before and after every query.  A probe's time over :data:`REFERENCE_PROBE_S`,
the probe's time on an undisturbed core, is the *scale*: the factor by which
the host stretched times at that moment.  The slow and fast stretches last
from milliseconds to about a second, so the probes on either side of a query
tell the speed it ran at far better than the run's average does.  The
worker divides each query's latency by the mean scale of its two probes,
which puts it at the reference speed.  The probe exercises what fecount
spends its time on, tuples, dicts and ``Fraction`` arithmetic, so it slows
down by about as much as fecount does.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The probe's time on an undisturbed core of a 2.1 GHz Xeon, Python 3.11.
REFERENCE_PROBE_S = 0.5e-3
# A transposition and a 5-cycle generate the symmetric group S_5.
GENERATORS = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))


def probe() -> int:
    """Walk S_5 from its generators, with a Fraction label on each element."""
    start = tuple(range(5))
    labels = {start: Fraction(0)}
    frontier = [start]
    while frontier:
        found = []
        for perm in frontier:
            for gen in GENERATORS:
                child = tuple(gen[i] for i in perm)
                if child not in labels:
                    labels[child] = labels[perm] + Fraction(1, 1 + len(found) % 5)
                    found.append(child)
        frontier = found
    return len(labels)


class HostSpeed:
    """The probe times taken so far, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> float:
        """Run the probe three times; return the median time over
        :data:`REFERENCE_PROBE_S`.

        The median leaves out a one-off stall, such as an interrupt or the
        first touch of memory a query just freed, without favouring the fast
        speed as the fastest of the three would.  The garbage collector is
        off meanwhile, so no collection of fecount's garbage lands in it.
        """
        collecting = gc.isenabled()
        gc.disable()
        times = []
        for _ in range(3):
            started = time.perf_counter()
            probe()
            times.append(time.perf_counter() - started)
        if collecting:
            gc.enable()
        self.samples.append(statistics.median(times))
        self.spent_s += sum(times)
        return self.samples[-1] / REFERENCE_PROBE_S

    def sample_for(self, seconds: float) -> None:
        """Take samples back to back for ``seconds``."""
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            self.sample()

    def scale(self) -> float:
        """Mean probe time over :data:`REFERENCE_PROBE_S`."""
        return statistics.fmean(self.samples) / REFERENCE_PROBE_S
