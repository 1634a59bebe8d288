"""Host-speed adjustment of measured times.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent over minutes as neighbours load the machine.  A pure-Python
reference loop slows down by the same factor as the simulator.  So every
timed region is bracketed by probes of that loop, and its host seconds
are rescaled to the loop's reference speed:

    adjusted_s = measured_s * REFERENCE_PROBE_S / mean(probe before, probe after)

A change to the program moves the adjusted time by the same factor as
the measured time, because the probe does not run program code.  A change
in the host's speed cancels out.  Both the measured and the adjusted
times are reported.
"""

from __future__ import annotations

import time

#: iterations of the probe loop; one run takes about 7 ms
PROBE_ITERATIONS = 100_000
#: the probe's time at the reference speed: the fastest probe seen on
#: the 2-core container the baseline was measured on (CPython 3.11)
REFERENCE_PROBE_S = 0.0070


def probe_s() -> float:
    """Fastest of three runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Probes at region boundaries; each probe closes one region, opens the next."""

    def __init__(self) -> None:
        self.last = probe_s()

    def adjust(self, measured_s: float) -> float:
        """``measured_s`` of the region since the last probe, at reference speed."""
        before, self.last = self.last, probe_s()
        return measured_s * REFERENCE_PROBE_S / ((before + self.last) / 2)
