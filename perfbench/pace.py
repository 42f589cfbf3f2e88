"""Reference-pace clock: wall time rescaled by the machine's current CPU pace.

On the shared 2-core machine this benchmark was built on, the CPU pace
flips between two states about 1.9x apart, and each state lasts from
seconds to minutes.  A fixed probe kernel, timed every ``PROBE_EVERY_S``
seconds between rounds, tracks the pace.  Between two probes, wall time is
counted at the rate ``REF_PROBE_S / probe time``, so a reference-pace
second is the wall second of a machine on which the probe takes exactly
``REF_PROBE_S``.  The probes' own time is left out.

Sixty seconds of alternating probes and identical short runs showed the
raw run times spread by 0.45 (quartile distance over median) and the ratio
of run time to probe time by 0.06.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's time in the faster pace state of the 2-core machine the
# benchmark was defined on; there a reference-pace second is a wall second.
REF_PROBE_S = 3.4e-4
PROBE_EVERY_S = 0.1
_X = np.linspace(0.0, 1.0, 64)


def _kernel() -> float:
    # Small-array numpy calls under a Python loop, like the package's own hot paths.
    s = 0.0
    for i in range(150):
        s += float(np.exp(_X * (i % 7)).sum())
    return s


class PaceClock:
    """Probes the CPU pace and maps wall times to reference-pace seconds."""

    def __init__(self):
        self.starts: list[float] = []  # wall interval of each probe, left out of all times
        self.ends: list[float] = []
        self.paces: list[float] = []  # fastest of the probe's three kernel timings
        _kernel()  # the first call pays numpy's lazy set-up

    def probe(self) -> None:
        """Time the kernel three times; the fastest is robust to an interrupt."""
        self.starts.append(perf_counter())
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t0)
        self.paces.append(best)
        self.ends.append(perf_counter())

    def maybe_probe(self) -> None:
        """Probe if the last probe ended at least ``PROBE_EVERY_S`` ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def ref(self, times) -> np.ndarray:
        """Reference-pace seconds from the end of the first probe to each wall time.

        A gap between two probes runs at the mean pace of the two.  Time
        before the first probe or after the last runs at that probe's pace.
        """
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        rate = REF_PROBE_S / np.asarray(self.paces)
        gap_rate = 2.0 / (1.0 / rate[:-1] + 1.0 / rate[1:])
        at_end = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * gap_rate)))
        t = np.atleast_1d(np.asarray(times, dtype=float))
        k = np.searchsorted(ends, t, side="right") - 1  # last probe ended by t
        out = np.empty_like(t)
        first, last = k < 0, k == ends.size - 1
        mid = ~first & ~last
        out[first] = -np.maximum(starts[0] - t[first], 0.0) * rate[0]
        out[last] = at_end[-1] + (t[last] - ends[-1]) * rate[-1]
        km = k[mid]
        out[mid] = at_end[km] + (np.minimum(t[mid], starts[km + 1]) - ends[km]) * gap_rate[km]
        return out
