"""Machine-speed correction for wall-clock timings on a shared, unpinned machine.

On a small shared virtual machine the same query can take twice as long a
few seconds later, and such slow spells last long enough to shift a whole
run.  :class:`Speedometer` runs a fixed pure-Python kernel between queries,
at most every ``SAMPLE_EVERY_S``, and scales each timing by how long that
kernel took around it: a timing is reported as it would read on a machine
where the kernel takes ``NOMINAL_S``.  On a 2-vCPU VM, medians over blocks
of repeated K3 queries spread by 12 % (coefficient of variation) raw and by
2-4 % scaled.

The kernel shares no code with the program under test, so a change to the
program cannot move it.  Raw wall-clock figures are printed beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass
from time import perf_counter

SAMPLE_EVERY_S = 0.05
NOMINAL_S = 1.5e-3
NEAREST = 7


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int


def kernel() -> int:
    """Fixed work of the kind the interpreter does in the program: small frozen
    dataclasses hashed into a dict, and big-int bit masks."""
    seen: dict[_Cell, int] = {}
    mask = 0
    for i in range(800):
        cell = _Cell(i % 97, (i * 31) % 101)
        seen[cell] = seen.get(cell, 0) + 1
        mask |= 1 << (i % 600)
    return len(seen) + mask.bit_count()


class Speedometer:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def spent_s(self) -> float:
        return sum(self.durations)

    def factor(self, at: float) -> float:
        """NOMINAL_S over the median kernel time of the samples nearest to ``at``."""
        i = bisect.bisect(self.times, at)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return NOMINAL_S / statistics.median(self.durations[lo:lo + NEAREST])
