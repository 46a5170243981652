"""Host-speed calibration for the Ray-free workloads.

On a shared host the speed of the CPU this benchmark gets moves by 15-35%
between runs of 20 seconds, and it moves for every process alike. A fixed
interpreter-bound task (bytes slicing, dict updates, str join/split,
zlib), timed in the same process between timed rounds, moves with it.
The end-to-end timings are scaled by ``factor()``, ``REFERENCE_S``
against this run's median task time, so they read as if measured at the
reference host's speed. The task calls no code of the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
import zlib

# median calibration time on the 4-CPU reference host (perfbench/README.md)
REFERENCE_S = 0.0120

_DATA = bytes(range(256)) * 16


def _task() -> float:
    t0 = time.perf_counter()
    counts: dict[bytes, int] = {}
    for i in range(20000):
        key = _DATA[i % 4000 : i % 4000 + 8]
        counts[key] = counts.get(key, 0) + 1
    " ".join(str(i) for i in range(20000)).split()
    zlib.decompress(zlib.compress(_DATA * 8))
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        """One calibration sample (the faster of two runs of the task)."""
        self.samples.append(min(_task(), _task()))

    def factor(self) -> float:
        """Reference time ÷ this run's time: below 1 on a slower host.
        A time measured here times the factor reads at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
