"""Host speed: wall time on a shared host, converted to reference speed.

The benchmark's host has 2 vCPUs shared with other tenants.  The same
code runs in a fast state or in one up to 1.9x slower; each vCPU
switches on its own, from within a second to after minutes, so a slow
stretch can cover a whole run.  The slowdown shows in process CPU time
as much as in wall time: it is contention for the physical cores and
caches, not time the guest was descheduled.  No estimator over a run's
own samples removes it.

So the benchmark pins its process to the first allowed CPU and the fleet
worker to the second (:meth:`HostMeter.pin_worker`), and brackets every
timed interval with probes on each: fixed work that does not touch the
program, half interpreter-bound (dicts, strings, sorting) and half
numpy-bound (elementwise passes over a small array), as the program's
serving and design flows are.  A probe's slowness is its time over its
time at reference speed (``REFERENCE_S``).  An interval's wall seconds
divided by the mean slowness of its two probes, on the CPUs its work
ran on, are its seconds at reference speed.  A change to the program
moves its own intervals and not the probes, so it shows in full.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

#: Seconds of each probe part (interpreter, numpy) in the fast state of
#: the 2-vCPU shared cloud host the benchmark was built on.
REFERENCE_S = (1.35e-3, 1.37e-3)
#: Times each probe runs; the fastest run counts, so an interrupt or a
#: cold cache does not pass for a slow host.
REPEATS = 3

# The interpreter part allocates no more than two objects the cycle
# collector tracks, so no collection of the program's heap lands in it.
_KEYS = list(range(64))
_VALUES = list(range(6000))
_ARRAY = np.arange(2048, dtype=np.float64)
_ARRAY_PASSES = 300


def _interpreter_part() -> int:
    sums = dict.fromkeys(_KEYS, 0)
    width = 0
    for value in _VALUES:
        sums[value & 63] += value
        width += len(str(value))
    order = sorted(_VALUES, key=lambda value: -(value & 63))
    return width + order[0] + sums[0]


def _array_part() -> float:
    a = _ARRAY
    for _ in range(_ARRAY_PASSES):
        a = np.sqrt(a * 1.0001 + 1.0)
    return float(a[-1])


def probe() -> Tuple[float, float]:
    """Seconds of each probe part, the fastest of ``REPEATS`` runs."""
    clock = time.perf_counter
    best = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        start = clock()
        _interpreter_part()
        middle = clock()
        _array_part()
        end = clock()
        best[0] = min(best[0], middle - start)
        best[1] = min(best[1], end - middle)
    return best[0], best[1]


def slowness(parts: Tuple[float, float]) -> float:
    return sum(parts) / sum(REFERENCE_S)


class HostMeter:
    """Probes around timed intervals; converts their wall seconds.

    Constructing one pins the calling process to the first allowed CPU.
    """

    def __init__(self):
        allowed = sorted(os.sched_getaffinity(0))
        #: The benchmark's CPU, then the fleet worker's (the same one
        #: when only one is allowed).
        self.cpus = allowed[:2]
        os.sched_setaffinity(0, {self.cpus[0]})
        #: Every probe of the run: CPU -> [(interpreter s, numpy s)].
        self.probes: Dict[int, List[Tuple[float, float]]] = {
            cpu: [] for cpu in self.cpus
        }
        self._last: Dict[int, float] = {}
        self.mark()

    def pin_worker(self, pid: int) -> None:
        os.sched_setaffinity(pid, {self.cpus[-1]})

    def _probe(self) -> Dict[int, float]:
        now = {}
        # The benchmark's own CPU last, where it stays.
        for cpu in reversed(self.cpus):
            os.sched_setaffinity(0, {cpu})
            parts = probe()
            self.probes[cpu].append(parts)
            now[cpu] = slowness(parts)
        return now

    def mark(self) -> None:
        """Probe now: the start of the next timed interval."""
        self._last = self._probe()

    def scale(self, fleet: bool = False) -> float:
        """Probe now; return the factor that converts the wall seconds
        since the previous probe to seconds at reference speed.  The
        work ran on the benchmark's CPU or, with *fleet*, on both the
        benchmark's and the worker's.  This probe also starts the next
        interval."""
        now = self._probe()
        cpus = self.cpus if fleet else self.cpus[:1]
        mean = sum(self._last[c] + now[c] for c in cpus) / (2 * len(cpus))
        self._last = now
        return 1.0 / mean

    def describe(self) -> List[str]:
        lines = []
        for cpu, probes in self.probes.items():
            values = sorted(slowness(p) for p in probes)
            n = len(values)
            lines.append(
                f"host slowness of CPU {cpu} over {n} probes: min {values[0]:.3f}, "
                f"median {values[n // 2]:.3f}, max {values[-1]:.3f}"
            )
        return lines
