"""Machine-speed reference for the benchmark's times.

On a shared host, other tenants slow this process's execution for seconds
to minutes at a time, and CPU time slows with wall time: on the 2-vCPU
reference machine the same NumPy loop ran at 24 ms to 48 ms per pass,
with whole stretches of 15 s at the slow end, and the raw time of a
corpus round moved by 13 % between runs a minute apart.  Every timing of
a run moves together, so no median or minimum of raw times can separate
a slower program from a slower host.

The benchmark therefore times a fixed kernel between its operations (a
mix of what caralab spends time in: small complex LAPACK calls, dim-64
SVDs and interpreted Python), as many passes as fill SHARE of the time
elapsed, so long operations are followed by many passes and the passes
sample the run evenly.  It scales each reported time by
REFERENCE_S / (mean kernel pass of the run).  Reported times are seconds
at a nominal kernel speed; the raw times are kept in the run record.
Means, not minima or medians, are compared on both sides: an operation of
a few seconds never runs entirely in a quiet moment, and time taken away
by the hypervisor lands on a short kernel pass as often per second as on
an operation, but only a mean counts it.  The kernel must never change:
results taken with different kernels are not comparable.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: nominal kernel pass time; a run whose mean pass takes this long reports raw seconds
REFERENCE_S = 0.010

#: share of a timed body spent in kernel passes
SHARE = 0.04

_rng = np.random.default_rng(20161607)
_SMALL = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(4)]
_EYE = np.eye(8, dtype=complex)
_BIG = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def kernel() -> float:
    acc = 0.0
    for _ in range(40):
        for m in _SMALL:
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            acc += float(np.linalg.solve(m, _EYE)[0, 0].real)
    for _ in range(3):
        acc += float(np.linalg.svd(_BIG, compute_uv=False)[0])
    z = 0j
    for i in range(12000):
        z = z * 0.5 + complex(i, -i) * 1e-3
    return acc + abs(z)


class Calibration:
    """Kernel passes taken during a run; the scales convert raw seconds to reference seconds."""

    def __init__(self):
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.active = True
        self._start = time.perf_counter()
        self._spent = 0.0

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.at.append(w0)
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)
        self._spent += self.wall[-1]

    def keep_up(self) -> None:
        """Kernel passes until they fill SHARE of the time since this object was made."""
        while self.active and self._spent < SHARE * (time.perf_counter() - self._start):
            self.sample()

    @property
    def wall_scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.wall)

    @property
    def cpu_scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.cpu)
