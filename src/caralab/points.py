"""Points of the bidisk and its distinguished boundary, and directions into it."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InadmissibleDirectionError

#: allowed deviation of a boundary coordinate from unit modulus
UNIMODULAR_TOL = 1e-12

# quarter turns have exact unit representations; snapping keeps ray
# geometry exact in floating point for the common test points
_QUARTER = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the two-torus, stored as a pair of unimodular coordinates."""

    tau1: complex
    tau2: complex

    def __post_init__(self):
        for z in (self.tau1, self.tau2):
            if not cmath.isfinite(z):
                raise ValueError(f"boundary coordinate {z!r} is not finite")
            if abs(abs(z) - 1.0) > UNIMODULAR_TOL:
                raise ValueError(f"boundary coordinate {z!r} is not unimodular")

    @classmethod
    def from_angles(cls, turns1: float, turns2: float) -> "BoundaryPoint":
        """Boundary point (e^{2 pi i t1}, e^{2 pi i t2}) with angles in turns."""

        def unit(turns: float) -> complex:
            quarters = 4.0 * (turns % 1.0)
            if quarters == int(quarters):
                return _QUARTER[int(quarters) % 4]
            return cmath.exp(2j * cmath.pi * turns)

        return cls(unit(turns1), unit(turns2))

    def __iter__(self) -> Iterator[complex]:
        yield self.tau1
        yield self.tau2

    def ray_point(self, t) -> "DiskPoint":
        """The point (1-t) * tau on the radial ray into the bidisk; an array t gives a batch."""
        return DiskPoint((1.0 - t) * self.tau1, (1.0 - t) * self.tau2)


@dataclass(frozen=True)
class DiskPoint:
    """Point of the (closed) bidisk.

    ``lam1`` and ``lam2`` may also be equal-length 1-d complex arrays; such a
    batch stands for one point per entry and is what the batched
    evaluation routes pass to a callable ``phi``.
    """

    lam1: complex
    lam2: complex

    def __iter__(self) -> Iterator[complex]:
        yield self.lam1
        yield self.lam2

    @property
    def inf_norm(self) -> float:
        return max(abs(self.lam1), abs(self.lam2))

    def in_open_bidisk(self) -> bool:
        return self.inf_norm < 1.0


def as_pair(p) -> tuple[complex, complex]:
    """Coerce a 2-point (BoundaryPoint, DiskPoint, tuple, ...) to complex pair."""
    a, b = p
    return complex(a), complex(b)


def is_batch(p) -> bool:
    """True when the coordinates of p are arrays (a batch of points)."""
    a, b = p
    # getattr, not np.ndim: this runs on every scalar-path evaluation
    return getattr(a, "ndim", 0) > 0 or getattr(b, "ndim", 0) > 0


def as_coords(p):
    """Complex pair for one point, a pair of complex arrays for a batch."""
    a, b = p
    if getattr(a, "ndim", 0) > 0 or getattr(b, "ndim", 0) > 0:
        return np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return complex(a), complex(b)


def stack_points(p) -> np.ndarray:
    """The (N, 2) complex array of one point (N = 1) or of a batch."""
    a, b = p
    if getattr(a, "ndim", 0) == 0 and getattr(b, "ndim", 0) == 0:
        return np.array([[a, b]], dtype=complex)
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    out = np.empty((a.size, 2), dtype=complex)
    out[:, 0], out[:, 1] = a.ravel(), b.ravel()
    return out


def batch_points(points) -> DiskPoint:
    """One batch DiskPoint holding a sequence of points."""
    arr = np.array([as_pair(p) for p in points], dtype=complex).reshape(-1, 2)
    return DiskPoint(arr[:, 0], arr[:, 1])


def modulus(z):
    """|z| by libm's hypot, rounded as abs() rounds it for a Python complex."""
    return np.hypot(np.real(z), np.imag(z))


def _inward(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Re(conj(t_i) d_i) for a stacked point t and (N, 2) directions, rounded as Python rounds it.

    Written in real arithmetic: NumPy's complex product may fuse the
    multiply and the add, which moves the last bit.
    """
    return t.real * d.real + t.imag * d.imag


def _checked_inward(tau, d: np.ndarray) -> np.ndarray:
    """:func:`_inward` at tau, raising for the first of the (N, 2) directions d that is not admissible."""
    a = _inward(stack_points(tau), d)
    ok = (a < 0.0).all(axis=1)
    if not ok.all():
        first = d[np.argmin(ok)]
        raise InadmissibleDirectionError(
            f"direction {tuple(as_pair(first))!r} does not point into the bidisk at "
            f"{tuple(as_pair(tau))!r}"
        )
    return a


def is_admissible_direction(tau, delta):
    """True when the direction points into the bidisk at tau.

    The rotation-covariant condition Re(conj(tau_i) * delta_i) < 0 in both
    coordinates guarantees tau + t*delta lies in the open bidisk for small
    t > 0.  A batch delta (array coordinates) gives one flag per direction.
    """
    ok = (_inward(stack_points(tau), stack_points(delta)) < 0.0).all(axis=1)
    return ok if is_batch(delta) else bool(ok[0])


def require_admissible(tau, delta) -> np.ndarray:
    """Raise for the first direction of delta (one, or a batch) that is not admissible.

    Returns the (N, 2) array of the directions.
    """
    d = stack_points(delta)
    _checked_inward(tau, d)
    return d


def direction_entry_time(tau, delta):
    """Largest t0 such that tau + t*delta stays in the open bidisk for 0 < t < t0.

    A batch delta gives one time per direction.
    """
    d = stack_points(delta)
    # |tau + t delta|^2 = |tau|^2 + 2 t a + t^2 |delta|^2 < 1, with |delta|^2
    # by hypot and pow, as abs(z) ** 2 computes it for a Python complex
    a = _checked_inward(tau, d)
    times = (-2.0 * a / np.float_power(modulus(d), 2.0)).min(axis=1)
    return times if is_batch(delta) else float(times[0])
