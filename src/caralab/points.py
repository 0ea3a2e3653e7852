"""Points of the bidisk and its distinguished boundary, and directions into it.

Inside caralab a set of N points (or directions) is an (N, 2) complex
array, one row per point.  :func:`as_points` is the one conversion from a
caller's argument to that form.
"""

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
    """Point of the two-torus, stored as a pair of unimodular complex coordinates.

    ``BoundaryPoint(*tau)`` turns any pair, a BoundaryPoint included, into one.
    """

    tau1: complex
    tau2: complex

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            z = getattr(self, name)
            if not cmath.isfinite(z):
                raise ValueError(f"boundary coordinate {z!r} is not finite")
            if abs(abs(z) - 1.0) > UNIMODULAR_TOL:
                raise ValueError(f"boundary coordinate {z!r} is not unimodular")
            object.__setattr__(self, name, complex(z))

    @classmethod
    def from_angles(cls, turns1: float, turns2: float) -> "BoundaryPoint":
        """Boundary point (e^{2 pi i t1}, e^{2 pi i t2}) with angles in turns; ValueError for a non-finite one."""

        def unit(turns: float) -> complex:
            if not cmath.isfinite(turns):
                raise ValueError(f"boundary angle {turns!r} is not finite")
            quarters = 4.0 * (turns % 1.0)
            if quarters == int(quarters):
                return _QUARTER[int(quarters) % 4]
            return cmath.exp(2j * cmath.pi * turns)

        return cls(unit(turns1), unit(turns2))

    def __iter__(self) -> Iterator[complex]:
        yield self.tau1
        yield self.tau2

    def ray_point(self, t):
        """The point (1-t) * tau on the radial ray into the bidisk, as a pair of coordinates.

        An array of N values of t gives the (N, 2) array of the points.
        """
        if np.ndim(t):
            return np.stack([(1.0 - t) * self.tau1, (1.0 - t) * self.tau2], axis=1)
        return (1.0 - t) * self.tau1, (1.0 - t) * self.tau2


def as_points(p) -> tuple[np.ndarray, bool]:
    """The (N, 2) complex array of p, and whether p was one point.

    An ndarray must have shape (N, 2) and stands for N points.  Anything
    else must unpack into exactly two scalar coordinates (a tuple, a
    BoundaryPoint) and stands for one point.  Every other input
    raises ValueError.
    """
    if isinstance(p, np.ndarray):
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"an array of points must have shape (N, 2), not {p.shape}")
        return p.astype(complex, copy=False), False
    try:
        a, b = p
        out = np.array([[a, b]], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{p!r} is not a point: expected two scalar coordinates") from exc
    if out.shape != (1, 2):
        raise ValueError(f"{p!r} is not a point: expected two scalar coordinates")
    return out, True


def modulus(z):
    """|z| by libm's hypot, rounded as abs() rounds it for a Python complex."""
    return np.hypot(np.real(z), np.imag(z))


def _inward(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Re(conj(t_i) d_i) for a stacked point t and (N, 2) directions, rounded as Python rounds it.

    Written in real arithmetic: NumPy's complex product may fuse the
    multiply and the add, which moves the last bit.
    """
    return t.real * d.real + t.imag * d.imag


def _admissible(tau, delta):
    """The directions of delta, whether it was one, and their entry times.

    Raises InadmissibleDirectionError naming the first inadmissible
    direction.  A direction is admissible when both coordinates are
    finite, it points into the bidisk at tau (Re(conj(tau_i) delta_i) < 0
    in both), and its entry time is a finite number > 0: |delta|^2 neither
    overflows nor underflows.  Overflow and NaN decide the verdict without
    a warning.
    """
    t, _ = as_points(tau)
    d, single = as_points(delta)
    with np.errstate(all="ignore"):
        a = _inward(t, d)
        # |tau + t delta|^2 = |tau|^2 + 2 t a + t^2 |delta|^2 < 1, with |delta|^2
        # by hypot and pow, as abs(z) ** 2 computes it for a Python complex
        times = (-2.0 * a / np.float_power(modulus(d), 2.0)).min(axis=1)
    finite, inward = np.isfinite(d).all(axis=1), (a < 0.0).all(axis=1)
    ok = finite & inward & np.isfinite(times) & (times > 0.0)
    if ok.all():
        return d, single, times
    k, at = np.argmin(ok), tuple(map(complex, t[0]))
    why = (
        "is not finite" if not finite[k]
        else f"does not point into the bidisk at {at!r}" if not inward[k]
        else f"has no finite entry time > 0 at {at!r}: |delta|^2 overflows or underflows"
    )
    raise InadmissibleDirectionError(f"direction {tuple(map(complex, d[k]))!r} {why}")


def require_admissible(tau, delta) -> np.ndarray:
    """Raise for the first direction of delta (one, or an (N, 2) array) that is not admissible.

    Returns the (N, 2) array of the directions.
    """
    return _admissible(tau, delta)[0]


def direction_entry_time(tau, delta):
    """Largest t0 such that tau + t*delta stays in the open bidisk for 0 < t < t0.

    An (N, 2) array of directions gives one time per direction; the first
    inadmissible direction raises.
    """
    _, single, times = _admissible(tau, delta)
    return float(times[0]) if single else times
