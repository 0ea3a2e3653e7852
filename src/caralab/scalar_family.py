"""The one-parameter family of rational inner functions on the bidisk.

Writing p = conj(tau1) lam1 and q = conj(tau2) lam2 for a boundary point
tau, the family is

    phi_y(lam) = (y p + (1-y) q - p q) / (1 - (1-y) p - y q),

inner on the bidisk, equal to r along the radial ray (r tau1, r tau2), and
for y strictly between 0 and 1 carrying a boundary singularity at tau whose
directional derivative is genuinely nonlinear.  Each member has an explicit
two-dimensional model vector, the scalar building block of the
operator-valued theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameterError, PoleHitError
from .points import as_points, require_admissible

#: denominators smaller than this are treated as poles (boundary zero set)
POLE_TOL = 1e-14


def _check_y(y: float) -> float:
    y = float(y)
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"parameter y={y!r} outside [0, 1]")
    return y


def _check_interior(y: float) -> float:
    y = _check_y(y)
    if y in (0.0, 1.0):
        raise DegenerateParameterError(
            "model vector formula degenerates at y in {0, 1}; "
            "the endpoint functions are plain monomials"
        )
    return y


def _pq(tau, points: np.ndarray):
    """The rotated coordinates p = conj(tau1) lam1, q = conj(tau2) lam2 of (N, 2) points."""
    t1, t2 = tau
    return t1.conjugate() * points[:, 0], t2.conjugate() * points[:, 1]


def _denominator(y, p, q):
    den = (1.0 - y) * (1.0 - p) + y * (1.0 - q)
    small = abs(den) < POLE_TOL
    if small.any():
        raise PoleHitError(f"denominator vanishes: |den| = {float(np.min(abs(den))):.3e}")
    return den


def phi_y_eval(y: float, tau, lam):
    """Evaluate phi_y at a point of the closed bidisk; an (N, 2) array of points gives an array.

    The endpoint parameters y = 0, 1 reduce to the coordinate monomials
    conj(tau2) lam2 and conj(tau1) lam1 and are short-circuited exactly.
    """
    y = _check_y(y)
    points, single = as_points(lam)
    p, q = _pq(tau, points)
    if y == 1.0:
        value = p
    elif y == 0.0:
        value = q
    else:
        value = _value(y, p, q, _denominator(y, p, q))
    return complex(value[0]) if single else value


def _value(y, p, q, den):
    """phi_y at the rotated coordinates p, q, given its denominator."""
    return (y * p * (1.0 - q) + (1.0 - y) * q * (1.0 - p)) / den


def _components(y, p, q, den):
    """The model components u1, u2 of phi_y at the rotated coordinates p, q, given its denominator."""
    return np.sqrt(y) * (1.0 - q) / den, np.sqrt(1.0 - y) * (1.0 - p) / den


@dataclass(frozen=True)
class ScalarModelVector:
    """Two-dimensional model vector of phi_y at a point of the bidisk.

    ``u1``/``u2`` are the components in the standard basis.  ``coef_plus``
    = sqrt(y(1-y)) (p - q) / den is the component along the unit vector
    (sqrt(1-y), -sqrt(y)); it vanishes on the diagonal p = q and is the
    quantity the nontangential bound controls.  The component along
    (sqrt(y), sqrt(1-y)) is identically 1.
    """

    y: float
    u1: complex
    u2: complex
    coef_plus: complex

    @property
    def norm(self):
        """||u||; one norm per point for array fields."""
        if np.ndim(self.u1):
            return np.hypot(np.abs(self.u1), np.abs(self.u2))
        return float(math.hypot(abs(self.u1), abs(self.u2)))


def phi_y_model_vector(y: float, tau, lam) -> ScalarModelVector:
    """Model vector u_{y, lam} for y strictly inside (0, 1); an (N, 2) array of points gives array fields."""
    y = _check_interior(y)
    points, single = as_points(lam)
    p, q = _pq(tau, points)
    den = _denominator(y, p, q)
    u1, u2 = _components(y, p, q, den)
    coef_plus = math.sqrt(y * (1.0 - y)) * (p - q) / den
    if single:
        u1, u2, coef_plus = complex(u1[0]), complex(u2[0]), complex(coef_plus[0])
    return ScalarModelVector(y, u1, u2, coef_plus)


def phi_y_model_components(ys, tau, lam) -> tuple[np.ndarray, np.ndarray]:
    """Components u1, u2 of the model vectors of phi_y for an array of y in (0, 1).

    An (N, 2) array of points gives two (N, len(ys)) arrays, one column per
    parameter, each rounded as :func:`phi_y_model_vector` rounds it; one
    point gives two (len(ys),) arrays.
    """
    ys = np.asarray(ys, dtype=float)
    points, single = as_points(lam)
    p, q = (z[:, None] for z in _pq(tau, points))
    u1, u2 = _components(ys, p, q, _denominator(ys, p, q))
    return (u1[0], u2[0]) if single else (u1, u2)


def phi_y_model_residual(y: float, tau, lam, mu):
    """Absolute defect of the two-variable model identity at a pair of points.

    The identity equates 1 - conj(phi(mu)) phi(lam) with the weighted inner
    products of the model vectors; it is algebraic, so the residual is
    rounding noise.  (N, 2) arrays lam and mu give one residual per pair.
    The N points lam and the N points mu are evaluated together, as one
    (2N, 2) array; a pole reports the smallest |den| over both.
    """
    y = _check_interior(y)
    (pl, one_lam), (pm, one_mu) = as_points(lam), as_points(mu)
    pl, pm = np.broadcast_arrays(pl, pm)
    k = len(pl)
    p, q = _pq(tau, np.concatenate([pl, pm]))
    den = _denominator(y, p, q)
    phi = _value(y, p, q, den)
    u1, u2 = _components(y, p, q, den)
    lhs = 1.0 - phi[k:].conjugate() * phi[:k]
    gram = 1.0 - pm.conjugate() * pl
    rhs = gram[:, 0] * u1[:k] * u1[k:].conjugate() + gram[:, 1] * u2[:k] * u2[k:].conjugate()
    residual = abs(lhs - rhs)
    return float(residual[0]) if one_lam and one_mu else residual


def phi_y_directional_derivative(y: float, tau, delta):
    """Directional derivative of phi_y at tau along an admissible direction.

    Closed form a*b / (a*(1-y) + b*y) with a = conj(tau1) delta1 and
    b = conj(tau2) delta2; degree-1 homogeneous in delta, and linear in
    delta only at the endpoint parameters.  An (N, 2) array of directions
    gives one derivative per direction.  No denominator vanishes: its real
    part (1-y) Re a + y Re b is < 0 for an admissible direction.
    """
    y = _check_y(y)
    d, single = as_points(delta)
    require_admissible(tau, d)
    a, b = _pq(tau, d)
    value = a * b / (a * (1.0 - y) + b * y)
    return complex(value[0]) if single else value


def model_vector_bound(y: float, aperture: float) -> float:
    """Nontangential bound on ||u_{y, lam}|| over an aperture-c region."""
    return 2.0 * aperture * math.sqrt(y * (1.0 - y)) + 1.0
