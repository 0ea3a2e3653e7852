"""The one-parameter family of rational inner functions on the bidisk.

Writing p = conj(tau1) lam1 and q = conj(tau2) lam2 for a boundary point
tau, the family is

    phi_y(lam) = (y p + (1-y) q - p q) / (1 - (1-y) p - y q),

inner on the bidisk, equal to r along the radial ray (r tau1, r tau2), and
for y strictly between 0 and 1 carrying a boundary singularity at tau whose
directional derivative is genuinely nonlinear.  Each member has an explicit
two-dimensional model vector, the scalar building block of the
operator-valued theory.  phi_y is the pencil I_Y at Y = [[y]], computed by
the pencil's kernel as 1 - ab/d at the offsets a = 1 - p and b = 1 - q,
with d = a(1-y) + by and the pencil's one pole rule.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateParameterError
from .pencil import _denominator, _phi_denominators, _phi_values, _rotated
from .points import as_points, require_admissible


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


def phi_y_eval(y: float, tau, lam):
    """Evaluate phi_y at a point of the closed bidisk; an (N, 2) array of points gives an array.

    The value is the pencil's kernel at the one weight y: a pole raises
    SingularDenominatorError by the SINGULAR_RTOL rule, and points within
    TAU_SNAP of tau give exactly 1.  The endpoint parameters y = 0, 1
    reduce to the coordinate monomials conj(tau2) lam2 and conj(tau1) lam1
    and are short-circuited exactly.
    """
    y = _check_y(y)
    points, single = as_points(lam)
    if y in (0.0, 1.0):
        p, q = _rotated(tau, points)
        value = p if y == 1.0 else q
    else:
        value = _phi_values(*_phi_denominators(tau, np.array([y]), points))[0]
    return complex(value[0]) if single else value


def _components(ys: np.ndarray, tau, points: np.ndarray):
    """u1 = sqrt(y) b/d and u2 = sqrt(1-y) a/d, (len(ys), N), and the kernel's (a, b, at_tau, d).

    The model vector has no limit at tau, so the pole rule exempts no point.
    """
    a, b, at_tau, den = _phi_denominators(tau, ys, points, snap=False)
    return np.sqrt(ys)[:, None] * b / den, np.sqrt(1.0 - ys)[:, None] * a / den, (a, b, at_tau, den)


def phi_y_model_components(ys, tau, lam) -> tuple[np.ndarray, np.ndarray]:
    """Components u1, u2 of the model vectors of phi_y for an array of y in (0, 1).

    An (N, 2) array of points gives two (N, len(ys)) arrays, one column per
    parameter, each bit for bit that of a one-parameter call; one point
    gives two (len(ys),) arrays.  Along the unit vector (sqrt(y), sqrt(1-y))
    the model vector's component is identically 1.  Along (sqrt(1-y), -sqrt(y))
    it is sqrt(1-y) u1 - sqrt(y) u2 = sqrt(y(1-y)) (b - a) / d, which vanishes
    on the diagonal p = q and has no limit at tau.
    """
    points, single = as_points(lam)
    u1, u2, _ = _components(np.asarray(ys, dtype=float), tau, points)
    return (u1[:, 0], u2[:, 0]) if single else (u1.T, u2.T)


def standard_identity_defect(points: np.ndarray, u1: np.ndarray, u2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Defects of 1 - conj(phi(mu)) phi(lam) = sum_j (1 - conj(mu_j) lam_j) < u_j(lam), u_j(mu) >.

    ``points`` holds K points lam followed by K points mu, and u1, u2 (one
    row per point) and phi are taken there; one defect per pair.  The
    inner products run over the columns, so any orthonormal basis serves.
    """
    k = len(points) // 2
    pl, pm = points[:k], points[k:]
    lhs = 1.0 - np.conj(phi[k:]) * phi[:k]
    rhs = (1.0 - np.conj(pm[:, 0]) * pl[:, 0]) * np.sum(np.conj(u1[k:]) * u1[:k], axis=1) + (
        1.0 - np.conj(pm[:, 1]) * pl[:, 1]
    ) * np.sum(np.conj(u2[k:]) * u2[:k], axis=1)
    return np.abs(lhs - rhs)


def phi_y_model_residual(y: float, tau, lam, mu):
    """Absolute defect of the two-variable model identity at a pair of points.

    :func:`standard_identity_defect` on the components; the identity is
    algebraic, so the residual is rounding noise.  (N, 2) arrays lam and mu
    give one residual per pair, evaluated together as one (2N, 2) array; a
    pole, tau included, raises SingularDenominatorError naming the first.
    """
    y = _check_interior(y)
    (pl, one_lam), (pm, one_mu) = as_points(lam), as_points(mu)
    points = np.concatenate(np.broadcast_arrays(pl, pm))
    u1, u2, kernel = _components(np.array([y]), tau, points)
    residual = standard_identity_defect(points, u1.T, u2.T, _phi_values(*kernel)[0])
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
    a, b = _rotated(tau, d)
    value = a * b / _denominator(a, b, y)
    return complex(value[0]) if single else value
