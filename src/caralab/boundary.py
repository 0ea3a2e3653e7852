"""Boundary analysis at a distinguished-boundary point.

Nontangential approach grids, Caratheodory-quotient carapoint detection,
directional derivatives by two independent routes (spectral calculus on
the ray limit of the model vector versus finite differences), the derived
standard model, the Julia-quotient ray identity, and the regular /
singular / purely-singular classification of a generalized model.

Scans collect their points first and call ``phi`` once on a batch
DiskPoint (array coordinates).  A callable that cannot take a batch, for
instance one that branches in Python on a coordinate, raises ValueError
or TypeError on it and is then evaluated point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadApertureError,
    CaralabError,
    NoConvergenceError,
    NoLimitError,
    UnconvergedError,
)
from .extrapolate import richardson_limit
from .points import (
    BoundaryPoint,
    DiskPoint,
    as_coords,
    as_pair,
    batch_points,
    direction_entry_time,
    is_batch,
    modulus,
    require_admissible,
    stack_points,
)
from .realization import GeneralizedRealization, RAY_EXPONENTS
from .scalar_family import phi_y_model_components

#: quotient ceiling above which an approach to the boundary counts as unbounded
QUOTIENT_BOUND = 1e6

#: deepest dyadic exponent used when refining the ray for carapoint detection
DETECT_EXPONENT = 24

#: deepest dyadic exponent feeding the alpha extrapolation; beyond this the
#: rounding noise u/t of the quotient outweighs the truncation gain
ALPHA_EXPONENT = 20

#: classification cutoff on the component of the ray limit outside ker Y(1-Y)
DEFAULT_CLASS_TOL = 1e-7

#: gray zone above class_tol reported as indeterminate instead of singular
INDETERMINATE_TOL = 1e-3

#: linearity defect thresholds matching the classification cutoffs
DEFECT_REGULAR_TOL = 1e-6
DEFECT_SINGULAR_TOL = 1e-3

#: largest spread between the extrapolated limits of two approach families
FAMILY_TOL = 1e-5

#: extrapolated difference steps per direction of a finite-difference derivative
FD_STEPS = 15

#: aperture of the nontangential cone and depth of its dyadic grid
DEFAULT_APERTURE = 2.0
DEFAULT_DEPTH = 12

#: most grids :func:`build_grid` keeps; the oldest is dropped first
GRID_MEMO_SIZE = 16

#: built grids, keyed on the exact bits of (tau, aperture) and the depth
_GRIDS: dict[tuple, NontangentialGrid] = {}


def satisfies_aperture(tau, lam, aperture: float, slack: float = 0.0):
    """Check the nontangential inequality ||tau - lam||_inf <= c (1 - ||lam||_inf).

    ``slack`` absorbs representation noise: the radial ray sits exactly on
    the aperture-1 cone boundary, where the ~1e-16 modulus error of a
    stored boundary point would otherwise flip the comparison.  A batch
    lam (array coordinates) gives one flag per point.
    """
    (t1, t2), (l1, l2) = as_pair(tau), as_coords(lam)
    gap = np.maximum(modulus(t1 - l1), modulus(t2 - l2))
    ok = gap <= aperture * (1.0 - np.maximum(modulus(l1), modulus(l2))) + slack
    return ok if is_batch(lam) else bool(ok)


@dataclass(frozen=True, eq=False)
class NontangentialGrid:
    """Points approaching tau inside an aperture cone, grouped by family.

    Each family follows one approach geometry (the radial ray, skewed
    radial scalings, small angular detours) sampled along the dyadic
    schedule t = 2^-k, k = 1..depth: ``coords[f, k - 1]`` is the point of
    family ``names[f]`` at t = 2^-k.  ``batch`` holds every point as one
    batch DiskPoint; ``families``, ``points`` and ``ray`` are views.
    """

    tau: BoundaryPoint
    aperture: float
    depth: int
    names: tuple[str, ...]
    coords: np.ndarray  # (len(names), depth, 2) complex

    @property
    def batch(self) -> DiskPoint:
        return DiskPoint(*self.coords.reshape(-1, 2).T)

    @property
    def families(self) -> tuple[tuple[str, tuple[tuple[float, DiskPoint], ...]], ...]:
        ts = np.ldexp(1.0, -np.arange(1, self.depth + 1)).tolist()
        rows = [tuple((t, DiskPoint(a, b)) for t, (a, b) in zip(ts, c.tolist())) for c in self.coords]
        return tuple(zip(self.names, rows))

    @property
    def points(self) -> list[DiskPoint]:
        return [pt for _, pts in self.families for _, pt in pts]

    @property
    def ray(self) -> tuple[tuple[float, DiskPoint], ...]:
        return dict(self.families)["ray"]


def build_grid(
    tau, aperture: float = DEFAULT_APERTURE, depth: int = DEFAULT_DEPTH
) -> NontangentialGrid:
    """Build a deterministic nontangential grid at tau.

    Contains the radial ray (1 - 2^-k) tau, radial scalings with per-
    coordinate speed ratios down to 1/aperture, and (for aperture > 1)
    angular detours; every stored point satisfies the aperture inequality
    exactly.  The grid is read-only, so equal arguments share one: it is
    memoized on the exact bits of tau and aperture (0.0 and -0.0 differ)
    and on the depth, for the last GRID_MEMO_SIZE arguments.
    """
    if not (math.isfinite(aperture) and aperture >= 1.0):
        raise BadApertureError(f"aperture {aperture!r} is not a finite number >= 1")
    if not 1 <= depth <= 48:
        # beyond 2^-48 the schedule is within a few ulp of the boundary
        raise ValueError("depth must lie in 1..48")
    t1, t2 = as_pair(tau)
    key = (np.array([t1, t2, aperture], dtype=complex).tobytes(), type(depth), depth)
    grid = _GRIDS.get(key)
    if grid is None:
        tau = tau if isinstance(tau, BoundaryPoint) else BoundaryPoint(t1, t2)
        grid = _build_grid(tau, aperture, depth)
        if len(_GRIDS) >= GRID_MEMO_SIZE:
            del _GRIDS[next(iter(_GRIDS))]
        _GRIDS[key] = grid
    return grid


def _build_grid(tau: BoundaryPoint, aperture: float, depth: int) -> NontangentialGrid:
    t1, t2 = as_pair(tau)
    ts = np.ldexp(1.0, -np.arange(1, depth + 1))  # exactly 2^-k

    def radial(u1: float, u2: float) -> np.ndarray:
        return np.stack([(1.0 - ts * u1) * t1, (1.0 - ts * u2) * t2], axis=1)

    def angular(theta1: float, theta2: float) -> np.ndarray:
        # math.cos/sin and Python complex products, for the scalar rounding
        return np.array([
            [(1.0 - t) * complex(math.cos(theta * t), math.sin(theta * t)) * tz
             for theta, tz in ((theta1, t1), (theta2, t2))]
            for t in ts.tolist()
        ])

    families = [("ray", radial(1.0, 1.0))]
    if aperture > 1.0:
        ratios = sorted({1.0 / aperture, (1.0 + 1.0 / aperture) / 2.0})
        for r in ratios:
            families.append((f"radial(1,{r:g})", radial(1.0, r)))
            families.append((f"radial({r:g},1)", radial(r, 1.0)))
        # safe angular speed: sqrt(1 + kappa^2) <= aperture with margin;
        # the aperture is not squared, so a huge one cannot overflow
        kappa = 0.9 * math.sqrt(aperture - 1.0) * math.sqrt(aperture + 1.0)
        families.append((f"angular(+{kappa:.3g},0)", angular(kappa, 0.0)))
        families.append((f"angular(0,-{kappa:.3g})", angular(0.0, -kappa)))

    names, coords = zip(*families)
    coords = np.stack(coords)
    coords.flags.writeable = False
    lam = (coords[..., 0], coords[..., 1])
    ok = (np.maximum(*map(modulus, lam)) < 1.0) & satisfies_aperture(tau, lam, aperture, slack=1e-12)
    if not ok.all():
        # happens only for huge apertures: the radial speed 1/aperture is
        # then lost to rounding near the boundary
        f, k = np.unravel_index(np.argmin(ok), ok.shape)
        raise BadApertureError(
            f"grid family {names[f]!r} leaves the open bidisk or its cone at t={float(ts[k])!r} "
            f"for aperture {aperture!r}"
        )
    return NontangentialGrid(tau, float(aperture), int(depth), names, coords)


def _phi_on(phi: Callable[[DiskPoint], complex], lam: DiskPoint) -> np.ndarray:
    """phi at every point of a batch, by one call when phi broadcasts."""
    try:
        values = phi(lam)
    except (TypeError, ValueError):
        values = [phi(DiskPoint(complex(a), complex(b))) for a, b in zip(lam.lam1, lam.lam2)]
    return np.broadcast_to(np.asarray(values, dtype=complex), np.shape(lam.lam1))


def cara_quotient(phi: Callable[[DiskPoint], complex], lam):
    """The Caratheodory quotient (1 - |phi(lam)|) / (1 - ||lam||_inf).

    A batch lam gives an array of quotients from one call of phi.
    """
    l1, l2 = (np.atleast_1d(np.asarray(z, dtype=complex)) for z in lam)
    gap = 1.0 - np.maximum(np.abs(l1), np.abs(l2))
    quotient = (1.0 - np.abs(_phi_on(phi, DiskPoint(l1, l2)))) / gap
    return quotient if is_batch(lam) else float(quotient[0])


@dataclass(frozen=True)
class CarapointScan:
    """Result of quotient-boundedness detection over a grid."""

    carapoint: bool
    alpha: float
    quotient_max: float
    quotient_min: float
    alpha_residual: float  # Richardson residual of the alpha extrapolation


def detect_carapoint(phi: Callable[[DiskPoint], complex], grid: NontangentialGrid) -> CarapointScan:
    """Decide boundedness of the Caratheodory quotient over the grid.

    The radial ray is refined down to t = 2^-DETECT_EXPONENT, where a
    quotient growing like 1/(1 - ||lam||_inf) crosses QUOTIENT_BOUND; alpha is
    the Richardson-extrapolated ray limit of the quotient, taken from the
    moderately deep ray samples where rounding is still negligible.
    """
    # one evaluation of the grid followed by the deeper ray points; the ray
    # quotients are the grid's ray family (t = 2^-k at k - 1) and the tail
    deeper = grid.tau.ray_point(np.ldexp(1.0, -np.arange(grid.depth + 1, DETECT_EXPONENT + 1)))
    grid_points = grid.coords.reshape(-1, 2)
    pts = np.concatenate([grid_points, stack_points(deeper)])
    quotients = cara_quotient(phi, DiskPoint(*pts.T))
    families = quotients[: len(grid_points)].reshape(len(grid.names), grid.depth)
    ray = np.concatenate([families[grid.names.index("ray")], quotients[len(grid_points) :]])
    k_hi = min(ALPHA_EXPONENT, len(ray))
    alpha, residual = richardson_limit(ray[max(1, k_hi - 7) - 1 : k_hi])
    qmax, qmin = quotients.max(), quotients.min()
    return CarapointScan(bool(qmax < QUOTIENT_BOUND), float(alpha), float(qmax), float(qmin), float(residual))


@dataclass(frozen=True)
class NontangentialLimit:
    """Extrapolated boundary value with the spread across approach families."""

    value: complex
    max_deviation: float


def nt_limit_phi(phi: Callable[[DiskPoint], complex], grid: NontangentialGrid) -> NontangentialLimit:
    """Nontangential limit of phi at the grid's boundary point.

    Extrapolates every approach family and cross-checks the off-ray limits
    against the ray limit; disagreement beyond FAMILY_TOL raises NoLimit.
    """
    values = _phi_on(phi, grid.batch)
    # every family samples the same schedule: one column per family
    columns, _ = richardson_limit(values.reshape(len(grid.names), -1).T)
    ray_value = complex(columns[grid.names.index("ray")])
    deviation = float(modulus(columns - ray_value).max())
    if deviation > FAMILY_TOL:
        raise NoLimitError(f"approach families disagree by {deviation:.3e} (> {FAMILY_TOL:.1e})")
    return NontangentialLimit(ray_value, float(deviation))


def derivative_fd(
    phi: Callable[[DiskPoint], complex],
    tau,
    delta,
    phi_tau: complex | None = None,
) -> complex | np.ndarray:
    """Directional derivative at tau by extrapolated difference quotients.

    The step schedule is geometric inside the largest safe entry interval
    for the direction; phi(tau) defaults to the extrapolated radial limit.
    A batch ``delta`` (array coordinates, as in a batch DiskPoint) gives an
    array with one derivative per direction.  The steps of all directions
    are evaluated by one call of phi.  A batch that fails is re-run one
    direction at a time, so it raises what the first failing direction
    raises on its own.
    """
    tau = tau if isinstance(tau, BoundaryPoint) else BoundaryPoint(*as_pair(tau))
    deltas = stack_points(delta)
    try:
        limits = _fd_limits(phi, tau, deltas, phi_tau)
    except (CaralabError, ValueError):
        for one in deltas:
            _fd_limits(phi, tau, one[None], phi_tau)
        raise
    return limits if is_batch(delta) else complex(limits[0])


def _fd_limits(phi, tau: BoundaryPoint, deltas: np.ndarray, phi_tau) -> np.ndarray:
    """Extrapolated difference quotients along (K, 2) directions, from one call of phi.

    phi sees each distinct step point once, in order of first appearance.
    Points are equal when their bits are: directions that differ by a power
    of two share their steps, since the entry time scales exactly with them.
    """
    entry = direction_entry_time(tau, DiskPoint(*deltas.T))
    schedules = entry[:, None] / 8.0 * 2.0 ** -np.arange(FD_STEPS)
    if phi_tau is None:
        ray = tau.ray_point(np.ldexp(1.0, -np.arange(8, 21)))
        phi_tau = complex(richardson_limit(_phi_on(phi, ray))[0])
    steps = (stack_points(tau)[:, None, :] + schedules[..., None] * deltas[:, None, :]).reshape(-1, 2)
    rows = steps.view(np.dtype((np.void, 2 * steps.itemsize))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    keep = np.sort(first)
    values = _phi_on(phi, DiskPoint(*steps[keep].T))[np.searchsorted(keep, first)[inverse]]
    quotients = (values.reshape(schedules.shape) - phi_tau) / schedules
    limits, residuals = richardson_limit(quotients.T)  # one column per direction
    unsettled = residuals > 1e-4 * np.maximum(1.0, modulus(limits))
    if unsettled.any():
        residual = residuals[np.argmax(unsettled)]
        raise NoConvergenceError(f"difference quotients did not settle (residual {residual:.3e})")
    return limits


def derivative_model(model: GeneralizedRealization, delta):
    """Directional derivative at tau from the model's boundary data.

    Evaluates phi(tau) * < g(Y) v_tau, v_tau > with
    g(y) = a b / (a (1-y) + b y), a = conj(tau1) delta1,
    b = conj(tau2) delta2, in Y's eigenbasis, where v_tau is cached as
    U* v_tau; g has no pole on [0, 1] for admissible directions.  The
    unimodular prefactor phi(tau) comes from polarizing the model identity
    against the boundary value and is what makes this agree with the
    difference quotient for functions with phi(tau) != 1.  A batch delta
    (array coordinates) gives one derivative per direction from one (K, n) expression.
    """
    d = require_admissible(model.tau, delta)
    ray = model.v_at_tau()
    if not ray.converged:
        raise UnconvergedError("model vector has no converged ray limit at tau")
    a, b = (np.conj(stack_points(model.tau)) * d).T[..., None]
    w = model.pencil.contraction.decomposition.weights
    g = a * b / (a * (1.0 - w) + b * w)
    values = model.phi_at_tau() * np.sum(g * np.abs(ray.rotated) ** 2, axis=1)
    return values if is_batch(delta) else complex(values[0])


@dataclass(frozen=True)
class DerivativeEntry:
    delta: tuple[complex, complex]
    value: complex
    method: str  # "analytic" or "finite_difference"


@dataclass(frozen=True)
class DerivativeTable:
    """Directional derivatives at tau, tagged by evaluation method."""

    entries: tuple[DerivativeEntry, ...]

    def by_method(self, method: str) -> list[DerivativeEntry]:
        return [e for e in self.entries if e.method == method]

    def agreement(self) -> float:
        """Largest gap between the two methods over shared directions."""
        analytic = {e.delta: e.value for e in self.by_method("analytic")}
        worst = 0.0
        for e in self.by_method("finite_difference"):
            if e.delta in analytic:
                worst = max(worst, abs(analytic[e.delta] - e.value))
        return worst


def default_directions(tau, count: int = 12) -> list[tuple[complex, complex]]:
    """Deterministic admissible directions, rotation-covariant in tau."""
    scales = [
        (-1.0, -1.0),
        (-2.0, -1.0),
        (-1.0, -2.0),
        (-3.0, -1.0),
        (-1.0, -3.0),
        (-1.0 - 1.0j, -1.0),
        (-1.0, -1.0 + 1.0j),
        (-2.0 - 1.0j, -1.0 - 2.0j),
        (-0.5, -1.5),
        (-1.5, -0.5),
        (-2.5 + 0.5j, -1.0),
        (-1.0, -2.5 - 0.5j),
    ]
    t1, t2 = as_pair(tau)
    return [(s1 * t1, s2 * t2) for s1, s2 in scales[:count]]


def default_direction_pairs(tau) -> list[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """Admissible direction pairs probing additivity of the derivative.

    The leading pair dominates the defect for the scalar family (value 1/3
    at the midpoint parameter); the others probe asymmetric and complex
    combinations.
    """
    t1, t2 = as_pair(tau)

    def d(s1, s2):
        return (s1 * t1, s2 * t2)

    return [
        (d(-2, -1), d(-1, -2)),
        (d(-1, -1), d(-1, -2)),
        (d(-1 - 1j, -1), d(-1, -1 + 1j)),
    ]


def derivative_table(
    model: GeneralizedRealization, deltas: Sequence[tuple[complex, complex]] | None = None
) -> DerivativeTable:
    """Tabulate directional derivatives of a realization at tau.

    Each direction gets its analytic entry, then its finite-difference
    entry.  Each column comes from one batched call, of
    :func:`derivative_model` and of :func:`derivative_fd`.  If anything
    fails, the table is rebuilt direction by direction in that order, so
    the error raised is the first one that order meets.
    """
    if deltas is None:
        deltas = default_directions(model.tau)
    batch = batch_points(deltas)
    phi_tau = model.phi_at_tau()
    try:
        analytic = derivative_model(model, batch).tolist()
        fds = derivative_fd(model.phi, model.tau, batch, phi_tau=phi_tau).tolist()
    except (CaralabError, ValueError):
        for delta in deltas:
            derivative_model(model, delta)
            derivative_fd(model.phi, model.tau, delta, phi_tau=phi_tau)
        raise
    entries = []
    for pair, an, fd in zip(map(tuple, stack_points(batch).tolist()), analytic, fds):
        entries += [DerivativeEntry(pair, an, "analytic"), DerivativeEntry(pair, fd, "finite_difference")]
    return DerivativeTable(tuple(entries))


def linearity_defect(
    derivative: Callable[[tuple[complex, complex]], complex],
    pairs: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
) -> float:
    """Largest additivity defect |D(a+b) - D(a) - D(b)| over direction pairs.

    The directions a+b, a, b of every pair, in that order, go to one call
    of ``derivative`` as a batch (array coordinates); a callable that
    cannot take one is called once per direction with a complex pair.
    """
    a, b = (np.array([as_pair(p[i]) for p in pairs], dtype=complex).reshape(-1, 2) for i in (0, 1))
    dirs = np.stack([a + b, a, b], axis=1).reshape(-1, 2)
    try:
        values = np.asarray(derivative(DiskPoint(*dirs.T)), dtype=complex).reshape(len(dirs))
    except (TypeError, ValueError):
        values = np.array([derivative(tuple(d)) for d in dirs.tolist()], dtype=complex)
    joint, da, db = values.reshape(-1, 3).T
    return float(modulus(joint - da - db).max(initial=0.0))


# -- derived standard model ----------------------------------------------


def standard_model_rotated(model: GeneralizedRealization, lam):
    """Standard model components u1', u2', model vector v' and phi at lam, from one evaluation.

    The vectors are in Y's eigenbasis (v = U v'), which keeps norms and
    inner products; a batch lam gives one row per point.  See
    :func:`standard_model_components`.
    """
    points = stack_points(lam)
    return standard_model_components(model, points, model.evaluate(points))


def standard_model_components(model: GeneralizedRealization, points: np.ndarray, evaluation):
    """u1', u2', v' and phi at (N, 2) points, from ``evaluation = model.evaluate(points)``.

    Column i of v' is weighted by (1, 0) at eigenvalue 1, (0, 1) at 0, and
    the scalar-family model components in between, all from one expression.
    """
    w = model.pencil.contraction.decomposition.weights
    _, v, phi = evaluation
    w1 = np.zeros_like(v)
    w2 = np.zeros_like(v)
    w1[:, w == 1.0] = 1.0
    w2[:, w == 0.0] = 1.0
    inner = (w > 0.0) & (w < 1.0)
    w1[:, inner], w2[:, inner] = phi_y_model_components(w[inner], model.tau, DiskPoint(*points.T))
    return w1 * v, w2 * v, v, phi


def standard_model_pair(model: GeneralizedRealization, lam) -> tuple[np.ndarray, np.ndarray]:
    """The two components of the derived standard model vector at lam.

    The pencil's spectral decomposition splits the state space; endpoint
    eigenvalues contribute the constant weights (1, 0) and (0, 1), interior
    eigenvalues the scalar-family model components, each multiplying the
    corresponding eigenspace component of v(lam).  A batch lam gives one
    row per point.
    """
    u1, u2, _, _ = standard_model_rotated(model, lam)
    ut = model.pencil.contraction.decomposition.eigenvectors.T
    u1, u2 = u1 @ ut, u2 @ ut
    return (u1, u2) if is_batch(lam) else (u1[0], u2[0])


def standard_model_residual(model: GeneralizedRealization, lam, mu):
    """Defect of the ordinary model identity for the derived standard model.

    Batches lam and mu give one residual per pair; see
    :func:`standard_identity_defect`.
    """
    points = np.concatenate(np.broadcast_arrays(stack_points(lam), stack_points(mu)))
    u1, u2, _, phi = standard_model_components(model, points, model.evaluate(points))
    residual = standard_identity_defect(points, u1, u2, phi)
    return residual if is_batch(lam) or is_batch(mu) else float(residual[0])


def standard_identity_defect(points: np.ndarray, u1: np.ndarray, u2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Defects of 1 - conj(phi(mu)) phi(lam) = sum_j (1 - conj(mu_j) lam_j) < u_j(lam), u_j(mu) >.

    ``points`` holds K points lam followed by K points mu, and u1, u2, phi
    are taken there (:func:`standard_model_components`); one defect per
    pair.  Inner products are invariant under the eigenbasis rotation, so
    they are taken there.
    """
    k = len(points) // 2
    pl, pm = points[:k], points[k:]
    lhs = 1.0 - np.conj(phi[k:]) * phi[:k]
    rhs = (1.0 - np.conj(pm[:, 0]) * pl[:, 0]) * np.sum(np.conj(u1[k:]) * u1[:k], axis=1) + (
        1.0 - np.conj(pm[:, 1]) * pl[:, 1]
    ) * np.sum(np.conj(u2[k:]) * u2[:k], axis=1)
    return np.abs(lhs - rhs)


# -- Julia quotient along the ray ----------------------------------------


@dataclass(frozen=True)
class JuliaRow:
    """One ray sample of the squared-quotient identity."""

    t: float
    lhs: float  # ||v((1-t) tau)||^2
    rhs: float  # (1 - |phi|^2) / (1 - ||lam||_inf^2)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def julia_quotient_ray(
    model: GeneralizedRealization, exponents: tuple[int, int] = RAY_EXPONENTS
) -> list[JuliaRow]:
    """Sample both sides of the squared Julia quotient along the radial ray.

    Evaluated in extended precision: the denominators shrink to 2^-20 and
    double rounding would swamp the 1e-9 identity budget.
    """
    ts = 2.0 ** -np.arange(int(exponents[0]), int(exponents[1]) + 1)
    v, phi = model.ray_state(ts)
    lhs = (v * v.conj()).real.sum(axis=1)
    num = 1 - (phi * phi.conj()).real
    tx = ts.astype(np.longdouble)
    rhs = num / (tx * (2 - tx))  # 1 - (1-t)^2, exactly
    return [JuliaRow(float(t), float(l), float(r)) for t, l, r in zip(ts, lhs, rhs)]


# -- classification -------------------------------------------------------


@dataclass(frozen=True)
class BoundaryReport:
    """Verdict of the boundary analysis of a realization at tau."""

    carapoint: bool
    alpha: float
    phi_tau: complex
    v_tau_norm: float
    classification: str  # regular | singular | purely_singular | indeterminate
    linearity_defect: float
    singular_part_norm: float  # ||P_{N-perp} v_tau||, N = ker Y(1-Y)
    kernel_part_norm: float  # ||P_N v_tau||
    cross_check_ok: bool
    quotient_max: float
    grid: NontangentialGrid = field(repr=False, compare=False)  # the scanned grid, not reported

    def to_json(self) -> dict:
        return {
            "carapoint": self.carapoint,
            "alpha": self.alpha,
            "phi_tau": [self.phi_tau.real, self.phi_tau.imag],
            "v_tau_norm": self.v_tau_norm,
            "classification": self.classification,
            "linearity_defect": self.linearity_defect,
            "singular_part_norm": self.singular_part_norm,
            "kernel_part_norm": self.kernel_part_norm,
            "cross_check_ok": self.cross_check_ok,
            "quotient_max": self.quotient_max,
        }


def classify_model(
    model: GeneralizedRealization,
    class_tol: float = DEFAULT_CLASS_TOL,
    aperture: float = DEFAULT_APERTURE,
    depth: int = DEFAULT_DEPTH,
) -> BoundaryReport:
    """Classify a generalized model by the geometry of its ray limit.

    Regular when the component of v_tau outside ker Y(1-Y) vanishes,
    purely singular when the component inside vanishes instead, singular
    otherwise; components between class_tol and INDETERMINATE_TOL are
    reported as indeterminate rather than silently classified.  The
    linearity defect of :func:`derivative_model`, which reads the same
    v_tau and phi_tau, is recorded as an independent cross-check: it must
    vanish exactly for regular models.
    """
    ray = model.v_at_tau()
    if not ray.converged:
        raise UnconvergedError("ray limit of the model vector did not converge")
    weights = model.pencil.contraction.decomposition.weights
    endpoint = (weights == 0.0) | (weights == 1.0)
    singular_part = float(np.linalg.norm(ray.rotated[~endpoint]))
    kernel_part = float(np.linalg.norm(ray.rotated[endpoint]))

    if singular_part <= class_tol:
        classification = "regular"
    elif singular_part <= INDETERMINATE_TOL:
        classification = "indeterminate"
    elif kernel_part <= class_tol:
        classification = "purely_singular"
    else:
        classification = "singular"

    grid = build_grid(model.tau, aperture, depth)
    scan = detect_carapoint(model.phi, grid)
    defect = linearity_defect(lambda d: derivative_model(model, d), default_direction_pairs(model.tau))

    if classification == "regular":
        cross_check_ok = defect <= DEFECT_REGULAR_TOL
    elif classification == "indeterminate":
        cross_check_ok = True
    else:
        cross_check_ok = defect > DEFECT_SINGULAR_TOL

    return BoundaryReport(
        carapoint=scan.carapoint,
        alpha=scan.alpha,
        phi_tau=model.phi_at_tau(),
        v_tau_norm=float(np.linalg.norm(ray.value)),
        classification=classification,
        linearity_defect=float(defect),
        singular_part_norm=singular_part,
        kernel_part_norm=kernel_part,
        cross_check_ok=cross_check_ok,
        quotient_max=scan.quotient_max,
        grid=grid,
    )
