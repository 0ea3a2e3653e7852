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
    as_pair,
    batch_points,
    direction_entry_time,
    is_batch,
    require_admissible,
    stack_points,
)
from .realization import GeneralizedRealization, RAY_EXPONENTS
from .scalar_family import phi_y_model_vector

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


def satisfies_aperture(tau, lam, aperture: float, slack: float = 0.0) -> bool:
    """Check the nontangential inequality ||tau - lam||_inf <= c (1 - ||lam||_inf).

    ``slack`` absorbs representation noise: the radial ray sits exactly on
    the aperture-1 cone boundary, where the ~1e-16 modulus error of a
    stored boundary point would otherwise flip the comparison.
    """
    t1, t2 = as_pair(tau)
    l1, l2 = as_pair(lam)
    gap = max(abs(t1 - l1), abs(t2 - l2))
    return gap <= aperture * (1.0 - max(abs(l1), abs(l2))) + slack


@dataclass(frozen=True)
class NontangentialGrid:
    """Points approaching tau inside an aperture cone, grouped by family.

    Each family follows one approach geometry (the radial ray, skewed
    radial scalings, small angular detours) sampled along the dyadic
    schedule t = 2^-k, k = 1..depth.
    """

    tau: BoundaryPoint
    aperture: float
    depth: int
    families: tuple[tuple[str, tuple[tuple[float, DiskPoint], ...]], ...]

    @property
    def points(self) -> list[DiskPoint]:
        return [pt for _, pts in self.families for _, pt in pts]

    @property
    def ray(self) -> tuple[tuple[float, DiskPoint], ...]:
        for name, pts in self.families:
            if name == "ray":
                return pts
        raise KeyError("grid has no ray family")


def build_grid(
    tau, aperture: float = DEFAULT_APERTURE, depth: int = DEFAULT_DEPTH
) -> NontangentialGrid:
    """Build a deterministic nontangential grid at tau.

    Contains the radial ray (1 - 2^-k) tau, radial scalings with per-
    coordinate speed ratios down to 1/aperture, and (for aperture > 1)
    angular detours; every stored point satisfies the aperture inequality
    exactly.
    """
    if not (math.isfinite(aperture) and aperture >= 1.0):
        raise BadApertureError(f"aperture {aperture!r} is not a finite number >= 1")
    if not 1 <= depth <= 48:
        # beyond 2^-48 the schedule is within a few ulp of the boundary
        raise ValueError("depth must lie in 1..48")
    tau = tau if isinstance(tau, BoundaryPoint) else BoundaryPoint(*as_pair(tau))
    t1, t2 = as_pair(tau)
    ts = [2.0**-k for k in range(1, depth + 1)]

    def radial(u1: float, u2: float, t: float) -> DiskPoint:
        return DiskPoint((1.0 - t * u1) * t1, (1.0 - t * u2) * t2)

    def angular(theta1: float, theta2: float, t: float) -> DiskPoint:
        w1 = complex(math.cos(theta1 * t), math.sin(theta1 * t))
        w2 = complex(math.cos(theta2 * t), math.sin(theta2 * t))
        return DiskPoint((1.0 - t) * w1 * t1, (1.0 - t) * w2 * t2)

    makers: list[tuple[str, Callable[[float], DiskPoint]]] = [
        ("ray", lambda t: radial(1.0, 1.0, t))
    ]
    if aperture > 1.0:
        ratios = sorted({1.0 / aperture, (1.0 + 1.0 / aperture) / 2.0})
        for r in ratios:
            makers.append((f"radial(1,{r:g})", lambda t, r=r: radial(1.0, r, t)))
            makers.append((f"radial({r:g},1)", lambda t, r=r: radial(r, 1.0, t)))
        # safe angular speed: sqrt(1 + kappa^2) <= aperture with margin;
        # the aperture is not squared, so a huge one cannot overflow
        kappa = 0.9 * math.sqrt(aperture - 1.0) * math.sqrt(aperture + 1.0)
        makers.append((f"angular(+{kappa:.3g},0)", lambda t: angular(kappa, 0.0, t)))
        makers.append((f"angular(0,-{kappa:.3g})", lambda t: angular(0.0, -kappa, t)))

    families = []
    for name, make in makers:
        pts = []
        for t in ts:
            pt = make(t)
            if not pt.in_open_bidisk() or not satisfies_aperture(tau, pt, aperture, slack=1e-12):
                # happens only for huge apertures: the radial speed
                # 1/aperture is then lost to rounding near the boundary
                raise BadApertureError(
                    f"grid family {name!r} leaves the open bidisk or its cone at t={t!r} "
                    f"for aperture {aperture!r}"
                )
            pts.append((t, pt))
        families.append((name, tuple(pts)))
    return NontangentialGrid(tau, float(aperture), int(depth), tuple(families))


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


def detect_carapoint(phi: Callable[[DiskPoint], complex], grid: NontangentialGrid) -> CarapointScan:
    """Decide boundedness of the Caratheodory quotient over the grid.

    The radial ray is refined down to t = 2^-DETECT_EXPONENT, where a
    quotient growing like 1/(1 - ||lam||_inf) crosses QUOTIENT_BOUND; alpha is
    the Richardson-extrapolated ray limit of the quotient, taken from the
    moderately deep ray samples where rounding is still negligible.
    """
    # ray[k - 1] is the ray point at t = 2^-k; the grid's points follow it
    ray = [pt for _, pt in grid.ray]
    ray += [grid.tau.ray_point(2.0**-k) for k in range(grid.depth + 1, DETECT_EXPONENT + 1)]
    quotients = cara_quotient(phi, batch_points(ray + grid.points))
    k_hi = min(ALPHA_EXPONENT, len(ray))
    alpha, _ = richardson_limit(quotients[max(1, k_hi - 7) - 1 : k_hi])
    qmax, qmin = quotients.max(), quotients.min()
    return CarapointScan(bool(qmax < QUOTIENT_BOUND), float(alpha), float(qmax), float(qmin))


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
    values = _phi_on(phi, batch_points(grid.points))
    # every family samples the same schedule: one column per family
    columns, _ = richardson_limit(values.reshape(len(grid.families), -1).T)
    limits = {name: value for (name, _), value in zip(grid.families, columns)}
    ray_value = complex(limits["ray"])
    deviation = max(
        (abs(complex(v) - ray_value) for name, v in limits.items() if name != "ray"),
        default=0.0,
    )
    if deviation > FAMILY_TOL:
        raise NoLimitError(
            f"approach families disagree by {deviation:.3e} (> {FAMILY_TOL:.1e})"
        )
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
    if not is_batch(delta):
        return _fd_limits(phi, tau, [delta], phi_tau)[0]
    deltas = list(stack_points(delta))
    if not deltas:
        return np.empty(0, dtype=complex)
    try:
        return np.array(_fd_limits(phi, tau, deltas, phi_tau))
    except (CaralabError, ValueError):
        for one in deltas:
            _fd_limits(phi, tau, [one], phi_tau)
        raise


def _fd_limits(phi, tau: BoundaryPoint, deltas, phi_tau) -> list[complex]:
    """Extrapolated difference quotients along each direction, from one call of phi."""
    schedules = np.array(
        [direction_entry_time(tau, delta) / 8.0 * 2.0 ** -np.arange(FD_STEPS) for delta in deltas]
    )
    if phi_tau is None:
        ray = batch_points([tau.ray_point(2.0**-k) for k in range(8, 21)])
        phi_tau = complex(richardson_limit(_phi_on(phi, ray))[0])
    t1, t2 = as_pair(tau)
    d1, d2 = np.array([as_pair(delta) for delta in deltas]).T[..., None]
    values = _phi_on(phi, DiskPoint((t1 + schedules * d1).ravel(), (t2 + schedules * d2).ravel()))
    quotients = (values.reshape(schedules.shape) - phi_tau) / schedules
    limits, residuals = richardson_limit(quotients.T)  # one column per direction
    for limit, residual in zip(limits, residuals):
        if residual > 1e-4 * max(1.0, abs(complex(limit))):
            raise NoConvergenceError(
                f"difference quotients did not settle (residual {residual:.3e})"
            )
    return [complex(limit) for limit in limits]


def derivative_model(model: GeneralizedRealization, delta) -> complex:
    """Directional derivative at tau from the model's boundary data.

    Evaluates phi(tau) * < g(Y) v_tau, v_tau > with
    g(y) = a b / (a (1-y) + b y), a = conj(tau1) delta1,
    b = conj(tau2) delta2, in Y's eigenbasis, where v_tau is cached as
    U* v_tau; g has no pole on [0, 1] for admissible directions.  The
    unimodular prefactor phi(tau) comes from polarizing the model identity
    against the boundary value and is what makes this agree with the
    difference quotient for functions with phi(tau) != 1.
    """
    require_admissible(model.tau, delta)
    ray = model.v_at_tau()
    if not ray.converged:
        raise UnconvergedError("model vector has no converged ray limit at tau")
    t1, t2 = as_pair(model.tau)
    d1, d2 = as_pair(delta)
    a = t1.conjugate() * d1
    b = t2.conjugate() * d2
    w = model.pencil.contraction.decomposition.weights
    g = a * b / (a * (1.0 - w) + b * w)
    return model.phi_at_tau() * complex(np.sum(g * np.abs(ray.rotated) ** 2))


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
    entry.  The finite differences of all directions come from one batched
    :func:`derivative_fd` call.  If anything fails, the table is rebuilt
    direction by direction in that order, so the error raised is the
    first one that order meets.
    """
    if deltas is None:
        deltas = default_directions(model.tau)
    phi_tau = model.phi_at_tau()
    try:
        fds = derivative_fd(model.phi, model.tau, batch_points(deltas), phi_tau=phi_tau).tolist()
        entries = []
        for delta, fd in zip(deltas, fds):
            pair = as_pair(delta)
            entries.append(DerivativeEntry(pair, derivative_model(model, delta), "analytic"))
            entries.append(DerivativeEntry(pair, fd, "finite_difference"))
    except (CaralabError, ValueError):
        for delta in deltas:
            derivative_model(model, delta)
            derivative_fd(model.phi, model.tau, delta, phi_tau=phi_tau)
        raise
    return DerivativeTable(tuple(entries))


def linearity_defect(
    derivative: Callable[[tuple[complex, complex]], complex],
    pairs: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
) -> float:
    """Largest additivity defect |D(a+b) - D(a) - D(b)| over direction pairs."""
    worst = 0.0
    for da, db in pairs:
        a1, a2 = as_pair(da)
        b1, b2 = as_pair(db)
        joint = derivative((a1 + b1, a2 + b2))
        worst = max(worst, abs(joint - derivative(da) - derivative(db)))
    return worst


# -- derived standard model ----------------------------------------------


def _standard_rotated(model: GeneralizedRealization, points: np.ndarray):
    """Standard model components in Y's eigenbasis, and phi, at (N, 2) points.

    Each eigenvector column of v'(lam) is weighted by its eigenvalue's
    pair: (1, 0) at 1, (0, 1) at 0, the scalar-family model components
    in between.
    """
    dec = model.pencil.contraction.decomposition
    _, v, phi = model.evaluate(points)
    lam = DiskPoint(points[:, 0], points[:, 1])
    w1 = np.zeros_like(v)
    w2 = np.zeros_like(v)
    for w in dec.eigenvalues:
        cols = dec.weights == w
        if w == 1.0:
            w1[:, cols] = 1.0
        elif w == 0.0:
            w2[:, cols] = 1.0
        else:
            u = phi_y_model_vector(w, model.tau, lam)
            w1[:, cols] = u.u1[:, None]
            w2[:, cols] = u.u2[:, None]
    return w1 * v, w2 * v, phi


def standard_model_pair(model: GeneralizedRealization, lam) -> tuple[np.ndarray, np.ndarray]:
    """The two components of the derived standard model vector at lam.

    The pencil's spectral decomposition splits the state space; endpoint
    eigenvalues contribute the constant weights (1, 0) and (0, 1), interior
    eigenvalues the scalar-family model components, each multiplying the
    corresponding eigenspace component of v(lam).  A batch lam gives one
    row per point.
    """
    u1, u2, _ = _standard_rotated(model, stack_points(lam))
    ut = model.pencil.contraction.decomposition.eigenvectors.T
    u1, u2 = u1 @ ut, u2 @ ut
    return (u1, u2) if is_batch(lam) else (u1[0], u2[0])


def standard_model_residual(model: GeneralizedRealization, lam, mu):
    """Defect of the ordinary model identity for the derived standard model.

    Inner products are invariant under the eigenbasis rotation, so they
    are taken there.  Batches lam and mu give one residual per pair.
    """
    pl, pm = np.broadcast_arrays(stack_points(lam), stack_points(mu))
    u1, u2, phi = _standard_rotated(model, np.concatenate([pl, pm]))
    k = len(pl)
    lhs = 1.0 - np.conj(phi[k:]) * phi[:k]
    rhs = (1.0 - np.conj(pm[:, 0]) * pl[:, 0]) * np.sum(np.conj(u1[k:]) * u1[:k], axis=1) + (
        1.0 - np.conj(pm[:, 1]) * pl[:, 1]
    ) * np.sum(np.conj(u2[k:]) * u2[:k], axis=1)
    residual = np.abs(lhs - rhs)
    return residual if is_batch(lam) or is_batch(mu) else float(residual[0])


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
    defect = linearity_defect(
        lambda d: derivative_model(model, d), default_direction_pairs(model.tau)
    )

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
