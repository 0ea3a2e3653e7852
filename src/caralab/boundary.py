"""Boundary analysis at a distinguished-boundary point.

Nontangential approach grids, Caratheodory-quotient carapoint detection,
directional derivatives by two independent routes (spectral calculus on
the ray limit of the model vector versus finite differences), the derived
standard model, the Julia-quotient ray identity, and the regular /
singular / purely-singular classification of a generalized model.

Every analysis at tau calls ``phi`` once, on the points of one
:class:`Probe`: named blocks, those that tau decides made by
:func:`boundary_probe` (the carapoint scan's grid and ray tail, the
difference steps of given directions) and a caller's own appended, as one
(N, 2) array (see :func:`points.as_points`); ``phi`` returns the N values.
The probe reads them back by block name: the carapoint scan, the
Caratheodory quotients and the extrapolated difference quotients.  Only
this module knows which points a block holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BadApertureError, NoConvergenceError, UnconvergedError
from .extrapolate import richardson_limit
from .pencil import SINGULAR_RTOL
from .points import BoundaryPoint, as_points, direction_entry_time, modulus, require_admissible
from .realization import GeneralizedRealization, RAY_EXPONENTS, RayLimit
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

#: extrapolated difference steps per direction of a finite-difference derivative
FD_STEPS = 15

#: aperture of the nontangential cone and depth of its dyadic grid
DEFAULT_APERTURE = 2.0
DEFAULT_DEPTH = 12


def satisfies_aperture(tau, lam, aperture: float, slack: float = 0.0):
    """Check the nontangential inequality ||tau - lam||_inf <= c (1 - ||lam||_inf).

    ``slack`` absorbs representation noise: the radial ray sits exactly on
    the aperture-1 cone boundary, where the ~1e-16 modulus error of a
    stored boundary point would otherwise flip the comparison.  An (N, 2)
    array of points gives one flag per point.
    """
    t1, t2 = tau
    points, single = as_points(lam)
    l1, l2 = points[:, 0], points[:, 1]
    gap = np.maximum(modulus(t1 - l1), modulus(t2 - l2))
    ok = gap <= aperture * (1.0 - np.maximum(modulus(l1), modulus(l2))) + slack
    return bool(ok[0]) if single else ok


@dataclass(frozen=True, eq=False)
class NontangentialGrid:
    """Points approaching tau inside an aperture cone, grouped by family.

    Each family follows one approach geometry (the radial ray, skewed
    radial scalings, small angular detours) sampled along the dyadic
    schedule t = 2^-k, k = 1..depth: ``coords[f, k - 1]`` is the point of
    family ``names[f]`` at t = 2^-k.  Family 0 is the radial ray, and
    ``coords.reshape(-1, 2)`` holds every point.
    """

    tau: BoundaryPoint
    aperture: float
    depth: int
    names: tuple[str, ...]
    coords: np.ndarray  # (len(names), depth, 2) complex


def build_grid(
    tau, aperture: float = DEFAULT_APERTURE, depth: int = DEFAULT_DEPTH
) -> NontangentialGrid:
    """Build a deterministic nontangential grid at tau.

    Contains the radial ray (1 - 2^-k) tau, radial scalings with per-
    coordinate speed ratios down to 1/aperture, and (for aperture > 1)
    angular detours; every stored point satisfies the aperture inequality
    exactly.  The grid is read-only.

    A depth past the deepest that the pencil evaluates for every Y raises
    ValueError, after the BadApertureError of a point that rounding moves
    out of the open bidisk or its cone, or of an aperture that leaves no
    such depth.
    """
    if not (math.isfinite(aperture) and aperture >= 1.0):
        raise BadApertureError(f"aperture {aperture!r} is not a finite number >= 1")
    # offsets 1 - conj(tau_j) lam_j are pencil denominators at eigenvalues 0 and 1, the slowest moving
    # at 1/aperture: depth k passes pencil._singular for every Y iff 2^-k / aperture > SINGULAR_RTOL
    deepest = 0
    while math.ldexp(1.0, -deepest - 1) / aperture > SINGULAR_RTOL:
        deepest += 1
    tau = BoundaryPoint(*tau)
    # a grid deeper than the bound is refused below; the scan ray's depth holds the points
    # where a wide aperture's radial speed 1/aperture is lost to rounding, refused first
    ts = np.ldexp(1.0, -np.arange(1, min(depth, max(deepest, DETECT_EXPONENT)) + 1))  # exactly 2^-k

    names, speeds, detours = ["ray"], [(1.0, 1.0)], []
    if aperture > 1.0:
        for r in sorted({1.0 / aperture, (1.0 + 1.0 / aperture) / 2.0}):
            names += [f"radial(1,{r:g})", f"radial({r:g},1)"]
            speeds += [(1.0, r), (r, 1.0)]
        # safe angular speed: sqrt(1 + kappa^2) <= aperture with margin;
        # the aperture is not squared, so a huge one cannot overflow
        kappa = 0.9 * math.sqrt(aperture - 1.0) * math.sqrt(aperture + 1.0)
        names += [f"angular(+{kappa:.3g},0)", f"angular(0,-{kappa:.3g})"]
        detours = [_angular_families(tau, kappa, ts)]
    # radial family f has coordinates (1 - t speeds[f][j]) tau_j at t
    radial = (1.0 - ts[:, None] * np.array(speeds)[:, None]) * np.array(tuple(tau), dtype=complex)
    coords = np.concatenate([radial, *detours])
    coords.flags.writeable = False
    inside = satisfies_aperture(tau, coords.reshape(-1, 2), aperture, slack=1e-12)
    ok = (modulus(coords).max(axis=-1) < 1.0) & inside.reshape(coords.shape[:2])
    if not ok.all():
        f, k = np.unravel_index(np.argmin(ok), ok.shape)
        raise BadApertureError(
            f"grid family {names[f]!r} leaves the open bidisk or its cone at t={float(ts[k])!r} "
            f"for aperture {aperture!r}"
        )
    if not deepest:
        raise BadApertureError(f"aperture {aperture!r} leaves no grid depth where the pencil takes every point")
    if not 1 <= depth <= deepest:
        raise ValueError(f"depth must lie in 1..{deepest} at aperture {aperture!r}, where the pencil takes every point")
    return NontangentialGrid(tau, float(aperture), int(depth), tuple(names), coords)


def _angular_families(tau: BoundaryPoint, kappa: float, ts: np.ndarray) -> np.ndarray:
    """Grid families angular(+kappa, 0) and angular(0, -kappa), shape (2, len(ts), 2).

    The point at t has coordinates (1 - t) e^{i theta_j t} tau_j with
    (theta_1, theta_2) = (kappa, 0), then (0, -kappa).  The products are
    written in real arithmetic, rounded as Python rounds
    (1 - t) * complex(cos, sin) * tau_j: NumPy's complex product may fuse
    the multiply and the add, which moves the last bit.
    """
    arg = ts[:, None] * np.array([[kappa, 0.0], [0.0, -kappa]])[:, None, :]
    x = (1.0 - ts)[:, None]
    re, im = x * np.cos(arg), x * np.sin(arg)
    t = np.array(tuple(tau), dtype=complex)
    out = np.empty(arg.shape, dtype=complex)
    out.real = re * t.real - im * t.imag
    out.imag = re * t.imag + im * t.real
    return out


def cara_quotients(points: np.ndarray, values) -> np.ndarray:
    """Caratheodory quotients (1 - |phi(lam)|) / (1 - ||lam||_inf) at (N, 2) points.

    ``values`` holds phi's N values at the points, or one value for a constant.
    """
    gap = 1.0 - np.maximum(np.abs(points[:, 0]), np.abs(points[:, 1]))
    values = np.broadcast_to(np.asarray(values, dtype=complex), gap.shape)
    return (1.0 - np.abs(values)) / gap


@dataclass(frozen=True)
class CarapointScan:
    """Result of quotient-boundedness detection over a grid."""

    carapoint: bool
    alpha: float
    quotient_max: float
    alpha_residual: float  # Richardson residual of the alpha extrapolation


@dataclass(frozen=True, eq=False)
class StepPlan:
    """The difference steps of :func:`derivative_fd` along the K directions ``deltas``.

    Each schedule of step lengths ``schedules[k]`` is geometric inside the
    largest safe entry interval of its direction.  ``points`` holds each
    distinct step point once, in order of first appearance, and
    ``points[index]`` every step, direction by direction.  Directions that
    differ by a power of two share their steps bit for bit, since the
    entry time scales exactly with them.
    """

    deltas: np.ndarray  # (K, 2) complex
    schedules: np.ndarray  # (K, FD_STEPS) real
    points: np.ndarray  # (M, 2) complex, M <= K FD_STEPS
    index: np.ndarray  # (K FD_STEPS,) int


@dataclass(frozen=True, eq=False)
class Probe:
    """Named blocks of points that one call of phi evaluates, and the readers of its values.

    ``points`` holds the blocks one after another, and ``blocks[name]`` is
    the slice of ``points``, and of phi's values there, that holds block
    ``name``.  :func:`boundary_probe` makes the blocks that tau decides:
    "grid" (the points of ``grid``, family by family) and "tail" (the
    radial ray below the grid's depth), read by :func:`probe_scan`, and
    "steps" (read with ``plan`` by :func:`probe_fd_limits`).
    :meth:`extend` appends a caller's own.
    """

    points: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=complex))  # (N, 2)
    blocks: dict[str, slice] = field(default_factory=dict)
    grid: NontangentialGrid | None = None
    plan: StepPlan | None = None

    def extend(self, **blocks: np.ndarray) -> Probe:
        """This probe with the (N_k, 2) arrays ``blocks`` appended, in keyword order, under new names."""
        ends = np.cumsum([len(self.points), *map(len, blocks.values())]).tolist()
        spans = {name: slice(start, end) for name, start, end in zip(blocks, ends, ends[1:])}
        return replace(self, points=np.concatenate([self.points, *blocks.values()]), blocks=self.blocks | spans)

    def _block(self, values, name: str) -> np.ndarray:
        return np.broadcast_to(np.asarray(values, dtype=complex), len(self.points))[self.blocks[name]]

    def quotients(self, values, name: str) -> np.ndarray:
        """Caratheodory quotients at block ``name``; those of block "grid" start with its radial ray at t = 2^-k."""
        return cara_quotients(self.points[self.blocks[name]], self._block(values, name))


def probe_scan(probe: Probe, values) -> CarapointScan:
    """The carapoint scan of blocks "grid" and "tail" of ``probe``, from phi's ``values`` at the probe.

    The radial ray, the grid's family 0, is refined down to
    t = 2^-DETECT_EXPONENT by block "tail", where a quotient growing like
    1/(1 - ||lam||_inf) crosses QUOTIENT_BOUND; alpha is the
    Richardson-extrapolated ray limit of the quotient, taken from the
    moderately deep ray samples where rounding is still negligible.
    """
    grid, tail = probe.quotients(values, "grid"), probe.quotients(values, "tail")
    ray = np.concatenate([grid[: probe.grid.depth], tail])
    k_hi = min(ALPHA_EXPONENT, len(ray))
    alpha, residual = richardson_limit(ray[max(1, k_hi - 7) - 1 : k_hi])
    qmax = np.concatenate([grid, tail]).max()
    return CarapointScan(bool(qmax < QUOTIENT_BOUND), float(alpha), float(qmax), float(residual))


def probe_fd_limits(probe: Probe, values, phi_tau: complex) -> np.ndarray:
    """Extrapolated difference quotients of block "steps" of ``probe``, one per direction of its plan.

    ``values`` are phi's at the probe.  Of the directions whose quotients
    do not settle, the first is named in the NoConvergenceError.
    """
    plan = probe.plan
    steps = probe._block(values, "steps")[plan.index]
    quotients = (steps.reshape(plan.schedules.shape) - phi_tau) / plan.schedules
    limits, residuals = richardson_limit(quotients.T)  # one column per direction
    # written as a negation, so that a NaN residual or limit does not settle
    unsettled = ~(residuals <= 1e-4 * np.maximum(1.0, modulus(limits)))
    if unsettled.any():
        residual = residuals[np.argmax(unsettled)]
        raise NoConvergenceError(f"difference quotients did not settle (residual {residual:.3e})")
    return limits


def _scan_probe(grid: NontangentialGrid) -> Probe:
    """The scan's probe: block "grid", the grid's points family by family, then "tail", the ray deeper down."""
    tail = grid.tau.ray_point(np.ldexp(1.0, -np.arange(grid.depth + 1, DETECT_EXPONENT + 1)))
    return Probe(grid=grid).extend(grid=grid.coords.reshape(-1, 2), tail=tail)


def boundary_probe(tau, aperture: float | None = None, depth: int = DEFAULT_DEPTH, deltas=None) -> Probe:
    """The probe of what tau decides, with only the blocks its caller asks for.

    Given an aperture, block "grid" holds the points of
    ``build_grid(tau, aperture, depth)``, family by family, and block
    "tail" the radial ray at t = 2^-(depth+1) .. 2^-DETECT_EXPONENT, so the
    ray is the grid's family 0 followed by the tail.  Given a (K, 2) array
    of directions, block "steps" then holds their distinct difference steps
    (see StepPlan), after the first inadmissible direction has raised.
    """
    tau = BoundaryPoint(*tau)
    probe = Probe() if aperture is None else _scan_probe(build_grid(tau, aperture, depth))
    if deltas is not None:
        schedules = direction_entry_time(tau, deltas)[:, None] / 8.0 * 2.0 ** -np.arange(FD_STEPS)
        steps = (as_points(tau)[0][:, None, :] + schedules[..., None] * deltas[:, None, :]).reshape(-1, 2)
        rows = steps.view(np.dtype((np.void, 2 * steps.itemsize))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        keep = np.sort(first)
        plan = StepPlan(deltas, schedules, steps[keep], np.searchsorted(keep, first)[inverse])
        probe = replace(probe.extend(steps=plan.points), plan=plan)
    return probe


def detect_carapoint(phi: Callable[[np.ndarray], np.ndarray], grid: NontangentialGrid) -> CarapointScan:
    """Decide boundedness of the Caratheodory quotient over the grid.

    One call of phi at blocks "grid" and "tail" of :func:`boundary_probe`
    on this grid, read by :func:`probe_scan`.
    """
    probe = _scan_probe(grid)
    return probe_scan(probe, phi(probe.points))


def derivative_fd(
    phi: Callable[[np.ndarray], np.ndarray], tau, delta, phi_tau: complex | None = None
) -> complex | np.ndarray:
    """Directional derivative at tau by extrapolated difference quotients.

    phi(tau) defaults to the extrapolated limit along the radial ray at
    t = 2^-8 .. 2^-20.  An (N, 2) array of directions gives one derivative
    per direction.  The distinct steps of all directions, and the ray when
    phi(tau) is not given, go to one call of phi, as the probe of
    :func:`boundary_probe`, which checks every direction first, and
    :func:`probe_fd_limits` extrapolates their quotients.
    """
    deltas, single = as_points(delta)
    probe = boundary_probe(tau, deltas=deltas)
    if phi_tau is None:
        probe = probe.extend(ray=BoundaryPoint(*tau).ray_point(np.ldexp(1.0, -np.arange(8, 21))))
    values = phi(probe.points)
    if phi_tau is None:
        phi_tau = complex(richardson_limit(probe._block(values, "ray"))[0])
    limits = probe_fd_limits(probe, values, phi_tau)
    return complex(limits[0]) if single else limits


def derivative_model(model: GeneralizedRealization, delta):
    """Directional derivative at tau from the model's boundary data.

    Evaluates phi(tau) * < g(Y) v_tau, v_tau > with
    g(y) = a b / (a (1-y) + b y), a = conj(tau1) delta1,
    b = conj(tau2) delta2, in Y's eigenbasis, where v_tau is cached as
    U* v_tau; g has no pole on [0, 1] for admissible directions.  The
    unimodular prefactor phi(tau) comes from polarizing the model identity
    against the boundary value and is what makes this agree with the
    difference quotient for functions with phi(tau) != 1.  A (K, 2) array
    of directions gives one derivative per direction from one (K, n) expression.
    """
    d, single = as_points(delta)
    values = _spectral_derivative(model, require_admissible(model.tau, d))
    return complex(values[0]) if single else values


def _spectral_derivative(model: GeneralizedRealization, deltas: np.ndarray) -> np.ndarray:
    """:func:`derivative_model` along a (K, 2) array of directions already found admissible."""
    ray = converged_ray(model)
    a, b = (np.conj(as_points(model.tau)[0]) * deltas).T[..., None]
    w = model.pencil.contraction.decomposition.weights
    g = a * b / (a * (1.0 - w) + b * w)
    return model.phi_at_tau() * np.sum(g * np.abs(ray.rotated) ** 2, axis=1)


@dataclass(frozen=True, eq=False)
class DerivativeTable:
    """Directional derivatives at tau by both methods, row k along ``deltas[k]``."""

    deltas: np.ndarray  # (K, 2) complex
    analytic: np.ndarray  # (K,) complex
    finite_difference: np.ndarray  # (K,) complex

    def agreement(self) -> float:
        """Largest gap between the two methods."""
        return float(modulus(self.analytic - self.finite_difference).max(initial=0.0))


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
    t1, t2 = tau
    return [(s1 * t1, s2 * t2) for s1, s2 in scales[:count]]


def default_direction_pairs(tau) -> list[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """Admissible direction pairs probing additivity of the derivative.

    The leading pair dominates the defect for the scalar family (value 1/3
    at the midpoint parameter); the others probe asymmetric and complex
    combinations.
    """
    scales = [
        ((-2, -1), (-1, -2)),
        ((-1, -1), (-1, -2)),
        ((-1 - 1j, -1), (-1, -1 + 1j)),
    ]
    t1, t2 = tau
    return [tuple((s1 * t1, s2 * t2) for s1, s2 in pair) for pair in scales]


def probe_derivatives(model: GeneralizedRealization, probe: Probe, values) -> DerivativeTable:
    """The derivative table along the directions of ``probe.plan``, from phi's ``values`` at the probe.

    The analytic column is :func:`derivative_model` without its check of
    the directions, which the step plan made; the finite-difference column
    is :func:`probe_fd_limits` at phi(tau).
    """
    deltas, phi_tau = probe.plan.deltas, model.phi_at_tau()
    return DerivativeTable(deltas, _spectral_derivative(model, deltas), probe_fd_limits(probe, values, phi_tau))


def derivative_table(
    model: GeneralizedRealization, deltas: Sequence[tuple[complex, complex]] | None = None
) -> DerivativeTable:
    """Tabulate directional derivatives of a realization at tau.

    The step plan of the directions' probe (:func:`boundary_probe`) checks
    every direction once, so an inadmissible direction raises first; then
    an unconverged ray limit raises UnconvergedError, before the one call
    of phi that :func:`probe_derivatives` reads.
    """
    if deltas is None:
        deltas = default_directions(model.tau)
    probe = boundary_probe(model.tau, deltas=np.array(deltas, dtype=complex).reshape(-1, 2))
    converged_ray(model)
    return probe_derivatives(model, probe, model.phi(probe.points))


def linearity_defect(
    derivative: Callable[[np.ndarray], np.ndarray],
    pairs: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
) -> float:
    """Largest additivity defect |D(a+b) - D(a) - D(b)| over direction pairs.

    The directions a+b, a, b of every pair, in that order, go to one call
    of ``derivative`` as one (3 len(pairs), 2) array, which must return
    one value per direction.
    """
    a, b = np.array(pairs, dtype=complex).reshape(-1, 2, 2).transpose(1, 0, 2)
    dirs = np.stack([a + b, a, b], axis=1).reshape(-1, 2)
    values = np.asarray(derivative(dirs), dtype=complex).reshape(len(dirs))
    joint, da, db = values.reshape(-1, 3).T
    return float(modulus(joint - da - db).max(initial=0.0))


# -- derived standard model ----------------------------------------------


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
    w1[:, inner], w2[:, inner] = phi_y_model_components(w[inner], model.tau, points)
    return w1 * v, w2 * v, v, phi


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
    defect_bound: float  # the threshold cross_check_ok judged the defect against, not reported
    quotient_max: float

    def to_json(self) -> dict:
        """Every field but the defect bound, with phi_tau as [re, im]."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "defect_bound"}
        return doc | {"phi_tau": [self.phi_tau.real, self.phi_tau.imag]}


def classify_ray(
    weights: np.ndarray, rotated: np.ndarray, class_tol: float = DEFAULT_CLASS_TOL
) -> tuple[str, float, float]:
    """Classification of a ray limit, with its singular and kernel parts.

    ``rotated`` is v_tau in Y's eigenbasis and ``weights`` Y's eigenvalues.
    The kernel part is the component at the endpoint eigenvalues 0 and 1
    (in ker Y(1-Y)), the singular part the component at the others.
    Regular when the singular part is at most class_tol, indeterminate
    when it is at most INDETERMINATE_TOL, else purely singular when the
    kernel part is at most class_tol, else singular.
    """
    endpoint = (weights == 0.0) | (weights == 1.0)
    singular_part = float(np.linalg.norm(rotated[~endpoint]))
    kernel_part = float(np.linalg.norm(rotated[endpoint]))
    if singular_part <= class_tol:
        classification = "regular"
    elif singular_part <= INDETERMINATE_TOL:
        classification = "indeterminate"
    elif kernel_part <= class_tol:
        classification = "purely_singular"
    else:
        classification = "singular"
    return classification, singular_part, kernel_part


def converged_ray(model: GeneralizedRealization) -> RayLimit:
    """The model's ray limit v_tau; UnconvergedError when it did not converge."""
    ray = model.v_at_tau()
    if not ray.converged:
        raise UnconvergedError("model vector has no converged ray limit at tau")
    return ray


def classify_model(
    model: GeneralizedRealization,
    class_tol: float = DEFAULT_CLASS_TOL,
    aperture: float = DEFAULT_APERTURE,
    depth: int = DEFAULT_DEPTH,
) -> BoundaryReport:
    """Classify a generalized model by the geometry of its ray limit.

    Checks that the ray limit converged, then hands the grid's
    :func:`detect_carapoint` scan, one call of phi, to :func:`boundary_report`.
    """
    converged_ray(model)
    grid = build_grid(model.tau, aperture, depth)
    return boundary_report(model, detect_carapoint(model.phi, grid), class_tol)


def boundary_report(
    model: GeneralizedRealization, scan: CarapointScan, class_tol: float = DEFAULT_CLASS_TOL
) -> BoundaryReport:
    """The verdict of :func:`classify_model` from the model's carapoint scan.

    The classification is :func:`classify_ray` of v_tau.  The linearity
    defect of :func:`derivative_model`, which reads the same v_tau and
    phi_tau, is recorded as an independent cross-check: it must be at most
    DEFECT_REGULAR_TOL for regular models and above DEFECT_SINGULAR_TOL for
    (purely) singular ones.  An indeterminate model passes it, judged
    against DEFECT_REGULAR_TOL.
    """
    ray = converged_ray(model)
    weights = model.pencil.contraction.decomposition.weights
    classification, singular_part, kernel_part = classify_ray(weights, ray.rotated, class_tol)
    defect = linearity_defect(lambda d: derivative_model(model, d), default_direction_pairs(model.tau))

    if classification == "regular":
        defect_bound, cross_check_ok = DEFECT_REGULAR_TOL, defect <= DEFECT_REGULAR_TOL
    elif classification == "indeterminate":
        defect_bound, cross_check_ok = DEFECT_REGULAR_TOL, True
    else:
        defect_bound, cross_check_ok = DEFECT_SINGULAR_TOL, defect > DEFECT_SINGULAR_TOL

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
        defect_bound=defect_bound,
        quotient_max=scan.quotient_max,
    )
