"""Generate Schur-Agler functions from model data.

An isometric colligation V = [A B; C D] on M + C together with an operator
pencil I_Y defines

    v(lam) = (1 - A I_Y(lam))^{-1} B,
    phi(lam) = D + C I_Y(lam) v(lam),

and the polarized isometry relation makes the generalized model identity

    1 - conj(phi(mu)) phi(lam) = < (1 - I(mu)* I(lam)) v(lam), v(mu) >

hold by construction.  This inverts the usual direction of the theory: the
function is produced from the model, giving a corpus whose boundary
behavior at tau is known in advance.

Along the radial ray into tau the pencil is (1-t) times the identity.  For
an isometric colligation the unimodular eigenspace E = ker(1 - A) reduces
A and B is orthogonal to E, so the boundary data are exactly

    v_tau = (1 - A)|_{E-perp}^{-1} B,    phi_tau = D + C v_tau,

one double-precision solve per model (:meth:`GeneralizedRealization.v_at_tau`).
Only the Julia rows sample the ray itself, in extended precision and from
one stacked solve (:meth:`GeneralizedRealization.ray_state`).

In double precision everything is evaluated in the eigenbasis U of Y,
where the pencil is diagonal: with A' = U*AU, B' = U*B and C' = CU the
model vector is v = U v' with v' = (1 - A' diag(s))^{-1} B', and
phi = D + C' diag(s) v'.  Up to ELIMINATION_MAX_DIM the systems of all
points are solved by one vectorized Gaussian elimination with the point
axis last (:func:`_eliminate`); above it, by stacked LAPACK solves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import xprec
from .errors import NotIsometricError, SingularResolventError
from .hermitian import (
    DEFAULT_EIGTOL,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    validate_positive_contraction,
)
from .pencil import SINGULAR_RTOL, OperatorPencil, _diagonal_rows, _singular, stack_chunks
from .points import BoundaryPoint, as_points

#: default isometry tolerance for colligation validation
DEFAULT_ISOTOL = 1e-8

#: defects above this are structural, not representation noise; such
#: blocks are never snapped to a unitary even if a loose isotol admits them
SNAP_DEFECT_MAX = 1e-6

#: relative padding of the bound on ||A|| in the resolvent certificate of
#: ``evaluate``; far above the rounding error of the SVD behind the bound
#: and of the rotation into Y's eigenbasis
NORM_PAD = 1e-12

#: default dyadic exponent range of the ray samples of the Julia rows, t = 2^-k
RAY_EXPONENTS = (4, 20)

#: largest state dimension whose resolvents :meth:`GeneralizedRealization.evaluate`
#: solves by :func:`_eliminate`; above it, LAPACK's per-matrix solve is faster
ELIMINATION_MAX_DIM = 7

#: singular values of 1 - A at or below this multiple of the block's
#: rounding level span E = ker(1 - A); see :meth:`GeneralizedRealization.v_at_tau`
DEFLATION_FACTOR = 16.0


@dataclass(frozen=True)
class Colligation:
    """Block operator [A B; C D] on M + C, stored as one square matrix."""

    block: np.ndarray

    @property
    def dim(self) -> int:
        """Dimension of the state space M."""
        return self.block.shape[0] - 1

    @property
    def a(self) -> np.ndarray:
        return self.block[: self.dim, : self.dim]

    @property
    def b(self) -> np.ndarray:
        return self.block[: self.dim, self.dim]

    @property
    def c(self) -> np.ndarray:
        return self.block[self.dim, : self.dim]

    @property
    def d(self) -> complex:
        return complex(self.block[self.dim, self.dim])

    def isometry_defect(self) -> float:
        """||V*V - 1||; the SVD behind it runs once per colligation."""
        return self._isometry_defect

    @cached_property
    def _isometry_defect(self) -> float:
        n = self.block.shape[0]
        return opnorm(self.block.conj().T @ self.block - np.eye(n))


def validate_colligation(block, isotol: float = DEFAULT_ISOTOL) -> Colligation:
    """Accept a block matrix as a colligation when V*V is the identity."""
    arr = np.asarray(block, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ValueError(f"colligation block must be square of size >= 2, got {arr.shape}")
    col = Colligation(arr)
    defect = col.isometry_defect()
    if defect > isotol:
        raise NotIsometricError(defect)
    return col


def random_colligation(dim: int, rng: np.random.Generator) -> Colligation:
    """Haar-ish random unitary colligation from QR of a complex Gaussian block."""
    g = rng.standard_normal((dim + 1, dim + 1)) + 1j * rng.standard_normal((dim + 1, dim + 1))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the draw is determined by rng alone
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Colligation(q)


def colligation_with_ray_limit(direction, strength: float = 0.8) -> Colligation:
    """Isometric colligation whose model-vector ray limit points along `direction`.

    Uses the Householder reflection sending the last basis vector to
    (B, D) with B = strength * direction / ||direction|| and D real; for
    that completion the ray limit of v is the positive multiple
    (1 - D) B / ||B||^2 of the requested direction.  strength = 1 on a
    one-dimensional state space gives the swap colligation.
    """
    if not 0.0 < strength <= 1.0:
        raise ValueError("strength must lie in (0, 1]")
    vhat = np.asarray(direction, dtype=complex).ravel()
    norm = float(np.linalg.norm(vhat))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    n = vhat.size
    b = strength * vhat / norm
    d = float(np.sqrt(max(0.0, 1.0 - strength**2)))
    w = np.concatenate([-b, [1.0 - d]])
    block = np.eye(n + 1, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w)
    return Colligation(block)


@dataclass(frozen=True)
class RayLimit:
    """Boundary value v_tau of the model vector, from the deflated solve.

    ``threshold`` is the singular-value cutoff of 1 - A that defines E,
    ``sigma_min`` the smallest singular value of 1 - A on E-perp (inf when
    E is everything), and ``residual`` the solve residual
    ||(1 - A) v_tau - B||.  A part of B in the left null space of 1 - A
    above the threshold makes the ray states grow like 1/t and sets
    ``diverged``; for an isometric block it vanishes.  ``converged`` also
    needs E to reduce A, as it does for every contraction: otherwise v_tau
    is not the ray limit and no limit is claimed.
    """

    value: np.ndarray
    rotated: np.ndarray  # U* v_tau, in Y's eigenbasis
    converged: bool
    residual: float
    diverged: bool
    threshold: float
    sigma_min: float


class GeneralizedRealization:
    """Pencil plus colligation; evaluates phi, the model vector, and residuals."""

    def __init__(
        self,
        pencil: OperatorPencil,
        colligation: Colligation,
        isotol: float = DEFAULT_ISOTOL,
    ):
        if colligation.dim != pencil.dim:
            raise ValueError(
                f"colligation state dimension {colligation.dim} does not match "
                f"pencil dimension {pencil.dim}"
            )
        self.pencil = pencil
        self.colligation = colligation
        self.isotol = isotol
        self.isometry_defect = colligation.isometry_defect()
        self.is_isometric = self.isometry_defect <= isotol
        # the colligation rotated into Y's eigenbasis, for :meth:`evaluate`
        u = pencil.contraction.decomposition.eigenvectors
        self._a = u.conj().T @ colligation.a @ u
        self._b = u.conj().T @ colligation.b
        self._c = colligation.c @ u
        # a bound on ||A'||, padded so that rounding cannot certify a singular
        # resolvent; see :meth:`evaluate`.  A is a block of V, so
        # ||A|| <= ||V|| = ||V*V||^(1/2) <= (1 + ||V*V - 1||)^(1/2), which
        # for an isometric colligation is 1 up to its defect and needs no SVD
        if self.is_isometric:
            a_norm = math.sqrt(1.0 + self.isometry_defect)
        else:
            a_norm = opnorm(self._a)
        self._a_norm = a_norm * (1.0 + NORM_PAD)

    @property
    def dim(self) -> int:
        return self.pencil.dim

    @property
    def tau(self) -> BoundaryPoint:
        return self.pencil.tau

    # -- double-precision evaluation at general points ------------------

    def evaluate(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pencil eigenvalues, rotated model vectors and phi at N points.

        ``points`` is an (N, 2) complex array.  Returns s (N, n) from
        :func:`i_y_diagonal`, v' = U* v (N, n) and phi (N,), C-contiguous.
        A point whose resolvent 1 - A' diag(s) has its smallest singular
        value below SINGULAR_RTOL times its largest (or 1) raises
        SingularResolventError.  The rotation is unitary, so these singular
        values are those of 1 - A I_Y(lam) itself.

        With m = max_i |s_i|, Weyl's inequality bounds the singular values
        of 1 - A' diag(s) by 1 - ||A'|| m from below and 1 + ||A'|| m from
        above, so a point whose lower bound exceeds twice the rule's
        threshold at the upper bound cannot raise; ||A'|| enters by an
        upper bound.  Only the other points (at or next to tau, or for
        ||A|| > 1) get the stacked SVD.  For an isometric colligation with
        defect d the bound is (1 + d)^(1/2), so every point with m below
        1 - 1e-11 - d/2 is certified.

        Once per call, for all N points: the lone-point rule, the pencil
        rows s and the certificate, so a singular point raises before any
        solve.  Per stack of :func:`stack_chunks`: up to ELIMINATION_MAX_DIM
        the elimination of :func:`_eliminate` on the (n, k) rows of the
        stack, with the point axis last; above it, the (k, n, n) resolvents
        built from the stack's (k, n) block of s and one LAPACK solve; then
        the stack's phi sum.  STACK_ENTRIES bounds the stacks, not the
        outputs s and v'.  Every point's arithmetic, the sum over the eigen
        axis in phi included, is the same whatever the stack size.
        """
        pts = np.asarray(points, dtype=complex)
        count = len(pts)
        # a lone point is solved as a pair, for the bits it gets in a batch;
        # see stack_chunks, which never leaves a stack of one
        if count == 1:
            pts = np.repeat(pts, 2, axis=0)
        n = self.dim
        rows = _diagonal_rows(self.pencil, pts)
        self._certify(rows, pts)
        s = np.ascontiguousarray(rows.T)
        v = np.empty_like(s)
        phi = np.empty(len(pts), dtype=complex)
        if n <= ELIMINATION_MAX_DIM:
            for chunk in stack_chunks(len(pts), n * (n + 1)):
                block = rows[:, chunk]
                solution = _eliminate(self._augmented(block))
                v[chunk] = solution.T
                terms = block * solution * self._c[:, None]
                # the eigen axis is summed in one fixed order, whatever the stack
                phi[chunk] = np.add.accumulate(terms, axis=0)[-1]
        else:
            del rows
            for chunk in stack_chunks(len(pts), n * n):
                block = s[chunk]
                rhs = np.broadcast_to(self._b[:, None], (len(block), n, 1))
                v[chunk] = np.linalg.solve(self._resolvents(block), rhs)[..., 0]
                terms = (block * v[chunk] * self._c).T
                phi[chunk] = np.add.accumulate(terms, axis=0)[-1]
        phi += self.colligation.d
        return s[:count], v[:count], phi[:count]

    def _resolvents(self, s: np.ndarray) -> np.ndarray:
        """1 - A' diag(s) for s of shape (K, n), as a (K, n, n) stack built in place."""
        m = self._a * -s[:, None, :]
        m.reshape(len(m), -1)[:, :: self.dim + 1] += 1.0
        return m

    def _augmented(self, rows: np.ndarray) -> np.ndarray:
        """[1 - A' diag(s) | B'] for s of shape (n, N), as an (n, n+1, N) stack."""
        n = self.dim
        m = np.empty((n, n + 1, rows.shape[1]), dtype=complex)
        np.multiply(self._a[:, :, None], -rows, out=m[:, :n])
        m.reshape(n * (n + 1), -1)[:: n + 2] += 1.0
        m[:, n] = self._b[:, None]
        return m

    def _certify(self, rows: np.ndarray, pts: np.ndarray) -> None:
        """Raise SingularResolventError at the first point of pts whose resolvent is singular.

        ``rows`` is s at pts, shape (n, N).  The Weyl certificate of
        :meth:`evaluate` spares the SVD; written as a negation, so that a
        NaN bound goes to the SVD.  The points it cannot clear go to the
        SVD in stacks of :func:`stack_chunks`, in order.
        """
        am = self._a_norm * np.abs(rows).max(axis=0)
        check = np.flatnonzero(~(1.0 - am > 2.0 * SINGULAR_RTOL * (1.0 + am)))
        for chunk in stack_chunks(check.size, self.dim**2):
            sv = np.linalg.svd(self._resolvents(rows[:, check[chunk]].T), compute_uv=False)
            bad = check[chunk][_singular(sv)]
            if bad.size:
                lam = tuple(complex(z) for z in pts[bad[0]])
                raise SingularResolventError(f"resolvent singular at lam={lam!r}")

    def _resolve(self, lam):
        """:meth:`evaluate` at the points of lam (one, or an (N, 2) array), and whether lam was one point."""
        points, single = as_points(lam)
        return self.evaluate(points), single

    def phi(self, lam):
        """Value of the realized function; an (N, 2) array of points gives an array."""
        (_, _, phi), single = self._resolve(lam)
        return complex(phi[0]) if single else phi

    def model_vector(self, lam) -> np.ndarray:
        """Model vector v(lam); an (N, 2) array of points gives one row per point."""
        (_, v, _), single = self._resolve(lam)
        v = v @ self.pencil.contraction.decomposition.eigenvectors.T
        return v[0] if single else v

    def model_residual(self, lam, mu):
        """Absolute defect of the generalized model identity at a pair of points.

        (N, 2) arrays lam and mu give one residual per pair; see
        :func:`model_identity_defect`.
        """
        (pl, one_lam), (pm, one_mu) = as_points(lam), as_points(mu)
        pl, pm = np.broadcast_arrays(pl, pm)
        residual = model_identity_defect(*self.evaluate(np.concatenate([pl, pm])))
        return float(residual[0]) if one_lam and one_mu else residual

    # -- extended-precision evaluation along the radial ray -------------

    @cached_property
    def _refined_block(self) -> np.ndarray:
        """Extended-precision colligation block of the ray states.

        For an isometric colligation the stored double entries carry an
        O(1e-16) defect, which the Julia quotients amplify by 1/t; snapping to
        the nearest unitary removes it.  Non-isometric blocks (negative
        controls) are used as-is.
        """
        if self.is_isometric and self.isometry_defect <= SNAP_DEFECT_MAX:
            return xprec.nearest_unitary(self.colligation.block)
        return xprec.asxp(self.colligation.block)

    def ray_state(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Model vectors and phi at (1-t) tau, in extended precision.

        Along the radial ray the pencil is exactly (1-t) times the
        identity, so the resolvents are the shifted systems 1 - (1-t) A of
        one block, solved together by :func:`xprec.solve`.  An array of K
        values of t gives (K, n) states and (K,) phis; one t gives (n,) and
        a scalar.  Only the Julia rows read these states.  A t outside (0, 1),
        or whose 1 - t rounds to 1 in xprec.CDTYPE (tau itself), raises ValueError.
        """
        ts = np.asarray(t, dtype=float)
        s = xprec.CDTYPE(1) - ts.reshape(-1).astype(xprec.CDTYPE)
        if not np.all((ts < 1.0) & (s.real < 1.0)):
            raise ValueError(f"t must lie in (0, 1), with 1 - t below 1 in {np.dtype(xprec.CDTYPE).name}")
        block = self._refined_block
        n = self.dim
        v = xprec.solve(block[:n, :n], block[:n, n], shifts=s)
        phi = block[n, n] + s * (v @ block[n, :n])
        return (v, phi) if ts.ndim else (v[0], phi[0])

    # -- boundary data at tau ----------------------------------------------

    @cached_property
    def _boundary_data(self) -> tuple[RayLimit, complex]:
        """v_tau and phi_tau from one SVD of 1 - A, computed once per model."""
        col = self.colligation
        n = self.dim
        m = np.eye(n) - col.a
        w, sv, zh = np.linalg.svd(m)
        # the block's rounding level; a snap-eligible block's isometry
        # defect is representation noise that blurs E by as much
        level = (n + 1) * np.finfo(float).eps
        if self.is_isometric and self.isometry_defect <= SNAP_DEFECT_MAX:
            level = max(level, self.isometry_defect)
        threshold = DEFLATION_FACTOR * float(level) * max(1.0, float(sv[0]))
        k = int(np.count_nonzero(sv > threshold))
        v = zh[:k].conj().T @ ((w[:, :k].conj().T @ col.b) / sv[:k])
        diverged = bool(np.linalg.norm(w[:, k:].conj().T @ col.b) > threshold)
        # E reduces A when it is also the left null space of 1 - A
        reduces = bool(np.linalg.norm(m.conj().T @ zh[k:].conj().T) <= threshold)
        u = self.pencil.contraction.decomposition.eigenvectors
        ray = RayLimit(
            value=v,
            rotated=u.conj().T @ v,
            converged=reduces and not diverged,
            residual=float(np.linalg.norm(m @ v - col.b)),
            diverged=diverged,
            threshold=threshold,
            sigma_min=float(sv[k - 1]) if k else math.inf,
        )
        return ray, complex(col.d + col.c @ v)

    def v_at_tau(self) -> RayLimit:
        """Boundary value of the model vector, (1 - A)|_{E-perp}^{-1} B.

        E is spanned by the right singular vectors of 1 - A whose singular
        values fall at or below DEFLATION_FACTOR times the block's rounding
        level times max(1, ||1 - A||).  The level is (n+1) eps, or the
        isometry defect if larger for an isometric block whose defect is at
        most SNAP_DEFECT_MAX, the blocks the ray states snap.  Divergence
        (possible only for non-isometric blocks) is reported on the
        returned flag rather than raised.
        """
        return self._boundary_data[0]

    def phi_at_tau(self) -> complex:
        """Boundary value D + C v_tau of phi."""
        return self._boundary_data[1]

    def __repr__(self) -> str:
        return (
            f"GeneralizedRealization(dim={self.dim}, tau=({self.tau.tau1!r}, "
            f"{self.tau.tau2!r}), isometric={self.is_isometric})"
        )


def _eliminate(system: np.ndarray) -> np.ndarray:
    """Solutions of N augmented systems [M | b], stored as (n, n+1, N), shape (n, N).

    Gaussian elimination with partial pivoting, vectorized over the last
    (point) axis: at step k a point swaps rows only where a lower entry of
    column k has a larger |re| + |im| than the diagonal one, and then takes
    the first largest, as LAPACK's izamax picks.  Like LAPACK's per-matrix
    zgesv it scales by the pivot's reciprocal, divides in the back
    substitution and is backward stable (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 9).  Back substitution runs by columns, so no
    sum depends on how many points share the stack, and with two or more
    points each one gets the same arithmetic whatever N (a lone point may
    not: see :meth:`GeneralizedRealization.evaluate`).  ``system`` is
    overwritten; the matrices must be nonsingular.
    """
    n = system.shape[0]
    for k in range(n - 1):
        col = system[k:, k]
        mag = np.abs(col.real) + np.abs(col.imag)
        swap = np.flatnonzero(mag[1:].max(axis=0) > mag[0])
        if swap.size:
            rows = k + 1 + np.argmax(mag[1:, swap], axis=0)
            top = system[k, k:, swap]
            system[k, k:, swap] = system[rows, k:, swap]
            system[rows, k:, swap] = top
        factors = system[k + 1 :, k] * (1.0 / system[k, k])
        system[k + 1 :, k + 1 :] -= factors[:, None] * system[k, k + 1 :]
    x = system[:, n]
    for k in range(n - 1, -1, -1):
        x[k] /= system[k, k]
        x[:k] -= system[:k, k] * x[k]
    return x


def model_identity_defect(s: np.ndarray, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Defects |1 - conj(phi(mu)) phi(lam) - < (1 - I(mu)* I(lam)) v(lam), v(mu) >|.

    ``(s, v, phi)`` is an evaluation (:meth:`GeneralizedRealization.evaluate`)
    at K points lam followed by K points mu; one defect per pair.  In the
    eigenbasis the Gram operator 1 - I(mu)* I(lam) is diagonal.
    """
    k = len(phi) // 2
    lhs = 1.0 - np.conj(phi[k:]) * phi[:k]
    gram = 1.0 - np.conj(s[k:]) * s[:k]
    rhs = np.sum(np.conj(v[k:]) * gram * v[:k], axis=1)
    return np.abs(lhs - rhs)


# -- JSON model interchange ---------------------------------------------


def dump_model(model: GeneralizedRealization) -> dict:
    """Serialize a realization to the canonical JSON document."""
    t1, t2 = model.tau
    return {
        "dim": model.dim,
        "tau": [[t1.real, t1.imag], [t2.real, t2.imag]],
        "Y": matrix_to_json(model.pencil.contraction.matrix),
        "V": matrix_to_json(model.colligation.block),
    }


def load_model(
    doc,
    eigtol: float = DEFAULT_EIGTOL,
    isotol: float = DEFAULT_ISOTOL,
) -> GeneralizedRealization:
    """Build a validated realization from a JSON document, path, or dict.

    Fields of other types than :func:`dump_model` writes raise ValueError.
    """
    if isinstance(doc, (str, Path)):
        doc = json.loads(Path(doc).read_text())
    try:
        dim = int(doc["dim"])
        (t1re, t1im), (t2re, t2im) = doc["tau"]
        tau = BoundaryPoint(complex(t1re, t1im), complex(t2re, t2im))
        y = matrix_from_json(doc["Y"])
        v = matrix_from_json(doc["V"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    if y.shape != (dim, dim):
        raise ValueError(f"Y has shape {y.shape}, expected {(dim, dim)}")
    contraction = validate_positive_contraction(y, eigtol)
    if v.shape != (dim + 1, dim + 1):
        raise ValueError(f"V has shape {v.shape}, expected {(dim + 1, dim + 1)}")
    colligation = validate_colligation(v, isotol)
    return GeneralizedRealization(OperatorPencil(contraction, tau), colligation, isotol)
