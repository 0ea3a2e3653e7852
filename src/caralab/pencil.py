"""Operator-valued rational map attached to a positive contraction.

Given a positive contraction Y and a boundary point tau, the pencil

    I_Y(lam) = 1 - (1-p)(1-q) * [(1-p)(1-Y) + (1-q) Y]^{-1},

with p = conj(tau1) lam1 and q = conj(tau2) lam2, is contractive and
analytic on the bidisk, takes the value 1 at tau, and reduces to
diag-multiplication by (p, q) when Y is a projection.  Along a direction
delta into the bidisk it is exactly affine,

    I_Y(tau + t delta) - 1 = t a b [a (1-Y) + b Y]^{-1},

with a = conj(tau1) delta1 and b = conj(tau2) delta2.  Since I_Y is a
function of Y, writing Y = U diag(w) U* gives I_Y(lam) = U diag(s) U* with
s_i = phi_{w_i}(lam), the scalar family at the eigenvalues; the batched
kernel :func:`i_y_diagonal` evaluates s at many points at once and is the
route every caller takes.  :func:`i_y_spectral_form` is that kernel's
full-matrix view, and :func:`i_y_eval`, a stacked direct solve of the
denominator operator, is its independent cross-oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDenominatorError
from .hermitian import PositiveContraction
from .points import BoundaryPoint, DiskPoint, as_points

#: relative singular-value floor below which a denominator counts as singular
SINGULAR_RTOL = 1e-13

#: points closer to tau than this evaluate to the identity exactly
TAU_SNAP = 1e-15

#: most complex entries (points times entries per point) in one stack of the
#: batched kernels: 1 MiB of complex128, so 16 points per LAPACK call at dim
#: 64.  Fewer calls stop paying past about 2**15, while each doubling doubles
#: the largest temporary and so the peak memory
STACK_ENTRIES = 2**16


def stack_chunks(count: int, entries_per_point: int):
    """Slices of range(count), each covering at most STACK_ENTRIES entries."""
    step = max(1, STACK_ENTRIES // max(1, entries_per_point))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


class OperatorPencil:
    """A positive contraction and a boundary point."""

    def __init__(self, contraction: PositiveContraction, tau):
        self.contraction = contraction
        self.tau = BoundaryPoint(*tau)

    @property
    def dim(self) -> int:
        return self.contraction.dim

    def __repr__(self) -> str:
        return f"OperatorPencil(dim={self.dim}, tau=({self.tau.tau1!r}, {self.tau.tau2!r}))"


def _singular(mag: np.ndarray, axis: int = -1) -> np.ndarray:
    """True where the smallest along ``axis`` is <= SINGULAR_RTOL times the largest (or 1)."""
    return mag.min(axis=axis) <= SINGULAR_RTOL * np.maximum(mag.max(axis=axis), 1.0)


def _offsets(pencil: OperatorPencil, pts: np.ndarray):
    """a = 1 - conj(tau1) lam1 and b = 1 - conj(tau2) lam2, shape (N,), and the TAU_SNAP mask."""
    t1, t2 = pencil.tau
    a = 1.0 - t1.conjugate() * pts[:, 0]
    b = 1.0 - t2.conjugate() * pts[:, 1]
    return a, b, (np.abs(a) < TAU_SNAP) & (np.abs(b) < TAU_SNAP)


def i_y_eval(pencil: OperatorPencil, lam) -> np.ndarray:
    """The pencil by stacked direct solves of (1-p)(1-Y) + (1-q)Y on the matrix Y.

    One point gives (n, n), an (N, 2) array gives (N, n, n).  A singular
    denominator raises SingularDenominatorError by the SINGULAR_RTOL rule;
    points within TAU_SNAP of tau give the identity exactly (the continuous
    extension along rays).  Kept as the cross-oracle of the kernel.
    """
    pts, single = as_points(lam)
    a, b, at_tau = _offsets(pencil, pts)
    eye = np.eye(pencil.dim, dtype=complex)
    out = np.repeat(eye[None], len(pts), axis=0)
    live = np.flatnonzero(~at_tau)
    if live.size:
        y = pencil.contraction.matrix
        m = a[live, None, None] * (eye - y) + b[live, None, None] * y
        bad = live[_singular(np.linalg.svd(m, compute_uv=False))]
        if bad.size:
            lam = tuple(complex(z) for z in pts[bad[0]])
            raise SingularDenominatorError(f"pencil denominator singular at lam={lam!r}")
        out[live] = eye - (a[live] * b[live])[:, None, None] * np.linalg.solve(m, eye)
    return out[0] if single else out


def i_y_diagonal(pencil: OperatorPencil, points) -> np.ndarray:
    """The pencil in Y's eigenbasis: phi_{w_i}(lam) for N points, shape (N, n).

    ``points`` is an (N, 2) complex array.  Column i belongs to column i
    of ``pencil.contraction.decomposition.eigenvectors``, so I_Y(lam) is
    U diag(row) U*.  Each entry is 1 - (1-p)(1-q) / d_i with the scalar
    denominator d_i = (1-p)(1-w_i) + (1-q) w_i; the |d_i| are the singular
    values of the denominator operator, so a point raises
    SingularDenominatorError by the same SINGULAR_RTOL rule as
    :func:`i_y_eval`, and points within TAU_SNAP of tau give exact ones.
    """
    return np.ascontiguousarray(_diagonal_rows(pencil, np.asarray(points, dtype=complex)).T)


def _diagonal_rows(pencil: OperatorPencil, pts: np.ndarray) -> np.ndarray:
    """:func:`i_y_diagonal` with the point axis last: shape (n, N).

    The batched kernels work in this layout, where a reduction over the
    short eigen axis runs across whole rows of points.
    """
    a, b, at_tau = _offsets(pencil, pts)
    w = pencil.contraction.decomposition.weights[:, None]
    den = a * (1.0 - w) + b * w
    bad = np.flatnonzero(_singular(np.abs(den), axis=0) & ~at_tau)
    if bad.size:
        lam = tuple(complex(z) for z in pts[bad[0]])
        raise SingularDenominatorError(f"pencil denominator singular at lam={lam!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = 1.0 - a * b / den
    rows[:, at_tau] = 1.0
    return rows


def i_y_spectral_form(pencil: OperatorPencil, lam) -> np.ndarray:
    """The kernel's U diag(s) U*, s from :func:`i_y_diagonal`: (n, n) or, for an (N, 2) array, (N, n, n)."""
    pts, single = as_points(lam)
    out = pencil.contraction.decomposition.compose(i_y_diagonal(pencil, pts))
    return out[0] if single else out


@dataclass(frozen=True)
class ContractivityScan:
    """Largest operator norm of the pencil over sampled interior points."""

    max_norm: float
    argmax: DiskPoint
    n_samples: int


def sample_bidisk(rng: np.random.Generator) -> DiskPoint:
    """One point uniform w.r.t. area measure in each coordinate disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, size=2))
    th = rng.uniform(0.0, 2.0 * np.pi, size=2)
    z = r * np.exp(1j * th)
    return DiskPoint(complex(z[0]), complex(z[1]))


def _sample_coords(rng: np.random.Generator, n: int) -> np.ndarray:
    # sample_bidisk draws four uniforms per point, (r1, r2, th1, th2), and
    # uniform(0, h) is exactly h * random(), so one (n, 4) draw reproduces
    # n successive calls bit for bit
    u = rng.random((n, 4))
    return np.sqrt(u[:, :2]) * np.exp(1j * (2.0 * np.pi * u[:, 2:]))


def sample_bidisk_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """The points of n successive :func:`sample_bidisk` calls, as an (n, 2) array."""
    return _sample_coords(rng, n)


def sample_bidisk_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) arrays lam, mu drawn as n successive pairs (sample_bidisk, sample_bidisk)."""
    z = _sample_coords(rng, 2 * n)
    return z[0::2], z[1::2]


def contractivity_scan(
    pencil: OperatorPencil, n_samples: int, seed: int = 0
) -> ContractivityScan:
    """Scan random interior points for the largest pencil norm.

    The pencil is normal, so its operator norm at lam is exactly the
    largest modulus in :func:`i_y_diagonal`.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    best = -1.0
    best_point = DiskPoint(0j, 0j)
    for chunk in stack_chunks(n_samples, pencil.dim):
        z = _sample_coords(rng, chunk.stop - chunk.start)
        norms = np.abs(_diagonal_rows(pencil, z)).max(axis=0)
        i = int(np.argmax(norms))
        if norms[i] > best:
            best, best_point = float(norms[i]), DiskPoint(complex(z[i, 0]), complex(z[i, 1]))
    return ContractivityScan(best, best_point, n_samples)
