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
route every caller takes.  It computes phi_w as 1 - ab/d at the offsets
a = 1 - p and b = 1 - q, with d = a(1-w) + bw, and owns that one
denominator and its one pole rule for the scalar family too.
:func:`i_y_spectral_form` is that kernel's full-matrix view, and
:func:`i_y_eval`, a stacked direct solve of the denominator operator, is
its independent cross-oracle.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .errors import SingularDenominatorError
from .hermitian import PositiveContraction
from .points import BoundaryPoint, as_points

#: relative singular-value floor below which a denominator counts as singular
SINGULAR_RTOL = 1e-13

#: how far past [0, 1] the certificate of :func:`i_y_eval` widens the
#: spectrum of Y beyond what the eigensolver measured; the eigensolver's
#: error is a small multiple of n eps ||Y||, some 1e-12 even at n = 4096
SPECTRUM_PAD = 1e-9

#: points closer to tau than this evaluate to the identity exactly
TAU_SNAP = 1e-15

#: most complex entries (points times entries per point) in one stack of the
#: batched kernels: 1 MiB of complex128, so 16 points per LAPACK call at dim
#: 64.  Fewer calls stop paying past about 2**15, while each doubling doubles
#: the largest temporary and so the peak memory
STACK_ENTRIES = 2**16


def stack_chunks(count: int, entries_per_point: int):
    """Slices of range(count), in order, each of at least two points when count >= 2.

    Each slice covers at most STACK_ENTRIES entries, or two points if one
    point alone exceeds it, except that a lone last point joins the slice
    before it.  No stack holds a lone point: NumPy can multiply one-element
    complex arrays in a scalar loop, which rounds differently from its
    vector loop, and every point must get the same bits in any stack.
    """
    step = _stack_step(entries_per_point)
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [count]):
        yield slice(start, stop)


def _stack_step(entries_per_point: int) -> int:
    """Points in a whole stack of :func:`stack_chunks`."""
    return max(2, STACK_ENTRIES // max(1, entries_per_point))


def _stack_workers() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_stacks(work, count: int, entries_per_point: int) -> None:
    """Call work(chunk) on every slice of stack_chunks(count, entries_per_point).

    A call that fills at least two whole stacks runs on W threads, W the
    CPUs of the process's affinity mask (``taskset`` restricts it): the
    stacks form W contiguous runs, the calling thread works through the
    first and W - 1 threads started here the others, each in a copy of the
    caller's context (so ``np.errstate`` applies), and all are joined
    before this returns.  Smaller calls run in order on the calling thread.
    ``work`` must write only the rows of its own chunk, so every point gets
    the same bits on any number of threads.  A run stops at its first
    failing stack; the error of the first failing stack in input order is
    raised.
    """
    chunks = list(stack_chunks(count, entries_per_point))
    workers = min(_stack_workers(), len(chunks)) if count >= 2 * _stack_step(entries_per_point) else 1
    bounds = [len(chunks) * i // workers for i in range(workers + 1)]
    errors = [None] * workers

    def run(i):
        try:
            for chunk in chunks[bounds[i] : bounds[i + 1]]:
                work(chunk)
        except BaseException as exc:
            errors[i] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i)) for i in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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
    return mag.min(axis=axis, initial=np.inf) <= SINGULAR_RTOL * np.maximum(mag.max(axis=axis, initial=0.0), 1.0)


def _certified(lower, upper):
    """True where singular values bounded by lower and upper cannot be singular by :func:`_singular`.

    The lower bound must exceed twice the rule's threshold at the upper
    bound, which leaves room for the rounding of the SVD.  A NaN bound is
    never certified.
    """
    return lower > 2.0 * SINGULAR_RTOL * np.maximum(upper, 1.0)


def _rotated(tau, pts: np.ndarray):
    """p = conj(tau1) lam1 and q = conj(tau2) lam2 of (N, 2) points, shape (N,) each."""
    t1, t2 = tau
    return t1.conjugate() * pts[:, 0], t2.conjugate() * pts[:, 1]


def _offsets(tau, pts: np.ndarray):
    """a = 1 - p and b = 1 - q of :func:`_rotated`, shape (N,), and the TAU_SNAP mask."""
    p, q = _rotated(tau, pts)
    a, b = 1.0 - p, 1.0 - q
    return a, b, (np.abs(a) < TAU_SNAP) & (np.abs(b) < TAU_SNAP)


def _denominator(a, b, w):
    """a (1-w) + b w, broadcast: phi_w's denominator; at Y's weights, the singular values of a(1-Y) + bY."""
    return a * (1.0 - w) + b * w


def _phi_denominators(tau, w: np.ndarray, pts: np.ndarray, snap: bool = True):
    """Offsets a, b, the TAU_SNAP mask and the (n, N) denominators of phi_{w_i} at (N, 2) points.

    A point whose column is singular by :func:`_singular` over the weight
    axis raises SingularDenominatorError naming the first such point; with
    ``snap``, points within TAU_SNAP of tau are exempt.  No weights, no pole.
    """
    a, b, at_tau = _offsets(tau, pts)
    den = _denominator(a, b, w[:, None])
    bad = np.flatnonzero(_singular(np.abs(den), axis=0) & ~(at_tau & snap))
    if bad.size:
        lam = tuple(complex(z) for z in pts[bad[0]])
        raise SingularDenominatorError(f"pencil denominator singular at lam={lam!r}")
    return a, b, at_tau, den


def _phi_values(a, b, at_tau, den) -> np.ndarray:
    """phi_{w_i}(lam) = 1 - ab / d_i from :func:`_phi_denominators`, shape (n, N); exact ones at tau."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = 1.0 - a * b / den
    rows[:, at_tau] = 1.0
    return rows


def i_y_eval(pencil: OperatorPencil, lam) -> np.ndarray:
    """The pencil by stacked direct solves of (1-p)(1-Y) + (1-q)Y on the matrix Y.

    One point gives (n, n), an (N, 2) array gives (N, n, n).  A singular
    denominator raises SingularDenominatorError by the SINGULAR_RTOL rule,
    naming the first such point; points within TAU_SNAP of tau give the
    identity exactly (the continuous extension along rays).  Kept as the
    cross-oracle of the kernel: the values come from the solves alone.

    Only the points that :func:`_denominator_certified` cannot clear get
    the stacked SVD that decides the rule; a cleared point cannot raise.
    """
    pts, single = as_points(lam)
    a, b, at_tau = _offsets(pencil.tau, pts)
    eye = np.eye(pencil.dim, dtype=complex)
    out = np.repeat(eye[None], len(pts), axis=0)
    live = np.flatnonzero(~at_tau)
    if live.size:
        y = pencil.contraction.matrix
        m = a[live, None, None] * (eye - y) + b[live, None, None] * y
        doubt = ~_denominator_certified(a[live], b[live], pencil.contraction.excursion + SPECTRUM_PAD)
        if doubt.any():
            bad = live[doubt][_singular(np.linalg.svd(m[doubt], compute_uv=False))]
            if bad.size:
                lam = tuple(complex(z) for z in pts[bad[0]])
                raise SingularDenominatorError(f"pencil denominator singular at lam={lam!r}")
        out[live] = eye - (a[live] * b[live])[:, None, None] * np.linalg.solve(m, eye)
    return out[0] if single else out


def _denominator_certified(a: np.ndarray, b: np.ndarray, excursion: float) -> np.ndarray:
    """True where a(1-Y) + bY cannot be singular by the SINGULAR_RTOL rule.

    ``excursion`` bounds how far spec(Y) leaves [0, 1].  The denominator
    a + (b-a)Y is normal, so its singular values are |a + (b-a)y| over y
    in spec(Y): at least the distance from 0 to the segment
    a + (b-a)[-e, 1+e] and at most max(|a|, |b|) + e|b-a|, the bounds
    :func:`_certified` judges.
    """
    d = b - a
    start = a - excursion * d
    span = (1.0 + 2.0 * excursion) * d
    length = span.real**2 + span.imag**2
    # the parameter in [0, 1] of the segment's point nearest 0
    t = np.divide(-(start.conj() * span).real, length, out=np.zeros_like(length), where=length > 0.0)
    lower = np.abs(start + np.clip(t, 0.0, 1.0) * span)
    upper = np.maximum(np.abs(a), np.abs(b)) + excursion * np.abs(d)
    return _certified(lower, upper)


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
    return _phi_values(*_phi_denominators(pencil.tau, pencil.contraction.decomposition.weights, pts))


def i_y_spectral_form(pencil: OperatorPencil, lam) -> np.ndarray:
    """The kernel's U diag(s) U*, s from :func:`i_y_diagonal`: (n, n) or, for an (N, 2) array, (N, n, n)."""
    pts, single = as_points(lam)
    out = pencil.contraction.decomposition.compose(i_y_diagonal(pencil, pts))
    return out[0] if single else out


def sample_bidisk(rng: np.random.Generator) -> tuple[complex, complex]:
    """One point uniform w.r.t. area measure in each coordinate disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, size=2))
    th = rng.uniform(0.0, 2.0 * np.pi, size=2)
    z = r * np.exp(1j * th)
    return complex(z[0]), complex(z[1])


def sample_bidisk_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """The points of n successive :func:`sample_bidisk` calls, as an (n, 2) array."""
    # sample_bidisk draws four uniforms per point, (r1, r2, th1, th2), and
    # uniform(0, h) is exactly h * random(), so one (n, 4) draw reproduces
    # n successive calls bit for bit
    u = rng.random((n, 4))
    return np.sqrt(u[:, :2]) * np.exp(1j * (2.0 * np.pi * u[:, 2:]))


def sample_bidisk_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) arrays lam, mu drawn as n successive pairs (sample_bidisk, sample_bidisk)."""
    z = sample_bidisk_batch(rng, 2 * n)
    return z[0::2], z[1::2]


#: how far above 1 a sampled norm of the pencil or of phi may read
CONTRACTIVITY_TOL = 1e-10


def contractivity_scan(pencil: OperatorPencil, n_samples: int, seed: int = 0) -> float:
    """Largest pencil operator norm over n_samples random interior points.

    The points are those of :func:`sample_bidisk_batch`, drawn in chunks of
    at most STACK_ENTRIES entries.  The pencil is normal, so its operator
    norm at lam is exactly the largest modulus in :func:`i_y_diagonal`.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    return max(
        float(np.abs(_diagonal_rows(pencil, sample_bidisk_batch(rng, chunk.stop - chunk.start))).max())
        for chunk in stack_chunks(n_samples, pencil.dim)
    )
