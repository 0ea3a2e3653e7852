"""Extended-precision complex linear algebra for small matrices.

The Julia quotients along the ray into a boundary point divide by gaps
as small as 2^-20; double-precision backward error (~1e-16 * ||v||^2 / t)
can then exceed 1e-9, so the ray states behind them and the polar snap
of the colligation are carried in ``numpy.clongdouble`` (80-bit extended
on x86-64).  Solves refine complex128 LAPACK solutions with extended
residuals (Higham, *Accuracy and Stability*, ch. 12); the snap tracks its
isometry defect through complex128 corrections.  The extended arithmetic
is one Gram product per snap and one residual matvec per refinement step;
everything else is complex128 BLAS and LAPACK.

NumPy has no BLAS for ``clongdouble``, and its generic ``matmul`` loop is
about half as fast as the generic ``np.dot`` loop, which forms the same
sums in the same order; every extended product here is an ``np.dot``.
"""

from __future__ import annotations

import numpy as np

from .errors import UnconvergedError

CDTYPE = np.clongdouble

#: machine epsilon of the extended type actually available on this platform
EPS = float(np.finfo(np.longdouble).eps)

#: most Newton-Schulz steps of the polar snap in nearest_unitary
POLAR_STEPS = 8

#: most refinement corrections of solve before a system counts as unsettled
REFINE_STEPS = 8


def asxp(a) -> np.ndarray:
    """Cast to a clongdouble array."""
    return np.asarray(a, dtype=CDTYPE)


def solve(m, b, shifts) -> np.ndarray:
    """Solve the K systems (1 - s_k m) x_k = b to extended precision, for shifts s (K,).

    ``b`` is a vector; the solutions are stacked along a new first axis,
    shape (K, n).  Solves refine by mixed precision: factors and
    corrections are complex128 (one stacked ``np.linalg.solve`` per step);
    x and the residual r are CDTYPE, and r costs one extended matvec
    ``np.dot(x, m.T)`` per step.  A system settles, and is left alone,
    once ||r|| <= 2 EPS (N ||x|| + ||b||) with N = 1 + |s_k| ||m||: a
    backward error of 2 EPS.  (Its correction reaches the EPS floor of x
    only when it is well conditioned.)  One not settled after REFINE_STEPS
    corrections raises UnconvergedError; an exactly singular one raises
    LinAlgError.
    """
    m, b = asxp(m), asxp(b)
    n = m.shape[0]
    if m.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"expected a square matrix and a vector, got {m.shape} and {b.shape}")
    s = asxp(shifts).reshape(-1, 1)
    k = len(s)
    systems = s.astype(complex)[:, :, None] * m.astype(complex)
    np.subtract(np.eye(n), systems, out=systems)
    m_bound = 2.0 * EPS * (1.0 + np.abs(s.ravel()) * np.abs(m).sum(axis=1).max(initial=0.0))
    b_bound = 2.0 * EPS * np.abs(b).max(initial=0.0)
    x = np.linalg.solve(systems, b[:, None].astype(complex))[..., 0].astype(CDTYPE)
    active = np.arange(k)
    for step in range(REFINE_STEPS + 1):
        xa = x if active.size == k else x[active]
        r = b - xa + s[active] * np.dot(xa, m.T)
        bound = m_bound[active] * np.abs(xa).max(axis=1, initial=0.0) + b_bound
        # written as a negation so that a NaN residual stays unsettled
        keep = ~(np.abs(r).max(axis=1, initial=0.0) <= bound)
        active, r = active[keep], r[keep]
        if not active.size:
            return x
        if step < REFINE_STEPS:
            sa = systems if active.size == k else systems[active]
            x[active] += np.linalg.solve(sa, r.astype(complex)[..., None])[..., 0]
    raise UnconvergedError(
        f"refinement left {active.size} of {k} systems unsettled after {REFINE_STEPS} corrections"
    )


def nearest_unitary(v) -> np.ndarray:
    """Unitary polar factor of a near-unitary matrix, in extended precision.

    The Newton-Schulz iteration X <- X + X E / 2, with E = 1 - X* X,
    converges quadratically for matrices with singular values near 1 and
    needs only products; a handful of steps takes an isometry defect of
    ~1e-8 down to the extended-precision floor.  E is formed in extended
    precision once, by one Gram product.  Each step D = X E / 2 is then a
    complex128 product, and E is tracked as E - (Xd* D + D* Xd + D* D)
    with Xd the complex128 rounding of X: a step is at most of the size of
    the input's defect, so these roundings fall far below EPS.  The
    iteration stops once max |E| <= 16 EPS, a step of about 8 EPS, without
    taking that step.
    """
    x = asxp(v)
    e = np.eye(x.shape[1], dtype=CDTYPE) - np.dot(x.conj().T, x)
    for _ in range(POLAR_STEPS):
        if float(np.abs(e).max()) <= 16 * EPS:
            return x
        xd = x.astype(complex)
        d = np.dot(xd, e.astype(complex)) / 2
        g = np.dot(xd.conj().T, d)
        e -= g + g.conj().T + np.dot(d.conj().T, d)
        x = x + d
    return x
