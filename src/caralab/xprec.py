"""Extended-precision complex linear algebra for small matrices.

The Julia quotients along the ray into a boundary point divide by gaps
as small as 2^-20; double-precision backward error (~1e-16 * ||v||^2 / t)
can then exceed 1e-9, so the ray states behind them and the polar snap
of the colligation are carried in ``numpy.clongdouble`` (80-bit extended
on x86-64).  Solves refine complex128 LAPACK solutions with extended
residuals (Higham, *Accuracy and Stability*, ch. 12); the snap needs
only products.
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
    x and the residual r are CDTYPE.  A system settles, and is left alone,
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
    s = asxp(shifts).reshape(-1, 1, 1)
    systems = np.eye(n) - s.astype(complex) * m.astype(complex)
    m_bound = 2.0 * EPS * (1.0 + np.abs(s.ravel()) * np.abs(m).sum(axis=1).max(initial=0.0))
    b_bound = 2.0 * EPS * np.abs(b).max(initial=0.0)
    x = np.linalg.solve(systems, b[:, None].astype(complex)).astype(CDTYPE)
    active = np.arange(len(s))
    for step in range(REFINE_STEPS + 1):
        r = b[:, None] - x[active] + s[active] * (m @ x[active])
        bound = m_bound[active] * np.abs(x[active]).max(axis=(1, 2), initial=0.0) + b_bound
        # written as a negation so that a NaN residual stays unsettled
        keep = ~(np.abs(r).max(axis=(1, 2), initial=0.0) <= bound)
        active, r = active[keep], r[keep]
        if not active.size:
            return x[..., 0]
        if step < REFINE_STEPS:
            x[active] += np.linalg.solve(systems[active], r.astype(complex))
    raise UnconvergedError(
        f"refinement left {active.size} of {len(s)} systems unsettled after {REFINE_STEPS} corrections"
    )


def nearest_unitary(v) -> np.ndarray:
    """Unitary polar factor of a near-unitary matrix, in extended precision.

    The Newton-Schulz iteration X <- X (3 - X* X) / 2 converges
    quadratically for matrices with singular values near 1 and needs only
    products; a handful of steps takes an isometry defect of ~1e-8 down to
    the extended-precision floor.  It stops once max |X* X - 1| <= 16 EPS,
    a step X (1 - X* X) / 2 of about 8 EPS, without taking that step.
    """
    x = asxp(v)
    eye = np.eye(x.shape[1], dtype=CDTYPE)
    for _ in range(POLAR_STEPS):
        g = x.conj().T @ x
        if float(np.abs(g - eye).max()) <= 16 * EPS:
            return x
        x = x @ (CDTYPE(3) * eye - g) / CDTYPE(2)
    return x


def unitary_defect(v) -> float:
    """Largest entry of |V*V - 1|, evaluated in extended precision."""
    v = asxp(v)
    n = v.shape[1]
    return float(np.abs(v.conj().T @ v - np.eye(n, dtype=CDTYPE)).max())
