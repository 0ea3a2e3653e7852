"""Extended-precision complex linear algebra for small matrices.

The Julia quotients along the ray into a boundary point divide by gaps
as small as 2^-20; double-precision backward error (~1e-16 * ||v||^2 / t)
can then exceed 1e-9, so the ray states behind them and the polar snap
of the colligation run in ``numpy.clongdouble`` (80-bit extended on
x86-64).  Matrices here never exceed a few dozen rows, so
plain Gaussian elimination with partial pivoting is adequate.
"""

from __future__ import annotations

import numpy as np

CDTYPE = np.clongdouble

#: machine epsilon of the extended type actually available on this platform
EPS = float(np.finfo(np.longdouble).eps)

#: most Newton steps of the polar snap in nearest_unitary
POLAR_STEPS = 8


def asxp(a) -> np.ndarray:
    """Cast to a clongdouble array."""
    return np.asarray(a, dtype=CDTYPE)


def solve(m, b) -> np.ndarray:
    """Solve m @ x = b by partial-pivot elimination in extended precision.

    ``b`` may be a vector or a matrix of right-hand sides.
    """
    m = asxp(m)
    b = asxp(b)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {m.shape}")
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b.copy()
    aug = np.concatenate([m.copy(), rhs], axis=1)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[piv, col] == 0:
            raise np.linalg.LinAlgError("singular matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        # entries at and left of the pivot are never read again, so only
        # the trailing block is updated; rows with a zero multiplier are
        # skipped, which keeps the signs of zeros those rows hold
        aug[col, col + 1:] /= aug[col, col]
        factors = aug[col + 1:, col]
        rows = slice(col + 1, n) if factors.all() else col + 1 + np.flatnonzero(factors)
        aug[rows, col + 1:] -= aug[rows, col, None] * aug[col, col + 1:]
    x = np.zeros_like(aug[:, n:])
    for row in range(n - 1, -1, -1):
        x[row] = aug[row, n:]
        if row + 1 < n:
            x[row] = x[row] - aug[row, row + 1:n] @ x[row + 1:]
    return x[:, 0] if vector else x


def inv(m) -> np.ndarray:
    """Inverse in extended precision."""
    m = asxp(m)
    return solve(m, np.eye(m.shape[0], dtype=CDTYPE))


def nearest_unitary(v) -> np.ndarray:
    """Unitary polar factor of a near-unitary matrix, in extended precision.

    Newton iteration X <- (X + X^-*)/2 converges quadratically for
    matrices with singular values near 1; a handful of steps takes an
    isometry defect of ~1e-8 down to the extended-precision floor.
    """
    x = asxp(v)
    for _ in range(POLAR_STEPS):
        xn = (x + inv(x.conj().T)) / CDTYPE(2)
        if float(np.abs(xn - x).max()) < 8 * EPS:
            return xn
        x = xn
    return x


def unitary_defect(v) -> float:
    """Largest entry of |V*V - 1|, evaluated in extended precision."""
    v = asxp(v)
    n = v.shape[1]
    return float(np.abs(v.conj().T @ v - np.eye(n, dtype=CDTYPE)).max())
