"""Richardson extrapolation for limits along geometric schedules."""

from __future__ import annotations

import numpy as np


def richardson_limit(values, ratio: float = 2.0, levels: int = 2):
    """Accelerate a sequence sampled at steps t, t/ratio, t/ratio^2, ...

    Assumes an expansion value(t) = L + c1 t + c2 t^2 + ...; each level
    cancels one power.  Returns (limit, residual) where the residual is the
    distance between the last two accelerated entries, a convergence
    proxy.  Works elementwise on scalars or arrays of any float dtype; array
    entries (one sequence per column) give an elementwise residual array.
    """
    seq = [np.asarray(v) for v in values]
    if len(seq) < 2:
        raise ValueError("need at least two values to extrapolate")
    levels = max(1, min(levels, len(seq) - 1))
    prev_last = seq[-1]
    for level in range(1, levels + 1):
        prev_last = seq[-1]
        factor = ratio**level
        seq = [(factor * seq[i + 1] - seq[i]) / (factor - 1.0) for i in range(len(seq) - 1)]
    limit = seq[-1]
    # convergence proxy: spread of the last accelerated entries, falling
    # back to the step from the previous level when only one survives
    reference = seq[-2] if len(seq) >= 2 else prev_last
    gap = (limit - reference).astype(complex)
    residual = np.sqrt(gap.real * gap.real + gap.imag * gap.imag)
    return limit, residual if residual.ndim else float(residual)
