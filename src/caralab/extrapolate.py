"""Richardson extrapolation for limits along geometric schedules."""

from __future__ import annotations

import numpy as np


def richardson_limit(values, ratio: float = 2.0, levels: int = 2):
    """Accelerate a sequence sampled at steps t, t/ratio, t/ratio^2, ...

    Assumes an expansion value(t) = L + c1 t + c2 t^2 + ...; each level
    cancels one power.  Returns (limit, residual) where the residual is the
    distance between the last two accelerated entries, a convergence
    proxy.  ``values`` is an array, or a sequence of equal-shaped entries,
    whose axis 0 runs along the schedule; each level is one expression on
    the whole array.  Works elementwise on entries of any float or complex
    dtype; array entries (one sequence per column) give an elementwise
    residual array.
    """
    seq = np.ascontiguousarray(values)
    if len(seq) < 2:
        raise ValueError("need at least two values to extrapolate")
    levels = max(1, min(levels, len(seq) - 1))
    for level in range(1, levels + 1):
        prev_last = seq[-1]
        factor = ratio**level
        seq = (factor * seq[1:] - seq[:-1]) / (factor - 1.0)
    limit = seq[-1]
    # convergence proxy: spread of the last accelerated entries, falling
    # back to the step from the previous level when only one survives
    reference = seq[-2] if len(seq) >= 2 else prev_last
    gap = (limit - reference).astype(complex)
    residual = np.sqrt(gap.real * gap.real + gap.imag * gap.imag)
    return limit, residual if residual.ndim else float(residual)
