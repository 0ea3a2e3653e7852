"""A 50-digit mpmath oracle for the boundary data v_tau and phi_tau.

The oracle takes the ray state v((1-t) tau) = (1 - (1-t) A)^{-1} B at
t = 1e-30 in 50-digit arithmetic, which differs from the limit by O(t)
whenever E = ker(1 - A) reduces A and B is orthogonal to E to 50 digits.
A stored double block is such a block when E is trivial.  A block with a
nontrivial E is not: rounding moves its unimodular eigenvalues off 1 by
about 1e-16, and the ray state at t far below that sees the wrong limit.
For those the oracle rebuilds the exact block in 50 digits from the same
data.  The library instead deflates E from one double-precision SVD of
1 - A of the stored block; the two routes share nothing else.
"""

import mpmath
import numpy as np
import pytest

from caralab import (
    GeneralizedRealization,
    OperatorPencil,
    colligation_with_ray_limit,
    random_positive_contraction,
)
from caralab.suite import SuiteConfig, generate_model
from conftest import TAUS, desk_model, scalar_model

DPS = 50
RAY_T = "1e-30"

#: relative agreement demanded of the library's v_tau and phi_tau
REL_TOL = 1e-12


def mp_householder(direction, strength: float) -> mpmath.matrix:
    """:func:`colligation_with_ray_limit`'s reflection, formed in 50-digit arithmetic."""
    with mpmath.workdps(DPS):
        vhat = mpmath.matrix(np.asarray(direction, dtype=complex).tolist())
        b = strength * vhat / mpmath.norm(vhat)
        d = mpmath.sqrt(1 - mpmath.mpf(strength) ** 2)
        w = mpmath.matrix([-z for z in b] + [1 - d])
        return mpmath.eye(w.rows) - 2 * (w * w.H) / (w.H * w)[0]


def mp_boundary_data(block) -> tuple[np.ndarray, complex]:
    """v_tau and phi_tau of a colligation block, from its 50-digit ray state at t = RAY_T."""
    with mpmath.workdps(DPS):
        v = block if isinstance(block, mpmath.matrix) else mpmath.matrix(block.tolist())
        n = v.rows - 1
        s = 1 - mpmath.mpf(RAY_T)
        x = mpmath.lu_solve(mpmath.eye(n) - s * v[:n, :n], v[:n, n])
        phi = v[n, n] + s * (v[n, :n] * x)[0]
        return np.array([complex(z) for z in x]), complex(phi)


def assert_matches_oracle(model: GeneralizedRealization, exact_block=None) -> None:
    ray = model.v_at_tau()
    assert ray.converged and not ray.diverged
    v_tau, phi_tau = mp_boundary_data(model.colligation.block if exact_block is None else exact_block)
    assert np.linalg.norm(ray.value - v_tau) <= REL_TOL * np.linalg.norm(v_tau)
    assert abs(model.phi_at_tau() - phi_tau) <= REL_TOL * abs(phi_tau)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("strength", [0.3, 0.8, 1.0])
def test_householder_colligations(dim, strength):
    # 1 - A has rank one, so E = ker(1 - A) has dimension dim - 1
    rng = np.random.default_rng(100 * dim + int(10 * strength))
    direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    col = colligation_with_ray_limit(direction, strength)
    y = random_positive_contraction(dim, rng)
    model = GeneralizedRealization(OperatorPencil(y, TAUS[dim % len(TAUS)]), col)
    assert np.linalg.svd(np.eye(dim) - col.a, compute_uv=False)[1] <= model.v_at_tau().threshold
    assert_matches_oracle(model, mp_householder(direction, strength))


def test_swap_model():
    assert_matches_oracle(scalar_model(0.5))


def test_random_suite_models():
    rng = np.random.default_rng(7)
    for index in range(12):
        model, _, _ = generate_model(index, rng, SuiteConfig())
        assert_matches_oracle(model)


def test_desk_model():
    model = desk_model(np.random.default_rng(64))
    assert model.v_at_tau().threshold < np.linalg.svd(np.eye(64) - model.colligation.a, compute_uv=False)[-1]
    assert_matches_oracle(model)
