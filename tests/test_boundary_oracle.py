"""50-digit mpmath oracles for the boundary data and for the Julia rows.

The oracle takes the ray state v((1-t) tau) = (1 - (1-t) A)^{-1} B at
t = 1e-30 in 50-digit arithmetic, which differs from the limit by O(t)
whenever E = ker(1 - A) reduces A and B is orthogonal to E to 50 digits.
A stored double block is such a block when E is trivial.  A block with a
nontrivial E is not: rounding moves its unimodular eigenvalues off 1 by
about 1e-16, and the ray state at t far below that sees the wrong limit.
For those the oracle rebuilds the exact block in 50 digits from the same
data.  The library instead deflates E from one double-precision SVD of
1 - A of the stored block; the two routes share nothing else.

The Julia oracle converts the snapped extended-precision block that the ray
states use to 50 digits without rounding, solves its ray systems at
t = 2^-4 and 2^-20 there and forms both sides of each Julia row.  The library
solves the same systems by refining a complex128 solve with extended
residuals.
"""

import mpmath
import numpy as np
import pytest

from caralab import (
    GeneralizedRealization,
    OperatorPencil,
    colligation_with_ray_limit,
    julia_quotient_ray,
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


# -- the Julia rows along the ray, from the snapped extended-precision block --

#: ray parameters of the Julia oracle: the shallowest and deepest default rows
JULIA_TS = (2.0**-4, 2.0**-20)


def mp_exact(z) -> mpmath.mpc:
    """A clongdouble entry as an mpmath number, without rounding."""
    re, im = (np.longdouble(part).as_integer_ratio() for part in (z.real, z.imag))
    return mpmath.mpc(mpmath.mpf(re[0]) / re[1], mpmath.mpf(im[0]) / im[1])


def mp_julia_row(block: np.ndarray, t: float) -> tuple[mpmath.matrix, mpmath.mpc, mpmath.mpf, mpmath.mpf]:
    """v, phi and both sides of the Julia row at (1-t) tau, in 50 digits."""
    with mpmath.workdps(DPS):
        v = mpmath.matrix([[mp_exact(z) for z in row] for row in block])
        n = v.rows - 1
        s = 1 - mpmath.mpf(t)
        x = mpmath.lu_solve(mpmath.eye(n) - s * v[:n, :n], v[:n, n])
        phi = v[n, n] + s * (v[n, :n] * x)[0]
        lhs = sum(abs(z) ** 2 for z in x)
        rhs = (1 - abs(phi) ** 2) / (1 - s**2)
        return x, phi, lhs, rhs


def julia_models() -> list[GeneralizedRealization]:
    rng = np.random.default_rng(11)
    suite = [generate_model(index, rng, SuiteConfig())[0] for index in range(3)]
    return [scalar_model(0.5), *suite, desk_model(np.random.default_rng(64))]


@pytest.mark.parametrize("index", range(5))
def test_julia_rows_match_oracle(index):
    model = julia_models()[index]
    block = model._refined_block
    rows = julia_quotient_ray(model)
    by_t = {row.t: row for row in rows}
    for t in JULIA_TS:
        x, phi, lhs, rhs = mp_julia_row(block, t)
        v, phi_x = model.ray_state(t)
        x = np.array([complex(z) for z in x])
        assert np.linalg.norm(v.astype(complex) - x) <= REL_TOL * np.linalg.norm(x)
        assert abs(complex(phi_x) - complex(phi)) <= REL_TOL * abs(complex(phi))
        assert abs(by_t[t].lhs - float(lhs)) <= REL_TOL * float(lhs)
        assert abs(by_t[t].rhs - float(rhs)) <= REL_TOL * float(rhs)


@pytest.mark.parametrize("index", range(5))
def test_ray_state_over_an_array_equals_per_t_calls(index):
    model = julia_models()[index]
    ts = 2.0 ** -np.arange(4, 21)
    v, phi = model.ray_state(ts)
    assert v.shape == (len(ts), model.dim) and phi.shape == (len(ts),)
    for t, vk, phik in zip(ts, v, phi):
        one_v, one_phi = model.ray_state(t)
        assert one_v.shape == (model.dim,) and np.ndim(one_phi) == 0
        assert np.array_equal(vk, one_v) and phik == one_phi
