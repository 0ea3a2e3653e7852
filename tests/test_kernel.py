"""The batched eigenbasis kernel against the direct-solve routes."""

import numpy as np
import pytest

from caralab import (
    Colligation,
    GeneralizedRealization,
    OperatorPencil,
    SingularDenominatorError,
    SingularResolventError,
    apply_calculus,
    i_y_eval,
    random_colligation,
    random_positive_contraction,
    validate_positive_contraction,
)
from caralab.boundary import build_grid, default_directions, derivative_model
from caralab.pencil import (
    SINGULAR_RTOL,
    TAU_SNAP,
    i_y_diagonal,
    sample_bidisk,
    sample_bidisk_batch,
    sample_bidisk_pairs,
)
from caralab.realization import ELIMINATION_MAX_DIM, _eliminate
from caralab.suite import SuiteConfig, generate_model
from conftest import TAU_11, TAUS, disk_point

#: relative agreement between the kernel and the direct solves
KERNEL_RTOL = 1e-12


def reference_resolve(model, lam):
    """Pencil, model vector and phi at one point by direct solves (the pre-kernel route)."""
    iy = i_y_eval(model.pencil, lam)
    col = model.colligation
    resolvent = np.eye(model.dim) - col.a @ iy
    sv = np.linalg.svd(resolvent, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * max(sv[0], 1.0):
        raise SingularResolventError("resolvent singular")
    v = np.linalg.solve(resolvent, col.b)
    return iy, v, col.d + col.c @ (iy @ v)


def relative_gap(got, want) -> float:
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def random_model(dim, tau, rng):
    y = random_positive_contraction(dim, rng)
    return GeneralizedRealization(OperatorPencil(y, tau), random_colligation(dim, rng))


@pytest.mark.parametrize("dim", sorted({1, 2, 3, 4, 5, 6, 7, 8, 24, ELIMINATION_MAX_DIM, ELIMINATION_MAX_DIM + 1}))
def test_kernel_matches_direct_solves(dim, rng):
    tau = TAUS[dim % len(TAUS)]
    model = random_model(dim, tau, rng)
    lams = [disk_point(rng) for _ in range(20)]
    lams += [tau.ray_point(2.0**-20), (tau.tau1, tau.tau2)]  # near and at tau
    pts = np.array([[complex(z) for z in lam] for lam in lams])
    u = model.pencil.contraction.decomposition.eigenvectors
    s, v_rot, phi = model.evaluate(pts)
    assert np.array_equal(s, i_y_diagonal(model.pencil, pts))
    np.testing.assert_array_equal(s[-1], np.ones(dim))  # TAU_SNAP identity
    worst = 0.0
    for k, lam in enumerate(lams):
        iy, v, phi_ref = reference_resolve(model, lam)
        worst = max(
            worst,
            relative_gap((u * s[k]) @ u.conj().T, iy),
            relative_gap(u @ v_rot[k], v),
            relative_gap(phi[k], phi_ref),
        )
    assert worst <= KERNEL_RTOL


def shifted_systems(n, count, rng, unit_lower):
    """(n, n+1, count) stacks [M | b] on which partial pivoting swaps rows at every step.

    Row i of M is row i+1 (mod n) of L U, with U upper triangular and well
    conditioned and L unit lower triangular.  With ``unit_lower`` the
    entries of L below the diagonal have modulus at most 1/2, so at step k
    the row of L U numbered k has the largest |re| + |im| in the column,
    and it sits in the last row; otherwise L = 1 and every leading
    diagonal entry is zero.
    """
    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = np.triu(cgauss(count, n, n)) / (2 * n) + 2.0 * np.eye(n)
    lower = np.eye(n) + (np.tril(cgauss(count, n, n), -1) / (4 * n) if unit_lower else 0.0)
    m = np.roll(lower @ u, -1, axis=1)
    b = cgauss(count, n, 1)
    return np.concatenate([m, b], axis=2).transpose(1, 2, 0).copy(), m, b


@pytest.mark.parametrize("unit_lower", [False, True])
def test_elimination_matches_lapack_when_every_step_swaps(unit_lower, rng):
    for n in range(1, ELIMINATION_MAX_DIM + 1):
        system, m, b = shifted_systems(n, 40, rng, unit_lower)
        if n > 1 and not unit_lower:
            assert np.all(system[np.arange(n - 1), np.arange(n - 1)] == 0.0)
        x = _eliminate(system).T
        want = np.linalg.solve(m, b)[..., 0]
        assert np.linalg.norm(x - want, axis=1).max() <= KERNEL_RTOL * np.linalg.norm(want, axis=1).max()


def test_direct_solve_batch_stacks_the_one_point_values(rng):
    for dim in (1, 3, 8):
        tau = TAUS[dim % len(TAUS)]
        pen = OperatorPencil(random_positive_contraction(dim, rng), tau)
        lams = [disk_point(rng) for _ in range(6)] + [(tau.tau1, tau.tau2)]
        batch = i_y_eval(pen, np.array([tuple(lam) for lam in lams]))
        assert batch.shape == (len(lams), dim, dim)
        for k, lam in enumerate(lams):
            np.testing.assert_array_equal(batch[k], i_y_eval(pen, lam))
        np.testing.assert_array_equal(batch[-1], np.eye(dim))  # TAU_SNAP identity
    pen = OperatorPencil(validate_positive_contraction(np.diag([1.0, 0.0])), TAU_11)
    with pytest.raises(SingularDenominatorError):
        i_y_eval(pen, np.array([(0.5, 0.5), (1.0, 0.0)]))


def reference_calculus(y, f):
    """f(Y) as the sum of f(w) times the eigenprojector P_w, one Hermitian
    U_w U_w* per distinct weight: how functions of Y were formed when the
    decomposition stored its projectors."""
    dec = y.decomposition
    total = np.zeros((y.dim, y.dim), dtype=complex)
    for w in dec.eigenvalues:
        cols = dec.eigenvectors[:, dec.weights == w]
        p = cols @ cols.conj().T
        total += complex(f(w)) * (p + p.conj().T) / 2
    return total


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_eigenbasis_formulas_match_projector_sums(dim, rng):
    tau = TAUS[dim % len(TAUS)]
    # endpoints and a repeated interior eigenvalue, then distinct interior ones
    vals = np.resize([1.0, 0.0, 0.4], (dim + 1) // 2)
    vals = np.concatenate([vals, rng.uniform(0.05, 0.95, dim // 2)])
    y = random_positive_contraction(dim, rng, eigenvalues=vals)
    model = GeneralizedRealization(OperatorPencil(y, tau), random_colligation(dim, rng))
    f = lambda t: np.exp(2j * t) / (1.5 - t)  # noqa: E731
    assert relative_gap(apply_calculus(y, f), reference_calculus(y, f)) <= KERNEL_RTOL
    v = model.v_at_tau().value
    eye = np.eye(dim)
    for d1, d2 in default_directions(tau, 4):
        a, b = tau.tau1.conjugate() * d1, tau.tau2.conjugate() * d2
        g = reference_calculus(y, lambda t: a * b / (a * (1.0 - t) + b * t))
        analytic = model.phi_at_tau() * np.vdot(v, g @ v)
        assert relative_gap(derivative_model(model, (d1, d2)), analytic) <= KERNEL_RTOL
        # the projector sum is the direct solve on the matrix Y
        direct = a * b * np.linalg.solve(a * (eye - y.matrix) + b * y.matrix, eye)
        assert relative_gap(g, direct) <= KERNEL_RTOL


def test_tau_snap_window(rng):
    pen = OperatorPencil(random_positive_contraction(3, rng), TAU_11)
    inside = 1.0 - 0.5 * TAU_SNAP
    s = i_y_diagonal(pen, np.array([[inside, inside]]))
    np.testing.assert_array_equal(s, np.ones((1, 3)))


def test_batch_points_through_phi_and_model_vector(rng):
    model = random_model(4, TAUS[1], rng)
    lam, mu = sample_bidisk_pairs(rng, 25)
    phis = model.phi(lam)
    vs = model.model_vector(lam)
    residuals = model.model_residual(lam, mu)
    assert phis.shape == (25,) and vs.shape == (25, 4) and residuals.shape == (25,)
    for k in range(25):
        one = tuple(lam[k])
        assert relative_gap(model.phi(one), phis[k]) <= KERNEL_RTOL
        assert relative_gap(model.model_vector(one), vs[k]) <= KERNEL_RTOL
        assert abs(model.model_residual(one, tuple(mu[k])) - residuals[k]) <= 1e-15
    assert residuals.max() <= 1e-9


def test_batched_sampler_is_the_sequential_stream():
    for n in (1, 2, 7, 400):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        batch = sample_bidisk_batch(a, n)
        for k in range(n):
            point = sample_bidisk(b)
            assert tuple(batch[k]) == (point.lam1, point.lam2)
        assert a.random() == b.random()  # both streams end at the same place


def test_pair_sampler_interleaves_like_sequential_pairs():
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    lam, mu = sample_bidisk_pairs(a, 50)
    for k in range(50):
        p, q = sample_bidisk(b), sample_bidisk(b)
        assert (*lam[k], *mu[k]) == (p.lam1, p.lam2, q.lam1, q.lam2)


def outcome(fn):
    try:
        fn()
    except (SingularDenominatorError, SingularResolventError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "diag,block",
    [
        # denominator loses rank where lam1 = tau1 on the 0-eigenspace
        ([1.0, 0.0], None),
        # the shear corner A = 1 makes 1 - A I_Y(lam) vanish where lam1 = tau1
        ([1.0], [[1.0, 1.0], [0.0, 1.0]]),
        ([0.5], [[1.0, 1.0], [0.0, 1.0]]),
    ],
)
def test_singular_points_agree_with_one_point_path(diag, block, rng):
    y = validate_positive_contraction(np.diag(diag))
    pen = OperatorPencil(y, TAU_11)
    col = random_colligation(len(diag), rng) if block is None else Colligation(np.array(block, dtype=complex))
    model = GeneralizedRealization(pen, col)
    good = [(0.2 + 0.1j, -0.3j), (0.5, 0.5), (-0.4, 0.1 + 0.6j)]
    probes = good + [(1.0, 0.0), (1.0, 0.3), (1.0, 1.0), (1.0 - 1e-16, 1.0), (0.0, 1.0)]
    seen = set()
    for lam in probes:
        expect = outcome(lambda: reference_resolve(model, lam))
        seen.add(expect)
        pts = np.array(good + [lam], dtype=complex)
        assert outcome(lambda: model.evaluate(pts)) is expect, lam
        assert outcome(lambda: model.phi(lam)) is expect, lam
    assert len(seen) >= 2  # each case exercises a raising and a regular point


@pytest.fixture
def svd_calls(monkeypatch):
    """Number of matrices handed to np.linalg.svd since the fixture was set up."""
    calls = [0]
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls[0] += 1 if np.ndim(a) == 2 else len(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def suite_models(count=12):
    rng = np.random.default_rng(5)
    config = SuiteConfig()
    return [generate_model(index, rng, config)[0] for index in range(count)]


def test_certificate_spares_the_svd_at_interior_points(svd_calls):
    rng = np.random.default_rng(8)
    for model in suite_models():
        tau = model.tau
        pts = np.concatenate(
            [
                sample_bidisk_batch(rng, 300),
                tau.ray_point(np.ldexp(1.0, -np.arange(1, 25))),
                build_grid(tau, 2.0, 12).coords.reshape(-1, 2),
            ]
        )
        model.evaluate(pts)
    assert svd_calls[0] == 0


def test_svd_decides_at_tau(svd_calls):
    for model in suite_models(4):
        s, _, phi = model.evaluate(np.array([[model.tau.tau1, model.tau.tau2]]))
        np.testing.assert_array_equal(s, np.ones((1, model.dim)))
        assert phi[0] == model.phi((model.tau.tau1, model.tau.tau2))
    assert svd_calls[0] >= 4


def test_large_a_goes_to_the_svd_and_raises_where_the_direct_path_does(svd_calls):
    # ||A|| = 2 > 1: 1 - 2 phi_{1/2}(lam) vanishes on the diagonal lam = (1/2, 1/2)
    y = validate_positive_contraction([[0.5]])
    model = GeneralizedRealization(
        OperatorPencil(y, TAU_11), Colligation(np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex))
    )
    rng = np.random.default_rng(3)
    probes = [tuple(p) for p in sample_bidisk_batch(rng, 40)]
    probes += [(0.5, 0.5), (0.5 + 0j, 0.5 + 1e-17j), (0.1, 0.1), (0.0, 0.0)]
    raised = 0
    for lam in probes:
        expect = outcome(lambda: reference_resolve(model, lam))
        calls = svd_calls[0]
        assert outcome(lambda: model.evaluate(np.array([lam]))) is expect, lam
        uncertified = 1.0 - 2.0 * abs(i_y_diagonal(model.pencil, np.array([lam]))).max() <= 1e-11
        assert (svd_calls[0] > calls) == uncertified, lam
        raised += expect is SingularResolventError
    assert raised >= 2 and svd_calls[0] > raised
