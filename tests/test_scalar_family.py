import cmath
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    DegenerateParameterError,
    InadmissibleDirectionError,
    PoleHitError,
    build_grid,
    derivative_model,
    model_vector_bound,
    phi_y_directional_derivative,
    phi_y_eval,
    phi_y_model_residual,
    phi_y_model_vector,
    rotation_basis,
)
from caralab import scalar_family
from caralab.pencil import sample_bidisk_pairs
from conftest import TAU_11, TAUS, disk_point, scalar_model

YS = tuple(k / 10.0 for k in range(1, 10))


def disk_complex(max_modulus=0.999):
    return st.tuples(
        st.floats(0.0, max_modulus), st.floats(0.0, 2.0 * math.pi)
    ).map(lambda rt: cmath.rect(rt[0], rt[1]))


class TestEval:
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("y", YS)
    def test_ray_identity(self, y, tau):
        for r in np.linspace(0.001, 0.999, 97):
            lam = tau.ray_point(1.0 - r)
            assert abs(phi_y_eval(y, tau, lam) - r) <= 1e-12

    def test_hand_value(self):
        assert phi_y_eval(0.5, TAU_11, (0.5, 0.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_endpoint_monomials(self, rng):
        for tau in TAUS:
            for _ in range(25):
                lam = disk_point(rng)
                # exactly the monomials, rounded as NumPy's complex product rounds them
                lam1, lam2 = np.array([lam.lam1]), np.array([lam.lam2])
                assert phi_y_eval(1.0, tau, lam) == (tau.tau1.conjugate() * lam1)[0]
                assert phi_y_eval(0.0, tau, lam) == (tau.tau2.conjugate() * lam2)[0]

    def test_schur_bound(self, rng):
        for _ in range(10_000):
            lam = disk_point(rng)
            for y in YS:
                assert abs(phi_y_eval(y, TAUS[2], lam)) < 1.0

    def test_inner_on_torus(self, rng):
        # unimodular boundary values away from the denominator zero set
        kept = 0
        for _ in range(500):
            th = rng.uniform(0.0, 2.0 * np.pi, size=2)
            lam = (cmath.exp(1j * th[0]), cmath.exp(1j * th[1]))
            for y in (0.3, 0.7):
                p = TAU_11.tau1.conjugate() * lam[0]
                q = TAU_11.tau2.conjugate() * lam[1]
                if abs((1 - y) * (1 - p) + y * (1 - q)) < 1e-3:
                    continue
                kept += 1
                assert abs(abs(phi_y_eval(y, TAU_11, lam)) - 1.0) <= 1e-10
        assert kept > 100

    def test_pole_on_boundary(self):
        with pytest.raises(PoleHitError):
            phi_y_eval(0.5, TAU_11, (1.0 + 0j, 1.0 + 0j))

    def test_parameter_range_checked(self):
        with pytest.raises(ValueError):
            phi_y_eval(1.5, TAU_11, (0, 0))


class TestModelVector:
    def test_center_value(self):
        u = phi_y_model_vector(0.5, TAU_11, (0, 0))
        s = math.sqrt(0.5)
        assert u.u1 == pytest.approx(s, abs=1e-15)
        assert u.u2 == pytest.approx(s, abs=1e-15)
        assert u.norm == pytest.approx(1.0, abs=1e-15)

    def test_constant_along_diagonal(self):
        s = math.sqrt(0.5)
        for r in (0.1, 0.5, 0.9):
            u = phi_y_model_vector(0.5, TAU_11, (r, r))
            assert u.u1 == pytest.approx(s, abs=1e-14)
            assert u.u2 == pytest.approx(s, abs=1e-14)
            # rotated description: the varying coefficient dies on the diagonal
            assert abs(u.coef_plus) <= 1e-14

    @pytest.mark.parametrize("tau", TAUS)
    def test_rotation_reconstructs_standard_form(self, tau, rng):
        for y in (0.2, 0.5, 0.8):
            for _ in range(20):
                u = phi_y_model_vector(y, tau, disk_point(rng))
                assert np.abs(u.reconstruct() - u.as_array()).max() <= 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_array_of_points_matches_one_point_calls(self, tau, rng):
        points = [disk_point(rng), disk_point(rng)]
        batch = phi_y_model_vector(0.3, tau, np.array([tuple(p) for p in points]))
        singles = [phi_y_model_vector(0.3, tau, p) for p in points]
        assert batch.norm.shape == (2,)
        # np.hypot and math.hypot may differ in the last bit
        for norm, one in zip(batch.norm.tolist(), singles):
            assert type(one.norm) is float
            assert norm == pytest.approx(one.norm, rel=1e-15, abs=0.0)
        assert batch.reconstruct().shape == (2, 2)
        assert singles[0].reconstruct().shape == (2,)
        assert batch.reconstruct().tolist() == [one.reconstruct().tolist() for one in singles]

    def test_rotation_basis_orthonormal(self):
        for y in YS:
            e_plus, e_minus = rotation_basis(y)
            assert abs(np.vdot(e_plus, e_minus)) <= 1e-15
            assert np.linalg.norm(e_plus) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(e_minus) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints_degenerate(self):
        for y in (0.0, 1.0):
            with pytest.raises(DegenerateParameterError):
                phi_y_model_vector(y, TAU_11, (0, 0))

    @pytest.mark.parametrize("aperture", [1.0, 2.0, 5.0])
    def test_nontangential_norm_bound(self, aperture):
        for tau in TAUS:
            grid = build_grid(tau, aperture, depth=14)
            for y in (0.1, 0.5, 0.9):
                bound = model_vector_bound(y, aperture)
                for pt in grid.coords.reshape(-1, 2).tolist():
                    assert phi_y_model_vector(y, tau, pt).norm <= bound + 1e-12


class TestModelIdentity:
    def test_center_pair(self):
        assert phi_y_model_residual(0.5, TAU_11, (0, 0), (0, 0)) <= 1e-15

    def test_diagonal_specialization(self, rng):
        for _ in range(50):
            lam = disk_point(rng)
            u = phi_y_model_vector(0.4, TAUS[1], lam)
            phi = phi_y_eval(0.4, TAUS[1], lam)
            lhs = 1.0 - abs(phi) ** 2
            rhs = (1.0 - abs(lam.lam1) ** 2) * abs(u.u1) ** 2 + (
                1.0 - abs(lam.lam2) ** 2
            ) * abs(u.u2) ** 2
            assert abs(lhs - rhs) <= 1e-10

    def test_one_family_evaluation_for_lam_and_mu(self, monkeypatch, rng):
        counts = collections.Counter()
        for name in ("_pq", "_denominator"):
            kernel = getattr(scalar_family, name)
            monkeypatch.setattr(
                scalar_family, name, lambda *args, kernel=kernel, name=name: counts.update([name]) or kernel(*args)
            )
        phi_y_model_residual(0.3, TAUS[2], disk_point(rng), disk_point(rng))
        assert counts == {"_pq": 1, "_denominator": 1}
        lam, mu = sample_bidisk_pairs(rng, 7)
        assert phi_y_model_residual(0.3, TAUS[2], lam, mu).shape == (7,)
        assert counts == {"_pq": 2, "_denominator": 2}

    def test_pole_at_mu(self):
        with pytest.raises(PoleHitError, match=r"\|den\| = 0\.000e\+00"):
            phi_y_model_residual(0.5, TAU_11, (0, 0), (1, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        y=st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
        l1=disk_complex(),
        l2=disk_complex(),
        m1=disk_complex(),
        m2=disk_complex(),
    )
    def test_residual_property(self, y, l1, l2, m1, m2):
        for tau in TAUS:
            assert phi_y_model_residual(y, tau, (l1, l2), (m1, m2)) <= 1e-10


class TestDirectionalDerivative:
    def test_hand_values(self):
        assert phi_y_directional_derivative(0.5, TAU_11, (-1, -1)) == pytest.approx(-1.0)
        assert phi_y_directional_derivative(0.5, TAU_11, (-2, -1)) == pytest.approx(-4.0 / 3.0)
        assert phi_y_directional_derivative(1.0, TAU_11, (-2, -1)) == pytest.approx(-2.0)
        assert phi_y_directional_derivative(0.0, TAU_11, (-2, -1)) == pytest.approx(-1.0)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleDirectionError):
            phi_y_directional_derivative(0.5, TAU_11, (1, -1))

    def test_tiny_direction_agrees_with_the_swap_model(self):
        # phi_y is the swap model over Y = [[y]]; an admissible direction has no pole
        delta = (-1e-20, -1e-20)
        want = derivative_model(scalar_model(0.5), delta)
        assert phi_y_directional_derivative(0.5, TAU_11, delta) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(-1e-20, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        s=st.floats(0.1, 10.0),
        re1=st.floats(-5.0, -0.1),
        im1=st.floats(-3.0, 3.0),
        re2=st.floats(-5.0, -0.1),
        im2=st.floats(-3.0, 3.0),
        y=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
    )
    def test_homogeneous_degree_one(self, s, re1, im1, re2, im2, y):
        tau = TAUS[2]
        delta = (complex(re1, im1) * tau.tau1, complex(re2, im2) * tau.tau2)
        scaled = (s * delta[0], s * delta[1])
        d1 = phi_y_directional_derivative(y, tau, delta)
        d2 = phi_y_directional_derivative(y, tau, scaled)
        assert abs(d2 - s * d1) <= 1e-10 * max(1.0, abs(d2))

    def test_nonlinearity_defect(self):
        da, db = (-2, -1), (-1, -2)
        joint = phi_y_directional_derivative(0.5, TAU_11, (-3, -3))
        split = phi_y_directional_derivative(0.5, TAU_11, da) + phi_y_directional_derivative(
            0.5, TAU_11, db
        )
        assert abs(joint - split) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(joint - split) > 0.1

    def test_matches_ray_slope(self):
        # along the ray phi_y((1-t) tau) = 1 - t, so the slope at delta = -tau is -1
        for tau in TAUS:
            delta = (-tau.tau1, -tau.tau2)
            for y in YS:
                assert phi_y_directional_derivative(y, tau, delta) == pytest.approx(
                    -1.0, abs=1e-12
                )


class TestBoundedWithoutContinuity:
    """The model vector stays bounded nontangentially yet has no limit."""

    def test_model_vector_limit_depends_on_approach(self):
        # diagonal approach: rotated coefficient 0; skewed radial approach
        # (second coordinate at half speed): coefficient -> -1/3
        y = 0.5
        diag_coefs, skew_coefs = [], []
        for k in range(6, 20):
            t = 2.0**-k
            diag_coefs.append(phi_y_model_vector(y, TAU_11, (1 - t, 1 - t)).coef_plus)
            skew_coefs.append(
                phi_y_model_vector(y, TAU_11, (1 - t, 1 - t / 2)).coef_plus
            )
        assert abs(diag_coefs[-1]) <= 1e-12
        assert skew_coefs[-1] == pytest.approx(-1.0 / 3.0, abs=1e-6)
        # each family converges on its own, but to different vectors
        assert abs(skew_coefs[-1] - skew_coefs[-2]) <= 1e-4
        gap = abs(skew_coefs[-1] - diag_coefs[-1])
        assert gap > 0.1

    def test_yet_bounded_on_both_families(self):
        bound = model_vector_bound(0.5, 2.0)
        for k in range(1, 20):
            t = 2.0**-k
            for lam in [(1 - t, 1 - t), (1 - t, 1 - t / 2)]:
                assert phi_y_model_vector(0.5, TAU_11, lam).norm <= bound
