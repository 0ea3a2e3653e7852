import cmath
import collections
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    DegenerateParameterError,
    InadmissibleDirectionError,
    OperatorPencil,
    SingularDenominatorError,
    build_grid,
    derivative_model,
    i_y_diagonal,
    phi_y_directional_derivative,
    phi_y_eval,
    phi_y_model_residual,
    validate_positive_contraction,
)
from caralab import pencil
from caralab.pencil import sample_bidisk_pairs
from caralab.scalar_family import phi_y_model_components
from conftest import TAU_11, TAUS, disk_point, scalar_model

YS = tuple(k / 10.0 for k in range(1, 10))


def model_vector(y: float, tau, lam):
    """u1, u2, the norm ||u|| and the coefficient along (sqrt(1-y), -sqrt(y)) of phi_y's model vector.

    One point gives 0-d arrays, an (N, 2) array gives one entry per point.
    """
    u1, u2 = (u[..., 0] for u in phi_y_model_components([y], tau, lam))
    return u1, u2, np.hypot(np.abs(u1), np.abs(u2)), math.sqrt(1.0 - y) * u1 - math.sqrt(y) * u2


def naming(lam) -> str:
    """The pattern of an error message that names the point lam."""
    return re.escape(f"at lam={tuple(complex(z) for z in lam)!r}")


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
            # tau itself included: the monomials are exact there, not snapped to 1
            for lam in [disk_point(rng) for _ in range(25)] + [(tau.tau1, tau.tau2)]:
                # exactly the monomials, rounded as NumPy's complex product rounds them
                lam1, lam2 = np.array([lam[0]]), np.array([lam[1]])
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
        # on the closed bidisk the denominator a(1-y) + by vanishes only at
        # tau, where the kernel gives exactly 1; outside it, it vanishes at
        # y = 1/4 where b = -3a, which raises naming the point
        pole = (0.75, 1.75)
        with pytest.raises(SingularDenominatorError, match=naming(pole)):
            phi_y_eval(0.25, TAU_11, pole)
        assert phi_y_eval(0.5, TAU_11, (1.0 + 0j, 1.0 + 0j)) == 1.0

    def test_parameter_range_checked(self):
        with pytest.raises(ValueError):
            phi_y_eval(1.5, TAU_11, (0, 0))


def pencil_of(y: float, tau=TAU_11) -> OperatorPencil:
    """The pencil over Y = [[y]], whose kernel entry is phi_y."""
    return OperatorPencil(validate_positive_contraction([[y]]), tau)


def outcome(evaluate):
    """The values of ``evaluate()``, or the message of the SingularDenominatorError it raises."""
    try:
        return np.asarray(evaluate(), dtype=complex).ravel().tolist()
    except SingularDenominatorError as exc:
        return str(exc)


class TestOnePoleRule:
    """phi_y is the pencil's kernel at Y = [[y]]: one denominator, one pole rule, the same values."""

    def test_a_denominator_between_the_two_old_floors_raises(self):
        # a = -1/2, b = 1/2 - 1e-13: |d| = 5e-14 lies in (1e-14, 1e-13], singular by SINGULAR_RTOL
        lam = (1.5, 0.5 + 1e-13)
        for evaluate in (lambda: phi_y_eval(0.5, TAU_11, lam), lambda: i_y_diagonal(pencil_of(0.5), np.array([lam]))):
            with pytest.raises(SingularDenominatorError, match=naming(lam)):
                evaluate()

    @pytest.mark.parametrize("y", [0.25, 0.5, 0.7])
    def test_phi_and_the_pencil_raise_at_the_same_points(self, y, rng):
        # points near the pole set a(1-y) + by = 0 at relative offsets 1e-16 to
        # 1e-11, which straddle the rule, plus tau and interior points
        a = rng.uniform(-1.0, 1.0, 200) + 1j * rng.uniform(-1.0, 1.0, 200)
        eps = 10.0 ** rng.uniform(-16, -11, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
        b = -a * (1.0 - y) / y + eps
        points = [(1.0 - x, 1.0 - z) for x, z in zip(a.tolist(), b.tolist())]
        points += [(1.0, 1.0), disk_point(rng), disk_point(rng)]
        pen = pencil_of(y)
        seen = set()
        for lam in points:
            phi = outcome(lambda: phi_y_eval(y, TAU_11, lam))
            kernel = outcome(lambda: i_y_diagonal(pen, np.array([lam], dtype=complex)))
            assert phi == kernel, lam
            seen.add(isinstance(phi, str))
        assert seen == {True, False}

    def test_the_error_names_the_first_singular_point(self, rng):
        # the second and fifth points are singular (|d| = 5e-14 and an exact zero)
        first, second = (1.5, 0.5 + 1e-13), (1.25, 0.75)
        pts = np.array([disk_point(rng), first, (1.0, 1.0), disk_point(rng), second], dtype=complex)
        for evaluate in (lambda: phi_y_eval(0.5, TAU_11, pts), lambda: i_y_diagonal(pencil_of(0.5), pts)):
            with pytest.raises(SingularDenominatorError, match=naming(first)):
                evaluate()
        with pytest.raises(SingularDenominatorError, match=naming(first)):
            phi_y_model_components([0.5, 0.3], TAU_11, pts)

    def test_no_parameters_give_empty_components(self, rng):
        # the suite passes no parameters for a model without interior weights
        pts = np.array([disk_point(rng), (1.0, 1.0), disk_point(rng)], dtype=complex)
        u1, u2 = phi_y_model_components(np.array([]), TAU_11, pts)
        assert u1.shape == u2.shape == (3, 0)
        u1, u2 = phi_y_model_components([], TAU_11, (1.0, 1.0))
        assert u1.shape == u2.shape == (0,)


class TestContractAtTau:
    """phi_y extends to exactly 1 at tau; its model vector has no limit there."""

    @pytest.mark.parametrize("tau", TAUS)
    def test_value_is_exactly_one(self, tau, rng):
        at = (tau.tau1, tau.tau2)
        pts = np.array([disk_point(rng), at, disk_point(rng)], dtype=complex)
        for y in YS:
            assert phi_y_eval(y, tau, at) == 1.0
            assert phi_y_eval(y, tau, pts)[1] == 1.0
            assert i_y_diagonal(pencil_of(y, tau), pts)[1, 0] == 1.0

    @pytest.mark.parametrize("tau", TAUS)
    def test_model_vector_raises_naming_tau(self, tau, rng):
        at = (tau.tau1, tau.tau2)
        pts = np.array([disk_point(rng), at], dtype=complex)
        calls = (
            lambda: phi_y_model_components([0.3], tau, at),
            lambda: phi_y_model_components([0.3, 0.6], tau, pts),
            lambda: phi_y_model_residual(0.3, tau, pts, pts[::-1]),
            lambda: phi_y_model_residual(0.3, tau, disk_point(rng), at),
        )
        for call in calls:
            with pytest.raises(SingularDenominatorError, match=naming(at)):
                call()


class TestModelVector:
    def test_center_value(self):
        u1, u2, norm, _ = model_vector(0.5, TAU_11, (0, 0))
        s = math.sqrt(0.5)
        assert u1 == pytest.approx(s, abs=1e-15)
        assert u2 == pytest.approx(s, abs=1e-15)
        assert norm == pytest.approx(1.0, abs=1e-15)

    def test_constant_along_diagonal(self):
        s = math.sqrt(0.5)
        for r in (0.1, 0.5, 0.9):
            u1, u2, _, coef_plus = model_vector(0.5, TAU_11, (r, r))
            assert u1 == pytest.approx(s, abs=1e-14)
            assert u2 == pytest.approx(s, abs=1e-14)
            # rotated description: the varying coefficient dies on the diagonal
            assert abs(coef_plus) <= 1e-14

    @pytest.mark.parametrize("tau", TAUS)
    def test_rotation_reconstructs_standard_form(self, tau, rng):
        for y in (0.2, 0.5, 0.8):
            for _ in range(20):
                lam = disk_point(rng)
                u1, u2, _, coef_plus = model_vector(y, tau, lam)
                # coordinates in the orthonormal basis (sqrt(1-y), -sqrt(y)), (sqrt(y), sqrt(1-y))
                sy, sy1 = math.sqrt(y), math.sqrt(1.0 - y)
                a, b = 1.0 - tau.tau1.conjugate() * lam[0], 1.0 - tau.tau2.conjugate() * lam[1]
                assert abs(sy * sy1 * (b - a) / (a * (1.0 - y) + b * y) - coef_plus) <= 1e-12
                assert abs(sy * u1 + sy1 * u2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_array_of_points_matches_one_point_calls(self, tau, rng):
        # bit for bit: each column is its one-parameter call, each row its one-point call
        points = [disk_point(rng), disk_point(rng)]
        batch = phi_y_model_components([0.3, 0.6], tau, np.array([tuple(p) for p in points]))
        assert batch[0].shape == batch[1].shape == (2, 2)
        for k, y in enumerate((0.3, 0.6)):
            for column, one in zip(batch, phi_y_model_components([y], tau, np.array(points))):
                np.testing.assert_array_equal(column[:, k], one[:, 0])
        for row, p in enumerate(points):
            for components, one in zip(batch, phi_y_model_components([0.3, 0.6], tau, p)):
                np.testing.assert_array_equal(components[row], one)

    def test_endpoints_degenerate(self):
        for y in (0.0, 1.0):
            with pytest.raises(DegenerateParameterError):
                phi_y_model_residual(y, TAU_11, (0, 0), (0, 0))

    @pytest.mark.parametrize("aperture", [1.0, 2.0, 5.0])
    def test_nontangential_norm_bound(self, aperture):
        for tau in TAUS:
            grid = build_grid(tau, aperture, depth=14)
            for y in (0.1, 0.5, 0.9):
                # the nontangential bound on ||u_{y, lam}|| over an aperture-c region
                bound = 2.0 * aperture * math.sqrt(y * (1.0 - y)) + 1.0
                _, _, norms, _ = model_vector(y, tau, grid.coords.reshape(-1, 2))
                assert np.all(norms <= bound + 1e-12)


class TestModelIdentity:
    def test_center_pair(self):
        assert phi_y_model_residual(0.5, TAU_11, (0, 0), (0, 0)) <= 1e-15

    def test_diagonal_specialization(self, rng):
        for _ in range(50):
            lam = disk_point(rng)
            u1, u2, _, _ = model_vector(0.4, TAUS[1], lam)
            phi = phi_y_eval(0.4, TAUS[1], lam)
            lhs = 1.0 - abs(phi) ** 2
            rhs = (1.0 - abs(lam[0]) ** 2) * abs(u1) ** 2 + (
                1.0 - abs(lam[1]) ** 2
            ) * abs(u2) ** 2
            assert abs(lhs - rhs) <= 1e-10

    def test_one_family_evaluation_for_lam_and_mu(self, monkeypatch, rng):
        # the pencil's offsets and denominator, once for all 2N points
        counts = collections.Counter()
        for name in ("_offsets", "_denominator"):
            kernel = getattr(pencil, name)
            monkeypatch.setattr(
                pencil, name, lambda *args, kernel=kernel, name=name: counts.update([name]) or kernel(*args)
            )
        phi_y_model_residual(0.3, TAUS[2], disk_point(rng), disk_point(rng))
        assert counts == {"_offsets": 1, "_denominator": 1}
        lam, mu = sample_bidisk_pairs(rng, 7)
        assert phi_y_model_residual(0.3, TAUS[2], lam, mu).shape == (7,)
        assert counts == {"_offsets": 2, "_denominator": 2}

    def test_pole_at_mu(self):
        # mu = tau: the model vector has no limit there, so the pole rule names it
        with pytest.raises(SingularDenominatorError, match=naming((1, 1))):
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
            diag_coefs.append(model_vector(y, TAU_11, (1 - t, 1 - t))[3])
            skew_coefs.append(model_vector(y, TAU_11, (1 - t, 1 - t / 2))[3])
        assert abs(diag_coefs[-1]) <= 1e-12
        assert skew_coefs[-1] == pytest.approx(-1.0 / 3.0, abs=1e-6)
        # each family converges on its own, but to different vectors
        assert abs(skew_coefs[-1] - skew_coefs[-2]) <= 1e-4
        gap = abs(skew_coefs[-1] - diag_coefs[-1])
        assert gap > 0.1

    def test_yet_bounded_on_both_families(self):
        bound = 2.0 * 2.0 * math.sqrt(0.5 * (1.0 - 0.5)) + 1.0
        for k in range(1, 20):
            t = 2.0**-k
            for lam in [(1 - t, 1 - t), (1 - t, 1 - t / 2)]:
                assert model_vector(0.5, TAU_11, lam)[2] <= bound
