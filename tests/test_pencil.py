import re

import numpy as np
import pytest

from caralab import (
    InadmissibleDirectionError,
    OperatorPencil,
    SingularDenominatorError,
    contractivity_scan,
    direction_entry_time,
    i_y_diagonal,
    i_y_eval,
    i_y_spectral_form,
    opnorm,
    phi_y_directional_derivative,
    phi_y_eval,
    random_positive_contraction,
    validate_positive_contraction,
)
from caralab import pencil
from conftest import TAU_11, TAUS, disk_point


def pencil_of(diag, tau=TAU_11):
    return OperatorPencil(validate_positive_contraction(np.diag(diag)), tau)


class TestEval:
    def test_projection_gives_coordinate_multiplier(self, rng):
        pen = pencil_of([1.0, 0.0])
        for _ in range(20):
            lam = disk_point(rng)
            expect = np.diag(lam)
            assert opnorm(i_y_eval(pen, lam) - expect) <= 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_identity_at_tau(self, tau, rng):
        y = random_positive_contraction(4, rng)
        pen = OperatorPencil(y, tau)
        assert opnorm(i_y_eval(pen, tau) - np.eye(4)) <= 1e-10

    def test_scalar_case_is_family_member(self, rng):
        pen = pencil_of([0.5])
        for _ in range(30):
            lam = disk_point(rng)
            val = complex(i_y_eval(pen, lam)[0, 0])
            assert abs(val - phi_y_eval(0.5, TAU_11, lam)) <= 1e-13

    def test_singular_denominator_on_boundary_edge(self):
        # first coordinate pinned at tau1 makes the denominator lose rank
        pen = pencil_of([1.0, 0.0])
        with pytest.raises(SingularDenominatorError):
            i_y_eval(pen, (1.0 + 0j, 0.0j))

    def test_ray_value_is_scalar(self, rng):
        y = random_positive_contraction(5, rng)
        pen = OperatorPencil(y, TAUS[2])
        for t in (0.5, 0.01):
            lam = TAUS[2].ray_point(t)
            assert opnorm(i_y_eval(pen, lam) - (1.0 - t) * np.eye(5)) <= 1e-10


class TestSpectralForm:
    def test_center_vanishes(self):
        pen = pencil_of([0.25, 0.75])
        assert opnorm(i_y_spectral_form(pen, (0, 0))) <= 1e-14

    def test_projection_splits_into_projectors(self, rng):
        y = validate_positive_contraction(np.diag([1.0, 1.0, 0.0]))
        tau = TAUS[1]
        pen = OperatorPencil(y, tau)
        e1 = np.diag([1.0, 1.0, 0.0])
        e0 = np.diag([0.0, 0.0, 1.0])
        for _ in range(10):
            lam = disk_point(rng)
            expect = (
                tau.tau1.conjugate() * lam[0] * e1 + tau.tau2.conjugate() * lam[1] * e0
            )
            assert opnorm(i_y_spectral_form(pen, lam) - expect) <= 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_cross_oracle_agreement(self, tau, rng):
        for _ in range(60):
            dim = int(rng.integers(1, 9))
            y = random_positive_contraction(dim, rng)
            pen = OperatorPencil(y, tau)
            lam = disk_point(rng)
            assert opnorm(i_y_eval(pen, lam) - i_y_spectral_form(pen, lam)) <= 1e-10


def closed_form(pen, delta):
    """a b [a (1-Y) + b Y]^{-1} with a = conj(tau1) delta1, b = conj(tau2) delta2, from Y's eigenbasis."""
    a = pen.tau.tau1.conjugate() * delta[0]
    b = pen.tau.tau2.conjugate() * delta[1]
    w, u = np.linalg.eigh(pen.contraction.matrix)
    return (u * (a * b / (a * (1.0 - w) + b * w))) @ u.conj().T


def difference(pen, delta, t):
    """I_Y(tau + t delta) - 1 from the kernel's full-matrix view."""
    lam = (pen.tau.tau1 + t * delta[0], pen.tau.tau2 + t * delta[1])
    return i_y_spectral_form(pen, lam) - np.eye(pen.dim)


def diagonal_difference(pen, delta, t):
    """I_Y(tau + t delta) - 1 in Y's eigenbasis, from the kernel itself."""
    lam = np.array([[pen.tau.tau1 + t * delta[0], pen.tau.tau2 + t * delta[1]]])
    return i_y_diagonal(pen, lam)[0] - 1.0


class TestDifferenceAndDerivative:
    """I_Y(tau + t delta) - 1 = t a b [a (1-Y) + b Y]^{-1}, exactly, for admissible delta."""

    def test_ray_difference_is_scalar(self, rng):
        y = random_positive_contraction(4, rng)
        pen = OperatorPencil(y, TAU_11)
        d = difference(pen, (-1, -1), 0.125)
        assert opnorm(d + 0.125 * np.eye(4)) <= 1e-12
        assert opnorm(0.125 * closed_form(pen, (-1, -1)) + 0.125 * np.eye(4)) <= 1e-12

    def test_scalar_hand_value(self):
        pen = pencil_of([0.5])
        d = difference(pen, (-1, -1), 0.1)
        assert complex(d[0, 0]) == pytest.approx(-0.1, abs=1e-14)
        assert complex(0.1 * closed_form(pen, (-1, -1))[0, 0]) == pytest.approx(-0.1, abs=1e-14)

    def test_projection_case_is_linear_per_block(self):
        pen = pencil_of([1.0, 0.0])
        d = difference(pen, (-2, -1), 0.01)
        assert np.allclose(d, np.diag([-0.02, -0.01]), atol=1e-13)
        assert np.allclose(0.01 * closed_form(pen, (-2, -1)), np.diag([-0.02, -0.01]), atol=1e-13)

    def test_difference_matches_eval_exactly(self, rng):
        # the closed form is algebraic, not a first-order approximation
        for tau in TAUS:
            y = random_positive_contraction(5, rng)
            pen = OperatorPencil(y, tau)
            delta = (-1.5 * tau.tau1, (-1 + 0.3j) * tau.tau2)
            for t in (0.3, 0.01, 0.0005):
                lam = (tau.tau1 + t * delta[0], tau.tau2 + t * delta[1])
                direct = i_y_eval(pen, lam) - np.eye(5)
                closed = t * closed_form(pen, delta)
                assert opnorm(direct - closed) <= 1e-9
                assert opnorm(difference(pen, delta, t) - closed) <= 1e-9

    def test_derivative_along_minus_tau(self, rng):
        y = random_positive_contraction(3, rng)
        for tau in TAUS:
            pen = OperatorPencil(y, tau)
            delta = (-tau.tau1, -tau.tau2)
            assert opnorm(closed_form(pen, delta) + np.eye(3)) <= 1e-12
            assert opnorm(difference(pen, delta, 0.5) / 0.5 + np.eye(3)) <= 1e-12

    def test_projection_derivative_diagonal(self):
        pen = pencil_of([1.0, 0.0])
        assert np.allclose(closed_form(pen, (-2, -1)), np.diag([-2.0, -1.0]), atol=1e-13)
        # the eigenbasis of diag(1, 0) is the standard one up to order
        w = pen.contraction.decomposition.weights
        slopes = diagonal_difference(pen, (-2, -1), 2.0**-4) / 2.0**-4
        assert np.allclose(slopes, np.where(w == 1.0, -2.0, -1.0), atol=1e-13)

    def test_scalar_matches_family_derivative(self):
        pen = pencil_of([0.5])
        expect = phi_y_directional_derivative(0.5, TAU_11, (-2, -1))
        assert complex(closed_form(pen, (-2, -1))[0, 0]) == pytest.approx(expect, abs=1e-14)
        assert complex(diagonal_difference(pen, (-2, -1), 0.25)[0] / 0.25) == pytest.approx(expect, abs=1e-14)

    def test_homogeneity(self, rng):
        y = random_positive_contraction(4, rng)
        pen = OperatorPencil(y, TAUS[2])
        delta = (-2.0 * TAUS[2].tau1, (-1 - 1j) * TAUS[2].tau2)
        tripled = (3.0 * delta[0], 3.0 * delta[1])
        assert opnorm(closed_form(pen, tripled) - 3.0 * closed_form(pen, delta)) <= 1e-10
        t = 0.5 * direction_entry_time(pen.tau, tripled)
        assert opnorm(difference(pen, tripled, t) - 3.0 * difference(pen, delta, t)) <= 1e-10

    def test_inadmissible_rejected(self):
        # no t > 0 keeps tau + t delta in the bidisk, so the identity has no range
        pen = pencil_of([0.5])
        with pytest.raises(InadmissibleDirectionError):
            direction_entry_time(pen.tau, (1, -1))


class TestContractivity:
    def test_scalar_scan(self):
        pen = pencil_of([0.5])
        assert contractivity_scan(pen, 2000, seed=3) < 1.0

    def test_identity_contraction(self, rng):
        pen = OperatorPencil(validate_positive_contraction(np.eye(3)), TAU_11)
        for _ in range(50):
            lam = disk_point(rng)
            expect = lam[0] * np.eye(3)
            assert opnorm(i_y_eval(pen, lam) - expect) <= 1e-12

    def test_random_pencils_contractive(self, rng):
        for _ in range(5):
            y = random_positive_contraction(int(rng.integers(1, 7)), rng)
            pen = OperatorPencil(y, TAUS[1])
            assert contractivity_scan(pen, 400, seed=int(rng.integers(2**31))) <= 1.0 + 1e-10

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_scan_does_not_depend_on_chunking(self, dim, rng, monkeypatch):
        # one point per chunk, then the whole sample in one chunk: both are
        # the largest modulus of the kernel over the points of one batch draw
        pen = OperatorPencil(random_positive_contraction(dim, rng), TAUS[1])
        whole = np.abs(i_y_diagonal(pen, pencil.sample_bidisk_batch(np.random.default_rng(5), 300))).max()
        for entries in (dim, pencil.STACK_ENTRIES):
            monkeypatch.setattr(pencil, "STACK_ENTRIES", entries)
            assert contractivity_scan(pen, 300, seed=5) == whole

    def test_norm_approaches_one_along_ray(self, rng):
        y = random_positive_contraction(4, rng)
        pen = OperatorPencil(y, TAU_11)
        quotients = []
        for k in range(2, 16):
            t = 2.0**-k
            lam = TAU_11.ray_point(t)
            norm = opnorm(i_y_eval(pen, lam))
            quotients.append((1.0 - norm) / t)
        # carapoint condition for the pencil: the quotient stays bounded
        assert max(quotients) <= 1.0 + 1e-9
        assert abs(quotients[-1] - 1.0) <= 1e-6


class TestRationality:
    # entries mix the spectral components in a general basis, so the
    # degree-(1,1) structure is entrywise visible in the eigenbasis of Y

    @staticmethod
    def cross_ratio(a, b, c, d):
        return ((a - c) * (b - d)) / ((a - d) * (b - c))

    def test_eigenbasis_entries_moebius_in_first_coordinate(self, rng):
        y = random_positive_contraction(3, rng)
        pen = OperatorPencil(y, TAUS[2])
        z = [0.1 + 0.2j, -0.4j, 0.5, -0.3 + 0.3j]
        lam2 = 0.25 - 0.35j
        target = self.cross_ratio(*z)
        for proj in map(y.decomposition.projector, y.eigenvalues):
            # the pencil restricted to one eigenspace is a scalar multiple
            # of the projector; extract that scalar at the four points
            scalars = []
            col = np.argmax(np.abs(np.diagonal(proj)))
            for z_i in z:
                val = i_y_eval(pen, (z_i, lam2))
                scalars.append(complex((val @ proj)[col, col] / proj[col, col]))
            f = scalars
            if min(abs(f[0] - f[3]), abs(f[1] - f[2])) < 1e-8:
                continue
            assert self.cross_ratio(*f) == pytest.approx(target, rel=1e-6)

    def test_diagonal_entries_moebius(self):
        pen = pencil_of([0.3, 0.8], TAUS[1])
        z = [0.2 + 0.1j, -0.5j, 0.6, -0.2 - 0.3j]
        lam2 = -0.15 + 0.4j
        target = self.cross_ratio(*z)
        values = [i_y_eval(pen, (z_i, lam2)) for z_i in z]
        for idx in (0, 1):
            f = [complex(v[idx, idx]) for v in values]
            assert self.cross_ratio(*f) == pytest.approx(target, rel=1e-8)


def svd_stacks(monkeypatch):
    """Record the number of matrices in each np.linalg.svd call."""
    stacks = []
    svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        stacks.append(len(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return stacks


def naming(lam) -> str:
    """The pattern of an error message that names the point lam."""
    return re.escape(f"at lam={tuple(complex(z) for z in lam)!r}")


class TestCertifiedGuard:
    """i_y_eval sends to its SVD only the points its certificate cannot clear."""

    def test_exact_zero_names_the_first_singular_point(self, monkeypatch):
        # at tau = (1, 1), a(1-y) + by vanishes for y = 1/2 where a = -b,
        # and for y = 1/4 where b = -3a: exactly, in floating point
        pen = pencil_of([0.5, 0.25])
        half, quarter = (0.5, 1.5), (0.75, 1.75)
        stacks = svd_stacks(monkeypatch)
        for pts, first in [([(0.3j, -0.2), half, quarter], half), ([quarter, (0.1, 0.2j), half], quarter)]:
            with pytest.raises(SingularDenominatorError, match=naming(first)):
                i_y_eval(pen, np.array(pts, dtype=complex))
            # the kernel's rule names the same point
            with pytest.raises(SingularDenominatorError, match=naming(first)):
                i_y_diagonal(pen, np.array(pts, dtype=complex))
        # the interior points were certified and never reached the SVD
        assert stacks == [2, 2]

    def test_eigenvalue_outside_the_unit_interval_within_eigtol(self, monkeypatch):
        # -5e-8 snaps to the weight 0, but the stored matrix keeps it; the
        # denominator a(1-y) + by then vanishes at b = 1, a = 5e-8 / (1 + 5e-8),
        # where the weights alone would certify it (|a| is far above the rule)
        y = validate_positive_contraction(np.diag([-5e-8, 0.5]), eigtol=1e-7)
        assert y.eigenvalues == (0.0, 0.5) and y.excursion == 5e-8
        pen = OperatorPencil(y, TAU_11)
        lam = (1.0 - 5e-8 / (1.0 + 5e-8), 0.0)
        stacks = svd_stacks(monkeypatch)
        with pytest.raises(SingularDenominatorError, match=naming(lam)):
            i_y_eval(pen, np.array([(0.2, 0.1j), lam, (0.5 - 0.5j, 0.3)]))
        assert stacks == [1]

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_certified_points_pass_the_rule(self, dim, rng):
        # points on and near the singular set, from relative offsets 1e-16 to
        # 1e-8 along it: every certified one passes the SVD rule
        y = random_positive_contraction(dim, rng)
        w = np.array(y.decomposition.weights)
        a = rng.uniform(-1.0, 1.0, 600) + 1j * rng.uniform(-1.0, 1.0, 600)
        yk = rng.choice(w, 600)
        eps = 10.0 ** rng.uniform(-16, -8, 600) * np.exp(2j * np.pi * rng.uniform(size=600))
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(yk > 0.0, (eps - a * (1.0 - yk)) / np.where(yk > 0.0, yk, 1.0), a + eps)
        a, b = np.concatenate([a, a]), np.concatenate([b, b + 1e-3])
        certified = pencil._denominator_certified(a, b, y.excursion + pencil.SPECTRUM_PAD)
        assert 0 < certified.sum() < len(a)
        m = a[:, None, None] * (np.eye(dim) - y.matrix) + b[:, None, None] * y.matrix
        assert not pencil._singular(np.linalg.svd(m[certified], compute_uv=False)).any()
        # away from tau and the singular set, every point is certified
        a, b, _ = pencil._offsets(TAU_11, pencil.sample_bidisk_batch(rng, 200))
        assert pencil._denominator_certified(a, b, y.excursion + pencil.SPECTRUM_PAD).all()

    def test_certificate_rule_leaves_nan_bounds_to_the_svd(self):
        # the rule both certificates judge: lower > 2 SINGULAR_RTOL max(upper, 1)
        lower = np.array([np.nan, 1.0, 2.0 * pencil.SINGULAR_RTOL, 3.0 * pencil.SINGULAR_RTOL, 1.0])
        upper = np.array([1.0, np.nan, 0.5, 0.5, 1e12])
        assert pencil._certified(lower, upper).tolist() == [False, False, False, True, True]
