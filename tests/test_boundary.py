import math

import numpy as np
import pytest

from caralab import (
    BadApertureError,
    CarapointScan,
    GeneralizedRealization,
    InadmissibleDirectionError,
    NoConvergenceError,
    OperatorPencil,
    UnconvergedError,
    build_grid,
    cara_quotients,
    classify_model,
    colligation_with_ray_limit,
    default_direction_pairs,
    default_directions,
    derivative_fd,
    derivative_model,
    derivative_table,
    detect_carapoint,
    julia_quotient_ray,
    linearity_defect,
    phi_y_directional_derivative,
    phi_y_eval,
    random_colligation,
    random_positive_contraction,
    satisfies_aperture,
    validate_positive_contraction,
)
from caralab.boundary import (
    ALPHA_EXPONENT,
    DEFECT_REGULAR_TOL,
    DEFECT_SINGULAR_TOL,
    DETECT_EXPONENT,
    FD_STEPS,
    QUOTIENT_BOUND,
    _angular_families,
    boundary_probe,
    probe_fd_limits,
    probe_scan,
    standard_model_components,
)
from caralab.extrapolate import richardson_limit
from caralab.points import require_admissible
from caralab.realization import Colligation
from caralab.scalar_family import standard_identity_defect
from caralab.suite import SUITE_TAUS
from conftest import TAU_11, TAUS, disk_point, reference_calculus, scalar_model

HOUSEHOLDER = [[0.6, 0.8], [0.8, -0.6]]  # phi(0,0) = -3/5, v_tau = 2


def phi_y(y, tau):
    return lambda lam: phi_y_eval(y, tau, lam)


def standard_components(model, points):
    """u1', u2', v' and phi at (N, 2) points, from one fresh evaluation."""
    return standard_model_components(model, points, model.evaluate(points))


def model_over(diag, tau=TAU_11, block=None, rng=None):
    y = validate_positive_contraction(np.diag(diag))
    pen = OperatorPencil(y, tau)
    if block is None:
        block = random_colligation(len(diag), rng or np.random.default_rng(0))
    elif not isinstance(block, Colligation):
        block = Colligation(np.asarray(block, dtype=complex))
    return GeneralizedRealization(pen, block)


class TestAperture:
    def test_ray_case(self):
        assert satisfies_aperture(TAU_11, (0.9, 0.9), 1.0)

    def test_skewed_point_needs_wide_cone(self):
        lam = (0.9, 0.99)
        assert not satisfies_aperture(TAU_11, lam, 9.0)
        assert satisfies_aperture(TAU_11, lam, 10.0)

    def test_rotated_ray(self):
        tau = TAUS[1]
        assert satisfies_aperture(tau, (0.875, -0.875), 1.0)


class TestGrid:
    def test_bad_aperture(self):
        with pytest.raises(BadApertureError):
            build_grid(TAU_11, 0.5, 8)

    @pytest.mark.parametrize("aperture", [float("nan"), float("inf"), 1e300])
    def test_non_finite_or_huge_aperture(self, aperture):
        with pytest.raises(BadApertureError):
            build_grid(TAU_11, aperture, 12)

    def test_ray_points_present(self):
        grid = build_grid(TAUS[1], 2.0, 10)
        ray = grid.coords[0]  # the ray is family 0
        assert grid.names[0] == "ray" and ray.shape == (10, 2)
        for k, (lam1, _) in enumerate(ray.tolist(), start=1):
            assert abs(lam1 - (1 - 2.0**-k) * TAUS[1].tau1) <= 1e-15

    @pytest.mark.parametrize("aperture", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("tau", TAUS)
    def test_all_points_inside_cone(self, tau, aperture):
        grid = build_grid(tau, aperture, 12)
        points = grid.coords.reshape(-1, 2)
        for a, b in points.tolist():
            assert max(abs(a), abs(b)) < 1.0
            assert satisfies_aperture(tau, (a, b), aperture, slack=1e-12)
        assert satisfies_aperture(tau, points, aperture, slack=1e-12).all()

    @staticmethod
    def scalar_reference(tau, aperture, depth):
        """The grid point by point, by the scalar formulas of the per-point builder."""
        t1, t2 = tau

        def radial(u1, u2, t):
            return ((1.0 - t * u1) * t1, (1.0 - t * u2) * t2)

        def angular(theta1, theta2, t):
            w1 = complex(math.cos(theta1 * t), math.sin(theta1 * t))
            w2 = complex(math.cos(theta2 * t), math.sin(theta2 * t))
            return ((1.0 - t) * w1 * t1, (1.0 - t) * w2 * t2)

        makers = [("ray", lambda t: radial(1.0, 1.0, t))]
        if aperture > 1.0:
            for r in sorted({1.0 / aperture, (1.0 + 1.0 / aperture) / 2.0}):
                makers.append((f"radial(1,{r:g})", lambda t, r=r: radial(1.0, r, t)))
                makers.append((f"radial({r:g},1)", lambda t, r=r: radial(r, 1.0, t)))
            kappa = 0.9 * math.sqrt(aperture - 1.0) * math.sqrt(aperture + 1.0)
            makers.append((f"angular(+{kappa:.3g},0)", lambda t: angular(kappa, 0.0, t)))
            makers.append((f"angular(0,-{kappa:.3g})", lambda t: angular(0.0, -kappa, t)))
        ts = [2.0**-k for k in range(1, depth + 1)]
        return [(name, [(t, make(t)) for t in ts]) for name, make in makers]

    @pytest.mark.parametrize("depth", [1, 12, 39])
    @pytest.mark.parametrize("aperture", [1.0, 1.5, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("tau", TAUS + SUITE_TAUS[2:])
    def test_coordinates_are_bit_identical_to_the_scalar_formulas(self, tau, aperture, depth):
        # every family, the radial ones included; 39 is the deepest grid at aperture 10
        grid = build_grid(tau, aperture, depth)
        reference = self.scalar_reference(tau, aperture, depth)
        assert grid.names == tuple(name for name, _ in reference)
        want = np.array([[pt for _, pt in pts] for _, pts in reference], dtype=complex)
        assert grid.coords.shape == want.shape
        # bit for bit, signed zeros included
        assert grid.coords.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("depth", [1, 12, 48])
    @pytest.mark.parametrize("aperture", [1.5, 2.0, 10.0, 1e6])
    @pytest.mark.parametrize("tau", SUITE_TAUS)
    def test_angular_families_are_bit_identical_to_the_scalar_formula(self, tau, aperture, depth):
        # built alone: at aperture 1e6 the whole grid is refused (radial rounding)
        kappa = 0.9 * math.sqrt(aperture - 1.0) * math.sqrt(aperture + 1.0)
        ts = [2.0**-k for k in range(1, depth + 1)]
        want = np.array([
            [[(1.0 - t) * complex(math.cos(theta * t), math.sin(theta * t)) * tz
              for theta, tz in zip(thetas, tau)] for t in ts]
            for thetas in ((kappa, 0.0), (0.0, -kappa))
        ])
        got = _angular_families(tau, kappa, np.array(ts))
        assert got.shape == want.shape
        # bit for bit, signed zeros included
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "aperture, family, t",
        [(1e300, "radial(1,1e-300)", "0.5"), (3e15, "radial(1,3.33333e-16)", "0.125")],
    )
    def test_bad_aperture_names_the_first_failing_point(self, aperture, family, t):
        with pytest.raises(BadApertureError) as info:
            build_grid(TAU_11, aperture, 12)
        assert str(info.value) == (
            f"grid family {family!r} leaves the open bidisk or its cone at t={t} "
            f"for aperture {aperture!r}"
        )

    def test_grid_arrays_are_read_only(self):
        grid = build_grid(TAU_11, 2.0, 6)
        with pytest.raises(ValueError):
            grid.coords[0, 0, 0] = 0.0

    def test_off_ray_families_exist_for_wide_cones(self):
        grid = build_grid(TAU_11, 2.0, 6)
        names = grid.names
        assert "ray" in names
        assert len(names) >= 5


class TestGridMemo:
    """build_grid keeps no grid: every call builds one."""

    def test_every_call_builds_a_new_grid(self):
        grid = build_grid(TAU_11, 2.0, 12)
        other = build_grid(TAU_11, 2.0, 12)
        assert other is not grid
        assert other.coords.tobytes() == grid.coords.tobytes()

    @pytest.mark.parametrize(
        "aperture, depth, error",
        [(0.5, 12, BadApertureError), (float("nan"), 12, BadApertureError), (1e300, 12, BadApertureError),
         (2.0, 0, ValueError), (2.0, 49, ValueError), (1.0, 44, ValueError), (2.0, 43, ValueError),
         (1000.0, 34, ValueError)],
    )
    def test_invalid_arguments_raise_on_every_call(self, aperture, depth, error):
        for _ in range(3):
            with pytest.raises(error):
                build_grid(TAU_11, aperture, depth)

    def test_an_aperture_that_leaves_no_depth_is_refused(self):
        # 2^-1 / 6e12 is below SINGULAR_RTOL, yet the one point at t = 1/2 lies inside the cone
        with pytest.raises(BadApertureError) as info:
            build_grid((1, 1), 6e12, 1)
        assert str(info.value) == "aperture 6000000000000.0 leaves no grid depth where the pencil takes every point"


class TestCaraQuotient:
    def test_family_on_ray_is_one(self):
        pts = np.array([(r, r) for r in (0.3, 0.9, 0.999)], dtype=complex)
        quotients = cara_quotients(pts, phi_y_eval(0.5, TAU_11, pts))
        assert quotients == pytest.approx([1.0] * 3, abs=1e-12)

    def test_constant_zero_blows_up(self):
        # a constant phi may give one value for every point
        assert cara_quotients(np.array([[0.999, 0.0]]), 0j) == pytest.approx([1000.0], rel=1e-9)

    def test_realization_ray_quotient_approaches_alpha(self):
        m = scalar_model(0.5, block=HOUSEHOLDER)
        pts = TAU_11.ray_point(np.array([2.0**-18]))
        assert cara_quotients(pts, m.phi(pts)) == pytest.approx([4.0], abs=1e-3)


class TestDetect:
    def test_family_carapoint(self):
        grid = build_grid(TAU_11, 2.0, 12)
        scan = detect_carapoint(phi_y(0.5, TAU_11), grid)
        assert scan.carapoint
        assert scan.alpha == pytest.approx(1.0, abs=1e-9)

    def test_product_function(self):
        # phi = lam1 lam2: along the ray the quotient is 1 + r -> 2
        grid = build_grid(TAU_11, 2.0, 12)
        scan = detect_carapoint(lambda lam: lam[:, 0] * lam[:, 1], grid)
        assert scan.carapoint
        assert scan.alpha == pytest.approx(2.0, abs=1e-6)

    def test_constant_zero_is_not_a_carapoint(self):
        grid = build_grid(TAU_11, 2.0, 12)
        scan = detect_carapoint(lambda lam: 0j, grid)
        assert not scan.carapoint

    def test_constant_half_is_not_a_carapoint(self):
        grid = build_grid(TAUS[1], 2.0, 12)
        scan = detect_carapoint(lambda lam: 0.5 + 0j, grid)
        assert not scan.carapoint

    def test_scan_reads_the_grid_it_is_given(self, monkeypatch):
        from caralab import boundary

        grid = build_grid(TAUS[2], 2.0, 8)
        monkeypatch.setattr(boundary, "build_grid", lambda *args: pytest.fail("the grid was rebuilt"))
        seen = []
        detect_carapoint(lambda lam: seen.append(lam) or phi_y_eval(0.3, TAUS[2], lam), grid)
        assert len(seen) == 1 and np.array_equal(seen[0][: grid.coords[..., 0].size], grid.coords.reshape(-1, 2))

    @staticmethod
    def two_copy_scan(phi, grid):
        """The scan as built before: the ray (the grid's ray family, then the deeper
        points) followed by the whole grid, so the ray family is evaluated twice."""
        deeper = grid.tau.ray_point(np.ldexp(1.0, -np.arange(grid.depth + 1, DETECT_EXPONENT + 1)))
        ray = np.concatenate([grid.coords[grid.names.index("ray")], deeper])
        pts = np.concatenate([ray, grid.coords.reshape(-1, 2)])
        quotients = cara_quotients(pts, phi(pts))
        k_hi = min(ALPHA_EXPONENT, len(ray))
        alpha, residual = richardson_limit(quotients[max(1, k_hi - 7) - 1 : k_hi])
        qmax = quotients.max()
        return CarapointScan(bool(qmax < QUOTIENT_BOUND), float(alpha), float(qmax), float(residual))

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("aperture, depth", [(1.0, 12), (2.0, 12), (5.0, 9)])
    def test_scan_equals_the_two_copy_construction(self, tau, aperture, depth, rng):
        model = model_over([0.0, 0.3, 1.0, 0.7], tau=tau, rng=rng)
        grid = build_grid(tau, aperture, depth)
        for phi in (model.phi, phi_y(0.3, tau), lambda lam: lam[:, 0] * lam[:, 1]):
            sizes = []

            def counting(lam, phi=phi):
                sizes.append(len(lam))
                return phi(lam)

            scan = detect_carapoint(counting, grid)
            assert scan == self.two_copy_scan(phi, grid)
            # one call, every point once: the grid and the deeper ray points
            assert sizes == [grid.coords.shape[0] * depth + DETECT_EXPONENT - depth]

    def test_alpha_residual_is_reported(self):
        scan = detect_carapoint(scalar_model(0.5, block=HOUSEHOLDER).phi, build_grid(TAU_11, 2.0, 12))
        assert scan.alpha == pytest.approx(4.0, abs=1e-6)
        assert 0.0 <= scan.alpha_residual <= 1e-6


class TestProbe:
    def test_blocks_keep_their_order_and_cover_every_point_once(self):
        deltas = np.array(default_directions(TAU_11, 4), dtype=complex)
        probe = boundary_probe(TAU_11, 2.0, 6, deltas)
        extra = {"b": np.full((3, 2), 0.5j), "a": np.zeros((0, 2), dtype=complex), "c": np.full((2, 2), 0.25)}
        longer = probe.extend(**extra)
        assert list(probe.blocks) == ["grid", "tail", "steps"]
        assert list(longer.blocks) == ["grid", "tail", "steps", "b", "a", "c"]
        covered = np.concatenate([np.arange(len(longer.points))[s] for s in longer.blocks.values()])
        assert covered.tolist() == list(range(len(longer.points)))
        assert np.array_equal(longer.points[: len(probe.points)], probe.points)
        assert all(np.array_equal(longer.points[longer.blocks[name]], pts) for name, pts in extra.items())

    def test_only_the_blocks_asked_for(self):
        deltas = np.array(default_directions(TAU_11, 4), dtype=complex)
        scan, grid = boundary_probe(TAU_11, 2.0, 6), build_grid(TAU_11, 2.0, 6)
        assert list(scan.blocks) == ["grid", "tail"] and scan.plan is None
        # the grid family by family, then its radial ray below the grid's depth
        tail = TAU_11.ray_point(np.ldexp(1.0, -np.arange(7, DETECT_EXPONENT + 1)))
        assert np.array_equal(scan.points[scan.blocks["grid"]], grid.coords.reshape(-1, 2))
        assert np.array_equal(scan.points[scan.blocks["tail"]], tail)
        steps = boundary_probe(TAU_11, deltas=deltas)
        assert list(steps.blocks) == ["steps"] and steps.grid is None
        assert len(boundary_probe(TAU_11).points) == 0

    def test_one_phi_call_reads_every_block(self):
        deltas = np.array(default_directions(TAUS[2], 4), dtype=complex)
        probe = boundary_probe(TAUS[2], 2.0, 12, deltas).extend(samples=np.array([[0.5, 0.5j]]))
        calls = []
        values = (lambda lam: calls.append(lam) or phi_y_eval(0.3, TAUS[2], lam))(probe.points)
        scan, fd = probe_scan(probe, values), probe_fd_limits(probe, values, 1.0 + 0j)
        assert len(calls) == 1
        assert scan == detect_carapoint(phi_y(0.3, TAUS[2]), probe.grid)
        assert fd.tolist() == derivative_fd(phi_y(0.3, TAUS[2]), TAUS[2], deltas, phi_tau=1.0 + 0j).tolist()

    def test_a_constant_gives_one_value(self):
        probe = boundary_probe(TAU_11, 2.0, 12, np.array([[-1.0, -1.0]], dtype=complex))
        assert not probe_scan(probe, 0.5 + 0j).carapoint
        assert probe_fd_limits(probe, 0.5 + 0j, 0.5 + 0j).tolist() == [0j]


class TestDerivativeFd:
    def test_family_hand_value(self):
        value = derivative_fd(phi_y(0.5, TAU_11), TAU_11, (-2, -1), phi_tau=1.0 + 0j)
        assert value == pytest.approx(-4.0 / 3.0, abs=1e-6)

    def test_householder_ray_slope(self):
        m = scalar_model(0.5, block=HOUSEHOLDER)
        value = derivative_fd(m.phi, TAU_11, (-1, -1))
        assert value == pytest.approx(-4.0, abs=1e-6)

    def test_monomial_is_linear(self):
        value = derivative_fd(phi_y(1.0, TAU_11), TAU_11, (-1, -1), phi_tau=1.0 + 0j)
        assert value == pytest.approx(-1.0, abs=1e-8)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleDirectionError):
            derivative_fd(phi_y(0.5, TAU_11), TAU_11, (1, -1))

    @pytest.mark.parametrize("tau", TAUS)
    def test_one_call_gives_phi_tau_and_the_steps(self, tau, rng):
        model = model_over([0.0, 0.3, 1.0, 0.7], tau=tau, rng=rng)
        deltas = np.array(default_directions(tau), dtype=complex)
        for phi in (model.phi, phi_y(0.3, tau)):
            calls = []
            fd = derivative_fd(lambda lam, phi=phi: calls.append(lam) or phi(lam), tau, deltas)
            # the radial ray at t = 2^-8 .. 2^-20 is one more block of the steps' probe
            ray = tau.ray_point(np.ldexp(1.0, -np.arange(8, 21)))
            assert len(calls) == 1 and np.array_equal(calls[0][-len(ray) :], ray)
            phi_tau = complex(richardson_limit(phi(ray))[0])
            assert fd.tolist() == derivative_fd(phi, tau, deltas, phi_tau=phi_tau).tolist()

    def test_non_finite_quotients_do_not_settle(self):
        # a NaN residual fails the settling test instead of passing it
        nan = lambda lam: np.full(len(lam), np.nan + 0j)  # noqa: E731
        with np.errstate(invalid="ignore"):
            with pytest.raises(NoConvergenceError, match="residual nan"):
                derivative_fd(nan, (1, 1), (-1, -1), phi_tau=1)
            with pytest.raises(NoConvergenceError):
                derivative_fd(phi_y(0.5, TAU_11), TAU_11, (-1, -1), phi_tau=np.inf)

    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_family_formula(self, tau):
        phi = phi_y(0.3, tau)
        for scale in [(-1, -2), (-2 - 1j, -1), (-0.5, -0.5 + 0.5j)]:
            delta = (scale[0] * tau.tau1, scale[1] * tau.tau2)
            fd = derivative_fd(phi, tau, delta, phi_tau=1.0 + 0j)
            exact = phi_y_directional_derivative(0.3, tau, delta)
            assert abs(fd - exact) <= 1e-6


class TestBatchDerivativeFd:
    @staticmethod
    def directions(tau):
        deltas = default_directions(tau)
        return deltas + [(0.5 * d1, 2.0 * d2) for d1, d2 in deltas]

    @pytest.mark.parametrize("tau", TAUS)
    def test_batch_equals_per_direction_calls(self, tau, rng):
        model = model_over([0.0, 0.3, 1.0, 0.7], tau=tau, rng=rng)
        deltas = self.directions(tau)
        cases = [(model.phi, model.phi_at_tau()), (model.phi, None), (phi_y(0.3, tau), 1.0 + 0j)]
        for phi, phi_tau in cases:
            batch = derivative_fd(phi, tau, np.array(deltas), phi_tau=phi_tau)
            assert batch.shape == (len(deltas),)
            single = [derivative_fd(phi, tau, d, phi_tau=phi_tau) for d in deltas]
            assert all(type(v) is complex for v in single)
            assert batch.tolist() == single

    def test_empty_batch(self):
        assert derivative_fd(phi_y(0.3, TAU_11), TAU_11, np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("tau", TAUS)
    def test_rescaled_directions_share_their_steps(self, tau, rng):
        model = model_over([0.0, 0.3, 1.0, 0.7], tau=tau, rng=rng)
        phi_tau = model.phi_at_tau()
        # every direction followed by its halving and doubling
        deltas = [(s * d1, s * d2) for d1, d2 in default_directions(tau, 10) for s in (1.0, 0.5, 2.0)]
        seen = []

        def recording(lam):
            seen.append(lam)
            return model.phi(lam)

        batch = derivative_fd(recording, tau, np.array(deltas), phi_tau=phi_tau)
        single = np.array([derivative_fd(model.phi, tau, d, phi_tau=phi_tau) for d in deltas])
        assert batch.view(np.uint64).tolist() == single.view(np.uint64).tolist()
        (points,) = seen
        assert len({p.tobytes() for p in points}) == len(points)
        # a step of delta / 2 or 2 delta is a step of delta, bit for bit, and
        # (-0.5, -1.5), (-1.5, -0.5) are halves of (-1, -3), (-3, -1)
        assert len(points) == FD_STEPS * 8

    @staticmethod
    def kinked(lam):
        # smooth along directions with delta1 = delta2 at tau = (1, 1),
        # a square-root kink along all others
        l1, l2 = lam.T
        return l2 + np.sqrt(np.abs(l1 - l2))

    @staticmethod
    def first_error(phi, deltas):
        """The error of a loop that checks every direction, then differentiates one at a time."""
        try:
            require_admissible(TAU_11, np.array(deltas, dtype=complex))
        except InadmissibleDirectionError as exc:
            return type(exc), str(exc)
        for d in deltas:
            try:
                derivative_fd(phi, TAU_11, d, phi_tau=1.0 + 0j)
            except Exception as exc:  # noqa: BLE001 - any error, compared below
                return type(exc), str(exc)
        return None

    @pytest.mark.parametrize(
        "deltas",
        [
            [(-1, -1), (-2, -1), (-1, -3)],
            # an inadmissible direction wins over the unsettled one before it
            [(-1, -1), (-2, -1), (1, 1)],
            [(-1, -1), (1, 1), (-2, -1)],
        ],
    )
    def test_batch_raises_what_the_loop_raises_first(self, deltas):
        expect = self.first_error(self.kinked, deltas)
        assert expect is not None
        seen = []

        def recording(lam):
            seen.append(lam)
            return self.kinked(lam)

        with pytest.raises(expect[0]) as info:
            derivative_fd(recording, TAU_11, np.array(deltas), phi_tau=1.0 + 0j)
        assert str(info.value) == expect[1]
        # phi is called only when every direction is admissible
        assert len(seen) == (expect[0] is not InadmissibleDirectionError)

    def test_unsettled_direction_is_no_convergence(self):
        with pytest.raises(NoConvergenceError):
            derivative_fd(self.kinked, TAU_11, (-2, -1), phi_tau=1.0 + 0j)
        assert derivative_fd(self.kinked, TAU_11, (-1, -1), phi_tau=1.0 + 0j) == pytest.approx(-1.0)

    def test_table_matches_per_direction_entries(self, rng):
        model = model_over([0.0, 0.4, 1.0], tau=TAUS[2], rng=rng)
        table = derivative_table(model)
        phi_tau = model.phi_at_tau()
        # row k of each column is the derivative along direction k
        deltas = [tuple(d) for d in default_directions(model.tau)]
        assert [tuple(d) for d in table.deltas.tolist()] == deltas
        assert table.analytic.shape == table.finite_difference.shape == (len(deltas),)
        for delta, analytic, fd in zip(deltas, table.analytic.tolist(), table.finite_difference.tolist()):
            assert fd == derivative_fd(model.phi, model.tau, delta, phi_tau=phi_tau)
            assert analytic == derivative_model(model, delta)


class TestDerivativeModel:
    def test_swap_matches_family(self):
        m = scalar_model(0.5)
        assert derivative_model(m, (-2, -1)) == pytest.approx(-4.0 / 3.0, abs=1e-10)

    def test_minus_tau_gives_negative_alpha(self):
        # D_{-tau} = -phi(tau) ||v_tau||^2; these examples have phi(tau) = 1
        assert derivative_model(scalar_model(0.5), (-1, -1)) == pytest.approx(-1.0, abs=1e-10)
        m = scalar_model(0.5, block=HOUSEHOLDER)
        assert derivative_model(m, (-1, -1)) == pytest.approx(-4.0, abs=1e-9)

    def test_projection_model_is_linear(self, rng):
        m = model_over([1.0, 0.0], rng=rng)
        pairs = default_direction_pairs(TAU_11)
        assert linearity_defect(lambda d: derivative_model(m, d), pairs) <= 1e-8

    def test_projection_decomposition(self, rng):
        # derivative splits along the endpoint eigenspaces, weighted by phi(tau)
        m = model_over([1.0, 0.0], rng=rng)
        v = m.v_at_tau().value
        e1, e0 = map(m.pencil.contraction.decomposition.projector, (1.0, 0.0))
        phi_tau = m.phi_at_tau()
        for delta in default_directions(TAU_11, 6):
            expect = phi_tau * (
                delta[0] * np.vdot(v, e1 @ v) + delta[1] * np.vdot(v, e0 @ v)
            )
            assert abs(derivative_model(m, delta) - expect) <= 1e-9

    def test_mixed_spectrum_three_part_decomposition(self, rng):
        # the derivative splits into endpoint eigenspace terms (linear in
        # delta) plus the interior-block calculus applied to the rest
        m = model_over([1.0, 0.0, 0.4, 0.7], rng=rng)
        v = m.v_at_tau().value
        e1, e0 = map(m.pencil.contraction.decomposition.projector, (1.0, 0.0))
        e = np.eye(4) - e1 - e0
        phi_tau = m.phi_at_tau()
        y = m.pencil.contraction
        for delta in default_directions(TAU_11, 5):
            a, b = delta
            interior = reference_calculus(
                y, lambda t: 0.0 if t in (0.0, 1.0) else a * b / (a * (1 - t) + b * t)
            )
            expect = phi_tau * (
                a * np.vdot(v, e1 @ v)
                + b * np.vdot(v, e0 @ v)
                + np.vdot(e @ v, interior @ (e @ v))
            )
            assert abs(derivative_model(m, delta) - expect) <= 1e-9

    def test_agrees_with_fd_on_random_models(self, rng):
        table_worst = 0.0
        for _ in range(4):
            dim = int(rng.integers(1, 7))
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(
                OperatorPencil(y, TAUS[1]), random_colligation(dim, rng)
            )
            table = derivative_table(m, default_directions(TAUS[1], 6))
            table_worst = max(table_worst, table.agreement())
        assert table_worst <= 1e-5

    def test_unconverged_raises(self):
        m = scalar_model(0.5, block=Colligation(np.array([[1.0, 1.0], [0.0, 1.0]])))
        with pytest.raises(UnconvergedError):
            derivative_model(m, (-1, -1))


class TestBatchDerivativeModel:
    @staticmethod
    def directions(tau):
        deltas = default_directions(tau)
        return deltas + [(0.5 * d1, 2.0 * d2) for d1, d2 in deltas]

    @pytest.mark.parametrize("tau", TAUS)
    def test_batch_equals_per_direction_calls(self, tau, rng):
        model = model_over([0.0, 0.3, 1.0, 0.7, 0.3], tau=tau, rng=rng)
        deltas = self.directions(tau)
        batch = derivative_model(model, np.array(deltas))
        assert batch.shape == (len(deltas),)
        single = [derivative_model(model, d) for d in deltas]
        assert all(type(v) is complex for v in single)
        assert batch.tolist() == single

    def test_empty_batch(self):
        assert derivative_model(scalar_model(0.5), np.zeros((0, 2))).shape == (0,)

    def test_inadmissible_batch_names_its_first_bad_direction(self):
        model = scalar_model(0.5)
        deltas = [(-1, -1), (1, -1), (-2, -1), (1j, -1)]
        with pytest.raises(InadmissibleDirectionError) as one:
            require_admissible(TAU_11, (1, -1))
        with pytest.raises(InadmissibleDirectionError) as info:
            derivative_model(model, np.array(deltas))
        assert str(info.value) == str(one.value)
        assert "(1+0j), (-1+0j)" in str(info.value)

    kinked = staticmethod(TestBatchDerivativeFd.kinked)  # 1 at (1, 1)

    def test_table_raises_the_first_error_of_the_loop(self):
        # the loop checks every direction before it evaluates any, so the
        # inadmissible (1, 1) wins over the unsettled finite difference of
        # (-2, -1) before it, and phi is never called
        model = scalar_model(0.5)
        seen = []
        model.phi = lambda lam: seen.append(lam) or self.kinked(lam)
        deltas = [(-1, -1), (-2, -1), (1, 1)]
        with pytest.raises(InadmissibleDirectionError) as want:
            require_admissible(TAU_11, (1, 1))
        with pytest.raises(InadmissibleDirectionError) as info:
            derivative_table(model, deltas)
        assert str(info.value) == str(want.value)
        assert seen == []

    def test_table_raises_the_analytic_error_before_the_finite_difference_one(self):
        model = scalar_model(0.5, block=Colligation(np.array([[1.0, 1.0], [0.0, 1.0]])))
        model.phi = self.kinked  # every finite difference off the diagonal fails too
        with pytest.raises(UnconvergedError):
            derivative_table(model, [(-2, -1)])

    def test_table_checks_each_direction_once(self, monkeypatch, rng):
        from caralab import points

        calls = []
        admissible = points._admissible
        monkeypatch.setattr(points, "_admissible", lambda *args: calls.append(args) or admissible(*args))
        model = model_over([0.0, 0.4, 1.0], tau=TAUS[2], rng=rng)
        derivative_table(model)
        assert len(calls) == 1


class TestLinearityDefect:
    def test_batch_equals_the_per_direction_loop(self, rng):
        model = model_over([0.0, 0.4, 1.0], rng=rng)
        pairs = default_direction_pairs(TAU_11)
        worst = 0.0
        for da, db in pairs:
            joint = (da[0] + db[0], da[1] + db[1])
            one = derivative_model(model, joint) - derivative_model(model, da) - derivative_model(model, db)
            worst = max(worst, abs(one))
        calls = []

        def derivative(delta):
            calls.append(delta)
            return derivative_model(model, delta)

        assert linearity_defect(derivative, pairs) == worst
        assert len(calls) == 1

    def test_callable_that_cannot_take_a_batch(self):
        calls = []

        def derivative(delta):
            # complex() of a coordinate: one direction at a time only
            calls.append(delta)
            return phi_y_directional_derivative(0.5, TAU_11, (complex(delta[0]), complex(delta[1])))

        pairs = [((-2, -1), (-1, -2)), ((-1, -1), (-1, -2))]
        # the directions a + b, a, b of each pair arrive as one (6, 2) array,
        # and the callable's error is not hidden by a per-direction retry
        with pytest.raises(TypeError):
            linearity_defect(derivative, pairs)
        (dirs,) = calls
        assert dirs.tolist() == [[-3, -3], [-2, -1], [-1, -2], [-2, -3], [-1, -1], [-1, -2]]

    def test_callable_returning_one_value_for_a_batch(self):
        # a linear functional written for one direction; on the batch it
        # returns a single number, which must not be taken for every direction
        def first_coordinate(delta):
            return np.sum(np.asarray(list(delta)[0]))

        pairs = default_direction_pairs(TAU_11)
        with pytest.raises(ValueError):
            linearity_defect(first_coordinate, pairs)

    def test_no_pairs(self):
        assert linearity_defect(lambda d: derivative_model(scalar_model(0.5), d), []) == 0.0

    def test_family_hand_value(self):
        pairs = [((-2, -1), (-1, -2))]
        defect = linearity_defect(
            lambda d: phi_y_directional_derivative(0.5, TAU_11, d), pairs
        )
        assert defect == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_monomial_defect_zero(self):
        pairs = default_direction_pairs(TAU_11)
        defect = linearity_defect(
            lambda d: phi_y_directional_derivative(1.0, TAU_11, d), pairs
        )
        assert defect <= 1e-12


class TestStandardModel:
    def test_swap_center_components(self):
        m = scalar_model(0.5)
        u1, u2, _, _ = standard_components(m, np.zeros((1, 2), dtype=complex))
        s = np.sqrt(0.5)
        # one-dimensional: the eigenbasis is a unimodular scalar
        assert abs(complex(u1[0, 0])) == pytest.approx(s, abs=1e-13)
        assert abs(complex(u2[0, 0])) == pytest.approx(s, abs=1e-13)
        ut = m.pencil.contraction.decomposition.eigenvectors.T
        assert complex((u1 @ ut)[0, 0]) == pytest.approx(s, abs=1e-13)
        assert complex((u2 @ ut)[0, 0]) == pytest.approx(s, abs=1e-13)

    def test_projection_model_reduces_to_kernel_split(self, rng):
        m = model_over([1.0, 0.0], rng=rng)
        dec = m.pencil.contraction.decomposition
        e1, e0 = dec.projector(1.0), dec.projector(0.0)
        lams = np.array([disk_point(rng) for _ in range(10)])
        u1, u2, _, _ = standard_components(m, lams)
        for k, v in enumerate(m.model_vector(lams)):
            assert np.linalg.norm(u1[k] @ dec.eigenvectors.T - e1 @ v) <= 1e-12
            assert np.linalg.norm(u2[k] @ dec.eigenvectors.T - e0 @ v) <= 1e-12

    def test_residual_on_random_models(self, rng):
        for tau in TAUS:
            dim = int(rng.integers(1, 7))
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(OperatorPencil(y, tau), random_colligation(dim, rng))
            lam, mu = np.array([(disk_point(rng), disk_point(rng)) for _ in range(40)]).transpose(1, 0, 2)
            points = np.concatenate([lam, mu])
            u1, u2, _, phi = standard_components(m, points)
            assert standard_identity_defect(points, u1, u2, phi).max() <= 1e-9

    def test_rotated_components_keep_norms_and_inner_products(self, rng):
        m = model_over([1.0, 0.0, 0.4, 0.4, 0.8], rng=rng)
        points = build_grid(TAU_11, 2.0, 12).coords.reshape(-1, 2)
        u1r, u2r, vr, phi = standard_components(m, points)
        ut = m.pencil.contraction.decomposition.eigenvectors.T
        u1, u2 = u1r @ ut, u2r @ ut
        v = m.model_vector(points)
        for rotated, plain in ((u1r, u1), (u2r, u2), (vr, v)):
            assert np.allclose(np.linalg.norm(rotated, axis=1), np.linalg.norm(plain, axis=1), rtol=1e-14)
        assert np.allclose(np.sum(u1r.conj() * u2r, axis=1), np.sum(u1.conj() * u2, axis=1), atol=1e-13)
        assert np.array_equal(phi, m.phi(points))

    def test_nontangential_bound(self, rng):
        aperture = 2.0
        grid = build_grid(TAU_11, aperture, 12)
        for _ in range(3):
            dim = int(rng.integers(1, 7))
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(
                OperatorPencil(y, TAU_11), random_colligation(dim, rng)
            )
            ut = m.pencil.contraction.decomposition.eigenvectors.T
            points = grid.coords.reshape(-1, 2)
            u1, u2, _, _ = standard_components(m, points)
            bound = (aperture + 1.0) * np.linalg.norm(m.model_vector(points), axis=1) + 1e-12
            assert (np.linalg.norm(u1 @ ut, axis=1) <= bound).all()
            assert (np.linalg.norm(u2 @ ut, axis=1) <= bound).all()


class TestJuliaRay:
    def test_swap_rows_are_unit(self):
        rows = julia_quotient_ray(scalar_model(0.5))
        for row in rows:
            assert row.lhs == pytest.approx(1.0, abs=1e-12)
            assert row.rhs == pytest.approx(1.0, abs=1e-12)

    def test_householder_approaches_four(self):
        rows = julia_quotient_ray(scalar_model(0.5, block=HOUSEHOLDER))
        assert max(r.residual for r in rows) <= 1e-9
        assert rows[-1].lhs == pytest.approx(4.0, abs=1e-4)

    def test_constant_model_sides_vanish(self):
        rows = julia_quotient_ray(scalar_model(0.5, block=np.eye(2)))
        for row in rows:
            assert abs(row.lhs) <= 1e-12
            assert abs(row.rhs) <= 1e-9

    @pytest.mark.parametrize("tau", TAUS)
    def test_identity_for_random_models(self, tau, rng):
        for _ in range(3):
            dim = int(rng.integers(1, 9))
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(OperatorPencil(y, tau), random_colligation(dim, rng))
            rows = julia_quotient_ray(m)
            assert max(r.residual for r in rows) <= 1e-9


class TestClassify:
    def test_swap_is_purely_singular(self):
        report = classify_model(scalar_model(0.5))
        assert report.classification == "purely_singular"
        assert report.carapoint
        assert report.alpha == pytest.approx(1.0, abs=1e-8)
        assert report.linearity_defect > 1e-3
        assert report.cross_check_ok
        assert report.phi_tau == pytest.approx(1.0, abs=1e-10)

    def test_projection_is_regular(self, rng):
        report = classify_model(model_over([1.0, 0.0], rng=rng))
        assert report.classification == "regular"
        assert report.linearity_defect <= 1e-8
        assert report.cross_check_ok

    def test_mixed_spectrum_direction_selects_class(self):
        for target, expected in [((1.0, 0.0), "regular"), ((1.0, 1.0), "singular")]:
            col = colligation_with_ray_limit(np.array(target, dtype=complex))
            m = model_over([1.0, 0.5], block=col)
            report = classify_model(m)
            assert report.classification == expected
            assert report.cross_check_ok

    def test_interior_spectrum_is_purely_singular(self, rng):
        m = model_over([0.3, 0.7], rng=rng)
        report = classify_model(m)
        assert report.classification == "purely_singular"
        assert report.kernel_part_norm <= 1e-7

    def test_gray_zone_reported_as_indeterminate(self):
        # ray limit with a tiny but nonzero component outside ker Y(1-Y)
        col = colligation_with_ray_limit(np.array([1.0, 1e-5], dtype=complex))
        m = model_over([1.0, 0.5], block=col)
        report = classify_model(m)
        assert report.classification == "indeterminate"
        assert 1e-7 < report.singular_part_norm <= 1e-3
        assert report.cross_check_ok

    def test_unconverged_raises(self):
        m = scalar_model(0.5, block=Colligation(np.array([[1.0, 1.0], [0.0, 1.0]])))
        with pytest.raises(UnconvergedError):
            classify_model(m)

    def test_constant_model_is_regular_with_zero_alpha(self):
        report = classify_model(scalar_model(0.5, block=np.eye(2)))
        assert report.classification == "regular"
        assert report.alpha == pytest.approx(0.0, abs=1e-9)
        assert report.v_tau_norm <= 1e-10

    def test_defect_is_that_of_the_reported_boundary_data(self):
        # the defect must be the one of the v_tau and phi_tau the report
        # classifies: those of the deflated solve, here (1 - A) v_tau = B
        rng = np.random.default_rng(24)
        y = random_positive_contraction(5, rng)
        col = random_colligation(5, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAUS[1]), col)
        report = classify_model(m)
        v = np.linalg.solve(np.eye(5) - col.a, col.b)
        phi_tau = col.d + col.c @ v
        assert report.phi_tau == m.phi_at_tau()
        assert report.phi_tau == pytest.approx(phi_tau, rel=1e-13)

        def one(delta):
            a = TAUS[1].tau1.conjugate() * delta[0]
            b = TAUS[1].tau2.conjugate() * delta[1]
            g = reference_calculus(m.pencil.contraction, lambda t: a * b / (a * (1.0 - t) + b * t))
            return phi_tau * np.vdot(v, g @ v)

        def derivative(deltas):
            return [one(delta) for delta in deltas.tolist()]

        want = linearity_defect(derivative, default_direction_pairs(TAUS[1]))
        assert report.linearity_defect == pytest.approx(want, rel=1e-12)

    def test_defect_bound_is_the_threshold_judged_against(self, rng):
        gray = colligation_with_ray_limit(np.array([1.0, 1e-5], dtype=complex))
        cases = [
            (scalar_model(0.5), "purely_singular", DEFECT_SINGULAR_TOL),
            (model_over([1.0, 0.0], rng=rng), "regular", DEFECT_REGULAR_TOL),
            (model_over([1.0, 0.5], block=gray), "indeterminate", DEFECT_REGULAR_TOL),
        ]
        for model, classification, bound in cases:
            report = classify_model(model)
            assert report.classification == classification
            assert report.defect_bound == bound
            assert "defect_bound" not in report.to_json()

    def test_report_serializes(self):
        doc = classify_model(scalar_model(0.5)).to_json()
        assert doc["classification"] == "purely_singular"
        assert isinstance(doc["phi_tau"], list)
