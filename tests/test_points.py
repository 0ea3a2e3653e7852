import numpy as np
import pytest

from caralab import (
    BoundaryPoint,
    GeneralizedRealization,
    OperatorPencil,
    derivative_fd,
    derivative_model,
    derivative_table,
    direction_entry_time,
    i_y_eval,
    i_y_spectral_form,
    phi_y_directional_derivative,
    phi_y_eval,
    phi_y_model_residual,
    points,
    random_colligation,
    random_positive_contraction,
    satisfies_aperture,
)
from caralab.errors import InadmissibleDirectionError
from caralab.points import as_points, require_admissible
from caralab.scalar_family import phi_y_model_components
from conftest import TAU_11, TAUS, scalar_model


class TestBoundaryPoint:
    def test_unimodular_enforced(self):
        with pytest.raises(ValueError):
            BoundaryPoint(0.5 + 0j, 1 + 0j)

    @pytest.mark.parametrize("z", [complex("nan"), complex(1.0, float("nan")), complex("inf")])
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError):
            BoundaryPoint(z, 1 + 0j)
        with pytest.raises(ValueError):
            BoundaryPoint(1 + 0j, z)

    def test_quarter_turns_are_exact(self):
        tau = BoundaryPoint.from_angles(0.0, 0.25)
        assert tau.tau1 == 1 + 0j
        assert tau.tau2 == 1j
        assert BoundaryPoint.from_angles(0.5, 0.75) == BoundaryPoint(-1 + 0j, -1j)

    def test_generic_angle(self):
        tau = BoundaryPoint.from_angles(1.0 / 3.0, 0.1)
        assert abs(abs(tau.tau1) - 1.0) <= 1e-15
        assert abs(abs(tau.tau2) - 1.0) <= 1e-15

    def test_ray_point(self):
        tau = BoundaryPoint(1 + 0j, -1 + 0j)
        lam = tau.ray_point(0.25)
        assert lam == (0.75 + 0j, -0.75 + 0j)
        ray = tau.ray_point(np.array([0.25, 0.5]))
        assert ray.shape == (2, 2) and ray.tolist() == [[0.75, -0.75], [0.5, -0.5]]

    def test_coordinates_are_stored_as_complex(self):
        tau = BoundaryPoint(1, -1.0)
        assert tuple(map(type, tau)) == (complex, complex)
        assert BoundaryPoint(*tau) == tau == BoundaryPoint(*(1 + 0j, -1 + 0j))


#: directions whose coordinates, or |delta|^2, are not finite numbers, and why each is refused
UNREPRESENTABLE = [
    ((-np.inf, -1), "is not finite"),
    ((np.nan, -1), "is not finite"),
    ((-1e308, -1e308), "has no finite entry time"),
    ((-1e-320, -1e-320), "has no finite entry time"),
    ((-1e200, -1), "has no finite entry time"),
]


class TestAdmissibility:
    def test_inward_directions(self):
        tau = (1 + 0j, 1 + 0j)
        require_admissible(tau, (-1, -1))
        require_admissible(tau, (-2 - 1j, -0.5 + 3j))
        for outward in ((1, -1), (1j, -1)):  # the second is tangential in its first slot
            with pytest.raises(InadmissibleDirectionError, match="does not point into the bidisk"):
                require_admissible(tau, outward)

    def test_rotation_covariance(self):
        tau = (1j, -1 + 0j)
        # delta = -tau scaled points inward at every boundary point
        require_admissible(tau, (-1j, 1 + 0j))

    def test_entry_time_keeps_segment_inside(self):
        tau = BoundaryPoint(1 + 0j, -1 + 0j)
        delta = (-2 + 1j, 1 - 0.5j)
        t_max = direction_entry_time(tau, delta)
        for frac in (0.1, 0.5, 0.99):
            t = frac * t_max
            assert max(abs(tau.tau1 + t * delta[0]), abs(tau.tau2 + t * delta[1])) < 1.0
        t = 1.01 * t_max
        assert max(abs(tau.tau1 + t * delta[0]), abs(tau.tau2 + t * delta[1])) >= 1.0

    def test_require_returns_the_stacked_directions(self):
        deltas = np.array([(-1, -1), (-2 - 1j, -0.5 + 3j)])
        assert require_admissible((1 + 0j, 1 + 0j), deltas).tolist() == deltas.tolist()
        assert require_admissible((1 + 0j, 1 + 0j), (-1, -2)).tolist() == [[-1, -2]]

    @pytest.mark.parametrize(
        "check", [require_admissible, direction_entry_time]
    )
    @pytest.mark.parametrize("delta", [(-1, -1), np.array([(-1, -1), (-2 - 1j, -0.5 + 3j)])])
    def test_each_point_is_stacked_once(self, monkeypatch, check, delta):
        stacked = []
        stack = points.as_points

        def counting(p):
            stacked.append(p)
            return stack(p)

        monkeypatch.setattr(points, "as_points", counting)
        tau = BoundaryPoint(1 + 0j, 1 + 0j)
        check(tau, delta)
        assert len(stacked) == 2 and any(p is tau for p in stacked)

    @pytest.mark.parametrize("delta, why", UNREPRESENTABLE)
    def test_unrepresentable_direction_is_refused(self, delta, why):
        # as its own direction, and after an admissible one in an array
        tau = BoundaryPoint(1 + 0j, 1 + 0j)
        stacked = np.array([(-1, -1), delta], dtype=complex)
        for check in (require_admissible, direction_entry_time):
            for d in (delta, stacked):
                with pytest.raises(InadmissibleDirectionError, match=why) as info:
                    check(tau, d)
                assert str(info.value).startswith(f"direction {tuple(map(complex, delta))!r} ")

    @pytest.mark.parametrize("delta, why", UNREPRESENTABLE)
    def test_every_derivative_route_refuses_an_unrepresentable_direction(self, delta, why):
        model = scalar_model(0.5)
        routes = {
            "derivative_model": lambda d: derivative_model(model, d),
            "phi_y_directional_derivative": lambda d: phi_y_directional_derivative(0.5, TAU_11, d),
            "derivative_fd": lambda d: derivative_fd(model.phi, TAU_11, d),
            "derivative_table": lambda d: derivative_table(model, [d]),
        }
        for name, route in routes.items():
            with pytest.raises(InadmissibleDirectionError, match=why):
                route(delta)


class TestStackPoints:
    """as_points: an (N, 2) array is N points, a pair of scalars is one."""

    @pytest.mark.parametrize(
        "p, want",
        [
            ((1, -0.5j), [[1 + 0j, -0.5j]]),
            (BoundaryPoint(1j, -1 + 0j), [[1j, -1 + 0j]]),
            ((0.5, np.complex128(0.25j)), [[0.5, 0.25j]]),
            (np.array([[0.5, 0.5j], [0.25j, -0.0]]), [[0.5, 0.5j], [0.25j, -0.0]]),
            (np.zeros((0, 2)), []),
        ],
    )
    def test_rows_are_the_points(self, p, want):
        got, single = as_points(p)
        assert single is not isinstance(p, np.ndarray)
        assert got.dtype == complex and got.shape == (len(want), 2)
        assert got.tobytes() == np.array(want, dtype=complex).reshape(-1, 2).tobytes()

    def test_a_complex_array_is_not_copied(self):
        p = np.array([[0.5, 0.5j]])
        assert as_points(p)[0] is p

    @pytest.mark.parametrize(
        "p",
        [
            (np.array([0.5, 0.25j]), np.array([0.1, 0.2])),  # a pair of arrays
            (np.array([0.5, 0.25j]), 0.5j),
            np.array([0.5, 0.5j]),  # shape (2,)
            np.zeros((3, 3)),
            np.zeros((1, 2, 2)),
            [(0.5, 0.5), (0.1, 0.1)],  # a list of points
            (0.5, 0.5, 0.5),
            0.5,
            None,
        ],
    )
    def test_anything_else_is_rejected(self, p):
        with pytest.raises(ValueError):
            as_points(p)


def _rule_cases():
    """Each public point function as f(p): p is one point or an (N, 2) array, of points or of directions."""
    tau = TAUS[2]
    rng = np.random.default_rng(17)
    y = random_positive_contraction(4, rng, eigenvalues=[0.0, 0.3, 1.0, 0.7])
    model = GeneralizedRealization(OperatorPencil(y, tau), random_colligation(4, rng))

    def mu_for(p):
        # a second argument of the same form: the points (conj lam2, conj lam1)
        if isinstance(p, np.ndarray) and p.ndim == 2 and p.shape[1] == 2:
            return np.conj(p[:, ::-1])
        if isinstance(p, tuple) and not any(np.ndim(z) for z in p):
            return (np.conj(p[1]), np.conj(p[0]))
        return (0.1 + 0.2j, -0.3)

    def pairwise(f):
        return lambda p: f(p, mu_for(p))

    phi = model.phi
    points = {
        "phi": phi,
        "model_vector": model.model_vector,
        "model_residual": pairwise(model.model_residual),
        "i_y_eval": lambda p: i_y_eval(model.pencil, p),
        "i_y_spectral_form": lambda p: i_y_spectral_form(model.pencil, p),
        "satisfies_aperture": lambda p: satisfies_aperture(tau, p, 2.0),
        "phi_y_eval": lambda p: phi_y_eval(0.3, tau, p),
        "phi_y_model_components": lambda p: phi_y_model_components([0.3, 0.6], tau, p)[1],
        "phi_y_model_residual": pairwise(lambda lam, mu: phi_y_model_residual(0.3, tau, lam, mu)),
    }
    directions = {
        "derivative_fd": lambda d: derivative_fd(phi, tau, d, phi_tau=model.phi_at_tau()),
        "derivative_model": lambda d: derivative_model(model, d),
        "direction_entry_time": lambda d: direction_entry_time(tau, d),
        "phi_y_directional_derivative": lambda d: phi_y_directional_derivative(0.3, tau, d),
    }
    interior = rng.uniform(-0.6, 0.6, (5, 2)) + 1j * rng.uniform(-0.6, 0.6, (5, 2))
    inward = np.array([(s1 * tau.tau1, s2 * tau.tau2) for s1, s2 in [(-1, -2), (-2 - 1j, -1), (-0.5, -1.5 + 0.5j)]])
    return {name: (f, interior) for name, f in points.items()} | {
        name: (f, inward) for name, f in directions.items()
    }


RULE_CASES = _rule_cases()


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_one_input_rule(name):
    f, batch = RULE_CASES[name]
    values = f(batch)
    assert len(values) == len(batch)
    for k, row in enumerate(batch.tolist()):
        one = f(tuple(row))
        # one point gives a scalar: a number, or for a vector or matrix value its one-point shape
        assert np.shape(one) == np.shape(values)[1:]
        assert np.ndim(one) or isinstance(one, (bool, float, complex))
        if name == "model_vector":
            # the rotation v = U v' is one BLAS product, rounded by the batch's blocking
            np.testing.assert_allclose(values[k], one, rtol=1e-14, atol=0)
        else:
            # the batch holds the one-point values, bit for bit
            assert np.array_equal(values[k], one)
    pair_of_arrays = (batch[:, 0], batch[:, 1])
    for bad in (pair_of_arrays, batch[0], np.zeros((len(batch), 3))):
        with pytest.raises(ValueError):
            f(bad)
