import numpy as np
import pytest

from caralab import BoundaryPoint, DiskPoint, direction_entry_time, is_admissible_direction, points
from caralab.errors import InadmissibleDirectionError
from caralab.points import batch_points, require_admissible, stack_points


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
        assert lam == DiskPoint(0.75 + 0j, -0.75 + 0j)


class TestDiskPoint:
    def test_inf_norm(self):
        lam = DiskPoint(0.3 + 0.4j, -0.2j)
        assert lam.inf_norm == pytest.approx(0.5)
        assert lam.in_open_bidisk()
        assert not DiskPoint(1 + 0j, 0j).in_open_bidisk()

    def test_iteration(self):
        a, b = DiskPoint(1j, 2j)
        assert (a, b) == (1j, 2j)


class TestAdmissibility:
    def test_inward_directions(self):
        tau = (1 + 0j, 1 + 0j)
        assert is_admissible_direction(tau, (-1, -1))
        assert is_admissible_direction(tau, (-2 - 1j, -0.5 + 3j))
        assert not is_admissible_direction(tau, (1, -1))
        assert not is_admissible_direction(tau, (1j, -1))  # tangential first slot

    def test_rotation_covariance(self):
        tau = (1j, -1 + 0j)
        # delta = -tau scaled points inward at every boundary point
        assert is_admissible_direction(tau, (-1j, 1 + 0j))

    def test_require_raises(self):
        with pytest.raises(InadmissibleDirectionError):
            require_admissible((1 + 0j, 1 + 0j), (1j, -1))

    def test_entry_time_keeps_segment_inside(self):
        tau = BoundaryPoint(1 + 0j, -1 + 0j)
        delta = (-2 + 1j, 1 - 0.5j)
        assert is_admissible_direction(tau, delta)
        t_max = direction_entry_time(tau, delta)
        for frac in (0.1, 0.5, 0.99):
            t = frac * t_max
            lam = DiskPoint(tau.tau1 + t * delta[0], tau.tau2 + t * delta[1])
            assert lam.in_open_bidisk()
        t = 1.01 * t_max
        lam = DiskPoint(tau.tau1 + t * delta[0], tau.tau2 + t * delta[1])
        assert not lam.in_open_bidisk()

    def test_require_returns_the_stacked_directions(self):
        deltas = batch_points([(-1, -1), (-2 - 1j, -0.5 + 3j)])
        assert require_admissible((1 + 0j, 1 + 0j), deltas).tolist() == stack_points(deltas).tolist()

    @pytest.mark.parametrize(
        "check", [is_admissible_direction, require_admissible, direction_entry_time]
    )
    @pytest.mark.parametrize("delta", [(-1, -1), batch_points([(-1, -1), (-2 - 1j, -0.5 + 3j)])])
    def test_each_point_is_stacked_once(self, monkeypatch, check, delta):
        stacked = []
        stack = points.stack_points

        def counting(p):
            stacked.append(p)
            return stack(p)

        monkeypatch.setattr(points, "stack_points", counting)
        tau = BoundaryPoint(1 + 0j, 1 + 0j)
        check(tau, delta)
        assert len(stacked) == 2 and tau in stacked


class TestStackPoints:
    @pytest.mark.parametrize(
        "p, want",
        [
            ((1, -0.5j), [[1 + 0j, -0.5j]]),
            (BoundaryPoint(1j, -1 + 0j), [[1j, -1 + 0j]]),
            ((np.array([0.5, 0.25j]), 0.5j), [[0.5, 0.5j], [0.25j, 0.5j]]),
            ((np.array([0.5, 0.25j]), np.array([0.1, -0.0])), [[0.5, 0.1], [0.25j, -0.0]]),
            ((np.zeros(0), np.zeros(0)), []),
        ],
    )
    def test_rows_are_the_points(self, p, want):
        got = stack_points(p)
        assert got.dtype == complex and got.shape == (len(want), 2)
        assert got.tobytes() == np.array(want, dtype=complex).reshape(-1, 2).tobytes()
