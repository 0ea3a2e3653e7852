import pytest

from caralab import BoundaryPoint, DiskPoint, direction_entry_time, is_admissible_direction
from caralab.errors import InadmissibleDirectionError
from caralab.points import require_admissible


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
