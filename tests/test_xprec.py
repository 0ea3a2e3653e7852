import numpy as np
import pytest

from caralab import xprec
from caralab.errors import UnconvergedError


def shifted(m, s):
    """The system 1 - s m of xprec.solve, in extended precision."""
    return np.eye(len(m), dtype=xprec.CDTYPE) - xprec.CDTYPE(s) * xprec.asxp(m)


class TestSolve:
    def test_matches_numpy_on_well_conditioned(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = xprec.solve(m, b, shifts=[-1.0])[0].astype(complex)
            assert np.linalg.norm(x - np.linalg.solve(np.eye(n) + m, b)) <= 1e-10

    def test_matrix_rhs(self, rng):
        # one vector b serves every shift; a matrix of right-hand sides is refused
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            xprec.solve(m, np.eye(4), shifts=[0.5])

    def test_residual_beats_double(self, rng):
        # the point of the module: backward error at the extended epsilon
        n = 6
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = xprec.solve(m, b, shifts=[-1.0])[0]
        residual = np.abs(shifted(m, -1.0) @ x - xprec.asxp(b)).max()
        assert float(residual) <= 1e-17

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            xprec.solve(np.eye(2), np.ones(2), shifts=[1.0])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            xprec.solve(np.ones((2, 3)), np.ones(2), shifts=[0.5])


class TestNearestUnitary:
    def test_snaps_perturbed_unitary(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        perturbed = q + 1e-9 * rng.standard_normal((5, 5))
        snapped = xprec.nearest_unitary(perturbed)
        assert xprec.unitary_defect(snapped) <= 1e-17
        # stays close to the input
        assert float(np.abs(snapped - xprec.asxp(perturbed)).max()) <= 1e-8

    def test_unitary_fixed_point(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert float(np.abs(xprec.nearest_unitary(swap) - xprec.asxp(swap)).max()) <= 1e-18

    def test_defect_measured_in_extended_precision(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        # a double-precision unitary carries an O(1e-16) defect; the snap removes it
        assert xprec.unitary_defect(q) > 1e-18
        assert xprec.unitary_defect(xprec.nearest_unitary(q)) <= 1e-17

    def test_structured_block(self):
        from caralab import colligation_with_ray_limit

        block = colligation_with_ray_limit([1.0, 0.0, 2.0j], 0.7).block
        snapped = xprec.nearest_unitary(block)
        assert xprec.unitary_defect(snapped) <= 1e-18
        assert float(np.abs(snapped - xprec.asxp(block)).max()) <= 1e-15


def backward_error(m, b, x) -> float:
    """Normwise backward error ||b - m x|| / (||m|| ||x|| + ||b||) in extended precision."""
    m, b, x = xprec.asxp(m), xprec.asxp(b), xprec.asxp(x)
    norm = lambda a: np.abs(a).sum(axis=-1).max() if a.ndim == 2 else np.abs(a).max()
    return float(norm(b - m @ x) / (norm(m) * norm(x) + norm(b)))


class TestRefinement:
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_backward_error_at_extended_epsilon(self, n, rng):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # the system 1 - (-1)(m - 1) is m up to the rounding of its diagonal
        a = m - np.eye(n)
        x = xprec.solve(a, b, shifts=[-1.0])
        assert x.dtype == xprec.CDTYPE and x.shape == (1, n)
        assert backward_error(shifted(a, -1.0), b, x[0]) <= 1e-17
        # a complex128 solve is two orders of magnitude short of that
        assert backward_error(shifted(a, -1.0), b, np.linalg.solve(np.eye(n) + a, b)) > 1e-17

    @pytest.mark.parametrize("n", [8, 64])
    def test_zero_entries_and_small_pivot(self, n, rng):
        # exact zeros below the pivot and a small leading entry (forced row
        # swaps in the complex128 factorization); a sparse right-hand side.
        # The system 1 - (-1)(m - 1) keeps m's zeros and its small pivot
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[np.abs(m.real) < 0.6] = 0.0
        m += 3.0 * np.eye(n)
        m[0, 0] = 1e-3
        b = np.zeros(n, dtype=complex)
        b[-1] = -1.0
        a = m - np.eye(n)
        system = shifted(a, -1.0)
        assert abs(complex(system[0, 0])) <= 2e-3 and np.array_equal(system == 0, m == 0)
        assert backward_error(system, b, xprec.solve(a, b, shifts=[-1.0])[0]) <= 1e-17

    def test_ill_conditioned_shifts_reach_extended_backward_error(self, rng):
        # the ray systems of a block with a unimodular eigenvalue 1: cond ~ 2/t
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        a = q @ np.diag([1.0, 1.0, 0.5j, -0.3, 0.2 + 0.1j]) @ q.conj().T
        b = q[:, 2:] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        ts = 2.0 ** -np.arange(4, 21)
        x = xprec.solve(a, b, shifts=1 - ts)
        for t, xk in zip(ts, x):
            assert backward_error(shifted(a, 1 - t), b, xk) <= 1e-18

    def test_stacked_solve_equals_per_system_solves(self, rng):
        n = 8
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= np.linalg.norm(a, 2)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        shifts = 1 - 2.0 ** -np.arange(1, 12)
        stacked = xprec.solve(a, b, shifts=shifts)
        assert stacked.shape == (len(shifts), n) and stacked.dtype == xprec.CDTYPE
        for s, x in zip(shifts, stacked):
            # a settled system is left alone, so the stack changes no bit
            assert np.array_equal(x, xprec.solve(a, b, shifts=[s])[0])
            assert backward_error(shifted(a, s), b, x) <= 1e-17

    def test_singular_system_in_a_stack_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            xprec.solve(2.0 * np.eye(3), np.ones(3), shifts=[0.25, 0.5])

    def test_unsettled_system_raises(self):
        # LAPACK passes a NaN through without a pivot error; its residual never settles
        with pytest.raises(UnconvergedError):
            xprec.solve(np.array([[np.nan]]), np.ones(1), shifts=[0.5])
        with pytest.raises(UnconvergedError):
            xprec.solve(np.eye(2), np.ones(2), shifts=[0.5, np.nan])
