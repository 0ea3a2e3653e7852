import numpy as np
import pytest

from caralab import xprec


class TestSolve:
    def test_matches_numpy_on_well_conditioned(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = xprec.solve(m, b).astype(complex)
            assert np.linalg.norm(x - np.linalg.solve(m, b)) <= 1e-10

    def test_matrix_rhs(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = xprec.solve(m, np.eye(4)).astype(complex)
        assert np.linalg.norm(m @ x - np.eye(4)) <= 1e-12

    def test_residual_beats_double(self, rng):
        # the point of the module: backward error at the extended epsilon
        n = 6
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = xprec.solve(m, b)
        residual = np.abs(xprec.asxp(m) @ x - xprec.asxp(b)).max()
        assert float(residual) <= 1e-17

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            xprec.solve(np.zeros((2, 2)), np.ones(2))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            xprec.solve(np.ones((2, 3)), np.ones(2))


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


def row_loop_solve(m, b):
    """The elimination as one Python loop over rows: the reference the vectorised one must match."""
    m, b = xprec.asxp(m), xprec.asxp(b)
    n = m.shape[0]
    vector = b.ndim == 1
    aug = np.concatenate([m.copy(), b[:, None] if vector else b.copy()], axis=1)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[piv, col] == 0:
            raise np.linalg.LinAlgError("singular matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(col + 1, n):
            if aug[row, col] != 0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    x = np.zeros_like(aug[:, n:])
    for row in range(n - 1, -1, -1):
        x[row] = aug[row, n:]
        if row + 1 < n:
            x[row] = x[row] - aug[row, row + 1:n] @ x[row + 1:]
    return x[:, 0] if vector else x


def bitwise_equal(a, b) -> bool:
    """Equal values and equal signs of zero, in both parts."""
    parts = [(part(a), part(b)) for part in (np.real, np.imag)]
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y)) for x, y in parts)


class TestVectorisedElimination:
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_solve_and_inv_match_row_loop(self, n, rng):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert bitwise_equal(xprec.solve(m, b), row_loop_solve(m, b))
        assert bitwise_equal(xprec.inv(m), row_loop_solve(m, np.eye(n)))

    @pytest.mark.parametrize("n", [8, 64])
    def test_zero_multipliers_and_pivoting(self, n, rng):
        # exact zeros below the pivot (skipped rows) and a small leading
        # entry (forced row swaps); a sparse right-hand side has signed zeros
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[np.abs(m.real) < 0.6] = 0.0
        m += 3.0 * np.eye(n)
        m[0, 0] = 1e-3
        b = np.zeros(n, dtype=complex)
        b[-1] = -1.0
        assert bitwise_equal(xprec.solve(m, b), row_loop_solve(m, b))
        assert bitwise_equal(xprec.inv(m), row_loop_solve(m, np.eye(n)))

    def test_signed_zero_behind_a_zero_multiplier(self):
        # updating the row below with its zero multiplier would turn the
        # -0 real part of m[1, 1] into +0 and flip the sign of x[1].real
        m = np.array([[2, -1 + 1j], [0, complex(-0.0, 1)]])
        b = np.array([1, complex(1, -0.0)])
        x = xprec.solve(m, b)
        assert bitwise_equal(x, row_loop_solve(m, b))
        assert np.signbit(x[1].real)

    def test_nearest_unitary_of_structured_block(self, rng):
        from caralab import colligation_with_ray_limit

        block = colligation_with_ray_limit([1.0, 0.0, 2.0j], 0.7).block
        x = xprec.asxp(block)
        for _ in range(3):  # the Newton steps of nearest_unitary
            x_next = (x + row_loop_solve(x.conj().T, np.eye(4))) / xprec.CDTYPE(2)
            assert bitwise_equal(x_next, (x + xprec.inv(x.conj().T)) / xprec.CDTYPE(2))
            x = x_next
