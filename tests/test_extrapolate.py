import numpy as np
import pytest

from caralab.extrapolate import richardson_limit


def geometric_samples(f, t0=0.5, n=10, ratio=2.0):
    return [f(t0 / ratio**k) for k in range(n)]


class TestRichardson:
    def test_exact_on_affine(self):
        limit, residual = richardson_limit(geometric_samples(lambda t: 3.0 + 2.0 * t))
        assert limit == pytest.approx(3.0, abs=1e-14)
        assert residual <= 1e-13

    def test_two_levels_kill_quadratic(self):
        limit, _ = richardson_limit(geometric_samples(lambda t: 1.0 - t + 4.0 * t**2))
        assert limit == pytest.approx(1.0, abs=1e-9)

    def test_single_level(self):
        limit, _ = richardson_limit(
            geometric_samples(lambda t: 1.0 - t, n=4), levels=1
        )
        assert limit == pytest.approx(1.0, abs=1e-14)

    def test_complex_values(self):
        limit, _ = richardson_limit(geometric_samples(lambda t: (2.0 + 1.0j) + 1j * t))
        assert complex(limit) == pytest.approx(2.0 + 1.0j, abs=1e-12)

    def test_vector_values(self):
        samples = geometric_samples(lambda t: np.array([1.0 + t, 2.0 - 3.0 * t]))
        limit, residual = richardson_limit(samples)
        assert np.allclose(limit, [1.0, 2.0], atol=1e-12)
        assert residual.shape == (2,) and np.all(residual <= 1e-11)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_columns_equal_per_column_calls_bit_for_bit(self, dtype, rng):
        # the finite-difference quotients of a batch of directions: one column each
        values = rng.standard_normal((15, 40)).astype(dtype)
        if dtype is complex:
            values += 1j * rng.standard_normal((15, 40))
        limits, residuals = richardson_limit(values)
        assert limits.shape == residuals.shape == (40,)
        for col, limit, residual in zip(values.T, limits, residuals):
            one_limit, one_residual = richardson_limit(list(col))
            assert type(one_residual) is float
            assert np.asarray(limit).tobytes() == np.asarray(one_limit).tobytes()
            assert residual == one_residual

    def test_constant_sequence(self):
        limit, residual = richardson_limit([5.0, 5.0, 5.0])
        assert limit == pytest.approx(5.0)
        assert residual <= 1e-15

    def test_levels_clamped_to_length(self):
        limit, _ = richardson_limit([1.5, 1.25], levels=5)
        assert float(limit) == pytest.approx(1.0)  # one level applied

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            richardson_limit([1.0])

    def test_other_ratio(self):
        samples = [2.0 + (0.3 / 3.0**k) for k in range(8)]
        limit, _ = richardson_limit(samples, ratio=3.0)
        assert float(limit) == pytest.approx(2.0, abs=1e-12)
