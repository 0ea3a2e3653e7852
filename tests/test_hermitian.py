import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import hermitian
from caralab.hermitian import max_opnorm
from caralab import (
    NotHermitianError,
    SpectralDecomposition,
    SpectrumOutOfRangeError,
    hermitian_defect,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    random_positive_contraction,
    spectral_decompose,
    validate_positive_contraction,
)

EIGTOL = 1e-9


class TestSpectralDecompose:
    def test_diagonal_projection(self):
        dec = spectral_decompose(np.diag([1.0, 0.0]))
        assert dec.eigenvalues == (0.0, 1.0)
        assert np.allclose(dec.projector(0.0), np.diag([0.0, 1.0]))
        assert np.allclose(dec.projector(1.0), np.diag([1.0, 0.0]))

    def test_two_by_two_hand_solution(self):
        # characteristic polynomial of [[.5,.25],[.25,.5]] gives 0.25 and 0.75
        dec = spectral_decompose([[0.5, 0.25], [0.25, 0.5]])
        assert dec.eigenvalues == pytest.approx((0.25, 0.75), abs=1e-12)
        lo = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(dec.projector(dec.eigenvalues[0]), np.outer(lo, lo), atol=1e-12)
        assert np.allclose(dec.projector(dec.eigenvalues[1]), np.outer(hi, hi), atol=1e-12)

    def test_identity_single_cluster(self):
        dec = spectral_decompose(np.eye(5))
        assert dec.eigenvalues == (1.0,)
        assert np.allclose(dec.projector(1.0), np.eye(5))

    def test_near_degenerate_eigenvalues_cluster(self):
        a = np.diag([0.5, 0.5 + 1e-12, 0.9])
        dec = spectral_decompose(a, EIGTOL)
        assert len(dec.eigenvalues) == 2

    def test_clusters_snapped_onto_one_endpoint_share_its_eigenspace(self):
        # a gap of 1.8e-9 > eigtol makes two clusters; both snap to 0
        dec = spectral_decompose(np.diag([9e-10, 0.5, -9e-10]), EIGTOL)
        assert dec.eigenvalues == (0.0, 0.5)
        assert np.allclose(dec.projector(0.0), np.diag([1.0, 0.0, 1.0]))
        assert opnorm(dec.compose(dec.weights) - np.diag([0.0, 0.5, 0.0])) <= 1e-15

    def test_stores_only_the_eigenbasis(self):
        # and the eigensolver's extreme eigenvalues, which snapping discards
        names = [f.name for f in dataclasses.fields(SpectralDecomposition)]
        assert names == ["eigenvectors", "weights", "extremes"]

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            spectral_decompose([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("skew", [0.0, 5e-10, 2e-9, 1e-7])
    def test_rejection_rule(self, scale, skew):
        # a defect is rejected when it exceeds max(eigtol, 1e-14 max(1, ||A||)):
        # at scale 1e6 the norm term admits a skew of 2e-9 that eigtol alone would not
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = scale * (g + g.conj().T) / 2
        a[0, 1] += skew
        defect = hermitian_defect(a)
        if defect > max(EIGTOL, 1e-14 * max(1.0, opnorm(a))):
            with pytest.raises(NotHermitianError) as err:
                spectral_decompose(a, EIGTOL)
            assert err.value.defect == defect
        else:
            spectral_decompose(a, EIGTOL)

    def test_norm_skipped_within_eigtol(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return opnorm(a)

        monkeypatch.setattr(hermitian, "opnorm", counting)
        spectral_decompose(np.diag([0.2, 0.7]), EIGTOL)
        assert calls == []
        with pytest.raises(NotHermitianError):
            spectral_decompose([[0.0, 1.0], [0.0, 0.0]], EIGTOL)
        assert len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        ratio=st.floats(0.25, 4.0),
        rank_one=st.booleans(),
    )
    def test_frobenius_certificate_keeps_the_svd_rule(self, n, seed, ratio, rank_one):
        # a skew part of 2-norm ratio * eigtol, full or of rank one (where the
        # Frobenius norm equals the 2-norm): accepted exactly when the SVD rule accepts
        rng = np.random.default_rng(seed)
        if rank_one:
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            skew = 1j * np.outer(u, u.conj())
        else:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            skew = g - g.conj().T
        y = random_positive_contraction(n, rng).matrix
        a = y + skew * (0.5 * ratio * EIGTOL / opnorm(skew))
        defect = hermitian_defect(a)
        for decompose in (spectral_decompose, validate_positive_contraction):
            if defect > max(EIGTOL, 1e-14 * max(1.0, opnorm(a))):
                with pytest.raises(NotHermitianError) as err:
                    decompose(a, EIGTOL)
                assert err.value.defect == defect
            else:
                decompose(a, EIGTOL)

    def test_no_svd_for_a_hermitian_matrix(self, monkeypatch, rng):
        calls = []
        defect = hermitian.hermitian_defect
        monkeypatch.setattr(hermitian, "hermitian_defect", lambda a: calls.append(a) or defect(a))
        y = random_positive_contraction(6, rng)
        spectral_decompose(y.matrix)
        assert calls == []
        # validate_positive_contraction keeps the Hermitian part it decomposed
        a = y.matrix + 1e-12 * np.triu(np.ones((6, 6)), 1)
        assert same_bits(validate_positive_contraction(a).matrix, (a + a.conj().T) / 2)
        assert calls == []

    def test_singleton_clusters_keep_their_eigenvalue(self):
        a = np.diag([0.1, 0.1 + 1e-12, 0.4, 0.7]) + 0j
        dec = spectral_decompose(a, EIGTOL)
        w = np.linalg.eigvalsh(a)
        assert dec.weights.tolist() == [float(np.mean(w[:2]))] * 2 + [w[2], w[3]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_equal_the_loop_reference(self, seed):
        # clusters of 1-12 eigenvalues, some within eigtol of 0 or 1
        rng = np.random.default_rng(seed)
        centres = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 6)))
        values = np.concatenate([c + 3e-10 * np.arange(rng.integers(1, 13)) for c in centres])
        a = np.diag(rng.permutation(values)) + 0j
        w = np.linalg.eigvalsh(a)
        expected, group = [], [0]
        for i in range(1, w.size + 1):
            if i < w.size and w[i] - w[group[-1]] <= EIGTOL:
                group.append(i)
                continue
            value = float(np.mean(w[group]))
            value = 0.0 if abs(value) <= EIGTOL else 1.0 if abs(value - 1.0) <= EIGTOL else value
            expected += [value] * len(group)
            group = [i]
        assert spectral_decompose(a, EIGTOL).weights.tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_invariants_random(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2
        dec = spectral_decompose(a, EIGTOL)
        # reconstruction and resolution of the identity
        assert opnorm(dec.compose(dec.weights) - a) <= 10 * EIGTOL * max(1.0, opnorm(a))
        projectors = [dec.projector(w) for w in dec.eigenvalues]
        total = sum(projectors)
        assert opnorm(total - np.eye(n)) <= 10 * EIGTOL
        # projectors are Hermitian, idempotent, mutually orthogonal
        for i, p in enumerate(projectors):
            assert opnorm(p - p.conj().T) <= 1e-12
            assert opnorm(p @ p - p) <= 1e-12
            for q in projectors[i + 1 :]:
                assert opnorm(p @ q) <= 1e-12
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues)


class TestPositiveContraction:
    def test_scalar_above_one_rejected(self):
        with pytest.raises(SpectrumOutOfRangeError) as err:
            validate_positive_contraction([[1.2]])
        assert err.value.eigenvalue == pytest.approx(1.2, abs=1e-12)

    def test_negative_eigenvalue_rejected(self):
        # eigenvalues of [[.5,.6],[.6,.5]] are -0.1 and 1.1
        with pytest.raises(SpectrumOutOfRangeError) as err:
            validate_positive_contraction([[0.5, 0.6], [0.6, 0.5]])
        assert err.value.eigenvalue == pytest.approx(-0.1, abs=1e-12)

    def test_diagonal_in_range_accepted(self):
        y = validate_positive_contraction(np.diag([1.0, 0.5, 0.0]))
        assert y.eigenvalues == (0.0, 0.5, 1.0)

    def test_endpoint_excursions_snapped(self):
        y = validate_positive_contraction(np.diag([1.0 + 5e-10, -5e-10]))
        assert y.eigenvalues == (0.0, 1.0)
        assert set(y.decomposition.weights) <= {0.0, 1.0}
        assert y.excursion == pytest.approx(5e-10, rel=1e-6)

    def test_excursion_reaches_past_eigtol(self):
        # gaps of 0.75e-9 chain three eigenvalues into one cluster of mean
        # -0.75e-9, snapped to 0; its lowest member lies 1.5e-9 below 0
        y = validate_positive_contraction(np.diag([-1.5e-9, -0.75e-9, 0.0, 0.5]), EIGTOL)
        assert y.eigenvalues == (0.0, 0.5)
        assert y.excursion == pytest.approx(1.5e-9, rel=1e-6)
        assert validate_positive_contraction(np.diag([0.0, 0.5, 1.0])).excursion == 0.0

    def test_random_spectrum_clamped(self, rng):
        y = random_positive_contraction(6, rng)
        assert all(0.0 <= w <= 1.0 for w in y.eigenvalues)


def kernel_projectors(y):
    """Projectors onto the 1-eigenspace, the 0-eigenspace and the orthogonal complement of ker Y(1-Y)."""
    e1, e0 = y.decomposition.projector(1.0), y.decomposition.projector(0.0)
    return e1, e0, np.eye(y.dim) - e1 - e0


class TestKernelProjectors:
    def test_diagonal_example(self):
        y = validate_positive_contraction(np.diag([1.0, 0.5, 0.0]))
        e1, e0, e = kernel_projectors(y)
        assert np.allclose(e1, np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(e0, np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(e, np.diag([0.0, 1.0, 0.0]))

    def test_scalar_interior(self):
        y = validate_positive_contraction([[0.5]])
        e1, e0, e = kernel_projectors(y)
        assert e1 == pytest.approx(0.0)
        assert e0 == pytest.approx(0.0)
        assert e == pytest.approx(1.0)

    def test_projection_has_no_middle_part(self):
        y = validate_positive_contraction(np.diag([1.0, 0.0]))
        _, _, e = kernel_projectors(y)
        assert opnorm(e) <= 1e-12

    def test_algebraic_relations(self, rng):
        y = random_positive_contraction(5, rng, eigenvalues=[1.0, 1.0, 0.3, 0.0, 0.8])
        e1, e0, e = kernel_projectors(y)
        assert opnorm(e1 + e0 + e - np.eye(5)) <= 1e-10
        assert opnorm(y.matrix @ e1 - e1) <= 1e-10
        assert opnorm(y.matrix @ e0) <= 1e-10
        assert opnorm(e @ e - e) <= 1e-10 and opnorm(e @ e1) <= 1e-10 and opnorm(e @ e0) <= 1e-10


class TestJson:
    def test_round_trip(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        doc = matrix_to_json(a)
        assert doc["rows"] == 3 and doc["cols"] == 4
        assert np.array_equal(matrix_from_json(doc), a)

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_json(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def svd_max_norm(stack) -> float:
    return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())


class TestMaxOpnorm:
    """max_opnorm is bit for bit the largest 2-norm of the stack's SVDs."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_stacks(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            g = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
            # scales spread over twenty decades, as the gaps of a cross-oracle
            g *= 10.0 ** rng.uniform(-20.0, 0.0, size=(40, 1, 1))
            assert max_opnorm(g) == svd_max_norm(g)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rank_one_stacks(self, n):
        # Frobenius norm and 2-norm coincide
        rng = np.random.default_rng(10 + n)
        for scale in (1.0, 1e-16, 1e-200, 1e200):
            u = rng.standard_normal((40, n, 1)) + 1j * rng.standard_normal((40, n, 1))
            v = rng.standard_normal((40, 1, n)) + 1j * rng.standard_normal((40, 1, n))
            g = scale * (u @ v)
            assert max_opnorm(g) == svd_max_norm(g)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_stacks(self, n):
        g = np.zeros((40, n, n), dtype=complex)
        assert max_opnorm(g) == svd_max_norm(g) == 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_largest_frobenius_norm_is_not_the_largest_2_norm(self, n):
        # the identity has Frobenius norm n^(1/2) and 2-norm 1; 1.2 e1 e1*
        # has both equal to 1.2
        rng = np.random.default_rng(20 + n)
        g = 1e-3 * (rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n)))
        g[7] = np.eye(n)
        g[23] = 0.0
        g[23, 0, 0] = 1.2
        frobenius = np.linalg.norm(g, axis=(1, 2))
        two = np.linalg.norm(g, 2, axis=(1, 2))
        assert np.argmax(frobenius) == 7 and np.argmax(two) == 23
        assert max_opnorm(g) == svd_max_norm(g) == 1.2

    def test_subnormal_squares_do_not_decide(self):
        # near 1e-158 the squares are subnormal and lose the 1e-8 gap between
        # these two columns; unscaled, the bounds would drop the larger one
        g = np.zeros((2, 2, 2), dtype=complex)
        g[0, :, 0] = [1.4628678091292718e-158, 1.2867688654485352e-158]
        g[1, :, 0] = [1.2867687957446956e-158, 1.4628678662695045e-158]
        assert max_opnorm(g) == svd_max_norm(g)

    def test_only_candidates_go_to_the_svd(self, monkeypatch):
        seen = []
        norm = np.linalg.norm

        def recording(x, *args, **kwargs):
            seen.append(len(x))
            return norm(x, *args, **kwargs)

        g = np.zeros((40, 3, 3), dtype=complex)
        g[:, 0, 0] = np.arange(40) * 1e-16
        monkeypatch.setattr(np.linalg, "norm", recording)
        assert max_opnorm(g) == 39e-16
        assert seen == [1]
