import json
import math
import sys
import threading

import numpy as np
import pytest

from caralab import cli, pencil, realization
from caralab import (
    Colligation,
    GeneralizedRealization,
    NotIsometricError,
    OperatorPencil,
    SingularDenominatorError,
    SingularResolventError,
    colligation_with_ray_limit,
    dump_model,
    i_y_eval,
    load_model,
    opnorm,
    phi_y_eval,
    random_colligation,
    random_positive_contraction,
    validate_colligation,
    validate_positive_contraction,
)
from caralab.pencil import sample_bidisk_batch, sample_bidisk_pairs
from caralab.realization import DEFAULT_ISOTOL
from caralab.suite import SuiteConfig, generate_model
from conftest import TAU_11, TAUS, desk_model, disk_point, left_null_model, random_model, scalar_model

HOUSEHOLDER_1D = [[-0.6, 0.8], [0.8, 0.6]]  # reflection with B=4/5, D=3/5


class TestColligation:
    def test_swap_and_identity_accepted(self):
        assert validate_colligation([[0, 1], [1, 0]]).dim == 1
        assert validate_colligation(np.eye(4)).dim == 3

    def test_shear_rejected(self):
        with pytest.raises(NotIsometricError) as err:
            validate_colligation([[1, 1], [0, 1]])
        assert err.value.defect > 0.5

    def test_blocks(self):
        col = validate_colligation([[0.6, 0.8], [0.8, -0.6]])
        assert col.a == pytest.approx(0.6)
        assert col.b == pytest.approx(0.8)
        assert col.c == pytest.approx(0.8)
        assert col.d == pytest.approx(-0.6)

    def test_random_colligations_are_isometric(self, rng):
        for _ in range(10):
            col = random_colligation(int(rng.integers(1, 9)), rng)
            assert col.isometry_defect() <= 1e-13

    def test_dimension_mismatch_rejected(self):
        pen = OperatorPencil(validate_positive_contraction([[0.5]]), TAU_11)
        with pytest.raises(ValueError):
            GeneralizedRealization(pen, validate_colligation(np.eye(3)))

    @pytest.mark.parametrize("size", [0.0, 1e-9, 1e-7])
    def test_rejection_at_isotol(self, size):
        block = random_colligation(3, np.random.default_rng(2)).block + size * np.eye(4)
        defect = opnorm(block.conj().T @ block - np.eye(4))
        if defect > DEFAULT_ISOTOL:
            with pytest.raises(NotIsometricError) as err:
                validate_colligation(block)
            assert err.value.defect == defect
        else:
            assert validate_colligation(block).isometry_defect() == defect

    def test_defect_computed_once_per_colligation(self, monkeypatch, rng):
        y = random_positive_contraction(3, rng)
        calls = []

        def counting(a):
            calls.append(a)
            return opnorm(a)

        monkeypatch.setattr(realization, "opnorm", counting)
        col = validate_colligation(random_colligation(3, rng).block)
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
        assert m.isometry_defect == col.isometry_defect()
        # one SVD for the isometry defect; ||A'|| of an isometric colligation
        # is bounded by it
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_norm_bound_of_an_isometric_colligation(self, dim):
        # ||A'|| <= (1 + ||V*V - 1||)^(1/2), padded, with no SVD of A'
        rng = np.random.default_rng(dim)
        for _ in range(20 if dim <= 8 else 3):
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(OperatorPencil(y, TAU_11), random_colligation(dim, rng))
            assert m.is_isometric
            assert m._a_norm >= opnorm(m._a)
            assert m._a_norm == math.sqrt(1.0 + m.isometry_defect) * (1.0 + realization.NORM_PAD)

    def test_norm_of_a_non_isometric_colligation_from_its_svd(self, rng):
        y = random_positive_contraction(3, rng)
        col = Colligation(0.5 * random_colligation(3, rng).block)
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
        assert not m.is_isometric
        assert m._a_norm == opnorm(m._a) * (1.0 + realization.NORM_PAD)


class TestSwapColligation:
    def test_reproduces_scalar_family(self, rng):
        m = scalar_model(0.5)
        for _ in range(40):
            lam = disk_point(rng)
            assert abs(m.phi(lam) - phi_y_eval(0.5, TAU_11, lam)) <= 1e-13
            assert abs(complex(m.model_vector(lam)[0]) - 1.0) <= 1e-13

    def test_residual_tiny(self, rng):
        m = scalar_model(0.5)
        worst = max(
            m.model_residual(disk_point(rng), disk_point(rng)) for _ in range(200)
        )
        assert worst <= 1e-10

    def test_v_at_tau(self):
        ray = scalar_model(0.5).v_at_tau()
        assert ray.converged and not ray.diverged
        assert complex(ray.value[0]) == pytest.approx(1.0, abs=1e-12)


class TestConstantColligation:
    def test_identity_block_gives_constant_one(self, rng):
        m = scalar_model(0.5, block=np.eye(2))
        for _ in range(20):
            assert m.phi(disk_point(rng)) == pytest.approx(1.0, abs=1e-12)
        ray = m.v_at_tau()
        assert ray.converged
        assert np.linalg.norm(ray.value) <= 1e-12


class TestTransferFormula:
    def test_hand_values(self):
        m = scalar_model(0.5, block=[[0.6, 0.8], [0.8, -0.6]])
        assert m.phi((0, 0)) == pytest.approx(-0.6, abs=1e-14)
        assert complex(m.model_vector((0, 0))[0]) == pytest.approx(0.8, abs=1e-14)
        assert m.phi_at_tau() == pytest.approx(1.0, abs=1e-10)

    def test_ray_limit_of_vector(self):
        m = scalar_model(0.5, block=[[0.6, 0.8], [0.8, -0.6]])
        # v((1-t) tau) = (4/5) / (1 - (3/5)(1-t)) -> 2
        v_half = complex(m.model_vector(TAU_11.ray_point(0.5))[0])
        assert v_half == pytest.approx(0.8 / (1 - 0.3), abs=1e-13)
        ray = m.v_at_tau()
        assert ray.converged
        assert complex(ray.value[0]) == pytest.approx(2.0, abs=1e-10)

    def test_diagonal_identity(self, rng):
        # 1 - |phi|^2 = ||v||^2 - ||I v||^2 pointwise
        y = random_positive_contraction(4, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAUS[1]), random_colligation(4, rng))
        for _ in range(30):
            lam = disk_point(rng)
            v = m.model_vector(lam)
            iy = i_y_eval(m.pencil, lam)
            lhs = 1.0 - abs(m.phi(lam)) ** 2
            rhs = float(np.linalg.norm(v) ** 2 - np.linalg.norm(iy @ v) ** 2)
            assert abs(lhs - rhs) <= 1e-11


class TestModelIdentity:
    @pytest.mark.parametrize("tau", TAUS)
    def test_random_models(self, tau, rng):
        for _ in range(6):
            dim = int(rng.integers(1, 9))
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(OperatorPencil(y, tau), random_colligation(dim, rng))
            worst = max(
                m.model_residual(disk_point(rng), disk_point(rng)) for _ in range(60)
            )
            assert worst <= 1e-9

    def test_negative_control_shear(self, rng):
        pen = OperatorPencil(validate_positive_contraction([[0.5]]), TAU_11)
        m = GeneralizedRealization(pen, Colligation(np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert not m.is_isometric
        worst = max(
            m.model_residual(disk_point(rng), disk_point(rng)) for _ in range(50)
        )
        assert worst > 1e-3


class TestRayLimit:
    def test_matches_direct_resolvent_when_invertible(self, rng):
        for _ in range(8):
            dim = int(rng.integers(1, 7))
            y = random_positive_contraction(dim, rng)
            col = random_colligation(dim, rng)
            m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
            ray = m.v_at_tau()
            assert ray.converged
            direct = np.linalg.solve(np.eye(dim) - col.a, col.b)
            assert np.linalg.norm(ray.value - direct) <= 1e-8

    def test_householder_with_singular_corner(self):
        # the reflection's corner block has 1 in its spectrum for dim >= 2,
        # yet the ray limit exists and equals (1 - D) B / ||B||^2
        direction = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        col = colligation_with_ray_limit(direction, strength=0.8)
        assert col.isometry_defect() <= 1e-12
        y = random_positive_contraction(2, np.random.default_rng(5))
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
        ray = m.v_at_tau()
        assert ray.converged and not ray.diverged
        d = 0.6
        expect = (1.0 - d) * (0.8 * direction) / 0.8**2
        assert np.linalg.norm(ray.value - expect) <= 1e-9

    def test_near_isometric_block_deflates_at_its_defect(self):
        # entries perturbed by 1e-10 move the unimodular eigenvalues of the
        # corner block by about that much; the threshold follows the
        # isometry defect, so E is still found and v_tau stays within a
        # few defects of the unperturbed limit (1 - D) B / ||B||^2
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        block = colligation_with_ray_limit(direction, strength=0.6).block
        block = block + 1e-10 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        col = validate_colligation(block)
        y = random_positive_contraction(4, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
        ray = m.v_at_tau()
        assert ray.converged and ray.threshold >= m.isometry_defect > 1e-11
        expect = (1.0 - 0.8) * (0.6 * direction / np.linalg.norm(direction)) / 0.6**2
        assert np.linalg.norm(ray.value - expect) <= 10.0 * m.isometry_defect
        assert abs(m.phi_at_tau() - 1.0) <= 10.0 * m.isometry_defect

    def test_divergence_flagged_for_defective_block(self):
        # non-isometric: corner block 1 with B = 1 makes v(t) = 1/t blow up
        pen = OperatorPencil(validate_positive_contraction([[0.5]]), TAU_11)
        m = GeneralizedRealization(pen, Colligation(np.array([[1.0, 1.0], [0.0, 1.0]])))
        ray = m.v_at_tau()
        assert ray.diverged and not ray.converged

    def test_divergence_flagged_just_above_the_threshold(self):
        # E = ker(1 - A) = span(e1); a part of B along E above the
        # threshold makes the ray states grow like 1/t
        threshold = left_null_model(0.0).v_at_tau().threshold
        above = left_null_model(2.0 * threshold).v_at_tau()
        assert above.diverged and not above.converged
        assert above.threshold == threshold
        assert above.residual == pytest.approx(2.0 * threshold)
        below = left_null_model(0.5 * threshold).v_at_tau()
        assert below.converged and not below.diverged
        assert np.allclose(below.value, [0.0, 1.0], atol=1e-15)

    def test_jordan_block_claims_no_limit(self):
        # B lies in the range of 1 - A, but E does not reduce A: the
        # deflated solve is not the ray limit (the ray states (1/t, 0)
        # diverge), so it is not reported as converged
        pen = OperatorPencil(validate_positive_contraction(np.diag([0.5, 0.3])), TAU_11)
        block = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert not GeneralizedRealization(pen, Colligation(block)).v_at_tau().converged

    def test_sigma_min_is_taken_on_the_complement_of_e(self, rng):
        # A = diag(1, 0): 1 - A = diag(0, 1), E = span(e1)
        assert left_null_model(0.0).v_at_tau().sigma_min == 1.0
        # Householder corner A = 0.6
        assert scalar_model(0.5, block=[[0.6, 0.8], [0.8, -0.6]]).v_at_tau().sigma_min == pytest.approx(0.4, abs=1e-15)
        # A = 1: E is the whole space and 1 - A has no singular value off it
        assert scalar_model(0.5, block=np.eye(2)).v_at_tau().sigma_min == math.inf
        model, _, _ = generate_model(0, rng, SuiteConfig())
        ray = model.v_at_tau()
        sv = np.linalg.svd(np.eye(model.dim) - model.colligation.a, compute_uv=False)
        assert ray.sigma_min == pytest.approx(sv[sv > ray.threshold].min(), rel=1e-12)

    def test_ray_state_consistent_with_general_path(self, rng):
        y = random_positive_contraction(5, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAUS[1]), random_colligation(5, rng))
        for k in (4, 10, 16):
            t = 2.0**-k
            v_ray, phi_ray = m.ray_state(t)
            lam = TAUS[1].ray_point(t)
            assert abs(complex(phi_ray) - m.phi(lam)) <= 1e-10
            assert np.linalg.norm(v_ray.astype(complex) - m.model_vector(lam)) <= 1e-9


class TestPrescribedRayLimit:
    def test_swap_recovered_at_full_strength(self):
        col = colligation_with_ray_limit(np.array([1.0]), strength=1.0)
        assert np.allclose(col.block, [[0, 1], [1, 0]], atol=1e-15)

    def test_direction_prescribed(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 7))
            direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            col = colligation_with_ray_limit(direction, strength=0.7)
            y = random_positive_contraction(dim, rng)
            m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
            v = m.v_at_tau().value
            target = direction / np.linalg.norm(direction)
            overlap = abs(np.vdot(target, v)) / np.linalg.norm(v)
            assert overlap == pytest.approx(1.0, abs=1e-9)


class TestJsonInterchange:
    def test_round_trip_preserves_values(self, rng, tmp_path):
        y = random_positive_contraction(3, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAUS[2]), random_colligation(3, rng))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dump_model(m)))
        other = load_model(path)
        for _ in range(20):
            lam = disk_point(rng)
            assert abs(m.phi(lam) - other.phi(lam)) <= 1e-14

    def test_dimension_checked(self, rng):
        y = random_positive_contraction(2, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), random_colligation(2, rng))
        doc = dump_model(m)
        doc["dim"] = 3
        with pytest.raises(ValueError):
            load_model(doc)


class TestStackBudget:
    """Stacks sized by pencil.STACK_ENTRIES; every point's arithmetic is the same in any stack."""

    @staticmethod
    def models():
        model, _, _ = generate_model(0, np.random.default_rng(3), SuiteConfig())
        rng = np.random.default_rng(12)
        # one stack entry per point, and the suite's largest dimension
        edge = [random_model(n, TAUS[2], rng) for n in (1, 8)]
        return [desk_model(np.random.default_rng(64)), model, *edge]

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_results_independent_of_budget(self, monkeypatch, which):
        model = self.models()[which]
        n = model.dim
        rng = np.random.default_rng(9)
        pts = sample_bidisk_batch(rng, 48)
        # tau and a point next to it take the SVD branch of the certificate
        t1, t2 = model.tau
        pts = np.concatenate([pts, [[t1, t2], [(1 - 1e-12) * t1, (1 - 1e-12) * t2]]])
        lam, mu = sample_bidisk_pairs(rng, 30)
        results = []
        # one point per stack, the default, and a stack size that divides neither count
        for entries in (n * n, pencil.STACK_ENTRIES, 7 * n * n):
            monkeypatch.setattr(pencil, "STACK_ENTRIES", entries)
            results.append((*model.evaluate(pts), model.model_residual(lam, mu)))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)

    def test_singular_error_names_the_first_point(self, monkeypatch):
        # A = 2 over the projection Y = 1: s = lam1, so 1 - 2 lam1 is singular at lam1 = 1/2
        pen = OperatorPencil(validate_positive_contraction([[1.0]]), TAU_11)
        m = GeneralizedRealization(pen, Colligation(np.array([[2.0, 0.0], [0.0, 1.0]])))
        pts = np.array([[0.1, 0], [0.2, 0], [0.3, 0], [0.5, 0.1j], [0.2, 0.2], [0.5, -0.3j]])
        for entries in (2, pencil.STACK_ENTRIES):
            monkeypatch.setattr(pencil, "STACK_ENTRIES", entries)
            with pytest.raises(SingularResolventError, match=r"lam=\(\(0\.5\+0j\), 0\.1j\)"):
                m.evaluate(pts)

    def test_desk_identity_solve_count(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting(a, b):
            calls.append(len(a))
            return solve(a, b)

        model = desk_model(np.random.default_rng(64))
        lam, mu = sample_bidisk_pairs(np.random.default_rng(5), 400)
        monkeypatch.setattr(np.linalg, "solve", counting)
        model.model_residual(lam, mu)
        per_stack = pencil.STACK_ENTRIES // 64**2
        assert per_stack == 16  # 1 MiB of complex128 per stack
        assert len(calls) == math.ceil(800 / per_stack)
        assert max(calls) == per_stack


class TestOncePerCall:
    """evaluate computes the pencil rows and the certificate once per call, and stacks only the solves."""

    @staticmethod
    def counting(monkeypatch, owner, name):
        calls = []
        wrapped = getattr(owner, name)

        def counted(*args):
            calls.append(len(args[-1]))
            return wrapped(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("dim", [64, 1, 7])
    def test_rows_and_certificate_once_whatever_the_budget(self, monkeypatch, dim):
        # the desk model, and suite-sized models: one LAPACK solve per stack at every dimension
        rng = np.random.default_rng(dim)
        model = desk_model(rng) if dim == 64 else random_model(dim, TAUS[2], rng)
        pts = sample_bidisk_batch(np.random.default_rng(5), 800)
        rows = self.counting(monkeypatch, realization, "_diagonal_rows")
        certify = self.counting(monkeypatch, GeneralizedRealization, "_certify")
        solves = self.counting(monkeypatch, np.linalg, "solve")
        per_stack = pencil.STACK_ENTRIES // dim**2
        stacks = []
        for entries in (dim**2, pencil.STACK_ENTRIES, 7 * dim**2):
            monkeypatch.setattr(pencil, "STACK_ENTRIES", entries)
            for calls in (rows, certify, solves):
                calls.clear()
            model.evaluate(pts)
            assert rows == certify == [800]
            assert sum(solves) == 800
            stacks.append(len(solves))
        # one point per budget still gets two per stack; 16 per stack at the default for dim 64
        assert stacks == [400, math.ceil(800 / per_stack), math.ceil(800 / 7)]

    @pytest.mark.parametrize("kind", ["denominator", "resolvent"])
    def test_singular_point_in_the_last_stack_raises_before_any_solve(self, monkeypatch, kind):
        model = desk_model(np.random.default_rng(64))
        pts = sample_bidisk_batch(np.random.default_rng(5), 800)
        if kind == "denominator":
            # lam2 = tau2 zeroes the scalar denominator at Y's eigenvalue 1
            pts[-1], error = (0.5, 1.0), SingularDenominatorError
        else:
            # tau with a colligation whose A has the eigenvalue 1: the resolvent is 1 - A
            direction = np.random.default_rng(7).standard_normal(64)
            model = GeneralizedRealization(model.pencil, colligation_with_ray_limit(direction))
            pts[-1], error = tuple(model.tau), SingularResolventError
        solves = self.counting(monkeypatch, np.linalg, "solve")
        with pytest.raises(error):
            model.evaluate(pts)
        assert solves == []


class TestThreadedStacks:
    """A call that fills two whole stacks runs them on the process's CPUs, with the same bits on any number."""

    @staticmethod
    def thread_starts(monkeypatch):
        starts = []
        start = threading.Thread.start

        def counted(self):
            starts.append(self)
            return start(self)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return starts

    @staticmethod
    def on_workers(monkeypatch, workers, call):
        monkeypatch.setattr(pencil, "_stack_workers", lambda: workers)
        return call()

    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("dim", [64, 8, 24])
    def test_evaluate_same_bits_on_one_and_more_threads(self, monkeypatch, dim, workers):
        rng = np.random.default_rng(dim)
        model = desk_model(rng) if dim == 64 else random_model(dim, TAUS[1], rng)
        # the desk model's 800 identity points; two whole default stacks at dims 8 and 24, and a lone last point
        count = 800 if dim == 64 else 2 * (pencil.STACK_ENTRIES // dim**2) + 1
        pts = sample_bidisk_batch(np.random.default_rng(5), count)
        starts = self.thread_starts(monkeypatch)
        interval = sys.getswitchinterval()
        for entries in (dim**2, pencil.STACK_ENTRIES, 7 * dim**2):
            monkeypatch.setattr(pencil, "STACK_ENTRIES", entries)
            serial = self.on_workers(monkeypatch, 1, lambda: model.evaluate(pts))
            started = len(starts)
            # more threads than CPUs, handing the interpreter lock over as often as it can
            sys.setswitchinterval(1e-6)
            try:
                split = self.on_workers(monkeypatch, workers, lambda: model.evaluate(pts))
            finally:
                sys.setswitchinterval(interval)
            assert len(starts) > started
            for a, b in zip(serial, split):
                assert np.array_equal(a, b)

    def test_cli_reports_same_bytes_on_one_and_two_threads(self, monkeypatch, tmp_path):
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(dump_model(desk_model(np.random.default_rng(64)))))
        starts = self.thread_starts(monkeypatch)
        for command in ("verify", "classify", "derivative"):
            reports = []
            for workers in (1, 2):
                out = tmp_path / f"{command}-{workers}.json"
                code = self.on_workers(monkeypatch, workers, lambda: cli.main([command, str(path), "--out", str(out)]))
                assert code == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]
        assert starts

    def test_suite_sized_call_stays_on_the_calling_thread(self, monkeypatch):
        # a suite model's one call at n = 8: 1,024 + 255 points, short of two whole stacks
        model = random_model(8, TAUS[2], np.random.default_rng(8))
        starts = self.thread_starts(monkeypatch)
        monkeypatch.setattr(pencil, "_stack_workers", lambda: 2)
        model.evaluate(sample_bidisk_batch(np.random.default_rng(5), 1279))
        assert starts == []
        model.evaluate(sample_bidisk_batch(np.random.default_rng(5), 2048))
        assert len(starts) == 1

    def test_workers_run_in_the_callers_context(self, monkeypatch):
        monkeypatch.setattr(pencil, "_stack_workers", lambda: 3)
        seen = {}

        def work(chunk):
            seen[chunk.start] = (np.geterr()["divide"], threading.current_thread())

        with np.errstate(divide="raise"):
            pencil._run_stacks(work, 12, pencil.STACK_ENTRIES // 2)
        assert sorted(seen) == [0, 2, 4, 6, 8, 10]
        assert {mode for mode, _ in seen.values()} == {"raise"}
        assert len({thread for _, thread in seen.values()}) == 3

    @pytest.mark.parametrize(
        "workers, failing, first",
        [(2, [30, 10], 10), (2, [40], 40), (2, [3], 3), (2, [], None), (3, [45, 20, 5], 5), (3, [45, 20], 20)],
    )
    def test_worker_error_is_the_first_failing_stack_in_input_order(self, monkeypatch, workers, failing, first):
        # the desk identity call, 50 stacks of 16 points: runs of 25 + 25 (or 16 + 17 + 17) stacks
        model = desk_model(np.random.default_rng(64))
        pts = sample_bidisk_batch(np.random.default_rng(5), 800)
        solve = np.linalg.solve
        order = []

        def recording(a, b):
            order.append(a[0].tobytes())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        self.on_workers(monkeypatch, 1, lambda: model.evaluate(pts))
        stack_of = {key: i for i, key in enumerate(order)}
        assert len(stack_of) == 50

        def failing_solve(a, b):
            i = stack_of[a[0].tobytes()]
            if i in failing:
                raise np.linalg.LinAlgError(f"stack {i}")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        threads = threading.active_count()
        if first is None:
            self.on_workers(monkeypatch, workers, lambda: model.evaluate(pts))
        else:
            with pytest.raises(np.linalg.LinAlgError, match=rf"^stack {first}$"):
                self.on_workers(monkeypatch, workers, lambda: model.evaluate(pts))
        assert threading.active_count() == threads
