import collections
import dataclasses
import importlib

import numpy as np
import pytest

from caralab import (
    GeneralizedRealization,
    UnconvergedError,
    boundary,
    build_grid,
    points,
    standard_model_residual,
    standard_model_rotated,
    suite,
)
from caralab.cli import EXIT_RESIDUAL, main
from caralab.pencil import sample_bidisk_batch, sample_bidisk_pairs
from caralab.suite import SUITE_TAUS, SuiteConfig, generate_model, run_suite


class TestGeneration:
    def test_spectrum_kinds_cycle(self):
        rng = np.random.default_rng(0)
        config = SuiteConfig(count=6)
        kinds = [generate_model(i, rng, config)[1] for i in range(6)]
        assert kinds == ["projection", "interior", "mixed"] * 2

    def test_models_are_validated(self):
        rng = np.random.default_rng(3)
        config = SuiteConfig()
        for i in range(6):
            model, kind, _ = generate_model(i, rng, config)
            assert model.is_isometric
            assert all(0.0 <= w <= 1.0 for w in model.pencil.contraction.eigenvalues)
            if kind == "projection":
                assert model.pencil.contraction.is_projection()

    def test_taus_are_exact_lattice_points(self):
        for tau in SUITE_TAUS:
            for z in tau:
                assert z in (1 + 0j, -1 + 0j, 1j, -1j)


class TestRun:
    def test_small_suite_passes(self):
        report = run_suite(SuiteConfig(seed=11, count=6))
        assert report.passed
        totals = report.totals()
        assert totals["model_identity"] == (6, 6)
        assert totals["classification_cross_check"] == (6, 6)
        # all three spectrum kinds appear and classify as expected
        kinds = {r.spectrum_kind: r.classification for r in report.records}
        assert kinds["projection"] == "regular"
        assert kinds["interior"] == "purely_singular"

    def test_deterministic_json(self):
        a = run_suite(SuiteConfig(seed=5, count=3)).to_json()
        b = run_suite(SuiteConfig(seed=5, count=3)).to_json()
        assert a == b

    def test_seed_changes_draws(self):
        a = run_suite(SuiteConfig(seed=5, count=3)).to_json()
        b = run_suite(SuiteConfig(seed=6, count=3)).to_json()
        assert a != b

    def test_count_validated(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(count=0))

    def test_one_grid_per_model(self, monkeypatch):
        calls = []
        build_grid = boundary.build_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return build_grid(*args, **kwargs)

        monkeypatch.setattr(boundary, "build_grid", counting)
        run_suite(SuiteConfig(seed=7, count=3))
        assert len(calls) == 3

    def test_one_direct_pencil_solve_per_model(self, monkeypatch):
        calls = []
        i_y_eval = suite.i_y_eval

        def counting(*args, **kwargs):
            calls.append(args)
            return i_y_eval(*args, **kwargs)

        monkeypatch.setattr(suite, "i_y_eval", counting)
        run_suite(SuiteConfig(seed=7, count=3))
        assert len(calls) == 3


#: per-model call ceilings of run_suite(seed=7); the point-by-point code made
#: 8 evaluations, 39 analytic derivatives and about 754 as_pair coercions,
#: and evaluating repeated points too took 7 evaluations of 1,705 points.
#: Points are converted by as_points alone: 904 calls over the 50 models,
#: where the five converters it replaced made 54 as_pair calls per model
EVALUATIONS_PER_MODEL = 4
EVALUATED_POINTS_MAX = 1363
DERIVATIVE_MODEL_CALLS_MAX = 2
AS_POINTS_CALLS_MAX = 904 / 50


def count_calls(monkeypatch, counts, fn):
    """Count calls of fn through every caralab module that binds it."""

    def counting(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name in ("", ".points", ".boundary", ".pencil", ".realization", ".scalar_family", ".suite", ".cli"):
        module = importlib.import_module(f"caralab{name}")
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)


def test_calls_per_model_do_not_grow_with_directions_or_points(monkeypatch):
    counts = collections.Counter()
    count_calls(monkeypatch, counts, points.as_points)
    count_calls(monkeypatch, counts, boundary.derivative_model)
    evaluate = GeneralizedRealization.evaluate

    def counting_evaluate(self, pts):
        counts["evaluate"] += 1
        counts["points"] += len(pts)
        return evaluate(self, pts)

    monkeypatch.setattr(GeneralizedRealization, "evaluate", counting_evaluate)
    report = run_suite(SuiteConfig(seed=7))
    models = len(report.records)
    assert models == 50 and report.passed
    assert counts["evaluate"] == EVALUATIONS_PER_MODEL * models
    assert counts["points"] <= EVALUATED_POINTS_MAX * models
    assert counts["derivative_model"] <= DERIVATIVE_MODEL_CALLS_MAX * models
    assert counts["as_points"] <= AS_POINTS_CALLS_MAX * models


def test_one_grid_build_per_boundary_point(monkeypatch):
    monkeypatch.setattr(boundary, "_GRIDS", {})
    builds = []
    build = boundary._build_grid
    monkeypatch.setattr(boundary, "_build_grid", lambda *args: builds.append(args) or build(*args))
    run_suite(SuiteConfig(seed=7, count=12))
    assert len(builds) == len(SUITE_TAUS)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_batched_checks_equal_the_public_routes(monkeypatch):
    """The suite's batched arrays and worst values are those of the public functions on the same draws."""
    seen = collections.defaultdict(list)
    for name in ("model_identity_defect", "standard_identity_defect", "standard_model_components"):

        def recording(*args, fn=getattr(suite, name), name=name):
            seen[name].append(fn(*args))
            return seen[name][-1]

        monkeypatch.setattr(suite, name, recording)
    config = SuiteConfig(seed=7, count=6)
    report = run_suite(config)
    rng = np.random.default_rng(config.seed)
    pairs = 2 * suite.STANDARD_PAIRS
    for record in report.records:
        # run_model_checks draws these, in this order, and classify_model draws nothing
        model, _, _ = generate_model(record.index, rng, config)
        lam, mu = sample_bidisk_pairs(rng, suite.IDENTITY_PAIRS)
        sample_bidisk_batch(rng, suite.CROSS_ORACLE_SAMPLES)
        scan = sample_bidisk_batch(rng, suite.CONTRACTIVITY_SAMPLES)
        std_lam, std_mu = sample_bidisk_pairs(rng, suite.STANDARD_PAIRS)
        grid = build_grid(model.tau, config.aperture, config.grid_depth)
        worst = {c.name: c.worst for c in record.checks}

        residual = model.model_residual(lam, mu)
        assert same_bits(seen["model_identity_defect"][record.index], residual)
        assert worst["model_identity"] == residual.max()
        assert worst["schur_bound"] == np.abs(model.phi(scan)).max()
        residual = standard_model_residual(model, std_lam, std_mu)
        assert same_bits(seen["standard_identity_defect"][record.index], residual)
        assert worst["standard_model_identity"] == residual.max()
        u1, u2, v, _ = standard_model_rotated(model, grid.coords.reshape(-1, 2))
        batched = seen["standard_model_components"][record.index][:3]
        assert all(same_bits(x[pairs:], y) for x, y in zip(batched, (u1, u2, v)))
        bound = (config.aperture + 1.0) * np.linalg.norm(v, axis=1)
        excess = np.maximum(np.linalg.norm(u1, axis=1), np.linalg.norm(u2, axis=1)) - bound
        # the margin below the bound, not a floor of 0.0
        assert worst["standard_model_bound"] == excess.max() < 0.0


def failing_on_model(monkeypatch, index):
    """Make run_model_checks raise UnconvergedError on the model of this index."""
    calls = []
    run_model_checks = suite.run_model_checks

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == index + 1:
            raise UnconvergedError("ray solve left 1 of 17 systems unsettled")
        return run_model_checks(*args, **kwargs)

    monkeypatch.setattr(suite, "run_model_checks", failing)


class TestModelError:
    def test_one_model_error_does_not_abort_the_run(self, monkeypatch):
        clean = run_suite(SuiteConfig(seed=7)).to_json()
        failing_on_model(monkeypatch, 3)
        report = run_suite(SuiteConfig(seed=7))
        doc = report.to_json()
        assert len(report.records) == 50
        assert doc["models"][:3] == clean["models"][:3]
        bad = doc["models"][3]
        assert bad["error"] == "UnconvergedError: ray solve left 1 of 17 systems unsettled"
        assert bad["checks"] == [{"name": "model_error", "passed": False, "worst": 1.0, "bound": 0.5}]
        assert bad["classification"] == clean["models"][3]["classification"]
        assert not report.passed
        assert doc["totals"]["model_error"] == {"passed": 0, "total": 1}
        # the run goes on: every later model carries its full list of checks
        assert all("error" not in m and len(m["checks"]) == len(CHECK_NAMES) for m in doc["models"][4:])

    def test_suite_command_exits_5(self, monkeypatch, capsys, tmp_path):
        failing_on_model(monkeypatch, 1)
        out = tmp_path / "suite.json"
        assert main(["suite", "--seed", "7", "--count", "2", "--out", str(out)]) == EXIT_RESIDUAL == 5
        assert "model_error: 0/1" in capsys.readouterr().err
        assert "UnconvergedError" in out.read_text()


def test_config_holds_only_what_callers_set():
    names = [f.name for f in dataclasses.fields(SuiteConfig)]
    assert names == ["seed", "count", "max_dim", "residual_tol", "aperture", "grid_depth"]


#: every model runs these checks, in this order
CHECK_NAMES = (
    "model_identity", "pencil_cross_oracle", "pencil_contractivity", "schur_bound",
    "julia_identity", "alpha_vs_vtau", "alpha_positive", "carapoint_detected",
    "derivative_agreement", "derivative_homogeneity", "standard_model_identity",
    "standard_model_bound", "classification_cross_check",
)

#: per seed: each model's classification (Regular, Singular, Purely singular)
#: and the checks that fail, as recorded before the batched kernel.  Seed 14
#: model 11 (linearity defect 7.1e-4 under the 1e-3 cutoff) and seed 40
#: model 3 (derivative gap 1.5e-5 at alpha = 98 against an absolute 1e-5)
#: fail on valid models; the kernel must not change either verdict.
RECORDED_VERDICTS = {
    7: ("RPSRPPRPSRPSRPPRPPRPSRPSRPSRPSRPSRPSRPSRPPRPSRPSRP", {}),
    14: ("RPSRPSRPSRPPRPSRPSRPSRPPRPSRPSRPSRPSRPSRPPRPPRPSRP", {11: {"classification_cross_check"}}),
    40: ("RPSRPSRPPRPSRPSRPSRPSRPSRPSRPSRPSRPPRPSRPSRPSRPSRP", {3: {"derivative_agreement"}}),
}


@pytest.mark.parametrize("seed", sorted(RECORDED_VERDICTS))
def test_verdicts_match_recorded(seed):
    labels = {"regular": "R", "singular": "S", "purely_singular": "P", "indeterminate": "I"}
    classes, failing = RECORDED_VERDICTS[seed]
    report = run_suite(SuiteConfig(seed=seed, count=50))
    assert "".join(labels[r.classification] for r in report.records) == classes
    for record in report.records:
        assert tuple(c.name for c in record.checks) == CHECK_NAMES
        assert {c.name for c in record.checks if not c.passed} == failing.get(record.index, set())
