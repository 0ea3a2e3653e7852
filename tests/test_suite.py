import collections
import dataclasses
import importlib
import sys

import numpy as np
import pytest

from caralab import (
    GeneralizedRealization,
    hermitian,
    realization,
    SingularResolventError,
    UnconvergedError,
    boundary,
    build_grid,
    points,
    scalar_family,
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
                assert set(model.pencil.contraction.decomposition.weights) <= {0.0, 1.0}

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
        # one per boundary point, built before the first model, at any count
        run_suite(SuiteConfig(seed=7, count=3))
        assert len(calls) == len(SUITE_TAUS)

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
#: evaluating repeated points too took 7 evaluations of 1,705 points, and
#: evaluating each kind of point on its own 4 evaluations of 1,363.
#: Points are converted by as_points alone: 904 calls over the 50 models,
#: where the five converters it replaced made 54 as_pair calls per model
EVALUATIONS_PER_MODEL = 1
EVALUATED_POINTS_MAX = 1279
DERIVATIVE_MODEL_CALLS_MAX = 2
AS_POINTS_CALLS_MAX = 904 / 50
#: share of the cross-oracle's gaps that go to the SVD (all of them before
#: the Frobenius certificate)
CROSS_ORACLE_SVD_SHARE_MAX = 0.25


def count_calls(monkeypatch, counts, fn):
    """Count calls of fn through every caralab module that binds it."""

    def counting(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name in ("", ".points", ".hermitian", ".boundary", ".pencil", ".realization", ".scalar_family", ".suite", ".cli"):
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
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        counts[f"svd in {sys._getframe(1).f_code.co_name}"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    norm = np.linalg.norm

    def counting_norm(x, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "max_opnorm" and args[:1] == (2,):
            counts["cross-oracle SVD matrices"] += len(x)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    opnorm = realization.opnorm

    def counting_opnorm(a):
        counts[f"opnorm in {sys._getframe(1).f_code.co_name}"] += 1
        return opnorm(a)

    monkeypatch.setattr(realization, "opnorm", counting_opnorm)
    count_calls(monkeypatch, counts, hermitian.hermitian_defect)
    report = run_suite(SuiteConfig(seed=7))
    models = len(report.records)
    assert models == 50 and report.passed
    assert counts["evaluate"] == EVALUATIONS_PER_MODEL * models
    assert counts["points"] <= EVALUATED_POINTS_MAX * models
    assert counts["derivative_model"] <= DERIVATIVE_MODEL_CALLS_MAX * models
    assert counts["as_points"] <= AS_POINTS_CALLS_MAX * models
    # the cross-oracle's interior points are all certified nonsingular
    assert counts["svd in i_y_eval"] == 0
    # certificates in place of SVDs that only decide a threshold: Y is
    # Hermitian by construction, ||A'|| of an isometric colligation is
    # bounded by its defect, and of the cross-oracle's 40 gaps per model
    # only those whose Frobenius norm reaches the largest column norm get
    # an SVD (410 of 2,000)
    assert counts["hermitian_defect"] == 0
    assert counts["opnorm in __init__"] == 0
    assert counts["opnorm in _isometry_defect"] == models
    assert 0 < counts["cross-oracle SVD matrices"] <= CROSS_ORACLE_SVD_SHARE_MAX * suite.CROSS_ORACLE_SAMPLES * models


def test_one_grid_build_per_boundary_point(monkeypatch):
    # and one probe, with its scan and the difference steps of its
    # directions: what tau decides is built once per run, before its first model
    counts = collections.Counter()
    names = ((suite, "boundary_probe"), (boundary, "build_grid"), (boundary, "direction_entry_time"))
    for module, name in names:

        def counting(*args, fn=getattr(module, name), name=name):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counting)
    run_suite(SuiteConfig(seed=7))
    assert counts == {name: len(SUITE_TAUS) for _, name in names}
    # no probe outlives its run, and a run of fewer models builds them all
    run_suite(SuiteConfig(seed=7, count=2))
    assert counts == {name: 2 * len(SUITE_TAUS) for _, name in names}


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_batched_checks_equal_the_public_routes(monkeypatch):
    """The suite's batched arrays, cores and worst values are those of the public functions on the same draws."""
    seen, arguments = collections.defaultdict(list), collections.defaultdict(list)
    cores = (
        "model_identity_defect", "standard_identity_defect", "standard_model_components",
        "boundary_report", "probe_derivatives",
    )
    for name in cores:

        def recording(*args, fn=getattr(suite, name), name=name):
            arguments[name].append(args)
            seen[name].append(fn(*args))
            return seen[name][-1]

        monkeypatch.setattr(suite, name, recording)
    config = SuiteConfig(seed=7, count=6)
    report = run_suite(config)
    rng = np.random.default_rng(config.seed)
    pairs = 2 * suite.STANDARD_PAIRS
    for record in report.records:
        # run_model_checks draws these, in this order, and nothing else
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
        std = np.concatenate([std_lam, std_mu])
        u1, u2, _, phi = boundary.standard_model_components(model, std, model.evaluate(std))
        residual = scalar_family.standard_identity_defect(std, u1, u2, phi)
        assert same_bits(seen["standard_identity_defect"][record.index], residual)
        assert worst["standard_model_identity"] == residual.max()
        coords = grid.coords.reshape(-1, 2)
        u1, u2, v, _ = boundary.standard_model_components(model, coords, model.evaluate(coords))
        batched = seen["standard_model_components"][record.index][:3]
        assert all(same_bits(x[pairs:], y) for x, y in zip(batched, (u1, u2, v)))
        bound = (config.aperture + 1.0) * np.linalg.norm(v, axis=1)
        excess = np.maximum(np.linalg.norm(u1, axis=1), np.linalg.norm(u2, axis=1)) - bound
        # the margin below the bound, not a floor of 0.0
        assert worst["standard_model_bound"] == excess.max() < 0.0

        # the model's probe: the blocks of tau, shared by the models at one
        # tau and those of a fresh build, then the model's draws, in order
        probe = arguments["probe_derivatives"][record.index][1]
        directions = np.array(boundary.default_directions(model.tau, suite.N_DIRECTIONS))
        fresh = boundary.boundary_probe(model.tau, config.aperture, config.grid_depth, directions)
        assert list(probe.blocks) == ["grid", "tail", "steps", "identity", "contractivity", "probes", "standard"]
        assert [probe.blocks[name] for name in fresh.blocks] == list(fresh.blocks.values())
        assert same_bits(probe.points[: len(fresh.points)], fresh.points)
        assert all(same_bits(getattr(probe.plan, f), getattr(fresh.plan, f)) for f in ("deltas", "schedules", "index"))
        draws = {"identity": np.concatenate([lam, mu]), "contractivity": scan, "probes": suite.CONSTANT_PROBES}
        draws["standard"] = std
        assert all(same_bits(probe.points[probe.blocks[name]], pts) for name, pts in draws.items())
        # the readers on the probe's one evaluation are the public routes
        assert arguments["boundary_report"][record.index][1] == boundary.detect_carapoint(model.phi, grid)
        table = seen["probe_derivatives"][record.index]
        fd = boundary.derivative_fd(model.phi, model.tau, directions, phi_tau=model.phi_at_tau())
        assert same_bits(table.finite_difference, fd)
        assert same_bits(table.analytic, boundary.derivative_model(model, directions))
        verdict = boundary.classify_model(model, aperture=config.aperture, depth=config.grid_depth)
        assert seen["boundary_report"][record.index] == verdict
        assert record.classification == verdict.classification


def failing_on_model(monkeypatch, index):
    """Make the checks of the model of this index raise UnconvergedError after its classification."""
    calls = []
    julia_quotient_ray = suite.julia_quotient_ray

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == index + 1:
            raise UnconvergedError("ray solve left 1 of 17 systems unsettled")
        return julia_quotient_ray(*args, **kwargs)

    monkeypatch.setattr(suite, "julia_quotient_ray", failing)


def assert_stream_restored(models, config, failing_index):
    """The failing model drew its first three batches but not its standard pairs,
    and each later model, replayed from that stream, is checked as in a clean run."""
    rng = np.random.default_rng(config.seed)
    for index in range(config.count):
        model, _, _ = generate_model(index, rng, config)
        if index > failing_index:
            directions = np.array(boundary.default_directions(model.tau, suite.N_DIRECTIONS))
            probe = boundary.boundary_probe(model.tau, config.aperture, config.grid_depth, directions)
            report, checks, error = suite.run_model_checks(model, rng, config, probe)
            assert models[index]["dim"] == model.dim and error is None
            assert models[index]["classification"] == report.classification
            assert models[index]["checks"] == [c.to_json() for c in checks]
            assert len(checks) == len(CHECK_NAMES)
            continue
        sample_bidisk_pairs(rng, suite.IDENTITY_PAIRS)
        sample_bidisk_batch(rng, suite.CROSS_ORACLE_SAMPLES)
        sample_bidisk_batch(rng, suite.CONTRACTIVITY_SAMPLES)
        if index < failing_index:
            sample_bidisk_pairs(rng, suite.STANDARD_PAIRS)


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
        # the classification made before the error keeps its cross-check
        assert bad["checks"] == [
            {"name": "model_error", "passed": False, "worst": 1.0, "bound": 0.5},
            clean["models"][3]["checks"][-1],
        ]
        assert bad["checks"][-1]["name"] == "classification_cross_check"
        assert bad["classification"] == clean["models"][3]["classification"]
        assert not report.passed
        assert doc["totals"]["model_error"] == {"passed": 0, "total": 1}
        # the run goes on: every later model carries its full list of checks
        assert all("error" not in m and len(m["checks"]) == len(CHECK_NAMES) for m in doc["models"][4:])
        assert_stream_restored(doc["models"], SuiteConfig(seed=7), failing_index=3)

    def test_suite_command_exits_5(self, monkeypatch, capsys, tmp_path):
        failing_on_model(monkeypatch, 1)
        out = tmp_path / "suite.json"
        assert main(["suite", "--seed", "7", "--count", "2", "--out", str(out)]) == EXIT_RESIDUAL == 5
        assert "model_error: 0/1" in capsys.readouterr().err
        assert "UnconvergedError" in out.read_text()

    def test_an_evaluation_error_leaves_the_model_unclassified(self, monkeypatch):
        config = SuiteConfig(seed=7, count=8)
        clean = run_suite(config).to_json()["models"]
        evaluate = GeneralizedRealization.evaluate
        calls = []

        def failing(self, pts):
            calls.append(len(pts))
            if len(calls) == 4:
                raise SingularResolventError("resolvent singular at lam=(0j, 0j)")
            return evaluate(self, pts)

        monkeypatch.setattr(GeneralizedRealization, "evaluate", failing)
        doc = run_suite(config).to_json()["models"]
        assert doc[:3] == clean[:3]
        bad = doc[3]
        assert bad["classification"] == "unclassified"
        assert bad["checks"] == [{"name": "model_error", "passed": False, "worst": 1.0, "bound": 0.5}]
        assert bad["error"] == "SingularResolventError: resolvent singular at lam=(0j, 0j)"
        assert_stream_restored(doc, config, failing_index=3)


def test_config_holds_only_what_callers_set():
    names = [f.name for f in dataclasses.fields(SuiteConfig)]
    assert names == ["seed", "count", "residual_tol", "aperture", "grid_depth"]


#: every model runs these checks, in this order
CHECK_NAMES = (
    "model_identity", "pencil_cross_oracle", "pencil_contractivity", "schur_bound",
    "julia_identity", "alpha_vs_vtau", "alpha_positive", "carapoint_detected",
    "derivative_agreement", "standard_model_identity", "standard_model_bound",
    "classification_cross_check",
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
