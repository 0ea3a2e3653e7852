"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or on failure).  The
randomized 50-model harness runs once per session and backs the criteria
that quantify over "all validated models".
"""

import cmath
import math
import time

import numpy as np
import pytest

from caralab import (
    GeneralizedRealization,
    OperatorPencil,
    build_grid,
    classify_model,
    colligation_with_ray_limit,
    contractivity_scan,
    derivative_fd,
    derivative_model,
    i_y_eval,
    i_y_spectral_form,
    opnorm,
    phi_y_directional_derivative,
    phi_y_eval,
    phi_y_model_residual,
    random_colligation,
    random_positive_contraction,
    satisfies_aperture,
    validate_colligation,
    validate_positive_contraction,
)
from caralab.boundary import DEFECT_REGULAR_TOL
from caralab.points import BoundaryPoint
from caralab.realization import Colligation
from caralab.scalar_family import phi_y_model_components
from caralab.suite import SuiteConfig, run_suite
from conftest import TAU_11, disk_point

ACCEPTANCE_TAUS = (
    TAU_11,
    BoundaryPoint(1 + 0j, -1 + 0j),
    BoundaryPoint(cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 5)),
)
YS = tuple(k / 10.0 for k in range(1, 10))

_SUITE_CACHE = {}


@pytest.fixture(scope="module")
def suite_run():
    if "report" not in _SUITE_CACHE:
        t0 = time.perf_counter()
        _SUITE_CACHE["report"] = run_suite(SuiteConfig(seed=7, count=50))
        _SUITE_CACHE["elapsed"] = time.perf_counter() - t0
    return _SUITE_CACHE["report"], _SUITE_CACHE["elapsed"]


def report_line(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


def suite_worst(report, check_name):
    worst = -math.inf
    ok = True
    for record in report.records:
        for check in record.checks:
            if check.name == check_name:
                worst = max(worst, check.worst)
                ok = ok and check.passed
    return ok, worst


def test_criterion_1_scalar_model_identity(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for y in YS:
        for tau in ACCEPTANCE_TAUS:
            for _ in range(1000):
                worst = max(
                    worst,
                    phi_y_model_residual(y, tau, disk_point(rng), disk_point(rng)),
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 5.0
    report_line(
        "1 scalar model identity", ok, f"worst={worst:.3e}, runtime={elapsed:.2f}s"
    )


def test_criterion_2_ray_identity():
    worst = 0.0
    rs = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    for y in YS:
        for tau in ACCEPTANCE_TAUS:
            for r in rs:
                lam = tau.ray_point(1.0 - r)
                worst = max(worst, abs(phi_y_eval(y, tau, lam) - r))
    report_line("2 ray identity", worst <= 1e-12, f"worst={worst:.3e}")


def test_criterion_3_pencil_cross_oracle(rng):
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        y = random_positive_contraction(dim, rng)
        tau = ACCEPTANCE_TAUS[int(rng.integers(0, 3))]
        pen = OperatorPencil(y, tau)
        lam = disk_point(rng)
        worst = max(worst, opnorm(i_y_eval(pen, lam) - i_y_spectral_form(pen, lam)))
    pen = OperatorPencil(random_positive_contraction(6, rng), TAU_11)
    max_norm = contractivity_scan(pen, 10_000, seed=42)
    ok = worst <= 1e-10 and max_norm <= 1.0 + 1e-10
    report_line(
        "3 pencil cross-oracle + contractivity",
        ok,
        f"worst_gap={worst:.3e}, max_norm={max_norm:.12f} over 10^4 points",
    )


def test_criterion_4_realization_identity(suite_run, rng):
    report, _ = suite_run
    ok, worst = suite_worst(report, "model_identity")
    assert report.count == 50
    # negative control: a shear block must visibly break the identity
    pen = OperatorPencil(validate_positive_contraction([[0.5]]), TAU_11)
    shear = GeneralizedRealization(pen, Colligation(np.array([[1.0, 1.0], [0.0, 1.0]])))
    control = max(
        shear.model_residual(disk_point(rng), disk_point(rng)) for _ in range(100)
    )
    ok = ok and control > 1e-3
    report_line(
        "4 realization identity (50 models x 400 pairs)",
        ok,
        f"worst={worst:.3e} <= 1e-9, shear control={control:.3e} > 1e-3",
    )


def test_criterion_5_derivative_agreement(suite_run):
    report, _ = suite_run
    ok, worst = suite_worst(report, "derivative_agreement")

    # hand oracles: family midpoint, and the reflection block with v_tau = 2
    oracle_worst = 0.0
    for delta, expect in [((-1, -1), -1.0), ((-2, -1), -4.0 / 3.0)]:
        analytic = phi_y_directional_derivative(0.5, TAU_11, delta)
        fd = derivative_fd(
            lambda lam: phi_y_eval(0.5, TAU_11, lam), TAU_11, delta, phi_tau=1.0 + 0j
        )
        oracle_worst = max(oracle_worst, abs(analytic - expect), abs(fd - expect))
    pen = OperatorPencil(validate_positive_contraction([[0.5]]), TAU_11)
    hh = GeneralizedRealization(pen, validate_colligation([[0.6, 0.8], [0.8, -0.6]]))
    oracle_worst = max(oracle_worst, abs(derivative_model(hh, (-1, -1)) - (-4.0)))
    oracle_worst = max(oracle_worst, abs(derivative_fd(hh.phi, TAU_11, (-1, -1)) - (-4.0)))

    ok = ok and worst <= 1e-5 and oracle_worst <= 1e-6
    report_line(
        "5 derivative agreement",
        ok,
        f"worst gap={worst:.3e} <= 1e-5, hand oracles off by {oracle_worst:.3e} <= 1e-6",
    )


def test_criterion_6_julia_quotient(suite_run):
    report, _ = suite_run
    ok_j, worst_j = suite_worst(report, "julia_identity")
    ok_a, worst_a = suite_worst(report, "alpha_vs_vtau")
    ok = ok_j and ok_a
    report_line(
        "6 Julia quotient identity",
        ok,
        f"worst ray residual={worst_j:.3e} <= 1e-9, worst |alpha - ||v||^2|={worst_a:.3e} <= 1e-6",
    )


def test_criterion_7_classification(suite_run):
    report, _ = suite_run
    disagreements = 0
    indeterminate = 0
    for record in report.records:
        if record.classification == "indeterminate":
            indeterminate += 1
            continue
        for check in record.checks:
            if check.name == "classification_cross_check" and not check.passed:
                disagreements += 1

    # constructed edge cases
    edge_results = []
    swap = GeneralizedRealization(
        OperatorPencil(validate_positive_contraction([[0.5]]), TAU_11),
        validate_colligation([[0, 1], [1, 0]]),
    )
    edge_results.append((classify_model(swap), "purely_singular"))
    proj = GeneralizedRealization(
        OperatorPencil(validate_positive_contraction(np.diag([1.0, 0.0])), TAU_11),
        random_colligation(2, np.random.default_rng(7)),
    )
    edge_results.append((classify_model(proj), "regular"))
    y_mixed = validate_positive_contraction(np.diag([1.0, 0.5]))
    for target, expect in [((1.0, 0.0), "regular"), ((1.0, 1.0), "singular")]:
        m = GeneralizedRealization(
            OperatorPencil(y_mixed, TAU_11),
            colligation_with_ray_limit(np.array(target, dtype=complex)),
        )
        edge_results.append((classify_model(m), expect))

    edge_ok = True
    for rep, expect in edge_results:
        regular = rep.classification == "regular"
        defect_regular = rep.linearity_defect <= DEFECT_REGULAR_TOL
        edge_ok = edge_ok and rep.classification == expect and regular == defect_regular

    ok = disagreements == 0 and indeterminate == 0 and edge_ok
    report_line(
        "7 classification <=> differentiability",
        ok,
        f"disagreements={disagreements}, indeterminate={indeterminate}, "
        f"edge cases {'ok' if edge_ok else 'BAD'}",
    )


def test_criterion_8_standard_model(suite_run):
    report, _ = suite_run
    ok_r, worst_r = suite_worst(report, "standard_model_identity")
    ok_b, excess = suite_worst(report, "standard_model_bound")
    grid = build_grid(TAU_11, 2.0, 12)
    assert grid.depth == 12 and grid.aperture == 2.0
    ok = ok_r and ok_b
    report_line(
        "8 derived standard model",
        ok,
        f"worst residual={worst_r:.3e} <= 1e-9, worst bound excess={excess:.3e} on c=2 depth-12 grid",
    )


def _cone_points(tau, aperture, count, rng):
    """Random points of the aperture cone; for c = 1 the cone is the ray."""
    pts = []
    kappa = 0.0 if aperture <= 1.0 else np.sqrt(aperture**2 - 1.0)
    while len(pts) < count:
        t = 10.0 ** rng.uniform(-5.0, -0.6)
        if aperture <= 1.0:
            u1 = u2 = 1.0
            th1 = th2 = 0.0
        else:
            u1, u2 = rng.uniform(1.0 / aperture, 1.0, size=2)
            th1, th2 = rng.uniform(-0.5 * kappa * t, 0.5 * kappa * t, size=2)
        lam = (
            (1.0 - u1 * t) * cmath.exp(1j * th1) * tau.tau1,
            (1.0 - u2 * t) * cmath.exp(1j * th2) * tau.tau2,
        )
        if max(map(abs, lam)) < 1.0 and satisfies_aperture(tau, lam, aperture, slack=1e-12):
            pts.append(lam)
    return pts


def test_criterion_9_scalar_nontangential_bound(rng):
    worst_excess = -np.inf
    for aperture in (1.0, 2.0, 5.0):
        for tau in ACCEPTANCE_TAUS:
            pts = _cone_points(tau, aperture, 1000, rng)
            for y in (0.1, 0.3, 0.5, 0.7, 0.9):
                bound = 2.0 * aperture * math.sqrt(y * (1.0 - y)) + 1.0
                u1, u2 = phi_y_model_components([y], tau, np.array(pts))
                norm = np.hypot(np.abs(u1), np.abs(u2)).max()
                worst_excess = max(worst_excess, norm - bound)
    ok = worst_excess <= 1e-12
    report_line(
        "9 scalar nontangential bound",
        ok,
        f"worst (norm - bound)={worst_excess:.3e} over c in {{1,2,5}} x 1000 points",
    )


def test_criterion_10_suite_runtime_and_determinism(suite_run):
    report, elapsed = suite_run
    rerun = run_suite(SuiteConfig(seed=7, count=50))
    identical = report.to_json() == rerun.to_json()
    ok = report.passed and elapsed <= 60.0 and identical
    report_line(
        "10 whole suite",
        ok,
        f"50/50 models {'pass' if report.passed else 'FAIL'}, "
        f"runtime={elapsed:.1f}s <= 60s, deterministic={identical}",
    )
