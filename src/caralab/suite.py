"""Randomized verification harness over generated realizations.

Draws validated models (random unitary colligations over positive
contractions with projection, interior, or mixed spectra), then checks
every library invariant on each: the generalized and derived standard
model identities, pencil cross-oracle agreement, contractivity, the Julia
ray identity, derivative agreement and homogeneity, nontangential bounds,
and consistency of the geometric classification with the linearity defect.
All randomness flows from one seed, so reports are reproducible
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import (
    DEFAULT_APERTURE,
    DEFAULT_DEPTH,
    BoundaryReport,
    classify_model,
    default_directions,
    derivative_table,
    julia_quotient_ray,
    standard_identity_defect,
    standard_model_components,
)
from .errors import CaralabError
from .hermitian import random_positive_contraction
from .pencil import (
    OperatorPencil,
    i_y_eval,
    i_y_spectral_form,
    sample_bidisk_batch,
    sample_bidisk_pairs,
)
from .points import BoundaryPoint, modulus
from .realization import GeneralizedRealization, model_identity_defect, random_colligation

#: exactly representable boundary points cycled through by the generator;
#: ray arithmetic at these points is exact in floating point
SUITE_TAUS = (
    BoundaryPoint(1 + 0j, 1 + 0j),
    BoundaryPoint(1 + 0j, -1 + 0j),
    BoundaryPoint(-1 + 0j, 1j),
    BoundaryPoint(1j, -1j),
)

SPECTRUM_KINDS = ("projection", "interior", "mixed")

#: bounds of the checks; SuiteConfig.residual_tol bounds the model identities
CROSS_ORACLE_TOL = 1e-10
CONTRACTIVITY_TOL = 1e-10
JULIA_TOL = 1e-9
ALPHA_TOL = 1e-6
DERIVATIVE_TOL = 1e-5
HOMOGENEITY_TOL = 1e-6

#: random points and derivative directions per model
IDENTITY_PAIRS = 400
STANDARD_PAIRS = 30
CROSS_ORACLE_SAMPLES = 40
CONTRACTIVITY_SAMPLES = 200
N_DIRECTIONS = 10


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    worst: float
    bound: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "bound": self.bound,
        }


@dataclass
class ModelRecord:
    index: int
    dim: int
    spectrum_kind: str
    tau_label: str
    classification: str
    checks: list[CheckOutcome] = field(default_factory=list)
    #: "<error class>: <message>" of a CaralabError that stopped the model's checks
    error: str | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        doc = {
            "index": self.index,
            "dim": self.dim,
            "spectrum_kind": self.spectrum_kind,
            "tau": self.tau_label,
            "classification": self.classification,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass
class SuiteReport:
    seed: int
    count: int
    records: list[ModelRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per-check (passed, total) counts."""
        out: dict[str, list[int]] = {}
        for record in self.records:
            for check in record.checks:
                slot = out.setdefault(check.name, [0, 0])
                slot[0] += int(check.passed)
                slot[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "totals": {k: {"passed": p, "total": t} for k, (p, t) in self.totals().items()},
            "models": [r.to_json() for r in self.records],
        }


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    count: int = 50
    max_dim: int = 8
    residual_tol: float = 1e-9
    aperture: float = DEFAULT_APERTURE
    grid_depth: int = DEFAULT_DEPTH


def _spectrum(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "projection":
        vals = rng.integers(0, 2, size=dim).astype(float)
    elif kind == "interior":
        vals = rng.uniform(0.05, 0.95, size=dim)
    else:  # mixed: at least one endpoint and one interior eigenvalue
        if dim == 1:
            return rng.uniform(0.05, 0.95, size=1)
        vals = np.concatenate(
            [
                [float(rng.integers(0, 2))],
                rng.uniform(0.05, 0.95, size=dim - 1),
            ]
        )
        rng.shuffle(vals)
    return vals


def generate_model(index: int, rng: np.random.Generator, config: SuiteConfig) -> tuple[GeneralizedRealization, str, str]:
    """One validated random realization; spectrum kind and tau cycle deterministically."""
    dim = int(rng.integers(1, config.max_dim + 1))
    kind = SPECTRUM_KINDS[index % len(SPECTRUM_KINDS)]
    tau = SUITE_TAUS[index % len(SUITE_TAUS)]
    contraction = random_positive_contraction(dim, rng, eigenvalues=_spectrum(kind, dim, rng))
    colligation = random_colligation(dim, rng)
    pencil = OperatorPencil(contraction, tau)
    model = GeneralizedRealization(pencil, colligation)
    tau_label = f"({tau.tau1:g},{tau.tau2:g})"
    return model, kind, tau_label


#: interior points at which a constant realization shows equal values
CONSTANT_PROBES = np.array([(0j, 0j), (0.3 + 0.1j, -0.2j), (-0.5, 0.4 + 0.2j)])


def _is_constant(values: np.ndarray) -> bool:
    """Whether phi's values at CONSTANT_PROBES agree."""
    return np.abs(values - values[0]).max() < 1e-12


def run_model_checks(
    model: GeneralizedRealization,
    rng: np.random.Generator,
    config: SuiteConfig,
    report: BoundaryReport,
) -> list[CheckOutcome]:
    """All invariant checks for one validated model.

    ``report`` is the model's :func:`classify_model` verdict; its carapoint
    scan backs the alpha and carapoint checks, and its grid the standard
    model bound.

    Every point is evaluated once, in two batches besides the finite
    differences: the model-identity pairs, the contractivity sample and the
    constancy probes; then the standard-model pairs and the grid.  The
    draws keep their order: the standard-model pairs come after the
    derivative table, so a model whose table raises leaves the random
    stream where it was.
    """
    checks: list[CheckOutcome] = []

    def record(name: str, worst: float, bound: float):
        checks.append(CheckOutcome(name, bool(worst <= bound), float(worst), float(bound)))

    lam, mu = sample_bidisk_pairs(rng, IDENTITY_PAIRS)
    oracle_pts = sample_bidisk_batch(rng, CROSS_ORACLE_SAMPLES)
    scan_pts = sample_bidisk_batch(rng, CONTRACTIVITY_SAMPLES)
    s, v, phi = model.evaluate(np.concatenate([lam, mu, scan_pts, CONSTANT_PROBES]))
    pairs = 2 * IDENTITY_PAIRS
    scan = slice(pairs, pairs + CONTRACTIVITY_SAMPLES)

    # generalized model identity on random interior pairs
    worst = model_identity_defect(s[:pairs], v[:pairs], phi[:pairs]).max(initial=0.0)
    record("model_identity", worst, config.residual_tol)

    # the kernel's pencil agrees with a direct solve of its denominator
    gap = i_y_spectral_form(model.pencil, oracle_pts) - i_y_eval(model.pencil, oracle_pts)
    record("pencil_cross_oracle", np.linalg.norm(gap, 2, axis=(1, 2)).max(), CROSS_ORACLE_TOL)

    # contractivity of the pencil and of phi; the pencil is normal, so its
    # norm is the largest modulus of its eigenvalues
    record("pencil_contractivity", np.abs(s[scan]).max(initial=0.0), 1.0 + CONTRACTIVITY_TOL)
    record("schur_bound", np.abs(phi[scan]).max(initial=0.0), 1.0 + CONTRACTIVITY_TOL)

    # Julia quotient identity along the ray
    rows = julia_quotient_ray(model)
    record("julia_identity", max(r.residual for r in rows), JULIA_TOL)

    # extrapolated Caratheodory quotient against the ray limit of v
    ray = model.v_at_tau()
    if ray.converged:
        alpha_target = float(np.linalg.norm(ray.value)) ** 2
        record("alpha_vs_vtau", abs(report.alpha - alpha_target), ALPHA_TOL)
        if not _is_constant(phi[scan.stop :]):
            # nonconstant realizations must carry a genuine carapoint
            record("alpha_positive", 0.0 if alpha_target > 1e-10 else 1.0, 0.5)
    record("carapoint_detected", 0.0 if report.carapoint else 1.0, 0.5)

    # derivative routes agree, and both are homogeneous: one table over
    # every direction followed by its rescalings, a row of 3 per direction;
    # Python products, since NumPy's give some zeros the other sign
    scales = np.array([0.5, 2.0])
    base = default_directions(model.tau, N_DIRECTIONS)
    table = derivative_table(model, [[(d1, d2)] + [(s * d1, s * d2) for s in scales.tolist()] for d1, d2 in base])
    analytic, fd = (col.reshape(N_DIRECTIONS, 3) for col in (table.analytic, table.finite_difference))
    record("derivative_agreement", modulus(analytic[:, 0] - fd[:, 0]).max(), DERIVATIVE_TOL)
    worst = [modulus(col[:, 1:] - scales * col[:, :1]).max() for col in (analytic, fd)]
    record("derivative_homogeneity", max(worst), HOMOGENEITY_TOL)

    # derived standard model: identity on random pairs, bound on the grid;
    # norms are those of the eigenbasis components, so nothing is rotated
    lam, mu = sample_bidisk_pairs(rng, STANDARD_PAIRS)
    points = np.concatenate([lam, mu, report.grid.coords.reshape(-1, 2)])
    u1, u2, v, phi = standard_model_components(model, points, model.evaluate(points))
    pairs = 2 * STANDARD_PAIRS
    worst = standard_identity_defect(points[:pairs], u1[:pairs], u2[:pairs], phi[:pairs]).max(initial=0.0)
    record("standard_model_identity", worst, config.residual_tol)
    u1, u2, v = u1[pairs:], u2[pairs:], v[pairs:]
    bound = (config.aperture + 1.0) * np.linalg.norm(v, axis=1)
    excess = np.maximum(np.linalg.norm(u1, axis=1), np.linalg.norm(u2, axis=1)) - bound
    record("standard_model_bound", excess.max(), 1e-12)

    return checks


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Generate `count` models and run every check; deterministic in the seed.

    A CaralabError raised while classifying or checking one model becomes
    that model's one failing check, ``model_error`` (worst 1, bound 0.5,
    the 0/1 convention of ``carapoint_detected``), with the error named on
    its record; the run goes on with the next model.
    """
    if config.count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(config.seed)
    records: list[ModelRecord] = []
    for index in range(config.count):
        model, kind, tau_label = generate_model(index, rng, config)
        classification, error = "unclassified", None
        try:
            report = classify_model(model, aperture=config.aperture, depth=config.grid_depth)
            classification = report.classification
            checks = run_model_checks(model, rng, config, report)
        except CaralabError as exc:
            error = f"{type(exc).__name__}: {exc}"
            checks = [CheckOutcome("model_error", False, 1.0, 0.5)]
        else:
            # geometric classification must match the derivative's linearity
            # defect; the gray zone is surfaced as a failure, never silently passed
            agree = report.cross_check_ok and report.classification != "indeterminate"
            checks.append(
                CheckOutcome("classification_cross_check", agree, report.linearity_defect, report.defect_bound)
            )
        records.append(
            ModelRecord(index, model.dim, kind, tau_label, classification, checks, error)
        )
    return SuiteReport(config.seed, config.count, records)
