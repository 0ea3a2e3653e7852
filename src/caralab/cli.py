"""Command-line front end.

Subcommands: family | verify | classify | derivative | suite.  Reports are
JSON on stdout (or --out); family, verify and derivative write their tables
to CSV files under a --csv base path.
Output is deterministic for a given seed and configuration; the
CARALAB_SEED environment variable overrides the configured seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .boundary import (
    DEFAULT_APERTURE,
    DEFAULT_CLASS_TOL,
    DEFAULT_DEPTH,
    DerivativeTable,
    boundary_probe,
    classify_model,
    classify_ray,
    default_direction_pairs,
    default_directions,
    derivative_table,
    julia_quotient_ray,
    linearity_defect,
    probe_fd_limits,
    probe_scan,
)
from .errors import (
    BadApertureError,
    CaralabError,
    InadmissibleDirectionError,
    NotIsometricError,
    SpectrumOutOfRangeError,
    UnconvergedError,
)
from .hermitian import DEFAULT_EIGTOL
from .pencil import CONTRACTIVITY_TOL, contractivity_scan, sample_bidisk_pairs
from .points import BoundaryPoint
from .realization import DEFAULT_ISOTOL, RAY_EXPONENTS, load_model
from .scalar_family import (
    phi_y_directional_derivative,
    phi_y_eval,
    phi_y_model_residual,
)
from .suite import SuiteConfig, run_suite

EXIT_BAD_PARAMS = 2
EXIT_NOT_ISOMETRIC = 3
EXIT_SPECTRUM = 4
EXIT_RESIDUAL = 5
EXIT_UNCONVERGED = 6

#: exit code of an error, from the first entry whose classes it is an instance of
ERROR_EXITS = (
    (NotIsometricError, EXIT_NOT_ISOMETRIC),
    (SpectrumOutOfRangeError, EXIT_SPECTRUM),
    (UnconvergedError, EXIT_UNCONVERGED),
    # a caller-supplied aperture or direction, or unreadable or malformed input, JSON included
    ((BadApertureError, InadmissibleDirectionError, ValueError, KeyError, OSError), EXIT_BAD_PARAMS),
    (CaralabError, EXIT_RESIDUAL),
)

#: columns of every BASE.derivative.csv table
DERIVATIVE_HEADER = ["re_d1", "im_d1", "re_d2", "im_d2", "re_D", "im_D", "method"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


#: the two forms of a complex pair on the command line; argparse reads a value
#: that starts with '-' as an option, so a negative one is attached with '='
_PAIR = "'re1,re2' or 're1,im1,re2,im2'"


def _parse_pair(text: str, what: str) -> tuple[complex, complex]:
    """A complex pair written as 're1,re2' or 're1,im1,re2,im2'."""
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 2:
        return complex(parts[0], 0.0), complex(parts[1], 0.0)
    if len(parts) == 4:
        return complex(parts[0], parts[1]), complex(parts[2], parts[3])
    raise ValueError(f"{what} expects {_PAIR}")


def _parse_tau(args) -> BoundaryPoint:
    if args.tau_angles is not None:
        parts = [float(p) for p in args.tau_angles.split(",")]
        if len(parts) != 2:
            raise ValueError("--tau-angles expects two angles in turns")
        return BoundaryPoint.from_angles(*parts)
    return BoundaryPoint(*_parse_pair(args.tau, "--tau"))


def _resolve_seed(args) -> int:
    env = os.environ.get("CARALAB_SEED")
    if env is not None:
        return int(env)
    return int(args.seed)


def _parse_ray_exponents(args) -> tuple[int, int]:
    lo, hi = (int(p) for p in args.ray_exponents.split(","))
    if not 0 < lo < hi:
        raise ValueError("--ray-exponents expects 0 < LO < HI")
    return lo, hi


def _emit_report(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: Path, header: list[str], rows: list[list[float | str]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else _fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _emit_tables(args, tables: dict[str, tuple[list[str], list[list]]]) -> None:
    if not args.csv:
        return
    base = Path(args.csv)
    for name, (header, rows) in tables.items():
        _write_csv(base.with_name(base.name + f".{name}.csv"), header, rows)


def _complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def _derivative_entries(table: DerivativeTable) -> tuple[list[dict], list[list]]:
    """A derivative table as DERIVATIVE_HEADER rows and as JSON objects.

    Each direction gives its analytic entry, then its finite-difference one.
    """
    columns = table.deltas.tolist(), table.analytic.tolist(), table.finite_difference.tolist()
    rows = [
        [d1.real, d1.imag, d2.real, d2.imag, z.real, z.imag, method]
        for (d1, d2), analytic, fd in zip(*columns)
        for z, method in ((analytic, "analytic"), (fd, "finite_difference"))
    ]
    docs = [{"delta": [row[0:2], row[2:4]], "value": row[4:6], "method": row[6]} for row in rows]
    return docs, rows


# -- family ---------------------------------------------------------------


def cmd_family(args) -> int:
    tau = _parse_tau(args)
    y = float(args.y)
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"--y {y} outside [0, 1]")
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    monomial = y in (0.0, 1.0)

    # one evaluation: the carapoint scan, the difference steps of the default directions and the ray samples
    deltas = np.array(default_directions(tau), dtype=complex)
    phi_probe = [0.25, 0.5, 0.75]
    probe = boundary_probe(tau, args.aperture, args.depth, deltas)
    probe = probe.extend(samples=tau.ray_point(1.0 - np.array(phi_probe)))
    values = phi_y_eval(y, tau, probe.points)
    scan = probe_scan(probe, values)
    # the radial ray is the grid's family 0, at t = 2^-k, so its points head block "grid"
    ts = np.ldexp(1.0, -np.arange(1, args.depth + 1)).tolist()
    quotient_rows = [[t, q] for t, q in zip(ts, probe.quotients(values, "grid").tolist())]

    residual_max = None
    if not monomial:
        lam, mu = sample_bidisk_pairs(rng, args.pairs)
        residual_max = float(np.max(phi_y_model_residual(y, tau, lam, mu), initial=0.0))

    fd = probe_fd_limits(probe, values, 1.0 + 0j)
    table = DerivativeTable(deltas, phi_y_directional_derivative(y, tau, deltas), fd)
    deriv_docs, deriv_rows = _derivative_entries(table)
    defect = linearity_defect(lambda d: phi_y_directional_derivative(y, tau, d), default_direction_pairs(tau))

    # phi_y is the swap model over Y = [[y]], whose ray limit is v' = [1]
    classification, _, _ = classify_ray(np.array([y]), np.ones(1))
    samples = [{"r": r, "phi": _complex_json(z)} for r, z in zip(phi_probe, values[probe.blocks["samples"]].tolist())]

    report = {
        "command": "family",
        "y": y,
        "tau": [_complex_json(tau.tau1), _complex_json(tau.tau2)],
        "seed": seed,
        "phi_ray_samples": samples,
        "model_residual_max": residual_max,
        "carapoint": scan.carapoint,
        "alpha": scan.alpha,
        "quotient_max": scan.quotient_max,
        "linearity_defect": defect,
        "classification": classification,
        "note": "monomial case" if monomial else "interior parameter",
        "derivatives": deriv_docs,
    }
    _emit_report(report, args)
    _emit_tables(args, {"quotient": (["t", "quotient"], quotient_rows), "derivative": (DERIVATIVE_HEADER, deriv_rows)})
    return 0


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    model = load_model(args.model, eigtol=args.eigtol, isotol=args.isotol)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)

    lam, mu = sample_bidisk_pairs(rng, args.pairs)
    residual_max = float(model.model_residual(lam, mu).max(initial=0.0))
    contractivity = contractivity_scan(model.pencil, args.samples, seed=seed)
    rows = julia_quotient_ray(model, exponents=_parse_ray_exponents(args))
    julia_max = max(r.residual for r in rows)

    ok = (
        residual_max <= args.residual_tol
        and contractivity <= 1.0 + CONTRACTIVITY_TOL
        and julia_max <= args.residual_tol
    )
    report = {
        "command": "verify",
        "model": str(args.model),
        "seed": seed,
        "dim": model.dim,
        "isometry_defect": model.isometry_defect,
        "model_residual_max": residual_max,
        "contractivity_max": contractivity,
        "julia_residual_max": julia_max,
        "residual_tol": args.residual_tol,
        "ok": ok,
    }
    _emit_report(report, args)
    _emit_tables(
        args,
        {
            "julia": (
                ["t", "lhs", "rhs", "residual"],
                [[r.t, r.lhs, r.rhs, r.residual] for r in rows],
            )
        },
    )
    return 0 if ok else EXIT_RESIDUAL


# -- classify -------------------------------------------------------------


def cmd_classify(args) -> int:
    model = load_model(args.model, eigtol=args.eigtol, isotol=args.isotol)
    report = classify_model(model, args.class_tol, args.aperture, args.depth)
    ray = model.v_at_tau()
    doc = {
        "command": "classify",
        "model": str(args.model),
        "dim": model.dim,
        "v_tau": [_complex_json(complex(z)) for z in ray.value],
        **report.to_json(),
    }
    _emit_report(doc, args)
    return 0


# -- derivative -----------------------------------------------------------


def cmd_derivative(args) -> int:
    model = load_model(args.model, eigtol=args.eigtol, isotol=args.isotol)
    deltas = [_parse_pair(d, "direction") for d in args.delta] if args.delta else None
    table = derivative_table(model, deltas)
    docs, rows = _derivative_entries(table)
    doc = {
        "command": "derivative",
        "model": str(args.model),
        "agreement": table.agreement(),
        "entries": docs,
    }
    _emit_report(doc, args)
    _emit_tables(args, {"derivative": (DERIVATIVE_HEADER, rows)})
    return 0


# -- suite ----------------------------------------------------------------


def cmd_suite(args) -> int:
    seed = _resolve_seed(args)
    config = SuiteConfig(
        seed=seed,
        count=args.count,
        residual_tol=args.residual_tol,
        aperture=args.aperture,
        grid_depth=args.depth,
    )
    report = run_suite(config)
    doc = report.to_json()
    doc["command"] = "suite"
    _emit_report(doc, args)
    for name, (p, t) in sorted(report.totals().items()):
        sys.stderr.write(f"{name}: {p}/{t}\n")
    sys.stderr.write(f"suite: {'PASS' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else EXIT_RESIDUAL


# -- parser ---------------------------------------------------------------


def _option(*flags, **kwargs):
    return flags, kwargs


def tolerance(text: str) -> float:
    """The value of a tolerance option: a finite number >= 0, else argparse exits 2."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


#: largest value of a count option (--pairs, --samples, suite --count); a larger
#: one exits 2 at parse time, before it asks for arrays no machine can hold
COUNT_MAX = 100_000


def count(text: str) -> int:
    """The value of a count option: an integer in 1..COUNT_MAX, else argparse exits 2."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    if value > COUNT_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds the count limit {COUNT_MAX}")
    return value


# options of several subcommands; each default is the library value it overrides
_MODEL = _option("model", help="path to the model JSON file")
_OUT = _option("--out", help="write the JSON report here instead of stdout")
_CSV = _option("--csv", help="base path for CSV tables (suffixes are appended)")
_SEED = _option("--seed", type=int, default=SuiteConfig.seed, help="seed for randomized checks")
_EIGTOL = _option("--eigtol", type=tolerance, default=DEFAULT_EIGTOL)
_ISOTOL = _option("--isotol", type=tolerance, default=DEFAULT_ISOTOL)
_RESIDUAL_TOL = _option("--residual-tol", type=tolerance, default=SuiteConfig.residual_tol)
_APERTURE = _option("--aperture", "-c", type=float, default=DEFAULT_APERTURE)
_DEPTH = _option("--depth", type=int, default=DEFAULT_DEPTH)
_RAY_EXPONENTS = _option(
    "--ray-exponents",
    default=",".join(map(str, RAY_EXPONENTS)),
    help="dyadic ray schedule t = 2^-k of the Julia rows, for k in LO..HI, as 'LO,HI'",
)

#: subcommand -> (help, the options its handler cmd_<subcommand> reads)
COMMANDS = {
    "family": (
        "analyze one member of the scalar family",
        (
            _option("--y", type=float, required=True, help="parameter in [0, 1]"),
            _option("--tau", default="1,1", help=f"boundary point {_PAIR}; negative as --tau=-1,1"),
            _option("--tau-angles", default=None, help="tau as two angles in turns; negative as --tau-angles=-0.25,0"),
            _option("--pairs", type=count, default=200, help="random pairs for the model residual"),
            _OUT, _CSV, _SEED, _APERTURE, _DEPTH,
        ),
    ),
    "verify": (
        "verify a model JSON spec",
        (
            _MODEL,
            _option("--pairs", type=count, default=400),
            _option("--samples", type=count, default=2000, help="contractivity scan points"),
            _OUT, _CSV, _SEED, _EIGTOL, _ISOTOL, _RESIDUAL_TOL, _RAY_EXPONENTS,
        ),
    ),
    "classify": (
        "classify a model at its boundary point",
        (
            _MODEL, _OUT, _EIGTOL, _ISOTOL,
            _option("--class-tol", type=tolerance, default=DEFAULT_CLASS_TOL),
            _APERTURE, _DEPTH,
        ),
    ),
    "derivative": (
        "tabulate directional derivatives of a model",
        (
            _MODEL,
            _option("--delta", action="append", help=f"direction {_PAIR}; negative as --delta=-2,-1; repeatable"),
            _OUT, _CSV, _EIGTOL, _ISOTOL,
        ),
    ),
    "suite": (
        "run the randomized verification suite",
        (
            _option("--count", type=count, default=SuiteConfig.count),
            _OUT, _SEED, _RESIDUAL_TOL, _APERTURE, _DEPTH,
        ),
    ),
}


@functools.cache  # built once per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caralab",
        description="Boundary-behavior laboratory for Schur-Agler functions on the bidisk",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # argparse hands a subcommand's unknown flags to the top-level
        # parser; report them with the subcommand's usage instead
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # looked up at call time, so a rebound cmd_<name> (a tracer, a test) is the one called
        return globals()[f"cmd_{args.command}"](args)
    except (CaralabError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kinds, code in ERROR_EXITS if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
