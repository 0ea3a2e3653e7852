"""Per-layer metrics of one traced round, named `<layer>.<function>.<kind>`.

Every workload reports every metric.  Times (`self_s`, `total_s`) are
listed only for functions that run on all three workloads, so none reads
a constant zero; the other functions are listed by call count, and the
full table of every traced function is in the trace summary file.  Which
end-to-end metric each one should move is mapped in README.md.
"""

from __future__ import annotations

#: function -> kinds reported; "total" only where the function has traced children
FUNCTIONS = {
    "pencil.i_y_eval": ("calls", "self", "total"),
    "pencil.i_y_spectral_form": ("calls",),
    "pencil.sample_bidisk": ("calls",),
    "realization.resolve": ("calls", "self", "total"),
    "realization.phi": ("calls", "self", "total"),
    "realization.model_vector": ("calls",),
    "realization.model_residual": ("calls",),
    "realization.ray_state": ("calls", "self", "total"),
    "realization.v_at_tau": ("calls", "self", "total"),
    "realization.load_model": ("calls",),
    "xprec.solve": ("calls", "self"),
    "xprec.nearest_unitary": ("calls", "self", "total"),
    "hermitian.spectral_decompose": ("calls", "self", "total"),
    "hermitian.opnorm": ("calls", "self", "total"),
    "hermitian.apply_calculus": ("calls", "self"),
    "boundary.build_grid": ("calls", "self"),
    "boundary.detect_carapoint": ("calls", "self", "total"),
    "boundary.derivative_fd": ("calls", "self", "total"),
    "boundary.derivative_model": ("calls", "self", "total"),
    "boundary.standard_model_pair": ("calls",),
    "boundary.julia_quotient_ray": ("calls",),
    "boundary.classify_model": ("calls", "total"),
    "extrapolate.richardson_limit": ("calls", "self"),
    "scalar_family.phi_y_eval": ("calls",),
    "scalar_family.phi_y_model_vector": ("calls",),
    "suite.generate_model": ("calls",),
    "suite.run_model_checks": ("calls",),
    "cli.verify": ("calls",),
    "cli.classify": ("calls",),
    "cli.derivative": ("calls",),
    "linalg.svd": ("calls",),
    "linalg.solve": ("calls",),
    "linalg.eigh": ("calls",),
    "linalg.norm": ("calls",),
}

#: layers whose summed self time is reported (the ones every workload runs)
TIMED_LAYERS = ("pencil", "realization", "xprec", "hermitian", "boundary", "extrapolate", "linalg")

#: layers whose CaralabError count is reported
ERROR_LAYERS = (
    "hermitian", "scalar_family", "pencil", "realization", "xprec",
    "extrapolate", "boundary", "suite", "cli",
)

SUFFIX = {"calls": ("calls", "count"), "self": ("self_s", "s"), "total": ("total_s", "s")}

#: derived metrics: name -> (unit, better)
DERIVED = {
    "pencil.evals_per_model": ("1/model", "lower"),
    "realization.ray_cache_hit_ratio": ("ratio", "higher"),
    "boundary.carapoint_scans_per_model": ("1/model", "lower"),
    "cli.classify.derivative_fd_calls": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    out = []
    for fn, kinds in FUNCTIONS.items():
        for kind in kinds:
            suffix, unit = SUFFIX[kind]
            out.append({"name": f"{fn}.{suffix}", "unit": unit, "better": "lower"})
    out += [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"} for layer in TIMED_LAYERS]
    out += [{"name": f"{layer}.errors", "unit": "count", "better": "lower"} for layer in ERROR_LAYERS]
    out += [{"name": n, "unit": u, "better": b} for n, (u, b) in DERIVED.items()]
    return out


def metrics(tracer, models: int) -> dict[str, float]:
    """Values for spec() from a traced round over `models` models (without trace.overhead_pct)."""
    rows = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, float] = {}
    for fn, kinds in FUNCTIONS.items():
        row = rows.get(fn, empty)
        for kind in kinds:
            out[f"{fn}.{SUFFIX[kind][0]}"] = row[SUFFIX[kind][0]]
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer)
    for layer in ERROR_LAYERS:
        out[f"{layer}.errors"] = sum(c for n, c in tracer.errors.items() if n.split(".")[0] == layer)
    ray_calls = rows.get("realization.ray_state", empty)["calls"]
    solves = tracer.count_direct("xprec.solve", "realization.ray_state")
    out["pencil.evals_per_model"] = rows.get("pencil.i_y_eval", empty)["calls"] / models
    out["realization.ray_cache_hit_ratio"] = 1.0 - solves / ray_calls if ray_calls else 0.0
    out["boundary.carapoint_scans_per_model"] = rows.get("boundary.detect_carapoint", empty)["calls"] / models
    out["cli.classify.derivative_fd_calls"] = tracer.count_under("boundary.derivative_fd", "cli.classify")
    return out
