"""Smoke test at the largest intended state-space size."""

import numpy as np

from caralab import (
    classify_model,
    julia_quotient_ray,
    opnorm,
    i_y_eval,
    i_y_spectral_form,
)
from conftest import desk_model, disk_point


def test_dim_64_round_trip():
    rng = np.random.default_rng(64)
    model = desk_model(rng)
    pencil = model.pencil

    lam = disk_point(rng)
    assert opnorm(i_y_eval(pencil, lam) - i_y_spectral_form(pencil, lam)) <= 1e-9
    assert opnorm(i_y_eval(pencil, lam)) <= 1.0 + 1e-10

    worst = max(
        model.model_residual(disk_point(rng), disk_point(rng)) for _ in range(5)
    )
    assert worst <= 1e-9

    rows = julia_quotient_ray(model)
    assert max(r.residual for r in rows) <= 1e-9

    report = classify_model(model, depth=8)
    assert report.carapoint
    assert report.classification == "singular"
    assert report.cross_check_ok
