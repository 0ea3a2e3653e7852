import argparse
import collections
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    BadApertureError,
    GeneralizedRealization,
    OperatorPencil,
    build_grid,
    dump_model,
    matrix_to_json,
    random_colligation,
    random_positive_contraction,
    validate_colligation,
    validate_positive_contraction,
)
from caralab import xprec
from caralab.boundary import DEFAULT_APERTURE, DEFAULT_CLASS_TOL, DEFAULT_DEPTH
from caralab.cli import COUNT_MAX, build_parser, main
from caralab.realization import RAY_EXPONENTS
from caralab.suite import SUITE_TAUS, SuiteConfig
from conftest import TAU_11, left_null_model


#: directions whose coordinates, or |delta|^2, are not finite numbers, and why each is refused
UNREPRESENTABLE = [
    ("-inf,-1", "is not finite"),
    ("nan,-1", "is not finite"),
    ("-1e308,-1e308", "has no finite entry time"),
    ("-1e-320,-1e-320", "has no finite entry time"),
    ("-1e200,-1", "has no finite entry time"),
]


def refusal(delta: str, why: str) -> str:
    """The error line that refuses the direction written 're1,re2' on the command line."""
    return f"error: direction {tuple(complex(float(x), 0.0) for x in delta.split(','))!r} {why}"


@pytest.fixture
def swap_spec(tmp_path):
    y = validate_positive_contraction([[0.5]])
    m = GeneralizedRealization(OperatorPencil(y, TAU_11), validate_colligation([[0, 1], [1, 0]]))
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(dump_model(m)))
    return str(path)


@pytest.fixture
def shear_spec(tmp_path, swap_spec):
    doc = json.loads((tmp_path / "swap.json").read_text())
    doc["V"] = matrix_to_json([[1, 1], [0, 1]])
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bad_spectrum_spec(tmp_path, swap_spec):
    doc = json.loads((tmp_path / "swap.json").read_text())
    doc["Y"] = matrix_to_json([[1.2]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFamily:
    def test_half_parameter_report(self, capsys):
        code, doc = run(capsys, ["family", "--y", "0.5", "--tau", "1,1"])
        assert code == 0
        assert doc["carapoint"] is True
        assert doc["alpha"] == pytest.approx(1.0, abs=1e-9)
        assert doc["linearity_defect"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert doc["classification"] == "purely_singular"
        assert doc["model_residual_max"] <= 1e-10

    def test_monomial_case(self, capsys):
        code, doc = run(capsys, ["family", "--y", "1", "--tau", "1,1"])
        assert code == 0
        assert doc["linearity_defect"] <= 1e-12
        assert doc["note"] == "monomial case"
        assert doc["model_residual_max"] is None

    def test_out_of_range_exits_2(self, capsys):
        assert main(["family", "--y", "1.5"]) == 2

    def test_tau_angles(self, capsys):
        code, doc = run(capsys, ["family", "--y", "0.5", "--tau-angles", "0,0.25"])
        assert code == 0
        assert doc["tau"] == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("angles, bad", [("nan,0", "nan"), ("0,inf", "inf"), ("-inf,0.5", "-inf")])
    def test_non_finite_tau_angle_exits_2_naming_it(self, capsys, angles, bad):
        assert main(["family", "--y", "0.5", f"--tau-angles={angles}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: boundary angle {bad} is not finite\n"

    @pytest.mark.parametrize("y, label", [(0.0, "regular"), (0.3, "purely_singular"), (1.0, "regular")])
    def test_label_is_that_of_the_swap_model(self, capsys, tmp_path, y, label):
        # phi_y is the swap model over Y = [[y]]
        m = GeneralizedRealization(
            OperatorPencil(validate_positive_contraction([[y]]), TAU_11), validate_colligation([[0, 1], [1, 0]])
        )
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(dump_model(m)))
        code, family = run(capsys, ["family", "--y", str(y)])
        assert code == 0
        code, classify = run(capsys, ["classify", str(path)])
        assert code == 0
        assert family["classification"] == classify["classification"] == label

    def test_negative_tau_needs_the_equals_form(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "--y", "0.5", "--tau", "-1,1"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        code, doc = run(capsys, ["family", "--y", "0.5", "--tau=-1,1"])
        assert code == 0
        assert doc["tau"] == [[-1.0, 0.0], [1.0, 0.0]]

    def test_complex_tau_parse(self, capsys):
        code, doc = run(capsys, ["family", "--y", "0.5", "--tau", "1,0,0,1"])
        assert code == 0
        assert doc["tau"] == [[1.0, 0.0], [0.0, 1.0]]


def test_family_fills_each_column_with_one_call(monkeypatch, capsys, tmp_path):
    from caralab import boundary, cli

    counts = collections.Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(cli, "phi_y_directional_derivative"), (cli, "boundary_probe"), (cli, "linearity_defect")]:
        counting(module, name)
    evaluated = []
    phi_y_eval = cli.phi_y_eval

    def recording(y, tau, lam):
        evaluated.append(lam)
        return phi_y_eval(y, tau, lam)

    monkeypatch.setattr(cli, "phi_y_eval", recording)
    code, doc = run(capsys, ["family", "--y", "0.5", "--csv", str(tmp_path / "fam")])
    assert code == 0
    # the analytic column and the linearity defect, one call each; the
    # carapoint scan, the quotient rows of the ray, the difference quotients
    # and the ray samples read one evaluation of one probe
    assert counts == {"phi_y_directional_derivative": 2, "boundary_probe": 1, "linearity_defect": 1}
    # the scan's points and the difference steps, then the three ray samples
    deltas = np.array(boundary.default_directions(TAU_11), dtype=complex)
    probe = boundary.boundary_probe(TAU_11, DEFAULT_APERTURE, DEFAULT_DEPTH, deltas)
    samples = TAU_11.ray_point(np.array([0.75, 0.5, 0.25]))
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], np.concatenate([probe.points, samples]))
    assert [complex(*s["phi"]) for s in doc["phi_ray_samples"]] == [phi_y_eval(0.5, TAU_11, tuple(p)) for p in samples]
    assert len(doc["derivatives"]) == 24
    rows = (tmp_path / "fam.quotient.csv").read_text().splitlines()
    assert len(rows) == 1 + DEFAULT_DEPTH
    assert [float(r.split(",")[0]) for r in rows[1:]] == [2.0**-k for k in range(1, DEFAULT_DEPTH + 1)]


class TestVerify:
    def test_swap_passes(self, capsys, swap_spec):
        code, doc = run(capsys, ["verify", swap_spec])
        assert code == 0
        assert doc["ok"] is True
        assert doc["model_residual_max"] <= 1e-10

    def test_shear_exits_3(self, capsys, shear_spec):
        assert main(["verify", shear_spec]) == 3

    def test_bad_spectrum_exits_4(self, capsys, bad_spectrum_spec):
        assert main(["verify", bad_spectrum_spec]) == 4

    def test_forced_shear_fails_residual_with_exit_5(self, capsys, shear_spec):
        # widening isotol lets the shear through validation; the residual
        # gate must then catch it
        assert main(["verify", shear_spec, "--isotol", "10"]) == 5

    def test_corrupt_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_csv_tables(self, capsys, swap_spec, tmp_path):
        base = tmp_path / "tables"
        code, _ = run(capsys, ["verify", swap_spec, "--csv", str(base)])
        assert code == 0
        julia = (tmp_path / "tables.julia.csv").read_text().splitlines()
        assert julia[0] == "t,lhs,rhs,residual"
        assert len(julia) == 18  # header + k = 4..20

    def test_ray_exponents_accepted(self, capsys, swap_spec, tmp_path):
        base = tmp_path / "tables"
        code, doc = run(capsys, ["verify", swap_spec, "--ray-exponents", "4,16", "--csv", str(base)])
        assert code == 0 and doc["ok"] is True
        rows = (tmp_path / "tables.julia.csv").read_text().splitlines()
        assert len(rows) == 1 + 13  # header + one row per k = 4..16

    def test_bad_ray_exponents_exit_2(self, capsys, swap_spec):
        assert main(["verify", swap_spec, "--ray-exponents", "9,3"]) == 2

    @pytest.mark.skipif(xprec.EPS != 2.0**-63, reason="the floor follows the platform's long double")
    def test_ray_parameter_floor_exits_2(self, capsys, swap_spec):
        # from t = 2^-65 on, 1 - t rounds to 1 in an 80-bit long double: the row would sit at tau
        assert main(["verify", swap_spec, "--ray-exponents", "60,70"]) == 2
        assert "1 - t" in capsys.readouterr().err
        for exponents in ("4,20", "50,60"):
            code, doc = run(capsys, ["verify", swap_spec, "--ray-exponents", exponents])
            assert code == 0 and doc["ok"] is True


class TestClassify:
    def test_swap_report(self, capsys, swap_spec):
        code, doc = run(capsys, ["classify", swap_spec])
        assert code == 0
        assert doc["classification"] == "purely_singular"
        assert doc["alpha"] == pytest.approx(1.0, abs=1e-8)
        assert doc["cross_check_ok"] is True
        assert doc["v_tau"] == [pytest.approx([1.0, 0.0], abs=1e-10)]

    def test_one_evaluation_of_the_scan(self, capsys, monkeypatch, swap_spec):
        from caralab import boundary

        counts = collections.Counter()
        evaluate = GeneralizedRealization.evaluate

        def counting_evaluate(model, pts):
            counts["evaluate"] += 1
            counts["points"] += len(pts)
            return evaluate(model, pts)

        monkeypatch.setattr(GeneralizedRealization, "evaluate", counting_evaluate)
        for name, key in (("build_grid", "build_grid"), ("direction_entry_time", "step plan")):

            def counting(*args, fn=getattr(boundary, name), key=key):
                counts[key] += 1
                return fn(*args)

            monkeypatch.setattr(boundary, name, counting)
        # the scan alone: the grid's 84 points and the 12 deeper ray points, no step plan
        assert main(["classify", swap_spec]) == 0
        assert counts == {"evaluate": 1, "points": 96, "build_grid": 1}
        # the derivative table builds no grid
        counts.clear()
        assert main(["derivative", swap_spec]) == 0
        assert counts["evaluate"] == 1 and counts["build_grid"] == 0

    def test_the_scan_is_classify_model(self, monkeypatch, swap_spec, tmp_path):
        from caralab import boundary, cli

        # perfbench's per-layer metrics count these two public calls
        counts = collections.Counter()
        for module, name in ((cli, "classify_model"), (boundary, "detect_carapoint")):

            def counting(*args, fn=getattr(module, name), name=name):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counting)
        assert main(["classify", swap_spec, "--out", str(tmp_path / "r.json")]) == 0
        assert counts == {"classify_model": 1, "detect_carapoint": 1}

    def test_unconverged_exits_6(self, capsys, shear_spec):
        assert main(["classify", shear_spec, "--isotol", "10"]) == 6

    def test_underflowing_depth_exit_2(self, capsys, swap_spec):
        assert main(["classify", swap_spec, "--depth", "60"]) == 2

    @pytest.mark.parametrize(
        "diag,target,expected",
        [
            ([1.0, 0.0], None, "regular"),
            ([1.0, 0.5], (1.0, 0.0), "regular"),
            ([1.0, 0.5], (1.0, 1.0), "singular"),
            ([0.5, 0.5], None, "purely_singular"),
        ],
    )
    def test_three_classes_through_cli(self, capsys, tmp_path, diag, target, expected):
        from caralab import colligation_with_ray_limit

        y = validate_positive_contraction(np.diag(diag))
        if target is None:
            col = random_colligation(2, np.random.default_rng(2))
        else:
            col = colligation_with_ray_limit(np.array(target, dtype=complex))
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), col)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dump_model(m)))
        code, doc = run(capsys, ["classify", str(path)])
        assert code == 0
        assert doc["classification"] == expected
        assert doc["cross_check_ok"] is True


class TestDerivative:
    def test_explicit_direction(self, capsys, swap_spec):
        code, doc = run(capsys, ["derivative", swap_spec, "--delta=-2,-1"])
        assert code == 0
        assert doc["agreement"] <= 1e-6
        values = {e["method"]: complex(*e["value"]) for e in doc["entries"]}
        assert values["analytic"] == pytest.approx(-4.0 / 3.0, abs=1e-9)

    def test_default_directions(self, capsys, swap_spec):
        code, doc = run(capsys, ["derivative", swap_spec])
        assert code == 0
        assert len(doc["entries"]) == 24  # 12 directions x 2 methods

    def test_csv_table_leaves_report_unchanged(self, capsys, swap_spec, tmp_path):
        assert main(["derivative", swap_spec]) == 0
        plain = capsys.readouterr().out
        assert main(["derivative", swap_spec, "--csv", str(tmp_path / "tables")]) == 0
        assert capsys.readouterr().out == plain
        table = (tmp_path / "tables.derivative.csv").read_text().splitlines()
        assert table[0] == "re_d1,im_d1,re_d2,im_d2,re_D,im_D,method"
        assert len(table) == 25  # header + 12 directions x 2 methods

    def test_inadmissible_direction_exits_2(self, capsys, swap_spec):
        assert main(["derivative", swap_spec, "--delta=2,1"]) == 2

    def test_later_inadmissible_direction_exits_2(self, capsys, swap_spec):
        assert main(["derivative", swap_spec, "--delta=-1,-1", "--delta=2,1"]) == 2

    @pytest.mark.parametrize("delta, why", UNREPRESENTABLE)
    def test_unrepresentable_direction_exits_2_naming_it(self, capsys, swap_spec, delta, why):
        assert main(["derivative", swap_spec, f"--delta={delta}"]) == 2
        assert capsys.readouterr().err.startswith(refusal(delta, why))

    @pytest.mark.parametrize("delta, why", UNREPRESENTABLE)
    def test_unrepresentable_direction_warns_nothing(self, swap_spec, delta, why):
        # with warnings as errors, a warning on the way would end in a traceback and exit 1
        proc = run_module(["-W", "error", "-m", "caralab", "derivative", swap_spec, f"--delta={delta}"])
        assert proc.returncode == 2 and proc.stderr.startswith(refusal(delta, why))

    def test_inadmissible_direction_exits_2_before_an_unconverged_ray_limit(self, capsys, shear_spec):
        # every direction is checked before the ray limit of the first is needed
        assert main(["derivative", shear_spec, "--isotol", "10", "--delta=-1,-1"]) == 6
        assert main(["derivative", shear_spec, "--isotol", "10", "--delta=-1,-1", "--delta=2,1"]) == 2

    def test_shear_exits_3(self, capsys, shear_spec):
        assert main(["derivative", shear_spec]) == 3

    def test_forced_shear_exits_6(self, capsys, shear_spec):
        # the analytic derivative of the first direction needs the ray
        # limit of v, which the shear does not have; that comes first
        assert main(["derivative", shear_spec, "--isotol", "10"]) == 6
        assert "no converged ray limit" in capsys.readouterr().err


class TestRayPath:
    """Only verify's Julia rows walk the extended-precision ray."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(xprec, "solve", counting("solve", xprec.solve))
        monkeypatch.setattr(xprec, "nearest_unitary", counting("nearest_unitary", xprec.nearest_unitary))
        ray_state = counting("ray_state", GeneralizedRealization.ray_state)
        monkeypatch.setattr(GeneralizedRealization, "ray_state", ray_state)
        return counts

    @pytest.fixture
    def mixed_spec(self, tmp_path):
        rng = np.random.default_rng(5)
        y = random_positive_contraction(4, rng, eigenvalues=[1.0, 0.0, 0.3, 0.8])
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), random_colligation(4, rng))
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(dump_model(m)))
        return str(path)

    @pytest.mark.parametrize("spec", ["swap_spec", "mixed_spec"])
    def test_classify_and_derivative_skip_the_ray(self, capsys, calls, request, tmp_path, spec):
        path = request.getfixturevalue(spec)
        assert main(["classify", path]) == 0
        assert main(["derivative", path]) == 0
        assert calls == {}
        assert main(["verify", path]) == 0
        # the 17 Julia rows come from one stacked, refined solve
        assert calls == {"ray_state": 1, "nearest_unitary": 1, "solve": 1}

    @pytest.mark.parametrize("command", ["classify", "derivative"])
    def test_part_of_b_in_e_exits_6(self, capsys, tmp_path, command):
        # non-isometric: B has a part along E = span(e1) just above the
        # threshold, so the ray states grow like 1/t
        threshold = left_null_model(0.0).v_at_tau().threshold
        model = left_null_model(2.0 * threshold)
        assert model.v_at_tau().diverged
        path = tmp_path / "leak.json"
        path.write_text(json.dumps(dump_model(model)))
        assert main([command, str(path), "--isotol", "10"]) == 6
        assert "converge" in capsys.readouterr().err


class TestNonFiniteGeometry:
    DOCUMENTED = {2, 3, 4, 5, 6}

    def test_nan_tau_in_model_file(self, capsys, tmp_path, swap_spec):
        doc = json.loads((tmp_path / "swap.json").read_text())
        doc["tau"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        for command in ("verify", "classify", "derivative"):
            assert main([command, str(path)]) in self.DOCUMENTED
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("aperture", ["nan", "inf", "-inf", "1e300", "1e10", "0.5"])
    def test_bad_aperture(self, capsys, tmp_path, swap_spec, aperture):
        # an aperture is a caller-supplied parameter; the suite stops before
        # its first model, at the grid of its first boundary point
        with pytest.raises(BadApertureError) as info:
            build_grid(SUITE_TAUS[0], float(aperture))
        report = tmp_path / "suite.json"
        for argv in (["classify", swap_spec], ["family", "--y", "0.5"], ["suite", "--out", str(report)]):
            assert main([*argv, f"--aperture={aperture}"]) == 2
            assert capsys.readouterr() == ("", f"error: {info.value}\n")
        assert not report.exists()

    def test_nan_tau_flag(self, capsys):
        assert main(["family", "--y", "0.5", "--tau", "nan,1"]) in self.DOCUMENTED
        assert main(["family", "--y", "0.5", "--tau-angles", "nan,0"]) in self.DOCUMENTED


class TestDepthBound:
    """A grid is as deep as the pencil evaluates its points for every Y: 2^-depth / aperture > 1e-13."""

    @pytest.fixture
    def endpoint_spec(self, tmp_path):
        # Y = diag(1, 0): grid offsets are the pencil's denominators themselves
        y = validate_positive_contraction(np.diag([1.0, 0.0]))
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), random_colligation(2, np.random.default_rng(2)))
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps(dump_model(m)))
        return str(path)

    @pytest.mark.parametrize("aperture, bound", [(1.0, 43), (2.0, 42), (1000.0, 33)])
    def test_bound_classifies_and_one_level_deeper_exits_2(
        self, capsys, monkeypatch, swap_spec, endpoint_spec, aperture, bound
    ):
        from caralab import suite

        for spec in (swap_spec, endpoint_spec):
            assert main(["classify", spec, f"--aperture={aperture}", "--depth", str(bound)]) == 0
        capsys.readouterr()
        models = []
        generate_model = suite.generate_model
        monkeypatch.setattr(suite, "generate_model", lambda *a: models.append(a) or generate_model(*a))
        deeper = [f"--aperture={aperture}", "--depth", str(bound + 1)]
        for argv in (["classify", swap_spec], ["classify", endpoint_spec], ["family", "--y", "0.5"], ["suite"]):
            assert main([*argv, *deeper]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: depth must lie in 1..{bound} at aperture {aperture!r}")
        # the suite refuses before its first model
        assert models == []

    def test_an_aperture_that_leaves_no_depth_exits_2(self, capsys, swap_spec):
        for argv in (["classify", swap_spec], ["family", "--y", "0.5"], ["suite"]):
            assert main([*argv, "--aperture=6e12", "--depth", "1"]) == 2
            assert capsys.readouterr() == ("", "error: aperture 6000000000000.0 leaves no grid depth where "
                                           "the pencil takes every point\n")


#: the README swap model as a document, the base of the malformed ones
SWAP_DOC = {
    "dim": 1,
    "tau": [[1.0, 0.0], [1.0, 0.0]],
    "Y": {"rows": 1, "cols": 1, "re": [0.5], "im": [0.0]},
    "V": {"rows": 2, "cols": 2, "re": [0.0, 1.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]},
}

MODEL_COMMANDS = ("verify", "classify", "derivative")

#: documented exit codes of the model subcommands
EXIT_CODES = {0, 2, 3, 4, 5, 6}


class TestMalformedModel:
    @pytest.mark.parametrize(
        "doc",
        [
            dict(SWAP_DOC, tau=5),
            dict(SWAP_DOC, Y=[[0.5]]),
            [SWAP_DOC],
            dict(SWAP_DOC, tau=[["a", "b"], [1, 0]]),
        ],
        ids=["tau-int", "Y-rows", "list", "tau-strings"],
    )
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_mistyped_field_exits_2(self, capsys, tmp_path, doc, command):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("where", ["top", "Y"])
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_arrays_nested_too_deeply_to_parse_exit_2(self, capsys, tmp_path, where, command):
        # 100,000 levels, some 200 KB: json.loads raises RecursionError on it
        deep = "[" * 100_000 + "]" * 100_000
        text = deep if where == "top" else json.dumps(dict(SWAP_DOC, Y=None)).replace("null", deep)
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: malformed model document: maximum recursion depth exceeded")

    def test_swap_document_is_valid(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(SWAP_DOC))
        assert main(["classify", str(path)]) == 0

    @pytest.mark.parametrize(
        "doc, field",
        [
            (dict(SWAP_DOC, Y=dict(SWAP_DOC["Y"], re=[True])), "Y.re"),
            (dict(SWAP_DOC, Y=dict(SWAP_DOC["Y"], re=["0.5"])), "Y.re"),
            (dict(SWAP_DOC, Y=dict(SWAP_DOC["Y"], re=0.5)), "Y.re"),
            (dict(SWAP_DOC, tau=[[True, False], [1.0, 0.0]]), "tau[0]"),
            (dict(SWAP_DOC, V=dict(SWAP_DOC["V"], im=[0.0, False, 0.0, 0.0])), "V.im"),
        ],
        ids=["re-bool", "re-string", "re-bare-number", "tau-bool", "im-bool"],
    )
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_a_number_of_another_type_exits_2_naming_its_field(self, capsys, tmp_path, doc, field, command):
        # converted, each would load as a model: true as 1.0, "0.5" as 0.5, a bare 0.5 as [0.5]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {field} must be a list of numbers (int or float)\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(SWAP_DOC, dim=None), "malformed model document: dim must be an integer, got None"),
            (dict(SWAP_DOC, dim=float("inf")), "malformed model document: dim must be an integer, got inf"),
            (dict(SWAP_DOC, dim=1.7), "malformed model document: dim must be an integer, got 1.7"),
            (dict(SWAP_DOC, dim=True), "malformed model document: dim must be an integer, got True"),
            (dict(SWAP_DOC, Y=dict(SWAP_DOC["Y"], rows=1.5)), "malformed model document: Y.rows must be an integer, got 1.5"),
            (dict(SWAP_DOC, V=dict(SWAP_DOC["V"], cols="2")), "malformed model document: V.cols must be an integer, got '2'"),
            (dict(SWAP_DOC, Y=dict(SWAP_DOC["Y"], rows=0)), "Y.rows and Y.cols must be positive, got 0 and 1"),
            (
                dict(SWAP_DOC, Y={"rows": 10**5, "cols": 10**5, "re": [0.5]}),
                "Y.re and Y.im must hold rows * cols = 10000000000 entries, got 1 and 1",
            ),
            (dict(SWAP_DOC, V=dict(SWAP_DOC["V"], im=[0.0])), "V.re and V.im must hold rows * cols = 4 entries, got 4 and 1"),
        ],
        ids=[
            "dim-null", "dim-inf", "dim-float", "dim-bool", "Y-rows-float", "V-cols-string", "Y-rows-zero", "Y-huge",
            "V-im-short",
        ],
    )
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_a_malformed_size_exits_2_naming_its_field(self, capsys, tmp_path, doc, message, command):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_integers_are_numbers(self, capsys, tmp_path):
        ints = dict(SWAP_DOC, tau=[[1, 0], [1, 0]], V=dict(SWAP_DOC["V"], re=[0, 1, 1, 0], im=[0, 0, 0, 0]))
        reports = []
        for doc in (SWAP_DOC, ints):
            path = tmp_path / "m.json"
            path.write_text(json.dumps(doc))
            reports.append(run(capsys, ["classify", str(path)]))
        assert reports[0][0] == 0
        assert reports[1] == reports[0]


#: JSON values a model field may be mistyped as
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rows", "cols", "re", "im", "dim"]), inner, max_size=4),
    max_leaves=8,
)

#: where a document can be edited: a top-level field, or an entry below it
_FIELD_PATHS = [
    ("dim",), ("tau",), ("Y",), ("V",),
    ("tau", 0), ("tau", 1, 0), ("Y", "rows"), ("Y", "re"), ("Y", "im"),
    ("V", "cols"), ("V", "re"), ("V", "im"),
]


@st.composite
def _model_documents(draw):
    """The swap document with one to three fields replaced or deleted, or any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_json_values)
    doc = copy.deepcopy(SWAP_DOC)
    for path in draw(st.lists(st.sampled_from(_FIELD_PATHS), min_size=1, max_size=3)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(_json_values)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=30, derandomize=True, deadline=None)
@given(doc=_model_documents())
def test_any_model_document_gets_a_documented_exit_code(fuzz_dir, doc):
    path = fuzz_dir / "m.json"
    path.write_text(json.dumps(doc))
    for command in MODEL_COMMANDS:
        assert main([command, str(path), "--out", str(fuzz_dir / "out.json")]) in EXIT_CODES


class TestSuite:
    def test_small_run_passes(self, capsys):
        code, doc = run(capsys, ["suite", "--count", "3", "--seed", "7"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["count"] == 3

    def test_byte_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["suite", "--count", "2", "--seed", "3", "--out", str(a)]) == 0
        capsys.readouterr()
        assert main(["suite", "--count", "2", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CARALAB_SEED", "99")
        code, doc = run(capsys, ["suite", "--count", "1", "--seed", "3"])
        assert code == 0
        assert doc["seed"] == 99


#: the options each subcommand takes, and nothing more: each is read by its handler
COMMAND_OPTIONS = {
    "family": {"--y", "--tau", "--tau-angles", "--pairs", "--out", "--csv", "--seed", "--aperture", "--depth"},
    "verify": {
        "model", "--pairs", "--samples", "--out", "--csv", "--seed", "--eigtol", "--isotol",
        "--residual-tol", "--ray-exponents",
    },
    "classify": {
        "model", "--out", "--eigtol", "--isotol", "--class-tol", "--aperture", "--depth",
    },
    "derivative": {"model", "--delta", "--out", "--csv", "--eigtol", "--isotol"},
    "suite": {"--count", "--out", "--seed", "--residual-tol", "--aperture", "--depth"},
}

#: the tolerance options, each with a subcommand that takes it
TOLERANCE_OPTIONS = [
    (command, flag)
    for command, options in COMMAND_OPTIONS.items()
    for flag in ("--eigtol", "--isotol", "--residual-tol", "--class-tol")
    if flag in options
]

#: the count options, each with a subcommand that takes it
COUNT_OPTIONS = [
    (command, flag)
    for command, options in COMMAND_OPTIONS.items()
    for flag in ("--pairs", "--samples", "--count")
    if flag in options
]


class TestParser:
    def test_each_subcommand_takes_exactly_its_options(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(COMMAND_OPTIONS)
        for name, subparser in sub.choices.items():
            options = {
                a.option_strings[0] if a.option_strings else a.dest
                for a in subparser._actions
                if a.dest != "help"
            }
            assert options == COMMAND_OPTIONS[name], name
        assert sum(map(len, COMMAND_OPTIONS.values())) == 38

    def test_defaults_mirror_the_library(self):
        parser = build_parser()
        classify = parser.parse_args(["classify", "m.json"])
        assert classify.class_tol == DEFAULT_CLASS_TOL
        assert parser.parse_args(["verify", "m.json"]).ray_exponents == "4,20" and RAY_EXPONENTS == (4, 20)
        assert (classify.aperture, classify.depth) == (DEFAULT_APERTURE, DEFAULT_DEPTH)
        suite = parser.parse_args(["suite"])
        config = SuiteConfig()
        assert (suite.seed, suite.count, suite.residual_tol) == (config.seed, config.count, config.residual_tol)
        assert (suite.aperture, suite.depth) == (config.aperture, config.grid_depth)

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("command, flag", TOLERANCE_OPTIONS)
    def test_tolerance_that_is_not_a_finite_number_at_least_0_exits_2(self, capsys, command, flag, value):
        args = ["m.json"] if "model" in COMMAND_OPTIONS[command] else []
        with pytest.raises(SystemExit) as exc:
            main([command, *args, f"{flag}={value}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"caralab {command}: error: argument {flag}: '{value}' is not a finite number >= 0\n"
        )
        # before anything runs; 0 is a tolerance
        parsed = build_parser().parse_args([command, *args, f"{flag}=0"])
        assert getattr(parsed, flag[2:].replace("-", "_")) == 0.0

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command, flag", COUNT_OPTIONS)
    def test_count_below_1_exits_2(self, capsys, tmp_path, swap_spec, command, flag, value):
        # a count of 0 would pass a check made at no point at all
        args = {"family": ["--y", "0.5"], "verify": [swap_spec], "suite": []}[command]
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([command, *args, f"{flag}={value}", "--out", str(report)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and not report.exists()
        assert err.endswith(f"caralab {command}: error: argument {flag}: '{value}' is not an integer >= 1\n")

    @pytest.mark.parametrize("command, flag", COUNT_OPTIONS)
    def test_count_above_the_limit_exits_2_before_the_handler(self, capsys, monkeypatch, command, flag):
        # refused at parse time, before anything is allocated; the limit itself is not run
        from caralab import cli

        calls = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: calls.append(args) or 0)
        args = {"family": ["--y", "0.5"], "verify": ["m.json"], "suite": []}[command]
        for value in (cli.COUNT_MAX + 1, 10_000_000_000):
            with pytest.raises(SystemExit) as exc:
                main([command, *args, f"{flag}={value}"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"caralab {command}: error: argument {flag}: '{value}' exceeds the count limit {cli.COUNT_MAX}\n")
        assert calls == []
        # the defaults lie below the limit
        assert getattr(build_parser().parse_args([command, *args]), flag[2:]) <= cli.COUNT_MAX

    @pytest.mark.parametrize(
        "argv",
        [
            ["derivative", "m.json", "--ray-exponents", "4,16"],
            ["suite", "--csv", "x"],
            ["classify", "m.json", "--seed", "3"],
            ["verify", "m.json", "--aperture", "3"],
            ["family", "--y", "0.5", "--isotol", "1"],
            ["classify", "m.json", "--ray-exponents", "4,16"],
            ["classify", "m.json", "--csv", "x"],
        ],
    )
    def test_removed_option_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage line names the subcommand, whose options it lists
        assert err.startswith(f"usage: caralab {argv[0]} ")
        assert f"caralab {argv[0]}: error: unrecognized arguments" in err

    def test_cached_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, swap_spec):
        from caralab import cli

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        argvs = [
            ["classify", swap_spec],
            ["derivative", swap_spec],
            ["derivative", swap_spec, "--ray-exponents", "4,16"],
        ]
        cached = [outcome(argv) for argv in argvs]
        assert build_parser() is build_parser()
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert [outcome(argv) for argv in argvs] == cached
        assert [code for code, _ in cached] == [0, 0, 2]


def run_module(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter with args, importing the caralab under test, not an installed one."""
    import caralab

    env = dict(os.environ, PYTHONPATH=str(Path(caralab.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestModuleEntry:
    def test_python_dash_m_works(self, swap_spec):
        proc = run_module(["-m", "caralab", "verify", swap_spec])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True


class TestJsonRoundTrip:
    def test_report_parses_and_model_reloads(self, capsys, tmp_path, rng):
        y = random_positive_contraction(3, rng)
        m = GeneralizedRealization(OperatorPencil(y, TAU_11), random_colligation(3, rng))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dump_model(m)))
        code, doc = run(capsys, ["verify", str(path)])
        assert code == 0
        assert doc["dim"] == 3


class TestDispatch:
    def test_main_calls_the_handler_bound_at_call_time(self, capsys, monkeypatch, swap_spec):
        from caralab import cli

        calls = []
        handler = cli.cmd_classify

        def wrapped(args):
            calls.append(args.command)
            return handler(args)

        monkeypatch.setattr(cli, "cmd_classify", wrapped)
        code, doc = run(capsys, ["classify", swap_spec])
        assert (code, calls) == (0, ["classify"])
        assert doc["classification"] == "purely_singular"

    def test_exit_code_of_a_rebound_handler_is_kept(self, capsys, monkeypatch, swap_spec, shear_spec):
        from caralab import cli

        monkeypatch.setattr(cli, "cmd_derivative", lambda args: cli.EXIT_UNCONVERGED)
        assert main(["derivative", swap_spec]) == 6
        monkeypatch.undo()
        # the handlers' own codes are unchanged: not isometric 3, bad direction or aperture 2
        assert main(["derivative", shear_spec]) == 3
        assert main(["derivative", swap_spec, "--delta", "1,1"]) == 2
        assert main(["classify", swap_spec, "--aperture", "0.5"]) == 2


#: option values at the edges: empty, not finite, zero, negative, extreme, the count limit and one above
EDGES = ["", "nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", str(COUNT_MAX), str(COUNT_MAX + 1)]


def _values(*usual: str):
    """One of an option's usual values or, as often, an edge value."""
    return st.sampled_from(usual) | st.sampled_from(EDGES)


#: comma-separated lists of 1 to 4 parts, as --tau, --tau-angles, --delta and --ray-exponents take
_parts = st.lists(_values("0.5", "-1", "-2", "1", "4", "20", "x"), min_size=1, max_size=4).map(",".join)

#: count values that the parser refuses before anything is allocated
REFUSED_COUNTS = ["", "nan", "inf", "0", "-1", "1e308", str(COUNT_MAX + 1), "10000000000"]

#: the values drawn for each option; --out and --csv name files under the fuzz directory
OPTION_VALUES = {
    "--y": _values("0.5", "1", "0.25"),
    "--tau": _parts,
    "--tau-angles": _parts,
    "--delta": _parts,
    "--ray-exponents": _parts,
    "--pairs": st.sampled_from(["1", "50"]) | st.sampled_from(REFUSED_COUNTS),
    "--samples": st.sampled_from(["1", "50"]) | st.sampled_from(REFUSED_COUNTS),
    "--count": st.sampled_from(["1", "2"]) | st.sampled_from(REFUSED_COUNTS),
    "--seed": _values("3"),
    "--eigtol": _values("1e-9"),
    "--isotol": _values("1e-9"),
    "--residual-tol": _values("1e-9"),
    "--class-tol": _values("1e-3"),
    "--aperture": _values("1", "2"),
    "--depth": _values("3", "24"),
    "--out": st.sampled_from(["", "out.json", "missing/out.json", "dir"]),
    "--csv": st.sampled_from(["", "base", "missing/base", "dir"]),
}


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    (directory / "dir").mkdir()
    (directory / "model.json").write_text(json.dumps(SWAP_DOC))
    return directory


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_argv_gets_a_documented_exit_code(argv_dir, command, data):
    options = COMMAND_OPTIONS[command] - {"model"}
    flags = data.draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5))
    if command == "family" and "--y" not in flags and data.draw(st.integers(0, 4)):
        flags.append("--y")  # the required option, left out in one draw of five
    if command == "suite" and "--count" not in flags:
        flags.append("--count")  # the default runs 50 models
    argv = [command, str(argv_dir / "model.json")] if "model" in COMMAND_OPTIONS[command] else [command]
    for flag in flags:
        for value in data.draw(st.lists(OPTION_VALUES[flag], min_size=1, max_size=2 if flag == "--delta" else 1)):
            if flag in ("--out", "--csv") and value:
                value = str(argv_dir / value)
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's refusals
            code = exc.code
    assert code in EXIT_CODES, (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
