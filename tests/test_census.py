"""Smoke test of the census tool (tools/census.py) on a few suite models."""

import hashlib
import json
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

from caralab.suite import SuiteConfig, run_suite

CENSUS_PATH = Path(__file__).resolve().parents[1] / "tools" / "census.py"


@pytest.fixture(scope="module")
def census():
    return SimpleNamespace(**runpy.run_path(str(CENSUS_PATH), run_name="census"))


def test_parse_seeds(census):
    assert census.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert census.parse_seeds("14") == [14]


def test_census_lists_the_failing_model_and_the_margins(census, capsys):
    # seed 14, model 11: a dim-1 purely singular model whose linearity
    # defect falls under the cross-check's cutoff
    result = census.run_census([14], count=12)
    assert result.models == 12
    assert [(seed, r.index) for seed, r in result.failures] == [(14, 11)]
    (seed, record), = result.failures
    assert [c.name for c in record.checks if not c.passed] == ["classification_cross_check"]
    assert set(result.tightest) >= {"model_identity", "derivative_agreement", "classification_cross_check"}
    for ratio, _, _ in result.tightest.values():
        assert ratio <= 1.0
    assert census.main(["--seeds", "14", "--count", "12"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("12 models, 1 failing\n")
    # one md5 over the sorted-key JSON of each seed's report
    report = json.dumps(run_suite(SuiteConfig(seed=14, count=12)).to_json(), sort_keys=True)
    assert out.splitlines()[1] == f"suite JSON md5 {hashlib.md5(report.encode()).hexdigest()}"
    assert "FAIL 14/11 dim 1 " in out and "classification_cross_check (worst " in out


def test_md5_runs_over_every_seed_in_order(census):
    digest = hashlib.md5()
    for seed in (5, 3):
        digest.update(json.dumps(run_suite(SuiteConfig(seed=seed, count=2)).to_json(), sort_keys=True).encode())
    assert census.run_census([5, 3], count=2).digest.hexdigest() == digest.hexdigest()
