"""Smoke test of the output digest tool (tools/outputs.py)."""

import contextlib
import hashlib
import io
import os
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

from caralab.cli import main

OUTPUTS_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    return SimpleNamespace(**runpy.run_path(str(OUTPUTS_PATH), run_name="outputs"))


def test_one_md5_per_subcommand(outputs, capsys):
    assert outputs.main(["--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:16].rstrip() for line in lines] == ["classify", "derivative", "verify", "family"]
    assert all(len(line.split()[-1]) == 32 for line in lines)
    # reruns give the same digests, and another seed other model digests
    again = outputs.outputs(5)
    assert [f"{command:16s} {md5}" for command, md5 in again.items()] == lines
    other = outputs.outputs(6)
    assert other["classify"] != again["classify"] and other["family"] == again["family"]


def test_md5_runs_over_exit_codes_stdout_and_tables(outputs, tmp_path):
    (tmp_path / "m.json").write_text("{not json")
    md5 = hashlib.md5()
    home = os.getcwd()
    os.chdir(tmp_path)
    try:
        # a refused model file exits 2 and writes no table
        argvs = [["derivative", "m.json", "--csv", "out"], ["family", "--y", "1", "--csv", "out"]]
        digest = outputs.digest(argvs, tmp_path)
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            md5.update(f"{code}\n{out.getvalue()}".encode())
            for table in sorted(tmp_path.glob("out.*.csv")):
                md5.update(table.name.encode() + table.read_bytes())
                table.unlink()
    finally:
        os.chdir(home)
    assert digest == md5.hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
