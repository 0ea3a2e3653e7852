"""One md5 per CLI subcommand over the outputs of a fixed set of runs.

Writes the first MODELS models that :func:`caralab.suite.generate_model`
draws for a seed, plus the README's swap model, to a temporary directory, and runs
through :func:`caralab.cli.main`:

- ``classify``, ``derivative`` and ``verify --pairs 40 --samples 200`` on
  each model;
- ``family`` for y in {0, 0.3, 0.5, 1} at tau in {(1,1), (-1,1), (1,i)}.

Each subcommand's md5 runs over the exit code, stdout and CSV tables of
its runs in order, so that two versions of caralab can be shown to give
byte-identical output.  Model paths are relative to the temporary
directory, which is the working directory during the runs.

    PYTHONPATH=src python tools/outputs.py --seed 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from caralab import GeneralizedRealization, OperatorPencil, dump_model, validate_colligation
from caralab import validate_positive_contraction
from caralab.cli import main as cli_main
from caralab.suite import SuiteConfig, generate_model

#: generated models per seed, before the swap model
MODELS = 8

FAMILY_YS = ("0", "0.3", "0.5", "1")
FAMILY_TAUS = ("1,1", "-1,1", "1,0,0,1")


def swap_model() -> GeneralizedRealization:
    """The README's swap colligation over Y = 0.5 at tau = (1, 1)."""
    y = validate_positive_contraction([[0.5]])
    return GeneralizedRealization(OperatorPencil(y, (1.0, 1.0)), validate_colligation([[0, 1], [1, 0]]))


def write_models(seed: int, directory: Path) -> list[str]:
    """The first MODELS models generate_model draws for ``seed``, then the swap model; their file names."""
    rng, config = np.random.default_rng(seed), SuiteConfig(seed=seed)
    models = [generate_model(index, rng, config)[0] for index in range(MODELS)] + [swap_model()]
    names = [f"m{index}.json" for index in range(MODELS)] + ["swap.json"]
    for name, model in zip(names, models):
        (directory / name).write_text(json.dumps(dump_model(model)))
    return names


def runs(names: list[str]) -> dict[str, list[list[str]]]:
    """Subcommand -> the argument lists of its runs, each writing CSV tables under the base name "out"."""
    return {
        "classify": [["classify", name] for name in names],
        "derivative": [["derivative", name, "--csv", "out"] for name in names],
        "verify": [["verify", name, "--pairs", "40", "--samples", "200", "--csv", "out"] for name in names],
        "family": [
            ["family", "--y", y, f"--tau={tau}", "--csv", "out"] for y in FAMILY_YS for tau in FAMILY_TAUS
        ],
    }


def digest(argvs: list[list[str]], directory: Path) -> str:
    """md5 over each run's exit code, stdout and CSV tables (by name), run after run, in ``directory``."""
    md5 = hashlib.md5()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        md5.update(f"{code}\n{out.getvalue()}".encode())
        for table in sorted(directory.glob("out.*.csv")):
            md5.update(table.name.encode() + table.read_bytes())
            table.unlink()
    return md5.hexdigest()


def outputs(seed: int) -> dict[str, str]:
    """Subcommand -> md5 of its runs on the models of ``seed``."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        names = write_models(seed, directory)
        os.chdir(directory)
        try:
            return {command: digest(argvs, directory) for command, argvs in runs(names).items()}
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5, help="seed of the generated models (default 5)")
    args = parser.parse_args(argv)
    for command, md5 in outputs(args.seed).items():
        print(f"{command:16s} {md5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
