"""caralab benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload suite50|desk64|corpus --seed N \
        --seconds S --trace 0|1

Run from the root of a caralab checkout; caralab is imported from its
`src/`.  The workload runs in a child process (worker.py) with
OpenBLAS/OpenMP pinned to one thread.  With --trace 0 the last stdout
line reports setup_s, wall_s, cpu_s and peak_rss_mb; with --trace 1 it
reports the per-layer metrics of one traced round (layers.py) and the
spans go to perfbench/out/.  Every run checks caralab's outputs against
oracle.py and writes a record with the machine description to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED)  # before NumPy loads, for the kernel passes here

import calib  # noqa: E402

HERE = Path(__file__).resolve().parent
#: timed set-ups per run, after one untimed one that warms the file and bytecode caches
SETUP_REPEATS = 9
#: a run must end within this many seconds
DEADLINE_S = 170.0


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("suite50", "desk64", "corpus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "caralab" / "__init__.py").is_file():
        return fail(f"no caralab sources under {root / 'src'}; run from the root of a checkout")
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layout in every run
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
    ]

    def child(extra: list[str]) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.perf_counter() - started)
        if left <= 0:
            raise subprocess.TimeoutExpired(worker, 0)
        return subprocess.run(worker + extra, env=env, cwd=root, capture_output=True, text=True, timeout=left)

    setups: list[float] = []  # raw seconds
    scaled: list[float] = []  # each scaled by the three kernel passes just before it
    try:
        if not args.trace:
            for i in range(SETUP_REPEATS + 1):
                cal = calib.Calibration()
                for _ in range(3):
                    cal.sample()
                t0 = time.perf_counter()
                proc = child(["--setup-only"])
                if proc.returncode != 0:
                    return fail(f"set-up failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
                if i:
                    setups.append(time.perf_counter() - t0)
                    scaled.append(setups[-1] * cal.wall_scale)
        trace_base = out_dir / f"trace-{args.workload}-s{args.seed}"
        proc = child(["--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-out", str(trace_base)])
    except subprocess.TimeoutExpired:
        return fail(f"no result within {DEADLINE_S:g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr[-4000:])  # messages of failed operations, if any
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = result.pop("layers")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "setup_s": statistics.median(scaled),
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    if set(values) != set(units):
        return fail(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, setup_scaled_s=scaled, result=line)
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    for failure in result.get("check_failures", []):
        sys.stderr.write(f"perfbench: check failed: {failure}\n")
    print(json.dumps({"machine": result["machine"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
