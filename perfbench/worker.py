"""One workload in one process: make its inputs, time it, check its outputs.

Started by run.py with BLAS/OpenMP pinned to one thread.  The last line
of stdout is a JSON object for run.py.  A round is the workload's whole
list of operations (suite models or CLI commands on model files); rounds
repeat until the time budget is spent, and every operation is timed on
its own, so wall_s and cpu_s are the sum over one round's operations of
each operation's mean time, scaled to reference seconds by the kernel
passes of calib.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calib
import inputs
import oracle

#: every run times at least this many rounds, unless they would take 1.5 times the budget
MIN_ROUNDS = 3


class Workload:
    """Inputs on disk plus one round of operations over them."""

    name = ""
    models = 1  # models per round, the base of the per-model counts

    def __init__(self):
        self.cal = calib.Calibration()  # kernel passes between operations

    def warmup(self) -> None:
        """Untimed pass over the same code paths, to settle lazy set-up."""

    def round(self, samples: list[tuple[float, float, float]]) -> int:
        """Run every operation once, appending (start, wall, cpu) per operation; returns failures."""
        raise NotImplementedError

    def check(self, checks: oracle.Checks) -> None:
        """Compare the last round's outputs with the oracle."""
        raise NotImplementedError


def timed(samples, fn, *args):
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        return fn(*args)
    finally:
        samples.append((w0, time.perf_counter() - w0, time.process_time() - c0))


class CliWorkload(Workload):
    """CLI commands on model files, each through cli.main with --out."""

    commands: tuple[str, ...] = ()

    def __init__(self, docs, workdir: Path):
        from caralab import cli

        super().__init__()
        self.cli = cli
        self.workdir = workdir
        self.paths = inputs.write_models(docs, workdir)
        self.models = len(self.paths)
        self.ops = [
            (self.out(p, c), self.argv(c, p, self.out(p, c))) for p in self.paths for c in self.commands
        ]
        self.first: dict[Path, bytes] = {}
        self.drift: list[str] = []
        self.failed_outs: set[Path] = set()  # outputs of failed operations go unchecked

    def argv(self, command: str, path: Path, out: Path) -> list[str]:
        argv = [command, str(path), "--out", str(out)]
        if command == "derivative":
            _, _, tau = inputs.read_model(path)
            for d1, d2 in oracle.derivative_deltas(tau):
                argv.append(f"--delta={d1.real!r},{d1.imag!r},{d2.real!r},{d2.imag!r}")
        return argv

    def out(self, path: Path, command: str) -> Path:
        return self.workdir / f"{path.stem}.{command}.out.json"

    def round(self, samples) -> int:
        failed = 0
        for out, argv in self.ops:
            self.cal.keep_up()
            try:
                code = timed(samples, self.cli.main, argv)
            except Exception:  # a traceback out of the CLI is a failed operation
                traceback.print_exc()
                code = None
            if code != 0:
                failed += 1
                self.failed_outs.add(out)
            data = out.read_bytes() if out.exists() else b""
            if self.first.setdefault(out, data) != data:
                self.drift.append(f"{out.name} changed between rounds")
        return failed

    def check(self, checks) -> None:
        for message in self.drift[:5]:
            checks.expect(False, message)
        for path in self.paths:
            truth = oracle.truth(*inputs.read_model(path))
            for command in self.commands:
                if self.out(path, command) not in self.failed_outs:
                    doc = json.loads(self.out(path, command).read_text())
                    getattr(checks, command)(doc, truth, path.stem)
            if path.stem == "swap" and self.out(path, "classify") not in self.failed_outs:
                checks.swap(json.loads(self.out(path, "classify").read_text()), path.stem)


class Desk64(CliWorkload):
    name = "desk64"
    commands = ("verify", "classify", "derivative")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(inputs.desk_docs(seed), workdir)

    def warmup(self) -> None:
        path = self.paths[0]
        out = self.workdir / "warmup.json"
        self.cli.main(["verify", str(path), "--pairs", "40", "--samples", "200", "--out", str(out)])
        self.cli.main(["classify", str(path), "--out", str(out)])


class Corpus(CliWorkload):
    name = "corpus"
    commands = ("classify", "derivative")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(inputs.corpus_docs(seed), workdir)

    def warmup(self) -> None:
        out = self.workdir / "warmup.json"
        for path in self.paths[:3]:
            for command in self.commands:
                self.cli.main(self.argv(command, path, out))


class Suite50(Workload):
    """run_suite(SuiteConfig(seed, count=50)) in process, one operation per model.

    A model's time runs from its generate_model call to the next one (or
    to the end of run_suite), so it covers generation, the checks and the
    classification of that model; kernel passes run in between, untimed.
    A model fails when one of its checks fails, except the checks in
    oracle.ORACLE_JUDGED, which the oracle judges after the timed body.
    """

    name = "suite50"
    models = 50

    def __init__(self, seed: int, workdir: Path):
        from caralab import suite

        super().__init__()
        self.suite = suite
        self.config = suite.SuiteConfig(seed=seed, count=self.models)
        self.captured: list[tuple[np.ndarray, np.ndarray, tuple[complex, complex]]] = []
        self.reports: list[dict] = []

    def _run(self, config, marks: list[tuple[float, float]] | None = None):
        """run_suite with a hook on generate_model that captures models and timestamps."""
        suite = self.suite
        generate = suite.generate_model
        capture = not self.captured and marks is not None

        def hooked(index, rng, config):
            if marks is not None:
                if marks:
                    marks.append((time.perf_counter(), time.process_time()))
                self.cal.keep_up()
                marks.append((time.perf_counter(), time.process_time()))
            model, kind, label = generate(index, rng, config)
            if capture:
                tau = (model.tau.tau1, model.tau.tau2)
                self.captured.append(
                    (model.pencil.contraction.matrix.copy(), model.colligation.block.copy(), tau)
                )
            return model, kind, label

        suite.generate_model = hooked
        try:
            return suite.run_suite(config)
        finally:
            suite.generate_model = generate

    def warmup(self) -> None:
        self._run(self.suite.SuiteConfig(seed=self.config.seed, count=3))

    def round(self, samples) -> int:
        marks: list[tuple[float, float]] = []
        report = self._run(self.config, marks)
        marks.append((time.perf_counter(), time.process_time()))
        for (w0, c0), (w1, c1) in zip(marks[::2], marks[1::2]):
            samples.append((w0, w1 - w0, c1 - c0))
        self.reports.append(report.to_json())
        return sum(
            any(not c.passed for c in r.checks if c.name not in oracle.ORACLE_JUDGED)
            for r in report.records
        )

    def check(self, checks) -> None:
        first = self.reports[0]
        checks.expect(all(r == first for r in self.reports), "suite reports differ between rounds")
        checks.expect(len(first["models"]) == self.models, "suite model count")
        for record, model in zip(first["models"], self.captured):
            checks.suite_record(record, oracle.truth(*model))


WORKLOADS = {w.name: w for w in (Suite50, Desk64, Corpus)}


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant) + 1,
    }
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    info["threads"] = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    return info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: Workload, seconds: float) -> dict:
    """Rounds until the budget is spent; times are per-operation means in reference seconds."""
    rounds: list[list[tuple[float, float, float]]] = []
    failed = 0
    workload.cal = calib.Calibration()  # only passes taken during the body count
    body0 = time.perf_counter()
    while True:
        samples: list[tuple[float, float, float]] = []
        failed += workload.round(samples)
        rounds.append(samples)
        projected = (time.perf_counter() - body0) * (len(rounds) + 1) / len(rounds)
        if projected > seconds and (len(rounds) >= MIN_ROUNDS or projected > 1.5 * seconds):
            break
    per_op = np.array(rounds)  # (rounds, ops, [start, wall, cpu])
    typical = per_op[:, :, 1:].mean(axis=0).sum(axis=0)
    cal = workload.cal
    return {
        "rounds": len(rounds),
        "ops": per_op.shape[1],
        "failed": failed,
        "wall_s": float(typical[0]) * cal.wall_scale,
        "cpu_s": float(typical[1]) * cal.cpu_scale,
        "raw_wall_s": float(typical[0]),
        "raw_cpu_s": float(typical[1]),
        "kernel_passes": len(cal.wall),
        "kernel_min_s": min(cal.wall),
        "kernel_mean_s": float(np.mean(cal.wall)),
        "round_wall_s": [float(x) for x in per_op[:, :, 1].sum(axis=1)],
        "round_cpu_s": [float(x) for x in per_op[:, :, 2].sum(axis=1)],
        "op_samples": per_op.tolist(),
        "kernel_samples": list(zip(cal.at, cal.wall, cal.cpu)),
        "body_s": time.perf_counter() - body0,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(workload: Workload, out_base: Path) -> dict:
    from tracer import Tracer
    import layers

    workload.cal.active = False  # kernel passes would land inside traced spans
    plain: list[tuple[float, float, float]] = []
    failed = workload.round(plain)
    tracer = Tracer()
    traced: list[tuple[float, float, float]] = []
    with tracer:
        failed += workload.round(traced)
    untraced_wall = sum(w for _, w, _ in plain)
    traced_wall = sum(w for _, w, _ in traced)
    metrics = layers.metrics(tracer, workload.models)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    spans = tracer.spans_jsonl(out_base.with_suffix(".jsonl.gz"))
    summary = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": spans,
        "by_name": tracer.by_name(),
        "errors": dict(tracer.errors),
        "metrics": metrics,
    }
    out_base.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return {"rounds": 2, "ops": len(plain), "failed": failed, "layers": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", help="base path of the trace files (with --trace 1)")
    p.add_argument("--setup-only", action="store_true", help="import and make the inputs, then exit")
    args = p.parse_args(argv)

    import caralab

    src = Path("src").resolve()
    if Path(caralab.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"caralab imported from {caralab.__file__}, not from {src}\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    if args.setup_only:
        return 0

    for _ in range(5):
        workload.cal.sample()  # the kernel's own warm-up
    workload.warmup()
    if args.trace:
        result = traced_run(workload, Path(args.trace_out))
    else:
        result = timed_run(workload, args.seconds)
    checks = oracle.Checks()
    workload.check(checks)
    result.update(
        attempted=result["rounds"] * result["ops"],
        correct=not checks.failures,
        checks=checks.count,
        check_failures=checks.failures[:20],
        machine=machine(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
