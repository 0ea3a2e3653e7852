"""Census of the randomized suite over many seeds.

Runs :func:`caralab.suite.run_suite` for every seed and prints each
failing model as seed/index, with its failing checks (worst against
bound) and the error that stopped it, then the tightest passing margin
(worst / bound, see :func:`margin`) of each check and the model where it
occurred, and one md5 over the suite JSON of every seed run
(``json.dumps(report.to_json(), sort_keys=True)``, seed after seed), so
that two versions of caralab can be shown to give byte-identical reports.
The census of seeds 1-200 at 50 models each (10,000 models) takes a few
minutes; it is not part of the test suite.

    PYTHONPATH=src python tools/census.py --seeds 1-200 [--count 50]

Seeds are a comma-separated list of numbers and inclusive ranges a-b.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, field

from caralab.suite import CheckOutcome, ModelRecord, SuiteConfig, run_suite


@dataclass
class Census:
    """Failing models and the tightest passing margin of each check."""

    models: int = 0
    failures: list[tuple[int, ModelRecord]] = field(default_factory=list)
    #: check name -> (margin, seed, index) of its tightest pass; see :func:`margin`
    tightest: dict[str, tuple[float, int, int]] = field(default_factory=dict)
    #: md5 over the sorted-key JSON of each seed's report, in seed order
    digest: hashlib._Hash = field(default_factory=hashlib.md5)


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_census(seeds, count: int = 50) -> Census:
    census = Census()
    for seed in seeds:
        report = run_suite(SuiteConfig(seed=seed, count=count))
        census.digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        for record in report.records:
            census.models += 1
            if not record.passed:
                census.failures.append((seed, record))
            for check in record.checks:
                best = census.tightest.get(check.name)
                if check.passed and (best is None or margin(record, check) > best[0]):
                    census.tightest[check.name] = (margin(record, check), seed, record.index)
    return census


def margin(record: ModelRecord, check: CheckOutcome) -> float:
    """worst / bound; 1 is the edge of failing.

    The classification cross-check of a (purely) singular model needs its
    linearity defect above the bound, so there the margin is bound / worst.
    """
    if check.name == "classification_cross_check" and record.classification in ("singular", "purely_singular"):
        return check.bound / check.worst
    return check.worst / check.bound


def format_census(census: Census) -> str:
    lines = [f"{census.models} models, {len(census.failures)} failing", f"suite JSON md5 {census.digest.hexdigest()}"]
    for seed, record in census.failures:
        failed = ", ".join(f"{c.name} (worst {c.worst:.3g}, bound {c.bound:.3g})" for c in record.checks if not c.passed)
        lines.append(
            f"FAIL {seed}/{record.index} dim {record.dim} {record.spectrum_kind} "
            f"{record.classification}: {failed}"
        )
        if record.error is not None:
            lines.append(f"     error: {record.error}")
    lines.append("tightest pass of each check, as worst / bound (bound / worst for the cross-check of a singular model):")
    for name, (ratio, seed, index) in sorted(census.tightest.items()):
        lines.append(f"  {name:28s} {ratio:10.3g}  {seed}/{index}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-200", help="seeds, e.g. 1-200 or 14,40 (default 1-200)")
    parser.add_argument("--count", type=int, default=50, help="models per seed (default 50)")
    args = parser.parse_args(argv)
    print(format_census(run_census(parse_seeds(args.seeds), args.count)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
