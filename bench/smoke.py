"""Self-test of the benchmark on tiny grids.

    python3 bench/smoke.py

Runs all four workloads at smoke size, untraced and traced, through the
oracle (``run.py`` also checks that their metrics are the ones
BENCHMARK.json names), and feeds the oracle deliberately corrupted
reports, which it must reject.  Exits 0 when all of that holds; takes
under a minute.
"""

import json
import os
import sys
from fractions import Fraction

import oracle
import run
import workloads
from worker import import_hypergrid


def corrupted_reports_are_rejected(expected) -> list:
    """A real report passes; the same report with one field altered fails."""
    import_hypergrid()
    from hypergrid.cli import JobConfig, run as cli_run

    failures = []
    job = workloads.all_jobs("ftc-exhaustive", smoke=True)[0]
    code, text = cli_run(JobConfig(**job))
    record = json.loads(text)
    if oracle.problems(job, oracle.project(job, code, text), expected):
        failures.append("the genuine report was rejected")
    for field, wrong in (
        ("max_gap", str(Fraction(record["max_gap"]) + Fraction(1, 2**40))),
        ("verdict", "fail"),
        ("samples", record["samples"] - 1),
    ):
        bad = json.dumps(dict(record, **{field: wrong}))
        if not oracle.problems(job, oracle.project(job, code, bad), expected):
            failures.append(f"a report with a corrupted {field} was accepted")
    return failures


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    if oracle.secant_pairs(*workloads.PINNED_SECANT[:2]) != workloads.PINNED_SECANT[2]:
        failures.append("secant pair formula misses the pinned count")
    failures += corrupted_reports_are_rejected(oracle.load_expected())
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            outcome = run.run_workload(name, seed=1, seconds=0.1, trace=trace, smoke=True)
            label = f"{name} trace {trace}"
            failures += [f"{label}: {p}" for p in outcome["problems"]]
            if not outcome["correct"]:
                failures.append(f"{label}: {outcome['failed']}/{outcome['attempted']} failed")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke ok" if not failures else f"smoke FAILED ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
