"""Record the expected output of every job the benchmark can generate.

    python3 bench/record.py

Runs each distinct job of every workload, full size and smoke size,
through ``hypergrid.cli.run`` and writes the projections the oracle
compares against to ``bench/expected.json``.  Run it only at a commit
whose outputs are known good: the file is the reference that later
commits are held to.  It refuses to write when a closed-form check
fails, and takes a few minutes.
"""

import json
import sys

import oracle
import workloads
from worker import import_hypergrid


def main():
    import_hypergrid()
    from hypergrid.cli import JobConfig, run

    expected, bad = {}, 0
    for smoke in (False, True):
        for name in workloads.WORKLOADS:
            for job in workloads.all_jobs(name, smoke):
                code, text = run(JobConfig(**job))
                p = oracle.project(job, code, text)
                for problem in oracle.closed_form_problems(job, p):
                    print(f"{workloads.job_key(job)}: {problem}", file=sys.stderr)
                    bad += 1
                expected[workloads.job_key(job)] = p
    if bad:
        return 1
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(expected)} outputs in {oracle.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
