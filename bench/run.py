"""hypergrid benchmark: time to verdict on four CLI workloads.

    python3 bench/run.py --workload ftc-exhaustive --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload is a job list (see ``workloads.py``) that one client runs
in a closed loop through ``hypergrid.cli.run``, in-process: each job
starts when the previous one returns.  The only threads are the
``workers = nproc`` of the integrate job.

With ``--trace 0`` a run measures, with tracing off:

* ``setup_s``: median over fresh processes of interpreter start,
  ``import hypergrid`` and parse plus compile of the workload's
  expressions, up to the first evaluation;
* in one more fresh process, whole passes of the job list for about
  ``--seconds``: ``wall_s`` (median pass), ``probes_per_s`` (samples of
  one pass over ``wall_s``), ``job_p50_s`` and ``job_tail_s`` (per-job
  latency at the highest percentile with at least 10 jobs beyond it),
  and ``peak_rss_mb`` of that process.

Times are in reference seconds (``speed.py``): wall time corrected for
the host's speed, which a calibration loop samples during the run.  A
workload whose jobs run more than one worker (integrate-parallel), and
every traced run, is timed in raw wall seconds, since the calibration
would compete with the program's own threads or processes.

With ``--trace 1`` it reports the per-layer metrics of ``tracing.py``
instead.  Every output goes through the oracle (``oracle.py``); a job
that raises, differs from the oracle, differs between two runs of
itself, or whose parallel reduction differs from the serial one is
counted in ``failed``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of the
run, with the environment it ran in, goes to ``bench/results/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from speed import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUPS = 9
SETUP_ROUNDS = 10
TAIL_BEYOND = 10
RUN_LIMIT_S = 170  # a run, with its set-up, must end within 180 s

SETUP_CODE = f"""\
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import calibration_round
def rounds():
    start = time.monotonic()
    for _ in range({SETUP_ROUNDS}):
        calibration_round()
    return time.monotonic() - start
before = rounds()
sys.path.insert(0, sys.argv[2])
import hypergrid.cli
from hypergrid import expr
from hypergrid.grid import GridSpec
for text, tau in zip(sys.argv[3::2], sys.argv[4::2]):
    expr.compile(expr.parse(text), GridSpec(int(tau)))
ready = time.monotonic()
print(ready, before, rounds())
"""


def setup_seconds(subjects) -> float:
    """Fresh interpreter to compiled expressions, timed from outside, in
    reference seconds: the process times calibration rounds before it
    imports hypergrid and after it has compiled (not counted)."""
    args = [str(x) for text, tau, _ in subjects for x in (text, tau)]
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, HERE, SRC, *args],
                          capture_output=True, text=True, timeout=60, check=True)
    ready, before, after = map(float, done.stdout.split())
    per_round = (before + after) / (2 * SETUP_ROUNDS)
    return (ready - start - before) * REF_S / per_round


def run_worker(config: dict, deadline: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def _check_outputs(jobs, outputs, expected, problems):
    """Oracle verdict per job: True when its output is right."""
    ok = []
    for i, (job, (code, text)) in enumerate(zip(jobs, outputs)):
        if code is None:
            found = [f"raised {text}"]
        else:
            found = oracle.problems(job, oracle.project(job, code, text), expected)
        problems.extend(f"job {i} ({workloads.job_key(job)}): {p}" for p in found)
        ok.append(not found)
    return ok


def _count(ok, mismatches, runs_each):
    """(attempted, failed) over runs_each runs of every job."""
    attempted = runs_each * len(ok)
    failed = sum(runs_each if not good else m for good, m in zip(ok, mismatches))
    return attempted, failed


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    units = metric_units("per_layer" if trace else "end_to_end")
    jobs = workloads.jobs(name, seed, smoke)
    expected = oracle.load_expected()
    config = {"workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
              "mode": "trace" if trace else "loop"}
    problems, notes = [], []
    if trace:
        result = run_worker(config, deadline)
        ok = _check_outputs(jobs, result["first"], expected, problems)
        attempted, failed = _count(ok, result["mismatches"], 2 * result["passes"])
        metrics = result["metrics"]
        notes.append(f"traced passes {result['passes']}; spans in {result['spans']}")
        for k in sorted(workloads.LAYER_TARGETS):
            notes.append(f"{k} should move {workloads.LAYER_TARGETS[k]}")
    else:
        subjects = workloads.subjects(name, smoke)
        setups = [setup_seconds(subjects) for _ in range(SETUPS)]
        result = run_worker(config, deadline)
        ok = _check_outputs(jobs, result["first"], expected, problems)
        passes = result["passes"]
        attempted, failed = _count(ok, result["mismatches"], len(passes))
        walls = [p["wall"] for p in passes]
        latencies = [x for p in passes for x in p["latencies"]]
        wall = statistics.median(walls)
        samples = sum(oracle.samples_of(job, text) for job, (code, text)
                      in zip(jobs, result["first"]) if code is not None)
        tail_s, pct, beyond = tail(latencies)
        metrics = {
            "wall_s": wall,
            "probes_per_s": samples / wall,
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes.append(f"passes {len(passes)} of {len(jobs)} jobs; {samples} samples per pass;"
                     f" raw wall per pass {statistics.median(p['raw_wall'] for p in passes):.4g} s")
        notes.append(f"job_tail_s is p{pct:.1f} of {len(latencies)} jobs, {beyond} beyond it")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} are not BENCHMARK.json's {sorted(units)}")
    metrics = {k: (metrics[k], unit) for k, unit in units.items()}
    for entry in result["parity"]:
        attempted += 1
        if not entry["equal"]:
            failed += 1
            problems.append(f"parallel reduction differs from serial ({entry['job']})")
    if any(result["mismatches"]):
        problems.append(f"outputs differ between runs of the same job: {result['mismatches']}")
    return {"workload": name, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems, "notes": notes,
            "raw": result}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search directories above the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": workloads.nproc(), "cpu": cpu_model(),
            "commit": git_commit(), "seed": seed}


def report(outcome: dict, env: dict, trace: int) -> None:
    name = outcome["workload"]
    print(f"== {name} (seed {env['seed']}, trace {trace})")
    for metric, (value, unit) in outcome["metrics"].items():
        print(f"{name} {metric} {value:.6g} {unit}")
    ratio = outcome["failed"] / outcome["attempted"]
    print(f"{name} error_ratio {ratio:.6g} ({outcome['failed']}/{outcome['attempted']})")
    for note in outcome["notes"]:
        print(f"{name} note: {note}")
    for problem in outcome["problems"][:20]:
        print(f"{name} PROBLEM: {problem}", file=sys.stderr)


def save(outcome: dict, env: dict, trace: int, smoke: bool) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    tag = "-smoke" if smoke else ""
    path = os.path.join(RESULTS, f"{outcome['workload']}-seed{env['seed']}-trace{trace}{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(outcome, env=env), handle, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypergrid", "__init__.py")):
        print(f"error: hypergrid sources not found under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        report(outcome, env, args.trace)
        save(outcome, env, args.trace, args.smoke)
        outcomes.append(outcome)

    prefix = len(names) > 1
    metrics = {
        (f"{o['workload']}/{k}" if prefix else k): {"value": v, "unit": u}
        for o in outcomes
        for k, (v, u) in o["metrics"].items()
    }
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
