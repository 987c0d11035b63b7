"""The benchmark's workloads: job lists for ``hypergrid.cli.run``.

A job is a dict of ``JobConfig`` keyword arguments.  This module builds
them from the benchmark seed and never imports hypergrid, so the oracle
and the orchestrating process stay independent of the code under test.

Sizes are shrunk from the acceptance-pinned ones so that one pass of a
job list takes about a second and a run of ``--seconds`` holds 20 or
more passes; sampled-mix, whose pinned log(1+x) job alone takes
seconds, makes two.  Where tau shrinks below what a pass verdict at the pinned H
needs, H shrinks with it; expressions, exhaustive or sampled mode, and
verdicts are the pinned ones.

Sampled jobs take their sampling seeds from ``SEED_POOL``, chosen by
the benchmark seed; ``expected.json`` holds the output recorded for
every job any seed can produce.
"""

import os
import random
from dataclasses import dataclass

K = 10**12  # the CLI's default K
EXPRESSIONS = ("x^2", "x^3 - x/2", "exp(x)", "x*exp(x)")
SEED_POOL = tuple(range(16))
PINNED_SECANT = (2**12, 64, 247_843)  # the acceptance-pinned secant job: tau, H, pairs


@dataclass(frozen=True)
class Template:
    """``count`` copies of one job; a seeded job draws each copy's
    sampling seed from SEED_POOL, so copies differ only in the seed."""

    count: int
    job: dict
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    """A named job list; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    templates: tuple  # full size
    smoke: tuple  # tiny tau, for the benchmark's own smoke test
    probe_tau: int  # grid for the O(tau) layer probes of a traced run


def _check(kind, expr, tau, H, **extra):
    return dict(command="check", check=kind, expr_text=expr, tau=tau, H=H, K=K,
                json_out=True, **extra)


def _exhaustive(kind, tau, H):
    return tuple(Template(1, _check(kind, e, tau, H)) for e in EXPRESSIONS)


def _integrate(tau, workers):
    return (Template(1, dict(command="integrate", expr_text="x*exp(x)", tau=tau,
                             H=1000, K=K, json_out=True, workers=workers)),)


def _sampled_mix(log_tau, gi_tau, gi_H, gi_samples, limit_tau, limit_samples):
    # Counts are chosen so that the median job is a grid-independence
    # job and the tail percentile (10 jobs beyond it) falls among the
    # limit jobs, whatever the number of passes a run makes.  The
    # log(1+x) job, one per pass, is always beyond the tail, so its
    # layers (continuity, log) show in wall_s, not in job_tail_s.
    return (
        Template(1, _check("continuity", "log(1+x)", log_tau, 1000), seeded=True),
        Template(12, _check("grid-independence", "exp(x)", gi_tau, gi_H,
                            tau2=3 * gi_tau, samples=gi_samples), seeded=True),
        Template(6, _check("limit", "x^2", limit_tau, 1000, samples=limit_samples),
                 seeded=True),
        Template(6, _check("limit", "x*exp(x)", limit_tau, 1000, samples=limit_samples),
                 seeded=True),
        Template(4, _check("continuity", "1/(x - 1/2)", 101, 100)),
        Template(4, dict(command="sum", series="geometric:9/10", tau=2**16, H=1000,
                         K=K, json_out=True)),
    )


def nproc():
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ftc-exhaustive",
            _exhaustive("ftc", 2**11, 32),
            _exhaustive("ftc", 2**7, 2),
            2**11,
        ),
        Workload(
            "secant-exhaustive",
            _exhaustive("secant", 2**8, 16),
            _exhaustive("secant", 2**5, 2),
            2**8,
        ),
        Workload(
            "sampled-mix",
            _sampled_mix(2**17, 10**4, 1000, 256, 10**6, 128),
            _sampled_mix(2**10, 100, 10, 16, 10**4, 8),
            2**10,
        ),
        Workload(
            "integrate-parallel",
            _integrate(2**14, nproc()),
            _integrate(2**8, nproc()),
            2**14,
        ),
    )
}

#: For each per-layer metric: the end-to-end metric it should move, and where.
LAYER_TARGETS = {
    "expr.compile_s": "setup_s on every workload",
    "gridfun.eval_cold_s": "wall_s on ftc-exhaustive; a small share on sampled-mix",
    "gridfun.eval_warm_s": "wall_s on ftc-exhaustive; a small share on sampled-mix",
    "gridfun.certificate_s": "wall_s on secant-exhaustive",
    "gridfun.continuity_s": "wall_s on sampled-mix, where the log(1+x) job is most of a pass",
    "series.exp_us": "wall_s on sampled-mix and on the exp integrands of ftc-exhaustive",
    "series.stop_index_mean": "wall_s on sampled-mix and ftc-exhaustive (exp integrands)",
    "series.log_us": "wall_s on sampled-mix, where the log(1+x) job is most of a pass",
    "calculus.prefix_s": "wall_s and peak_rss_mb on ftc-exhaustive",
    "calculus.prefix_parallel_s": "wall_s on integrate-parallel",
    "calculus.check_s": "wall_s on every workload",
    "sampling.indices_s": "job_p50_s on sampled-mix",
    "grid.round_us": "job_p50_s on sampled-mix",
    "rational.max_bits": "peak_rss_mb and wall_s on ftc-exhaustive",
    "cli.serialize_us": "job_p50_s on sampled-mix",
    "trace.overhead_s": "none: traced minus untraced wall time of one pass",
}


def _templates(workload: Workload, smoke: bool):
    return workload.smoke if smoke else workload.templates


def jobs(name: str, seed: int, smoke: bool = False) -> list:
    """The job list of one pass, generated from the benchmark seed."""
    rng = random.Random(seed)
    out = []
    for t in _templates(WORKLOADS[name], smoke):
        for _ in range(t.count):
            job = dict(t.job)
            if t.seeded:
                job["seed"] = rng.choice(SEED_POOL)
            out.append(job)
    rng.shuffle(out)
    return out


def all_jobs(name: str, smoke: bool = False) -> list:
    """Every distinct job any seed can put in the workload's list."""
    out = []
    for t in _templates(WORKLOADS[name], smoke):
        seeds = SEED_POOL if t.seeded else (None,)
        for s in seeds:
            job = dict(t.job)
            if s is not None:
                job["seed"] = s
            out.append(job)
    return out


def job_key(job: dict) -> str:
    """Identity of a job's output: every field but ``workers``, which the
    paper's bit-identity claim says cannot change it."""
    return " ".join(f"{k}={job[k]}" for k in sorted(job) if k != "workers")


def subjects(name: str, smoke: bool = False) -> list:
    """Distinct (expression, tau, H) of a workload, for setup and probes."""
    seen = {}
    for t in _templates(WORKLOADS[name], smoke):
        j = t.job
        if "expr_text" in j:
            seen.setdefault((j["expr_text"], j["tau"]), j["H"])
            if "tau2" in j:
                seen.setdefault((j["expr_text"], j["tau2"]), j["H"])
    return [(e, tau, H) for (e, tau), H in seen.items()]
