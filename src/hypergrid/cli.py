"""Command-line front end: evaluate expressions on a grid, take
difference quotients, integrate, run verification checks, and probe
countable sums.

Exit status: 0 for success or a passing check, 2 for a failing check,
1 for usage and domain errors.  With ``--json`` every command emits one
JSON record (schema 1) with deterministic byte layout: keys are sorted,
separators fixed, and all rationals rendered exactly as strings, so a
fixed seed reproduces reports byte for byte.

``--domain a b`` lets expressions live on [a, b]: the variable is
substituted with a + (b-a)x before compilation, evaluation points are
mapped into [0, 1], and difference quotients / integrals are rescaled
by the interval length on the way out; an evaluation error names its
grid point p as a + (b-a)p, in the domain's coordinates.

``--workers`` is checked (at least 1) and changes nothing: every grid
reduction is one serial running sum.

The environment variable HYPERGRID_MAX_TAU, when set, caps the grid
resolution any invocation may request, the second grid of a
grid-independence check (3 * tau unless ``--tau2`` is given) included.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from . import expr as expr_mod
from .calculus import (
    ftc_check,
    grid_independence_check,
    integral,
    limit_check,
    quotient_function,
    secant_check,
)
from .context import DEFAULT_K, CheckReport, ObservationContext
from .errors import DomainError, EvaluationError, HypergridError, ResourceLimitError
from .grid import GridSpec, round_to_grid
from .gridfun import MATERIALIZE_LIMIT, continuity_check
from .rational import brief_rational, format_rational, parse_rational, render_decimal
from .sampling import SamplingPlan, sample_unit_fractions
from .series import TruncationPolicy, countable_sum, is_unstable

CHECK_KINDS = ("ftc", "grid-independence", "secant", "limit", "continuity")


@dataclass(frozen=True)
class JobConfig:
    """One CLI invocation, fully resolved: grid and context parameters
    plus the command payload (expression text, points, series, seed).

    Every default of the command line is declared here and nowhere else:
    the parsers leave absent flags out, so an absent flag takes its
    field's default.  ``workers`` is checked (at least 1) and selects
    nothing; only the benchmark reads it."""

    command: str
    tau: int = 2**16
    H: int = 1000
    K: int = DEFAULT_K
    seed: int = 0
    expr_text: Optional[str] = None
    at: Optional[str] = None
    check: Optional[str] = None
    tau2: Optional[int] = None
    samples: int = 1024
    series: Optional[str] = None
    sum_cap: int = 2**16
    exp_mode: str = "tail"
    guard: int = 64
    domain: Optional[Tuple[Fraction, Fraction]] = None
    json_out: bool = False
    digits: int = 12
    workers: int = 1


class _Parser(argparse.ArgumentParser):
    """Leaves an absent flag out of the namespace, so that it takes its
    JobConfig field's default, and reports usage errors as DomainError."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise DomainError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--tau", type=int)
    common.add_argument("--H", type=int)
    common.add_argument("--K", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--exp-mode", choices=("full", "tail"))
    common.add_argument("--guard", type=int)
    common.add_argument("--domain", nargs=2, metavar=("A", "B"))
    common.add_argument("--json", action="store_true", dest="json_out")
    common.add_argument("--digits", type=int)
    common.add_argument("--file", help="read the expression from a file")
    common.add_argument("--workers", type=int)

    parser = _Parser(prog="hypergrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("eval", "diff", "integrate"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("expr", nargs="?")
        # absent: the left end of the working domain, the right end for
        # integrate (the full integral), whatever the domain is
        p.add_argument("--at")

    p = sub.add_parser("check", parents=[common])
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("expr", nargs="?")
    p.add_argument("--tau2", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("sum", parents=[common])
    p.add_argument("series")
    p.add_argument("--sum-cap", type=int)
    return parser


# the positionals whose parser names (shown by --help) are not field names
_RENAMED = {"expr": "expr_text", "kind": "check"}


def build_job(argv=None) -> JobConfig:
    args = vars(_build_parser().parse_args(argv))
    fields = {_RENAMED.get(name, name): value for name, value in args.items()}
    path = fields.pop("file", None)
    if path is not None:
        if "expr_text" in fields:
            raise DomainError("give the expression either inline or via --file")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                fields["expr_text"] = handle.read().strip()
        except OSError as exc:
            raise DomainError(f"cannot read {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise DomainError(f"cannot read {path}: not UTF-8 text") from None
    job = JobConfig(**fields)
    for flag, value in (("--samples", job.samples), ("--workers", job.workers)):
        if value < 1:
            raise DomainError(f"{flag} must be at least 1, got {value}")
    for flag, value in (("--samples", job.samples), ("--sum-cap", job.sum_cap)):
        if value > MATERIALIZE_LIMIT:
            raise ResourceLimitError(f"{flag} {value} exceeds the limit {MATERIALIZE_LIMIT}")
    if job.domain is None:
        return job
    a, b = (parse_rational(s) for s in job.domain)
    if b <= a:
        raise DomainError(f"empty domain [{brief_rational(a)}, {brief_rational(b)}]")
    return replace(job, domain=(a, b))


def _enforce_cap(job: JobConfig):
    cap = os.environ.get("HYPERGRID_MAX_TAU")
    if cap is None:
        return
    try:
        limit = int(cap)
    except ValueError:
        raise DomainError(f"HYPERGRID_MAX_TAU must be an integer, got {cap!r}") from None
    for tau in (job.tau, _tau2(job)):
        if tau is not None and tau > limit:
            raise DomainError(f"tau={tau} exceeds HYPERGRID_MAX_TAU={limit}")


def _tau2(job: JobConfig) -> Optional[int]:
    """The second grid of a grid-independence check, 3 * tau unless given."""
    if job.tau2 is None and job.check == "grid-independence":
        return 3 * job.tau
    return job.tau2


def _policy(job: JobConfig) -> TruncationPolicy:
    mode = "full" if job.exp_mode == "full" else "tail-bounded"
    return TruncationPolicy(mode, job.guard)


def _tree(job: JobConfig):
    if not job.expr_text:
        raise DomainError("an expression is required (inline or --file)")
    tree = expr_mod.parse(job.expr_text)
    if job.domain is not None:
        tree = expr_mod.on_domain(tree, *job.domain)
    return tree


def _unit_point(job: JobConfig, fallback: Fraction) -> Fraction:
    if job.at is None:
        return fallback
    point = s = parse_rational(job.at)
    if job.domain is not None:
        a, b = job.domain
        s = (s - a) / (b - a)
    if not 0 <= s <= 1:
        raise DomainError(f"point {brief_rational(point)} falls outside the working domain")
    return s


def _scale(job: JobConfig) -> Fraction:
    if job.domain is None:
        return Fraction(1)
    a, b = job.domain
    return b - a


def _dumps(record: dict) -> str:
    """A JSON record in the fixed byte layout: sorted keys, no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _value_record(job: JobConfig, command: str, value: Fraction, label: str):
    if job.json_out:
        record = {
            "schema": 1,
            "command": command,
            "tau": job.tau,
            "context": {"H": job.H, "K": job.K},
            label: format_rational(value),
            "decimal": render_decimal(value, job.digits),
        }
        if job.at is not None:
            record["at"] = str(parse_rational(job.at))
        return _dumps(record)
    return f"{format_rational(value)}\n= {render_decimal(value, job.digits)}"


def _report_text(job: JobConfig, report: CheckReport) -> str:
    if job.json_out:
        return _dumps(report.to_dict())
    lines = [
        f"check {report.check}: {report.verdict}"
        f" (mode={report.mode}, samples={report.samples},"
        f" max_gap={format_rational(report.max_gap)},"
        f" tolerance={format_rational(report.tolerance)})"
    ]
    if report.witness is not None:
        lines.append(f"witness: {report.witness}")
    for key, val in sorted(report.detail.items()):
        lines.append(f"{key}: {val}")
    return "\n".join(lines)


def _series_term(name: str):
    if name == "zeros":
        return lambda n: Fraction(0)
    if name == "harmonic":
        return lambda n: Fraction(1, n + 1)
    if name == "inverse-squares":
        return lambda n: Fraction(1, (n + 1) ** 2)
    if name.startswith("geometric:"):
        ratio = parse_rational(name.split(":", 1)[1])
        return lambda n: ratio**n
    raise DomainError(
        f"unknown series {name!r}; use zeros, harmonic, inverse-squares,"
        " or geometric:<ratio>"
    )


def _run_sum(job: JobConfig, ctx: ObservationContext):
    term = _series_term(job.series)
    outcome = countable_sum(term, ctx, job.sum_cap)
    if is_unstable(outcome):
        verdict, value = "unstable", None
    elif not outcome.is_finite:
        verdict = "plus-infinity" if outcome.infinity_sign > 0 else "minus-infinity"
        value = None
    else:
        verdict, value = "finite", outcome.representative
    if job.json_out:
        record = {
            "schema": 1,
            "command": "sum",
            "series": job.series,
            "cap": job.sum_cap,
            "context": {"H": job.H, "K": job.K},
            "verdict": verdict,
            "value": None if value is None else format_rational(value),
        }
        if value is not None:
            record["decimal"] = render_decimal(value, job.digits)
        return 0, _dumps(record)
    if value is None:
        return 0, f"sum {job.series}: {verdict} (cap={job.sum_cap})"
    return 0, (
        f"sum {job.series}: {format_rational(value)}"
        f"\n= {render_decimal(value, job.digits)}"
    )


def _run_check(job: JobConfig, ctx: ObservationContext):
    policy = _policy(job)
    spec = GridSpec(job.tau)
    plan = SamplingPlan(seed=job.seed, random_points=job.samples, exhaustive_limit=2**16 + 1)
    f = expr_mod.compile(_tree(job), spec, policy)

    if job.check == "ftc":
        report = ftc_check(f, ctx, plan)
    elif job.check == "secant":
        report = secant_check(f, ctx, plan)
    elif job.check == "grid-independence":
        f2 = expr_mod.compile(_tree(job), GridSpec(_tau2(job)), policy)
        report = grid_independence_check(f, f2, ctx, job.samples, job.seed)
    elif job.check == "limit":
        if ctx.H < 4:  # the points below lie between 2/H and 1 - 4/H, negative for H < 4
            raise DomainError(f"check limit needs H >= 4, got H={ctx.H}")
        margin = 2 * ctx.infinitesimal_scale
        span = 1 - 3 * margin
        points = [margin + u * span for u in sample_unit_fractions(job.samples, job.seed)]
        report = limit_check(f, ctx, points)
    else:
        report = continuity_check(f, ctx, plan)
    return (0 if report else 2), _report_text(job, report)


def run(job: JobConfig):
    """Execute a job; returns (exit_code, output_text)."""
    try:
        return _run(job)
    except RecursionError:
        # evaluation recurses once per algebra node, so nesting is bounded
        # by the interpreter's stack rather than by a guard of its own
        raise ResourceLimitError(
            "expression nests too deeply to evaluate"
            f" (Python recursion limit {sys.getrecursionlimit()})"
        ) from None
    except EvaluationError as exc:
        if job.domain is None or exc.point is None:
            raise
        # name the point in the domain's coordinates, a + (b - a) p
        a, b = job.domain
        where = a + (b - a) * exc.point.value
        raise EvaluationError(f"{exc.reason} at grid point {where}") from None


def _run(job: JobConfig):
    _enforce_cap(job)
    ctx = ObservationContext(job.H, job.K)

    if job.command == "sum":
        return _run_sum(job, ctx)
    if job.command == "check":
        return _run_check(job, ctx)

    spec = GridSpec(job.tau)
    f = expr_mod.compile(_tree(job), spec, _policy(job))
    u = _unit_point(job, Fraction(1 if job.command == "integrate" else 0))
    x = round_to_grid(u, spec)

    if job.command == "eval":
        return 0, _value_record(job, "eval", f(x), "value")
    if job.command == "diff":
        value = quotient_function(f)(x) / _scale(job)
        return 0, _value_record(job, "diff", value, "quotient")
    if job.command == "integrate":
        value = integral(f, ctx)(x) * _scale(job)
        return 0, _value_record(job, "integrate", value, "value")
    raise DomainError(f"unknown command {job.command!r}")


def main(argv=None) -> int:
    try:
        job = build_job(argv)
        code, text = run(job)
    except HypergridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
