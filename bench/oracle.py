"""Output oracle: is a job's output what it must be?

Two kinds of evidence, both independent of the code under test:

* closed forms and float reference values, computed here with the
  standard library (exact where the answer has a closed form, to 1e-9
  relative where it is a real number the truncated series approximates);
* the outputs recorded at the seed commit (``expected.json``, written by
  ``record.py``), compared field by field.

Outputs are first reduced to a *projection*: the exit code and the
fields a reader of the report acts on.  The oracle never imports
hypergrid.
"""

import json
import math
import os
from fractions import Fraction

from workloads import job_key

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
REL_TOL = 1e-9


def project(job: dict, code: int, text: str) -> dict:
    """The checked fields of one ``cli.run`` result."""
    record = json.loads(text)
    if job["command"] == "integrate":
        return {"code": code, "value": record["value"]}
    if job["command"] == "sum":
        return {"code": code, "verdict": record["verdict"], "value": record["value"]}
    return {
        "code": code,
        "verdict": record["verdict"],
        "samples": record["samples"],
        "max_gap": record["max_gap"],
        "tolerance": record["tolerance"],
        "witness": record.get("witness"),
        "detail": record.get("detail", {}),
    }


def samples_of(job: dict, text: str) -> int:
    """Points, pairs or probes behind one output (the tau + 1 points
    reduced, for integrate; a sum reports none)."""
    if job["command"] == "integrate":
        return job["tau"] + 1
    return json.loads(text).get("samples", 0)


def secant_pairs(tau: int, H: int) -> int:
    """Admissible (anchor, offset) pairs of an exhaustive secant check:
    offsets k with max(4/tau, 1/H^2) <= k/tau <= 1/H, anchors n < tau
    with n + k <= tau."""
    lo = max(Fraction(4, tau), Fraction(1, H * H))
    lo_steps = math.ceil(lo * tau)
    hi_steps = tau // H
    return sum(tau - k + 1 for k in range(lo_steps, min(hi_steps, tau) + 1))


def _close(got: Fraction, want: float) -> bool:
    return abs(float(got) - want) <= REL_TOL * max(1.0, abs(want))


def _ftc_max_gap(expr: str, tau: int):
    """max |f(u + eps) - f(u)| over the grid: every integrand is convex
    and increasing on [0, 1], so the last step is the largest."""
    eps = Fraction(1, tau)
    if expr == "x^2":
        return Fraction(2 * tau - 1, tau * tau)
    if expr == "x^3 - x/2":
        return Fraction(5, 2) * eps - 3 * eps**2 + eps**3
    u = 1 - 1 / tau
    if expr == "exp(x)":
        return math.e - math.exp(u)
    if expr == "x*exp(x)":
        return math.e - u * math.exp(u)
    raise KeyError(expr)


def _first_jump(f, tau: int, tol: Fraction):
    """Adjacent pair with the smallest left index whose values differ by
    more than tol: what an exhaustive continuity check refutes with."""
    for n in range(tau):
        a, b = Fraction(n, tau), Fraction(n + 1, tau)
        gap = abs(f(b) - f(a))
        if gap > tol:
            return a, b, gap
    return None


def _expect(problems, name, got, want):
    if got != want:
        problems.append(f"{name}: got {got!r}, expected {want!r}")


def closed_form_problems(job: dict, p: dict) -> list:
    kind = job.get("check") or job["command"]
    tau, H = job["tau"], job["H"]
    out = []
    if kind == "integrate":
        _expect(out, "code", p["code"], 0)
        ref = math.fsum(i / tau * math.exp(i / tau) for i in range(tau + 1)) / tau
        if not _close(Fraction(p["value"]), ref):
            out.append(f"value {float(Fraction(p['value']))} is not the Riemann sum {ref}")
        return out
    if kind == "sum":
        _expect(out, "code", p["code"], 0)
        _expect(out, "verdict", p["verdict"], "finite")
        ratio = Fraction(job["series"].split(":", 1)[1])
        value = Fraction(p["value"])
        remainder = 1 - value * (1 - ratio)  # ratio**L for the settled length L
        length = round(math.log(remainder.denominator, ratio.denominator))
        if remainder != ratio**length or length & (length - 1):
            out.append(f"value {value} is no partial sum at a doubling length")
        if abs(value - 1 / (1 - ratio)) > Fraction(1, H):
            out.append(f"value {value} is not within 1/H of {1 / (1 - ratio)}")
        return out

    max_gap = Fraction(p["max_gap"])
    tol = Fraction(p["tolerance"])
    expr = job["expr_text"]
    if kind == "ftc":
        _expect(out, "code", p["code"], 0)
        _expect(out, "verdict", p["verdict"], "pass")
        _expect(out, "samples", p["samples"], tau)
        _expect(out, "tolerance", tol, Fraction(1, H))
        _expect(out, "exact_violations", p["detail"].get("exact_violations"), "0")
        want = _ftc_max_gap(expr, tau)
        if isinstance(want, Fraction):
            _expect(out, "max_gap", max_gap, want)
        elif not _close(max_gap, want):
            out.append(f"max_gap {float(max_gap)} is not {want}")
    elif kind == "secant":
        _expect(out, "code", p["code"], 0)
        _expect(out, "verdict", p["verdict"], "pass")
        _expect(out, "samples", p["samples"], secant_pairs(tau, H))
        _expect(out, "tolerance", tol, 0)
        if max_gap > 0:
            out.append(f"max_gap {max_gap} exceeds the modulus")
    elif kind == "continuity" and expr == "1/(x - 1/2)":
        _expect(out, "code", p["code"], 2)
        _expect(out, "verdict", p["verdict"], "fail")
        _expect(out, "samples", p["samples"], tau + 1)
        _expect(out, "tolerance", tol, Fraction(1, H))
        a, b, gap = _first_jump(lambda x: 1 / (x - Fraction(1, 2)), tau, Fraction(1, H))
        _expect(out, "witness", p["witness"], f"jump between {a} and {b}")
        _expect(out, "max_gap", max_gap, gap)
    elif kind == "continuity":
        _expect(out, "code", p["code"], 0)
        _expect(out, "verdict", p["verdict"], "pass")
        _expect(out, "tolerance", tol, Fraction(1, H))
        _expect(out, "max_gap", max_gap, 0)
    elif kind == "grid-independence":
        _expect(out, "code", p["code"], 0)
        _expect(out, "verdict", p["verdict"], "pass")
        _expect(out, "samples", p["samples"], job["samples"])
        _expect(out, "tolerance", tol, Fraction(2, H))
        if max_gap > tol:
            out.append(f"max_gap {max_gap} exceeds 2/H")
    elif kind == "limit":
        # x*exp(x) fails by design: its curvature pushes the secant drift past 2/H
        fails = expr == "x*exp(x)"
        _expect(out, "code", p["code"], 2 if fails else 0)
        _expect(out, "verdict", p["verdict"], "fail" if fails else "pass")
        _expect(out, "tolerance", tol, Fraction(2, H))
        if (max_gap > tol) != fails:
            out.append(f"max_gap {max_gap} disagrees with the verdict")
    else:
        out.append(f"no oracle for {kind}")
    return out


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def problems(job: dict, p: dict, expected: dict) -> list:
    """Everything wrong with projection ``p`` of ``job``'s output."""
    out = closed_form_problems(job, p)
    key = job_key(job)
    if key not in expected:
        out.append(f"no recorded output for {key}")
    elif expected[key] != p:
        diff = sorted(k for k in set(p) | set(expected[key]) if p.get(k) != expected[key].get(k))
        out.append(f"fields {diff} differ from the output recorded at the seed commit")
    return out
