"""Acceptance suite: the nine headline guarantees, at pinned parameters.

Each test covers one numbered criterion and emits a single
"criterion N: PASS/FAIL" line (visible with -s or on failure); the
pytest -v output carries the same per-criterion pass/fail signal.
"""

import math
import time
from fractions import Fraction

from hypergrid import (
    ConvergentSequence,
    GridSpec,
    ObservationContext,
    SamplingPlan,
    countable_sum,
    cumulative_values,
    exp_fn,
    fn_indiscernible,
    ftc_check,
    grid_independence_check,
    identity,
    is_unstable,
    limit_quotient,
    monomial,
    round_to_grid,
    sample_unit_fractions,
    secant_check,
    square,
    transport,
)
from hypergrid.cli import JobConfig, run
from hypergrid.series import FULL_POLICY, exp_approx, exp_series, log_approx


def _line(n: int, ok: bool, detail: str) -> str:
    text = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(text)
    return text


def certified_suite(spec: GridSpec):
    """The four functions every differentiation criterion exercises."""
    e = exp_fn(spec)
    return {
        "x^2": square(spec),
        "x^3 - x/2": monomial(spec, 3) - monomial(spec, 1) * Fraction(1, 2),
        "exp(x)": e,
        "x*exp(x)": identity(spec) * e,
    }


def test_criterion_1_ftc_is_exact_on_the_big_grid():
    # tau = 2**16, H = 1000: zero exact-layer error at every interior
    # point, and the integrand moves by at most 1/H across one mesh step
    spec = GridSpec(2**16)
    ctx = ObservationContext(H=1000, K=10**12)
    plan = SamplingPlan(exhaustive_limit=2**16 + 1)
    started = time.perf_counter()
    results = {}
    for name, f in certified_suite(spec).items():
        report = ftc_check(f, ctx, plan)
        results[name] = report
    elapsed = time.perf_counter() - started
    ok = all(results.values()) and all(
        r.detail["exact_violations"] == 0 and r.max_gap <= Fraction(1, 1000)
        for r in results.values()
    )
    worst = max(r.max_gap for r in results.values())
    _line(1, ok, f"4 integrands, worst mesh jump {float(worst):.3e}, {elapsed:.1f}s")
    for name, report in results.items():
        assert report, name
        assert report.mode == "exhaustive", name
        assert report.samples == 2**16, name
        assert report.detail["exact_violations"] == 0, name
        assert report.max_gap <= Fraction(1, 1000), name
    assert elapsed < 300


def test_criterion_2_quotients_are_grid_independent():
    ctx = ObservationContext(H=1000, K=10**12)
    tol = Fraction(2, 1000)
    reports = []
    for tau2 in (3 * 10**4, 10**5):
        for build in (square, exp_fn):
            r = grid_independence_check(
                build(GridSpec(10**4)), build(GridSpec(tau2)), ctx,
                samples=1024, seed=0,
            )
            reports.append(r)
    ok = all(reports) and all(r.max_gap <= tol for r in reports)
    worst = max(r.max_gap for r in reports)
    _line(2, ok, f"4 grid pairs, worst quotient gap {float(worst):.3e} <= 2/H")
    for r in reports:
        assert r
        assert r.samples >= 1000
        assert r.max_gap <= tol


def test_criterion_3_secant_deviations_never_exceed_the_modulus():
    # tau = 2**12, H = 2**6: every pair with 4 eps <= x - a <= 1/H
    spec = GridSpec(2**12)
    ctx = ObservationContext(H=2**6, K=10**12)
    plan = SamplingPlan()  # tau + 1 <= 2**16: exhaustive
    reports = {name: secant_check(f, ctx, plan) for name, f in certified_suite(spec).items()}
    ok = all(reports.values()) and all(r.max_gap <= 0 for r in reports.values())
    pairs = sum(r.samples for r in reports.values())
    worst = max(r.max_gap for r in reports.values())
    _line(3, ok, f"{pairs} pairs exhaustively, worst excess {float(worst):.3e} <= 0")
    for name, r in reports.items():
        assert r, name
        assert r.mode == "exhaustive", name
        assert r.max_gap <= 0, name
        assert r.witness is None, name


def test_criterion_4_sequence_limits_agree_with_the_quotient():
    # tau = 10**6, H = 1000, offsets 2**-i inside (max(4 eps, 1/H^2), 1/H]
    spec = GridSpec(10**6)
    ctx = ObservationContext(H=1000, K=10**12)
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    margin = Fraction(1, 1000)
    anchors = [margin + u * (1 - 3 * margin) for u in sample_unit_fractions(100, 42)]
    tol = Fraction(2, 1000)
    worst = Fraction(0)
    probed = 0
    for f in (square(spec), exp_fn(spec)):
        for s in anchors:
            result = limit_quotient(f, round_to_grid(s, spec), seq)
            assert result.probes, "no offsets landed in the band"
            probed += len(result.probes)
            worst = max(worst, result.max_gap)
    ok = worst <= tol
    _line(4, ok, f"2 functions x 100 anchors, {probed} probes, worst gap {float(worst):.3e} <= 2/H")
    assert ok


def test_criterion_5_rounding_is_a_quasi_identity():
    # tau = 2**10 against every point of the 2**20-point dyadic mesh
    spec = GridSpec(2**10)
    mesh = 2**20
    eps = spec.epsilon
    bad = 0
    for j in range(mesh + 1):
        s = Fraction(j, mesh)
        p = round_to_grid(s, spec)
        defect = s - Fraction(p.index, spec.tau)
        if not (0 <= defect < eps):
            bad += 1
    idempotent = all(
        round_to_grid(p.value, spec) == p for p in spec.points()
    )
    ok = bad == 0 and idempotent
    _line(5, ok, f"{mesh + 1} mesh points, {bad} defect violations, idempotence {idempotent}")
    assert bad == 0
    assert idempotent


def test_criterion_6_exponential_law_and_log_inverse():
    # tau = 1000, H = 100, 100 random pairs in [-2, 2]
    tau = 1000
    law_tol = Fraction(1, 100)
    log_tol = Fraction(2, tau) + Fraction(1, 100)
    us = list(sample_unit_fractions(200, 7))
    worst_law = Fraction(0)
    worst_log = Fraction(0)
    for j in range(100):
        p = -2 + 4 * us[2 * j]
        q = -2 + 4 * us[2 * j + 1]
        law_gap = abs(
            exp_approx(p + q, tau) - exp_approx(p, tau) * exp_approx(q, tau)
        )
        log_gap = abs(log_approx(exp_approx(q, tau), tau) - q)
        worst_law = max(worst_law, law_gap)
        worst_log = max(worst_log, log_gap)

    oracle = sum((Fraction(1, math.factorial(i)) for i in range(21)), Fraction(0))
    exact = exp_series(Fraction(1), 20, FULL_POLICY)[0] == oracle == exp_approx(Fraction(1), 20)

    ok = worst_law <= law_tol and worst_log <= log_tol and exact
    _line(
        6,
        ok,
        f"law gap {float(worst_law):.3e} <= 1/H, log roundtrip {float(worst_log):.3e}"
        f" <= 2/tau + 1/H, exp(1, 20) exact {exact}",
    )
    assert worst_law <= law_tol
    assert worst_log <= log_tol
    assert exact


def test_criterion_7_countable_sums_read_correctly():
    ctx = ObservationContext(H=1000, K=10**12)
    tol = Fraction(1, 1000)
    geometric = {}
    for ratio, closed in ((Fraction(1, 2), Fraction(2)), (Fraction(1, 3), Fraction(3, 2)), (Fraction(9, 10), Fraction(10))):
        out = countable_sum(lambda n, r=ratio: r**n, ctx)
        geometric[ratio] = (out, closed)
    harmonic_never_finite = all(
        not getattr(countable_sum(lambda n: Fraction(1, n + 1), ctx, cap=cap), "is_finite", False)
        for cap in (2**8, 2**12, 2**16)
    )
    zeros = countable_sum(lambda n: Fraction(0), ctx)
    ok = (
        all(out.is_finite and abs(out.representative - closed) <= tol for out, closed in geometric.values())
        and harmonic_never_finite
        and zeros.is_finite
        and zeros.representative == 0
    )
    worst = max(abs(out.representative - closed) for out, closed in geometric.values())
    _line(
        7,
        ok,
        f"geometric worst gap {float(worst):.3e} <= 1/H, harmonic never finite"
        f" {harmonic_never_finite}, zeros exactly 0",
    )
    for out, closed in geometric.values():
        assert out.is_finite
        assert abs(out.representative - closed) <= tol
    assert harmonic_never_finite
    assert zeros.representative == 0


def test_criterion_8_transport_roundtrip_is_faithful():
    # x^2 carried 10**4 -> 3 * 10**4 -> 10**4 and compared at >= 1000 points
    ctx = ObservationContext(H=1000, K=10**12)
    spec_a, spec_b = GridSpec(10**4), GridSpec(3 * 10**4)
    f = square(spec_a)
    back = transport(transport(f, spec_b), spec_a)
    plan = SamplingPlan(seed=1, random_points=1200, dyadic_depth=8, exhaustive_limit=1)
    comparison = fn_indiscernible(f, back, ctx, plan)
    tol = Fraction(2, 1000)
    ok = comparison.samples >= 1000 and comparison.max_gap <= tol
    _line(
        8,
        ok,
        f"{comparison.samples} samples, roundtrip gap {float(comparison.max_gap):.3e} <= 2/H",
    )
    assert comparison.samples >= 1000
    assert comparison.max_gap <= tol
    assert comparison


def test_criterion_9_reports_and_reductions_are_deterministic():
    job = JobConfig(
        command="check", tau=4096, H=1000, K=10**12, seed=7,
        expr_text="x^2", check="ftc", json_out=True,
    )
    first = run(job)
    second = run(job)
    json_identical = first == second and first[0] == 0

    job2 = JobConfig(
        command="check", tau=10**4, H=1000, K=10**12, seed=3,
        expr_text="exp(x)", check="grid-independence", tau2=3 * 10**4,
        samples=256, json_out=True,
    )
    json_identical = json_identical and run(job2) == run(job2)

    f = square(GridSpec(10007))
    serial = cumulative_values(f, workers=1)
    parallel = cumulative_values(f, workers=4)
    reduction_identical = serial == parallel

    ok = json_identical and reduction_identical
    _line(
        9,
        ok,
        f"json byte-identical {json_identical}, parallel prefix sums bit-identical"
        f" {reduction_identical}",
    )
    assert json_identical
    assert reduction_identical
