"""Derivatives, secants, limits, integrals, and their check reports."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergrid import (
    Certificate,
    ConvergentSequence,
    DomainError,
    GridFunction,
    GridSpec,
    NotDifferentiableError,
    ObservationContext,
    ResourceLimitError,
    SamplingPlan,
    constant,
    continuity_check,
    cumulative_values,
    derivative,
    exp_fn,
    fn_indiscernible,
    ftc_check,
    grid_independence_check,
    identity,
    integral,
    integral_stream,
    limit_check,
    limit_quotient,
    monomial,
    quotient_function,
    round_to_grid,
    secant_check,
    secant_deviation,
    square,
    step,
    successor,
    transport,
)
from hypergrid import calculus
from hypergrid.expr import compile, parse

CTX = ObservationContext(H=1000, K=10**6)
PLAN = SamplingPlan(random_points=64, dyadic_depth=6, exhaustive_limit=4097)


# --- difference quotients and derivatives ---------------------------------


def test_quotient_function_of_the_square():
    spec = GridSpec(1000)
    q = quotient_function(square(spec))
    p = spec.point(300)
    assert q(p) == 2 * p.value + spec.epsilon


def test_quotient_function_extends_at_the_right_endpoint():
    spec = GridSpec(100)
    q = quotient_function(square(spec))
    assert q(spec.point(100)) == q(spec.point(99))


def test_quotient_function_of_a_polynomial_is_an_integer_lane():
    spec = GridSpec(48)
    f = compile(parse("(x + 1/3)^5 - 2*x^2 + 7"), spec)
    q = quotient_function(f)
    assert q.den == f.den
    numerators, den = q.numerators()
    assert den == f.den and all(type(v) is int for v in numerators)
    points = list(spec.points())
    expected = [f.quotient(p) for p in points[:-1]]
    # the right endpoint repeats the quotient at 1 - eps
    assert [q(p) for p in points] == expected + expected[-1:]
    assert [Fraction(v, den) for v in numerators] == expected + expected[-1:]


def test_quotient_function_inherits_the_quotient_certificate():
    spec = GridSpec(100)
    f = square(spec)
    assert quotient_function(f).certificate is f.quotient_certificate


def test_derivative_of_the_square_is_two_x_plus_epsilon():
    spec = GridSpec(4096)
    d = derivative(square(spec), CTX, PLAN)
    assert isinstance(d, GridFunction)
    assert continuity_check(d, CTX, PLAN).mode == "certified"
    s = Fraction(1, 2)
    x = round_to_grid(s, spec)
    assert d(x) == 2 * s + spec.epsilon
    assert CTX.indiscernible(d(x), 2 * s)


def test_derivative_is_exactly_linear():
    spec = GridSpec(8192)
    f = 3 * square(spec) + identity(spec)
    df = derivative(f, CTX, PLAN)
    for n in (0, 100, 255, 8191):
        p = spec.point(n)
        assert df(p) == 3 * (2 * p.value + spec.epsilon) + 1


def test_step_function_is_not_differentiable():
    spec = GridSpec(4096)
    with pytest.raises(NotDifferentiableError) as info:
        derivative(step(spec), CTX, PLAN)
    # the spike in the quotient sits at the jump, across an adjacent pair
    assert info.value.witness == "jump between 1023/2048 and 2047/4096"
    assert "jump between 1023/2048 and 2047/4096" in str(info.value)


# --- secants ---------------------------------------------------------------


def test_secant_deviation_of_the_square_is_exact():
    # ((x^2 - a^2)/(x - a)) - (2a + eps) = x - a - eps, exactly
    spec = GridSpec(1000)
    f = square(spec)
    for i, j in ((10, 20), (500, 510), (0, 999)):
        a, x = spec.point(i), spec.point(j)
        assert secant_deviation(f, a, x) == x.value - a.value - spec.epsilon


def test_secant_deviation_rejects_degenerate_input():
    spec = GridSpec(100)
    f = square(spec)
    with pytest.raises(DomainError):
        secant_deviation(f, spec.point(5), spec.point(5))
    with pytest.raises(DomainError):
        secant_deviation(f, GridSpec(200).point(5), spec.point(6))


def test_quotient_modulus_dominates_secant_deviations_exhaustively():
    # every admissible pair on a small grid, against the registered modulus
    spec = GridSpec(128)
    ctx = ObservationContext(H=16, K=10**6)
    f = monomial(spec, 3)
    omega = f.quotient_certificate.modulus
    lo = max(4 * spec.epsilon, Fraction(1, ctx.H**2))
    hi = ctx.infinitesimal_scale
    checked = 0
    for i in range(128):
        for j in range(i + 1, 129):
            gap = Fraction(j - i, 128)
            if not lo <= gap <= hi:
                continue
            dev = secant_deviation(f, spec.point(i), spec.point(j))
            assert abs(dev) <= omega(gap)
            checked += 1
    assert checked > 100


def test_secant_check_passes_for_certified_functions():
    spec = GridSpec(1024)
    ctx = ObservationContext(H=32, K=10**6)
    report = secant_check(square(spec), ctx, PLAN)
    assert report
    assert report.mode == "exhaustive"
    assert report.max_gap <= 0
    assert report.tolerance == 0


def test_secant_check_sampled_mode():
    spec = GridSpec(2**13)
    ctx = ObservationContext(H=64, K=10**6)
    report = secant_check(square(spec), ctx, PLAN)
    assert report
    assert report.mode == "sampled"


def test_secant_check_requires_a_quotient_certificate():
    with pytest.raises(DomainError):
        secant_check(step(GridSpec(1024)), CTX, PLAN)


def test_secant_check_needs_a_nonempty_band():
    # grid too coarse: 4 eps exceeds 1/H
    spec = GridSpec(16)
    with pytest.raises(DomainError):
        secant_check(square(spec), CTX, PLAN)


# --- grid independence ------------------------------------------------------


def test_grid_independence_of_the_square():
    f1 = square(GridSpec(10**4))
    f2 = square(GridSpec(3 * 10**4))
    report = grid_independence_check(f1, f2, CTX, samples=256, seed=0)
    assert report
    assert report.max_gap <= 2 * CTX.infinitesimal_scale
    assert report.grids == (10**4, 3 * 10**4)


def test_grid_independence_precondition_failure_is_reported():
    f1 = square(GridSpec(10**4))
    f2 = step(GridSpec(3 * 10**4))
    report = grid_independence_check(f1, f2, CTX, samples=128, seed=0)
    assert not report
    assert "precondition" in report.detail
    assert report.witness is not None


# --- limits -----------------------------------------------------------------


def test_convergent_sequence_accepts_a_true_limit():
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), CTX)
    assert seq.verify()
    assert seq.terms(4) == [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_convergent_sequence_rejects_a_false_limit():
    stuck = ConvergentSequence(lambda i: Fraction(1, 2), Fraction(0), CTX)
    assert not stuck.verify()
    slow = ConvergentSequence(lambda i: Fraction(1, i + 1), Fraction(0), CTX)
    assert not slow.verify(budget=128)


def _ladder_verify(seq, budget):
    """``ConvergentSequence.verify`` as it walked its ladder of probes
    1/2, 1/4, ... down to 1/H over every gap, kept as the reference."""
    gaps = [abs(t - seq.declared_limit) for t in seq.terms(budget)]
    tol = seq.context.infinitesimal_scale
    q = Fraction(1, 2)
    while True:
        last_bad = -1
        for i, g in enumerate(gaps):
            if g > q:
                last_bad = i
        if last_bad >= budget - 1:
            return False
        if q <= tol:
            return True
        q = max(q / 2, tol)


@st.composite
def _sequences(draw):
    """A ConvergentSequence whose terms halve, fall like 1/i, cycle
    through a random table, sit within a hair of 1/H from the limit, or
    raise at one index."""
    H = draw(st.integers(min_value=2, max_value=1000))
    limit = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-2)]))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=50))
    kind = draw(st.sampled_from(["halving", "harmonic", "table", "edge", "raises"]))
    if kind == "halving":
        rule = lambda i: limit + c / 2**i
    elif kind == "harmonic":
        rule = lambda i: limit + c / (i + 1)
    elif kind == "table":
        table = draw(st.lists(st.fractions(min_value=-1, max_value=1), min_size=1, max_size=8))
        rule = lambda i: limit + table[i % len(table)]
    elif kind == "edge":
        hair = draw(st.sampled_from([Fraction(0), Fraction(1, 10**9), -Fraction(1, 10**9)]))
        sign = draw(st.sampled_from([1, -1]))
        rule = lambda i: limit + sign * (Fraction(1, H) + hair)
    else:
        bad = draw(st.integers(min_value=0, max_value=70))
        rule = lambda i: limit + Fraction(1, i - bad)
    return ConvergentSequence(rule, limit, ObservationContext(H=H, K=10**6))


def _verdict(verify, seq, budget):
    try:
        return verify(seq, budget)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_sequences(), st.integers(min_value=0, max_value=70))
# the last term is exactly 1/H from the limit
@example(ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ObservationContext(H=64)), 7)
def test_verify_reads_the_last_term_like_the_ladder(seq, budget):
    assert _verdict(ConvergentSequence.verify, seq, budget) == _verdict(_ladder_verify, seq, budget)


def test_limit_quotient_probes_the_band_and_passes():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    f = square(spec)
    x = spec.point(3000)
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    result = limit_quotient(f, x, seq)
    assert result
    assert result.value == f.quotient(x)
    assert len(result.probes) >= 3
    assert result.max_gap <= result.tolerance == 2 * ctx.infinitesimal_scale
    lo = max(4 * spec.epsilon, Fraction(1, ctx.H**2))
    for probe in result.probes:
        assert lo < abs(probe.t) <= ctx.infinitesimal_scale


def test_limit_quotient_requires_a_null_sequence():
    spec = GridSpec(10**4)
    f = square(spec)
    bad_limit = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(1), CTX)
    with pytest.raises(DomainError):
        limit_quotient(f, spec.point(100), bad_limit)
    liar = ConvergentSequence(lambda i: Fraction(1, 2), Fraction(0), CTX)
    with pytest.raises(DomainError):
        limit_quotient(f, spec.point(100), liar)


def test_limit_quotient_rejects_probes_leaving_the_interval():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    with pytest.raises(DomainError):
        limit_quotient(square(spec), spec.point(10**4), seq)


def test_limit_check_passes_at_interior_points():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    points = [Fraction(1, 10), Fraction(1, 4), Fraction(7, 10)]
    report = limit_check(square(spec), ctx, points)
    assert report
    assert report.check == "limit"
    assert report.samples >= 3 * len(points)


def test_limit_checks_that_would_probe_nothing_raise():
    spec = GridSpec(64)
    ctx = ObservationContext(H=32, K=10**6)  # band (1/16, 1/32] holds no offset
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    with pytest.raises(DomainError, match="band is empty"):
        limit_quotient(square(spec), spec.point(10), seq)
    with pytest.raises(DomainError, match="band is empty"):
        limit_check(square(spec), ctx, [Fraction(1, 2)])
    with pytest.raises(DomainError, match="at least one point"):
        limit_check(square(GridSpec(10**4)), CTX, [])


def test_grid_independence_needs_a_sample():
    with pytest.raises(DomainError, match="at least one sample"):
        grid_independence_check(square(GridSpec(100)), square(GridSpec(300)), CTX, samples=0)


# --- integration ------------------------------------------------------------


def test_cumulative_values_are_inclusive_prefix_sums():
    spec = GridSpec(10)
    sums = cumulative_values(identity(spec))
    assert sums[0] == 0
    assert sums[10] == Fraction(55, 10)
    assert [s * spec.epsilon for s in sums][10] == Fraction(55, 100)


def test_integral_of_identity_at_one():
    spec = GridSpec(10)
    anti = integral(identity(spec), CTX)
    assert anti(spec.point(10)) == Fraction(55, 100)


def test_integral_of_a_constant_is_linear_up_to_the_left_term():
    spec = GridSpec(100)
    anti = integral(constant(spec, 2), CTX)
    # inclusive both ends: (n + 1) terms of 2 eps
    assert anti(spec.point(50)) == Fraction(2 * 51, 100)


def test_parallel_prefix_sums_are_bit_identical():
    f = square(GridSpec(999))
    serial = cumulative_values(f, workers=1)
    for workers in (2, 3, 4):
        assert cumulative_values(f, workers=workers) == serial


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_are_refused(workers):
    spec = GridSpec(8)
    with pytest.raises(DomainError, match="workers"):
        cumulative_values(square(spec), workers=workers)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=64)
    | st.lists(st.fractions(max_denominator=10**4), min_size=1, max_size=64),
)
def test_running_sums_accumulate_in_place(terms):
    expected = list(itertools.accumulate(terms))
    assert calculus._running_sums(terms) is terms
    assert terms == expected


@pytest.mark.parametrize(
    "text", ["x^2", "x^3 - x/2", "exp(x)", "x*exp(x)", "integral of x*exp(x)"]
)
def test_integral_stream_matches_the_table(text):
    spec = GridSpec(64)
    f = compile(parse(text.removeprefix("integral of ")), spec)
    if text.startswith("integral of "):
        f = integral(f)  # a lane whose numerators are Fractions
        assert isinstance(f.at(1), Fraction)
    anti = integral(f)
    streamed = list(integral_stream(f))
    assert [p.index for p, _ in streamed] == list(range(65))
    assert [v for _, v in streamed] == [anti(p) for p, _ in streamed]


def test_integral_stream_is_lazy_and_stops_at_the_leftmost_failure():
    reads = []

    def at(n):
        reads.append(n)
        if n >= 3:
            raise DomainError(f"no value at {n}")
        return Fraction(n)

    stream = integral_stream(GridFunction(GridSpec(64), at))
    assert [v for _, v in itertools.islice(stream, 3)] == [0, Fraction(1, 64), Fraction(3, 64)]
    assert reads == [0, 1, 2]
    with pytest.raises(DomainError, match="at 3"):
        next(stream)


def test_cumulative_values_resource_guard_points_to_streaming():
    f = identity(GridSpec(2**24))
    with pytest.raises(ResourceLimitError) as info:
        cumulative_values(f)
    assert "integral_stream" in str(info.value)


def test_integral_rejects_certified_unbounded_integrands():
    ctx = ObservationContext(H=10, K=100)
    with pytest.raises(DomainError):
        integral(constant(GridSpec(100), 101), ctx)


def test_integral_spot_checks_uncertified_integrands():
    ctx = ObservationContext(H=10, K=100)
    spec = GridSpec(100)
    wild = GridFunction(spec, lambda n: Fraction(101))
    with pytest.raises(DomainError):
        integral(wild, ctx)
    # without a context there is no boundedness obligation
    assert integral(wild)(spec.point(0)) == Fraction(101, 100)


def test_integral_carries_certificates():
    f = square(GridSpec(100))
    anti = integral(f, CTX)
    assert anti.certificate is not None
    assert anti.quotient_certificate is not None
    # the integral is Lipschitz with the integrand's bound
    assert anti.certificate.modulus(Fraction(1, 10)) == Fraction(1, 10)


def test_integrals_and_derivatives_are_grid_functions_that_compose():
    spec = GridSpec(4096)
    f = square(spec)
    anti = integral(f, CTX)
    d = derivative(f, CTX, PLAN)
    q = quotient_function(anti)
    # the fundamental theorem, read by composition, at every point below 1
    assert all(q(p) == f(successor(p)) for p in itertools.islice(spec.points(), spec.tau))
    assert secant_check(anti, CTX)
    assert continuity_check(anti, CTX, PLAN).mode == "certified"
    assert continuity_check(d, CTX, PLAN).mode == "certified"
    assert fn_indiscernible(d, quotient_function(f), CTX)
    x = round_to_grid(Fraction(1, 2), spec)
    coarse = GridSpec(1024)
    assert transport(anti, coarse)(round_to_grid(Fraction(1, 2), coarse)) == anti(x)
    assert (anti + 2 * d)(x) == anti(x) + 2 * d(x)
    assert integral(anti)(x) == sum(anti(spec.point(n)) for n in range(2049)) / spec.tau


# --- the fundamental theorem ------------------------------------------------


def test_ftc_exact_layer_is_policy_independent():
    # tail-bounded exponential values: the telescoping identity is exact anyway
    spec = GridSpec(4096)
    report = ftc_check(exp_fn(spec), CTX, PLAN)
    assert report
    assert report.detail["exact_violations"] == 0
    assert report.mode == "exhaustive"


def test_ftc_for_the_square():
    spec = GridSpec(4096)
    report = ftc_check(square(spec), CTX, PLAN)
    assert report
    assert report.max_gap <= CTX.infinitesimal_scale
    assert report.check == "ftc"


@pytest.mark.parametrize("text", ["x^2", "exp(x)"])
def test_ftc_exact_layer_catches_a_wrong_prefix_sum(monkeypatch, text):
    # x^2 carries a lane, exp(x) does not; the last prefix is one unit off,
    # so exactly one quotient, the one into the right endpoint, disagrees
    spec = GridSpec(64)
    ctx = ObservationContext(H=4, K=10**6)
    running_sums = calculus._running_sums

    def off_by_one(terms):
        sums = running_sums(terms)
        sums[-1] += 1
        return sums

    monkeypatch.setattr(calculus, "_running_sums", off_by_one)
    report = ftc_check(compile(parse(text), spec), ctx, PLAN)
    assert not report
    assert report.detail == {"exact_violations": 1}
    assert report.witness == f"u={Fraction(63, 64)}"


def test_ftc_flags_visible_jumps_in_the_integrand():
    spec = GridSpec(4096)
    report = ftc_check(step(spec), CTX, PLAN)
    assert not report
    # the exact layer still holds; only the indiscernibility layer fails
    assert report.detail["exact_violations"] == 0
    assert report.max_gap == 1


def test_check_reports_serialize_deterministically():
    report = ftc_check(square(GridSpec(4096)), CTX, PLAN)
    record = report.to_dict()
    assert record["schema"] == 1
    assert record["check"] == "ftc"
    assert record["grids"] == [4096]
    assert record["context"] == {"H": 1000, "K": 10**6}
    assert record["verdict"] == "pass"
    assert isinstance(record["max_gap"], str)
    assert record["detail"] == {"exact_violations": "0"}


# --- higher-order flatness (test utility) -----------------------------------


def order_n_flat(F: GridFunction, a, n: int, ctx: ObservationContext, probes: int = 64):
    """Worst ratio |F(x)| / |x - a|**n over a ring of grid points with
    4 max(eps, 1/H^2) < |x - a| <= 1/H; the flatness claim is that the
    ratio stays infinitesimal."""
    spec = F.spec
    lo = 4 * max(spec.epsilon, Fraction(1, ctx.H**2))
    hi = ctx.infinitesimal_scale
    lo_k = math.floor(lo * spec.tau)
    hi_k = math.floor(hi * spec.tau)
    stride = max(1, (hi_k - lo_k) // probes)
    worst = Fraction(0)
    for k in range(lo_k + 1, hi_k + 1, stride):
        gap = Fraction(k, spec.tau)
        if not lo < gap <= hi:
            continue
        for idx in (a.index - k, a.index + k):
            if 0 <= idx <= spec.tau:
                ratio = abs(F(spec.point(idx))) / gap**n
                worst = max(worst, ratio)
    return worst


def shifted_power(spec: GridSpec, center: Fraction, k: int) -> GridFunction:
    return GridFunction(spec, lambda n: (Fraction(n, spec.tau) - center) ** k)


def test_cubic_is_first_order_flat_at_its_root():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    a = spec.point(spec.tau // 2)
    F = shifted_power(spec, a.value, 3)
    assert order_n_flat(F, a, 1, ctx) <= ctx.infinitesimal_scale


def test_quartic_is_second_order_flat_at_its_root():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    a = spec.point(spec.tau // 2)
    F = shifted_power(spec, a.value, 4)
    assert order_n_flat(F, a, 2, ctx) <= ctx.infinitesimal_scale


def test_linear_growth_is_not_flat():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    a = spec.point(spec.tau // 2)
    F = shifted_power(spec, a.value, 1)
    assert order_n_flat(F, a, 1, ctx) > ctx.infinitesimal_scale


def test_flatness_survives_transport_to_a_finer_grid():
    spec_a, spec_b = GridSpec(10**4), GridSpec(3 * 10**4)
    ctx = ObservationContext(H=100, K=10**6)
    center = Fraction(1, 2)
    F = shifted_power(spec_a, center, 3)
    G = transport(F, spec_b)
    b_center = spec_b.point(spec_b.tau // 2)
    assert order_n_flat(G, b_center, 1, ctx) <= ctx.infinitesimal_scale


# --- evaluating each grid point once -------------------------------------------


def _counting_square(spec, calls, certified=True):
    sq = square(spec)

    def at(n):
        calls.append(n)
        return Fraction(n, spec.tau) ** 2

    if not certified:
        return GridFunction(spec, at)
    return GridFunction(spec, at, sq.certificate, sq.quotient_certificate)


def test_exhaustive_checks_evaluate_each_point_once():
    spec = GridSpec(64)
    ctx = ObservationContext(H=4, K=10**6)
    calls = []
    for certified in (True, False):
        calls.clear()
        assert ftc_check(_counting_square(spec, calls, certified), ctx, PLAN)
        assert sorted(calls) == list(range(65))
    calls.clear()
    assert secant_check(_counting_square(spec, calls), ctx, PLAN)
    assert sorted(calls) == list(range(65))
    # continuity walks the pairs (0, 1), (1, 2), ...: upper end first,
    # each lower end but the first being the previous upper end
    calls.clear()
    assert continuity_check(_counting_square(spec, calls, False), ctx, PLAN)
    assert calls == [1, 0] + list(range(2, 65))


def test_sampled_checks_read_each_needed_point_once():
    spec = GridSpec(2**13)
    tau = spec.tau
    ctx = ObservationContext(H=64, K=10**6)
    anchors = [n for n in PLAN.indices(tau) if n < tau]
    calls = []
    report = secant_check(_counting_square(spec, calls), ctx, PLAN)
    assert report.mode == "sampled"
    # band [4 eps, 1/64] = 4..128 steps: the ladder 4, 8, ..., 128, then 128 again
    offsets = [4, 8, 16, 32, 64, 128]
    needed = {m for n in anchors for m in (n, n + 1)}
    needed |= {n + k for n in anchors for k in offsets if n + k <= tau}
    assert calls == sorted(needed)
    assert report.samples == sum(n + k <= tau for n in anchors for k in offsets + [128])
    calls.clear()
    report = continuity_check(_counting_square(spec, calls, False), ctx, PLAN)
    assert report.mode == "sampled-ok"
    pairs = sorted({lo for n in PLAN.indices(tau) for lo in (n - 1, n) if 0 <= lo < tau})
    assert sorted(calls) == sorted({m for lo in pairs for m in (lo, lo + 1)})
    assert len(calls) == len(set(calls))


def test_continuity_refutes_before_reading_a_later_point():
    # 1/(x - 1/2) divides by zero at 1/2, far past the first visible jump
    spec = GridSpec(100)
    ctx = ObservationContext(H=100, K=10**6)
    report = continuity_check(compile(parse("1/(x - 1/2)"), spec), ctx, PLAN)
    assert report.mode == "refuted"
    assert report.witness == "jump between 0 and 1/100"
    assert report.samples == 101


def test_limit_quotient_reads_each_point_once():
    spec = GridSpec(10**4)
    ctx = ObservationContext(H=100, K=10**6)
    x = spec.point(3000)
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    calls = []
    result = limit_quotient(_counting_square(spec, calls), x, seq)
    probes = [round_to_grid(x.value + probe.t, spec).index for probe in result.probes]
    assert len(probes) >= 3
    assert calls == [3001, 3000] + probes
    assert result == limit_quotient(square(spec), x, seq)


def test_ftc_check_reads_the_integrand_lane_once():
    spec = GridSpec(64)
    ctx = ObservationContext(H=4, K=10**6)
    cubic = compile(parse("x^3 - x/2"), spec)
    reads = []

    def counting_at(n):
        reads.append(n)
        return cubic.at(n)

    f = GridFunction(
        spec, counting_at, cubic.certificate, cubic.quotient_certificate, cubic.den
    )
    report = ftc_check(f, ctx, PLAN)
    assert report and report.detail == {"exact_violations": 0}
    assert reads == list(range(65))
    assert report == ftc_check(compile(parse("x^3 - x/2"), spec), ctx, PLAN)


def test_secant_check_reads_the_certificate_by_value():
    spec = GridSpec(64)
    ctx = ObservationContext(H=4, K=10**6)
    sq = square(spec)
    qcert = Certificate(Fraction(2), Fraction(2), Fraction(0))
    assert qcert == sq.quotient_certificate and qcert is not sq.quotient_certificate

    def with_quotient_certificate(c):
        return GridFunction(spec, lambda n: Fraction(n, 64) ** 2, sq.certificate, c)

    report = secant_check(with_quotient_certificate(qcert), ctx, PLAN)
    assert report.mode == "exhaustive"
    assert report == secant_check(sq, ctx, PLAN)
    # the worst excess over the modulus moves exactly with its offset
    slack = Certificate(Fraction(2), Fraction(2), Fraction(1, 1000))
    looser = secant_check(with_quotient_certificate(slack), ctx, PLAN)
    assert looser.max_gap == report.max_gap - Fraction(1, 1000)
