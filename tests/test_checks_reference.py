"""``secant_check`` and ``continuity_check`` against the point-by-point
implementations they replaced, kept here as the reference: on random
polynomial and exp trees the reports (verdict, max_gap, pair or sample
count, witness) and the errors raised must be equal."""

import copy
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypergrid import (
    DomainError,
    EvaluationError,
    GridSpec,
    HypergridError,
    ObservationContext,
    SamplingPlan,
    continuity_check,
    secant_check,
)
from hypergrid.calculus import _band
from hypergrid.context import _report
from hypergrid.expr import compile, parse
from test_expr import _degree, _exp_arguments, _exp_trees, _polynomial_trees, _sup

EXHAUSTIVE = SamplingPlan(exhaustive_limit=2**8)


def _sampled(seed):
    return SamplingPlan(seed=seed, random_points=8, dyadic_depth=3, exhaustive_limit=4)


def reference_secant_check(f, ctx, plan):
    """The secant check as it read values before numerators(): a Fraction
    list and its quotients in exhaustive mode, GridPoint reads through
    ``f`` and ``f.quotient`` in sampled mode, anchor-major pairs."""
    if f.quotient_certificate is None:
        raise DomainError("secant check needs a registered quotient modulus")
    spec = f.spec
    lo, hi = _band(spec, ctx)
    lo_steps = -((-lo.numerator * spec.tau) // lo.denominator)
    hi_steps = (hi.numerator * spec.tau) // hi.denominator
    if hi_steps < lo_steps:
        raise DomainError("band is empty: grid too coarse for this context")

    mode = plan.mode(spec.tau)
    values = None
    quotients = None
    if mode == "exhaustive":
        anchors = range(spec.tau)
        offsets = range(lo_steps, hi_steps + 1)
        values = f.materialize()
        quotients = [(values[n + 1] - values[n]) * spec.tau for n in range(spec.tau)]
    else:
        anchors = plan.indices(spec.tau)
        offsets = []
        k = lo_steps
        while k <= hi_steps:
            offsets.append(k)
            k *= 2
        offsets.append(hi_steps)

    omega = f.quotient_certificate.modulus
    eps = spec.epsilon
    steps = []
    for k in offsets:
        gap = k * eps
        steps.append((k, gap, omega(gap)))

    worst = None
    witness = None
    pairs = 0
    for n in anchors:
        if n >= spec.tau:
            continue
        qa = quotients[n] if quotients is not None else f.quotient(spec.point(n))
        fa = values[n] if values is not None else f(spec.point(n))
        for k, gap, bound in steps:
            m = n + k
            if m > spec.tau:
                continue
            fx = values[m] if values is not None else f(spec.point(m))
            deviation = (fx - fa) / gap - qa
            excess = abs(deviation) - bound
            pairs += 1
            if worst is None or excess > worst:
                worst = excess
                if excess > 0 and witness is None:
                    witness = f"a={Fraction(n, spec.tau)}, x={Fraction(m, spec.tau)}"
    if worst is None:
        raise DomainError("no admissible pairs to check")
    return _report(
        "secant", [spec.tau], ctx, pairs, worst, Fraction(0), worst <= 0, mode, witness
    )


def reference_continuity_check(f, ctx, plan):
    """The continuity check as it read values before: both adjacent pairs
    around every planned index, each read point by point."""
    spec = f.spec
    tol = ctx.infinitesimal_scale

    def verdict(mode, samples, jump=Fraction(0), witness=None):
        ok = mode != "refuted"
        return _report("continuity", [spec.tau], ctx, samples, jump, tol, ok, mode, witness)

    if f.certificate is not None and f.certificate.modulus(spec.epsilon) <= tol:
        return verdict("certified", 0)
    indices = plan.indices(spec.tau)
    for n in indices:
        for lo in (n - 1, n):
            if lo < 0 or lo + 1 > spec.tau:
                continue
            a = spec.point(lo)
            b = spec.point(lo + 1)
            jump = abs(f(b) - f(a))
            if jump > tol:
                witness = f"jump between {a.value} and {b.value}"
                return verdict("refuted", len(indices), jump, witness)
    return verdict("sampled-ok", len(indices))


def _outcome(check, f, ctx, plan):
    try:
        return check(f, ctx, plan)
    except HypergridError as exc:
        return type(exc), str(exc)


def _compiled(tree, tau):
    assume(_degree(tree) <= 48)
    # large exp arguments only make the series slow, not the test stronger
    assume(all(_sup(arg) <= 6 for arg in _exp_arguments(tree)))
    return compile(tree, GridSpec(tau))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_polynomial_trees(), _exp_trees()),
    st.integers(min_value=16, max_value=128),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 16), Fraction(0)]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
# sampled ladders 8, 16, 32 + 32 and 4, 8, 16 + 16 repeat the top offset
@example(parse("x^3 - x/2"), 128, 4, Fraction(1, 3), 0)
@example(parse("x^3 - x/2"), 128, 4, Fraction(1, 16), 0)
@example(parse("x*exp(x)"), 128, 8, Fraction(0), 1)
@example(parse("(x + 1/3)^5 - 2*x^2 + 7"), 128, 3, Fraction(1, 16), None)
@example(parse("exp(x)^3*x"), 64, 2, Fraction(1, 16), None)
def test_secant_check_equals_the_reference(tree, tau, H, scale, seed):
    f = _compiled(tree, tau)
    if f.quotient_certificate is not None:
        # a tightened modulus makes reports fail, so witnesses are compared
        qcert = f.quotient_certificate
        f = copy.copy(f)
        f.quotient_certificate = replace(
            qcert, slope=qcert.slope * scale, offset=qcert.offset * scale
        )
    ctx = ObservationContext(H=H, K=10**6)
    plan = EXHAUSTIVE if seed is None else _sampled(seed)
    assert _outcome(secant_check, f, ctx, plan) == _outcome(
        reference_secant_check, f, ctx, plan
    )


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_polynomial_trees(), _exp_trees()),
    st.integers(min_value=2, max_value=128),
    st.integers(min_value=2, max_value=512),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
@example(parse("log(x - 1/2)"), 64, 4, False, None)
@example(parse("log(x - 1/2)"), 64, 4, False, 0)
@example(parse("1/(x - 1/2)"), 100, 100, False, None)
@example(parse("1/(x - 1/2)"), 100, 100, False, 2)
@example(parse("x^3 - x/2"), 128, 200, False, 1)
def test_continuity_check_equals_the_reference(tree, tau, H, certified, seed):
    f = _compiled(tree, tau)
    if not certified:
        f = copy.copy(f)
        f.certificate = None
    ctx = ObservationContext(H=H, K=10**6)
    plan = EXHAUSTIVE if seed is None else _sampled(seed)
    assert _outcome(continuity_check, f, ctx, plan) == _outcome(
        reference_continuity_check, f, ctx, plan
    )


def test_continuity_names_the_first_point_the_walk_reads():
    # 0 and 1/64 both fail; the pair (0, 1/64) reads its upper end first
    f = compile(parse("log(x - 1/2)"), GridSpec(64))
    outcome = _outcome(continuity_check, f, ObservationContext(H=4, K=10**6), EXHAUSTIVE)
    assert outcome[0] is EvaluationError
    assert "at grid point 1/64" in outcome[1]
