"""The checks that read grid functions by index against the point-by-point
implementations they replaced, kept here as the reference: ``secant_check``
and ``continuity_check`` on random polynomial and exp trees; ``limit_check``,
``limit_quotient``, ``grid_independence_check``, ``fn_indiscernible`` and
``transport`` on polynomial and quotient lanes, log(1+x), exp(x), x*exp(x),
exp(2*x - 1), exp(x^2), exp(x)^3*x, 1/(x - 1/2) and log(x - 1/2).  The
reports (verdict, max_gap, pair or sample count, witness), the limit
results and the errors raised must be equal."""

import copy
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypergrid import (
    ConvergentSequence,
    DomainError,
    EvaluationError,
    GridFunction,
    GridSpec,
    HypergridError,
    ObservationContext,
    SamplingPlan,
    continuity_check,
    fn_indiscernible,
    grid_independence_check,
    identity,
    limit_check,
    limit_quotient,
    quotient_function,
    round_to_grid,
    secant_check,
    successor,
    transport,
)
from hypergrid.calculus import LimitProbe, LimitQuotientResult, _band
from hypergrid.context import _report
from hypergrid.errors import GridMismatchError
from hypergrid.sampling import sample_unit_fractions
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


def _outcome(check, *args):
    try:
        return check(*args)
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


# --- limits, grid independence, indiscernibility, transport -----------------


def reference_probe_quotients(f, x, offsets, tol):
    """Difference quotients from x to round(x + t), each read through a
    GridPoint and divided as Fractions; f(x+) and f(x) read once."""
    after, fx = f(successor(x)), f(x)
    reference = (after - fx) * f.spec.tau
    probes = []
    max_gap = Fraction(0)
    for t in offsets:
        target = x.value + t
        if not 0 <= target <= 1:
            raise DomainError(f"probe point {target} leaves [0, 1]")
        y = round_to_grid(target, f.spec)
        step = y.value - x.value
        if step == 0:
            continue
        q = (f(y) - fx) / step
        gap = abs(q - reference)
        probes.append(LimitProbe(t, q, gap))
        max_gap = max(max_gap, gap)
    verdict = "pass" if max_gap <= tol else "fail"
    return LimitQuotientResult(reference, verdict, tuple(probes), max_gap, tol)


def reference_offsets(f, seq):
    """The sequence's first 64 terms with max(4/tau, 1/H**2) < |t| <= 1/H,
    once it converges to 0 by its own verify()."""
    if seq.declared_limit != 0:
        raise DomainError("offset sequence must converge to 0")
    if not seq.verify(64):
        raise DomainError("sequence does not meet its own convergence claim")
    H = seq.context.H
    lo, hi = max(Fraction(4, f.spec.tau), Fraction(1, H * H)), Fraction(1, H)
    offsets = [t for t in seq.terms(64) if lo < abs(t) <= hi]
    if not offsets:
        raise DomainError(f"band is empty: no offset of the sequence in ({lo}, {hi}]")
    return offsets


def reference_limit_quotient(f, x, seq):
    offsets = reference_offsets(f, seq)
    return reference_probe_quotients(f, x, offsets, 2 * seq.context.infinitesimal_scale)


def reference_limit_check(f, ctx, points):
    if not points:
        raise DomainError("limit check needs at least one point")
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    max_gap = Fraction(0)
    witness = None
    count = 0
    tol = 2 * ctx.infinitesimal_scale
    offsets = reference_offsets(f, seq)
    for s in points:
        x = round_to_grid(Fraction(s), f.spec)
        if x.index >= f.spec.tau:
            x = f.spec.point(f.spec.tau - 1)
        result = reference_probe_quotients(f, x, offsets, tol)
        count += len(result.probes)
        if result.max_gap > max_gap:
            max_gap = result.max_gap
            if not result and witness is None:
                witness = f"x={x.value}"
    return _report(
        "limit", [f.spec.tau], ctx, count, max_gap, tol, max_gap <= tol, "sampled", witness
    )


def reference_fn_indiscernible(f, g, ctx, plan):
    if f.spec != g.spec:
        raise GridMismatchError("cannot compare functions on different grids")
    tau = f.spec.tau
    tol = ctx.infinitesimal_scale
    indices = plan.indices(tau)
    max_gap = Fraction(0)
    witness = None
    for n in indices:
        p = f.spec.point(n)
        gap = abs(f(p) - g(p))
        if gap > max_gap:
            max_gap = gap
            if gap > tol and witness is None:
                witness = str(p.value)
    return _report(
        "indiscernible", [tau], ctx, len(indices), max_gap, tol, max_gap <= tol,
        plan.mode(tau), witness,
    )


def reference_transport(f, spec):
    """The carried function as a lane over 1 that reads f through a GridPoint:
    each point of ``spec`` rounded down onto f's grid."""
    cert = f.certificate
    if cert is not None:
        cert = replace(cert, offset=cert.modulus(f.spec.epsilon))
    return GridFunction(spec, lambda m: f(round_to_grid(spec.point(m).value, f.spec)), cert)


def reference_grid_independence_check(g1, g2, ctx, samples, seed):
    if samples < 1:
        raise DomainError(f"grid independence check needs at least one sample, got {samples}")
    tol = 2 * ctx.infinitesimal_scale
    grids = [g1.spec.tau, g2.spec.tau]
    carried = reference_transport(g1, g2.spec)
    pre_plan = SamplingPlan(
        seed=seed, random_points=min(samples, 256), dyadic_depth=8, exhaustive_limit=1
    )
    agreement = reference_fn_indiscernible(carried, g2, ctx, pre_plan)
    if not agreement:
        return _report(
            "grid-independence", grids, ctx, agreement.samples, agreement.max_gap,
            ctx.infinitesimal_scale, False, "sampled",
            witness=f"values differ at {agreement.witness}",
            precondition="representations disagree before quotients were compared",
        )
    max_gap = Fraction(0)
    witness = None
    for a in sample_unit_fractions(samples, seed):
        u1 = round_to_grid(a, g1.spec)
        u2 = round_to_grid(a, g2.spec)
        gap = abs(g1.quotient(u1) - g2.quotient(u2))
        if gap > max_gap:
            max_gap = gap
            if gap > tol and witness is None:
                witness = f"a={a}"
    return _report(
        "grid-independence", grids, ctx, samples, max_gap, tol, max_gap <= tol, "sampled",
        witness,
    )


# exp(2*x - 1), exp(x^2) and exp(x)^3*x have values over large denominators
_SOURCES = (
    "log(1+x)",
    "exp(x)",
    "x*exp(x)",
    "exp(2*x - 1)",
    "exp(x^2)",
    "exp(x)^3*x",
    "1/(x - 1/2)",
    "log(x - 1/2)",
)
# a scale above 1 makes probes fail, so that witnesses are compared
_SCALES = (Fraction(1), Fraction(3), Fraction(50))


@st.composite
def _functions(draw):
    """(kind, tree, scale): a polynomial lane, the quotient lane of one,
    or one of ``_SOURCES``, times scale; ``_build`` compiles it."""
    kind = draw(st.sampled_from(("polynomial", "quotient", *_SOURCES)))
    if kind in ("polynomial", "quotient"):
        tree = draw(_polynomial_trees().filter(lambda t: _degree(t) <= 8))
    else:
        tree = parse(kind)
    return kind, tree, draw(st.sampled_from(_SCALES))


def _build(choice, tau):
    kind, tree, scale = choice
    f = compile(tree, GridSpec(tau))
    if kind == "quotient":
        f = quotient_function(f)
    return f * scale


_TAUS = st.integers(min_value=2, max_value=10**6)
_POINTS = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=10**4), min_size=1, max_size=6
)


@st.composite
def _grid_and_context(draw):
    """(tau, H) with H <= tau/8 where it can be, so that the probe band
    (max(4/tau, 1/H**2), 1/H] holds a power of 1/2."""
    tau = draw(_TAUS)
    return tau, draw(st.integers(min_value=2, max_value=max(2, min(4096, tau // 8))))

_CUBIC = ("polynomial", parse("x^3"), Fraction(50))
_SQUARE = ("polynomial", parse("x^2"), Fraction(1))
_EXP = ("exp(x)", parse("exp(x)"), Fraction(1))
_X_EXP = ("x*exp(x)", parse("x*exp(x)"), Fraction(1))
_EXP_SQUARE = ("exp(x^2)", parse("exp(x^2)"), Fraction(50))
_EXP_CUBE = ("exp(x)^3*x", parse("exp(x)^3*x"), Fraction(3))
_LOG_HALF = ("log(x - 1/2)", parse("log(x - 1/2)"), Fraction(1))


@settings(max_examples=150, deadline=None)
@given(_functions(), _grid_and_context(), _POINTS)
# every point fails, the later ones by more: the witness is the first
@example(_CUBIC, (10**4, 100), [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
# t * tau is not an integer, so the step is floor(t * tau), not its ceiling
@example(_SQUARE, (10**4, 100), [Fraction(1, 10), Fraction(7, 10), Fraction(1)])
# log(x - 1/2) fails at every point read below 1/2, so read order shows
@example(_LOG_HALF, (64, 8), [Fraction(3, 4), Fraction(25, 64)])
@example(_LOG_HALF, (1024, 32), [Fraction(1, 2)])
@example(_EXP, (10**6, 1000), [Fraction(1, 3)])
# Fraction numerators: each point's gaps have their own denominators
@example(_X_EXP, (10**6, 1000), [Fraction(k, 7) for k in range(7)])
@example(_EXP_CUBE, (10**5, 300), [Fraction(9, 10), Fraction(1, 10), Fraction(1, 2)])
# the band's lower end max(4/1024, 1/16**2) is the halving term 1/256 itself
@example(_SQUARE, (1024, 16), [Fraction(1, 2)])
def test_limit_check_equals_the_reference(choice, grid, points):
    tau, H = grid
    f = _build(choice, tau)
    ctx = ObservationContext(H=H, K=10**6)
    assert _outcome(limit_check, f, ctx, points) == _outcome(
        reference_limit_check, f, ctx, points
    )


_SEQUENCES = {
    "halving": lambda i: Fraction(1, 2**i),
    "negative": lambda i: Fraction(-1, 2**i),
    "alternating": lambda i: Fraction((-1) ** i, 2**i),
    "thirds": lambda i: Fraction(1, 3 * 2**i),
}


@settings(max_examples=150, deadline=None)
@given(
    _functions(),
    _grid_and_context(),
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
    st.sampled_from(sorted(_SEQUENCES)),
)
@example(_CUBIC, (10**4, 100), Fraction(1, 2), "thirds")
@example(_SQUARE, (10**4, 100), Fraction(0), "negative")
@example(_SQUARE, (10**4, 100), Fraction(1), "halving")
@example(_LOG_HALF, (64, 8), Fraction(1, 4), "alternating")
def test_limit_quotient_equals_the_reference(choice, grid, s, sequence):
    tau, H = grid
    f = _build(choice, tau)
    x = round_to_grid(s, f.spec)
    seq = ConvergentSequence(_SEQUENCES[sequence], Fraction(0), ObservationContext(H=H, K=10**6))
    assert _outcome(limit_quotient, f, x, seq) == _outcome(reference_limit_quotient, f, x, seq)


def test_limit_quotient_refuses_a_point_of_another_grid_like_the_reference():
    f = _build(_SQUARE, 10**4)
    seq = ConvergentSequence(_SEQUENCES["halving"], Fraction(0), ObservationContext(H=100, K=10**6))
    for x in (GridSpec(10**3).point(10), GridSpec(10**3).point(10**3)):
        outcome = _outcome(limit_quotient, f, x, seq)
        assert outcome[0] in (GridMismatchError, DomainError)
        assert outcome == _outcome(reference_limit_quotient, f, x, seq)


def _tilted(g, H, tilt):
    """g plus tilt/H times (x - 1/2): a quotient gap of tilt/H that moves
    values by at most tilt/(2H)."""
    return g + (identity(g.spec) - Fraction(1, 2)) * Fraction(tilt, H)


@settings(max_examples=120, deadline=None)
@given(
    _functions(),
    _TAUS,
    _TAUS,
    st.integers(min_value=2, max_value=4096),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
# two lanes over different denominators
@example(_SQUARE, 10**4, 3 * 10**4, 1000, 32, 0, 0)
@example(_SQUARE, 10**4, 3 * 10**4, 1000, 32, 0, 3)
@example(_EXP, 10**4, 3 * 10**4, 1000, 16, 1, 3)
@example(_EXP_SQUARE, 10**4, 3 * 10**4, 1000, 32, 2, 1)
@example(_LOG_HALF, 64, 192, 8, 8, 0, 0)
def test_grid_independence_check_equals_the_reference(choice, tau1, tau2, H, samples, seed, tilt):
    g1 = _build(choice, tau1)
    g2 = _tilted(_build(choice, tau2), H, tilt)
    ctx = ObservationContext(H=H, K=10**6)
    assert _outcome(grid_independence_check, g1, g2, ctx, samples, seed) == _outcome(
        reference_grid_independence_check, g1, g2, ctx, samples, seed
    )


def _plan(seed):
    if seed is None:  # every point while tau < 256
        return SamplingPlan(random_points=8, dyadic_depth=3, exhaustive_limit=2**8)
    return _sampled(seed)


@settings(max_examples=120, deadline=None)
@given(
    _functions(),
    _TAUS,
    st.integers(min_value=2, max_value=4096),
    st.integers(min_value=0, max_value=2),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
# a gap of exactly 1/H, at x = 1, is indiscernible
@example(_SQUARE, 100, 64, 1, None)
@example(_CUBIC, 100, 64, 2, 1)
@example(_LOG_HALF, 64, 8, 0, None)
@example(_EXP_CUBE, 10**6, 4096, 1, 2)
def test_fn_indiscernible_equals_the_reference(choice, tau, H, tilt, seed):
    f = _build(choice, tau)
    g = f + identity(f.spec) * Fraction(tilt, H)  # a gap of tilt * x / H
    ctx = ObservationContext(H=H, K=10**6)
    plan = _plan(seed)
    assert _outcome(fn_indiscernible, f, g, ctx, plan) == _outcome(
        reference_fn_indiscernible, f, g, ctx, plan
    )


def _carried_reads(carry, f, spec_b, plan):
    """The carried function's certificate, grid and values at the plan's indices."""
    g = carry(f, spec_b)
    return g.certificate, g.spec, [g(spec_b.point(n)) for n in plan.indices(spec_b.tau)]


@settings(max_examples=120, deadline=None)
@given(_functions(), _TAUS, _TAUS, st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
@example(_SQUARE, 100, 300, None)
@example(_LOG_HALF, 64, 96, None)
# a coarser target that does not divide the source
@example(_SQUARE, 1000, 299, None)
def test_transport_equals_the_reference(choice, tau_a, tau_b, seed):
    f = _build(choice, tau_a)
    spec_b, plan = GridSpec(tau_b), _plan(seed)
    assert _outcome(_carried_reads, transport, f, spec_b, plan) == _outcome(
        _carried_reads, reference_transport, f, spec_b, plan
    )
