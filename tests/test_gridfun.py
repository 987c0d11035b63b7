"""Grid functions: evaluation, algebra, certificates, comparisons,
transport between grids, and the three-valued continuity check."""

from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrid import (
    Certificate,
    CheckReport,
    DomainError,
    GridFunction,
    GridMismatchError,
    GridSpec,
    ObservationContext,
    ResourceLimitError,
    SamplingPlan,
    compile,
    constant,
    continuity_check,
    exp_fn,
    fn_indiscernible,
    grid_independence_check,
    identity,
    integral,
    monomial,
    parse,
    square,
    step,
    transport,
)
from hypergrid.calculus import _antiderivative
from hypergrid import functions
from hypergrid.functions import exp_of
from hypergrid.gridfun import (
    _quotient_product_certificate,
    add_certificates,
    constant_certificate,
    multiply_certificates,
)
from hypergrid.series import DEFAULT_POLICY, FULL_POLICY, exp_approx

CTX = ObservationContext(H=1000, K=10**6)
PLAN = SamplingPlan(random_points=64, dyadic_depth=6, exhaustive_limit=4097)


def test_evaluation_follows_the_rule():
    spec = GridSpec(10)
    f = square(spec)
    assert f(spec.point(3)) == Fraction(9, 100)
    assert f(spec.point(10)) == 1


def test_points_from_other_grids_are_rejected():
    f = square(GridSpec(10))
    with pytest.raises(GridMismatchError):
        f(GridSpec(11).point(3))


def test_a_read_at_a_number_is_refused_with_the_rounding_named():
    spec = GridSpec(10)
    for read, s in ((square(spec), Fraction(1, 2)), (integral(square(spec)), 0.5)):
        with pytest.raises(DomainError, match=r"round_to_grid\(s, f\.spec\)") as caught:
            read(s)
        assert not isinstance(caught.value, GridMismatchError)


def _count_exp_reads(monkeypatch) -> list:
    """Record the argument of every read of an exp node's series reader,
    n/tau as (n, tau)."""
    calls = []
    make_reader = functions._exp_reader

    def counting_reader(b, tau, policy):
        read = make_reader(b, tau, policy)

        def counted(a):
            calls.append((a, b))
            return read(a)

        return counted

    monkeypatch.setattr(functions, "_exp_reader", counting_reader)
    return calls


def test_nodes_keep_no_state_between_reads(monkeypatch):
    spec = GridSpec(16)
    calls = _count_exp_reads(monkeypatch)
    f = exp_fn(spec)
    p = spec.point(5)
    assert f(p) == f(p) == exp_approx(Fraction(5, 16), 16)
    assert calls == [(5, 16), (5, 16)]  # each read runs the rule


def test_grid_independence_reads_each_index_of_each_operand_once(monkeypatch):
    # 1024 samples on grids of 100 and 300 points: nearly every index the
    # quotient walk needs was read by the value comparison already
    calls = _count_exp_reads(monkeypatch)
    ctx = ObservationContext(H=16, K=10**6)
    report = grid_independence_check(exp_fn(GridSpec(100)), exp_fn(GridSpec(300)), ctx, 1024)
    assert report and report.samples == 1024
    assert {b for _, b in calls} == {100, 300}
    assert len(calls) == len(set(calls))


def test_a_power_reads_its_base_once_per_point(monkeypatch):
    spec = GridSpec(16)
    calls = _count_exp_reads(monkeypatch)
    values = compile(parse("exp(x)^3"), spec).materialize()
    assert values == [exp_approx(Fraction(n, 16), 16) ** 3 for n in range(17)]
    assert calls == [(n, 16) for n in range(17)]


def test_exp_of_a_lane_with_fraction_numerators_sums_like_the_kernel():
    # a division node is a lane over 1 of Fractions, which exp reads through
    # the kernel; its integral is an integer lane, which exp reads through
    # one reader over its den
    spec = GridSpec(32)
    quotient = compile(parse("1/(x+1)"), spec)
    assert quotient.den == 1 and type(quotient.at(5)) is Fraction
    anti = integral(quotient)
    values = anti.materialize()
    assert values == [s / 32 for s in accumulate(quotient.materialize())]
    # and its own integral sums those values over 32 again
    assert integral(anti).materialize() == [s / 32 for s in accumulate(values)]
    for g in (quotient, anti):
        points = g.materialize()
        for policy in (DEFAULT_POLICY, FULL_POLICY):
            expected = [exp_approx(v, 32, policy) for v in points]
            assert exp_of(g, policy).materialize() == expected
            assert exp_of(g * 3, policy).materialize() == [
                exp_approx(3 * v, 32, policy) for v in points
            ]


def test_off_grid_index_reads_are_refused():
    spec = GridSpec(8)
    with pytest.raises(DomainError, match="grid index -1 outside"):
        square(spec).numerators({9, -1})
    with pytest.raises(DomainError, match="grid index 9 outside"):
        square(spec).numerators({0, 9})
    with pytest.raises(DomainError, match="grid index 12 outside"):
        exp_fn(spec).numerators({12})
    assert square(spec).numerators({8, 0}) == ({0: 0, 8: 64}, 64)
    assert square(spec).numerators(set()) == ({}, 64)


_STEP_AT = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=200),
    st.integers(min_value=-3, max_value=3).map(Fraction),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=64), _STEP_AT, st.integers(0, 64))
def test_step_is_the_threshold_rule(tau, at, k):
    spec = GridSpec(tau)
    on_grid = Fraction(min(k, tau), tau)
    for threshold in (at, on_grid, on_grid + Fraction(1, 3 * tau)):
        f = step(spec, threshold)
        assert f.den == 1
        for p in spec.points():
            assert f(p) == (1 if p.value >= threshold else 0)


def test_difference_and_quotient_of_the_square():
    spec = GridSpec(100)
    f = square(spec)
    p = spec.point(30)
    # (f(x + eps) - f(x)) / eps = (2 x eps + eps^2) / eps
    assert f.quotient(p) == 2 * p.value + spec.epsilon


def test_materialize_small_grids():
    spec = GridSpec(4)
    assert identity(spec).materialize() == [Fraction(n, 4) for n in range(5)]


def test_materialize_returns_a_new_list_owned_by_the_caller(monkeypatch):
    spec = GridSpec(16)
    calls = _count_exp_reads(monkeypatch)
    f = exp_fn(spec) * 2 + square(spec)
    expected = [2 * exp_approx(Fraction(n, 16), 16) + Fraction(n, 16) ** 2 for n in range(17)]
    first = f.materialize()
    assert first == expected
    assert calls == [(n, 16) for n in range(17)]
    first[3] = None  # the caller owns the list
    assert f.materialize() == expected


def test_algebra_carries_lanes():
    spec = GridSpec(12)
    x = identity(spec)
    f = (x * x - x * Fraction(1, 2) + 3) * 2
    expected = [2 * (v * v - v / 2 + 3) for v in (p.value for p in spec.points())]
    numerators, den = f.numerators()
    assert all(type(v) is int for v in numerators)
    assert den == f.den != 1
    assert [Fraction(v, den) for v in numerators] == expected
    assert f.materialize() == expected
    assert [f(p) for p in spec.points()] == expected
    mixed = x * exp_fn(spec)  # exp is a lane over 1 of its Fraction values
    numerators, den = mixed.numerators()
    assert den == mixed.den == 12
    assert [Fraction(v, den) for v in numerators] == mixed.materialize()
    assert mixed.materialize() == [p.value * exp_fn(spec)(p) for p in spec.points()]
    zero = x - x
    numerators, den = zero.numerators()
    assert numerators == [0] * 13 and all(type(v) is int for v in numerators)
    assert den == zero.den != 1
    assert zero.materialize() == [0] * 13


def test_materialize_refuses_astronomical_grids():
    f = identity(GridSpec(2**24))
    with pytest.raises(ResourceLimitError):
        f.materialize()


def test_algebra_matches_pointwise_arithmetic():
    spec = GridSpec(50)
    f, g = square(spec), identity(spec)
    p = spec.point(20)
    v = p.value
    assert (f + g)(p) == v**2 + v
    assert (f - g)(p) == v**2 - v
    assert (f * g)(p) == v**3
    assert (-f)(p) == -(v**2)
    assert (f + 1)(p) == v**2 + 1
    assert (1 + f)(p) == v**2 + 1
    assert (2 - f)(p) == 2 - v**2
    assert (f * 3)(p) == 3 * v**2
    assert (Fraction(1, 2) * f)(p) == v**2 / 2


def test_algebra_rejects_mixed_grids():
    with pytest.raises(GridMismatchError):
        square(GridSpec(10)) + square(GridSpec(20))


def test_certificates_propagate_through_the_algebra():
    spec = GridSpec(100)
    f, g = square(spec), identity(spec)
    for h in (f + g, f - g, f * g, 3 * f, f + 1, -f):
        assert h.certificate is not None
        assert h.quotient_certificate is not None


def test_uncertified_operands_drop_certificates():
    spec = GridSpec(100)
    bare = GridFunction(spec, lambda n: Fraction(n, 100))
    assert bare.certificate is None
    assert (square(spec) + bare).certificate is None
    assert (square(spec) * bare).quotient_certificate is None


def test_certificate_combinators():
    c = constant_certificate(Fraction(-5))
    assert c.bound == 5 and c.modulus(Fraction(1, 2)) == 0
    i = Certificate(Fraction(1), Fraction(1), Fraction(0))
    assert i.bound == 1 and i.modulus(Fraction(1, 3)) == Fraction(1, 3)
    s = add_certificates(c, i)
    assert s.bound == 6 and s.modulus(Fraction(1, 4)) == Fraction(1, 4)
    t = multiply_certificates(constant_certificate(Fraction(-2)), i)
    assert t.bound == 2 and t.modulus(Fraction(1, 4)) == Fraction(1, 2)
    m = multiply_certificates(Certificate(Fraction(2), Fraction(1), Fraction(0)), i)
    assert m.bound == 2
    # bounded-factor rule: 2 * d + 1 * d
    assert m.modulus(Fraction(1, 8)) == Fraction(3, 8)
    assert m == Certificate(Fraction(2), Fraction(3), Fraction(0))


def test_scalar_shift_keeps_the_quotient_certificate():
    # shifting by a constant changes the bound but not any modulus
    spec = GridSpec(100)
    shifted = square(spec) + 7
    assert shifted.certificate.bound == Fraction(8)
    assert shifted.certificate.modulus(Fraction(1, 10)) == Fraction(2, 10)
    assert shifted.quotient_certificate.bound == 2


def test_fn_indiscernible_accepts_identical_functions():
    spec = GridSpec(200)
    result = fn_indiscernible(square(spec), square(spec), CTX, PLAN)
    assert result
    assert result.max_gap == 0
    assert result.mode == "exhaustive"
    assert result.witness is None


def test_fn_indiscernible_accepts_a_gap_of_exactly_one_over_h():
    spec = GridSpec(200)
    shifted = square(spec) + Fraction(1, CTX.H)
    result = fn_indiscernible(square(spec), shifted, CTX, PLAN)
    assert result
    assert result.max_gap == CTX.infinitesimal_scale
    assert result.witness is None


def test_fn_indiscernible_reports_a_witness():
    spec = GridSpec(200)
    result = fn_indiscernible(square(spec), identity(spec), CTX, PLAN)
    assert not result
    assert isinstance(result, CheckReport)
    # the first probed point where x^2 and x differ by more than 1/H
    assert result.witness == "1/200"
    assert result.max_gap > CTX.infinitesimal_scale


def test_fn_indiscernible_requires_a_common_grid():
    with pytest.raises(GridMismatchError):
        fn_indiscernible(square(GridSpec(10)), square(GridSpec(20)), CTX)


def test_transport_roundtrip_moves_identity_by_less_than_both_meshes():
    for a, b in ((GridSpec(10), GridSpec(30)), (GridSpec(30), GridSpec(10))):
        # each direction rounds down onto the other grid
        assert transport(identity(a), b)(b.point(7)) == Fraction(7 * a.tau // b.tau, a.tau)
        back = transport(transport(identity(a), b), a)
        for p in a.points():
            assert abs(back(p) - p.value) < a.epsilon + b.epsilon


def test_transport_carries_values_along_the_equivalence():
    a, b = GridSpec(10), GridSpec(30)
    g = transport(square(a), b)
    assert g.spec == b
    assert g(b.point(9)) == Fraction(3, 10) ** 2


def test_transport_keeps_the_lane():
    a, b = GridSpec(10), GridSpec(30)
    f = square(a)
    g = transport(f, b)
    assert g.den == f.den == 100
    assert g.numerators() == ([(n // 3) ** 2 for n in range(31)], 100)
    e = exp_fn(a)
    assert transport(e, b).numerators() == ([e.at(n // 3) for n in range(31)], 1)


def test_transport_stretches_the_certificate_by_one_source_mesh():
    a, b = GridSpec(10), GridSpec(30)
    g = transport(square(a), b)
    src = square(a).certificate
    d = Fraction(1, 7)
    assert g.certificate.bound == src.bound
    assert g.certificate.modulus(d) == src.modulus(d + a.epsilon)


def test_continuity_certified_for_certified_functions():
    spec = GridSpec(10**6)
    report = continuity_check(square(spec), CTX, PLAN)
    assert report.mode == "certified"
    assert bool(report)
    assert report.check == "continuity"
    assert report.max_gap == 0 and report.tolerance == CTX.infinitesimal_scale
    # the certificate that earned the verdict meets 1/H at the mesh width
    assert square(spec).certificate.modulus(spec.epsilon) <= CTX.infinitesimal_scale


def test_continuity_sampled_ok_without_a_certificate():
    spec = GridSpec(4096)
    bare = GridFunction(spec, lambda n: Fraction(n, 4096))
    report = continuity_check(bare, CTX, PLAN)
    assert report.mode == "sampled-ok"
    assert bool(report)
    assert report.samples == len(PLAN.indices(spec.tau))


def test_continuity_refuted_with_an_adjacent_witness():
    spec = GridSpec(4096)
    report = continuity_check(step(spec), CTX, PLAN)
    assert report.mode == "refuted"
    assert not report
    # the adjacent pair across the jump, and the jump itself
    assert report.witness == "jump between 2047/4096 and 1/2"
    assert report.max_gap == 1


def test_weak_certificates_fall_back_to_sampling():
    spec = GridSpec(4096)
    # modulus too large to certify at H=1000, but values are constant
    weak = Certificate(Fraction(1), Fraction(0), Fraction(1))
    f = GridFunction(spec, lambda n: Fraction(0), weak)
    report = continuity_check(f, CTX, PLAN)
    assert report.mode == "sampled-ok"


def test_exp_fn_is_certified_continuous():
    report = continuity_check(exp_fn(GridSpec(2**20)), CTX, PLAN)
    assert report.mode == "certified"


def test_constant_has_zero_moduli():
    spec = GridSpec(10)
    f = constant(spec, Fraction(5, 3))
    assert f.certificate.bound == Fraction(5, 3)
    assert f.certificate.modulus(Fraction(1)) == 0
    assert f.quotient_certificate.modulus(Fraction(1)) == 0


def test_monomial_certificates_are_sound_on_sampled_pairs():
    spec = GridSpec(512)
    f = monomial(spec, 3)
    omega = f.certificate.modulus
    for i in range(0, 512, 7):
        for j in range(i + 1, min(i + 40, 513), 11):
            a, b = spec.point(i), spec.point(j)
            assert abs(f(b) - f(a)) <= omega(b.value - a.value)


def test_monomial_rejects_negative_exponents():
    with pytest.raises(DomainError):
        monomial(GridSpec(10), -1)


# --- certificates as data against the closure formulas ----------------------

# Before certificates became (bound, slope, offset), each was a bound and a
# modulus closure built by these formulas; the data form must read the same.


def _closure(c):
    return c.bound, lambda d: c.slope * d + c.offset


def _old_add(a, b):
    return a[0] + b[0], lambda d: a[1](d) + b[1](d)


def _old_scale(c, a):
    c = abs(c)
    return c * a[0], lambda d: c * a[1](d)


def _old_multiply(a, b):
    return a[0] * b[0], lambda d: a[0] * b[1](d) + b[0] * a[1](d)


def _old_quotient_product(f, fq, g, gq):
    bound = f[0] * gq[0] + g[0] * fq[0]
    return bound, lambda d: f[0] * gq[1](d) + gq[0] * f[1](d) + g[0] * fq[1](d) + fq[0] * g[1](d)


def _old_exp_of(g, theta):
    lip = Fraction(3 ** max(1, ceil(g[0])))
    return lip, lambda d: lip * g[1](d) + 2 * theta


def _old_transport(a, eps_src):
    return a[0], lambda d: a[1](d + eps_src)


def _old_antiderivative(a, eps):
    return (a[0] * (1 + eps), lambda d: a[0] * d), a


def _rationals(top=50):
    return st.builds(
        Fraction, st.integers(min_value=0, max_value=top), st.integers(min_value=1, max_value=64)
    )


def _certificates(top=50):
    return st.builds(Certificate, _rationals(top), _rationals(top), _rationals(top))


def _reads_like(cert, old, gaps):
    bound, modulus = old
    assert cert.bound == bound
    assert [cert.modulus(d) for d in gaps] == [modulus(d) for d in gaps]


_GAPS = st.lists(_rationals(4), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    _certificates(),
    _certificates(),
    _certificates(),
    _certificates(),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 64)),
    _GAPS,
)
def test_combinators_read_like_the_closure_formulas(a, b, c, e, k, gaps):
    _reads_like(add_certificates(a, b), _old_add(_closure(a), _closure(b)), gaps)
    _reads_like(
        multiply_certificates(constant_certificate(k), a), _old_scale(k, _closure(a)), gaps
    )
    _reads_like(multiply_certificates(a, b), _old_multiply(_closure(a), _closure(b)), gaps)
    _reads_like(
        _quotient_product_certificate(a, b, c, e),
        _old_quotient_product(*map(_closure, (a, b, c, e))),
        gaps,
    )


def test_each_rule_given_a_missing_certificate_gives_none():
    c = Certificate(Fraction(2), Fraction(1), Fraction(1, 3))
    for a, b in ((None, c), (c, None), (None, None)):
        assert add_certificates(a, b) is None
        assert multiply_certificates(a, b) is None
    for missing in range(4):
        sides = [c] * 4
        sides[missing] = None
        assert _quotient_product_certificate(*sides) is None


# A shift and a scale were rules of their own; they are now the sum and
# product rules applied to the constant c, and must give what these gave.


def _scale_certificate(c, a):
    c = abs(Fraction(c))
    return Certificate(c * a.bound, c * a.slope, c * a.offset)


def _shift_rule(f, c):
    cert = f.certificate and replace(f.certificate, bound=f.certificate.bound + abs(c))
    return cert, f.quotient_certificate


def _scale_rule(f, c):
    # one narrowing: the product rule reads f's bound, so a node without a
    # value certificate keeps no quotient certificate when scaled
    cert, qcert = f.certificate, f.quotient_certificate
    if cert is None:
        return None, None
    return _scale_certificate(c, cert), qcert and _scale_certificate(c, qcert)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.none(), _certificates()),
    st.one_of(st.none(), _certificates()),
    st.sampled_from([(True, 1), (True, 7), (False, 1)]),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 64)),
)
def test_scalars_compose_like_the_former_shift_and_scale(cert, qcert, lane, c):
    # integer numerators over 1 or 7, or Fraction numerators over 1
    integer, den = lane
    spec = GridSpec(8)
    at = (lambda n: n * n) if integer else (lambda n: Fraction(n * n, 3))
    f = GridFunction(spec, at, cert, qcert, den)
    negated = GridFunction(spec, at, *_scale_rule(f, -1), den)
    cases = [
        (f + c, _shift_rule(f, c), lambda v: v + c),
        (c + f, _shift_rule(f, c), lambda v: v + c),
        (f - c, _shift_rule(f, -c), lambda v: v - c),
        (c - f, _shift_rule(negated, c), lambda v: c - v),
        (c * f, _scale_rule(f, c), lambda v: c * v),
        (-f, _scale_rule(f, -1), lambda v: -v),
    ]
    values = [f(p) for p in spec.points()]
    for h, expected, op in cases:
        assert (h.certificate, h.quotient_certificate) == expected
        assert h.materialize() == [op(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(
    _certificates(top=20),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=2, max_value=64),
    st.sampled_from([DEFAULT_POLICY, FULL_POLICY]),
    _GAPS,
)
def test_exp_transport_and_integral_read_like_the_closure_formulas(cert, tau, tau_b, policy, gaps):
    spec = GridSpec(tau)
    f = GridFunction(spec, lambda n: Fraction(0), cert)
    theta = 0 if policy.mode == "full" else Fraction(1, tau * 2**policy.guard)
    _reads_like(exp_of(f, policy).certificate, _old_exp_of(_closure(cert), theta), gaps)
    carried = transport(f, GridSpec(tau_b)).certificate
    _reads_like(carried, _old_transport(_closure(cert), spec.epsilon), gaps)
    anti = _antiderivative(f, [0] * (tau + 1), 1)
    old_cert, old_qcert = _old_antiderivative(_closure(cert), spec.epsilon)
    _reads_like(anti.certificate, old_cert, gaps)
    _reads_like(anti.quotient_certificate, old_qcert, gaps)
