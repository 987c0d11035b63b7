"""Expression parsing, rendering, folding, and compilation to the grid."""

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import ceil
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypergrid import (
    DomainError,
    GridSpec,
    ObservationContext,
    ParseError,
    cumulative_values,
    integral,
)
from hypergrid.errors import EvaluationError, HypergridError, ResourceLimitError
from hypergrid.expr import (
    POWER_LIMIT,
    BinOp,
    Call,
    Literal,
    Neg,
    Pow,
    Var,
    _power,
    compile,
    fold_constant,
    parse,
    pretty,
)
from hypergrid.functions import EXP_BOUND_LIMIT, constant, log_fn
from hypergrid.gridfun import Certificate, GridFunction
from hypergrid.series import DEFAULT_POLICY, FULL_POLICY, exp_approx, log_approx

CTX = ObservationContext(H=1000, K=10**6)


# --- parsing ----------------------------------------------------------------


def test_parse_builds_the_expected_trees():
    assert parse("x") == Var()
    assert parse("42") == Literal(Fraction(42))
    assert parse("x^2") == Pow(Var(), 2)
    assert parse("2*x + 1") == BinOp("+", BinOp("*", Literal(Fraction(2)), Var()), Literal(Fraction(1)))
    assert parse("exp(x)") == Call("exp", Var())
    assert parse("log(x + 1)") == Call("log", BinOp("+", Var(), Literal(Fraction(1))))


def test_operators_are_left_associative():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Literal(Fraction(1)), Literal(Fraction(2))), Literal(Fraction(3)))
    assert parse("8/4/2") == BinOp("/", BinOp("/", Literal(Fraction(8)), Literal(Fraction(4))), Literal(Fraction(2)))


def test_power_binds_tighter_than_unary_minus():
    assert parse("-x^2") == Neg(Pow(Var(), 2))


def test_power_exponent_folds_right_associatively():
    # x^2^3 parses the exponent as 2^3 and folds it to 8
    assert parse("x^2^3") == Pow(Var(), 8)


def test_exponents_outside_zero_to_the_power_limit_are_refused():
    # a hand-built tree may hold a negative exponent, which the grammar excludes
    for k, error in ((-1, DomainError), (POWER_LIMIT + 1, ResourceLimitError)):
        with pytest.raises(error):
            compile(Pow(Var(), k), GridSpec(4))
        with pytest.raises(error):
            fold_constant(Pow(Literal(Fraction(2)), k))


def test_decimal_literals_are_exact():
    assert parse("0.37") == Literal(Fraction(37, 100))
    assert parse(".5") == Literal(Fraction(1, 2))
    assert parse("2.50") == Literal(Fraction(5, 2))


def test_parentheses_group():
    assert parse("(x + 1) * x") == BinOp("*", BinOp("+", Var(), Literal(Fraction(1))), Var())


def test_whitespace_is_ignored():
    assert parse("  x ^ 2  ") == parse("x^2")


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x +", "(x", "log(", "x 2", "x^x", "x^(1/2)", "x^-2", "y", "sin(x)", "x @ 2"],
)
def test_syntax_errors_are_raised(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_errors_carry_the_column():
    with pytest.raises(ParseError) as info:
        parse("log(")
    assert "column 5" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse("x + y")
    assert "column 5" in str(info.value)


# --- folding and rendering ---------------------------------------------------


def test_fold_constant_evaluates_literal_subtrees():
    assert fold_constant(parse("2*3 + 1")) == 7
    assert fold_constant(parse("(1 - 3)^2")) == 4
    assert fold_constant(parse("1/4")) == Fraction(1, 4)


def test_fold_constant_refuses_the_variable_and_calls():
    assert fold_constant(parse("x + 1")) is None
    assert fold_constant(parse("exp(1)")) is None
    assert fold_constant(BinOp("/", Literal(Fraction(1)), Literal(Fraction(0)))) is None


def test_pretty_round_trips_sample_expressions():
    for text in (
        "x^2 + 1/2",
        "(x + 1)*(x - 1)",
        "-x^3 - 0.25",
        "exp(x)*x - log(x + 2)",
        "1 - 2 - 3",
        "x*(x + 1)",
        "(-x)^2",
    ):
        tree = parse(text)
        assert parse(pretty(tree)) == tree


def test_pretty_renders_exact_decimals_when_possible():
    assert pretty(Literal(Fraction(1, 4))) == "0.25"
    assert pretty(Literal(Fraction(1, 5))) == "0.2"
    assert pretty(Literal(Fraction(1, 3))) == "1/3"
    assert pretty(Literal(Fraction(7))) == "7"


def _literals():
    return st.builds(
        lambda n, k: Literal(Fraction(n, 10**k)),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=3),
    )


def _trees():
    return st.recursive(
        st.one_of(_literals(), st.just(Var())),
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
            st.builds(Pow, inner, st.integers(min_value=0, max_value=4)),
            st.builds(Call, st.sampled_from(("exp", "log")), inner),
        ),
        max_leaves=12,
    )


@given(_trees())
def test_pretty_then_parse_is_the_identity_on_parseable_trees(tree):
    assert parse(pretty(tree)) == tree


# --- compilation -------------------------------------------------------------


def test_compile_polynomials_evaluates_exactly():
    spec = GridSpec(10)
    f = compile(parse("x^2"), spec)
    assert f(spec.point(3)) == Fraction(9, 100)
    g = compile(parse("x^3 - x/2"), spec)
    p = spec.point(7)
    assert g(p) == p.value**3 - p.value / 2


def test_compile_matches_direct_arithmetic_on_a_mixed_expression():
    spec = GridSpec(100)
    f = compile(parse("(2*x + 1)^2 - x*(x - 4)"), spec)
    # division of lanes over tau**2 and 5*tau, and over 1 and 2 (exp's Fractions)
    g = compile(parse("(x^2 - 1/3)/(x + 1/5) + (x/7)/(exp(x)/2)"), spec)
    for n in (0, 17, 50, 100):
        v = spec.point(n).value
        assert f(spec.point(n)) == (2 * v + 1) ** 2 - v * (v - 4)
        e = exp_approx(v, 100)
        assert g(spec.point(n)) == (v * v - Fraction(1, 3)) / (v + Fraction(1, 5)) + (v / 7) / (e / 2)


def test_compile_exp_uses_the_series():
    spec = GridSpec(64)
    f = compile(parse("exp(x)"), spec)
    p = spec.point(32)
    assert f(p) == exp_approx(p.value, 64)


def test_compile_exp_of_a_constant():
    spec = GridSpec(64)
    f = compile(parse("exp(0)"), spec)
    assert f(spec.point(10)) == 1


def test_compile_log_matches_the_lattice_inverse():
    spec = GridSpec(64)
    f = compile(parse("log(x)"), spec)
    p = spec.point(40)
    assert f(p) == log_approx(p.value, 64)


def test_compile_log_raises_at_nonpositive_arguments():
    spec = GridSpec(64)
    f = compile(parse("log(x)"), spec)
    with pytest.raises(EvaluationError) as info:
        f(spec.point(0))
    assert "grid point 0" in str(info.value)


def test_log_fn_is_the_compiled_log():
    spec = GridSpec(64)
    for policy in (DEFAULT_POLICY, FULL_POLICY):
        f, g = log_fn(spec, policy), compile(parse("log(x)"), spec, policy)
        assert [f(spec.point(n)) for n in range(1, 65)] == [g(spec.point(n)) for n in range(1, 65)]
    with pytest.raises(EvaluationError):
        log_fn(spec)(spec.point(0))


def test_compile_policy_controls_the_series():
    spec = GridSpec(50)
    tail = compile(parse("exp(x)"), spec)
    full = compile(parse("exp(x)"), spec, FULL_POLICY)
    p = spec.point(25)
    # the policies produce different exact rationals (the tail stop fired)
    # that agree within the tail threshold
    assert tail(p) != full(p)
    assert abs(tail(p) - full(p)) < Fraction(1, 50 * 2**64)


def test_division_by_constant_zero_is_a_compile_error():
    spec = GridSpec(10)
    with pytest.raises(DomainError):
        compile(parse("1/0"), spec)
    with pytest.raises(DomainError):
        compile(parse("x/(2 - 2)"), spec)


def test_division_by_a_vanishing_function_is_an_evaluation_error():
    spec = GridSpec(10)
    f = compile(parse("1/x"), spec)
    assert f(spec.point(5)) == 2
    with pytest.raises(EvaluationError):
        f(spec.point(0))


def test_certificates_survive_compilation_where_provable():
    spec = GridSpec(100)
    cases = {
        "x^2": (True, True),
        "x^3 - x/2": (True, True),
        "exp(x)": (True, True),
        "x*exp(x)": (True, True),
        "exp(x^2)": (True, False),
        "log(x)": (False, False),
        "1/x": (False, False),
    }
    for text, (has_cert, has_qcert) in cases.items():
        f = compile(parse(text), spec)
        assert (f.certificate is not None) == has_cert, text
        assert (f.quotient_certificate is not None) == has_qcert, text


def test_compiled_exp_of_certified_argument_has_a_sound_bound():
    spec = GridSpec(200)
    f = compile(parse("exp(x^2)"), spec)
    # bound 3**ceil(sup x^2) = 3 dominates e on [0, 1]
    assert f.certificate.bound == 3
    for n in (0, 50, 100, 200):
        assert abs(f(spec.point(n))) <= f.certificate.bound


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, FULL_POLICY])
def test_exp_certificate_readings_are_pinned(policy):
    tau = 64
    spec = GridSpec(tau)
    theta = 0 if policy.mode == "full" else Fraction(1, tau * 2**policy.guard)
    d = Fraction(1, 16)
    # text: (value bound, value modulus at d, quotient (bound, modulus) or None);
    # exp of an argument bounded by B is bounded by 3**ceil(B)
    cases = {
        "exp(x)": (3, 3 * d + 2 * theta, (3, 3 * d + 4 * theta * tau)),
        "exp(x^2)": (3, 3 * 2 * d + 2 * theta, None),
        "exp(2*x - 1)": (27, 27 * 2 * d + 2 * theta, None),
    }
    for text, (bound, modulus, quotient) in cases.items():
        f = compile(parse(text), spec, policy)
        assert f.certificate.bound == bound, text
        assert f.certificate.modulus(d) == modulus, text
        qcert = f.quotient_certificate
        assert (qcert and (qcert.bound, qcert.modulus(d))) == quotient, text


# --- the batch path and the polynomial lane ---------------------------------


def _nonzero_literals():
    return st.builds(
        lambda n, k: Literal(Fraction(n, 10**k)),
        st.integers(min_value=1, max_value=999),
        st.integers(min_value=0, max_value=3),
    )


def _polynomial_trees():
    inner = st.recursive(
        st.one_of(_literals(), st.just(Var())),
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
            st.builds(BinOp, st.just("/"), inner, _nonzero_literals()),
            st.builds(Pow, inner, st.integers(min_value=0, max_value=6)),
        ),
        max_leaves=10,
    )
    # a binary root, so that most trees mix several degrees
    return st.one_of(inner, st.builds(BinOp, st.sampled_from("+-*"), inner, inner))


def _degree(node) -> int:
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return _degree(node.child)
    if isinstance(node, Pow):
        return _degree(node.base) * node.exponent
    if isinstance(node, BinOp):
        left, right = _degree(node.left), _degree(node.right)
        return left + right if node.op == "*" else max(left, right)
    return 0


def _direct(node, x: Fraction) -> Fraction:
    """The tree's value at x in plain Fraction arithmetic."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_direct(node.child, x)
    if isinstance(node, Pow):
        return _direct(node.base, x) ** node.exponent
    a, b = _direct(node.left, x), _direct(node.right, x)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else None}[node.op]


@settings(max_examples=100, deadline=None)
@given(_polynomial_trees(), st.integers(min_value=2, max_value=512))
@example(parse("x^3 - x/2"), 512)
@example(parse("(x + 1/3)^5 - 2*x^2 + 7"), 97)
@example(parse("-(0.25 - x)^6 * (x/3 + 1) - x^2/0.7"), 255)
def test_polynomial_lane_equals_direct_fraction_evaluation(tree, tau):
    assume(_degree(tree) <= 48)
    spec = GridSpec(tau)
    f = compile(tree, spec)
    expected = [_direct(tree, Fraction(n, tau)) for n in range(tau + 1)]
    numerators, den = f.numerators()
    # a lane: integers over f's own denominator (1 only for an integer constant)
    assert all(type(v) is int for v in numerators)
    assert den == f.den and (den != 1 or len(set(numerators)) == 1)
    assert [Fraction(v, den) for v in numerators] == expected
    assert [f(p) for p in spec.points()] == expected
    assert f.materialize() == expected
    sums = list(accumulate(expected))
    assert cumulative_values(f) == sums
    assert cumulative_values(f, workers=3) == sums


def _read_or_error(read):
    try:
        return read()
    except HypergridError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    _polynomial_trees(),
    st.integers(min_value=2, max_value=64),
    st.sampled_from([DEFAULT_POLICY, FULL_POLICY]),
)
@example(parse("x^3 - x/2"), 64, DEFAULT_POLICY)
@example(parse("(x + 1/3)^5 - 2*x^2 + 7"), 37, FULL_POLICY)
def test_exp_and_log_of_a_lane_equal_the_series_on_its_values(tree, tau, policy):
    # exp reads the lane's numerators over its denominator, and log of
    # 1 + tree^2 is a lane over tau; both equal the series on the values
    assume(_degree(tree) <= 24)
    spec = GridSpec(tau)
    values = [_direct(tree, Fraction(n, tau)) for n in range(tau + 1)]
    exp_f = compile(Call("exp", tree), spec, policy)
    log_f = compile(Call("log", BinOp("+", Literal(Fraction(1)), Pow(tree, 2))), spec, policy)
    assert exp_f.den == 1 and log_f.den == tau
    for p, v in zip(spec.points(), values):
        assert _read_or_error(lambda: exp_f(p)) == _read_or_error(lambda: exp_approx(v, tau, policy))
        assert _read_or_error(lambda: log_f(p)) == _read_or_error(
            lambda: log_approx(1 + v * v, tau, policy)
        )


def _small_literals():
    return st.sampled_from([Literal(Fraction(v)) for v in (0, 1, 2, Fraction(1, 2))])


def _exp_trees():
    return st.recursive(
        st.one_of(_small_literals(), st.just(Var())),
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
            st.builds(BinOp, st.just("/"), inner, _nonzero_literals()),
            st.builds(Pow, inner, st.integers(min_value=0, max_value=3)),
            st.builds(Call, st.just("exp"), inner),
        ),
        max_leaves=8,
    )


def _sup(node) -> Fraction:
    """A crude bound on |value| over [0, 1]; exp(a) counts as 3**ceil(a)."""
    if isinstance(node, Literal):
        return abs(node.value)
    if isinstance(node, Var):
        return Fraction(1)
    if isinstance(node, Neg):
        return _sup(node.child)
    if isinstance(node, Pow):
        return _sup(node.base) ** node.exponent
    if isinstance(node, Call):
        return Fraction(3) ** ceil(_sup(node.arg))
    a, b = _sup(node.left), _sup(node.right)
    if node.op == "/":
        return a / abs(node.right.value)
    return a * b if node.op == "*" else a + b


def _exp_arguments(node):
    if isinstance(node, Call):
        yield node.arg
        yield from _exp_arguments(node.arg)
    elif isinstance(node, Neg):
        yield from _exp_arguments(node.child)
    elif isinstance(node, Pow):
        yield from _exp_arguments(node.base)
    elif isinstance(node, BinOp):
        yield from _exp_arguments(node.left)
        yield from _exp_arguments(node.right)


@settings(max_examples=40, deadline=None)
@given(_exp_trees(), st.integers(min_value=2, max_value=64))
def test_batch_path_equals_point_by_point_evaluation(tree, tau):
    # large exp arguments only make the series slow, not the test stronger
    assume(all(_sup(arg) <= 6 for arg in _exp_arguments(tree)))
    spec = GridSpec(tau)
    per_point = compile(tree, spec)
    expected = [per_point(p) for p in spec.points()]
    batched = compile(tree, spec)
    assert batched.materialize() == expected
    assert batched.materialize() == expected  # again
    sums = list(accumulate(expected))
    assert cumulative_values(compile(tree, spec)) == sums
    assert cumulative_values(compile(tree, spec), workers=3) == sums
    anti = integral(compile(tree, spec))
    integral_values = [s * spec.epsilon for s in sums]
    assert anti.materialize() == integral_values
    assert [anti(p) for p in spec.points()] == integral_values
    for f in (batched, anti):  # one representation: numerators over a positive int
        assert type(f.den) is int and f.den >= 1
        pair, values = f._pair_at(), f.materialize()
        for n, v in enumerate(values):
            num, den = pair(n)
            assert type(num) is int and type(den) is int and Fraction(num, den) == v


def test_materialize_fails_where_point_by_point_evaluation_fails_first():
    # the batch meets the division by zero at 1/2 before the log fails at 0
    spec = GridSpec(4)
    f = compile(parse("log(1/(x - 1/2))"), spec)
    with pytest.raises(EvaluationError) as info:
        f.materialize()
    assert info.value.point == spec.point(0)
    assert "log of non-positive value -2" in str(info.value)


def _k_fold_product(base, k):
    out = constant(base.spec, 1)
    for _ in range(k):
        out = out * base
    return out


def _readings(f, gaps):
    """Bound and modulus at each gap of f's value and quotient
    certificates, None for a certificate f does not carry."""
    return [
        None if cert is None else (cert.bound, [cert.modulus(d) for d in gaps])
        for cert in (f.certificate, f.quotient_certificate)
    ]


@settings(max_examples=40, deadline=None)
@given(
    _exp_trees(),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2, max_value=16),
)
@example(Var(), 40, 16)
@example(parse("exp(x)"), 7, 16)
@example(parse("x^2 + x/3"), 9, 16)
@example(parse("exp(x^2)"), 5, 16)
@example(parse("1 + x"), 13, 16)
@example(parse("1/(1 + x)"), 6, 8)
def test_powers_fold_by_squaring_to_the_k_fold_product(base, k, tau):
    assume(all(_sup(arg) <= 6 for arg in _exp_arguments(base)))
    spec = GridSpec(tau)
    squared = compile(Pow(base, k), spec)
    chained = _k_fold_product(compile(base, spec), k)
    expected = chained.materialize()
    assert squared.materialize() == expected
    assert [squared(p) for p in spec.points()] == expected
    gaps = [spec.epsilon, Fraction(1, 16), Fraction(1)]
    assert _readings(squared, gaps) == _readings(chained, gaps)


def _certificate_or_none():
    part = st.builds(Fraction, st.integers(0, 9), st.integers(1, 9))
    return st.one_of(st.none(), st.builds(Certificate, part, part, part))


@settings(max_examples=60, deadline=None)
@given(
    _certificate_or_none(),
    _certificate_or_none(),
    st.sampled_from(["lane", "value", "monomial", "exp"]),
    st.integers(min_value=1, max_value=64),
)
def test_a_power_carries_the_certificates_and_den_of_the_k_fold_product(cert, qcert, kind, k):
    spec = GridSpec(4)
    if kind == "lane":
        base = GridFunction(spec, lambda n: n + 1, cert, qcert, 3)
    elif kind == "value":
        base = GridFunction(spec, lambda n: Fraction(n + 1, 3), cert, qcert)
    else:
        base = compile(parse("x" if kind == "monomial" else "exp(x)"), spec)
    power, product = _power(base, k), reduce(mul, [base] * k)
    assert power.certificate == product.certificate
    assert power.quotient_certificate == product.quotient_certificate
    assert power.den == product.den
    assert power.materialize() == product.materialize()
    one = _power(base, 0)
    expected = constant(spec, 1)
    assert (one.certificate, one.quotient_certificate, one.den) == (
        expected.certificate, expected.quotient_certificate, expected.den
    )
    assert one.materialize() == [1] * 5


def test_a_square_reads_its_operand_once():
    spec = GridSpec(16)
    calls = []

    def at(n):
        calls.append(n)
        return Fraction(n, 16) + 1

    f = _power(GridFunction(spec, at), 8)
    assert f.materialize() == [(p.value + 1) ** 8 for p in spec.points()]
    assert calls == list(range(17))
    calls.clear()
    assert f(spec.point(3)) == Fraction(19, 16) ** 8
    assert calls == [3]


def test_exp_of_a_huge_argument_drops_its_certificate():
    # 3**ceil(B) for B = 10**9 would be a 1.6-Gbit integer
    spec = GridSpec(64)
    assert compile(parse("exp(10^9*x)"), spec).certificate is None
    assert compile(parse(f"exp({EXP_BOUND_LIMIT + 1}*x)"), spec).certificate is None
    kept = compile(parse("exp(65536*x)"), spec).certificate
    assert kept.bound == 3**EXP_BOUND_LIMIT


# --- certificate soundness --------------------------------------------------


def _assert_certifies(cert, values, tau, label):
    """``cert`` holds for ``values``, read at the consecutive grid points
    0, 1/tau, 2/tau, ...: every |value| <= bound, and every pair k steps
    apart moves by at most modulus(k/tau)."""
    assert max(abs(v) for v in values) <= cert.bound, label
    for k in range(1, len(values)):
        jump = max(abs(values[n + k] - values[n]) for n in range(len(values) - k))
        assert jump <= cert.modulus(Fraction(k, tau)), (label, k)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(_polynomial_trees(), _exp_trees()),
    st.integers(min_value=2, max_value=64),
    st.sampled_from([DEFAULT_POLICY, FULL_POLICY]),
)
@example(parse("x*exp(x)"), 64, DEFAULT_POLICY)
@example(parse("exp(x)^5 * x^3 - exp(2*x - 1)"), 64, DEFAULT_POLICY)
@example(parse("exp(exp(x))"), 33, FULL_POLICY)
@example(parse("(x + 1)^7 * exp(x)"), 16, DEFAULT_POLICY)
def test_certificates_are_sound_on_every_grid_pair(tree, tau, policy):
    assume(_degree(tree) <= 48)
    assume(all(_sup(arg) <= 6 for arg in _exp_arguments(tree)))
    spec = GridSpec(tau)
    f = compile(tree, spec, policy)
    values = f.materialize()
    if f.certificate is not None:
        _assert_certifies(f.certificate, values, tau, "values")
    if f.quotient_certificate is not None:
        quotients = [(values[n + 1] - values[n]) * tau for n in range(tau)]
        _assert_certifies(f.quotient_certificate, quotients, tau, "quotients")
