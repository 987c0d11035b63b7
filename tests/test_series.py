"""Truncated exponential and logarithm, and probed countable sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypergrid import series
from hypergrid import (
    DomainError,
    GridSpec,
    ObservationContext,
    ResourceLimitError,
    SearchRangeError,
    TruncationPolicy,
    compile,
    countable_sum,
    exp_approx,
    is_unstable,
    log_approx,
    parse,
)
from hypergrid.reals import MINUS_INFINITY, PLUS_INFINITY
from hypergrid.series import (
    DEFAULT_POLICY,
    EXP_ARGUMENT_LIMIT,
    FULL_POLICY,
    FULL_TAU_LIMIT,
    GUARD_LIMIT,
    UNSTABLE,
    exp_series,
)

CTX = ObservationContext(H=1000, K=10**6)


def partial_exp(q: Fraction, n: int) -> Fraction:
    """Independent oracle: literal term-by-term partial sum."""
    return sum((Fraction(q) ** i / math.factorial(i) for i in range(n + 1)), Fraction(0))


def test_policy_validation():
    assert TruncationPolicy().mode == "tail-bounded"
    with pytest.raises(DomainError):
        TruncationPolicy(mode="adaptive")
    with pytest.raises(DomainError):
        TruncationPolicy(guard=0)
    # the tail test multiplies every term by tau * 2**guard
    assert TruncationPolicy(guard=GUARD_LIMIT).guard == GUARD_LIMIT
    with pytest.raises(ResourceLimitError, match=f"guard {GUARD_LIMIT + 1} exceeds"):
        TruncationPolicy(guard=GUARD_LIMIT + 1)


def test_exp_at_zero_is_one():
    assert exp_approx(Fraction(0), 100) == 1
    assert exp_approx(Fraction(0), 100, FULL_POLICY) == 1


def test_full_sum_matches_the_termwise_oracle():
    for q in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
        assert exp_approx(q, 20, FULL_POLICY) == partial_exp(q, 20)


def test_small_tau_tail_policy_degenerates_to_the_full_sum():
    # the tail never drops below the threshold before i = tau
    assert exp_approx(Fraction(1), 20) == partial_exp(Fraction(1), 20)


def test_tail_policy_stays_within_its_threshold():
    tau = 5000
    guard = 20
    policy = TruncationPolicy("tail-bounded", guard=guard)
    threshold = Fraction(1, tau * 2**guard)
    for q in (Fraction(1), Fraction(-3, 2), Fraction(2), Fraction(-7, 3)):
        full = exp_approx(q, tau, FULL_POLICY)
        fast = exp_approx(q, tau, policy)
        assert abs(full - fast) < threshold


def test_tail_policy_stops_early_on_large_grids():
    value, stop = exp_series(Fraction(1), 10**6)
    assert stop < 100
    assert abs(value - partial_exp(Fraction(1), stop)) == 0


def test_full_policy_is_resource_guarded():
    with pytest.raises(ResourceLimitError):
        exp_approx(Fraction(1), FULL_TAU_LIMIT + 1, FULL_POLICY)


def test_exp_argument_is_magnitude_guarded():
    # the limit itself is summed; one lattice step past it is refused
    tau = 64
    assert exp_approx(Fraction(-EXP_ARGUMENT_LIMIT), tau) > 0
    for q in (EXP_ARGUMENT_LIMIT + Fraction(1, tau), -EXP_ARGUMENT_LIMIT - Fraction(1, tau)):
        for policy in (DEFAULT_POLICY, FULL_POLICY):
            with pytest.raises(ResourceLimitError):
                exp_approx(q, tau, policy)
    # the logarithm evaluates the exponential, so it inherits the guard
    with pytest.raises(ResourceLimitError):
        log_approx(Fraction(2**6000), 2**16)


def test_tiny_tau_rejected():
    with pytest.raises(DomainError):
        exp_approx(Fraction(1), 1)


def test_exp_is_monotone_on_the_lattice():
    tau = 200
    values = [exp_approx(Fraction(k, tau), tau) for k in range(0, 40)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_log_inverts_exp_on_lattice_points():
    tau = 500
    for k in (0, 1, 7, 100, 450):
        q = exp_approx(Fraction(k, tau), tau)
        assert log_approx(q, tau) == Fraction(k, tau)


def test_log_of_one_is_zero():
    assert log_approx(Fraction(1), 100) == 0


def test_log_below_one_is_negative_and_near_inverse():
    tau = 400
    q = Fraction(1, 2)
    v = log_approx(q, tau)
    assert v < 0
    assert v == -log_approx(2, tau)
    # within a couple lattice steps of the reference value
    assert abs(v + Fraction(693147, 10**6)) < Fraction(3, tau)


def test_log_roundtrip_gap_is_small():
    tau = 1000
    for x in (Fraction(1, 2), Fraction(-1), Fraction(17, 16), Fraction(2)):
        back = log_approx(exp_approx(x, tau), tau)
        assert abs(back - x) <= Fraction(2, tau) + Fraction(1, 100)


def test_log_requires_positive_arguments():
    with pytest.raises(DomainError):
        log_approx(Fraction(0), 100)
    with pytest.raises(DomainError):
        log_approx(Fraction(-1), 100)


def test_log_search_range_is_bounded():
    # at tau = 2 the lattice exponential grows only quadratically, so a
    # huge argument pushes the bracket past the k <= tau**2 limit
    with pytest.raises(SearchRangeError):
        log_approx(Fraction(10**9), 2)
    with pytest.raises(SearchRangeError):
        log_approx(Fraction(1, 10**9), 2)


def _doubling_log(q, tau, policy=DEFAULT_POLICY):
    """The original lattice log: double until the exponential overshoots,
    then bisect.  Kept here verbatim as the reference for the bracketed
    search."""
    q = Fraction(q)
    if q <= 0:
        raise DomainError("log_approx needs a positive argument")
    if q < 1:
        return -_doubling_log(1 / q, tau, policy)
    if tau < 2:
        raise DomainError("tau must be at least 2")

    def probe(k: int) -> Fraction:
        return exp_approx(Fraction(k, tau), tau, policy)

    # bracket: double hi until the exponential overshoots q
    lo, hi = 0, 1
    limit = tau * tau
    while probe(hi) <= q:
        lo, hi = hi, hi * 2
        if lo > limit:
            raise SearchRangeError(
                f"log search left the lattice (|k| <= {limit}) for argument {q}"
            )
    # invariant: probe(lo) <= q < probe(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) <= q:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, tau)


def _outcome(log, q, tau, policy):
    try:
        return log(q, tau, policy)
    except (DomainError, SearchRangeError) as exc:
        return type(exc), str(exc)


POLICIES = st.sampled_from(
    [FULL_POLICY] + [TruncationPolicy("tail-bounded", guard=g) for g in (1, 3, 64)]
)
TAUS = st.integers(min_value=2, max_value=4096)
NUDGE = st.sampled_from([0, Fraction(1, 10**30), -Fraction(1, 10**30)])


@st.composite
def log_cases(draw):
    """(q, tau, policy): one, arbitrary rationals on both sides of 1,
    lattice values of the exponential nudged by 1e-30 either way (and
    their reciprocals), and arguments far beyond the search range."""
    policy = draw(POLICIES)
    kind = draw(st.sampled_from(["one", "rational", "lattice", "huge"]))
    if kind == "huge":
        tau = draw(st.integers(min_value=2, max_value=12))
        return Fraction(draw(st.integers(2, 10**40)), draw(st.integers(1, 1000))), tau, policy
    tau = draw(TAUS)
    if kind == "one":
        return Fraction(1), tau, policy
    if kind == "rational":
        q = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
        return q, tau, policy
    k = draw(st.integers(min_value=0, max_value=4 * tau))
    q = exp_approx(Fraction(k, tau), tau, policy) + draw(NUDGE)
    return (1 / q if draw(st.booleans()) else q), tau, policy


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(log_cases())
def test_bracketed_log_matches_the_doubling_search(case):
    q, tau, policy = case
    assert _outcome(log_approx, q, tau, policy) == _outcome(_doubling_log, q, tau, policy)


def test_full_policy_limit_is_checked_before_the_search():
    for q in (Fraction(1), Fraction(1, 3), Fraction(10**30)):
        with pytest.raises(ResourceLimitError):
            log_approx(q, FULL_TAU_LIMIT + 1, FULL_POLICY)


def test_full_policy_past_2_to_the_14_is_refused_before_a_table_is_built(monkeypatch):
    # a table at this size takes about 440 MB, so the stand-in records
    # the call and stops instead of building one
    tau = 2**14 + 1
    built = []

    def refuse(*args):
        built.append(args)
        raise AssertionError("a Horner table was built")

    monkeypatch.setattr(series, "_horner_coefficients", refuse)
    f = compile(parse("exp(x)"), GridSpec(tau), FULL_POLICY)
    reads = (
        lambda: exp_approx(Fraction(1, 2), tau, FULL_POLICY),
        lambda: log_approx(Fraction(3), tau, FULL_POLICY),
        lambda: f.at(tau // 2),
    )
    for read in reads:
        with pytest.raises(ResourceLimitError):
            read()
    assert built == []


def test_the_full_policy_admits_2_to_the_14():
    assert series._require_grid(2**14, FULL_POLICY) is None


def test_log_evaluates_the_exponential_a_few_times_per_call(monkeypatch):
    tau = 2**17
    calls = []
    kernel = series._exp_kernel

    def counted(a, b, tau, policy):
        calls.append(Fraction(a, b))
        return kernel(a, b, tau, policy)

    monkeypatch.setattr(series, "_exp_kernel", counted)
    args = [1 + Fraction(k, 64) for k in range(65)]
    args += [exp_approx(Fraction(k, tau), tau) for k in (1, 777, 90_000)]
    for q in args:
        calls.clear()
        log_approx(q, tau)
        assert 1 <= len(calls) <= 6


def _reference_exp_loop(q: Fraction, tau: int, policy: TruncationPolicy):
    """The fused summation loop the integer kernel replaced, kept here
    verbatim as its reference: (numerator, denominator, stop_index)."""
    series._require_grid(tau, policy)
    a, b = q.numerator, q.denominator
    if abs(a) > EXP_ARGUMENT_LIMIT * b:
        raise ResourceLimitError(
            f"exp argument exceeds the magnitude limit {EXP_ARGUMENT_LIMIT}"
        )
    check_tail = policy.mode == "tail-bounded"
    # tail bound is valid once the term ratio |q|/(i+1) is at most 1/2
    ratio_floor = 2 * (abs(a) // b + 1)
    tail_factor = tau << policy.guard

    s = 1
    den = 1
    a_pow = 1
    stop = 0
    for i in range(1, tau + 1):
        a_pow *= a
        den *= b * i
        s = s * (b * i) + a_pow
        stop = i
        if check_tail and i >= ratio_floor:
            # whole tail <= 2 |t_{i+1}|; compare over the denominator den*b*(i+1)
            if 2 * abs(a_pow * a) * tail_factor < den * b * (i + 1):
                break
    return s, den, stop


KERNEL_POLICIES = st.sampled_from(
    [FULL_POLICY] + [TruncationPolicy("tail-bounded", guard=g) for g in (1, 3, 64, 1024)]
)


@st.composite
def kernel_arguments(draw):
    """(q, c, tau, policy): q zero, on the lattice, off it, or at and
    beside an integer (where the ratio floor steps), either sign; c
    scales q's numerator and denominator out of lowest terms."""
    tau = draw(TAUS)
    policy = draw(KERNEL_POLICIES)
    if policy.mode == "full":
        tau = min(tau, draw(st.integers(min_value=2, max_value=600)))
    kind = draw(st.sampled_from(["zero", "lattice", "rational", "floor"]))
    if kind == "zero":
        q = Fraction(0)
    elif kind == "lattice":
        q = Fraction(draw(st.integers(min_value=0, max_value=8 * tau)), tau)
    elif kind == "rational":
        q = Fraction(draw(st.integers(0, 10**6)), draw(st.integers(1, 10**5)))
    else:
        nudge = draw(st.sampled_from([0, Fraction(1, tau), Fraction(1, 10**12)]))
        q = draw(st.integers(min_value=0, max_value=40)) + draw(st.sampled_from([-1, 0, 1])) * nudge
    if draw(st.booleans()):
        q = -q
    return q, draw(st.sampled_from([1, 2, 3, 7, 2**40 + 1])), tau, policy


def _kernel_outcome(run):
    try:
        return run()
    except ResourceLimitError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kernel_arguments())
# the tail test's two sides are equal at i = 4: 2 * 30 * 2**1 == 5!
@example((Fraction(1), 1, 30, TruncationPolicy("tail-bounded", guard=1)))
@example((Fraction(-1), 6, 30, TruncationPolicy("tail-bounded", guard=1)))
@example((Fraction(EXP_ARGUMENT_LIMIT * 64 + 1, 64), 3, 64, DEFAULT_POLICY))
def test_exp_kernel_matches_the_fused_reference_loop(case):
    q, c, tau, policy = case
    expected = _kernel_outcome(lambda: _reference_exp_loop(q, tau, policy))
    got = _kernel_outcome(lambda: series._exp_kernel(q.numerator * c, q.denominator * c, tau, policy))
    if isinstance(expected[0], type):
        assert got == expected
        return
    num, den, stop = got
    assert stop == expected[2]
    # over b**stop * stop!, so the unreduced pair scales both by c**stop
    assert (num, den) == (expected[0] * c**stop, expected[1] * c**stop)
    assert exp_series(q, tau, policy) == (Fraction(num, den), stop)


@st.composite
def reader_cases(draw):
    """(b, tau, policy, reads, order, shuffle): b in {tau, tau**2, 7 tau,
    1}; reads of either sign at magnitudes up to 8b, up to 64, and at the
    magnitude limit (only its far side at tau = 10**6, where a read at
    the limit sums thousands of terms), in random, increasing or
    decreasing order of magnitude; the later reads at segment ends follow
    the same order, ``shuffle`` drawing the random one."""
    policy = draw(KERNEL_POLICIES)
    tau = draw(st.one_of(TAUS, st.just(10**6)))
    if policy.mode == "full" and tau < 10**6:  # 10**6 is past the full policy's limit
        tau = min(tau, draw(st.integers(min_value=2, max_value=600)))
    b = draw(st.sampled_from([tau, tau * tau, 7 * tau, 1]))
    top = EXP_ARGUMENT_LIMIT * b
    at_limit = [top + 1] if tau == 10**6 else [top - 1, top, top + 1]
    magnitudes = st.one_of(
        st.integers(min_value=0, max_value=8 * b),
        st.integers(min_value=0, max_value=64),
        st.sampled_from(at_limit),
    )
    ms = draw(st.lists(magnitudes, min_size=1, max_size=12))
    order = draw(st.sampled_from(["random", "increasing", "decreasing"]))
    if order != "random":
        ms.sort(reverse=order == "decreasing")
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(ms), max_size=len(ms)))
    shuffle = draw(st.randoms(use_true_random=False)).shuffle if order == "random" else None
    return b, tau, policy, [sign * m for sign, m in zip(signs, ms)], order, shuffle


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reader_cases())
@example((64, 64, DEFAULT_POLICY, [1, 2, 3, 64, 4096 * 64 + 1, 5], "random", None))
def test_exp_reader_equals_the_kernel(case):
    b, tau, policy, reads, order, shuffle = case

    def same_as_kernel(read, a):
        expected = _kernel_outcome(lambda: series._exp_kernel(a, b, tau, policy))
        assert _kernel_outcome(lambda: read(a)) == expected

    read = series._exp_reader(b, tau, policy)
    for a in reads:
        same_as_kernel(read, a)

    # each learned segment is one stop index's whole run of magnitudes,
    # and a kept coefficient list is the kernel's
    def stop(m):
        return series._stop_index(m, b, tau, policy)

    top = EXP_ARGUMENT_LIMIT * b
    ends = []
    for lo, hi, s, coefficients, size in read.segments:
        assert stop(lo) == stop(hi) == s
        assert lo == 0 or stop(lo - 1) < s
        assert hi == top or stop(hi + 1) > s
        assert size in (None, sum(c.bit_length() for c in series._horner_coefficients(b, s)))
        assert coefficients in (None, series._horner_coefficients(b, s))
        assert coefficients is None or size is not None
        ends += [m for m in (lo - 1, lo, hi, hi + 1) if m >= 0]
    if shuffle is not None:
        shuffle(ends)
    elif order == "decreasing":
        ends.reverse()
    fresh = series._exp_reader(b, tau, policy)
    for m in ends:
        same_as_kernel(fresh, m)
        same_as_kernel(fresh, -m)


@settings(max_examples=200, deadline=None)
@given(KERNEL_POLICIES, st.integers(min_value=2, max_value=4096), st.data())
def test_stop_bound_is_the_last_magnitude_at_or_below_a_stop(policy, tau, data):
    b = data.draw(st.sampled_from([tau, tau * tau, 7 * tau, 1]), label="b")
    t = data.draw(st.integers(min_value=0, max_value=min(tau - 1, 300)), label="t")
    bound = series._stop_bound(t, b, tau, policy)
    assert bound >= -1
    assert bound == -1 or series._stop_index(bound, b, tau, policy) <= t
    assert series._stop_index(bound + 1, b, tau, policy) > t


def _counting(monkeypatch, name):
    calls = []
    original = getattr(series, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series, name, counted)
    return calls


def test_exp_reader_learns_each_segment_once(monkeypatch):
    tau = 2**14
    stops_taken = _counting(monkeypatch, "_stop_index")
    bounds_taken = _counting(monkeypatch, "_stop_bound")
    read = series._exp_reader(tau, tau, DEFAULT_POLICY)
    stops = [read(n)[2] for n in range(tau + 1)]
    segments = read.segments
    # one entry per stop index read twice (all but m = 0's), in order
    twice = sorted(s for s in set(stops) if stops.count(s) > 1)
    assert [s for _, _, s, _, _ in segments] == twice
    assert segments[0][0] == 1 and segments[-1][1] >= tau
    assert all(left[1] + 1 == right[0] for left, right in zip(segments, segments[1:]))
    assert 15 <= len(segments) <= 30
    # a stop test at the first read of a stop index, another and two
    # bounds at the second, none after: not one stop test per read
    assert len(stops_taken) == len(set(stops)) + len(segments)
    assert len(bounds_taken) == 2 * len(segments)
    # many reads per segment: every list read more than once is kept
    assert all(coefficients is not None for lo, hi, _, coefficients, _ in segments if hi > lo)


def test_exp_reader_costs_no_more_than_the_kernel_when_segments_are_short(monkeypatch):
    # exp(100 x) at tau = 1000: about three reads per stop index
    tau, scale = 1000, 100
    stops_taken = _counting(monkeypatch, "_stop_index")
    bounds_taken = _counting(monkeypatch, "_stop_bound")
    lists_built = _counting(monkeypatch, "_horner_coefficients")
    read = series._exp_reader(tau, tau, DEFAULT_POLICY)
    returned = 0
    for n in range(tau + 1):
        returned += read(scale * n)[1].bit_length()
    segments = read.segments
    assert len(segments) > 250
    # the kernel takes one stop test and builds one coefficient list per read
    assert len(segments) < len(stops_taken) <= tau + 1
    assert len(bounds_taken) == 2 * len(segments)
    assert len(lists_built) <= tau + 1
    # the lists kept hold no more bits than the denominators returned
    held = sum(size for _, _, _, coefficients, size in segments if coefficients is not None)
    assert 0 < held <= returned


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2, 3, 64, 2**40 + 1]),
    st.integers(min_value=2, max_value=4096),
    POLICIES,
)
def test_log_index_ignores_a_common_factor(a, b, c, tau, policy):
    def log_index(pair, tau, policy):
        return series._log_index(*pair, tau, policy)

    k = _outcome(log_index, (a, b), tau, policy)
    assert _outcome(log_index, (a * c, b * c), tau, policy) == k
    expected = k if isinstance(k, tuple) else Fraction(k, tau)
    assert _outcome(log_approx, Fraction(a, b), tau, policy) == expected


def test_countable_sum_of_zeros_is_exactly_zero():
    out = countable_sum(lambda n: Fraction(0), CTX)
    assert out.is_finite
    assert out.representative == 0


def test_countable_sum_geometric_half_settles_near_two():
    out = countable_sum(lambda n: Fraction(1, 2**n), CTX)
    assert out.is_finite
    assert CTX.indiscernible(out.representative, Fraction(2))


def test_countable_sum_diverges_to_plus_infinity():
    ctx = ObservationContext(H=10, K=100)
    assert countable_sum(lambda n: Fraction(1), ctx) is PLUS_INFINITY


def test_countable_sum_diverges_to_minus_infinity():
    ctx = ObservationContext(H=10, K=100)
    assert countable_sum(lambda n: Fraction(-3), ctx) is MINUS_INFINITY


def test_harmonic_sum_is_unstable_at_any_cap_tried():
    out = countable_sum(lambda n: Fraction(1, n + 1), CTX, cap=2**12)
    assert is_unstable(out)


def test_plus_minus_one_reads_zero_at_doubling_probes():
    # every probe length past the first is even, so the partials the
    # probe sees are all zero: the verdict is a reading, not a proof
    out = countable_sum(lambda n: Fraction((-1) ** n), CTX, cap=2**8)
    assert out.is_finite
    assert out.representative == 0


def test_bounded_oscillation_is_unstable():
    # blocks [2^k, 2^(k+1)) alternate sign, so every doubling moves the
    # partial by about log 2 while it stays inside [-1, 1]
    term = lambda n: Fraction((-1) ** (n + 1).bit_length(), n + 1)
    out = countable_sum(term, CTX, cap=2**10)
    assert is_unstable(out)


def test_unstable_sentinel_semantics():
    assert not UNSTABLE
    assert repr(UNSTABLE) == "UNSTABLE"
    assert is_unstable(UNSTABLE)
    assert not is_unstable(Fraction(0))


def test_countable_sum_needs_a_real_probe_budget():
    with pytest.raises(DomainError):
        countable_sum(lambda n: Fraction(0), CTX, cap=2)
