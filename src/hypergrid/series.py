"""Truncated power series and probed countable sums, all in exact
rational arithmetic.

The exponential here is literally the partial sum of q^i/i! through
i = tau.  Two truncation policies exist because exactness and cost pull
in opposite directions:

* ``full``: every term through i = tau.  This is the reference value,
  and it becomes expensive for large tau.
* ``tail-bounded``: stop once the remaining tail is provably below
  1/(tau * 2**guard).  Past i >= 2|q| the term ratio is at most 1/2, so
  twice the next term bounds the whole tail.  The result differs from
  the full sum by less than the threshold, which is far below any
  observation tolerance in use; when the threshold is never reached
  (tiny tau), the sum runs to tau and the result is the full sum.

One summation serves every caller, reached two ways.  Both take a
numerator and a positive denominator, not necessarily in lowest terms,
so a lane's numerator over its denominator goes in as it is, and both
find the stop index first (``_stop_index``), by the tail test alone,
without summing; then they sum top-down by Horner (``_horner``) over the
coefficients b**(s-i+1) s!/(i-1)! (``_horner_coefficients``), the last of
which is the denominator b**s * s!.  ``_exp_kernel`` does all three per
call.  ``_exp_reader`` fixes b: the stop index is non-decreasing in |a|,
and the last |a| at or below a given stop index is an integer root
(``_stop_bound``), so the reader learns each stop index's segment of |a|
once, and a later read in that segment skips the stop test; it keeps a
segment's coefficients too while the lists it holds stay within the
denominators it has returned.  Nothing is normalized until a caller
forms a Fraction.

The logarithm inverts the truncated exponential over the lattice
k/tau: it returns the largest lattice point whose exponential does not
exceed the argument.  Arguments below 1 are routed through the
reciprocal, which keeps the search on nonnegative lattice points where
the truncated series is provably monotone.  For x >= 0 every term is
positive, so 1 + x <= E(x) <= e^x under either policy: a rational lower
bound on ln q, computed in fixed-point integers, gives an admissible
lattice point without evaluating E at all, and a rational upper bound
gives a candidate overshoot that one evaluation confirms.  Monotonicity
makes the largest admissible point unique, so the answer does not
depend on how the bracket was found; only the cost does (one to three
evaluations of E, each compared with the argument in integers).  Its
integer entry point, ``_log_index``, takes a numerator and a
denominator and returns the lattice index k itself.

``countable_sum`` evaluates partial sums at doubling lengths and issues
a verdict: a value once the partials settle, an infinity once they
leave the bounded range, or the ``UNSTABLE`` sentinel when the probe
budget ends with the partials still moving.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, lgamma, log
from typing import Callable, Optional, Union

from .context import ObservationContext
from .errors import DomainError, ResourceLimitError, SearchRangeError
from .rational import brief_rational
from .reals import MINUS_INFINITY, PLUS_INFINITY, ExtendedReal, real_from_rational

#: The largest grid summed under the full policy.  Its Horner table, tau
#: coefficients of up to 2 tau log2(tau) bits, takes 436 MiB at 2**14 and
#: about 4.3 times as much per doubling of tau.
FULL_TAU_LIMIT = 2**14
#: The largest |q| whose exponential is summed: past it the series needs
#: more than 2|q| terms and e**|q| has thousands of digits.
EXP_ARGUMENT_LIMIT = 2**12
#: The largest truncation guard: the tail test multiplies by tau * 2**guard.
GUARD_LIMIT = 2**10


@dataclass(frozen=True)
class TruncationPolicy:
    """How far to carry a series: ``mode`` is "full" or "tail-bounded";
    ``guard`` sets the tail threshold 1/(tau * 2**guard)."""

    mode: str = "tail-bounded"
    guard: int = 64

    def __post_init__(self):
        if self.mode not in ("full", "tail-bounded"):
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        if self.guard < 1:
            raise DomainError("guard must be a positive integer")
        if self.guard > GUARD_LIMIT:
            raise ResourceLimitError(f"guard {self.guard} exceeds the limit {GUARD_LIMIT}")


DEFAULT_POLICY = TruncationPolicy()
FULL_POLICY = TruncationPolicy(mode="full")
#: The log search's first try at an overshoot: its tail threshold
#: 1/(64 tau) is usually far below q's distance from E one lattice step up.
_COARSE = TruncationPolicy(guard=6)


def _require_grid(tau: int, policy: TruncationPolicy):
    if tau < 2:
        raise DomainError("tau must be at least 2")
    if policy.mode == "full" and tau > FULL_TAU_LIMIT:
        raise ResourceLimitError(
            f"full truncation at tau={tau} exceeds the limit {FULL_TAU_LIMIT};"
            " use a tail-bounded policy"
        )


def _stop_index(m: int, b: int, tau: int, policy: TruncationPolicy) -> int:
    """The index of the last term summed for |q| = m/b (b > 0), from
    powers and factorials alone: tau under the full policy, else the first
    i >= 2(floor|q| + 1) whose tail test holds, or tau.  Non-decreasing
    in m: the start index grows with m, and so does the test's left side."""
    # the tail bound is valid once the term ratio |q|/(i+1) is at most 1/2
    stop = 2 * (m // b + 1)
    if policy.mode == "full" or stop >= tau:
        return tau
    # whole tail <= 2 |t_(stop+1)|; compare over b**(stop+1) (stop+1)!
    lhs = 2 * m ** (stop + 1) * (tau << policy.guard)
    rhs = b ** (stop + 1) * factorial(stop + 1)
    while not lhs < rhs and stop < tau:
        stop += 1
        lhs *= m
        rhs *= b * (stop + 1)
    return stop


def _horner_coefficients(b: int, stop: int) -> list:
    """The Horner sum's denominators b**(s-i+1) s!/(i-1)! for i = s, ..., 1
    (s = stop), in the order the sum uses them; the last is b**s * s!."""
    coefficients = []
    den = 1
    for i in range(stop, 0, -1):
        den *= b * i
        coefficients.append(den)
    return coefficients


def _horner(a: int, coefficients: list) -> int:
    """The numerator of the partial sum at a/b over its last coefficient:
    1 + (a/(b i)) (1 + (a/(b (i+1))) (...)) from the top term down."""
    num = 1
    for c in coefficients:
        num = num * a + c
    return num


def _exp_kernel(a: int, b: int, tau: int, policy: TruncationPolicy):
    """The truncated exponential at a/b (b > 0, not necessarily in lowest
    terms) in integers: (numerator, b**stop * stop!, stop), the partial
    sum through the stop index over its denominator.

    It refuses the grid under the policy, then |a/b| past
    ``EXP_ARGUMENT_LIMIT``.  The stop index comes first (``_stop_index``);
    the sum then runs top-down by Horner over the coefficients of
    ``_horner_coefficients``, one multiplication of the numerator by a per
    term.
    """
    m = abs(a)
    _require_grid(tau, policy)
    if m > EXP_ARGUMENT_LIMIT * b:
        raise ResourceLimitError(f"exp argument exceeds the magnitude limit {EXP_ARGUMENT_LIMIT}")
    stop = _stop_index(m, b, tau, policy)
    coefficients = _horner_coefficients(b, stop)
    return _horner(a, coefficients), coefficients[-1], stop


def _stop_bound(t: int, b: int, tau: int, policy: TruncationPolicy) -> int:
    """The largest m with ``_stop_index(m, b, tau, policy) <= t``, for
    t < tau, or -1 if there is none.

    Under the tail-bounded policy the stop index is at most t exactly
    when the start index 2(floor(m/b) + 1) is at most t, that is
    m < b floor(t/2), and the tail test holds at t itself,
    2 m**(t+1) tau 2**guard < b**(t+1) (t+1)!: past the start the term
    ratio is below 1/2, so once the test holds it holds at every later
    index.  Both conditions fail for all larger m, so the answer is an
    integer root, guessed in floating point and settled by exact tests,
    a few powers in all.  Under the full policy the stop index is tau.
    """
    cap = b * (t // 2) - 1
    if policy.mode == "full" or cap < 0:
        return -1
    scale, rhs = 2 * (tau << policy.guard), b ** (t + 1) * factorial(t + 1)

    def holds(m):
        return scale * m ** (t + 1) < rhs

    if holds(cap):
        return cap
    try:
        guess = int(exp(log(b) + (lgamma(t + 2) - log(scale)) / (t + 1)))
    except OverflowError:
        guess = cap
    ok, bad = 0, cap  # holds(ok), not holds(bad); the test holds at m = 0
    m, step = min(max(guess, ok), bad), 1
    if holds(m):
        ok = m
        while ok + step < bad and holds(ok + step):
            ok, step = ok + step, 2 * step
        bad = min(bad, ok + step)
    else:
        bad = m
        while bad - step > ok and not holds(bad - step):
            bad, step = bad - step, 2 * step
        ok = max(ok, bad - step)
    while bad - ok > 1:
        mid = (ok + bad) // 2
        if holds(mid):
            ok = mid
        else:
            bad = mid
    return ok


def _exp_reader(b: int, tau: int, policy: TruncationPolicy):
    """a -> ``_exp_kernel(a, b, tau, policy)`` for one fixed b > 0, which
    learns the kernel's stop segments as it reads.

    The stop index is non-decreasing in m = |a|, so the m with one stop
    index s form a segment [lo, hi].  A read whose m lies in a learned
    segment is one bisection over the segments' lower ends and one Horner
    sum.  Any other read is a kernel call, which refuses what the kernel
    refuses and gives m's stop index s.  If s was met before, the
    read also learns s's segment from ``_stop_bound`` at s - 1 and at s,
    clamped to the magnitude limit: a few powers, about one stop test.
    So sparse reads, one per stop index (|q| in the hundreds on a coarse
    grid), cost what the kernel costs plus a set entry, and dense ones pay
    two stop tests per segment.  The reader keeps [lo, hi, s,
    coefficients, size] per learned segment, in ``segments``, and the set
    of stop indices met; reads themselves are not remembered.

    A learned segment's Horner coefficients, ``size`` bits in all, are
    kept at the first read in the segment after which the lists kept so
    far would hold no more bits than the denominators the reader has
    returned; until then each read in it builds them, like the kernel.
    So the lists never outgrow the reader's output, which a caller that
    keeps its reads holds anyway: with many reads per segment (|q| near 1)
    every list read more than once is kept after a few reads; with few
    (exp(100 x) at tau = 1000, about three reads per segment) few are.
    """
    top = EXP_ARGUMENT_LIMIT * b
    los = []  # the segments' lower ends, increasing
    segments = []
    met = set()  # the stop indices read so far
    returned = held = 0  # bits of the denominators read, of the coefficients kept

    def read(a):
        nonlocal returned, held
        m = -a if a < 0 else a
        j = bisect_right(los, m) - 1
        if j < 0 or m > segments[j][1]:
            num, den, s = _exp_kernel(a, b, tau, policy)
            if s in met:  # the second read at a stop index learns its segment
                lo = _stop_bound(s - 1, b, tau, policy) + 1
                hi = top if s >= tau else min(_stop_bound(s, b, tau, policy), top)
                los.insert(j + 1, lo)
                segments.insert(j + 1, [lo, hi, s, None, None])
            met.add(s)
            returned += den.bit_length()
            return num, den, s
        segment = segments[j]
        _, _, s, coefficients, size = segment
        if coefficients is None:
            coefficients = _horner_coefficients(b, s)
            if size is None:
                size = segment[4] = sum(map(int.bit_length, coefficients))
            if held + size <= returned:
                held += size
                segment[3] = coefficients
        returned += coefficients[-1].bit_length()
        return _horner(a, coefficients), coefficients[-1], s

    read.segments = segments
    return read


def exp_series(q: Fraction, tau: int, policy: TruncationPolicy = DEFAULT_POLICY):
    """Partial sum of exp at q through tau, plus the index of the last
    term actually added.  Returns (value, stop_index)."""
    q = Fraction(q)
    s, den, stop = _exp_kernel(q.numerator, q.denominator, tau, policy)
    return Fraction(s, den), stop


def exp_approx(
    q: Fraction, tau: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> Fraction:
    """The truncated exponential sum(q**i / i! for i in 0..tau)."""
    return exp_series(q, tau, policy)[0]


def _atanh_floor(c: int, d: int, bits: int):
    """Fixed-point atanh(c/d) for 0 <= c/d <= 1/3, rounded down: returns
    (S, n) with S <= atanh(c/d) * 2**bits <= S + 3n + 2, where n is the
    number of series terms z**(2j+1)/(2j+1) summed.

    Each power w_j = floor(z**(2j+1) * 2**bits) is at most 9/8 below the
    true one (earlier floors shrink by z**2 <= 1/9 per step), so each
    floored term loses less than 1 + 9/8; the sum stops at the first
    w_j = 0, where the positive tail is below (9/8)**2.
    """
    c2, d2 = c * c, d * d
    w = (c << bits) // d
    total = 0
    n = 0
    while w:
        total += w // (2 * n + 1)
        w = w * c2 // d2
        n += 1
    return total, n


def _ln_bounds(a: int, b: int, m: int, bits: int):
    """Integers (lo, hi) with lo <= ln(a/b) * 2**bits <= hi, given
    a/b = 2**m * r with 1 <= r < 2.  Uses ln r = 2 atanh((r-1)/(r+1))
    and ln 2 = 2 atanh(1/3)."""
    shifted = b << m
    s_r, n_r = _atanh_floor(a - shifted, a + shifted, bits)
    lo = 2 * s_r
    hi = lo + 2 * (3 * n_r + 2)
    if m:
        s_2, n_2 = _atanh_floor(1, 3, bits)
        lo += 2 * m * s_2
        hi += 2 * m * (s_2 + 3 * n_2 + 2)
    return lo, hi


def _log_index(a: int, b: int, tau: int, policy: TruncationPolicy, exps=None) -> int:
    """The lattice logarithm of q = a/b (a, b > 0, not necessarily in
    lowest terms) as an integer: the largest k with E(k/tau) <= q, where
    E is the policy's truncated exponential, searched over |k| <= tau**2.

    Arguments in (0, 1) are evaluated as -_log_index(b, a), which stays
    on the nonnegative half of the lattice; the two readings differ by
    at most one lattice step.

    The search is bracketed without evaluating E.  For x >= 0 every
    series term is positive, so 1 + x <= E(x) <= e^x under either
    policy.  Hence floor(tau * L) is admissible for any rational
    L <= ln q, and e^(k/tau) > q at k = floor(tau * U) + 1 for any
    rational U >= ln q.  L and U come from fixed-point integers with
    directed rounding, a few lattice steps apart.  One evaluation
    confirms the upper end, galloping upward in the rare case that E
    still lags e^x there (the full policy at tiny tau, or an argument
    that is itself a lattice value of E); bisection closes the gap.
    E is strictly increasing in k >= 0 under either policy, so the
    largest admissible k is unique and any valid bracket yields it.
    Each evaluation compares the kernel's integers with a and b, so no
    Fraction is normalized per evaluation.  An evaluation first sums at
    guard 6 when the policy's guard is larger: that sum stops no later,
    so at k >= 0 it is at most E(k/tau), and when it already exceeds q
    the overshoot is proven in about half the terms.  Otherwise, and
    for every lattice point at or below the answer, E itself decides.

    ``exps``, when given, is the pair of readers that evaluate E under
    ``_COARSE`` and under the policy (``_exp_reader`` over tau, as a
    lattice-log node keeps them); without it each evaluation calls the
    kernel.

    SearchRangeError is raised when the answer is at least the smallest
    power of two above tau**2, where a doubling search from k = 1
    leaves the lattice.
    """
    if a < b:
        return -_log_index(b, a, tau, policy, exps)
    _require_grid(tau, policy)
    coarse, fine = exps or (
        lambda k: _exp_kernel(k, tau, tau, _COARSE),
        lambda k: _exp_kernel(k, tau, tau, policy),
    )

    def overshoots(k: int) -> bool:
        if policy.guard > _COARSE.guard:
            s, den, _ = coarse(k)
            if s * b > a * den:
                return True
        s, den, _ = fine(k)
        return s * b > a * den

    limit = tau * tau
    # a doubling search from k = 1 gave up on reaching this power of two
    ceiling = 1 << limit.bit_length()
    m = a.bit_length() - b.bit_length()
    if b << m > a:
        m -= 1
    bits = tau.bit_length() + m.bit_length() + 8
    low, high = _ln_bounds(a, b, m, bits)
    # invariant: E(lo/tau) <= q; once confirmed, q < E(hi/tau)
    lo = (tau * low) >> bits
    hi = min(((tau * high) >> bits) + 1, ceiling)
    step = 1
    while lo < ceiling and not overshoots(hi):
        lo, hi = hi, min(hi + step, ceiling)
        step *= 2
    if lo >= ceiling:
        q = brief_rational(Fraction(a, b))
        raise SearchRangeError(f"log search left the lattice (|k| <= {limit}) for argument {q}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if overshoots(mid):
            hi = mid
        else:
            lo = mid
    return lo


def log_approx(
    q: Fraction, tau: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> Fraction:
    """Lattice inverse of the truncated exponential: the largest k/tau
    with exp_approx(k/tau, tau) <= q, for q > 0 (see ``_log_index``)."""
    q = Fraction(q)
    if q <= 0:
        raise DomainError("log_approx needs a positive argument")
    return Fraction(_log_index(q.numerator, q.denominator, tau, policy), tau)


class _Unstable:
    """Sentinel verdict: the partial sums were still moving when the
    probe budget ran out.  Distinct from any value and from infinity."""

    _instance: Optional["_Unstable"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNSTABLE"

    def __bool__(self):
        return False


UNSTABLE = _Unstable()


def is_unstable(x) -> bool:
    return x is UNSTABLE


SumVerdict = Union[ExtendedReal, _Unstable]


def countable_sum(
    term: Callable[[int], Fraction],
    ctx: ObservationContext,
    cap: int = 2**16,
) -> SumVerdict:
    """Probe the series sum(term(n) for n = 0, 1, 2, ...) at ``ctx``.

    Partial sums are taken at lengths 1, 2, 4, ... up to ``cap``.  The
    verdict is an infinity as soon as a partial sum leaves [-K, K]; a
    finite value once two consecutive doublings each move the partial
    sum by at most 1/(4H); otherwise UNSTABLE.  A finite verdict is a
    reading at this context and cap, not a convergence proof.
    """
    if cap < 4:
        raise DomainError("cap must allow at least a few probes")
    quarter_tol = Fraction(1, 4 * ctx.H)

    partial = Fraction(0)
    n = 0
    length = 1
    previous = None
    settled = 0
    while length <= cap:
        while n < length:
            partial += Fraction(term(n))
            n += 1
        if partial > ctx.K:
            return PLUS_INFINITY
        if partial < -ctx.K:
            return MINUS_INFINITY
        if previous is not None:
            if abs(partial - previous) <= quarter_tol:
                settled += 1
                if settled >= 2:
                    return real_from_rational(partial, ctx)
            else:
                settled = 0
        previous = partial
        length *= 2
    return UNSTABLE
