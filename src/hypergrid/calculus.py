"""Differentiation and integration on the grid, with checkable claims.

Every function here takes and returns a ``GridFunction``; a real point
is read at its rounding onto the function's grid (``round_to_grid``).
Everything downstream is exact rational arithmetic; "analysis" happens
only when a claim is read at an observation context.

The two load-bearing facts, both checked rather than assumed:

* the derivative of x -> sum(f(t) * eps for t <= x) is exactly
  f(successor(x)): the forward difference telescopes with zero error,
  whatever policy produced f's values;
* a modulus for the difference-quotient function bounds every secant
  deviation over gaps wider than the mesh, because a secant is an
  average of quotients.

Checks return ``CheckReport`` records rather than raising: a failed
comparison is a result, not an exception.  Reports serialize to a
stable JSON shape for the command-line tools.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import islice
from math import lcm
from typing import Callable, Optional, Sequence, Tuple

from .context import CheckReport, ObservationContext, _peak, _report
from .errors import DomainError, NotDifferentiableError
from .grid import GridPoint, GridSpec, round_to_grid, successor
from .gridfun import (
    Certificate,
    GridFunction,
    _grid_point,
    continuity_check,
    fn_indiscernible,
    transport,
)
from .sampling import SamplingPlan, weyl_units


def quotient_function(f: GridFunction) -> GridFunction:
    """The difference-quotient function as a grid function on the full
    grid, extended at the right endpoint by its value at 1 - eps: at n it
    is (f(m+) - f(m)) * tau with m = min(n, tau - 1), f(m+) read first.
    It is a lane over f's denominator."""
    at, tau = f.at, f.spec.tau
    last = tau - 1

    def quotient_at(n):
        m = min(n, last)
        return (at(m + 1) - at(m)) * tau

    return GridFunction(f.spec, quotient_at, f.quotient_certificate, den=f.den)


def derivative(
    f: GridFunction, ctx: ObservationContext, plan: SamplingPlan = SamplingPlan()
) -> GridFunction:
    """Differentiate f at a context: its ``quotient_function``, once that
    survives ``continuity_check(q, ctx, plan)``.  A refutation (a spike
    across adjacent points) means f is not differentiable at this context
    and raises with the report's witness; the same call on the result
    gives the report that admitted it.
    """
    q = quotient_function(f)
    report = continuity_check(q, ctx, plan)
    if not report:
        raise NotDifferentiableError(
            f"difference quotient has a {report.witness} above 1/H",
            witness=report.witness,
        )
    return q


def secant_deviation(f: GridFunction, a: GridPoint, x: GridPoint) -> Fraction:
    """(f(x) - f(a)) / (x - a) - quotient(a), exactly."""
    if _grid_point(a).spec != f.spec or _grid_point(x).spec != f.spec:
        raise DomainError("secant points must lie on the function's grid")
    if a.index == x.index:
        raise DomainError("secant needs two distinct points")
    secant = (f(x) - f(a)) / (x.value - a.value)
    return secant - f.quotient(a)


def _band(spec: GridSpec, ctx: ObservationContext) -> Tuple[Fraction, Fraction]:
    """Probe band for secant and limit tests: gaps below 4*eps or 1/H**2
    are excluded, gaps above 1/H are not indiscernible to begin with."""
    lo = max(4 * spec.epsilon, Fraction(1, ctx.H * ctx.H))
    return lo, Fraction(1, ctx.H)


def secant_check(
    f: GridFunction,
    ctx: ObservationContext,
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """Verify |secant_deviation(f, a, x)| <= modulus(x - a) over the band
    lo <= x - a <= 1/H with lo = max(4 eps, 1/H**2).

    The gap metric is the worst excess of the deviation over the
    registered quotient modulus, so pass means max_gap <= 0.  Exhaustive
    mode pairs every anchor with every offset; sampled mode pairs planned
    anchors with a doubling ladder of offsets.  Both read ``numerators``
    once, each point the pairs need, and walk the offsets in one loop that
    keeps each offset's peak numerator; the witness is the first failing
    pair in anchor-major order.
    """
    if f.quotient_certificate is None:
        raise DomainError("secant check needs a registered quotient modulus")
    tau = f.spec.tau
    lo, hi = _band(f.spec, ctx)
    lo_steps = -((-lo.numerator * tau) // lo.denominator)  # ceil(lo / eps)
    hi_steps = (hi.numerator * tau) // hi.denominator
    if hi_steps < lo_steps:
        raise DomainError("band is empty: grid too coarse for this context")

    mode = plan.mode(tau)
    if mode == "exhaustive":
        anchors = range(tau)
        offsets = range(lo_steps, hi_steps + 1)
        N, den = f.numerators()
    else:
        anchors = [n for n in plan.indices(tau) if n < tau]
        offsets = []
        k = lo_steps
        while k <= hi_steps:
            offsets.append(k)
            k *= 2
        offsets.append(hi_steps)
        needed = {m for n in anchors for m in (n, n + 1, *(n + k for k in offsets)) if m <= tau}
        N, den = f.numerators(needed)

    D = {n: N[n + 1] - N[n] for n in anchors}  # read once, not once per offset

    def deviation(n, k):  # |secant - quotient| * den * k / tau on the pair (n, n + k)
        return abs(N[n + k] - N[n] - k * D[n])

    omega = f.quotient_certificate.modulus
    excesses = []
    failing = []  # (first failing anchor, offset) for each failing offset
    pairs = 0
    for k in offsets:
        count = bisect_right(anchors, tau - k)  # the anchors n with n + k <= tau
        if count == 0:
            break  # offsets never decrease
        bound = omega(Fraction(k, tau))
        peak = max(deviation(n, k) for n in islice(anchors, count))
        pairs += count
        excesses.append(Fraction(peak * tau, den * k) - bound)
        limit = bound * den * k / tau
        if peak > limit:
            first = next(n for n in islice(anchors, count) if deviation(n, k) > limit)
            failing.append((first, k))
    if not excesses:
        raise DomainError("no admissible pairs to check")
    worst = max(excesses)
    witness = None
    if failing:
        n, k = min(failing)  # the least anchor, then the earliest offset
        witness = f"a={Fraction(n, tau)}, x={Fraction(n + k, tau)}"
    return _report("secant", [tau], ctx, pairs, worst, Fraction(0), worst <= 0, mode, witness)


def _rise(f: GridFunction):
    """n -> (r, e) with f((n+1)/tau) - f(n/tau) == r / e in integers,
    reading f at n + 1, then at n, as integer pairs (``_pair_at``): the
    cross difference over the product of the two denominators."""
    pair = f._pair_at()

    def rise(n):
        (a, b), (c, d) = pair(n + 1), pair(n)
        return a * d - c * b, b * d

    return rise


def grid_independence_check(
    f1: GridFunction,
    f2: GridFunction,
    ctx: ObservationContext,
    samples: int = 1024,
    seed: int = 0,
) -> CheckReport:
    """Compare difference quotients of two grid functions for the same
    real function, each read on its own grid, at sampled real points.

    The claim that they do agree is itself checked first, by transporting
    f1 onto f2's grid (``transport``: the index floor(m * tau1 / tau2), in
    integers) and comparing values; a failure there is reported as a
    precondition failure rather than a quotient gap.

    The quotients are read by index: for each sampled point a = u / 2**64
    (``weyl_units``) the index n_i = floor(a * tau_i), reading g1 at n1 + 1
    and n1, then g2 at n2 + 1 and n2 (``_rise``, in integer pairs).  Each
    quotient is a numerator over a denominator, and ``_peak`` holds their
    gaps to 2/H; the witness is the first sample above it.
    """
    if samples < 1:
        raise DomainError(f"grid independence check needs at least one sample, got {samples}")
    # both phases read nearly the same indices: share them for this check only
    g1, g2 = (GridFunction(g.spec, cache(g.at), den=g.den) for g in (f1, f2))
    grids = [g1.spec.tau, g2.spec.tau]

    carried = transport(g1, g2.spec)
    pre_plan = SamplingPlan(
        seed=seed, random_points=min(samples, 256), dyadic_depth=8, exhaustive_limit=1
    )
    agreement = fn_indiscernible(carried, g2, ctx, pre_plan)
    if not agreement:
        return _report(
            "grid-independence",
            grids,
            ctx,
            agreement.samples,
            agreement.max_gap,
            ctx.infinitesimal_scale,
            False,
            "sampled",
            witness=f"values differ at {agreement.witness}",
            precondition="representations disagree before quotients were compared",
        )

    rise1, tau1 = _rise(g1), g1.spec.tau
    rise2, tau2 = _rise(g2), g2.spec.tau

    def gaps():
        for u in weyl_units(samples, seed):
            r1, e1 = rise1((u * tau1) >> 64)  # quotient i is r_i * tau_i / e_i
            r2, e2 = rise2((u * tau2) >> 64)
            yield abs(r1 * tau1 * e2 - r2 * tau2 * e1), e1 * e2, u

    tol, where = 2 * ctx.infinitesimal_scale, lambda u: f"a={Fraction(u, 1 << 64)}"
    return _peak("grid-independence", grids, ctx, samples, gaps(), tol, "sampled", where)


@dataclass(frozen=True)
class ConvergentSequence:
    """A declared-limit sequence: a term rule, the limit it claims, and
    the context at which the claim is read."""

    rule: Callable[[int], Fraction]
    declared_limit: Fraction
    context: ObservationContext

    def terms(self, budget: int) -> list:
        return [Fraction(self.rule(i)) for i in range(budget)]

    def verify(self, budget: int = 128) -> bool:
        """Emulated convergence: for every probe q in 1/2, 1/4, ... down
        to 1/H, some sampled tail of the first ``budget`` terms stays
        within q of the declared limit.  Every rung is decided by the
        last term alone, and the finest rung, 1/H, by itself, so what is
        checked is: budget >= 1 and |term(budget - 1) - limit| <= 1/H.
        All ``budget`` terms are still built, so a rule that raises
        raises here."""
        return self._settles(self.terms(budget))

    def _settles(self, terms: list) -> bool:
        """``verify``'s test on the terms it built."""
        return bool(terms) and abs(terms[-1] - self.declared_limit) * self.context.H <= 1


@dataclass(frozen=True)
class LimitProbe:
    t: Fraction
    quotient: Fraction
    gap: Fraction


@dataclass(frozen=True)
class LimitQuotientResult:
    """Outcome of probing (f(round(x + t)) - f(x)) / t along a sequence:
    the reference value Delta f / Delta x at x, the probes that fell in
    the admissible band, and the verdict at tolerance 2/H."""

    value: Fraction
    verdict: str
    probes: Tuple[LimitProbe, ...]
    max_gap: Fraction
    tolerance: Fraction

    def __bool__(self):
        return self.verdict == "pass"


LIMIT_TERMS = 64  # the terms of an offset sequence that the limit probes read


def _band_offsets(f: GridFunction, seq: ConvergentSequence) -> list:
    """Check the offset sequence against its own claim and return the
    steps (t, floor(t * tau)) of its first ``LIMIT_TERMS`` terms that fall
    in the probe band.  The band keeps |t| > 4/tau, so every step k has
    |k| >= 4: no probe reads x itself."""
    if seq.declared_limit != 0:
        raise DomainError("offset sequence must converge to 0")
    terms = seq.terms(LIMIT_TERMS)
    if not seq._settles(terms):
        raise DomainError("sequence does not meet its own convergence claim")
    band_lo, band_hi = _band(f.spec, seq.context)
    offsets = [t for t in terms if band_lo < abs(t) <= band_hi]
    if not offsets:
        raise DomainError(f"band is empty: no offset of the sequence in ({band_lo}, {band_hi}]")
    tau = f.spec.tau
    return [(t, (t.numerator * tau) // t.denominator) for t in offsets]


def _probe_walk(f: GridFunction, x: int, steps: list):
    """The reads of the limit probes at the grid index x, in order: f at
    x + 1, at x, then at x + k for each step (t, k) of ``_band_offsets``,
    where k = floor(t * tau) because x/tau + t rounds down to x + k.  Each
    read is an integer pair (``_pair_at``).  Before each read the probe
    point x/tau + t must lie in [0, 1], tested in integers.  Returns the
    reads of f(x) and f(x + 1), and per step (t, k, y) with y the read of
    f(x + k)."""
    read, tau = f._pair_at(), f.spec.tau
    after = read(x + 1)
    fx = read(x)
    reads = []
    for t, k in steps:
        lhs, span = x * t.denominator + t.numerator * tau, tau * t.denominator
        if not 0 <= lhs <= span:  # x/tau + t == lhs/span
            raise DomainError(f"probe point {Fraction(lhs, span)} leaves [0, 1]")
        reads.append((t, k, read(x + k)))
    return fx, after, reads


def _deviations(fx, after, reads) -> list:
    """Per read of ``_probe_walk``, (dev, den) with
    |f(x+k) - f(x) - k (f(x+1) - f(x))| == dev / den in integers, from the
    pairs (N, D) read: den is the product of the three reads'
    denominators.  The probe's gap to the quotient at x is
    tau * dev / (den * |k|)."""
    (xn, xd), (an, ad) = fx, after
    xa, ax, base = xn * ad, an * xd, xd * ad
    return [(abs(yn * base + yd * ((k - 1) * xa - k * ax)), yd * base) for _, k, (yn, yd) in reads]


def limit_quotient(
    f: GridFunction,
    x: GridPoint,
    seq: ConvergentSequence,
) -> LimitQuotientResult:
    """Read the sequence-limit form of the derivative at x.

    The sequence must converge to 0 by its own verify().  Its first
    ``LIMIT_TERMS`` terms are used as offsets, keeping only
    max(4 eps, 1/H**2) < |t| <= 1/H; each offset is realized on the grid
    (the probe runs between the grid points x and round(x + t), and the
    quotient divides by their exact gap, which is where an off-grid t
    lands once rounded).  Every surviving probe must
    land within 2/H of the difference quotient at x.  The probes are
    ``limit_check``'s walk (``_probe_walk``) and deviations
    (``_deviations``), in integers; each probe's gap becomes one
    Fraction, and its quotient is taken from the reads as Fractions.
    """
    steps = _band_offsets(f, seq)
    n = f._index(successor(_grid_point(x))) - 1  # x has a successor on f's grid
    tau = f.spec.tau
    fx, after, reads = _probe_walk(f, n, steps)
    at_x = Fraction(*fx)
    probes = []
    for (t, k, y), (dev, den) in zip(reads, _deviations(fx, after, reads)):
        quotient = (Fraction(*y) - at_x) * tau / k
        probes.append(LimitProbe(t, quotient, Fraction(dev * tau, den * abs(k))))
    max_gap = max(probe.gap for probe in probes)
    tol = 2 * seq.context.infinitesimal_scale
    verdict = "pass" if max_gap <= tol else "fail"
    value = (Fraction(*after) - at_x) * tau
    return LimitQuotientResult(value, verdict, tuple(probes), max_gap, tol)


def limit_check(
    f: GridFunction,
    ctx: ObservationContext,
    points: Sequence[Fraction],
) -> CheckReport:
    """Run limit_quotient's probes with the halving sequence t_i = 2**-i
    at each given point, rounded down to the grid and kept below its
    right end; pass iff every probe at every point lands within 2/H.
    The sequence is verified, and its in-band steps listed, once.

    The walk is ``_probe_walk``'s, in integers.  A probe's gap is
    dev * tau / (den * k), dev / den its deviation (``_deviations``), and
    ``_peak`` keeps the largest; the witness is the first point with a
    probe above 2/H."""
    if not points:
        raise DomainError("limit check needs at least one point")
    seq = ConvergentSequence(lambda i: Fraction(1, 2**i), Fraction(0), ctx)
    steps = _band_offsets(f, seq)
    tau = f.spec.tau

    def gaps():
        for s in points:
            x = min(round_to_grid(Fraction(s), f.spec).index, tau - 1)
            for (_, k), (dev, den) in zip(steps, _deviations(*_probe_walk(f, x, steps))):
                yield dev * tau, den * k, x  # the halving steps are positive

    tol, where = 2 * ctx.infinitesimal_scale, lambda x: f"x={Fraction(x, tau)}"
    return _peak("limit", [tau], ctx, len(points) * len(steps), gaps(), tol, "sampled", where)


def cumulative_values(f: GridFunction, workers: int = 1) -> list:
    """Prefix sums of f over the whole grid: out[n] = sum(f(i/tau) for
    i in 0..n), in one serial pass (``_running_sums``).  The numerators
    are summed as integers over their least common denominator L, and
    each prefix then becomes one Fraction over den * L, in place.
    ``workers`` must be at least 1 and selects nothing; it stays for the
    benchmark's tracing probe and criterion 9."""
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    numerators, den = _integrand_numerators(f, None)
    sums, lcd = _running_sums(numerators)
    den *= lcd
    if den != 1:
        for i, s in enumerate(sums):
            sums[i] = Fraction(s, den)
    return sums


def _running_sums(terms: list) -> tuple:
    """(terms, L): ``terms`` turned into its inclusive running sums, in
    place, so that each term is released as its sum replaces it.  The
    terms are put over their least common denominator L (1 when all are
    ints) and summed as integers, so each sum over L is the sum of the
    terms, and no sum pays a gcd."""
    lcd = reduce(lcm, (v.denominator for v in terms), 1)  # no tuple of tau + 1 denominators
    acc = 0
    for i, v in enumerate(terms):
        acc = terms[i] = acc + v.numerator * (lcd // v.denominator)
    return terms, lcd


def integral(f: GridFunction, ctx: Optional[ObservationContext] = None) -> GridFunction:
    """The indefinite integral x -> sum(f(t) * eps for t from 0 through
    x, both ends included), a grid function on f's grid.

    When a context is given, f must be visibly bounded by K there:
    certified if possible, checked at every point otherwise.  The result
    carries the inherited certificates: the integral is Lipschitz with
    constant bound(f), and its difference quotient is f(successor(x)), so
    f's own value certificate becomes the quotient certificate.
    """
    numerators, den = _integrand_numerators(f, ctx)
    sums, lcd = _running_sums(numerators)
    return _antiderivative(f, sums, den * lcd)


def _integrand_numerators(f: GridFunction, ctx: Optional[ObservationContext]):
    """f.numerators() for prefix sums, after f is found bounded by K at
    ``ctx`` by its certificate, or else at every point, the leftmost past K
    named (without a context there is no bound to meet).  The read itself
    refuses a grid of more than 2^24 points before reading any."""
    if ctx is not None and f.certificate is not None and f.certificate.bound > ctx.K:
        raise DomainError("certified bound exceeds K: integral may overflow")
    numerators, den = f.numerators()
    if ctx is not None and f.certificate is None:
        bound = ctx.K * den
        for n, v in enumerate(numerators):
            if abs(v) > bound:
                raise DomainError(f"function exceeds K at {Fraction(n, f.spec.tau)}")
    return numerators, den


def _antiderivative(f: GridFunction, sums: list, den: int) -> GridFunction:
    """The integral from integer prefix sums of f over ``den``
    (``_running_sums``' sums, over f's den times their L): the integer
    lane (sums[n], den * tau), since the integral at n/tau is
    sums[n] / den * eps.  It inherits f's certificates."""
    eps = f.spec.epsilon
    qcert = f.certificate
    cert = qcert and Certificate(qcert.bound * (1 + eps), qcert.bound, Fraction(0))
    return GridFunction(f.spec, sums.__getitem__, cert, qcert, den * f.spec.tau)


def ftc_check(
    f: GridFunction,
    ctx: ObservationContext,
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """Differentiate the integral and compare, in two layers.

    Layer one is exact: Delta(sum f dx)/dx (u) == f(successor(u)) must
    hold with zero error at every probed u; any violation is a hard
    failure regardless of context.  It reads the integral's own lane
    (S, D).  With f = N / den and L the common denominator of the
    numerators its prefix sums put them over, the quotient at u = n/tau
    is (S[n+1] - S[n]) * tau / D, so once D is found equal to
    den * L * tau the identity reads S[n+1] - S[n] == N[n+1] * L, in
    integers (a lane over any other D fails every probe).  Each probed
    point's numerator is scaled by L once.  Layer two reads
    f(successor(u)) vs f(u) at the context from the same scaled
    numerators; max_gap reports that comparison against 1/H.  The K test
    reads the numerators before scaling.
    """
    tau = f.spec.tau
    numerators, den = _integrand_numerators(f, ctx)
    sums, lcd = _running_sums(list(numerators))
    sums, anti_den = _antiderivative(f, sums, den * lcd).numerators()
    lane_ok = anti_den == den * lcd * tau
    tol = ctx.infinitesimal_scale
    exact_violations = 0
    witness = None
    max_gap = 0
    count = 0
    prev, upper = -2, None  # the last probed index, and its successor's scaled numerator
    for n in plan.indices(tau):
        if n >= tau:
            continue
        count += 1
        v = numerators[n + 1]
        hi = v.numerator * (lcd // v.denominator)
        if n == prev + 1:
            lo = upper
        else:
            v = numerators[n]
            lo = v.numerator * (lcd // v.denominator)
        prev, upper = n, hi
        if not lane_ok or sums[n + 1] - sums[n] != hi:
            exact_violations += 1
            if witness is None:
                witness = f"u={Fraction(n, tau)}"
        gap = abs(hi - lo)
        if gap > max_gap:
            max_gap = gap
    max_gap = Fraction(max_gap, den * lcd)
    ok = exact_violations == 0 and max_gap <= tol
    return _report(
        "ftc",
        [tau],
        ctx,
        count,
        max_gap,
        tol,
        ok,
        plan.mode(tau),
        witness,
        exact_violations=exact_violations,
    )
