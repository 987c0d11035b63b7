"""Rational-valued functions on a grid.

A ``GridFunction`` is an evaluation rule, not a table: grids default to
resolutions where materialization is impossible, and rules scale where
tables do not.  Every node is one function of the grid index, ``at(n)``,
and is built one way, ``GridFunction(spec, at, certificate,
quotient_certificate, den)``, and never changed.  Rules are pure and no
node keeps state: reading an index twice computes it twice, and a caller
that reads the same indices often shares its own reads (as
``calculus.grid_independence_check`` does for the length of one check).

Point evaluation and the whole-grid read run that same function:
``materialize()`` maps ``at`` over the indices left to right into a
fresh list of all tau + 1 values (the caller owns it; no node keeps a
table), so a failure is the one point-by-point evaluation meets first.
Every node is a lane: ``at(n)`` is a numerator over one shared positive
integer denominator ``den``.  Constants, monomials, steps and logarithms
have integer numerators; exp and division nodes are lanes over 1 whose
numerators are their Fraction values.  The algebra combines lanes
alongside the certificates (sums over the lcm of the denominators,
products over their product), so a polynomial costs one Fraction per
value.  Prefix sums put any lane's numerators over their least common
denominator and add them as integers, so an integral is an integer lane
whatever its integrand.

Continuity here is a three-valued, auditable claim.  A function may carry
a certificate, three rationals: an upper bound on |f| over the grid and
an affine modulus omega(d) = slope * d + offset such that |x - y| <= d
implies |f(x) - f(y)| <= omega(d).  ``continuity_check`` then either
certifies preservation of indiscernibility at a context, refutes it with
a concrete witness pair, or reports that sampling found nothing
("sampled-ok"); the claim is the mode of the ``CheckReport`` it returns.
Certificates compose when a node is built, by the sum rule (moduli add)
and the product rule (bounded factors), so a read is O(1); a rule given
a side without a certificate gives none.  A scalar c enters either rule
as the constant function c, bound |c| and modulus 0, whose difference
quotient is 0: a shift is a sum and a scaling a product.

Function-level indiscernibility (``fn_indiscernible``, also a
``CheckReport``) compares |f - g| pointwise against 1/H: each side is
read as an integer pair (N, D), its numerator over its ``den``, and the
gaps are reduced by ``context._peak``, so no Fraction is formed per read.
(The absolute difference is used even where a one-sided gap would do; the
relation is treated as a symmetric distance throughout.)
``transport`` carries a function to another grid by index: the point
m/tau_b reads the source at floor(m * tau_a / tau_b), its rounding down,
and keeps its lane.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .context import CheckReport, ObservationContext, _peak, _report
from .errors import DomainError, GridMismatchError, ResourceLimitError
from .grid import GridPoint, GridSpec, successor
from .sampling import SamplingPlan

MATERIALIZE_LIMIT = 2**24


@dataclass(frozen=True)
class Certificate:
    """Continuity certificate: ``bound`` >= sup |f| on the grid and the
    affine modulus ``slope * d + offset`` (slope, offset >= 0), so that
    |x-y| <= d  =>  |f(x)-f(y)| <= modulus(d)."""

    bound: Fraction
    slope: Fraction
    offset: Fraction

    def modulus(self, d: Fraction) -> Fraction:
        return self.slope * d + self.offset


def constant_certificate(c: Fraction) -> Certificate:
    return Certificate(abs(Fraction(c)), Fraction(0), Fraction(0))


def _weighted(bound: Fraction, *terms) -> Certificate:
    """A certificate with ``bound`` and modulus sum(w * c.modulus) over terms (w, c)."""
    return Certificate(
        bound,
        sum(w * c.slope for w, c in terms),
        sum(w * c.offset for w, c in terms),
    )


def add_certificates(a, b) -> Optional[Certificate]:
    if a is None or b is None:
        return None
    return _weighted(a.bound + b.bound, (1, a), (1, b))


def multiply_certificates(a, b) -> Optional[Certificate]:
    # bounded-factor rule: |fg(x)-fg(y)| <= |f| |g(x)-g(y)| + |g| |f(x)-f(y)|
    if a is None or b is None:
        return None
    return _weighted(a.bound * b.bound, (a.bound, b), (b.bound, a))


def _quotient_product_certificate(f_cert, f_qcert, g_cert, g_qcert):
    """Certificate for the difference quotient of a product, from the
    exact identity D(fg)(u) = f(u+) Dg(u) + g(u) Df(u)."""
    if None in (f_cert, f_qcert, g_cert, g_qcert):
        return None
    return _weighted(
        f_cert.bound * g_qcert.bound + g_cert.bound * f_qcert.bound,
        (f_cert.bound, g_qcert),
        (g_qcert.bound, f_cert),
        (g_cert.bound, f_qcert),
        (f_qcert.bound, g_cert),
    )


def sum_rule(f, g):
    """The (certificate, quotient certificate) of f + g from theirs."""
    return add_certificates(f[0], g[0]), add_certificates(f[1], g[1])


def product_rule(f, g):
    """The (certificate, quotient certificate) of f * g from theirs."""
    return multiply_certificates(f[0], g[0]), _quotient_product_certificate(*f, *g)


def certificates_of(operand):
    """An operand's (certificate, quotient certificate): a node's own, or
    for a scalar c those of the constant function c."""
    if isinstance(operand, GridFunction):
        return operand.certificate, operand.quotient_certificate
    return constant_certificate(operand), constant_certificate(0)


def constant_lane(c: Fraction):
    """The lane of the constant c: its numerator everywhere, over its denominator."""
    num = c.numerator
    return (lambda n: num), c.denominator


def _lane_sum(a, den_a, b, den_b):
    den = lcm(den_a, den_b)
    sa, sb = den // den_a, den // den_b
    return (lambda n: a(n) * sa + b(n) * sb), den


def _lane_product(a, den_a, b, den_b):
    return (lambda n: a(n) * b(n)), den_a * den_b


def _grid_point(x) -> GridPoint:
    """x itself, once it is a GridPoint; a number is refused, its rounding named."""
    if not isinstance(x, GridPoint):
        raise DomainError(
            f"a grid function reads grid points, not {type(x).__name__} {x};"
            " read round_to_grid(s, f.spec)"
        )
    return x


class GridFunction:
    """A deterministic rule from grid points to exact rationals, held as
    one function of the grid index, ``at(n)``: the value at n/tau is
    ``at(n) / den``, an int or a Fraction numerator over the shared
    positive integer ``den`` (1 by default), and ``numerators`` reads it.
    ``certificate`` (optional) certifies continuity of the values;
    ``quotient_certificate`` (optional) certifies continuity of the
    difference-quotient function, which is what differentiability at a
    context ultimately needs.

    The algebra composes both by the sum and product rules alone, so a
    scaled node keeps a quotient certificate only if it keeps a value
    certificate: the product rule reads f's bound.  (No library node
    carries the one without the other.)
    """

    __slots__ = ("spec", "at", "den", "certificate", "quotient_certificate")

    def __init__(
        self,
        spec: GridSpec,
        at: Callable[[int], Fraction],
        certificate: Optional[Certificate] = None,
        quotient_certificate: Optional[Certificate] = None,
        den: int = 1,
    ):
        self.spec = spec
        self.at = at
        self.den = den
        self.certificate = certificate
        self.quotient_certificate = quotient_certificate

    def __call__(self, x: GridPoint) -> Fraction:
        v = self.at(self._index(x))
        return Fraction(v) if self.den == 1 else Fraction(v, self.den)

    def _index(self, x: GridPoint) -> int:
        """x's grid index, once x is found to lie on this function's grid."""
        if _grid_point(x).spec != self.spec:
            raise GridMismatchError(
                f"point on grid tau={x.spec.tau} given to function on tau={self.spec.tau}"
            )
        return x.index

    def quotient(self, x: GridPoint) -> Fraction:
        """The difference quotient (f(x+) - f(x)) / epsilon; undefined at
        the right endpoint."""
        return (self(successor(_grid_point(x))) - self(x)) * self.spec.tau

    def materialize(self) -> list:
        """All tau + 1 values as a new list owned by the caller, read by
        ``at`` from left to right; guarded against astronomical grids.  A
        failure is the one point-by-point evaluation meets first, at the
        leftmost failing point.  Over den 1 a value is copied by
        ``Fraction(v)``, so a Fraction numerator is not normalized again."""
        den = self.den
        if den == 1:
            return list(map(Fraction, self._read_all()))
        return [Fraction(v, den) for v in self._read_all()]

    def numerators(self, indices=None) -> tuple:
        """(N, den) with f(n/tau) == N[n] / den, the read of a
        grid-scanning check: the numerators over the shared denominator.
        N is the list over the whole grid, read and guarded like
        ``materialize``; given a set of indices in [0, tau], it is the
        dict {n: N[n]} read in increasing order, so a failure is again the
        leftmost one."""
        if indices is None:
            return self._read_all(), self.den
        order = sorted(indices)
        if order and (order[0] < 0 or order[-1] > self.spec.tau):
            off = order[0] if order[0] < 0 else order[-1]
            raise DomainError(f"grid index {off} outside [0, {self.spec.tau}]")
        return {n: self.at(n) for n in order}, self.den

    def _read_all(self) -> list:
        size = self.spec.tau + 1
        if size > MATERIALIZE_LIMIT:
            raise ResourceLimitError(
                f"refusing to materialize {size} points (limit {MATERIALIZE_LIMIT})"
            )
        return list(map(self.at, range(size)))

    def _pair_at(self):
        """n -> (N, D) with f(n/tau) == N / D in integers, the read of a
        sampled check: the numerator's own numerator over its denominator
        times den, which reads an int numerator v as (v, den), so no
        Fraction is formed or normalized per read."""
        at, den = self.at, self.den

        def pair(n):
            v = at(n)
            return v.numerator, v.denominator * den

        return pair

    # Pointwise algebra: lanes combine, and certificates compose by the rules.

    def _combine(self, other, lane_op, rule):
        """lane_op on the lanes of self and other, a node or a scalar c
        (read as its lane), with certificates by ``rule``."""
        if isinstance(other, GridFunction):
            if other.spec != self.spec:
                raise GridMismatchError("cannot combine functions on different grids")
            b, den_b = other.at, other.den
        else:
            other = Fraction(other)
            b, den_b = constant_lane(other)
        cert, qcert = rule(certificates_of(self), certificates_of(other))
        at, den = lane_op(self.at, self.den, b, den_b)
        return GridFunction(self.spec, at, cert, qcert, den)

    def __add__(self, other):
        return self._combine(other, _lane_sum, sum_rule)

    __radd__ = __add__

    def __neg__(self):
        return self * Fraction(-1)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            return self + (-other)
        return self + (-Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        return self._combine(other, _lane_product, product_rule)

    __rmul__ = __mul__


def fn_indiscernible(
    f: GridFunction,
    g: GridFunction,
    ctx: ObservationContext,
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """Compare two functions on the same grid at context ``ctx``: their
    values must stay within 1/H at every probed point.  The report's
    witness is the first probed point where they do not.

    At each index f is read before g, as integer pairs (``_pair_at``):
    with f = Nf / df and g = Ng / dg, the gap is |Nf * dg - Ng * df| over
    df * dg, and ``_peak`` keeps the largest."""
    if f.spec != g.spec:
        raise GridMismatchError("cannot compare functions on different grids")
    tau = f.spec.tau
    pair_f, pair_g = f._pair_at(), g._pair_at()
    indices = plan.indices(tau)

    def gaps():
        for n in indices:
            nf, df = pair_f(n)
            ng, dg = pair_g(n)
            yield abs(nf * dg - ng * df), df * dg, n

    tol, where = ctx.infinitesimal_scale, lambda n: str(Fraction(n, tau))
    return _peak("indiscernible", [tau], ctx, len(indices), gaps(), tol, plan.mode(tau), where)


def transport(f: GridFunction, spec: GridSpec) -> GridFunction:
    """Carry ``f``, on the grid tau_a, onto ``spec``, the grid tau_b: the
    point m/tau_b reads f at its rounding down onto f's grid, the index
    floor(m * tau_a / tau_b), with values untouched.  Rounding is an almost inverse of the
    inclusion, so the roundtrip a -> b -> a moves a point by less than
    epsilon_a + epsilon_b.  The result keeps f's ``den``, and no point or
    Fraction is formed per read.
    """
    cert = f.certificate
    if cert is not None:
        # rounding both arguments back can stretch a gap by one source mesh
        cert = replace(cert, offset=cert.modulus(f.spec.epsilon))

    at, tau_a, tau_b = f.at, f.spec.tau, spec.tau
    return GridFunction(spec, lambda m: at(m * tau_a // tau_b), cert, den=f.den)


def continuity_check(
    f: GridFunction,
    ctx: ObservationContext,
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """Decide, as far as possible, whether ``f`` maps indiscernible points
    to indiscernible values at ``ctx``.  The report's mode is the
    three-valued claim: "certified", "refuted" or "sampled-ok".

    With a certificate the claim is certified outright when some input
    scale between the mesh width and 1/H pushes the modulus to 1/H or
    below; the modulus is monotone, so the mesh width decides, and no
    point is probed (the report counts 0 samples).  Without one (or when
    the certificate is too weak) the check reads jumps across the adjacent
    pairs around each planned index: a jump above 1/H refutes continuity
    at every admissible scale at once, since no input scale is finer than
    the mesh.  The witness names that pair.  The pairs are walked by their
    distinct lower ends lo, in increasing order, reading ``at(lo + 1)``
    and then ``at(lo)`` unless lo was the previous upper end: each point
    is read once, and a refutation returns before a later point is read.
    """
    spec = f.spec
    tol = ctx.infinitesimal_scale

    def verdict(mode, samples, jump=Fraction(0), witness=None):
        ok = mode != "refuted"
        return _report("continuity", [spec.tau], ctx, samples, jump, tol, ok, mode, witness)

    if f.certificate is not None and f.certificate.modulus(spec.epsilon) <= tol:
        return verdict("certified", 0)
    indices = plan.indices(spec.tau)
    at, den, tau = f.at, f.den, spec.tau
    prev, upper = -2, None  # the last lower end walked, and its upper value
    for n in indices:
        for lo in (n - 1, n):
            if lo < 0 or lo >= tau or lo == prev:
                continue
            hi_value = at(lo + 1)
            lo_value = upper if lo == prev + 1 else at(lo)
            prev, upper = lo, hi_value
            jump = abs(hi_value - lo_value)
            if jump * ctx.H > den:  # jump / den > 1/H
                witness = f"jump between {Fraction(lo, tau)} and {Fraction(lo + 1, tau)}"
                return verdict("refuted", len(indices), Fraction(jump, den), witness)
    return verdict("sampled-ok", len(indices))
