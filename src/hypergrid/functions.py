"""Stock grid functions with certificates attached.

Every constructor here returns a ``GridFunction`` on the given grid,
carrying the tightest simple certificates that are actually provable,
each an affine (bound, slope, offset) with modulus slope*d + offset:

* monomials x**k on [0, 1]: values (1, k, 0) and quotients
  (k, k(k-1), 0), both from the factorization of A**k - B**k (each
  secant summand is a product of k-1 factors bounded by 1).
* the truncated exponential: termwise comparison gives Lipschitz
  constant 3 on [0, 1] for both the values and the difference quotient;
  a tail-bounded policy perturbs each value by less than the tail
  threshold, which the moduli absorb in their offsets.

The logarithm and the step function carry no certificates: one is
unbounded near 0, the other is there to be refuted.

Every node is a lane, numerators over a shared denominator, which the
grid-function algebra combines into the lanes of compiled expressions.
Constants, monomials, steps and logarithms have integer numerators
(c over its own denominator, n**k over tau**k, 0 or 1 over 1, the
lattice index k over tau); an exp node is a lane over 1 of its Fraction
values.  The series reads an argument's integer numerator at n over the
lane's denominator with no Fraction formed, through one
``series._exp_reader`` per node, which learns the stop segments of that
denominator once.  A lattice-log node likewise keeps two readers over
tau, one per truncation its search evaluates, and the cap up to which
its search may decide without evaluating E.
"""

from fractions import Fraction
from math import ceil

from .errors import DomainError, EvaluationError
from .grid import GridSpec
from .gridfun import Certificate, GridFunction, certificates_of, constant_lane
from .rational import brief_rational
from .series import (
    _COARSE,
    DEFAULT_POLICY,
    TruncationPolicy,
    _exp_kernel,
    _exp_reader,
    _log_index,
    _stop_bound,
)

#: The largest bound B on an exp argument that earns a certificate; past it
#: 3**ceil(B) is too large to build, and sampling decides instead.
EXP_BOUND_LIMIT = 2**16


def constant(spec: GridSpec, c) -> GridFunction:
    c = Fraction(c)
    at, den = constant_lane(c)
    return GridFunction(spec, at, *certificates_of(c), den)


def monomial(spec: GridSpec, k: int) -> GridFunction:
    """x**k on the grid, for a nonnegative integer k."""
    if k < 0:
        raise DomainError("monomial exponent must be a nonnegative integer")
    return GridFunction(
        spec,
        lambda n: n**k,
        Certificate(Fraction(1), Fraction(k), Fraction(0)),
        Certificate(Fraction(k), Fraction(k * (k - 1)), Fraction(0)),
        spec.tau**k,
    )


def identity(spec: GridSpec) -> GridFunction:
    return monomial(spec, 1)


def square(spec: GridSpec) -> GridFunction:
    return monomial(spec, 2)


def _tail_threshold(spec: GridSpec, policy: TruncationPolicy) -> Fraction:
    """The most a policy's truncated exp moves a value: 0 for the full
    sum, 1/(tau * 2**guard) for the tail-bounded one."""
    return Fraction(0) if policy.mode == "full" else Fraction(1, spec.tau << policy.guard)


def exp_of(g: GridFunction, policy: TruncationPolicy = DEFAULT_POLICY) -> GridFunction:
    """The truncated exponential of g's values, a lane over 1 of
    Fractions.  The series reads each value as integers, unreduced: an
    integer numerator over g's denominator through one reader over that
    denominator built with the node (``series._exp_reader``), a Fraction
    numerator's own numerator over its denominator times g's through the
    kernel at each read.  Among the library's nodes, a Fraction numerator
    comes only from a division or exp node in g; an integral is an
    integer lane.

    A certified g with |g| <= B gives a value certificate: exp has
    Lipschitz constant e**B <= 3**ceil(B) on [-B, B], so the modulus is
    3**ceil(B) times g's plus twice the tail threshold.  Without a
    certificate on g, or with B above ``EXP_BOUND_LIMIT``, there is none
    on the result.
    """
    spec = g.spec
    inner = g.certificate
    cert = None
    if inner is not None and inner.bound <= EXP_BOUND_LIMIT:
        lip = Fraction(3 ** max(1, ceil(inner.bound)))
        wobble = 2 * _tail_threshold(spec, policy)
        cert = Certificate(lip, lip * inner.slope, lip * inner.offset + wobble)
    at, den, tau = g.at, g.den, spec.tau
    read = _exp_reader(den, tau, policy)

    def exp_at(n):
        v = at(n)
        if v.__class__ is int:
            s, d, _ = read(v)
        else:
            s, d, _ = _exp_kernel(v.numerator, v.denominator * den, tau, policy)
        return Fraction(s, d)

    return GridFunction(spec, exp_at, cert)


def exp_fn(
    spec: GridSpec, policy: TruncationPolicy = DEFAULT_POLICY
) -> GridFunction:
    """The truncated exponential as a grid function.

    On [0, 1] the partial sums stay below 3, and a termwise bound gives
    |e(x) - e(y)| <= 3 |x - y| for both the values and the quotient; the
    policy's tail threshold enters the moduli as a tiny additive slack.
    The value certificate is ``exp_of``'s for the identity.
    """
    f = exp_of(identity(spec), policy)
    quotient_wobble = 4 * _tail_threshold(spec, policy) * spec.tau
    qcert = Certificate(Fraction(3), Fraction(3), quotient_wobble)
    return GridFunction(spec, f.at, f.certificate, qcert)


def log_of(g: GridFunction, policy: TruncationPolicy = DEFAULT_POLICY) -> GridFunction:
    """The lattice logarithm of g's values: a lane over tau whose
    numerator at n is the integer k of ``series._log_index``.  The node
    is built with what every read shares: the cap, the largest lattice
    index at which E's tail is proven within min(tau - 1, 64) terms
    (``series._stop_bound``), up to which a read is decided by the
    search's bracket alone unless a lattice boundary falls inside it, and
    two readers over tau through which the rest evaluate E.  A
    non-positive value raises ``EvaluationError`` at its point.  No
    certificate."""
    spec = g.spec
    at, den, tau = g.at, g.den, spec.tau
    exps = (_exp_reader(tau, tau, _COARSE), _exp_reader(tau, tau, policy))
    # 64 terms keep _stop_bound's power tau**65 * 65! to about 1,400 bits
    # at tau 2**17, where tau - 1 terms would take 4 megabits; at guard 64
    # they prove tails for ln q up to about 10, and larger q take the search
    cap = _stop_bound(min(tau - 1, 64), tau, tau, policy)

    def log_at(n):
        v = at(n)
        a, b = v.numerator, v.denominator * den
        if a <= 0:
            value = brief_rational(Fraction(a, b))
            raise EvaluationError(f"log of non-positive value {value}", point=spec.point(n))
        return _log_index(a, b, tau, policy, exps, cap)

    return GridFunction(spec, log_at, den=tau)


def log_fn(
    spec: GridSpec, policy: TruncationPolicy = DEFAULT_POLICY
) -> GridFunction:
    """Lattice logarithm on the grid; undefined at 0, so evaluation at
    the left endpoint raises.  Unbounded near 0, hence no certificate."""
    return log_of(identity(spec), policy)


def step(spec: GridSpec, at=Fraction(1, 2)) -> GridFunction:
    """Unit jump at ``at``: 0 below, 1 from ``at`` on.  Deliberately
    discontinuous; continuity checks should refute it.  A lane over 1:
    n/tau >= at exactly from the index ceil(at * tau) on."""
    jump = ceil(Fraction(at) * spec.tau)
    return GridFunction(spec, lambda n: 1 if n >= jump else 0)
