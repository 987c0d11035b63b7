"""Observation contexts and the indiscernibility relation they induce.

A context fixes two integer thresholds: H, below whose reciprocal a
magnitude counts as infinitesimal, and K, above which a magnitude counts
as infinite.  Every "two values are the same real number" judgement in
this package is made at a context, never absolutely.

The relation is reflexive and symmetric but deliberately NOT transitive:
chaining two judgements can double the gap (see
``ObservationContext.indiscernible``).  Treat it as a tolerance relation.

A judgement read at a context is recorded as a ``CheckReport``: every
check in the package, from pointwise function comparison and continuity
up to the calculus checks, returns one.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError
from .rational import format_rational

DEFAULT_H = 10**6
DEFAULT_K = 10**12


@dataclass(frozen=True)
class ObservationContext:
    """Thresholds (H, K): magnitudes <= 1/H are infinitesimal, magnitudes
    <= K are bounded.  Both bounds are inclusive so that zero and exact
    identities sit strictly inside their classes."""

    H: int = DEFAULT_H
    K: int = DEFAULT_K

    def __post_init__(self):
        if self.H < 2 or self.K < 2:
            raise DomainError(f"context thresholds must be >= 2, got H={self.H}, K={self.K}")
        if self.K < self.H:
            raise DomainError(f"finiteness bound K={self.K} must dominate H={self.H}")

    @property
    def infinitesimal_scale(self) -> Fraction:
        return Fraction(1, self.H)

    def is_infinitesimal(self, q: Fraction) -> bool:
        """True iff |q| <= 1/H."""
        return abs(q) * self.H <= 1

    def is_bounded(self, q: Fraction) -> bool:
        """True iff |q| <= K."""
        return abs(q) <= self.K

    def indiscernible(self, p: Fraction, q: Fraction) -> bool:
        """True iff p and q are the same number at this context.

        Either both are bounded-ish and their gap is infinitesimal, or
        both sit beyond the same end of the bounded range.  The bounded
        branch requires only one of the two values to be bounded: the
        other is then within 1/H of it, which keeps the relation exactly
        symmetric at the K boundary.

        Not transitive: two accepted gaps of 1/H compose to 2/H.
        """
        if (abs(p) <= self.K or abs(q) <= self.K) and abs(p - q) * self.H <= 1:
            return True
        if p > self.K and q > self.K:
            return True
        if p < -self.K and q < -self.K:
            return True
        return False


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification job.  Truthy iff it passed.

    ``max_gap`` is the largest observed discrepancy in the check's own
    metric and ``tolerance`` the cutoff it was held to; for checks whose
    metric is an excess over a per-pair bound, the gap may be negative
    (slack) and the tolerance is zero.  ``mode`` says how the verdict was
    reached: "exhaustive" or "sampled" probing, or for continuity
    "certified", "sampled-ok" or "refuted".
    """

    check: str
    grids: Tuple[int, ...]
    context: ObservationContext
    samples: int
    max_gap: Fraction
    tolerance: Fraction
    verdict: str
    mode: str = "sampled"
    witness: Optional[str] = None
    detail: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        record = {
            "schema": 1,
            "check": self.check,
            "grids": list(self.grids),
            "context": {"H": self.context.H, "K": self.context.K},
            "samples": self.samples,
            "max_gap": format_rational(self.max_gap),
            "tolerance": format_rational(self.tolerance),
            "verdict": self.verdict,
            "mode": self.mode,
        }
        if self.witness is not None:
            record["witness"] = self.witness
        if self.detail:
            record["detail"] = {k: str(v) for k, v in sorted(self.detail.items())}
        return record


def _report(check, grids, ctx, samples, max_gap, tol, ok, mode, witness=None, **detail):
    return CheckReport(
        check=check,
        grids=tuple(grids),
        context=ctx,
        samples=samples,
        max_gap=max_gap,
        tolerance=tol,
        verdict="pass" if ok else "fail",
        mode=mode,
        witness=witness,
        detail=detail,
    )


def _peak(check, grids, ctx, samples, probes, tol, mode, where):
    """``_report`` for a check that holds gaps to ``tol``: ``probes``
    yields (gap, den, key), nonnegative integers, one gap gap / den per
    probe.  The largest gap so far is kept as an integer pair and compared
    cross-multiplied; the tolerance is tested only where that maximum
    rises, which the first probe above ``tol`` does, and ``where(key)``
    names it as the witness.  One Fraction, the report's max_gap, is
    formed at the end."""
    worst, scale = 0, 1  # the largest gap so far, worst / scale
    witness = None
    for gap, den, key in probes:
        if gap * scale > worst * den:
            worst, scale = gap, den
            if witness is None and gap * tol.denominator > tol.numerator * den:
                witness = where(key)
    max_gap = Fraction(worst, scale)
    return _report(check, grids, ctx, samples, max_gap, tol, max_gap <= tol, mode, witness)
