"""The uniform grid on [0, 1] and its rounding map.

A grid of resolution tau consists of the tau + 1 points n/tau.  Points
store the integer index, never the rational value, so successor is O(1)
and every derived value is exact.  The rounding map sends a rational
s in [0, 1] to the nearest grid point at or below it; its defect s - k(s)
is always in [0, epsilon), which is what makes rounding an almost-inverse
of the inclusion of the grid into the rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError


@dataclass(frozen=True)
class GridSpec:
    """Resolution tau >= 2; the mesh width is epsilon = 1/tau exactly."""

    tau: int

    def __post_init__(self):
        if self.tau < 2:
            raise DomainError(f"grid resolution must be >= 2, got tau={self.tau}")

    @cached_property
    def epsilon(self) -> Fraction:
        return Fraction(1, self.tau)

    def point(self, index: int) -> "GridPoint":
        return GridPoint(index, self)

    def points(self):
        """Iterate the whole grid, left to right."""
        for n in range(self.tau + 1):
            yield GridPoint(n, self)


@dataclass(frozen=True)
class GridPoint:
    """The point index/tau on its grid."""

    index: int
    spec: GridSpec

    def __post_init__(self):
        if not 0 <= self.index <= self.spec.tau:
            raise DomainError(
                f"grid index {self.index} outside [0, {self.spec.tau}]"
            )

    @property
    def value(self) -> Fraction:
        return Fraction(self.index, self.spec.tau)


def round_to_grid(s: Fraction, spec: GridSpec) -> GridPoint:
    """Round s in [0, 1] down to the grid: index = integer part of s*tau.

    The defect s - value(result) is exact and lies in [0, epsilon).  A
    rational (int, Fraction) is read as its numerator and denominator, in
    integers; anything else (float, Decimal) is converted to a Fraction.
    """
    if not hasattr(s, "denominator"):  # compared as given; a str raises TypeError
        if not 0 <= s <= 1:
            raise DomainError(f"cannot round {s}: outside [0, 1]")
        s = Fraction(s)
    num, den = s.numerator, s.denominator
    if num < 0 or num > den:
        raise DomainError(f"cannot round {s}: outside [0, 1]")
    return GridPoint((num * spec.tau) // den, spec)


def successor(x: GridPoint) -> GridPoint:
    """The next point x + epsilon; undefined at the right endpoint."""
    if x.index >= x.spec.tau:
        raise DomainError(f"no successor at right endpoint {x.value}")
    return GridPoint(x.index + 1, x.spec)


def quasi_identity_defect(s: Fraction, spec: GridSpec) -> Fraction:
    """s minus its rounding, guaranteed in [0, epsilon)."""
    return Fraction(s) - round_to_grid(s, spec).value
