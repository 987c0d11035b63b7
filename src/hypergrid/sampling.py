"""Deterministic sampling plans for grids too large to enumerate.

All sequences are pure integer arithmetic (a splitmix64-scrambled Weyl
sequence), so a fixed seed gives bit-identical samples on every platform
and run.  That determinism is load-bearing: check reports must be
byte-identical for identical job configurations.
"""

from dataclasses import dataclass
from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the Weyl increment


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN64) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def weyl_units(count: int, seed: int = 0):
    """Yield ``count`` low-discrepancy 64-bit values."""
    offset = splitmix64(seed)
    for j in range(count):
        yield (offset + (j + 1) * _GOLDEN64) & _MASK64


def weyl_indices(count: int, modulus: int, seed: int = 0):
    """Yield ``count`` quasi-random indices in [0, modulus)."""
    for u in weyl_units(count, seed):
        yield (u * modulus) >> 64


def sample_unit_fractions(count: int, seed: int = 0):
    """Yield ``count`` quasi-random exact rationals in [0, 1)."""
    for u in weyl_units(count, seed):
        yield Fraction(u, 1 << 64)


@dataclass(frozen=True)
class SamplingPlan:
    """Where to probe a grid function when the grid cannot be enumerated.

    Grids with at most ``exhaustive_limit`` points are enumerated in full;
    otherwise the plan takes ``random_points`` quasi-random indices and
    every dyadic point of depth <= ``dyadic_depth`` (these hit the usual
    breakpoints such as 1/2).
    """

    seed: int = 0
    random_points: int = 2**16
    dyadic_depth: int = 12
    exhaustive_limit: int = 2**16

    def is_exhaustive(self, tau: int) -> bool:
        return tau + 1 <= self.exhaustive_limit

    def indices(self, tau: int) -> list:
        """Sorted, deduplicated grid indices in [0, tau] to probe."""
        if self.is_exhaustive(tau):
            return list(range(tau + 1))
        chosen = set()
        for depth in range(self.dyadic_depth + 1):
            step = 1 << depth
            for k in range(step + 1):
                chosen.add((tau * k) // step)
        chosen.update(weyl_indices(self.random_points, tau + 1, self.seed))
        return sorted(chosen)

    def mode(self, tau: int) -> str:
        return "exhaustive" if self.is_exhaustive(tau) else "sampled"
