"""The grid, its rounding map, and the successor step."""

from decimal import Decimal
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergrid import (
    DomainError,
    HypergridError,
    GridPoint,
    GridSpec,
    quasi_identity_defect,
    round_to_grid,
    successor,
)

unit_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=10**9
)
taus = st.integers(min_value=2, max_value=10**6)


def test_spec_rejects_degenerate_resolution():
    for tau in (1, 0, -3):
        with pytest.raises(DomainError):
            GridSpec(tau)


def test_epsilon_is_the_mesh_width():
    assert GridSpec(10).epsilon == Fraction(1, 10)
    assert GridSpec(2**16).epsilon == Fraction(1, 2**16)


def test_points_enumerate_the_grid():
    spec = GridSpec(4)
    values = [p.value for p in spec.points()]
    assert values == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def test_point_index_bounds():
    spec = GridSpec(10)
    assert spec.point(0).value == 0
    assert spec.point(10).value == 1
    for bad in (-1, 11):
        with pytest.raises(DomainError):
            GridPoint(bad, spec)


def test_round_floors_onto_the_grid():
    spec = GridSpec(10)
    assert round_to_grid(Fraction(1, 3), spec).index == 3
    assert round_to_grid(Fraction(29, 100), spec).index == 2
    assert round_to_grid(Fraction(1), spec).index == 10
    assert round_to_grid(Fraction(0), spec).index == 0


def test_round_rejects_values_outside_the_interval():
    spec = GridSpec(10)
    for s in (Fraction(-1, 100), Fraction(101, 100)):
        with pytest.raises(DomainError):
            round_to_grid(s, spec)


@given(unit_rationals, taus)
def test_rounding_defect_is_in_the_half_open_mesh_cell(s, tau):
    spec = GridSpec(tau)
    defect = quasi_identity_defect(s, spec)
    assert 0 <= defect < spec.epsilon
    assert round_to_grid(s, spec).value + defect == s


def _reference_round_to_grid(s, spec):
    """The rounding map as it compared its argument before reading
    integers: the comparison first, then a Fraction of the argument."""
    if not 0 <= s <= 1:
        raise DomainError(f"cannot round {s}: outside [0, 1]")
    s = Fraction(s)
    return GridPoint((s.numerator * spec.tau) // s.denominator, spec)


def _rounding(round_, s, tau):
    try:
        return round_(s, GridSpec(tau))
    except (HypergridError, TypeError) as exc:
        return type(exc), str(exc)


_TINY = Fraction(1, 10**12)
_ROUNDING_INPUTS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**9),
    # the ends 0 and 1, and just inside and outside them
    st.builds(add, st.sampled_from([0, 1]), st.sampled_from([-_TINY, Fraction(0), _TINY])),
    st.floats(min_value=-2, max_value=2),
    st.sampled_from([0.0, 1.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.decimals(min_value=-2, max_value=2, places=12),
    st.sampled_from([Decimal(0), Decimal(1), Decimal("1.0000000000001"), Decimal("-1E-30")]),
)


@settings(max_examples=400)
@given(_ROUNDING_INPUTS, taus)
@example("1/2", 10)
@example(Fraction(1), 10**6)
@example(Fraction(-1, 10**9), 3)
def test_rounding_reads_integers_like_the_reference_rule(s, tau):
    assert _rounding(round_to_grid, s, tau) == _rounding(_reference_round_to_grid, s, tau)


@given(taus, st.integers(min_value=0, max_value=10**6))
def test_rounding_fixes_grid_points(tau, n):
    spec = GridSpec(tau)
    p = spec.point(n % (tau + 1))
    assert round_to_grid(p.value, spec) == p
    assert quasi_identity_defect(p.value, spec) == 0


def test_successor_steps_by_epsilon():
    spec = GridSpec(8)
    p = spec.point(3)
    q = successor(p)
    assert q.index == 4
    assert q.value - p.value == spec.epsilon


def test_no_successor_at_the_right_endpoint():
    spec = GridSpec(8)
    with pytest.raises(DomainError):
        successor(spec.point(8))


def test_grids_of_equal_resolution_compare_equal():
    assert GridSpec(16) == GridSpec(16)
    assert GridSpec(16).point(3) == GridSpec(16).point(3)
    assert GridSpec(16) != GridSpec(17)
