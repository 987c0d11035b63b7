"""Observation contexts: thresholds and the indiscernibility relation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergrid import DEFAULT_H, DEFAULT_K, DomainError, ObservationContext

small_rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10**4
)


def test_defaults():
    ctx = ObservationContext()
    assert ctx.H == DEFAULT_H == 10**6
    assert ctx.K == DEFAULT_K == 10**12
    assert ctx.infinitesimal_scale == Fraction(1, 10**6)


@pytest.mark.parametrize("H, K", [(1, 10), (0, 10), (10, 1), (100, 10)])
def test_invalid_thresholds_rejected(H, K):
    with pytest.raises(DomainError):
        ObservationContext(H, K)


def test_infinitesimal_boundary_is_inclusive():
    ctx = ObservationContext(H=1000, K=10**6)
    assert ctx.is_infinitesimal(Fraction(1, 1000))
    assert ctx.is_infinitesimal(Fraction(-1, 1000))
    assert ctx.is_infinitesimal(Fraction(0))
    assert not ctx.is_infinitesimal(Fraction(1, 999))


def test_bounded_boundary_is_inclusive():
    ctx = ObservationContext(H=10, K=100)
    assert ctx.is_bounded(Fraction(100))
    assert ctx.is_bounded(Fraction(-100))
    assert not ctx.is_bounded(Fraction(101))


def test_indiscernible_gap_boundary():
    ctx = ObservationContext(H=1000, K=10**6)
    assert ctx.indiscernible(Fraction(0), Fraction(1, 1000))
    assert not ctx.indiscernible(Fraction(0), Fraction(1, 999))


def test_indiscernible_is_not_transitive():
    # two accepted gaps of 1/H compose to 2/H, which is rejected
    ctx = ObservationContext(H=1000, K=10**6)
    p, q, r = Fraction(0), Fraction(1, 1000), Fraction(2, 1000)
    assert ctx.indiscernible(p, q)
    assert ctx.indiscernible(q, r)
    assert not ctx.indiscernible(p, r)


def test_values_beyond_the_same_end_are_identified():
    ctx = ObservationContext(H=10, K=100)
    assert ctx.indiscernible(Fraction(101), Fraction(10**9))
    assert ctx.indiscernible(Fraction(-101), Fraction(-10**9))
    assert not ctx.indiscernible(Fraction(101), Fraction(-101))


def test_symmetric_at_the_boundedness_boundary():
    # one side just beyond K, the other bounded, gap infinitesimal
    ctx = ObservationContext(H=10, K=100)
    p = Fraction(100)
    q = Fraction(100) + Fraction(1, 20)
    assert ctx.indiscernible(p, q)
    assert ctx.indiscernible(q, p)


@given(small_rationals)
def test_indiscernible_is_reflexive(q):
    ctx = ObservationContext(H=100, K=1000)
    assert ctx.indiscernible(q, q)


@given(small_rationals, small_rationals)
def test_indiscernible_is_symmetric(p, q):
    # K = 50 sits inside the sampled range, so both branches are exercised
    ctx = ObservationContext(H=10, K=50)
    assert ctx.indiscernible(p, q) == ctx.indiscernible(q, p)


@given(small_rationals, small_rationals)
def test_infinitesimal_gap_of_bounded_values_identifies(p, q):
    ctx = ObservationContext(H=100, K=1000)
    if abs(p - q) * ctx.H <= 1:
        assert ctx.indiscernible(p, q)


def test_public_api_resolves():
    # every exported name exists, so a deletion cannot leave a stale export
    import hypergrid
    import hypergrid.calculus
    import hypergrid.context

    assert [name for name in hypergrid.__all__ if not hasattr(hypergrid, name)] == []
    assert hypergrid.CheckReport is hypergrid.context.CheckReport
    assert hypergrid.calculus.CheckReport is hypergrid.context.CheckReport
