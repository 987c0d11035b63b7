"""Deterministic sampling: scrambled Weyl sequences and probe plans."""

from fractions import Fraction

from hypergrid import SamplingPlan, sample_unit_fractions
from hypergrid.sampling import splitmix64, weyl_indices, weyl_units


def test_splitmix_matches_the_reference_sequence():
    # first two outputs of the standard splitmix64 stream seeded at 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_splitmix_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= splitmix64(x) < 2**64


def test_weyl_units_are_deterministic_per_seed():
    a = list(weyl_units(16, seed=7))
    b = list(weyl_units(16, seed=7))
    c = list(weyl_units(16, seed=8))
    assert a == b
    assert a != c


def test_weyl_indices_stay_in_range():
    for n in weyl_indices(1000, 37, seed=3):
        assert 0 <= n < 37


def test_unit_fractions_are_exact_and_in_the_unit_interval():
    us = list(sample_unit_fractions(100, seed=0))
    assert len(us) == 100
    for u in us:
        assert isinstance(u, Fraction)
        assert 0 <= u < 1
        assert u.denominator <= 2**64


def test_small_grids_are_probed_exhaustively():
    plan = SamplingPlan(exhaustive_limit=8)
    assert plan.is_exhaustive(7)
    assert plan.indices(7) == list(range(8))
    assert plan.mode(7) == "exhaustive"
    assert not plan.is_exhaustive(8)
    assert plan.mode(8) == "sampled"


def test_sampled_indices_are_sorted_unique_and_in_bounds():
    plan = SamplingPlan(random_points=64, dyadic_depth=3, exhaustive_limit=4)
    idx = plan.indices(10**6)
    assert idx == sorted(set(idx))
    assert all(0 <= n <= 10**6 for n in idx)
    # dyadic anchors always present
    assert 0 in idx and 10**6 in idx and 500000 in idx


def test_plans_with_equal_configuration_agree():
    a = SamplingPlan(seed=5, random_points=32, dyadic_depth=4, exhaustive_limit=2)
    b = SamplingPlan(seed=5, random_points=32, dyadic_depth=4, exhaustive_limit=2)
    assert a.indices(12345) == b.indices(12345)


def test_quick_plan_is_small_but_exhaustive_on_tiny_grids():
    plan = SamplingPlan(random_points=1024, dyadic_depth=8, exhaustive_limit=4097)
    assert plan.is_exhaustive(4096)
    assert not plan.is_exhaustive(4097)
    assert len(plan.indices(10**9)) <= 1024 + 2**8 + 2 + 256
