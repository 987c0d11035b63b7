"""Exact rational substrate: parsing, rendering, arithmetic."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergrid import (
    DomainError,
    ResourceLimitError,
    format_rational,
    parse_rational,
    render_decimal,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("+7/2", Fraction(7, 2)),
        ("2", Fraction(2)),
        ("-5", Fraction(-5)),
        ("0.37", Fraction(37, 100)),
        ("-0.5", Fraction(-1, 2)),
        (".25", Fraction(1, 4)),
        ("1.", Fraction(1)),
        ("  10/4  ", Fraction(5, 2)),
    ],
)
def test_parse_exact_values(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1/0", "1.5e3", "1/2/3", "0x10", "--1"])
def test_parse_rejects_non_literals(text):
    with pytest.raises(DomainError):
        parse_rational(text)


def test_format_is_canonical_fraction_text():
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-2)) == "-2"
    assert format_rational(Fraction(0)) == "0"


@given(rationals)
def test_parse_inverts_format(q):
    assert parse_rational(format_rational(q)) == q


def test_render_decimal_fixed_point():
    assert render_decimal(Fraction(1, 2), 3) == "0.500"
    assert render_decimal(Fraction(1, 3), 4) == "0.3333"
    assert render_decimal(Fraction(2, 3), 4) == "0.6667"
    assert render_decimal(Fraction(-1, 8), 2) == "-0.13"


def test_render_decimal_rounds_half_away_from_zero():
    assert render_decimal(Fraction(1, 2), 0) == "1"
    assert render_decimal(Fraction(-1, 2), 0) == "-1"
    assert render_decimal(Fraction(25, 1000), 2) == "0.03"


def test_render_decimal_rejects_negative_digits():
    with pytest.raises(DomainError):
        render_decimal(Fraction(1), -1)


@given(rationals, st.integers(min_value=0, max_value=8))
def test_render_decimal_is_within_half_ulp(q, digits):
    text = render_decimal(q, digits)
    back = parse_rational(text)
    assert abs(back - q) * 2 * 10**digits <= 1


def test_render_decimal_refuses_digits_past_the_print_limit():
    limit = sys.get_int_max_str_digits()
    assert render_decimal(Fraction(1, 3), limit) == "0." + "3" * limit
    with pytest.raises(ResourceLimitError):
        render_decimal(Fraction(1, 3), limit + 1)


def test_format_rational_refuses_integers_past_the_print_limit():
    with pytest.raises(ResourceLimitError):
        format_rational(Fraction(10**5000, 3))
