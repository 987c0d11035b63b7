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
from hypergrid.rational import brief_rational

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


def test_literals_past_the_int_text_limit_are_refused_with_their_size():
    limit = sys.get_int_max_str_digits()
    assert parse_rational("1/" + "9" * limit) == Fraction(1, 10**limit - 1)
    for text in ("7" * (limit + 1), "-1/" + "7" * (limit + 1), "0." + "7" * (limit + 1)):
        with pytest.raises(DomainError, match=f"^a {limit + 1}-digit term is past the limit"):
            parse_rational(text)


def test_brief_rational_names_wide_terms_by_their_bits():
    assert brief_rational(Fraction(-(2**256) + 1, 3)) == str(Fraction(-(2**256) + 1, 3))
    assert brief_rational(Fraction(2**256, 3)) == "(257-bit integer)/(2-bit integer)"
    assert brief_rational(Fraction(-1, 7**5000)) == "-(1-bit integer)/(14037-bit integer)"
    assert brief_rational(-(2**256)) == "-(257-bit integer)"


def test_format_rational_refuses_integers_past_the_print_limit():
    with pytest.raises(ResourceLimitError):
        format_rational(Fraction(10**5000, 3))
