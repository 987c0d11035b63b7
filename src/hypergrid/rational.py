"""Exact rational arithmetic: the substrate every other module computes on.

Values are ``fractions.Fraction`` instances, which already guarantee the
canonical form this package relies on: positive denominator, fully reduced,
and exact field arithmetic with no rounding anywhere.  This module adds the
text syntax accepted everywhere ("p/q", integer literals, exact decimal
literals) and a fixed-point decimal renderer.

Division by zero raises ``ZeroDivisionError``, the native domain error for
the one partial field operation.
"""

import re
import sys
from fractions import Fraction

from .errors import DomainError, ResourceLimitError

Rational = Fraction

_RATIONAL_TEXT = re.compile(
    r"""\A\s*
    (?P<sign>[-+]?)
    (?:
        (?P<num>\d+)\s*/\s*(?P<den>\d+)     # p/q
      | (?P<int>\d+)(?:\.(?P<frac>\d*))?    # integer or decimal
      | \.(?P<bare_frac>\d+)                # leading-dot decimal
    )
    \s*\Z""",
    re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer literal, or an exact decimal literal.

    Decimal literals convert exactly: "0.37" becomes 37/100.  A run of
    more digits than Python's int-from-text limit raises DomainError.
    """
    m = _RATIONAL_TEXT.match(text)
    if m is None:
        raise DomainError(f"not a rational literal: {text!r}")
    longest = max(map(len, m.groups("")))
    if longest > sys.get_int_max_str_digits() > 0:
        raise DomainError(f"a {longest}-digit term is past the limit for reading integers")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("num") is not None:
        den = int(m.group("den"))
        if den == 0:
            raise DomainError(f"zero denominator in rational literal: {text!r}")
        return Fraction(sign * int(m.group("num")), den)
    if m.group("bare_frac") is not None:
        digits = m.group("bare_frac")
        return Fraction(sign * int(digits), 10 ** len(digits))
    whole = int(m.group("int"))
    frac = m.group("frac") or ""
    scale = 10 ** len(frac)
    return Fraction(sign * (whole * scale + int(frac or "0")), scale)


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" text; integers render without the "/1".  A term
    longer than Python's int-to-text digit limit raises
    ResourceLimitError."""
    try:
        return str(q)
    except ValueError:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise ResourceLimitError(
            f"a {bits}-bit rational exceeds the {sys.get_int_max_str_digits()}-digit"
            " limit for printing integers"
        ) from None


def brief_rational(q: Fraction) -> str:
    """``str(q)`` if neither term has over 256 bits (about 77 digits), else
    their sizes in bits, or an integer's size alone: how an error message
    names a computed value."""
    a, b = q.numerator.bit_length(), q.denominator.bit_length()
    if max(a, b) <= 256:
        return str(q)
    text = f"{'-' if q < 0 else ''}({a}-bit integer)"
    return text if b == 1 else f"{text}/({b}-bit integer)"


def render_decimal(q: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering of ``q`` to ``digits`` fractional
    digits, rounding half away from zero.  More digits than Python's
    int-to-text limit raises ResourceLimitError."""
    if digits < 0:
        raise DomainError(f"digit count must be nonnegative, got {digits}")
    if digits > sys.get_int_max_str_digits() > 0:
        raise ResourceLimitError(f"{digits} digits exceed the limit for printing integers")
    scale = 10**digits
    scaled = q.numerator * scale * 2
    whole, rem = divmod(abs(scaled), q.denominator * 2)
    if rem >= q.denominator:
        whole += 1
    sign = "-" if q < 0 else ""
    if digits == 0:
        return f"{sign}{whole}"
    int_part, frac_part = divmod(whole, scale)
    return f"{sign}{int_part}.{frac_part:0{digits}d}"

