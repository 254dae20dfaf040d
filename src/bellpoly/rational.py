"""Rational parsing/formatting for the "num/den" file and report convention."""

from fractions import Fraction

from .errors import ParseError


def parse_rational(value, where=""):
    """Accept "num/den" strings, integers, or integer-valued floats. Never floats
    with a fractional part: exactness is the point."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"{where}: boolean is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():  # also rejects inf and nan
            raise ParseError(f"{where}: float {value!r} rejected, use \"num/den\"")
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {value!r} ({exc})") from None
    raise ParseError(f"{where}: cannot read {type(value).__name__} as rational")


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
