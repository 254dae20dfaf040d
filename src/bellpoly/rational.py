"""Rational parsing/formatting for the "num/den" file and report convention,
and the exact reader the constructors share."""

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


def as_rational(v) -> Fraction:
    """v as an exact rational (a float exactly); ValueError or TypeError
    when `Fraction` cannot take it: NaN or infinity, a string that is no
    number, a sequence."""
    if isinstance(v, Fraction):
        return v
    try:
        return Fraction(v)
    except OverflowError:  # an infinite float
        raise ValueError(f"cannot read {v!r} as a rational") from None


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
