from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellpoly import format_rational, parse_rational
from bellpoly.chsh import WeightedCHSH
from bellpoly.cut import CorrelatorInequality, CutInequality, Graph, NCBehaviour
from bellpoly.games import LinearGame, NLCSpec, UniqueGame3
from bellpoly.scenario import BellInequality, Scenario


def test_parse_plain_integer():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0") == Fraction(0)


def test_parse_slash_form():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-9/20") == Fraction(-9, 20)
    assert parse_rational("6/8") == Fraction(3, 4)


def test_parse_rejects_garbage():
    for bad in ("", "one", "1/0", "1/2/3", "1.5.2", None):
        with pytest.raises((ValueError, TypeError)):
            parse_rational(bad)


def test_format_integers_have_no_slash():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"


def test_format_reduced_form():
    assert format_rational(Fraction(10, 15)) == "2/3"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


@given(st.fractions(max_denominator=10**6))
def test_round_trip(value):
    assert parse_rational(format_rational(value)) == value


INFINITE_INPUTS = {
    "LinearGame": lambda v: LinearGame(2, 1, 1, ((v,),), ((0,),)),
    "UniqueGame3": lambda v: UniqueGame3(1, 1, ((v,),), (("e",),)),
    "NLCSpec": lambda v: NLCSpec(2, 1, (0, 1), (v, Fraction(1, 2))),
    "CutInequality coefficient": lambda v: CutInequality(2, {(0, 1): v}, 0),
    "CutInequality bound": lambda v: CutInequality(2, {(0, 1): 1}, v),
    "CorrelatorInequality": lambda v: CorrelatorInequality(2, {(0, 1): v}, (0, 0), 0),
    "NCBehaviour": lambda v: NCBehaviour(Graph.complete(2), (v, 0), {(0, 1): 0}),
    "WeightedCHSH": lambda v: WeightedCHSH((v, 0, 0, 0)),
    "BellInequality": lambda v: BellInequality(Scenario(1, 1, 2, 2), ((((v, 0), (0, 0)),),), 0),
}


@pytest.mark.parametrize("v", [float("inf"), float("-inf")])
@pytest.mark.parametrize("name", sorted(INFINITE_INPUTS))
def test_constructors_refuse_an_infinite_float_with_value_error(name, v):
    # every constructor reads its rationals with `rational.as_rational`, so an
    # infinite float is a ValueError, not Fraction's OverflowError
    with pytest.raises(ValueError, match="cannot read -?inf as a rational"):
        INFINITE_INPUTS[name](v)
