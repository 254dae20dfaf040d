"""Record semantics of every record class in the package: equality and hash
over the compared fields, for one class only; frozen fields; the dataclass
repr, which Scenario's error message embeds; Event's order; `replace`; and
that `bellpoly.records` defines a class without compiling code for it."""
import builtins
from fractions import Fraction
from functools import cached_property

import pytest

from bellpoly import (ClassicalValue, CorrelatorInequality, CutInequality, CutVector,
                      DeterministicBox, FaceVerdict, FacetReport, Graph, LambdaProfile,
                      NCBehaviour, NLCSpec, NoAdvantageVerdict, NormBound, OrthogonalSetCensus,
                      Scenario, SigmaLambdaCertificate, ValueReport, WeightedCHSH, classical_value,
                      face_condition, from_weights, maximal_orthogonal_sets,
                      pentagonal_contextuality_inequality, sigma_lambda_certificate,
                      to_bell_inequality, value_report)
from bellpoly.cut import Event
from bellpoly.records import field, record, replace
from tests.conftest import make_chsh_game, make_nlc3_game, make_unique3_mixed, make_unique3_rotation

F = Fraction


def _weights(*p):
    return from_weights([F(v, 20) for v in p])


# per record class: a maker of equal fresh instances, an unequal instance,
# and whether its fields hash (a dict-valued field does not)
CASES = {
    "WeightedCHSH": (lambda: _weights(9, 5, 5, 1), _weights(8, 5, 5, 2), True),
    "FaceVerdict": (lambda: face_condition(_weights(9, 5, 5, 1)),
                    face_condition(_weights(8, 5, 5, 2)), True),
    "SigmaLambdaCertificate": (lambda: sigma_lambda_certificate(_weights(9, 5, 5, 1)),
                               sigma_lambda_certificate(_weights(8, 5, 5, 2)), True),
    "Graph": (lambda: Graph(3, [(1, 0), (1, 2)]), Graph(3, [(0, 1)]), True),
    "CutVector": (lambda: CutVector(Graph.complete(3), {1}), CutVector(Graph.complete(3), {2}),
                  True),
    "NCBehaviour": (lambda: NCBehaviour.deterministic(Graph.complete(3), (1, -1, 1)),
                    NCBehaviour.deterministic(Graph.complete(3), (1, 1, 1)), False),
    "CutInequality": (lambda: CutInequality.hypermetric((1, 1, -1)),
                      CutInequality.hypermetric((1, -1, 1)), False),
    "CorrelatorInequality": (pentagonal_contextuality_inequality,
                             CorrelatorInequality(2, {(0, 1): 1}, (0, 0), 1), False),
    "Event": (lambda: Event(0, 1, 1, -1), Event(0, 1, -1, 1), True),
    "OrthogonalSetCensus": (lambda: maximal_orthogonal_sets(3), maximal_orthogonal_sets(4), True),
    "LinearGame": (make_chsh_game, make_nlc3_game(), True),
    "UniqueGame3": (make_unique3_rotation, make_unique3_mixed(), True),
    "NLCSpec": (lambda: NLCSpec(2, 2, (0, 0, 0, 1), (F(1, 4),) * 4),
                NLCSpec(2, 2, (0, 1, 1, 0), (F(1, 4),) * 4), True),
    "Scenario": (lambda: Scenario(2, 3, 2, 2), Scenario(3, 2, 2, 2), True),
    "DeterministicBox": (lambda: DeterministicBox(Scenario(2, 2, 2, 2), (0, 1), (1, 0)),
                         DeterministicBox(Scenario(2, 2, 2, 2), (1, 1), (1, 0)), True),
    "BellInequality": (lambda: to_bell_inequality(make_chsh_game()),
                       to_bell_inequality(make_nlc3_game()), True),
    "FacetReport": (lambda: FacetReport("bell", 8, 3, 2), FacetReport("bell", 8, 3, 1), True),
    "LambdaProfile": (lambda: LambdaProfile((F(1, 2), F(1, 2))),
                      LambdaProfile((F(1, 3), F(2, 3))), True),
    "ClassicalValue": (lambda: classical_value(make_chsh_game()),
                       ClassicalValue(F(1), (0, 0), (0, 0)), True),
    "NoAdvantageVerdict": (lambda: NoAdvantageVerdict(reason="inconclusive"),
                           NoAdvantageVerdict(strategy=((0,), (0,))), True),
    "ValueReport": (lambda: value_report(make_chsh_game()), value_report(make_nlc3_game()), True),
    "NormBound": (lambda: value_report(make_chsh_game()).norm_bound,
                  value_report(make_nlc3_game()).norm_bound, True),
}


def test_every_record_class_has_a_case():
    import bellpoly
    records = {name for name in bellpoly.__all__
               if isinstance(getattr(bellpoly, name), type)
               and "_record_init" in vars(getattr(bellpoly, name))}
    assert records | {"Event"} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash(name):
    make, other, hashable = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != tuple(vars(a).values()) and a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_are_frozen(name):
    a = CASES[name][0]()
    first = next(iter(type(a).__annotations__))
    before = getattr(a, first)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(a, first, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        a.no_such_field = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(a, first)
    assert getattr(a, first) is before


def test_records_of_another_class_with_equal_fields_differ():
    @record
    class Twin:
        polytope_kind: str
        ambient_dim: int
        saturating_count: int
        saturating_affine_dim: int
        decomposition: tuple = None
        trivial_facet_class: bool = False
        notes: tuple = ()

    assert Twin("bell", 8, 3, 2) != FacetReport("bell", 8, 3, 2)
    with pytest.raises(TypeError):
        Event(0, 1, 1, 1) < (0, 1, 1, 1)


def test_repr_is_the_dataclass_format():
    assert repr(Scenario(2, 3, 2, 2)) == "Scenario(ma=2, mb=3, da=2, db=2)"
    # fields with repr=False stay out; compare=False ones stay in
    assert repr(Graph(2, [(1, 0)])) == "Graph(n=2, edges=frozenset({(0, 1)}))"
    assert repr(CutVector(Graph(2, [(0, 1)]), {1})) == \
        "CutVector(graph=Graph(n=2, edges=frozenset({(0, 1)})), subset=frozenset({1}), bits=(1,))"
    assert repr(Event(0, 1, 1, -1)) == "Event(i=0, j=1, a=1, b=-1)"
    assert repr(FacetReport("bell", 8, 3, 2)) == (
        "FacetReport(polytope_kind='bell', ambient_dim=8, saturating_count=3, "
        "saturating_affine_dim=2, decomposition=None, trivial_facet_class=False, notes=())")
    assert repr(NoAdvantageVerdict(reason="x")) == "NoAdvantageVerdict(strategy=None, reason='x')"
    assert repr(WeightedCHSH((F(1, 4),) * 4)) == (
        "WeightedCHSH(p=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)), "
        "trivial_even=False)")


def test_scenario_error_embeds_the_repr():
    with pytest.raises(ValueError, match=r"^scenario parameters must be positive integers, "
                                         r"got Scenario\(ma=0, mb=1, da=2, db=2\)$"):
        Scenario(0, 1, 2, 2)


def test_event_order_is_field_order():
    events = [Event(1, 2, 1, 1), Event(0, 1, 1, -1), Event(0, 1, -1, 1), Event(0, 2, -1, -1)]
    key = lambda e: (e.i, e.j, e.a, e.b)  # noqa: E731
    assert sorted(events) == sorted(events, key=key)
    assert Event(0, 1, -1, 1) < Event(0, 1, 1, -1) <= Event(0, 1, 1, -1)
    assert Event(0, 2, -1, -1) > Event(0, 1, 1, 1) >= Event(0, 1, 1, 1)
    with pytest.raises(TypeError):
        Scenario(1, 1, 1, 1) < Scenario(2, 2, 2, 2)  # order only where asked for


# classes whose constructor takes their init fields
REPLACEABLE = sorted(set(CASES) - {"CutVector", "BellInequality"})


@pytest.mark.parametrize("name", REPLACEABLE)
def test_replace_round_trips(name):
    make, other, _ = CASES[name]
    a = make()
    assert replace(a) == a and replace(a) is not a
    # every field the constructor takes, replaced by other's, makes other
    assert replace(a, **{f: getattr(other, f) for f in type(a)._record_init}) == other
    assert a == make()  # and leaves a as it was


def test_replace_checks_again_and_refuses_what_the_constructor_refuses():
    assert replace(Scenario(2, 2, 2, 2), ma=3) == Scenario(3, 2, 2, 2)
    with pytest.raises(ValueError, match="positive integers"):
        replace(Scenario(2, 2, 2, 2), ma=0)
    with pytest.raises(TypeError):
        replace(Scenario(2, 2, 2, 2), mc=3)
    # a constructor of other arguments than its fields, as under dataclasses
    for a in (CutVector(Graph.complete(3), {1}), to_bell_inequality(make_chsh_game())):
        with pytest.raises(TypeError):
            replace(a)


def test_constructor_arguments_follow_the_generated_rules():
    assert FacetReport("bell", 8, 3, 2) == \
        FacetReport(saturating_affine_dim=2, polytope_kind="bell", ambient_dim=8, saturating_count=3)
    assert FacetReport("bell", 8, 3, 2, notes=("x",)).notes == ("x",)
    assert NoAdvantageVerdict().strategy is None
    for args, kwargs in [((2, 2, 2), {}), ((2, 2, 2, 2, 2), {}), ((2, 2, 2, 2), {"ma": 2}),
                         ((2, 2, 2), {"dc": 2}), ((2, 2, 2), {"db": 2, "dc": 2})]:
        with pytest.raises(TypeError):
            Scenario(*args, **kwargs)


def test_a_record_class_is_defined_without_exec(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("code generated at class definition")

    with monkeypatch.context() as m:
        m.setattr(builtins, "exec", refuse)
        m.setattr(builtins, "eval", refuse)

        @record(order=True)
        class Pair:
            left: int
            right: int = 0
            cache: dict = field(init=False, compare=False, repr=False)

            def __init__(self, left, right=0):
                object.__setattr__(self, "left", left)
                object.__setattr__(self, "right", right)
                object.__setattr__(self, "cache", {})

        @record
        class Checked:
            value: int
            label: str = "x"

            def __post_init__(self):
                if self.value < 0:
                    raise ValueError("negative")

            @cached_property
            def double(self):
                return 2 * self.value

    assert Pair(1) < Pair(1, 2) and Pair(1, 2) == Pair(1, 2)
    assert repr(Pair(1)) == f"{Pair.__qualname__}(left=1, right=0)"
    assert hash(Pair(1, 2)) == hash(Pair(1, 2)) and "cache" not in vars(Pair)
    c = Checked(3)
    assert (c.double, c.double, c.label) == (6, 6, "x")  # the cached value sits in vars(c)
    assert replace(c, label="y") == Checked(3, "y")
    with pytest.raises(ValueError, match="negative"):
        Checked(-1)
