from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import (
    BellInequality,
    BudgetExceededError,
    Scenario,
    affine_dimension,
    behaviour_from_box,
    correlator_inequality,
    enumerate_deterministic_boxes,
    evaluate,
    is_no_signaling,
    mix,
    ns_polytope_dimension,
)
from bellpoly.scenario import _correlator_rows, _reduced_rows

F = Fraction


def _response_maps(d: int, m: int) -> np.ndarray:
    """Every map from m inputs to d outputs, one per row, in lexicographic order."""
    return np.stack(np.unravel_index(np.arange(d ** m), (d,) * m), axis=1)


def test_box_count():
    assert Scenario(2, 2, 2, 2).box_count == 16
    assert Scenario(3, 3, 3, 3).box_count == 27 * 27
    assert Scenario(2, 3, 2, 4).box_count == (2 ** 2) * (4 ** 3)


def test_ns_dimension_formula():
    # mA*mB*(dA-1)*(dB-1) + mA*(dA-1) + mB*(dB-1)
    assert ns_polytope_dimension(Scenario(2, 2, 2, 2)) == 8
    assert ns_polytope_dimension(Scenario(3, 3, 3, 3)) == 48
    assert ns_polytope_dimension(Scenario(4, 4, 4, 4)) == 168


def test_enumeration_is_sorted_and_distinct():
    boxes = enumerate_deterministic_boxes(Scenario(2, 2, 2, 2))
    keys = [(b.a_map, b.b_map) for b in boxes]
    assert keys == sorted(keys)
    assert len(set(keys)) == 16


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_deterministic_boxes(Scenario(3, 3, 3, 3), budget=100)


def test_deterministic_boxes_are_no_signaling():
    for b in enumerate_deterministic_boxes(Scenario(2, 2, 2, 2)):
        assert is_no_signaling(behaviour_from_box(b))


def test_mix_stays_no_signaling_and_is_affine():
    s = Scenario(2, 2, 2, 2)
    boxes = enumerate_deterministic_boxes(s)
    b0, b1 = behaviour_from_box(boxes[1]), behaviour_from_box(boxes[10])
    m = mix([b0, b1], [F(1, 3), F(2, 3)])
    assert is_no_signaling(m)
    coeffs = tuple(
        tuple(tuple(tuple(F(x * 2 + y, 7) + F(a - b, 5) for b in range(2))
                    for a in range(2)) for y in range(2)) for x in range(2))
    ineq = BellInequality(s, coeffs, F(0))
    direct = evaluate(ineq, m)
    split = F(1, 3) * evaluate(ineq, b0) + F(2, 3) * evaluate(ineq, b1)
    assert direct == split


def test_signaling_table_detected():
    s = Scenario(2, 2, 2, 2)
    # Alice's marginal depends on y: P(a|x, y=0) != P(a|x, y=1).
    def cell(x, y):
        if y == 0:
            return ((F(1, 2), F(0)), (F(0), F(1, 2)))
        return ((F(1), F(0)), (F(0), F(0)))
    table = tuple(tuple(cell(x, y) for y in range(2)) for x in range(2))
    from bellpoly import Behaviour
    assert not is_no_signaling(Behaviour(s, table))


def test_reduced_vector_has_ns_dimension_components():
    s = Scenario(2, 3, 2, 2)
    d = ns_polytope_dimension(s)
    box = enumerate_deterministic_boxes(s)[5]
    assert len(box.reduced_vector()) == d


def test_full_box_set_spans_the_ns_dimension():
    s = Scenario(2, 2, 2, 2)
    boxes = enumerate_deterministic_boxes(s)
    assert affine_dimension(boxes) == ns_polytope_dimension(s)


def test_correlator_vector_values():
    s = Scenario(2, 2, 2, 2)
    boxes = enumerate_deterministic_boxes(s)
    for b in boxes:
        vec = b.correlator_vector()
        assert len(vec) == 4
        assert all(v in (F(-1), F(1)) for v in vec)


def test_correlator_inequality_requires_binary_outcomes():
    s = Scenario(2, 2, 3, 3)
    with pytest.raises(ValueError):
        correlator_inequality(s, ((F(1), F(1)), (F(1), F(-1))), F(2))


def test_correlator_inequality_matches_hand_expansion():
    s = Scenario(2, 2, 2, 2)
    corr = ((F(1), F(1)), (F(1), F(-1)))
    ineq = correlator_inequality(s, corr, F(2))
    for box in enumerate_deterministic_boxes(s):
        spot = sum(corr[x][y] * box.correlator_vector()[2 * x + y]
                   for x in range(2) for y in range(2))
        assert ineq.evaluate_box(box) == spot


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 9))
def test_mixtures_of_boxes_property(i, j, num):
    s = Scenario(2, 2, 2, 2)
    boxes = enumerate_deterministic_boxes(s)
    w = F(num, 10)
    m = mix([behaviour_from_box(boxes[i]), behaviour_from_box(boxes[j])],
            [w, 1 - w])
    assert is_no_signaling(m)
    total = sum(m.prob(x, y, a, b)
                for x in range(2) for y in range(2)
                for a in range(2) for b in range(2))
    assert total == 4  # one unit of probability per input pair


def _reduced_reference(box):
    """reduced_vector written out coordinate by coordinate."""
    s, a_map, b_map = box.scenario, box.a_map, box.b_map
    alice = [int(a_map[x] == a) for x in range(s.ma) for a in range(s.da - 1)]
    bob = [int(b_map[y] == b) for y in range(s.mb) for b in range(s.db - 1)]
    joint = [int(a_map[x] == a and b_map[y] == b)
             for x in range(s.ma) for y in range(s.mb)
             for a in range(s.da - 1) for b in range(s.db - 1)]
    return tuple(alice + bob + joint)


@pytest.mark.parametrize("ma,mb,da,db", [
    (1, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 3, 3), (3, 2, 3, 2), (1, 3, 2, 3),
    (2, 3, 3, 3)])
def test_array_projection_matches_box_vectors(ma, mb, da, db):
    s = Scenario(ma, mb, da, db)
    boxes = enumerate_deterministic_boxes(s)
    assert [(b.a_map, b.b_map) for b in boxes] == [
        (tuple(a), tuple(b)) for a in _response_maps(da, ma).tolist()
        for b in _response_maps(db, mb).tolist()]
    A = np.array([b.a_map for b in boxes])
    B = np.array([b.b_map for b in boxes])
    rows = _reduced_rows(s, A, B).tolist()
    for box, row in zip(boxes, rows):
        assert tuple(row) == box.reduced_vector() == _reduced_reference(box)
    if da == db == 2:
        rows = _correlator_rows(s, A, B).tolist()
        for box, row in zip(boxes, rows):
            reference = tuple(1 if box.a_map[x] == box.b_map[y] else -1
                              for x in range(ma) for y in range(mb))
            assert tuple(row) == box.correlator_vector() == reference
