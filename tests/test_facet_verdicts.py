"""Facet verdicts of the certified rank against a Bareiss reference.

Each case runs the facet test twice: as shipped, and with the affine rank
replaced by Bareiss elimination on the difference vectors. The two reports
must be equal field by field.
"""
from fractions import Fraction

import pytest

from bellpoly import (BellInequality, NLCSpec, Scenario, build_nlc2, cut, exactrank,
                      facet_test, integer_rank, to_bell_inequality, to_correlator_inequality,
                      values)
from bellpoly.cut import CutInequality, Graph, cut_facet_test
from tests.conftest import make_chsh_game, make_nlc2_and, make_nlc2_xor

F = Fraction


def bareiss_affine_rank(points):
    pts = [list(p) for p in points]
    return integer_rank([[v - b for v, b in zip(p, pts[0])] for p in pts[1:]])


def with_bareiss(monkeypatch, run):
    with monkeypatch.context() as m:
        # the one rank call that Bell, correlation and cut facet tests share
        m.setattr(exactrank, "affine_rank", bareiss_affine_rank)
        return run()


def positivity(m, cell=(0, 0, 0, 0)):
    """Single-cell positivity -P(a, b | x, y) <= 0 on the m x m binary scenario."""
    coeffs = tuple(
        tuple(tuple(tuple(F(-1) if (x, y, a, b) == cell else F(0) for b in range(2))
                    for a in range(2)) for y in range(m)) for x in range(m))
    return BellInequality(Scenario(m, m, 2, 2), coeffs, F(0))


def nlc3(table):
    return build_nlc2(NLCSpec(2, 3, table, (F(1, 8),) * 8))


POSITIVITY_CASES = [
    (3, (0, 0, 0, 0), 14), (3, (2, 1, 1, 0), 14), (4, (0, 0, 0, 0), 23),
    (4, (3, 2, 0, 1), 23), (5, (0, 0, 0, 0), 34), (6, (0, 0, 0, 0), 47)]


@pytest.mark.parametrize("m,cell,dim", POSITIVITY_CASES)
def test_positivity_verdicts_match_bareiss(monkeypatch, m, cell, dim):
    ineq = positivity(m, cell)
    rep = facet_test(ineq, "bell")
    assert rep == with_bareiss(monkeypatch, lambda: facet_test(ineq, "bell"))
    assert (rep.saturating_count, rep.saturating_affine_dim) == (3 * 4 ** (m - 1), dim)
    assert rep.is_facet and rep.trivial_facet_class


HYPERMETRIC_CASES = [
    (1, 1, 1, -1, -1), (1, 1, 1, -1, -1, 0), (1, 1, 1, 1, -1, -2),
    (1, 1, 1, 1, 1, -1, -3), (2, 1, 1, -1, -1, -1, 0, 0), (1,) * 7 + (-1, -5),
    (1,) * 6 + (-1,) * 5, (1,) * 6 + (-1,) * 5 + (0,), (1,) * 7 + (-1,) * 6,
    (1,) * 8 + (-1,) * 5 + (-2,)]


@pytest.mark.parametrize("b", HYPERMETRIC_CASES)
def test_hypermetric_verdicts_match_bareiss(monkeypatch, b):
    ineq, g = CutInequality.hypermetric(b), Graph.complete(len(b))
    rep = cut_facet_test(ineq, g)
    assert rep == with_bareiss(monkeypatch, lambda: cut_facet_test(ineq, g))
    assert rep.saturating_count > 0


GAMES = {
    "chsh": make_chsh_game,
    "chsh-weighted": lambda: make_chsh_game((F(9, 20), F(5, 20), F(5, 20), F(1, 20))),
    "nlc2-and": make_nlc2_and,
    "nlc2-xor": make_nlc2_xor,
    "nlc3-majority": lambda: nlc3((0, 0, 0, 1, 0, 1, 1, 1)),
    "nlc3-and": lambda: nlc3((0, 0, 0, 0, 0, 0, 0, 1)),
    "nlc3-parity": lambda: nlc3((0, 1, 1, 0, 1, 0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(GAMES))
@pytest.mark.parametrize("kind", ["bell", "correlation"])
def test_game_verdicts_match_bareiss(monkeypatch, name, kind):
    g = GAMES[name]()
    ineq = to_bell_inequality(g) if kind == "bell" else to_correlator_inequality(g)
    rep = facet_test(ineq, kind)
    assert rep == with_bareiss(monkeypatch, lambda: facet_test(ineq, kind))
    if name == "chsh":
        assert rep.is_facet


def test_positivity_7x7_is_facet():
    # 12288 x 63 differences; Bareiss alone takes about 10 s on them, so
    # this case has no Bareiss reference
    rep = facet_test(positivity(7, (3, 5, 1, 0)), "bell")
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim) \
        == (63, 12288, 62)
    assert rep.is_facet


def _scaled_bell(ineq, k):
    coeffs = tuple(tuple(tuple(tuple(v * k for v in cell) for cell in row) for row in block)
                   for block in ineq.coeffs)
    return BellInequality(ineq.scenario, coeffs, ineq.bound * k)


@pytest.mark.parametrize("name", ["chsh", "nlc2-and", "nlc3-majority"])
def test_verdicts_survive_scaling_beyond_int64(name):
    # coefficients near 2^70 take the Python-int path of the integer scan
    big = 2 ** 70 + 1
    ineq = to_bell_inequality(GAMES[name]())
    assert facet_test(_scaled_bell(ineq, big), "bell") == facet_test(ineq, "bell")
    invalid = BellInequality(ineq.scenario, ineq.coeffs, ineq.bound - F(1, 7))
    with pytest.raises(ValueError, match="violated by the deterministic box") as small:
        facet_test(invalid, "bell")
    with pytest.raises(ValueError, match="violated by the deterministic box") as large:
        facet_test(_scaled_bell(invalid, big), "bell")
    assert str(small.value) == str(large.value)
    b = (1, 1, 1, -1, -1, 0)
    cform = CutInequality.hypermetric(b)
    scaled = CutInequality(6, {e: c * big for e, c in cform.edge_coeffs.items()}, 0)
    assert cut_facet_test(scaled, Graph.complete(6)) == cut_facet_test(cform, Graph.complete(6))


def _verdict(run):
    try:
        return run()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("cells", [1, 7, 50])
def test_verdicts_do_not_depend_on_the_chunk_size(monkeypatch, cells):
    # the vertex scan in chunks of a few values must find the same roots, the
    # same first vertex of largest value, and the same rank
    chsh = to_bell_inequality(make_chsh_game())
    runs = [lambda: facet_test(positivity(3, (2, 1, 1, 0)), "bell"),
            lambda: facet_test(chsh, "bell"),
            # +P(1, 1 | 1, 1) <= 0: violated first by a_map (0, 1), b_map (0, 1)
            lambda: facet_test(_scaled_bell(positivity(2, (1, 1, 1, 1)), -1), "bell"),
            lambda: facet_test(to_correlator_inequality(GAMES["nlc3-parity"]()), "correlation"),
            lambda: facet_test(to_bell_inequality(GAMES["nlc2-xor"]()), "bell"),
            lambda: cut_facet_test(CutInequality.hypermetric((1, 1, 1, -1, -1, 0)),
                                   Graph.complete(6)),
            lambda: cut_facet_test(CutInequality(
                6, {e: F(sum(e) % 3 - 1, 2) for e in Graph.complete(6).sorted_edges}, 0),
                Graph.complete(6))]
    expected = [_verdict(run) for run in runs]
    with monkeypatch.context() as m:
        m.setattr(values, "_SCAN_CELLS", cells)
        m.setattr(cut, "_CHUNK_CELLS", cells)
        assert [_verdict(run) for run in runs] == expected
    assert any(isinstance(v, str) for v in expected)

