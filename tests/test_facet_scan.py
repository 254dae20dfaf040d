"""Facet tests from the best-response scan, against the full box scan of
tests/classical_reference.py: every report and violation message on seeded
Bell and correlator functionals (1-4 inputs a side, 2-3 outputs, either
side with fewer maps, all-zero inputs, coefficients past 2^62, bounds at,
above and below the maximum); int16 and int32 tables at their edges on
either enumerated side; the budget on maps and rank cells; the n = 4 NLC
verdicts."""
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bellpoly import (BellInequality, BudgetExceededError, NLCSpec, Scenario, build_nlc2,
                      classical_value, cli, correlator_inequality, exactrank, facet_test,
                      nlc2_decompose, to_bell_inequality, to_correlator_inequality, values)
from bellpoly.cut import CutInequality, Graph, cut_facet_test
from bellpoly.exactrank import affine_rank
from bellpoly.scenario import _correlator_rows, _reduced_rows, ns_polytope_dimension
from bellpoly.tightness import game_facet_test
from tests.classical_reference import box_values
from tests.test_classical_scan import _recorded_tables
from tests.games_reference import subgame_restrict
from tests.test_facet_verdicts import (GAMES, HYPERMETRIC_CASES, POSITIVITY_CASES, _scaled_bell,
                                       positivity)

F = Fraction
BIG = 2 ** 63 + 1


def by_boxes(ineq, kind):
    """(kind, ambient, count, affine dimension, is_facet) from every box's
    value, or the violation message."""
    s = ineq.scenario
    V, target, A, B = box_values(ineq)
    flat = V.ravel().tolist()
    top = max(flat)
    if top > target:
        i, j = divmod(flat.index(top), len(B))
        return (f"inequality is violated by the deterministic box with a_map "
                f"{tuple(A[i].tolist())} and b_map {tuple(B[j].tolist())}")
    hits = [k for k, v in enumerate(flat) if v == target]
    rows_a = np.array([A[k // len(B)] for k in hits]).reshape(len(hits), s.ma)
    rows_b = np.array([B[k % len(B)] for k in hits]).reshape(len(hits), s.mb)
    if kind == "bell":
        ambient, project = ns_polytope_dimension(s), _reduced_rows
    else:
        ambient, project = s.ma * s.mb, _correlator_rows
    dim = affine_rank(project(s, rows_a, rows_b)) if hits else -1
    return kind, ambient, len(hits), dim, dim == ambient - 1


def by_scan(ineq, kind):
    try:
        rep = facet_test(ineq, kind)
    except ValueError as exc:
        return str(exc)
    return (rep.polytope_kind, rep.ambient_dim, rep.saturating_count,
            rep.saturating_affine_dim, rep.is_facet)


def _coefficient(rng, scale):
    return F(rng.choice((-2, -1, 0, 0, 1, 1, 2)) * scale, rng.choice((1, 1, 1, 3)))


def functional(rng, case):
    """A seeded functional with bound 0: case 0 any shape, 1 with fewer maps
    on Bob's side, 2 a correlator functional, 3 coefficients past 2^62. Some
    Alice or Bob input weighs nothing a third of the time."""
    correlator = case == 2 or (case == 3 and rng.random() < 0.5)
    scale = BIG if case == 3 else 1
    if correlator:
        ma, mb, da, db = rng.randint(1, 4), rng.randint(1, 4), 2, 2
    elif case == 1:  # more inputs and no fewer outputs on Alice's side
        mb, db = rng.randint(1, 3), rng.randint(2, 3)
        ma, da = rng.randint(mb + 1, 4), rng.randint(db, 3)
    else:
        ma, mb, da, db = (rng.randint(1, 4), rng.randint(1, 4),
                          rng.randint(2, 3), rng.randint(2, 3))
    s = Scenario(ma, mb, da, db)
    zero_x = rng.randrange(ma) if rng.random() < 1 / 3 else None
    zero_y = rng.randrange(mb) if rng.random() < 1 / 3 else None

    def c(x, y):
        return F(0) if zero_x == x or zero_y == y else _coefficient(rng, scale)
    if correlator:
        return correlator_inequality(s, [[c(x, y) for y in range(mb)] for x in range(ma)], 0)
    coeffs = tuple(tuple(tuple(tuple(c(x, y) for _ in range(db)) for _ in range(da))
                         for y in range(mb)) for x in range(ma))
    return BellInequality(s, coeffs, F(0))


def with_bound(ineq, bound):
    if ineq.space == "correlator":
        return correlator_inequality(ineq.scenario, ineq.corr, bound)
    return BellInequality(ineq.scenario, ineq.coeffs, bound)


@pytest.mark.parametrize("seed", range(80))
def test_scan_matches_the_full_box_scan(seed):
    rng = random.Random(f"facet-scan:{seed}")
    for case in range(4):
        probe = functional(rng, case)
        V, _, _, _ = box_values(probe)
        den = box_values(with_bound(probe, F(1)))[1]
        top = F(max(V.ravel().tolist()), den)
        kinds = ["bell", "correlation"] if probe.space == "correlator" else ["bell"]
        for bound in (top, top + F(1, 5), top - F(1, 7)):
            ineq = with_bound(probe, bound)
            for kind in kinds:
                assert by_scan(ineq, kind) == by_boxes(ineq, kind)


def test_cases_cover_the_shapes():
    shapes = set()
    for seed in range(80):
        rng = random.Random(f"facet-scan:{seed}")
        for case in range(4):
            s = functional(rng, case).scenario
            shapes.add((s.da ** s.ma > s.db ** s.mb, s.ma, s.mb, s.da, s.db))
    assert any(bob_fewer for bob_fewer, *_ in shapes)
    assert {ma for _, ma, _, _, _ in shapes} == {mb for _, _, mb, _, _ in shapes} == {1, 2, 3, 4}
    assert {da for *_, da, _ in shapes} == {2, 3}


@pytest.mark.parametrize("ma,mb,w,dtype", [
    (4, 4, 2 ** 11 - 1, "int16"), (4, 4, 2 ** 11, "int32"),
    (4, 2, 2 ** 12 - 2, "int16"), (4, 2, 2 ** 12, "int32"),
], ids=["alice-int16", "alice-int32", "bob-int16", "bob-int32"])
def test_facet_scan_tables_are_int16_while_every_sum_fits(monkeypatch, ma, mb, w, dtype):
    # binary functionals whose largest |coefficient| is w, bounded by their
    # maximum: every sum of the scan is at most ma mb w, 2^15 - 16 or 2^15.
    # The 4 x 2 ones are scanned on Bob's 2^2 maps
    rng = random.Random(f"{ma}x{mb}:{w}")
    coeffs = [[[[F(rng.choice((w, -w, w - 1, 0))) for _ in range(2)] for _ in range(2)]
               for _ in range(mb)] for _ in range(ma)]
    coeffs[0][0][0][0] = F(w)
    probe = BellInequality(Scenario(ma, mb, 2, 2), coeffs, F(0))
    ineq = with_bound(probe, F(max(box_values(probe)[0].ravel().tolist())))
    tables = _recorded_tables(monkeypatch)
    assert by_scan(ineq, "bell") == by_boxes(ineq, "bell")
    assert len(tables) == 2 and {t.dtype.name for t in tables} == {dtype}


def test_rank_rows_and_listed_boxes_within_the_budget():
    # 3x3 positivity: the 2^3 maps a side fit a budget of 8. Every Alice map
    # is optimal; the four with a_0 = 1 give 1 + 3 rank rows each, the four
    # with a_0 = 0 (Bob's b_0 forced) 1 + 2 each: 28 rows for 48 boxes, of
    # the 15 no-signaling coordinates each: 420 rank cells
    ineq = positivity(3)
    rep = facet_test(ineq, "bell", budget=420)
    assert (rep.saturating_count, rep.saturating_affine_dim) == (48, 14)
    for budget in (8, 27, 28, 419):
        with pytest.raises(BudgetExceededError,
                           match=r"28 rank rows of 15 columns \(420 cells\)"):
            facet_test(ineq, "bell", budget=budget)
    with pytest.raises(BudgetExceededError, match="8 response maps"):
        facet_test(ineq, "bell", budget=7)


def test_rank_cells_not_rows_meet_the_budget(tmp_path, capsys):
    # the all-zero correlator functional on 3 inputs a side: all 8 maps are
    # optimal with 1 + 3 rank rows each, 32 rows of 9 correlators. A budget
    # of 32 holds the maps and the rows but not the 288 cells
    zero = correlator_inequality(Scenario(3, 3, 2, 2), ((F(0),) * 3,) * 3, F(0))
    rep = facet_test(zero, "correlation", budget=288)
    assert (rep.saturating_count, rep.saturating_affine_dim) == (64, 9)
    for budget in (32, 287):
        with pytest.raises(BudgetExceededError,
                           match=r"^32 rank rows of 9 columns \(288 cells\) exceed the budget"):
            facet_test(zero, "correlation", budget=budget)
    path = tmp_path / "zero.json"
    path.write_text(cli.serialize_inequality(zero))
    argv = ["facet-test", str(path), "--polytope", "correlation", "--budget"]
    assert cli.main(argv + ["32"]) == 3
    assert "budget exceeded: 32 rank rows of 9 columns" in capsys.readouterr().err
    assert cli.main(argv + ["288"]) == 0


def test_many_optimal_maps_exceed_the_budget_in_bounded_memory(monkeypatch, tmp_path, capsys):
    # the all-zero functional on 16 binary inputs a side: all 2^16 maps are
    # optimal, with 1 + 16 rank rows and 2^16 boxes each. The maps fit the
    # budget, the rows do not; the scan then keeps no maps or tie sets, where
    # the maps as int64 digit rows alone take 8 MiB
    monkeypatch.setattr(values, "_SCAN_CELLS", 1 << 10)
    m = 16
    zero = tuple(tuple(((F(0),) * 2,) * 2 for _ in range(m)) for _ in range(m))
    ineq = BellInequality(Scenario(m, m, 2, 2), zero, F(0))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"{17 * 2 ** m} rank rows"):
            facet_test(ineq, "bell", budget=2 ** m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "zero.json"
    path.write_text(cli.serialize_inequality(ineq))
    assert cli.main(["facet-test", str(path), "--polytope", "bell", "--budget", str(2 ** m)]) == 3
    assert "budget" in capsys.readouterr().err


INNER_PRODUCT = tuple((z >> 3 & z >> 2 & 1) ^ (z >> 1 & z & 1) for z in range(16))
MAJORITY = tuple(int(bin(z).count("1") >= 3) for z in range(16))


def nlc4(table):
    return build_nlc2(NLCSpec(2, 4, table, (F(1, 16),) * 16))


@pytest.mark.parametrize("table, fragment", [(INNER_PRODUCT, "21/64"), (MAJORITY, "45/128")])
def test_first_bit_split_does_not_apply_at_n_4(table, fragment):
    g = nlc4(table)
    halves = [classical_value(subgame_restrict(g, {0: bit})).value for bit in (0, 1)]
    assert halves == [F(fragment)] * 2 and sum(halves) > classical_value(g).value
    with pytest.raises(ValueError, match="not sum to the game value.*does not apply"):
        nlc2_decompose(g)


@pytest.mark.parametrize("table, kind, figures", [
    (INNER_PRODUCT, "bell", (896, 121, 288, "5/8")),
    (INNER_PRODUCT, "correlation", (896, 105, 256, "1/8")),
    (MAJORITY, "bell", (12, 11, 288, "11/16")),
    (MAJORITY, "correlation", (12, 5, 256, "3/16"))])
def test_n_4_verdicts_from_the_rank(tmp_path, capsys, table, kind, figures):
    path = tmp_path / "game.json"
    path.write_text(cli.serialize_game(nlc4(table)))
    assert cli.main(["facet-test", str(path), "--polytope", kind]) == 0
    rep = json.loads(capsys.readouterr().out)["results"]
    assert (rep["saturating_count"], rep["saturating_affine_dim"], rep["ambient_dim"],
            rep["bound"]) == figures
    assert not rep["is_facet"] and "decomposition" not in rep
    if kind == "bell":
        assert game_facet_test(nlc4(table), kind)[0] == facet_test(
            to_bell_inequality(nlc4(table)), kind)


def test_verdicts_take_the_reconstruction_path(monkeypatch):
    # every rank of the Bareiss-checked verdicts (tests/test_facet_verdicts.py)
    # and of the n = 4 inner-product verdicts is certified by the kernel
    # rebuilt from the reduced echelon form mod p: neither the fraction-free
    # kernel nor Bareiss runs, so a slide back to the slow path fails here,
    # not only in the benchmark
    calls = []
    for name in ("_kernel_basis", "integer_rank"):
        slow = getattr(exactrank, name)
        monkeypatch.setattr(exactrank, name,
                            lambda *a, name=name, slow=slow: calls.append(name) or slow(*a))
    for m, cell, _ in POSITIVITY_CASES + [(7, (3, 5, 1, 0), 62)]:
        facet_test(positivity(m, cell), "bell")
    for b in HYPERMETRIC_CASES:
        cut_facet_test(CutInequality.hypermetric(b), Graph.complete(len(b)))
    for name in sorted(GAMES):
        ineq = to_bell_inequality(GAMES[name]())
        facet_test(ineq, "bell")
        facet_test(_scaled_bell(ineq, 2 ** 70 + 1), "bell")
        facet_test(to_correlator_inequality(GAMES[name]()), "correlation")
    for kind in ("bell", "correlation"):
        game_facet_test(nlc4(INNER_PRODUCT), kind)
    assert calls == []


@pytest.mark.parametrize("alice", [True, False])
def test_chunks_past_the_budget_keep_no_tie_sets(monkeypatch, alice):
    # a 0/1 functional where every other input of the enumerated side and
    # every third of the answering side weigh nothing, so many maps are
    # optimal, with tie sets of size 2. Once the rank rows at the running
    # top exceed the budget, the scan keeps no maps or tie sets, yet the
    # top, witness, box count and rank rows are those of the scan that
    # keeps every tie set
    rng = random.Random(f"past-the-budget:{alice}")
    ma, mb = (8, 9) if alice else (9, 8)
    weighs = [[(x if alice else y) % 2 and (y if alice else x) % 3 for y in range(mb)]
              for x in range(ma)]
    C = np.array([[[[rng.choice((0, 0, 0, 1)) * bool(weighs[x][y]) for b in range(2)]
                    for a in range(2)] for y in range(mb)] for x in range(ma)])
    monkeypatch.setattr(values, "_SCAN_CELLS", 1 << 6)
    kept = values._scan(C, 2 ** 30, ties=True)
    assert kept.count > kept.rows and kept.rows * 100 > 2 ** 8
    over = values._scan(C, 2 ** 8, ties=True, cols=100)
    assert over.alice == alice and over.maps is None and over.ties is None
    assert over[:5] == kept[:5]
