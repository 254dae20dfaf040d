import ast
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from bellpoly import (
    BellInequality,
    BudgetExceededError,
    DeterministicBox,
    LinearGame,
    NLCSpec,
    Scenario,
    VerificationError,
    build_nlc2,
    build_nlcd,
    correlator_inequality,
    facet_test,
    game_facet_test,
    hadamard_diagonal_check,
    nlc2_block_symmetry,
    nlc2_decompose,
    nlcd_classical_formula,
    nlcd_lambda,
    nlcd_nonfacet_check,
    to_bell_inequality,
    to_correlator_inequality,
)
from bellpoly.games import _win_coeffs, scaled_functionals
from bellpoly.tightness import LambdaProfile, _separated, _sylvester_hadamard
from bellpoly.values import classical_value
from tests.behaviour_reference import enumerate_deterministic_boxes, evaluate_box
from tests.classical_reference import by_all_pairs
from tests.games_reference import subgame_restrict

F = Fraction


# ---------------------------------------------------------------- facet tests

def test_facet_test_checks_the_budget_before_validity():
    # CHSH <= -2 is invalid, yet the over-budget test raises
    # BudgetExceededError (CLI exit 3, not 2)
    ineq = correlator_inequality(Scenario(2, 2, 2, 2), ((1, 1), (1, -1)), -2)
    with pytest.raises(BudgetExceededError):
        facet_test(ineq, "correlation", budget=3)


def test_chsh_is_facet_in_bell_polytope(chsh_game):
    rep = facet_test(to_bell_inequality(chsh_game), "bell")
    assert rep.polytope_kind == "bell"
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim) \
        == (8, 8, 7)
    assert rep.is_facet


def test_chsh_is_facet_in_correlation_polytope(chsh_game):
    rep = facet_test(to_correlator_inequality(chsh_game), "correlation")
    assert rep.polytope_kind == "correlation"
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim) \
        == (4, 8, 3)
    assert rep.is_facet


def test_nlc2_and_not_facet_bell(nlc2_and):
    rep = facet_test(to_bell_inequality(nlc2_and), "bell")
    assert rep.ambient_dim == 24
    assert rep.saturating_count == 8
    assert rep.saturating_affine_dim == 7
    assert not rep.is_facet


def test_nlc2_and_not_facet_correlation(nlc2_and):
    rep = facet_test(to_correlator_inequality(nlc2_and), "correlation")
    assert rep.ambient_dim == 16
    assert rep.saturating_affine_dim == 3
    assert not rep.is_facet


def test_positivity_flagged_trivial():
    s = Scenario(2, 2, 2, 2)
    coeffs = tuple(
        tuple(tuple(tuple(F(-1) if (x, y, a, b) == (0, 0, 0, 0) else F(0)
                          for b in range(2)) for a in range(2))
              for y in range(2)) for x in range(2))
    rep = facet_test(BellInequality(s, coeffs, F(0)), "bell")
    assert rep.trivial_facet_class
    assert rep.is_facet  # positivity supports a facet of the local polytope


def test_facet_test_rejects_invalid_inequality():
    # local boxes reach +2 on CHSH, so CHSH <= -2 is not valid
    s = Scenario(2, 2, 2, 2)
    ineq = correlator_inequality(s, ((1, 1), (1, -1)), -2)
    with pytest.raises(ValueError, match=r"violated by the deterministic box with a_map "
                                         r"\(0, 0\) and b_map \(0, 0\)"):
        facet_test(ineq, "correlation")
    bell = BellInequality(s, ineq.coeffs, ineq.bound)
    with pytest.raises(ValueError, match="violated"):
        facet_test(bell, "bell")
    assert facet_test(correlator_inequality(s, ((1, 1), (1, -1)), 2), "correlation").is_facet


@pytest.mark.parametrize("seed", range(8))
def test_violating_box_is_a_maximum(seed):
    # the box named in facet_test's error is the lexicographically first box
    # of largest value
    rng = random.Random(seed)
    s = Scenario(rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 3), rng.randint(2, 3))
    coeffs = tuple(tuple(tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(s.db)) for _ in range(s.da))
                         for _ in range(s.mb)) for _ in range(s.ma))
    probe = BellInequality(s, coeffs, F(0))
    boxes = enumerate_deterministic_boxes(s)
    top = max(evaluate_box(probe, b) for b in boxes)
    first = next(b for b in boxes if evaluate_box(probe, b) == top)
    facet_test(BellInequality(s, coeffs, top), "bell")
    with pytest.raises(ValueError, match="violated") as err:
        facet_test(BellInequality(s, coeffs, top - F(1, 7)), "bell")
    named = re.search(r"a_map (\(.*?\)) and b_map (\(.*?\))$", str(err.value))
    assert tuple(map(ast.literal_eval, named.groups())) == (first.a_map, first.b_map)


def test_facet_test_accepts_bound_above_maximum():
    s = Scenario(2, 2, 2, 2)
    rep = facet_test(correlator_inequality(s, ((1, 1), (1, -1)), 3), "correlation")
    assert (rep.saturating_count, rep.saturating_affine_dim, rep.is_facet) == (0, -1, False)


def test_correlation_facet_requires_correlator_space(chsh_game):
    with pytest.raises(ValueError):
        facet_test(to_bell_inequality(chsh_game), "correlation")
    with pytest.raises(ValueError):
        facet_test(to_bell_inequality(chsh_game), "banana")


# ------------------------------------------------------------- nlc2 decompose

def test_nlc2_and_decomposition(nlc2_and):
    rep = nlc2_decompose(nlc2_and)
    assert not rep.is_facet
    assert rep.decomposition is not None
    assert [fr.bound for fr in rep.decomposition] == [F(3, 8), F(3, 8)]
    assert rep.saturating_count == 8
    assert rep.saturating_affine_dim == 7
    assert rep.ambient_dim == 24


def test_nlc2_decompose_fragment_coefficients_sum(nlc2_and):
    rep = nlc2_decompose(nlc2_and)
    whole = to_bell_inequality(nlc2_and)
    for x in range(4):
        for y in range(4):
            for a in range(2):
                for b in range(2):
                    total = sum(fr.coeffs[x][y][a][b] for fr in rep.decomposition)
                    assert total == whole.coeffs[x][y][a][b]


def test_nlc2_decompose_without_stats(nlc2_and):
    # the game's one scan gives its value, so its 2^4 maps must fit the
    # budget; at 2^4 they do, and the rank cells (24 columns a row) do not:
    # the statistics are skipped
    with pytest.raises(BudgetExceededError):
        nlc2_decompose(nlc2_and, budget=2 ** 4 - 1)
    rep = nlc2_decompose(nlc2_and, budget=2 ** 4)
    assert not rep.is_facet
    assert rep.saturating_count == -1
    assert [fr.bound for fr in rep.decomposition] == [F(3, 8), F(3, 8)]
    assert any("skipped" in n for n in rep.notes)


def nlc3_and():
    return build_nlc2(NLCSpec(2, 3, (0,) * 7 + (1,), (F(1, 8),) * 8))


@pytest.mark.parametrize("g, decompose, restrictions", [
    (nlc3_and(), nlc2_decompose, [{0: 0}, {0: 1}]),
    (build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3)), nlcd_nonfacet_check,
     [{0: 0}, {0: 1}, {0: 2}])])
def test_fragment_inequalities_are_the_restricted_games(g, decompose, restrictions):
    # a fragment is the game's functional on the Alice rows its restriction
    # keeps: the inequality of the masked game, bounded by its classical value
    rep = decompose(g)
    assert len(rep.decomposition) == len(restrictions)
    for fr, fixes in zip(rep.decomposition, restrictions):
        sub = subgame_restrict(g, fix_a=fixes)
        assert fr == BellInequality(g.scenario, _win_coeffs(sub), classical_value(sub).value)


def test_nlc2_decompose_does_not_apply_to_a_half_of_no_weight():
    # Alice's first-bit half 0 carries no weight, so its fragment's face holds
    # every box: the argument does not apply, and that is no soundness alarm
    q = ((0, 0, 0, 0), (0, 0, 0, 0), (4, 0, 0, 4), (5, 0, 0, 1))
    rng = random.Random(2016)
    tables = [((0,) * 4,) * 4] + [tuple(tuple(rng.randrange(2) for _ in range(4))
                                        for _ in range(4)) for _ in range(63)]
    for f in tables:
        with pytest.raises(ValueError, match="does not apply"):
            nlc2_decompose(LinearGame(2, 4, 4, q, f, n=2))


def test_nlc2_fragment_bounds_match_the_all_pairs_reference():
    # seeded binary 4x4 games on n = 2 bits, a third with an all-zero row and
    # a third with an all-zero column, so the fragment scans drop inputs:
    # each fragment bound is the restricted game's value by brute force, or
    # the argument does not apply; never a soundness alarm
    rng = random.Random(1607)
    outcomes = set()
    for k in range(400):
        q = [[F(rng.randint(0, 3)) for _ in range(4)] for _ in range(4)]
        if k % 3 == 1:
            q[rng.randrange(4)] = [F(0)] * 4
        elif k % 3 == 2:
            y = rng.randrange(4)
            for row in q:
                row[y] = F(0)
        f = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        g = LinearGame(2, 4, 4, q, f, n=2)
        try:
            rep = nlc2_decompose(g)
        except ValueError as e:
            assert "does not apply" in str(e)
            outcomes.add("does not apply")
            continue
        assert [fr.bound for fr in rep.decomposition] == \
            [by_all_pairs(subgame_restrict(g, {0: bit}))[0] for bit in (0, 1)]
        outcomes.add("report")
    assert outcomes == {"report", "does not apply"}


def test_nlc2_decompose_rejects_non_nlc(chsh_game):
    with pytest.raises(ValueError):
        nlc2_decompose(chsh_game)


def test_nlc2_xor_decompose(nlc2_xor):
    # perfectly winnable games still decompose; every box on the face
    # of a fragment stays within its bound
    rep = nlc2_decompose(nlc2_xor)
    assert not rep.is_facet
    assert sum(fr.bound for fr in rep.decomposition) == classical_value(nlc2_xor).value


# ---------------------------------------------------------- hadamard structure

def test_nlc2_hadamard_diagonal(nlc2_and, nlc2_xor):
    for g in (nlc2_and, nlc2_xor):
        for j in range(2):
            for k in range(2):
                assert hadamard_diagonal_check(g, j, k)


def test_sylvester_hadamard_closed_form():
    for m in (1, 2, 4, 8, 16, 32, 64):
        H = _sylvester_hadamard(m)
        closed = np.array([[(-1) ** bin(i & j).count("1") for j in range(m)]
                           for i in range(m)])
        assert H.shape == (m, m)
        assert np.array_equal(H, closed)
        assert np.array_equal(H @ H.T, m * np.eye(m, dtype=H.dtype))


def test_nlc2_block_symmetry(nlc2_and, nlc2_xor):
    assert nlc2_block_symmetry(nlc2_and)
    assert nlc2_block_symmetry(nlc2_xor)


def test_generic_game_fails_hadamard_structure():
    q = tuple(tuple(F(1, 16) for _ in range(4)) for _ in range(4))
    f = tuple(tuple(1 if (x + y) % 3 == 0 else 0 for y in range(4))
              for x in range(4))
    g = LinearGame(2, 4, 4, q, f, n=2)
    results = [hadamard_diagonal_check(g, j, k)
               for j in range(2) for k in range(2)]
    assert not all(results)
    assert not nlc2_block_symmetry(g)


def test_hadamard_check_validates_inputs(nlc2_and, chsh_game):
    with pytest.raises(ValueError):
        hadamard_diagonal_check(nlc2_and, 2, 0)
    with pytest.raises(ValueError):
        hadamard_diagonal_check(chsh_game, 0, 0)  # n = 1 has no blocks


# ------------------------------------------------------------- lambda profiles

def test_lambda_profiles(lambda_games):
    for g, lam, wc in lambda_games:
        prof = nlcd_lambda(g)
        assert prof.big_lambda == lam
        assert nlcd_classical_formula(g) == wc


def test_lambda_profile_mass_interpretation():
    g = build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3))
    prof = nlcd_lambda(g)
    # per-dit table (0, 0, 1) under the uniform distribution puts mass
    # 2/3 on output 0 and 1/3 on output 1
    assert prof.lambdas == (F(2, 3), F(1, 3), F(0))
    assert sum(prof.lambdas) == 1


def test_lambda_profile_validation():
    with pytest.raises(VerificationError):
        LambdaProfile((F(1, 2), F(1, 4)))  # does not sum to 1


def test_formula_equals_brute_force(lambda_games):
    for g, _, wc in lambda_games:
        assert classical_value(g).value == wc == nlcd_classical_formula(g)


# ------------------------------------------------------------ nlcd non-facet

def test_nlcd_nonfacet_check_high_lambda(lambda_games):
    for g, lam, wc in lambda_games:
        if lam < F(1, 2):
            with pytest.raises(ValueError):
                nlcd_nonfacet_check(g)
            continue
        rep = nlcd_nonfacet_check(g)
        assert not rep.is_facet
        assert rep.decomposition is not None
        assert len(rep.decomposition) == 3  # one fragment per leading trit
        for fr in rep.decomposition:
            assert fr.bound == wc / 3


def test_nlcd_nonfacet_fragment_value():
    g = build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3))
    rep = nlcd_nonfacet_check(g)
    assert [fr.bound for fr in rep.decomposition] == [F(7, 27)] * 3


def test_nlcd_nonfacet_rejects_plain_linear(nlc3_game):
    with pytest.raises(ValueError):
        nlcd_nonfacet_check(nlc3_game)


def uniform_product(d, n, table):
    return build_nlcd(NLCSpec(d, n, table, (F(1, len(table)),) * len(table)))


@pytest.mark.parametrize("d, n, table, value", [
    (5, 2, (0, 0, 0, 1, 2), F(17, 25)),
    (3, 3, (0, 0, 0, 1, 0, 0, 0, 0, 2), F(23, 27))])
def test_nlcd_nonfacet_enumerates_every_fragment(d, n, table, value, monkeypatch):
    rep = nlcd_nonfacet_check(uniform_product(d, n, table))
    assert not rep.is_facet
    assert [fr.bound for fr in rep.decomposition] == [value / d ** (n - 1)] * d ** (n - 1)
    assert rep.notes == ("non-facet via decomposition into distinct supporting faces",
                         "saturating statistics skipped (box budget)")
    # the fragment values are enumerated, so a wrong one trips the cross-check
    g = uniform_product(d, n, table)
    lie_in_fragment_scans(monkeypatch, g)
    with pytest.raises(VerificationError, match="fragment x1=0"):
        nlcd_nonfacet_check(g)


def test_nlcd_nonfacet_fragment_maps_over_the_strategy_budget():
    # d = 11: each fragment has 11^11 Alice maps, past the 2^24 budget
    with pytest.raises(BudgetExceededError):
        nlcd_nonfacet_check(uniform_product(11, 2, (0,) * 6 + (1,) * 5))


def test_nlcd_nonfacet_statistics_within_the_box_budget():
    g = uniform_product(2, 2, (0, 1))  # 2^4 maps a side
    rep = nlcd_nonfacet_check(g)
    stats = facet_test(to_bell_inequality(g), "bell")
    assert rep.notes == ("non-facet via decomposition into distinct supporting faces",)
    assert (rep.saturating_count, rep.saturating_affine_dim, rep.is_facet) == \
        (stats.saturating_count, stats.saturating_affine_dim, False)
    skipped = nlcd_nonfacet_check(g, budget=2 ** 4 - 1)
    assert skipped.saturating_count == -1 and "skipped" in skipped.notes[-1]


def test_restricted_product_game_gets_the_rank_verdict():
    # the restriction's weights are no longer the product form's, so the
    # game must not read as one: the rank decides, with no soundness alarm
    g = build_nlcd(NLCSpec(3, 2, (1, 2, 1), (F(1, 2), F(1, 4), F(1, 4))))
    h = subgame_restrict(g, {0: 0})
    assert h.nlc is None
    rep, bound = game_facet_test(h, "bell")
    assert (rep.is_facet, rep.saturating_count, rep.saturating_affine_dim, bound) == \
        (False, 59049, 128, F(5, 18))
    assert rep.decomposition is None
    with pytest.raises(ValueError, match="product-form construction"):
        nlcd_nonfacet_check(h)


# ---------------------------------------------------------- fragment separation

def exhaustive_separation(frag_j, box):
    """Reference for `_separated`: the search it replaced, without a cap.
    Every assignment of Alice's outputs on the inputs fragment j weighs, the
    box's outputs elsewhere; True when one of these boxes leaves j's face."""
    s = box.scenario
    rows = [x for x, block in enumerate(frag_j.coeffs)
            if any(v != 0 for row in block for cell in row for v in cell)]
    for trial in itertools.product(range(s.da), repeat=len(rows)):
        a_map = list(box.a_map)
        for x, v in zip(rows, trial):
            a_map[x] = v
        if evaluate_box(frag_j, DeterministicBox(s, tuple(a_map), box.b_map)) != frag_j.bound:
            return True
    return False


def seeded_fragments(rng):
    """A seeded dit-structured game, with zero weights and sometimes one
    first dit weightless, split along Alice's first dit (d^|rows| <= 256)."""
    d, n = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2)])
    m, dead = d ** n, rng.randrange(d + 1)
    q = [[F(0) if x // d ** (n - 1) == dead or rng.random() < 0.2 else F(rng.randint(1, 5))
          for _ in range(m)] for x in range(m)]
    f = [[rng.randrange(d) for _ in range(m)] for _ in range(m)]
    g = LinearGame(d, m, m, q, f, n=n)
    return [subgame_restrict(g, fix_a={0: v}) for v in range(d)]


def test_row_separation_matches_exhaustive_search():
    rng = random.Random(2016)
    outcomes = []
    for _ in range(16):
        frags = seeded_fragments(rng)
        values = [classical_value(fr) for fr in frags]
        C, dens = zip(*map(scaled_functionals, frags))
        targets = [int(cv.value * den) for cv, den in zip(values, dens)]
        ineqs = [BellInequality(fr.scenario, _win_coeffs(fr), cv.value)
                 for fr, cv in zip(frags, values)]
        s = frags[0].scenario
        witnesses = [DeterministicBox(s, cv.a_map, cv.b_map) for cv in values]
        for i, j in itertools.permutations(range(len(frags)), 2):
            drawn = DeterministicBox(s, tuple(rng.randrange(s.da) for _ in range(s.ma)),
                                     tuple(rng.randrange(s.db) for _ in range(s.mb)))
            # fragment i's witness, a box on fragment j's face, and a drawn box
            for box in (witnesses[i], witnesses[j], drawn):
                found = _separated(C[i], C[j], targets[j],
                                   (np.array(box.a_map), np.array(box.b_map)))
                assert found == exhaustive_separation(ineqs[j], box)
                outcomes.append(found)
    assert set(outcomes) == {True, False}


# --------------------------------------------------------------- verification

def lie_in_fragment_scans(monkeypatch, g):
    """Make every scan of a fragment of g (fewer Alice inputs than g) report
    a top one unit above its true value."""
    import bellpoly.values as V
    real = V._scan

    def lying(C, *a, **k):
        scan = real(C, *a, **k)
        return scan._replace(top=scan.top + 1) if len(C) < g.ma else scan

    monkeypatch.setattr(V, "_scan", lying)


def test_decompose_raises_if_fragment_doctored(nlc2_and, monkeypatch):
    # force the fragment classical values to disagree with the halved
    # game value and confirm the cross-check trips
    lie_in_fragment_scans(monkeypatch, nlc2_and)
    with pytest.raises(VerificationError):
        nlc2_decompose(nlc2_and)
