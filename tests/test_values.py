import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import (
    BudgetExceededError,
    LinearGame,
    UniqueGame3,
    VerificationError,
    fourier_blocks,
    values,
)
from bellpoly.values import (
    ClassicalValue,
    classical_value,
    gen_norm_detailed,
    norm_bound,
    norm_bound_linear,
    ns_value,
    spectral_norm,
    strategy_value,
    sufficient_no_advantage,
    value_report,
    verify_value_report,
)
from tests.classical_reference import by_alice_maps
from tests.conftest import (make_unique3_frustrated, make_unique3_mixed, make_unique3_rotation,
                            rotation_game_to_linear)
from tests.gen_norm_reference import ascent

F = Fraction


# ----------------------------------------------------------- classical values

def test_chsh_classical_value(chsh_game):
    cv = classical_value(chsh_game)
    assert cv.value == F(3, 4)
    assert strategy_value(chsh_game, cv.a_map, cv.b_map) == F(3, 4)


def test_nlc3_classical_value(nlc3_game):
    cv = classical_value(nlc3_game)
    assert cv.value == F(2, 3)
    assert strategy_value(nlc3_game, cv.a_map, cv.b_map) == F(2, 3)


def test_phi_ex_classical_value_and_witness(phi_ex_game):
    cv = classical_value(phi_ex_game)
    assert cv.value == F(13, 14)
    assert (cv.a_map, cv.b_map) == ((0, 2, 3, 1), (0, 2, 1, 3))


def test_phi_ex_published_strategy_attains_optimum(phi_ex_game):
    assert strategy_value(phi_ex_game, (1, 3, 0, 2), (3, 1, 0, 2)) == F(13, 14)


def test_nlc2_and_classical_value(nlc2_and):
    assert classical_value(nlc2_and).value == F(3, 4)


def test_nlc2_xor_is_winnable(nlc2_xor):
    # xor of the two shared bits is linear, so a perfect strategy exists
    assert classical_value(nlc2_xor).value == F(1)


def test_witness_is_lexicographically_first(chsh_game):
    cv = classical_value(chsh_game)
    assert (cv.a_map, cv.b_map) == ((0, 0), (0, 0))


def test_classical_value_budget(phi_ex_game):
    with pytest.raises(BudgetExceededError):
        classical_value(phi_ex_game, budget=9)


def test_classical_value_worker_invariance(nlc3_game):
    solo = classical_value(nlc3_game, workers=1)
    multi = classical_value(nlc3_game, workers=3)
    assert (solo.value, solo.a_map, solo.b_map) == \
        (multi.value, multi.a_map, multi.b_map)


def test_strategy_value_matches_direct_sum(chsh_game):
    g = chsh_game
    a_map, b_map = (0, 1), (1, 0)
    direct = sum(g.q[x][y]
                 for x in range(2) for y in range(2)
                 if g.win(a_map[x], b_map[y], x, y))
    assert strategy_value(g, a_map, b_map) == direct


# --------------------------------------------------------------- norm bounds

def test_spectral_norm_known_matrix():
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert abs(spectral_norm(h) - math.sqrt(2)) < 1e-12


def test_chsh_norm_bound_is_tsirelson(chsh_game):
    # (2 + sqrt(2)) / 4
    assert abs(norm_bound_linear(chsh_game) - (2 + math.sqrt(2)) / 4) < 1e-12


def test_nlc3_norm_bound_value(nlc3_game):
    want = (1 + 2 * math.sqrt(3) / 3) / 3
    got = norm_bound_linear(nlc3_game)
    assert abs(got - want) < 1e-12
    assert got > 2 / 3  # strictly above the classical value: bound not tight


def test_phi_ex_norm_bound_tight(phi_ex_game):
    got = norm_bound_linear(phi_ex_game)
    assert abs(got - 13 / 14) < 1e-9


def test_phi_ex_block_norms(phi_ex_game):
    norms = [spectral_norm(*fourier_blocks(phi_ex_game, k)) for k in (1, 2, 3)]
    for got, want in zip(norms, (3 / 14, 1 / 4, 3 / 14)):
        assert abs(got - want) < 1e-12


def test_nlc2_and_bound(nlc2_and):
    assert abs(norm_bound_linear(nlc2_and) - 0.75) < 1e-12
    assert abs(spectral_norm(*fourier_blocks(nlc2_and, 1)) - 1 / 8) < 1e-12


def test_bound_clamped_at_total_weight(nlc2_xor):
    # xor game: perfect classical strategy, bound must not exceed the weight
    assert norm_bound_linear(nlc2_xor) <= float(nlc2_xor.total_weight) + 1e-15


# ------------------------------------------------------------------- gen_norm

def test_gen_norm_zero_block_reduces_to_spectral():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    z = np.zeros((2, 2))
    assert abs(gen_norm_detailed(a, z)[1] - spectral_norm(a)) < 1e-9
    assert gen_norm_detailed(a, z) == gen_norm_detailed(z, a) == (spectral_norm(a),) * 2


def test_gen_norm_disjoint_row_supports():
    # a acts on rows {0}, b on rows {1}: sup ||a x1 + b x2||^2 = na^2 + nb^2
    a = np.array([[3.0, 4.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 2.0]])
    na, nb = spectral_norm(a), spectral_norm(b)
    assert abs(gen_norm_detailed(a, b)[1] - math.sqrt(na ** 2 + nb ** 2)) < 1e-9
    lo, hi = gen_norm_detailed(a, b)
    assert lo <= math.sqrt(na ** 2 + nb ** 2) + 1e-12 and hi - lo <= 1e-9


def test_gen_norm_of_a_block_with_itself_is_twice_its_norm():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    lo, hi = gen_norm_detailed(a, a)
    assert lo <= 2 * spectral_norm(a) + 1e-12 and abs(hi - 2 * spectral_norm(a)) < 1e-12
    assert hi - lo <= 1e-9


def test_gen_norm_sandwich_and_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lo, v = gen_norm_detailed(a, b)
        assert lo <= v and v - lo <= 1e-9
        assert max(spectral_norm(a), spectral_norm(b)) - 1e-12 <= v
        assert v <= spectral_norm(a) + spectral_norm(b) + 1e-12
        assert abs(v - gen_norm_detailed(b, a)[1]) < 1e-7


def test_gen_norm_of_huge_and_subnormal_blocks():
    # the blocks are scaled by the larger norm: no overflow in a a^dag for
    # huge entries, and no overflow dividing by a subnormal norm
    assert gen_norm_detailed(1e300 * np.eye(2), 1e300 * np.eye(2)) == (2e300, 2e300)
    assert gen_norm_detailed(np.array([[1e-320]]), np.array([[1e-320j]])) == (2e-320, 2e-320)


def test_gen_norm_shape_mismatch():
    with pytest.raises(ValueError):
        gen_norm_detailed(np.ones((2, 2)), np.ones((3, 2)))


PERM_NAMES = ("e", "(012)", "(021)", "(01)", "(02)", "(12)")


def seeded_unique3(seed, ma, mb):
    """A 3-output unique game with seeded weights and permutations."""
    rng = random.Random(seed)
    q = tuple(tuple(F(rng.randint(0, 9), 9 * ma * mb) for _ in range(mb)) for _ in range(ma))
    perms = tuple(tuple(rng.choice(PERM_NAMES) for _ in range(mb)) for _ in range(ma))
    return UniqueGame3(ma, mb, q, perms)


def coset_pairs(games):
    return [fourier_blocks(g, k) for g in games for k in (1, 2)]


def bound_of(g):
    """The norm bound of g from its Fourier blocks."""
    return norm_bound(g, [fourier_blocks(g, k) for k in range(1, g.d)])


def test_gen_norm_interval_against_the_reference_ascent():
    # 250 seeded games of 2 to 6 inputs a side, uniform weights on every third
    # one, and the test corpus's unique games: 506 coset pairs in all
    games = [make_unique3_rotation(), make_unique3_mixed(), make_unique3_frustrated()]
    for seed in range(250):
        g = seeded_unique3(seed, 2 + seed % 5, 2 + seed // 5 % 5)
        games.append(g if seed % 3 else UniqueGame3(
            g.ma, g.mb, ((F(1, g.ma * g.mb),) * g.mb,) * g.ma, g.perms))
    pairs = coset_pairs(games)
    assert len(pairs) >= 500
    for a, b in pairs:
        lo, hi = gen_norm_detailed(a, b)
        assert lo <= hi and hi - lo <= 1e-9
        assert hi >= ascent(a, b)[0] - 1e-12
        assert max(spectral_norm(a), spectral_norm(b)) <= hi <= spectral_norm(a) + spectral_norm(b)


def test_gen_norm_certifies_where_the_ascent_label_did_not():
    # the old label certified a joint norm only when the ascent reached
    # ||a|| + ||b||, which this game's k = 1 pair falls short of
    g = seeded_unique3(3, 3, 3)
    a, b = coset_pairs([g])[0]
    reached, converged = ascent(a, b)
    assert converged and spectral_norm(a) + spectral_norm(b) - reached > 1e-9
    rep = bound_of(g)
    assert rep.certified
    assert rep.norms[0][1] >= reached - 1e-12


# ------------------------------------------------------------- unique3 bounds

def test_unique3_bound_sound(unique3_rotation, unique3_mixed):
    for g in (unique3_rotation, unique3_mixed):
        rep = bound_of(g)
        assert rep.certified
        assert all(hi - lo <= 1e-9 for lo, hi in rep.norms)
        assert float(classical_value(g).value) <= rep.value + 1e-9
        assert rep.value <= float(g.total_weight) + 1e-9
        assert len(rep.norms) == 2
        assert norm_bound_linear(g) == rep.value


def test_unique3_frustrated_bound_between_values():
    g = make_unique3_frustrated()
    rep = bound_of(g)
    assert classical_value(g).value == F(3, 4)
    assert 0.75 <= rep.value < 1.0


def test_rotation_game_bound_matches_linear_route():
    # rotation-only games have an exactly equivalent linear form; the
    # norm bound must agree along both routes
    g = make_unique3_frustrated()
    lin = rotation_game_to_linear(g)
    assert abs(bound_of(g).value - norm_bound_linear(lin)) < 1e-9


# --------------------------------------------------------------- sufficiency

def test_phi_ex_no_advantage_holds(phi_ex_game):
    verdict = sufficient_no_advantage(phi_ex_game)
    assert verdict.holds
    assert verdict.strategy == ((0, 2, 3, 1), (0, 2, 1, 3))


def test_nlc3_no_advantage_inconclusive(nlc3_game):
    verdict = sufficient_no_advantage(nlc3_game)
    assert not verdict.holds
    assert verdict.strategy is None
    assert "degenerate" in verdict.reason


def test_unique3_no_advantage_inconclusive(unique3_mixed):
    verdict = sufficient_no_advantage(unique3_mixed)
    assert not verdict.holds and verdict.reason == "condition applies to linear games"
    assert value_report(unique3_mixed, with_sufficient=True).no_advantage == verdict


@pytest.mark.parametrize("game, reason", [
    ((3, 1, 1, [[0]], [[2]]), "zero game matrix"),
    ((6, 1, 3, [[1, 1, 2]], [[5, 4, 2]]), "right vector entries not d-th roots of unity"),
    ((6, 3, 2, [[2, 1], [0, 2], [1, 1]], [[3, 4], [5, 5], [5, 5]]),
     "left vector entries not d-th roots of unity"),
    ((6, 3, 3, [[1, 1, 0], [1, 1, 1], [1, 1, 1]], [[4, 2, 0], [2, 2, 0], [1, 3, 3]]),
     "phase substitution fails at k = 2")])
def test_no_advantage_reasons(game, reason):
    g = LinearGame(*game)
    verdict = sufficient_no_advantage(g)
    assert (verdict.holds, verdict.strategy, verdict.reason) == (False, None, reason)
    assert value_report(g, with_sufficient=True).no_advantage == verdict


# -------------------------------------------------------------- value reports

def test_value_report_fields(phi_ex_game):
    rep = value_report(phi_ex_game, with_sufficient=True)
    assert rep.classical == F(13, 14)
    assert rep.no_signaling == F(1)
    assert abs(rep.quantum_upper_bound - 13 / 14) < 1e-9
    assert rep.bound_error >= 0
    assert rep.no_advantage.holds


def test_ns_value_equals_total_weight(corpus):
    for g in corpus:
        assert ns_value(g) == g.total_weight


def test_value_report_sums_the_total_weight_once(monkeypatch, corpus):
    # g's weights are scaled twice: once for the scan's functional
    # (`scaled_functionals`) and once for the total weight, which the
    # no-signaling value and the norm bound's clamp both read
    from bellpoly import games
    for g in corpus:
        sums = []
        real = games.int_scaled
        monkeypatch.setattr(games, "int_scaled",
                            lambda x, *a, **k: sums.append(x is g.q) or real(x, *a, **k))
        rep = value_report(g)
        monkeypatch.undo()
        assert sum(sums) == 2 and rep.no_signaling == ns_value(g)


def test_soundness_chain_over_corpus(corpus):
    for g in corpus:
        rep = value_report(g)
        verify_value_report(rep)  # must not raise
        assert float(rep.classical) <= rep.quantum_upper_bound + 1e-9
        assert rep.quantum_upper_bound <= float(rep.no_signaling) + 1e-9


def test_verify_value_report_rejects_doctored_bound(nlc3_game):
    rep = value_report(nlc3_game)
    bad = dataclasses.replace(rep, norm_bound=dataclasses.replace(rep.norm_bound, value=0.5))
    assert bad.quantum_upper_bound == 0.5
    with pytest.raises(VerificationError):
        verify_value_report(bad)
    bad2 = dataclasses.replace(rep, norm_bound=dataclasses.replace(rep.norm_bound, value=1.5))
    with pytest.raises(VerificationError):
        verify_value_report(bad2)


# ------------------------------------------------------------------ properties

@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_strategy_value_never_exceeds_classical(a_bits, b_bits):
    from tests.conftest import make_nlc3_game
    g = make_nlc3_game()
    val = strategy_value(g, tuple(a_bits), tuple(b_bits))
    assert val <= classical_value(g).value


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 255))
def test_random_nlc2_bound_soundness(table_bits):
    from bellpoly import NLCSpec, build_nlc2
    bits = tuple((table_bits >> i) & 1 for i in range(4))
    g = build_nlc2(NLCSpec(2, 2, bits, (F(1, 4),) * 4))
    cv = classical_value(g)
    assert float(cv.value) <= norm_bound_linear(g) + 1e-9


# ------------------------------------------------- wide outputs, single passes

@pytest.mark.parametrize("d,f", [(131, ((0, 1), (2, 3))), (257, ((0, 200, 129, 256),))])
def test_classical_value_beyond_int8_outputs(d, f):
    # output labels of 128 and more overflow an int8 table
    ma, mb = len(f), len(f[0])
    g = LinearGame(d, ma, mb, ((F(1, ma * mb),) * mb,) * ma, f)
    value, a_map, b_map = by_alice_maps(g)
    assert classical_value(g, workers=1) == ClassicalValue(value, a_map, b_map)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_value_report_computes_each_quantity_once(monkeypatch, phi_ex_game):
    classical = _counting(monkeypatch, values, "classical_value")
    norms = _counting(monkeypatch, values, "spectral_norm")
    rep = value_report(phi_ex_game, with_sufficient=True, workers=1)
    assert rep.no_advantage.holds  # the check reached its classical-value step
    assert len(classical) == 1
    assert len(norms) == phi_ex_game.d - 1


def test_value_report_budget_covers_the_sufficient_check(phi_ex_game):
    with pytest.raises(BudgetExceededError):
        value_report(phi_ex_game, with_sufficient=True, budget=4 ** 4 - 1)
    assert value_report(phi_ex_game, with_sufficient=True, budget=4 ** 4).no_advantage.holds


def test_value_report_carries_the_unique3_bound():
    g = make_unique3_rotation()
    rep = value_report(g)
    assert rep.norm_bound == bound_of(g) and len(rep.norm_bound.norms) == 2
    assert (rep.quantum_upper_bound, rep.bound_error) == (rep.norm_bound.value,
                                                          rep.norm_bound.error)
    lin = value_report(rotation_game_to_linear(g)).norm_bound
    assert lin == bound_of(rotation_game_to_linear(g))
    assert all(lo == hi for lo, hi in lin.norms)
