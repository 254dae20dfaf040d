import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import (
    PERMS,
    BudgetExceededError,
    LinearGame,
    NLCSpec,
    UniqueGame3,
    VerificationError,
    build_nlc2,
    build_nlcd,
    fourier_blocks,
    values,
)
from bellpoly.games import scaled_functionals
from bellpoly.records import replace
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
from tests.conftest import (make_chsh_game, make_nlc2_and, make_nlc3_game, make_phi_ex_game,
                            make_unique3_frustrated, make_unique3_mixed, make_unique3_rotation,
                            rotation_game_to_linear)
from tests.games_reference import winning_answer
from tests.gen_norm_reference import ascent
from tests.no_advantage_reference import extract

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


def _fraction_sum(g, a_map, b_map):
    return sum((g.q[x][y] for x in range(g.ma) for y in range(g.mb)
                if b_map[y] == winning_answer(g, a_map[x], x, y)), F(0))


def test_strategy_value_matches_direct_sum(chsh_game):
    g = chsh_game
    a_map, b_map = (0, 1), (1, 0)
    assert strategy_value(g, a_map, b_map) == _fraction_sum(g, a_map, b_map)


def test_strategy_value_equals_the_fraction_sum_on_seeded_strategies():
    rng = random.Random(19)
    games = []
    for d in (2, 3, 5):
        for scale in (1, 2 ** 60):
            ma, mb = rng.randint(1, 5), rng.randint(1, 5)
            q = [[F(rng.randint(0, 9) * scale, rng.choice((1, 2, 3, 7, 12))) for _ in range(mb)]
                 for _ in range(ma)]
            q[0][0] = F(4 * scale)
            f = [[rng.randrange(d) for _ in range(mb)] for _ in range(ma)]
            games.append(LinearGame(d, ma, mb, q, f))
        names = sorted(PERMS)
        games.append(UniqueGame3(ma, mb, q, [[rng.choice(names) for _ in range(mb)]
                                             for _ in range(ma)]))
    # the functional takes Python ints once its weights could sum to 2^62
    assert {scaled_functionals(g)[0].dtype for g in games} == {np.dtype(np.int64),
                                                                np.dtype(object)}
    for g in games:
        for _ in range(30):
            a_map = tuple(rng.randrange(g.d) for _ in range(g.ma))
            b_map = tuple(rng.randrange(g.d) for _ in range(g.mb))
            assert strategy_value(g, a_map, b_map) == _fraction_sum(g, a_map, b_map)
    # a strategy that wins no cell
    g = LinearGame(2, 2, 2, [[F(1, 3), 2 ** 61], [5, F(1, 7)]], [[0, 0], [0, 0]])
    assert strategy_value(g, (0, 0), (1, 1)) == _fraction_sum(g, (0, 0), (1, 1)) == 0


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
    norms = [spectral_norm(*blocks) for blocks in fourier_blocks(phi_ex_game)]
    for got, want in zip(norms, (3 / 14, 1 / 4, 3 / 14)):
        assert abs(got - want) < 1e-12


def test_nlc2_and_bound(nlc2_and):
    assert abs(norm_bound_linear(nlc2_and) - 0.75) < 1e-12
    assert abs(spectral_norm(*fourier_blocks(nlc2_and)[0]) - 1 / 8) < 1e-12


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
    return [blocks for g in games for blocks in fourier_blocks(g)]


def bound_of(g):
    """The norm bound of g from its Fourier blocks."""
    return norm_bound(g, fourier_blocks(g))


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


def ascent_corpus():
    """The unique games of `test_gen_norm_interval_against_the_reference_ascent`."""
    games = [make_unique3_rotation(), make_unique3_mixed(), make_unique3_frustrated()]
    for seed in range(250):
        g = seeded_unique3(seed, 2 + seed % 5, 2 + seed // 5 % 5)
        games.append(g if seed % 3 else UniqueGame3(
            g.ma, g.mb, ((F(1, g.ma * g.mb),) * g.mb,) * g.ma, g.perms))
    return games


# eigh calls of a bisection on t = log s, with the same bracket and stop
# test, over the coset pairs of `ascent_corpus`
BISECTION_EIGH_CALLS = 11389


def test_gen_norm_search_takes_at_most_half_the_bisections_eigh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(0) or real(*a, **k))
    pairs = coset_pairs(ascent_corpus())
    intervals = [gen_norm_detailed(a, b) for a, b in pairs]
    assert 0 < len(calls) <= BISECTION_EIGH_CALLS // 2
    monkeypatch.undo()
    for (a, b), (lo, hi) in zip(pairs, intervals):
        assert lo <= hi and hi - lo <= 1e-9
        assert hi >= ascent(a, b)[0] - 1e-12


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


NO_ADVANTAGE_CASES = [
    # the zero game: c = bound = W = 0
    (LinearGame(3, 1, 1, [[0]], [[2]]), ((0,), (0,))),
    # one Alice input: c = W, which the clamp makes the bound
    (LinearGame(6, 1, 3, [[1, 1, 2]], [[5, 4, 2]]), ((0,), (5, 4, 2))),
    (LinearGame(6, 3, 2, [[2, 1], [0, 2], [1, 1]], [[3, 4], [5, 5], [5, 5]]), None),
    (LinearGame(6, 3, 3, [[1, 1, 0], [1, 1, 1], [1, 1, 1]], [[4, 2, 0], [2, 2, 0], [1, 3, 3]]),
     None),
    # criterion 1: the bound exceeds c = 2/3
    (make_nlc3_game(), None),
    # the AND game and the uniform ternary product-form game g = (0, 1, 2):
    # the bound meets c, though Phi_1's top singular value is degenerate
    (make_nlc2_and(), ((0,) * 4, (0,) * 4)),
    (build_nlcd(NLCSpec(3, 2, (0, 1, 2), (F(1, 3),) * 3)), ((0,) * 9, (0,) * 9)),
    # a unique game with a reflection: c = W, through the clamp
    (make_unique3_mixed(), ((0, 0), (0, 1))),
]


@pytest.mark.parametrize("g, strategy", NO_ADVANTAGE_CASES,
                         ids=["zero", "one-alice-input", "d6-3x2", "d6-3x3", "nlc3", "and",
                              "product-012", "unique3-mixed"])
def test_no_advantage_verdicts(g, strategy):
    # Holds with the classical witness exactly when c meets the bound
    verdict = sufficient_no_advantage(g)
    reason = None if strategy else "classical value does not meet the bound"
    assert (verdict.strategy, verdict.reason) == (strategy, reason)
    assert value_report(g, with_sufficient=True).no_advantage == verdict
    cv = classical_value(g)
    assert strategy in (None, (cv.a_map, cv.b_map))


def _seeded_small_linear(seed):
    rng = random.Random(seed)
    d, ma, mb = rng.randint(2, 5), rng.randint(1, 4), rng.randint(1, 4)
    return LinearGame(d, ma, mb, [[rng.randint(0, 3) for _ in range(mb)] for _ in range(ma)],
                      [[rng.randrange(d) for _ in range(mb)] for _ in range(ma)])


def test_no_advantage_holds_wherever_the_phase_extraction_does():
    # the paper's condition: a strategy read off the roots-of-unity phases
    # of Phi_1's top singular pair attains the norm bound, so the verdict
    # holds, and that strategy attains the classical value
    games = [make_phi_ex_game(), make_nlc3_game(), make_chsh_game()]
    games += [build_nlc2(NLCSpec(2, 2, t, (F(1, 4),) * 4)) for t in product((0, 1), repeat=4)]
    games += [build_nlcd(NLCSpec(3, 2, t, (F(1, 3),) * 3)) for t in product(range(3), repeat=3)]
    games += [_seeded_small_linear(seed) for seed in range(300)]
    extracted = 0
    for g in games:
        strategy = extract(g)
        if strategy is not None:
            extracted += 1
            assert sufficient_no_advantage(g).holds
            assert strategy_value(g, *strategy) == classical_value(g).value
    assert extracted >= 50


@pytest.mark.parametrize("scale", [10 ** 9, 10 ** 12, 10 ** 15])
def test_no_advantage_holds_at_any_weight_scale(phi_ex_game, scale):
    # the tolerances of the verdict and of the soundness chain scale with W
    g = phi_ex_game
    big = LinearGame(g.d, g.ma, g.mb, [[v * scale for v in row] for row in g.q], g.f)
    rep = value_report(big, with_sufficient=True)
    assert rep.classical == F(13, 14) * scale and rep.no_signaling == scale
    assert rep.no_advantage.strategy == ((0, 2, 3, 1), (0, 2, 1, 3))


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
    # g's weights are scaled once, into the integer table (`scaled_weights`)
    # that the scan's functional and the total weight both read (the
    # no-signaling value and the norm bound's clamp); a second report of
    # the same game scales nothing
    from bellpoly import games
    for g in corpus:
        sums = []
        real = games.int_scaled
        monkeypatch.setattr(games, "int_scaled",
                            lambda x, *a, **k: sums.append(x is g.q) or real(x, *a, **k))
        rep = value_report(g)
        first, sums[:] = sum(sums), []
        again = value_report(g)
        monkeypatch.undo()
        assert (first, sum(sums)) == (1, 0)
        assert rep == again and rep.no_signaling == ns_value(g)


def test_soundness_chain_over_corpus(corpus):
    for g in corpus:
        rep = value_report(g)
        verify_value_report(rep)  # must not raise
        assert float(rep.classical) <= rep.quantum_upper_bound + 1e-9
        assert rep.quantum_upper_bound <= float(rep.no_signaling) + 1e-9


def test_exact_value_rejects_a_scan_of_doctored_integer_weights(nlc3_game):
    # the witness is re-checked on q, never on the scan's integer table, so
    # a table that disagrees with q is caught
    g = nlc3_game
    Q, den = g.scaled_weights
    g.__dict__["scaled_weights"] = (Q + 1, den)
    with pytest.raises(VerificationError, match="disagrees with exact re-evaluation"):
        classical_value(g)


def test_exact_value_rejects_a_scan_of_a_doctored_functional(monkeypatch, chsh_game, nlc3_game):
    # one won cell of the witness doubled in C: the scan's top exceeds the
    # value of its own box, which the re-check reads from q and the win rule
    real = values.scaled_functionals

    def doubled(g):
        C, den = real(g)
        cell = (0, 0) + tuple(side[0] for side in by_alice_maps(g)[1:])
        assert C[cell] > 0  # the witness wins it
        C = C.copy()
        C[cell] *= 2
        return C, den
    monkeypatch.setattr(values, "scaled_functionals", doubled)
    for g in (chsh_game, nlc3_game):
        with pytest.raises(VerificationError, match="integer-scaled search disagrees"):
            classical_value(g)
        with pytest.raises(VerificationError, match="integer-scaled search disagrees"):
            value_report(g, with_sufficient=True)


@pytest.mark.parametrize("game,a_map,b_map", [
    ("linear", (0, 0, 1, 1), (0, 0)),
    ("linear", (0, 0), (0, 0, 9)),
    ("linear", (0,), (0, 0)),
    ("linear", (3, 0), (0, 0)),
    ("linear", (0, 0), (0, -1)),
    ("unique3", (-1, 0), (0, 0)),
    ("unique3", (3, 0), (0, 0)),
    ("unique3", (0.0, 0), (0, 0)),
], ids=["long-a", "long-b", "short-a", "a-past-d", "negative-b", "unique3-negative-a",
        "unique3-a-past-d", "float-a"])
def test_strategy_value_refuses_malformed_maps(chsh_game, unique3_mixed, game, a_map, b_map):
    g = chsh_game if game == "linear" else unique3_mixed
    with pytest.raises(ValueError, match=r"must give one output in Z_\d+ to each of 2 inputs"):
        strategy_value(g, a_map, b_map)


def test_verify_value_report_rejects_doctored_bound(nlc3_game):
    rep = value_report(nlc3_game)
    bad = replace(rep, norm_bound=replace(rep.norm_bound, value=0.5))
    assert bad.quantum_upper_bound == 0.5
    with pytest.raises(VerificationError):
        verify_value_report(bad)
    bad2 = replace(rep, norm_bound=replace(rep.norm_bound, value=1.5))
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
    assert classical_value(g) == ClassicalValue(value, a_map, b_map)


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
    stacked = _counting(monkeypatch, values, "spectral_norms")
    single = _counting(monkeypatch, values, "spectral_norm")
    rep = value_report(phi_ex_game, with_sufficient=True)
    assert rep.no_advantage.holds  # the verdict read the report's classical value
    assert len(classical) == 1
    # the d // 2 norms of the conjugate pairs of blocks come from one stacked SVD
    assert len(stacked) == 1 and len(stacked[0][0]) == phi_ex_game.d // 2 and not single


@pytest.mark.parametrize("d", [2, 3, 5, 7, 131])
def test_norm_bound_stacks_the_per_block_spectral_norms(d):
    rng = random.Random(d)
    for _ in range(4 if d < 131 else 2):
        ma, mb = rng.randint(1, 7), rng.randint(1, 7)
        q = [[F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(mb)] for _ in range(ma)]
        f = [[rng.randrange(d) for _ in range(mb)] for _ in range(ma)]
        g = LinearGame(d, ma, mb, q, f)
        blocks = fourier_blocks(g)
        norms = norm_bound(g, blocks).norms
        assert len(norms) == d - 1
        for k, b in enumerate(blocks, 1):
            if k <= d // 2:
                assert norms[k - 1] == (spectral_norm(*b),) * 2
            else:
                assert norms[k - 1] == norms[d - k - 1]


def seeded_linear(d, seed):
    rng = random.Random(f"{d}:{seed}")
    ma, mb = rng.randint(1, 6), rng.randint(1, 6)
    q = [[F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(mb)] for _ in range(ma)]
    return LinearGame(d, ma, mb, q, [[rng.randrange(d) for _ in range(mb)] for _ in range(ma)])


@pytest.mark.parametrize("g", [seeded_linear(d, seed) for d in (3, 4, 5, 7, 131)
                               for seed in range(3)]
                         + [seeded_unique3(seed, 2 + seed % 3, 2 + seed // 3 % 3)
                            for seed in range(12)],
                         ids=lambda g: f"{g.d}-{g.ma}x{g.mb}")
def test_norm_bound_computes_one_norm_per_conjugate_pair(g):
    # block d - k is the entrywise conjugate of block k, so it takes k's
    # interval, and its own norm agrees with it to rounding
    blocks, d = fourier_blocks(g), g.d
    norms = norm_bound(g, blocks).norms
    assert len(norms) == d - 1

    def own(b):
        return (spectral_norm(*b),) * 2 if len(b) == 1 else gen_norm_detailed(*b)
    for k in range(1, d // 2 + 1):
        assert norms[d - k - 1] == norms[k - 1] == own(blocks[k - 1])
        mirrored = own(blocks[d - k - 1])[1]
        assert abs(mirrored - norms[k - 1][1]) <= 1e-12 * norms[k - 1][1]


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
