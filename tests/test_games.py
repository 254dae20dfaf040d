import cmath
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import (
    PERMS,
    REFLECTIONS,
    ROTATIONS,
    LinearGame,
    NLCSpec,
    UniqueGame3,
    build_nlc,
    build_nlc2,
    build_nlcd,
    fourier_blocks,
    input_dits,
    to_bell_inequality,
    to_correlator_inequality,
)
from bellpoly.games import scaled_functionals
from bellpoly.tightness import facet_test
from bellpoly.values import classical_value
from tests.behaviour_reference import (behaviour_from_box, enumerate_deterministic_boxes,
                                       evaluate, evaluate_box)
from tests.conftest import rotation_game_to_linear
from tests.games_reference import (_win_coeffs, dits_to_index, ditwise_add, fraction_inequalities,
                                   subgame_restrict)

F = Fraction


# ---------------------------------------------------------------- dit helpers

def test_dit_round_trip():
    for d, n in ((2, 3), (3, 2), (5, 1)):
        for x in range(d ** n):
            assert dits_to_index(input_dits(x, d, n), d) == x


def test_ditwise_add_is_componentwise():
    assert ditwise_add(5, 7, 3, 2) == dits_to_index(
        tuple((a + b) % 3 for a, b in zip(input_dits(5, 3, 2),
                                          input_dits(7, 3, 2))), 3)


# ---------------------------------------------------------------- linear games

def test_win_rule_is_modular_sum(nlc3_game):
    g = nlc3_game
    for x in range(3):
        for y in range(3):
            for a in range(3):
                for b in range(3):
                    assert g.win(a, b, x, y) == ((a + b) % 3 == g.f[x][y])
                winning = g.winning_b(a, x, y)
                assert g.win(a, winning, x, y)


def test_total_weight_one(nlc3_game, phi_ex_game):
    assert nlc3_game.total_weight == 1
    assert phi_ex_game.total_weight == 1


def test_game_matrix_entries(nlc3_game):
    g = nlc3_game
    for k, (z,) in enumerate(fourier_blocks(g), 1):
        zeta = cmath.exp(2j * cmath.pi / 3)
        for x in range(3):
            for y in range(3):
                expected = float(g.q[x][y]) * zeta ** (k * g.f[x][y])
                assert abs(z[x][y] - expected) < 1e-12
                assert abs(abs(z[x][y]) - float(g.q[x][y])) < 1e-15


def test_game_matrix_k_out_of_range(nlc3_game, unique3_mixed):
    # the blocks cover k = 1..d-1: none for k = 0 or k = d
    assert [len(b) for b in fourier_blocks(nlc3_game)] == [1, 1]
    assert [len(b) for b in fourier_blocks(unique3_mixed)] == [2, 2]


def _rng_linear(rng, d):
    ma, mb = rng.randint(1, 7), rng.randint(1, 7)
    q = [[F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(mb)] for _ in range(ma)]
    return LinearGame(d, ma, mb, q, [[rng.randrange(d) for _ in range(mb)] for _ in range(ma)])


def _rng_unique3(rng):
    ma, mb = rng.randint(1, 6), rng.randint(1, 6)
    q = [[F(rng.randint(0, 9), 9) for _ in range(mb)] for _ in range(ma)]
    return UniqueGame3(ma, mb, q, [[rng.choice(sorted(PERMS)) for _ in range(mb)]
                                   for _ in range(ma)])


@pytest.mark.parametrize("seed", range(4))
def test_fourier_blocks_equal_one_exp_per_block(seed):
    # each block read from the table of roots is bitwise the weights times
    # exp(2 pi i (phase mod d) / d), one exp over the whole block
    rng = random.Random(seed)
    games = [_rng_linear(rng, d) for d in (2, 3, 5, 7, 131, 257)] + [_rng_unique3(rng)]
    for g in games:
        q = np.array(g.q, dtype=float)
        if isinstance(g, LinearGame):
            parts = [(q, np.array(g.f))]
        else:
            parts = [(q * [[name in shifts for name in row] for row in g.perms],
                      np.array([[shifts.get(name, 0) for name in row] for row in g.perms]))
                     for shifts in (ROTATIONS, REFLECTIONS)]
        blocks = fourier_blocks(g)
        assert len(blocks) == g.d - 1
        for k, got in enumerate(blocks, 1):
            want = [w * np.exp(2j * np.pi * (k * s % g.d) / g.d) for w, s in parts]
            assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("d", [2, 3, 5, 131])
def test_fourier_blocks_equal_the_blocks_built_per_k(d):
    # the one broadcast over k = 1..d-1 gives bitwise the blocks of one
    # expression per k
    g = _rng_linear(random.Random(d), d)
    q, f = np.array(g.q, dtype=float), np.array(g.f)
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    want = [q * roots[k * f % d] for k in range(1, d)]
    assert [b.tobytes() for b, in fourier_blocks(g)] == [b.tobytes() for b in want]


def test_winning_b_on_arrays_equals_the_scalar_rule():
    rng = random.Random(11)
    games = [_rng_linear(rng, d) for d in (2, 3, 5, 7)] + [_rng_unique3(rng) for _ in range(3)]
    for g in games:
        x, y, a = np.ix_(np.arange(g.ma), np.arange(g.mb), np.arange(g.d))
        B = g.winning_b(a, x, y)
        assert B.shape == (g.ma, g.mb, g.d)
        for i in range(g.ma):
            for j in range(g.mb):
                rule = ([(g.f[i][j] - c) % g.d for c in range(g.d)] if isinstance(g, LinearGame)
                        else list(PERMS[g.perms[i][j]]))
                assert B[i, j].tolist() == rule
                assert [g.winning_b(c, i, j) for c in range(g.d)] == rule


def test_roots_of_unity_sum_identity(nlc3_game):
    # Summing zeta^(k f) over k = 0..d-1 hits d exactly when f = 0.
    g = nlc3_game
    zeta = cmath.exp(2j * cmath.pi / 3)
    for x in range(3):
        for y in range(3):
            total = sum(zeta ** (k * g.f[x][y]) for k in range(3))
            expected = 3 if g.f[x][y] == 0 else 0
            assert abs(total - expected) < 1e-12


def test_linear_game_validation():
    q = ((F(1, 2), F(1, 2)),)
    with pytest.raises(ValueError):
        LinearGame(2, 1, 2, q, ((0, 2),))  # f value out of Z_2
    with pytest.raises(ValueError):
        LinearGame(2, 1, 2, ((F(1, 2), F(-1, 2)),), ((0, 0),))  # negative weight
    with pytest.raises(ValueError):
        LinearGame(1, 1, 2, q, ((0, 0),))  # d too small


# ------------------------------------------------------------------ NLC games

def test_nlc2_and_table(nlc2_and):
    g = nlc2_and
    assert (g.d, g.ma, g.mb, g.n) == (2, 4, 4, 2)
    # f(x, y) must equal AND of the two bits of x xor y.
    for x in range(4):
        for y in range(4):
            z = ditwise_add(x, y, 2, 2)
            bits = input_dits(z, 2, 2)
            assert g.f[x][y] == (bits[0] & bits[1])


def test_nlc_weights_are_shared_uniformly(nlc2_and):
    # q(x, y) = p(x xor y) / 2^n: every diagonal {x xor y = z} is constant.
    g = nlc2_and
    for z in range(4):
        cells = {g.q[x][ditwise_add(z, x, 2, 2)] for x in range(4)}
        assert len(cells) == 1
        assert cells.pop() == F(1, 4) / 4


def test_build_nlc_dispatch():
    full = build_nlc(NLCSpec(2, 2, (0, 0, 0, 1), (F(1, 4),) * 4))
    assert full.f == build_nlc2(NLCSpec(2, 2, (0, 0, 0, 1), (F(1, 4),) * 4)).f
    prod = build_nlc(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3))
    assert (prod.d, prod.ma, prod.n) == (3, 9, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_binary_product_form_is_its_full_table(n):
    # a d = 2 product-form spec, g(z) = g(zt) z_n and p(z) = p(zt)/2, built
    # as written out in full through build_nlc2
    rng = random.Random(n)
    g = tuple(rng.randrange(2) for _ in range(2 ** (n - 1)))
    w = [rng.randint(1, 5) for _ in g]
    p = tuple(F(v, sum(w)) for v in w)
    full = NLCSpec(2, n, tuple(g[z // 2] * (z % 2) for z in range(2 ** n)),
                   tuple(p[z // 2] / 2 for z in range(2 ** n)))
    product, written = build_nlc(NLCSpec(2, n, g, p)), build_nlc2(full)
    assert (product.q, product.f) == (written.q, written.f)
    assert product == build_nlcd(NLCSpec(2, n, g, p))


def test_nlcd_product_form_function():
    g = build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3))
    for x in range(9):
        for y in range(9):
            z = ditwise_add(x, y, 3, 2)
            dits = input_dits(z, 3, 2)
            assert g.f[x][y] == (((0, 0, 1)[dits[0]]) * dits[1]) % 3


def test_nlcd_rejects_full_table_for_d3():
    with pytest.raises(ValueError):
        NLCSpec(3, 2, (0,) * 9, (F(1, 9),) * 9)


@pytest.mark.parametrize("build", [
    lambda n: LinearGame(3, 1, 1, ((F(1),),), ((0,),), n=n),
    lambda n: NLCSpec(3, n, (0,), (F(1),)),
])
def test_huge_dit_counts_are_refused_at_once(build):
    # d^n >= 2^n exceeds the table length once n reaches its bit length, so
    # no power of 10^8 bits is computed
    start = time.perf_counter()
    with pytest.raises(ValueError):
        build(10 ** 8)
    assert time.perf_counter() - start < 1


def test_nlc_spec_distribution_must_normalize():
    with pytest.raises(ValueError):
        NLCSpec(2, 2, (0, 0, 0, 1), (F(1, 2),) * 4)


# ----------------------------------------------------------------- restriction

def test_subgame_restrict_masks_weight(nlc2_and):
    g = nlc2_and
    frag = subgame_restrict(g, fix_a={0: 1})
    # Alice inputs with first bit 1 are x = 2, 3.
    for x in range(4):
        for y in range(4):
            if input_dits(x, 2, 2)[0] == 1:
                assert frag.q[x][y] == g.q[x][y]
            else:
                assert frag.q[x][y] == 0
    assert frag.total_weight == F(1, 2)


def test_subgame_restrictions_partition_weight(nlc2_and):
    g = nlc2_and
    total = sum(subgame_restrict(g, fix_a={0: v}).total_weight
                for v in range(2))
    assert total == g.total_weight


def test_subgame_restrict_equals_the_checked_construction(nlc2_and, unique3_mixed):
    frag = subgame_restrict(nlc2_and, fix_a={0: 1}, fix_b={1: 0})
    assert frag == LinearGame(2, 4, 4, frag.q, nlc2_and.f, n=2)
    assert frag.nlc is None
    q = [[F(0)] * unique3_mixed.mb for _ in range(unique3_mixed.ma)]
    q[1] = list(unique3_mixed.q[1])
    frag3 = subgame_restrict(unique3_mixed, fix_a={0: 1})
    assert frag3 == UniqueGame3(unique3_mixed.ma, unique3_mixed.mb, q, unique3_mixed.perms)
    assert type(frag3) is UniqueGame3


def test_subgame_restrict_validation(nlc2_and):
    with pytest.raises(ValueError):
        subgame_restrict(nlc2_and)
    with pytest.raises(ValueError):
        subgame_restrict(nlc2_and, fix_a={5: 0})
    with pytest.raises(ValueError):
        subgame_restrict(nlc2_and, fix_a={0: 3})


# ---------------------------------------------------------------- unique games

def test_unique3_win_rule(unique3_mixed):
    g = unique3_mixed
    # Permutation names act on outcomes; b must equal pi(a).
    pi = {"e": (0, 1, 2), "(01)": (1, 0, 2), "(02)": (2, 1, 0),
          "(12)": (0, 2, 1), "(012)": (1, 2, 0), "(021)": (2, 0, 1)}
    for x in range(2):
        for y in range(2):
            table = pi[g.perms[x][y]]
            for a in range(3):
                assert g.winning_b(a, x, y) == table[a]
                for b in range(3):
                    assert g.win(a, b, x, y) == (b == table[a])


def test_cosets_partition_the_permutations_by_shift():
    assert ROTATIONS == {"e": 0, "(012)": 1, "(021)": 2}
    assert REFLECTIONS == {"(01)": 1, "(12)": 0, "(02)": 2}
    assert not ROTATIONS.keys() & REFLECTIONS.keys()
    assert ROTATIONS.keys() | REFLECTIONS.keys() == PERMS.keys()
    for name, image in PERMS.items():
        if name in ROTATIONS:
            assert image == tuple((a + ROTATIONS[name]) % 3 for a in range(3))
        else:
            assert image == tuple((REFLECTIONS[name] - a) % 3 for a in range(3))


def test_unique3_matrices_partition_weight(unique3_mixed, unique3_rotation):
    # each weighted cell is nonzero in exactly one block, its coset's, with
    # the cell's weight as its modulus
    for g in (unique3_mixed, unique3_rotation):
        rot, ref = fourier_blocks(g)[0]
        for x in range(2):
            for y in range(2):
                weighted = g.q[x][y] != 0
                assert (rot[x, y] != 0, ref[x, y] != 0) == (
                    weighted and g.perms[x][y] in ROTATIONS,
                    weighted and g.perms[x][y] in REFLECTIONS)
                assert abs(abs(rot[x, y] + ref[x, y]) - float(g.q[x][y])) < 1e-15


def test_unique3_rotation_game_has_empty_reflection_block(unique3_rotation):
    _, ref = fourier_blocks(unique3_rotation)[0]
    assert not ref.any()


def test_rotation_game_to_linear_preserves_value(unique3_rotation):
    lin = rotation_game_to_linear(unique3_rotation)
    assert classical_value(lin).value == classical_value(unique3_rotation).value


def test_rotation_game_to_linear_rejects_reflections(unique3_mixed):
    with pytest.raises(ValueError):
        rotation_game_to_linear(unique3_mixed)


def test_unique3_rejects_bad_permutation_name():
    q = ((F(1, 2), F(1, 2)),)
    with pytest.raises(ValueError):
        UniqueGame3(1, 2, q, (("e", "(0123)"),))


# ----------------------------------------------------------- inequality bridges

def test_bell_inequality_agrees_with_game_value(chsh_game):
    g = chsh_game
    ineq = to_bell_inequality(g)
    best = max(evaluate_box(ineq, b)
               for b in enumerate_deterministic_boxes(g.scenario))
    assert best == classical_value(g).value == ineq.bound


def test_win_coeffs_match_the_cellwise_win_rule(nlc3_game, unique3_mixed):
    # shared cell tables hold the same values as one built per cell from win()
    fragment = subgame_restrict(build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3)),
                                fix_a={0: 2})
    for g in (nlc3_game, unique3_mixed, fragment):
        s = g.scenario
        assert _win_coeffs(g) == tuple(
            tuple(tuple(tuple(g.q[x][y] if g.win(a, b, x, y) else F(0) for b in range(s.db))
                        for a in range(s.da)) for y in range(s.mb)) for x in range(s.ma))


def test_scaled_functionals_match_the_cellwise_win_rule(nlc3_game, unique3_mixed):
    product = build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3))
    games = [nlc3_game, unique3_mixed, product, subgame_restrict(product, {0: 2})]
    rng = random.Random(5)
    for d in (2, 3, 5, 7):
        ma, mb = rng.randint(1, 5), rng.randint(1, 5)
        q = [[F(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(mb)] for _ in range(ma)]
        games.append(LinearGame(d, ma, mb, q, [[rng.randrange(d) for _ in range(mb)]
                                               for _ in range(ma)]))
    games.append(UniqueGame3(ma, mb, q, [[rng.choice(sorted(PERMS)) for _ in range(mb)]
                                         for _ in range(ma)]))
    # Python ints once d times the total weight could reach 2^62
    big = LinearGame(2, 2, 2, [[2 ** 60] * 2] * 2, [[0, 1], [1, 0]])
    for g in games + [big]:
        C, den = scaled_functionals(g)
        assert C.dtype == (object if g is big else np.int64)
        s = g.scenario
        assert C.tolist() == [[[[int(g.q[x][y] * den) if g.win(a, b, x, y) else 0
                                 for b in range(s.db)] for a in range(s.da)]
                               for y in range(s.mb)] for x in range(s.ma)]


def test_weight_tables_are_built_once_and_read_only(nlc3_game, unique3_mixed):
    big = LinearGame(2, 1, 2, [[2 ** 62, F(1, 3)]], [[0, 1]])
    for g in (nlc3_game, unique3_mixed, big):
        Q, den = g.scaled_weights
        assert g.scaled_weights[0] is Q and g.float_weights is g.float_weights
        assert Q.tolist() == [[v * den for v in row] for row in g.q]
        assert g.float_weights.tolist() == [[float(v) for v in row] for row in g.q]
        for table in (Q, g.float_weights):
            with pytest.raises(ValueError):
                table[0, 0] = 1
    assert big.scaled_weights[0].dtype == object


def test_a_restricted_game_builds_its_own_masked_tables(nlc2_and, unique3_mixed):
    for g in (nlc2_and, unique3_mixed):
        (Q, den), W = g.scaled_weights, g.float_weights  # the parent's, built first
        frag = subgame_restrict(g, fix_a={0: 1}) if g is nlc2_and else \
            subgame_restrict(g, fix_b={0: 0})
        (fQ, fden), fW = frag.scaled_weights, frag.float_weights
        assert fQ is not Q and fW is not W
        assert fQ.tolist() == [[v * fden for v in row] for row in frag.q]
        assert fW.tolist() == [[float(v) for v in row] for row in frag.q]
        assert fW.tolist() != W.tolist()
        assert (g.scaled_weights[0] is Q and g.float_weights is W
                and W.tolist() == [[float(v) for v in row] for row in g.q])


def test_correlator_and_probability_forms_agree(chsh_game):
    g = chsh_game
    bell = to_bell_inequality(g)
    corr = to_correlator_inequality(g)
    half_weight = g.total_weight / 2
    for box in enumerate_deterministic_boxes(g.scenario):
        pb = evaluate_box(bell, box)
        cb = evaluate_box(corr, box)
        # win probability = W/2 + correlator form value
        assert pb == half_weight + cb
    assert corr.bound == bell.bound - half_weight


def test_correlator_form_requires_binary(nlc3_game):
    with pytest.raises(ValueError):
        to_correlator_inequality(nlc3_game)


def _seeded_bridge_games():
    """Seeded linear games on d = 2, 3, 5 outputs, NLC games and unique3 games,
    small enough for a facet test of each."""
    rng = random.Random(23)
    games = []
    for d in (2, 2, 3, 3, 5):
        ma, mb = rng.randint(1, 3), rng.randint(1, 3)
        q = [[F(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(mb)] for _ in range(ma)]
        games.append(LinearGame(d, ma, mb, q, [[rng.randrange(d) for _ in range(mb)]
                                               for _ in range(ma)]))
    # weights of even numerators: the correlator table's q/2 is in lower terms
    games.append(LinearGame(2, 2, 2, [[F(2, 3)] * 2] * 2, [[0, 0], [0, 1]]))
    games += [build_nlc2(NLCSpec(2, 2, (0, 0, 0, 1), (F(1, 4),) * 4)),
              build_nlc2(NLCSpec(2, 3, (0, 1, 1, 0, 1, 0, 0, 0), (F(1, 8),) * 8)),
              build_nlcd(NLCSpec(3, 2, (0, 0, 1), (F(1, 2), F(1, 3), F(1, 6))))]
    for _ in range(2):
        ma, mb = rng.randint(1, 3), rng.randint(1, 3)
        games.append(UniqueGame3(ma, mb, [[F(rng.randint(0, 3), 4) for _ in range(mb)]
                                          for _ in range(ma)],
                                 [[rng.choice(sorted(PERMS)) for _ in range(mb)]
                                  for _ in range(ma)]))
    return games


def test_game_inequalities_equal_the_fraction_built_ones():
    # the integer tables, built from the integer functional, hold the same
    # rationals as the cellwise Fraction tables: equal, of equal hash, and
    # of equal facet reports
    for g in _seeded_bridge_games():
        bell, corr = fraction_inequalities(g)
        built = [(to_bell_inequality(g), bell, "bell")]
        if corr is not None:
            built.append((to_correlator_inequality(g), corr, "correlation"))
        for ineq, reference, kind in built:
            assert ineq == reference and hash(ineq) == hash(reference)
            assert (ineq.coeffs, ineq.bound, ineq.corr) == \
                (reference.coeffs, reference.bound, reference.corr)
            assert facet_test(ineq, kind) == facet_test(reference, kind)


def test_bell_inequality_builds_the_functional_once(monkeypatch):
    # the bound comes from a scan of the table the inequality stores, so one
    # functional is built per call, wherever the value scan looks it up
    calls = []

    def counted(g):
        calls.append(g)
        return scaled_functionals(g)
    monkeypatch.setattr("bellpoly.games.scaled_functionals", counted)
    monkeypatch.setattr("bellpoly.values.scaled_functionals", counted)
    for g in _seeded_bridge_games():
        calls.clear()
        ineq = to_bell_inequality(g)
        assert calls == [g]
        assert ineq.bound == classical_value(g).value


def test_game_inequalities_of_large_weights_hold_python_ints():
    # the weights fit int64 (sum below 2^62), but the correlator table holds
    # 4 times their sum in entries, and the Bell table 2 times it plus the bound
    g = LinearGame(2, 2, 2, [[2 ** 60, 2 ** 60 + 1], [2 ** 60 + 3, 5]], [[0, 1], [1, 1]])
    assert g.scaled_weights[0].dtype == np.int64
    bell, corr = fraction_inequalities(g)
    for ineq, reference, kind in ((to_bell_inequality(g), bell, "bell"),
                                  (to_correlator_inequality(g), corr, "correlation")):
        assert ineq.table.dtype == reference.table.dtype == object
        assert ineq == reference and hash(ineq) == hash(reference)
        assert ineq.coeffs == reference.coeffs and ineq.bound == reference.bound
        assert facet_test(ineq, kind) == facet_test(reference, kind)


def test_evaluate_on_behaviour_matches_box(chsh_game):
    ineq = to_bell_inequality(chsh_game)
    for box in enumerate_deterministic_boxes(chsh_game.scenario):
        assert evaluate(ineq, behaviour_from_box(box)) == evaluate_box(ineq, box)


# ------------------------------------------------------------------ properties

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1))
def test_nlc2_win_depends_only_on_xor(x, y, da, db):
    g = build_nlc2(NLCSpec(2, 2, (0, 1, 1, 1), (F(1, 4),) * 4))
    z = ditwise_add(x, y, 2, 2)
    # shifting both inputs by the same mask keeps the target value
    for mask in range(4):
        x2, y2 = ditwise_add(x, mask, 2, 2), ditwise_add(y, mask, 2, 2)
        assert ditwise_add(x2, y2, 2, 2) == z
        assert g.f[x2][y2] == g.f[x][y]


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.integers(0, 1)] * 4))
def test_nlc2_table_realized_exactly(bits):
    g = build_nlc2(NLCSpec(2, 2, bits, (F(1, 4),) * 4))
    for z in range(4):
        assert g.f[z][0] == bits[z]  # y = 0 leaves x xor y = x
