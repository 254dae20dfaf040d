"""classical_value against the plain-loop references of
tests/classical_reference.py: value and lexicographically first witness on
seeded small games (many ties, zero rows and columns, both enumerated
sides), scans of one, several and many chunks, scans of one map per
output-shift orbit and the games they must not apply to, weights at the
int16 and int32 boundaries and past int64, large denominators, the
budget's count of enumerated maps, and memory that does not grow with the
number of optimal maps."""
import random
import tracemalloc
from fractions import Fraction

import pytest

from bellpoly import BudgetExceededError, LinearGame, UniqueGame3, values
from bellpoly.games import scaled_functionals
from bellpoly.tightness import game_facet_test
from bellpoly.values import classical_value
from tests.classical_reference import by_alice_maps, by_all_pairs, by_prefix_search

F = Fraction
PERM_NAMES = ("e", "(01)", "(02)", "(12)", "(012)", "(021)")
ROTATION_NAMES = ("e", "(012)", "(021)")


def _weights(rng, ma, mb, choices, zero_row=False, zero_col=False):
    q = [[F(rng.choice(choices)) for _ in range(mb)] for _ in range(ma)]
    if zero_row:
        q[rng.randrange(ma)] = [F(0)] * mb
    if zero_col:
        y = rng.randrange(mb)
        for row in q:
            row[y] = F(0)
    return q


def linear_game(seed, d, ma, mb, choices=(0, 1), **zeros):
    rng = random.Random(f"{seed}:{d}:{ma}x{mb}")
    q = _weights(rng, ma, mb, choices, **zeros)
    return LinearGame(d, ma, mb, q, [[rng.randrange(d) for _ in range(mb)] for _ in range(ma)])


def unique3_game(seed, ma, mb, names=PERM_NAMES, choices=(0, 1)):
    rng = random.Random(f"unique3:{seed}:{ma}x{mb}")
    q = _weights(rng, ma, mb, choices)
    return UniqueGame3(ma, mb, q, [[rng.choice(names) for _ in range(mb)] for _ in range(ma)])


# b0 = a0, b0 = a1, b1 = a1 and b1 = (01)(a0): all four cells are won only
# when a0 is 2, the fixed point of (01), so no optimum answers 0 first
REFLECTION_GAME = UniqueGame3(2, 2, [[F(1)] * 2] * 2, [["e", "(01)"], ["e", "e"]])


def transpose(g):
    return LinearGame(g.d, g.mb, g.ma, tuple(zip(*g.q)), tuple(zip(*g.f)))


def found(g, **kwargs):
    cv = classical_value(g, **kwargs)
    return cv.value, cv.a_map, cv.b_map


# tall, wide and square shapes per output count; at most 4^5 strategy pairs
SHAPES = [(2, 5, 2), (2, 2, 5), (2, 4, 4), (3, 3, 2), (3, 2, 3), (3, 3, 3),
          (4, 3, 2), (4, 2, 3), (4, 2, 2)]
ZEROS = [{}, {"zero_row": True}, {"zero_col": True}, {"zero_row": True, "zero_col": True}]


def small_games():
    games = [linear_game(seed, d, ma, mb, **zeros)
             for d, ma, mb in SHAPES for seed in range(2) for zeros in ZEROS]
    games += [unique3_game(seed, ma, mb) for ma, mb in ((2, 3), (3, 2), (3, 3))
              for seed in range(3)]
    games.append(linear_game(0, 3, 2, 3, choices=(0,)))  # no weight at all
    return games


@pytest.mark.parametrize("g", small_games(), ids=lambda g: f"{g.d}-{g.ma}x{g.mb}")
def test_value_and_witness_match_all_pairs(g):
    expected = by_all_pairs(g)
    assert found(g) == expected
    assert by_prefix_search(g) == expected


@pytest.mark.parametrize("part", [1, 2, 3])
def test_chunked_scans_match_all_pairs(monkeypatch, part):
    # a few partial sums per chunk: every scan above spans several chunks;
    # the three parts together cover every small game
    monkeypatch.setattr(values, "_SCAN_CELLS", 4)
    for g in small_games()[part - 1::3]:
        assert found(g) == by_all_pairs(g)


@pytest.mark.parametrize("ma,mb", [(16, 16), (24, 14)])
def test_chunk_count_invariance(monkeypatch, ma, mb):
    # 2^15 Alice maps (one per shift orbit), then 2^14 Bob maps, in chunks of
    # one high digit string, in a few chunks at the default size, in one chunk
    g = linear_game(5, 2, ma, mb)
    results = []
    for cells in (4, values._SCAN_CELLS, 2 ** 40):
        monkeypatch.setattr(values, "_SCAN_CELLS", cells)
        results.append(found(g))
    assert results[0] == results[1] == results[2]
    assert classical_value(transpose(g)).value == results[0][0]


def test_tall_game_and_its_transpose():
    g = linear_game(22, 2, 22, 3, choices=(1, 2, 3))
    assert found(g) == by_prefix_search(g)
    assert found(transpose(g)) == by_alice_maps(transpose(g))


def _recorded_tables(monkeypatch):
    """The partial-sum tables each later scan builds, high then low."""
    tables = []
    real = values._partial_sums
    monkeypatch.setattr(values, "_partial_sums", lambda E: tables.append(real(E)) or tables[-1])
    return tables


def _maps_crossed(tables):
    return [hi.shape[-1] * lo.shape[-1] for hi, lo in zip(tables[::2], tables[1::2])]


def test_budget_counts_maps_of_the_enumerated_side(monkeypatch):
    tables = _recorded_tables(monkeypatch)
    g = linear_game(22, 2, 22, 3, choices=(1, 2, 3))
    assert classical_value(g, budget=8).value == classical_value(transpose(g), budget=8).value
    # each scan crosses a high and a low table of partial sums: the 2^3 Bob
    # maps, then 2^2 of Alice's 2^3, her first output fixed at 0 on the
    # transpose, which the output shift keeps; the budget counts all 2^3
    assert _maps_crossed(tables) == [8, 4]
    with pytest.raises(BudgetExceededError):
        classical_value(g, budget=7)
    # four of six rows weigh nothing: 2^2 Alice maps are scanned
    q = [[F(1)] * 6 if x in (1, 4) else [F(0)] * 6 for x in range(6)]
    sparse = LinearGame(2, 6, 6, q, linear_game(1, 2, 6, 6).f)
    assert found(sparse, budget=4) == by_alice_maps(sparse)
    with pytest.raises(BudgetExceededError):
        classical_value(sparse, budget=3)


# shift-invariant games: linear ones on d = 2..5 with a one-input Alice side,
# zero rows and columns, and unique games of rotations only
INVARIANT_GAMES = (
    [linear_game(seed, d, ma, mb, **zeros) for d in (2, 3, 4, 5) for ma, mb in ((1, 3), (2, 3))
     for seed in range(2) for zeros in ZEROS]
    + [unique3_game(seed, ma, mb, ROTATION_NAMES) for ma, mb in ((1, 2), (2, 3), (3, 3))
       for seed in range(4)])


@pytest.mark.parametrize("g", INVARIANT_GAMES, ids=lambda g: f"{g.d}-{g.ma}x{g.mb}")
def test_shift_invariant_games_match_all_pairs(g):
    assert values._shift_invariant(scaled_functionals(g)[0])
    assert found(g) == by_all_pairs(g)


def test_reflection_game_is_scanned_on_every_map():
    assert not values._shift_invariant(scaled_functionals(REFLECTION_GAME)[0])
    assert found(REFLECTION_GAME) == by_all_pairs(REFLECTION_GAME) == (F(4), (2, 2), (2, 2))


@pytest.mark.parametrize("g,maps", [
    (linear_game(4, 3, 3, 4, choices=(1, 2)), 3 ** 2),
    (unique3_game(4, 3, 4, ROTATION_NAMES, choices=(1, 2)), 3 ** 2),
    (LinearGame(257, 1, 2, [[F(1, 3), F(2, 3)]], [[5, 7]]), 1),
    (linear_game(4, 131, 2, 2, choices=(1, 2)), 131),
    (unique3_game(1, 3, 4, ("e", "(01)"), choices=(1, 2)), 3 ** 3),
], ids=["linear", "rotations", "one-input", "linear-131", "mixed"])
def test_only_invariant_scans_cross_a_dth_of_alice_maps(monkeypatch, g, maps):
    tables = _recorded_tables(monkeypatch)
    assert found(g) == by_alice_maps(g)
    assert _maps_crossed(tables) == [maps]


def test_facet_scans_cross_every_map(monkeypatch):
    tables = _recorded_tables(monkeypatch)
    game_facet_test(linear_game(4, 3, 3, 4, choices=(1, 2)), "bell")
    assert _maps_crossed(tables) == [3 ** 3]


@pytest.mark.parametrize("w,dtype", [(2 ** 27 - 1, "int32"), (2 ** 27, "int64")])
def test_tables_are_int32_while_every_sum_fits(monkeypatch, w, dtype):
    # 4 x 4 cells of weight up to w: the scan's sums are at most 16 w, just
    # below 2^31 or at it
    tables = _recorded_tables(monkeypatch)
    rng = random.Random(w)
    q = [[F(rng.choice((w, w - 1, w - 3))) for _ in range(4)] for _ in range(4)]
    q[0][0] = F(w)
    g = LinearGame(2, 4, 4, q, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
    assert found(g) == by_alice_maps(g)
    assert {t.dtype.name for t in tables} == {dtype}


@pytest.mark.parametrize("w,dtype", [(2 ** 11 - 1, "int16"), (2 ** 11, "int32")])
def test_tables_are_int16_while_every_sum_fits(monkeypatch, w, dtype):
    # 4 x 4 cells of weight up to w: the scan's sums are at most 16 w, just
    # below 2^15 or at it
    tables = _recorded_tables(monkeypatch)
    rng = random.Random(w)
    q = [[F(rng.choice((w, w - 1, w - 3))) for _ in range(4)] for _ in range(4)]
    q[0][0] = F(w)
    g = LinearGame(2, 4, 4, q, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
    assert found(g) == by_alice_maps(g)
    assert {t.dtype.name for t in tables} == {dtype}


def test_weights_past_int64():
    # every weight 2^60: 64 cells sum past 2^62, so the scan uses Python ints
    g = linear_game(3, 2, 8, 8, choices=(2 ** 60,))
    assert found(g) == by_alice_maps(g)


@pytest.mark.parametrize("dens", [(2 ** 50,), (2 ** 41 + 1, 2 ** 41 + 7, 2 ** 43 + 3)])
def test_denominators_past_2_to_40(dens):
    # 2^6 maps on each side; a common denominator of 2^50, or one near 2^125
    rng = random.Random(len(dens))
    q = [[F(rng.randint(0, 3), rng.choice(dens)) for _ in range(6)] for _ in range(6)]
    g = LinearGame(2, 6, 6, q, [[rng.randrange(2) for _ in range(6)] for _ in range(6)])
    assert found(g) == by_alice_maps(g)


def test_many_optimal_maps_in_bounded_memory(monkeypatch):
    # the diagonal game: all 2^16 of Alice's maps are optimal; the scan keeps
    # one witness key per chunk, where the maps as int64 digit rows take 8 MiB
    monkeypatch.setattr(values, "_SCAN_CELLS", 1 << 10)
    m = 16
    g = LinearGame(2, m, m, [[F(int(x == y)) for y in range(m)] for x in range(m)],
                   [[0] * m] * m)
    tracemalloc.start()
    try:
        cv = classical_value(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cv.value, cv.a_map, cv.b_map) == (m, (0,) * m, (0,) * m)
    assert peak < 1 << 20
