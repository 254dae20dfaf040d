import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import (CutInequality, Graph, affine_rank, cut_facet_test, exactrank, facet_test,
                      integer_rank, to_bell_inequality, to_correlator_inequality)
from tests.conftest import make_chsh_game

F = Fraction


def linear_rank(rows):
    """Rank over Q of the integer rows: the affine rank of the rows with
    the origin prepended."""
    return affine_rank([[0] * len(rows[0])] + list(rows))


def test_zero_matrix():
    assert linear_rank([[0] * 3] * 4) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0


def test_identity_and_duplicates():
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert linear_rank(ident) == 4
    assert linear_rank(ident + ident) == 4


def test_rank_deficient_exact():
    # Third row is the sum of the first two; at entries near 2^52 floats
    # would need a tolerance to see this, exact arithmetic must not.
    big = 2 ** 52
    rows = [[big + 1, 3, big - 7], [5, big - 3, 11]]
    rows.append([a + b for a, b in zip(*rows)])
    assert linear_rank(rows) == integer_rank(rows) == 2


def test_integer_rank_agrees_with_certified_rank():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    assert integer_rank(rows) == 2
    assert linear_rank(rows) == 2


def test_affine_rank_simplex():
    # n+1 affinely independent points span affine dimension n.
    pts = [[0] * 3, [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert affine_rank(pts) == 3
    assert affine_rank(np.array(pts, dtype=bool)) == 3
    assert affine_rank(pts[:1]) == 0
    with pytest.raises(ValueError):
        affine_rank([])


def test_affine_rank_translation_invariant():
    pts = [[1, 3], [5, 3], [0, 3]]
    shifted = [[a + 9, b - 4] for a, b in pts]
    assert affine_rank(pts) == affine_rank(shifted) == 1


@pytest.mark.parametrize("points", [
    [[F(0), F(0)], [F(1), F(0)]],                 # integral Fractions
    [[F(1, 2), 0], [0, 1]],                       # a proper Fraction
    [[0.0, 0.0], [1.0, 0.0]],                     # integral floats
    [[0.5, 0], [0, 1]],
    [[2 ** 62, 0], [0, 1]],                       # past the int64 difference bound
    [[0, -2 ** 62], [0, 1]],
    np.array([[2 ** 62, 0], [0, 1]], dtype=np.int64),
    [[2 ** 63, 0], [0, 1]],                       # uint64
    [[2 ** 63, -1], [0, 1]],                      # float64
    [[2 ** 70, 0], [0, 1]],                       # object
    np.array([[1, 0], [0, 1]], dtype=object),
    np.array([[1, 0], [0, 1]], dtype=np.uint8),
    [1, 2, 3],                                    # not 2-D
])
def test_affine_rank_refuses_what_it_would_round(points):
    with pytest.raises(TypeError):
        affine_rank(points)


def test_affine_rank_takes_entries_just_below_the_bound():
    top = 2 ** 62 - 1
    assert affine_rank([[top, -top], [-top, top]]) == 1
    assert affine_rank([[top, 0], [-top, 0], [0, 1]]) == 2
    assert affine_rank([[top, 0], [-top, 0], [0, 0]]) == 1


def test_facet_tests_hand_the_rank_integer_arrays(monkeypatch):
    # the one rank call that Bell, correlation and cut facet tests share
    seen = []
    rank_of = exactrank.affine_rank
    monkeypatch.setattr(exactrank, "affine_rank",
                        lambda rows: seen.append((type(rows), rows.dtype.kind)) or rank_of(rows))
    chsh = make_chsh_game()
    facet_test(to_bell_inequality(chsh), "bell")
    facet_test(to_correlator_inequality(chsh), "correlation")
    cut_facet_test(CutInequality.hypermetric((1, 1, 1, -1, -1)), Graph.complete(5))
    assert seen == [(np.ndarray, "i")] * 3


small_entries = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_rank_matches_sympy(nrows, ncols, data):
    rows = [
        [data.draw(small_entries) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    expected = sympy.Matrix(rows).rank()
    assert integer_rank(rows) == expected
    assert linear_rank(rows) == expected


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(4)), st.integers(1, 9))
def test_rank_invariant_under_shuffle_and_scaling(perm, scale):
    rows = [
        [1, 2, 3],
        [0, 1, 1],
        [1, 3, 4],
        [2, 0, 1],
    ]
    base = linear_rank(rows)
    shuffled = [[scale * v for v in rows[i]] for i in perm]
    assert linear_rank(shuffled) == base


# ------------------------------------------------ certified modular rank

def low_rank(rng, nrows, ncols, rank, lo=-3, hi=3):
    """Seeded nrows x ncols integer matrix, the product of an nrows x rank
    and a rank x ncols factor with entries in [lo, hi]."""
    a = [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(nrows)]
    b = [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(ncols)]
            for i in range(nrows)]


@pytest.mark.parametrize("seed", range(12))
def test_certified_rank_matches_sympy(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 9)
    rows = low_rank(rng, rng.randint(1, 12), ncols, rng.randint(0, ncols))
    expected = sympy.Matrix(rows).rank()
    assert linear_rank(rows) == integer_rank(rows) == expected


@pytest.mark.parametrize("seed,nrows,ncols,rank", [
    (0, 500, 10, 6), (1, 300, 8, 8), (2, 480, 12, 11)])
def test_certified_rank_tall_matches_sympy(seed, nrows, ncols, rank):
    rows = low_rank(random.Random(seed), nrows, ncols, rank)
    expected = sympy.Matrix(rows).T.rank()
    assert linear_rank(rows) == integer_rank(rows) == expected
    assert affine_rank(rows) == sympy.Matrix(
        [[v - b for v, b in zip(r, rows[0])] for r in rows[1:]]).T.rank()


@pytest.mark.parametrize("seed", range(20))
def test_certified_rank_tall_matches_bareiss(seed):
    rng = random.Random(100 + seed)
    ncols = rng.randint(2, 16)
    rows = low_rank(rng, rng.randint(4 * ncols + 1, 400), ncols, rng.randint(1, ncols))
    assert linear_rank(rows) == integer_rank(rows)


def test_tall_matrix_whose_sample_misses_a_direction():
    # Only the last of 400 rows reaches column 4, so the rows eliminated
    # first almost surely miss it; the certificate on all rows catches that.
    rng = random.Random(7)
    rows = [[rng.randint(-2, 2) for _ in range(4)] + [0] for _ in range(399)]
    rows.append([0, 0, 0, 0, 1])
    assert linear_rank(rows) == integer_rank(rows) == 5
    assert affine_rank([[0] * 5] + rows) == 5


@pytest.mark.parametrize("seed", range(6))
def test_certified_rank_fraction_rows(seed):
    # Fraction rows are refused, never rounded or scaled; the integer rows
    # they come from have sympy's rank
    rng = random.Random(200 + seed)
    rows = low_rank(rng, 9, 6, rng.randint(1, 5))
    assert linear_rank(rows) == integer_rank(rows) == sympy.Matrix(rows).rank()
    entrywise = [[F(v, rng.randint(1, 9)) for v in r] for r in rows]
    scales = [F(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 11)) for _ in rows]
    mixed = [[v * s for v in r] if i % 2 else list(r)
             for i, (r, s) in enumerate(zip(rows, scales))]
    for points in (entrywise, mixed, [[F(v) for v in r] for r in rows]):
        with pytest.raises(TypeError):
            affine_rank(points)


@pytest.mark.parametrize("bits", [31, 40, 63, 70])
def test_certified_rank_large_entries(bits):
    # entries past 2^31 leave GF(p) residues nontrivial; from 2^62 on a row
    # difference may not fit in int64, and the certified rank refuses them
    rng = random.Random(bits)
    big = 2 ** bits
    rows = [[v * big + rng.randint(0, 5) for v in r] for r in low_rank(rng, 7, 5, 3)]
    rows += [[2 * a - b for a, b in zip(rows[0], rows[1])]]
    expected = sympy.Matrix(rows).rank()
    assert integer_rank(rows) == expected
    if bits < 62:
        assert linear_rank(rows) == expected
    else:
        with pytest.raises(TypeError):
            linear_rank(rows)


def test_certified_rank_degenerate_shapes():
    assert linear_rank([[0] * 5] * 3) == 0
    assert linear_rank([[0, 0, 3]]) == 1
    assert affine_rank(np.zeros((3, 0), dtype=np.int64)) == 0
    assert affine_rank([(1, 2, 3)]) == 0
    assert affine_rank([(1, 2, 3)] * 40) == 0


def test_unlucky_prime_takes_the_fallback(monkeypatch):
    # [[p, 1], [0, p]] has rank 2 over Q but rank 1 mod p, so the kernel
    # certificate fails and Bareiss decides.
    p = exactrank.P
    calls = []
    bareiss = exactrank.integer_rank
    monkeypatch.setattr(exactrank, "integer_rank",
                        lambda rows: calls.append(rows) or bareiss(rows))
    assert linear_rank([[p, 1], [0, p]]) == 2
    assert calls == [[[p, 1], [0, p]]]
    calls.clear()
    assert linear_rank([[1, 2], [2, 4]]) == 1
    assert calls == []


def test_reconstruction_rebuilds_every_small_fraction():
    # Wang's bound: every a/b in lowest terms with |a|, b <= N (2 N^2 < p)
    # comes back from its residue a * b^-1 mod p; the residues go in as a
    # 2-D array, as the reduced echelon form's do
    p, N = exactrank.P, exactrank._FRACTION_BOUND
    rng = random.Random(11)
    pairs = [(0, 1), (N, 1), (-N, 1), (1, N), (-1, N), (N, N - 1), (-N, N - 1)]
    while len(pairs) < 2000:
        a, b = rng.randint(-N, N), rng.randint(1, N)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    u = np.array([a * pow(b, -1, p) % p for a, b in pairs], dtype=np.int64).reshape(40, 50)
    num, den = exactrank._rational(u)
    assert (num.shape, den.shape) == (u.shape, u.shape)
    assert list(zip(num.ravel().tolist(), den.ravel().tolist())) == pairs


@pytest.mark.parametrize("rows", [
    [[65537, 1], [131074, 2], [196611, 3]],  # kernel (1, -65537): a denominator 65537 mod p
    [[1, 65537], [2, 131074], [0, 0]]])      # kernel (-65537, 1): an entry -65537
def test_kernel_beyond_the_reconstruction_bound_takes_the_fallback(monkeypatch, rows):
    calls = []
    exact = exactrank._kernel_basis
    monkeypatch.setattr(exactrank, "_kernel_basis",
                        lambda S, pcols: calls.append(pcols) or exact(S, pcols))
    assert linear_rank(rows) == sympy.Matrix(rows).rank() == 1
    assert calls == [[0]]
