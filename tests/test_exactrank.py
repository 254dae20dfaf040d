import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import affine_rank, exactrank, integer_rank, matrix_rank_exact

F = Fraction


def test_zero_matrix():
    assert matrix_rank_exact([[F(0)] * 3] * 4) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0


def test_identity_and_duplicates():
    ident = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    assert matrix_rank_exact(ident) == 4
    assert matrix_rank_exact(ident + ident) == 4


def test_rank_deficient_exact():
    # Third row is the sum of the first two; floats would need a tolerance
    # to see this, exact arithmetic must not.
    rows = [
        [F(1, 3), F(1, 7), F(2, 11)],
        [F(5, 13), F(1, 2), F(3, 17)],
        [F(1, 3) + F(5, 13), F(1, 7) + F(1, 2), F(2, 11) + F(3, 17)],
    ]
    assert matrix_rank_exact(rows) == 2


def test_integer_rank_agrees_with_fraction_path():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    assert integer_rank(rows) == 2
    assert matrix_rank_exact([[F(v) for v in r] for r in rows]) == 2


def test_affine_rank_simplex():
    # n+1 affinely independent points span affine dimension n.
    pts = [[F(0)] * 3,
           [F(1), F(0), F(0)],
           [F(0), F(1), F(0)],
           [F(0), F(0), F(1)]]
    assert affine_rank(pts) == 3
    assert affine_rank(pts[:1]) == 0
    with pytest.raises(ValueError):
        affine_rank([])


def test_affine_rank_translation_invariant():
    pts = [[F(1, 2), F(3)], [F(5, 7), F(3)], [F(0), F(3)]]
    shifted = [[a + F(9, 4), b - F(1, 3)] for a, b in pts]
    assert affine_rank(pts) == affine_rank(shifted) == 1


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
    assert matrix_rank_exact([[F(v) for v in r] for r in rows]) == expected


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(4)), st.integers(1, 9))
def test_rank_invariant_under_shuffle_and_scaling(perm, scale):
    rows = [
        [F(1), F(2), F(3)],
        [F(0), F(1), F(1)],
        [F(1), F(3), F(4)],
        [F(2), F(0), F(1)],
    ]
    base = matrix_rank_exact(rows)
    shuffled = [[scale * v for v in rows[i]] for i in perm]
    assert matrix_rank_exact(shuffled) == base


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
    assert matrix_rank_exact(rows) == integer_rank(rows) == expected


@pytest.mark.parametrize("seed,nrows,ncols,rank", [
    (0, 500, 10, 6), (1, 300, 8, 8), (2, 480, 12, 11)])
def test_certified_rank_tall_matches_sympy(seed, nrows, ncols, rank):
    rows = low_rank(random.Random(seed), nrows, ncols, rank)
    expected = sympy.Matrix(rows).T.rank()
    assert matrix_rank_exact(rows) == integer_rank(rows) == expected
    assert affine_rank(rows) == sympy.Matrix(
        [[v - b for v, b in zip(r, rows[0])] for r in rows[1:]]).T.rank()


@pytest.mark.parametrize("seed", range(20))
def test_certified_rank_tall_matches_bareiss(seed):
    rng = random.Random(100 + seed)
    ncols = rng.randint(2, 16)
    rows = low_rank(rng, rng.randint(4 * ncols + 1, 400), ncols, rng.randint(1, ncols))
    assert matrix_rank_exact(rows) == integer_rank(rows)


def test_tall_matrix_whose_sample_misses_a_direction():
    # Only the last of 400 rows reaches column 4, so the rows eliminated
    # first almost surely miss it; the certificate on all rows catches that.
    rng = random.Random(7)
    rows = [[rng.randint(-2, 2) for _ in range(4)] + [0] for _ in range(399)]
    rows.append([0, 0, 0, 0, 1])
    assert matrix_rank_exact(rows) == integer_rank(rows) == 5
    assert affine_rank([[0] * 5] + rows) == 5


@pytest.mark.parametrize("seed", range(6))
def test_certified_rank_fraction_rows(seed):
    rng = random.Random(200 + seed)
    rows = low_rank(rng, 9, 6, rng.randint(1, 5))
    # entrywise rationals: the rank is sympy's
    entrywise = [[F(v, rng.randint(1, 9)) for v in r] for r in rows]
    assert matrix_rank_exact(entrywise) == sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in entrywise]).rank()
    # scaling rows by nonzero rationals keeps the rank; mixed rows stay ints
    scales = [F(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 11)) for _ in rows]
    mixed = [[v * s for v in r] if i % 2 else list(r)
             for i, (r, s) in enumerate(zip(rows, scales))]
    assert matrix_rank_exact(mixed) == integer_rank(rows)
    assert affine_rank(mixed) == affine_rank([[F(v) for v in r] for r in mixed])


@pytest.mark.parametrize("bits", [31, 40, 63, 70])
def test_certified_rank_large_entries(bits):
    # entries past 2^31 leave GF(p) residues nontrivial; past 2^63 they need
    # the object path
    rng = random.Random(bits)
    big = 2 ** bits
    rows = [[v * big + rng.randint(0, 5) for v in r] for r in low_rank(rng, 7, 5, 3)]
    rows += [[2 * a - b for a, b in zip(rows[0], rows[1])]]
    expected = sympy.Matrix(rows).rank()
    assert matrix_rank_exact(rows) == integer_rank(rows) == expected
    assert matrix_rank_exact([[F(v) for v in r] for r in rows]) == expected


def test_certified_rank_degenerate_shapes():
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0] * 5] * 3) == 0
    assert matrix_rank_exact([[0, 0, 3]]) == 1
    assert matrix_rank_exact([[F(1, 2), 0]]) == 1
    assert matrix_rank_exact([[]]) == 0
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
    assert matrix_rank_exact([[p, 1], [0, p]]) == 2
    assert calls == [[[p, 1], [0, p]]]
    calls.clear()
    assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
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
    assert matrix_rank_exact(rows) == sympy.Matrix(rows).rank() == 1
    assert calls == [[0]]
