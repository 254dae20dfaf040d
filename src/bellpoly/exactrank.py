"""Exact rank of rational matrices, by modular elimination with a certificate.

The rows become one integer matrix M with N rows and n columns. Rows of
integers are taken as they are; any other row is scaled once by the lcm of
its denominators, which keeps its rank. M is an ``np.int64`` array while
every entry is below 2^62 in absolute value, and an ``object`` array of
Python ints otherwise. Its rank over Q is then bounded from both sides, and
both bounds are exact:

* Lower bound. Gaussian elimination of M mod the prime p = 2^31 - 1 picks r
  pivot rows and r pivot columns whose r x r minor is nonzero mod p. The
  minor is an integer, so it is nonzero over Z, and rank_Q(M) >= r.
* Upper bound. Fraction-free Gauss-Jordan elimination of the r pivot rows
  gives an integer matrix K with n - r columns that carries d*I (d nonzero)
  on the free columns, so its columns are independent. If M @ K == 0
  exactly, the kernel of M has dimension at least n - r, and
  rank_Q(M) <= r.

The check M @ K == 0 is the certificate; it does not rely on how K was
built, and it always runs on every row of M. The lower bound holds for any
subset of M's rows, so a tall M (more than 4n rows) is first eliminated on
2n rows drawn with a fixed seed, and whole only when the certificate shows
that those rows fall short. If the whole M fails the check too, p divides
every r x r minor the elimination could have used, so the rank mod p is
below the rank over Q. The rank then comes from `integer_rank`, Bareiss
elimination over Z, which stays public as the reference. Every rank returned
is exact.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np

P = 2 ** 31 - 1  # residues below 2^31, so a product of two stays below 2^62
_INT64_MAX = 2 ** 62  # int64 entries stay below this, so one subtraction fits


def _integer_array(rows):
    """rows as a 2-D integer array when every entry is an integer, else None."""
    try:
        a = np.array(rows)
    except (ValueError, OverflowError):
        return None
    if a.ndim != 2 or a.dtype.kind not in "bi":
        return None  # Fractions, floats, or integers beyond int64
    a = a.astype(np.int64, copy=False)
    if a.size and (a.max() >= _INT64_MAX or a.min() <= -_INT64_MAX):
        return a.astype(object)
    return a


def _scaled_rows(rows):
    """Rational rows, each scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        fr = [Fraction(v) for v in row]
        den = lcm(*(f.denominator for f in fr))
        out.append([f.numerator * (den // f.denominator) for f in fr])
    a = np.array(out, dtype=object)
    if a.size and max(abs(v) for v in a.flat) < _INT64_MAX:
        return a.astype(np.int64)
    return a


def _pivots_mod_p(A):
    """Row echelon elimination of A (int64 entries in [0, P)) over GF(P), in
    place. Returns the pivot rows (indices into the original A) and the pivot
    columns, in elimination order."""
    nrows, ncols = A.shape
    order = np.arange(nrows)
    prows, pcols = [], []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        k = r + int(nz[0])
        if k != r:
            A[[r, k]] = A[[k, r]]
            order[[r, k]] = order[[k, r]]
        piv = A[r, c:] * pow(int(A[r, c]), P - 2, P) % P
        below = A[r + 1:, c:]
        below -= np.multiply.outer(below[:, 0], piv)
        below %= P
        prows.append(int(order[r]))
        pcols.append(c)
        r += 1
    return prows, pcols


def _kernel_basis(S, pcols):
    """Integer kernel basis of S (r x n), one column per free column.

    In pivot order the leading minors of S on pcols are nonzero, so
    fraction-free Gauss-Jordan elimination needs no row swaps. It turns S
    into d*I on the pivot columns and X on the free ones; the basis is
    -X on the pivot rows over d*I on the free rows, each column divided by
    the gcd of its entries."""
    n = S.shape[1]
    pivot_set = set(pcols)
    free = [c for c in range(n) if c not in pivot_set]
    A = S.astype(object)
    d = 1
    for i, c in enumerate(pcols):
        row, piv = A[i].copy(), A[i, c]
        A = (piv * A - np.multiply.outer(A[:, c], row)) // d
        A[i] = row
        d = piv
    K = np.zeros((n, len(free)), dtype=object)
    K[pcols, :] = -A[:, free]
    K[free, range(len(free))] = d
    for j in range(len(free)):
        K[:, j] //= gcd(*K[:, j].tolist())
    return K


def _rank_if_certified(M, S):
    """Rank over Q of M when the pivots of S, a subset of M's rows, reach it
    (M @ K == 0 for the kernel basis K of S's pivot rows); None otherwise."""
    prows, pcols = _pivots_mod_p((S % P).astype(np.int64))
    n = M.shape[1]
    if len(prows) == n:
        return n  # the lower bound already reaches the column count
    K = _kernel_basis(S[prows], pcols)
    bound = int(np.abs(M).max()) * max(abs(v) for v in K.flat) * n
    if M.dtype != object and bound < 2 ** 63:
        residual = M @ K.astype(np.int64)
    else:
        residual = M.astype(object) @ K
    return None if residual.any() else len(prows)


def _certified_rank(M):
    """Rank over Q of the integer matrix M (int64 or object array). A wide M
    is transposed first, which keeps its rank and shrinks the kernel basis
    the certificate builds to fewer columns than M has rows."""
    if M.size == 0:
        return 0
    if M.shape[0] < M.shape[1]:
        M = M.T
    nrows, n = M.shape
    if nrows > 4 * n:
        sample = sorted(random.Random(0).sample(range(nrows), 2 * n))
        r = _rank_if_certified(M, M[sample])
        if r is not None:
            return r
    r = _rank_if_certified(M, M)
    if r is not None:
        return r
    return integer_rank(M.tolist())  # p was unlucky: rank mod p < rank over Q


def integer_rank(rows):
    """Rank over Q of a matrix with integer entries (Bareiss elimination).

    Division-free pivoting with the Bareiss determinant identity keeps every
    intermediate value an exact integer. The reference the certified rank
    falls back on.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, len(m)):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def matrix_rank_exact(rows):
    """Rank over Q; rows may contain Fractions or ints."""
    rows = list(rows)
    if not rows:
        return 0
    M = _integer_array(rows)
    return _certified_rank(_scaled_rows(rows) if M is None else M)


def affine_rank(points):
    """Affine dimension of a finite point set with rational coordinates.

    Empty input is the caller's problem (polytope code uses -1 by convention
    and filters before calling). A single point has affine dimension 0.
    """
    pts = list(points)
    if not pts:
        raise ValueError("affine rank of an empty point set")
    M = _integer_array(pts)
    if M is None:
        base = [Fraction(v) for v in pts[0]]
        M = _scaled_rows([[Fraction(v) - b for v, b in zip(p, base)] for p in pts[1:]])
    else:
        M = M[1:] - M[0]
    return _certified_rank(M)
