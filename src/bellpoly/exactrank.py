"""Exact affine rank of integer points, by modular elimination with a certificate.

The points are the rows of a 2-D integer array, every |entry| below 2^62;
any other input raises TypeError and is never rounded. The rows minus the
first form one ``np.int64`` matrix M with N rows and n columns. Its rank
over Q is then bounded from both sides, and both bounds are exact:

* Lower bound. Gauss-Jordan elimination of M mod the prime p = 2^31 - 1,
  in int64, picks r pivot rows and r pivot columns whose r x r minor is
  nonzero mod p. The minor is an integer, so it is nonzero over Z, and
  rank_Q(M) >= r.
* Upper bound. The elimination leaves the reduced echelon form R mod p. Per
  free column f, the kernel vector mod p is 1 at f and -R[i, f] at the i-th
  pivot column. Each entry is rebuilt as a fraction with numerator and
  denominator at most sqrt(p/2) in absolute value (Wang's rational
  reconstruction; Monagan, "Maximal quotient rational reconstruction",
  ISSAC 2004), and each column is scaled to coprime integers. The integer
  matrix K has n - r columns, each nonzero on its own free row and 0 on the
  other free rows, so they are independent. If M @ K == 0 exactly, the
  kernel of M has dimension at least n - r, and rank_Q(M) <= r.

The check M @ K == 0 is the certificate; it does not rely on how K was
built, and it always runs on every row of M. When some entry has no small
fraction, a column's denominators have an lcm of 2^31 or more, or K does
not annihilate the pivot rows, K comes instead from fraction-free
Gauss-Jordan elimination of the pivot rows over Z (`_kernel_basis`), which
gives their kernel exactly; the certificate is the same. The lower bound
holds for any subset of M's rows, so a tall M (more than 4n rows) is first
eliminated on 2n rows drawn with a fixed seed, and whole only when the
certificate shows that those rows fall short. If the whole M fails the
check too, p divides every r x r minor the elimination could have used, so
the rank mod p is below the rank over Q. The rank then comes from
`integer_rank`, Bareiss elimination over Z, which stays public as the
reference. Every rank returned is exact.

The facet tests of every polytope end here (`_facet_report`): a face's
vertex count and the rows spanning its affine hull give its `FacetReport`.
So a cut facet test, which needs only this tail, loads no game module.
"""

import random
from math import gcd

import numpy as np

from .records import record

P = 2 ** 31 - 1  # residues below 2^31, so a product of two stays below 2^62
_ENTRY_BOUND = 2 ** 62  # |point entry| below this, so a row difference fits in int64
# the largest N with 2 N^2 < P: distinct fractions with |num|, den <= N
# differ mod P, so `_rational` rebuilds each of them
_FRACTION_BOUND = 2 ** 15 - 1


def _reduced_echelon_mod_p(A):
    """Gauss-Jordan elimination of A (int64 entries in [0, P)) over GF(P), in
    place. The pivot of each column is its first nonzero entry at or below
    the current row. Returns the pivot rows (indices into the original A)
    and the pivot columns, in elimination order; A[:r] is then the reduced
    echelon form, with 1 at (i, pcols[i]) and 0 elsewhere in pivot columns."""
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
        piv = A[r, c:] * pow(int(A[r, c]), -1, P) % P
        A[:, c:] = (A[:, c:] - A[:, c, None] * piv) % P
        A[r, c:] = piv
        prows.append(int(order[r]))
        pcols.append(c)
        r += 1
    return prows, pcols


def _rational(u):
    """num, den with num = den * u mod P, entrywise for the residues u (int64
    entries in [0, P)), by Wang's half-extended Euclid: the remainders stop
    at the first one at most _FRACTION_BOUND. den > 0, and any fraction
    with |num| and den at most _FRACTION_BOUND is the one found; den is
    above the bound where no such fraction exists."""
    num, den = u.copy(), np.ones_like(u)
    idx = np.flatnonzero(u > _FRACTION_BOUND)
    r0, r1 = np.full(idx.size, P, dtype=np.int64), u.flat[idx]
    t0, t1 = np.zeros_like(r1), np.ones_like(r1)
    while idx.size:  # r_i = t_i * u mod P throughout
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
        done = r1 <= _FRACTION_BOUND
        num.flat[idx[done]], den.flat[idx[done]] = r1[done], t1[done]
        idx, r0, r1, t0, t1 = (v[~done] for v in (idx, r0, r1, t0, t1))
    return np.where(den < 0, -num, num), np.abs(den)


def _reconstructed_kernel(R, pcols):
    """Integer kernel basis of the reduced echelon form R (r x n, mod P) read
    over Q, one column per free column f: 1 at f and -R[i, f] at pcols[i],
    each entry rebuilt by `_rational`, the column scaled by the lcm of its
    denominators and divided by its gcd. The column of f is nonzero at f
    and 0 on the other free columns, so the columns are independent. None
    when an entry has no small fraction or a column's lcm reaches 2^31."""
    n = R.shape[1]
    pivot_set = set(pcols)
    free = [c for c in range(n) if c not in pivot_set]
    num, den = _rational(-R[:, free] % P)
    if (den > _FRACTION_BOUND).any():
        return None
    scale = np.lcm.reduce(den, axis=0, initial=1)  # may wrap past int64; checked next
    if (scale <= 0).any() or (scale >= 2 ** 31).any() or (scale % den).any():
        return None
    K = np.zeros((n, len(free)), dtype=np.int64)
    K[pcols, :] = num * (scale // den)
    K[free, range(len(free))] = scale
    return K // np.gcd.reduce(K, axis=0)


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


def _annihilates(M, K) -> bool:
    """Whether M @ K == 0 exactly: in int64 when no sum can overflow, else
    over Python ints (K from `_kernel_basis` is an object array)."""
    bound = int(np.abs(M).max(initial=0)) * int(np.abs(K).max(initial=0)) * M.shape[1]
    if bound < 2 ** 63:
        residual = M @ K.astype(np.int64)
    else:
        residual = M.astype(object) @ K.astype(object)
    return not residual.any()


def _rank_if_certified(M, S):
    """Rank over Q of M when the pivots of S, a subset of M's rows, reach it
    (M @ K == 0 for a kernel basis K of S's pivot rows); None otherwise. K
    is rebuilt from the reduced echelon form mod P, and built exactly by
    `_kernel_basis` when that fails or leaves a pivot row nonzero. A K that
    annihilates the r pivot rows spans their kernel, as their rank is at
    least r and K has n - r independent columns; the exact basis would then
    fail on M just as K does."""
    A = (S % P).astype(np.int64)
    prows, pcols = _reduced_echelon_mod_p(A)
    r, n = len(prows), M.shape[1]
    if r == n:
        return n  # the lower bound already reaches the column count
    K = _reconstructed_kernel(A[:r], pcols)
    if K is None or not _annihilates(S[prows], K):
        K = _kernel_basis(S[prows], pcols)
    return r if _annihilates(M, K) else None


def _certified_rank(M):
    """Rank over Q of the int64 matrix M. A wide M is transposed first,
    which keeps its rank and shrinks the kernel basis the certificate
    builds to fewer columns than M has rows."""
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


def affine_rank(points):
    """Affine dimension of the points that are the rows of `points`, a 2-D
    bool or integer array (or nested Python ints) with every |entry| below
    2^62; TypeError otherwise. A single point has dimension 0, and an empty
    set raises ValueError (polytope code filters it out and uses -1)."""
    if len(points) == 0:
        raise ValueError("affine rank of an empty point set")
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.dtype.kind not in "bi":
        raise TypeError("affine_rank takes the points as rows of a 2-D integer array")
    pts = pts.astype(np.int64, copy=False)
    if pts.max(initial=0) >= _ENTRY_BOUND or pts.min(initial=0) <= -_ENTRY_BOUND:
        raise TypeError("affine_rank takes entries below 2^62 in absolute value")
    return _certified_rank(pts[1:] - pts[0])


# ---------------------------------------------------------------------------
# the facet-test tail
# ---------------------------------------------------------------------------

@record
class FacetReport:
    """Outcome of a facet test.

    saturating_affine_dim is -1 when the saturating set is empty or (for a
    decomposition verdict whose facet test exceeds the budget) when the
    statistics were skipped; `notes` says which. A facet's saturating set
    spans ambient_dim - 1 dimensions, which defines is_facet.
    """
    polytope_kind: str
    ambient_dim: int
    saturating_count: int
    saturating_affine_dim: int
    decomposition: tuple = None
    trivial_facet_class: bool = False
    notes: tuple = ()

    @property
    def is_facet(self) -> bool:
        return self.saturating_affine_dim == self.ambient_dim - 1


def _facet_report(kind, ambient, count, rows, trivial=False):
    """The facet-test tail, given the number of vertices meeting the bound
    and integer coordinate rows spanning their affine hull: a facet's
    vertices span ambient - 1 dimensions."""
    dim = affine_rank(rows) if count else -1
    return FacetReport(kind, ambient, count, dim, trivial_facet_class=trivial)
