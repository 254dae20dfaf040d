"""Exact classical/no-signaling values and norm-based quantum upper bounds.

The classical optimum comes from one best-response scan (`_scan`), which
facet tests share: it enumerates the response maps of the side with fewer,
and the other side answers each with its best output per input, which is
equivalent to enumerating all strategy pairs because that optimum decomposes
across inputs. When a value scan enumerates Alice's maps and a joint output
shift a -> a + 1, b -> b + s (s = -1 for every linear game, +1 for a unique
game of rotations only) keeps the functional, every map has the value of its
shifted maps, and shifting an optimal map by minus its first output gives
one answering 0 there, no later in lexicographic order: so the scan
enumerates only the maps whose first output is 0, a d-th of them, and finds
the same value and witness. Facet-test scans, which count every optimal
box, and scans of Bob's maps, whose witness is not kept by the shift,
enumerate every map. Every scan, a value, facet or Bob-side one, holds its
partial sums in the narrowest integers that ma * mb times the largest
|entry|, which bounds every sum it forms, fits: int16 below 2^15, int32
below 2^31, else the functional's own int64 or Python ints. The scan runs
on the game's integer weights, built once per game (`scaled_weights`), and
the winning strategy is re-verified in exact rational arithmetic before
being returned: `strategy_value` finds the won cells by one call of the
game's array-valued win rule (`winning_b`), the rule the functional's table
is built from, and sums their rational weights q as numerators over the
lcm of their denominators; it never reads the integer weights or the
scan's table.

Quantum upper bounds come from one formula (`_linear_bound`) over the norms
of a game's Fourier blocks (`games.fourier_blocks`, read from the float
weights built once per game), each norm a certified interval (`NormBound`):
a linear game's single blocks Phi_k have their spectral norms, from one
stacked SVD, and a 3-output unique game's two coset blocks their joint
norm, bounded above by a one-dimensional eigenvalue envelope, minimised by
a safeguarded secant search, and below by feasible points. The weights are
real, so the blocks of d - k are the entrywise conjugates of those of k,
with the same norms: each is computed once, for k = 1..d // 2.

No quantum advantage is decided by one comparison (`_no_advantage`): the
exact classical value c meets the norm bound within BOUND_TOL times the
total weight. As c <= quantum value <= bound, the classical witness is then
an optimal quantum strategy too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import exp, inf, lcm, log, log1p, sqrt
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DEFAULT_BOX_BUDGET, BudgetExceededError, VerificationError
from .games import fourier_blocks, scaled_functionals
from .records import record

BOUND_TOL = 1e-9  # relative to the total weight
DEGENERACY_RTOL = 1e-9


@record
class ClassicalValue:
    value: Fraction
    a_map: tuple
    b_map: tuple


@record
class NoAdvantageVerdict:
    strategy: tuple = None  # (a_map, b_map) when the condition holds
    reason: str = None      # set when inconclusive

    @property
    def holds(self) -> bool:
        return self.strategy is not None


@record
class ValueReport:
    classical: Fraction
    no_signaling: Fraction
    witness: tuple
    norm_bound: NormBound  # the certified norms behind quantum_upper_bound
    no_advantage: NoAdvantageVerdict = None

    @property
    def quantum_upper_bound(self) -> float:
        return self.norm_bound.value

    @property
    def bound_error(self) -> float:
        return self.norm_bound.error


def _outputs(side, outputs, m, d) -> np.ndarray:
    """A response map as an int array, or ValueError unless it gives one
    integer output in Z_d to each of m inputs."""
    arr = np.asarray(outputs)
    listed = arr.tolist()
    if arr.shape != (m,) or arr.dtype.kind not in "iu" or not 0 <= min(listed) <= max(listed) < d:
        raise ValueError(f"{side} must give one output in Z_{d} to each of {m} inputs, "
                         f"got {outputs!r}")
    return arr


def strategy_value(g, a_map, b_map) -> Fraction:
    """Exact winning weight of a deterministic strategy pair: the rational
    weights q(x, y) of the cells it wins, found by one call of the win rule
    (`g.winning_b`) at (x, y, a_map[x]) compared with b_map[y], summed as
    numerators over the lcm of those weights' own denominators. A map whose
    length is not the side's input count, or with an output outside Z_d,
    raises ValueError."""
    a = _outputs("a_map", a_map, g.ma, g.d)
    b = _outputs("b_map", b_map, g.mb, g.d)
    wins = g.winning_b(a[:, None], np.arange(g.ma)[:, None], np.arange(g.mb)) == b
    won = list(compress(chain.from_iterable(g.q), wins.ravel().tolist()))
    dens = [v.denominator for v in won]
    den = lcm(*dens)
    return Fraction(sum([v.numerator * (den // d) for v, d in zip(won, dens)]), den)


def ns_value(g) -> Fraction:
    """No-signaling value: every cell is winnable with certainty by a
    no-signaling box, so the optimum is the total weight."""
    return g.total_weight


class _Scan(NamedTuple):
    """The best-response scan of an integer functional C[x, y, a, b]; the
    fields after `alice` are set by a scan with tie sets and describe the
    boxes of value `top`."""
    top: int                 # the largest value on a deterministic box
    box: tuple               # the lexicographically first box (a_map, b_map) of value top
    alice: bool              # whether Alice's maps were enumerated (else Bob's)
    count: int = 0           # the boxes of value top
    rows: int = 0            # rank rows: per optimal map, 1 + one per other best answer
    maps: np.ndarray = None  # the optimal maps as digit rows, when rows fit the budget
    ties: np.ndarray = None  # ties[k, j, o]: o is a best answer at j against maps[k]


def _partial_sums(E):
    """P[b, j, s] = sum_i E[i, b, j, s_i] over all output strings s of E's
    inputs, numbered lexicographically with the first input most significant."""
    P = np.zeros(E.shape[1:3] + (1,), dtype=E.dtype)
    for t in E:
        P = (P[..., :, None] + t[..., None, :]).reshape(E.shape[1:3] + (-1,))
    return P


_SCAN_CELLS = 1 << 18  # partial sums per slab of a scan, to bound its memory


def _scan_chunk(hi, lo, start, stop, alice, ties):
    """The best total over the maps whose high digits are strings start..stop
    of hi and low digits any string of lo, the two partial-sum tables
    ([b, j, s]); a key whose least value over the chunks attaining the
    best names the witness (the first such map when Alice's are enumerated,
    else the least of Alice's first best answers to such maps); with `ties`,
    the numbers of those maps, their rank rows and boxes, and the tie sets
    against them ([map, j, b]), built for those maps only, a bounded number
    of them at a time."""
    d, L = lo.shape[0], lo.shape[2]
    # best[j, c, l]: the best answer's score at input j against map (c, l)
    best = hi[0, :, start:stop, None] + lo[0, :, None, :]
    for b in range(1, d):
        np.maximum(best, hi[b, :, start:stop, None] + lo[b, :, None, :], out=best)
    totals = best.sum(axis=0, dtype=best.dtype).ravel()
    top = totals.max()
    if alice and not ties:
        return top, start * L + int(totals.argmax()), None
    k = np.flatnonzero(totals == top)
    c, l = np.divmod(k, L)
    T = np.empty((len(k), lo.shape[1], d), dtype=bool)
    step = max(1, _SCAN_CELLS // lo[..., 0].size)  # maps at a time, to bound the slab
    for r in range(0, len(k), step):
        cr, lr = c[r:r + step], l[r:r + step]
        scores = hi[:, :, start + cr] + lo[:, :, lr]  # [output, input, map]
        T[r:r + step] = (scores == best[:, cr, lr]).transpose(2, 1, 0)
    answers = None if alice else T.argmax(axis=2)
    key = start * L + int(k[0]) if alice else tuple(answers[np.lexsort(answers.T[::-1])[0]])
    if not ties:
        return top, key, None
    sizes = T.sum(axis=2)
    rows = int(sizes.sum(dtype=np.int64)) - len(k) * (sizes.shape[1] - 1)
    # a map's boxes: the product of its tie-set sizes, exact in int64 when
    # the answering side has fewer than 2^63 maps
    boxes = sizes.prod(axis=1, dtype=np.int64 if d ** sizes.shape[1] < 2 ** 63 else object)
    return top, key, (k + start * L, rows, sum(boxes.tolist()), T)


def _digits(numbers, m, base):
    """The m-digit base-`base` strings of the numbers, most significant first."""
    return np.asarray(numbers, dtype=np.int64)[..., None] // base ** np.arange(m)[::-1] % base


def _shift_invariant(C) -> bool:
    """Whether a joint output shift a -> a + 1, b -> b + s (mod d) keeps
    C[x, y, a, b] for a step s of -1 or 1: whether C[:, :, a, b] is
    C[:, :, 0, (b - s a) mod d], by one comparison per step with a strided
    view, no copy, of C[:, :, 0] written twice over, whose window a (for
    s = -1) or d - a (for s = 1) is that row. A linear game's functional
    (b = f - a) keeps the step -1, a unique game's of rotations only
    (b = a + c) the step 1."""
    d = C.shape[3]
    twice = np.concatenate((C[:, :, 0],) * 2, axis=2)
    x, y, b = twice.strides
    windows = as_strided(twice, C.shape[:2] + (d + 1, d), (x, y, b, b), writeable=False)
    return bool((C == windows[..., :d, :]).all() or (C == windows[..., d:0:-1, :]).all())


def _narrow_dtype(C):
    """The narrowest of int16 and int32 that holds every partial sum a scan
    of C[x, y, a, b] forms, each at most ma * mb * max|C| in size, or None
    (keep C's int64 or Python ints)."""
    if not C.size:
        return None
    bound = C.shape[0] * C.shape[1] * int(max(C.max(), -C.min()))
    return np.int16 if bound < 2 ** 15 else np.int32 if bound < 2 ** 31 else None


def _scan(C, budget, ties=False, cols=1) -> _Scan:
    """Maximise the integer functional C[x, y, a, b] (int64, or Python ints
    when a sum could reach 2^62) over deterministic boxes, enumerating the
    maps of the side with fewer (Alice's on a tie) over partial-sum tables of
    their high and low inputs; the budget on those maps (all d^m of them) is
    checked first. Without `ties`, a scan of Alice's maps on a functional
    that a joint output shift keeps (`_shift_invariant`) fixes her first
    input's output at 0, as the first optimal map of each shift orbit
    answers 0 there, and folds that input's column into the high table.
    With `ties`, or when Bob's maps are enumerated, every map is scanned;
    with `ties`, the optimal maps and tie sets are kept only while their
    rank rows, `cols` cells each, fit the budget. Every scan's tables, the
    folded column and the maps' totals are int16 when ma * mb * max|C| <
    2^15, int32 when it is below 2^31, else in C's dtype (`_narrow_dtype`),
    as that product bounds every sum. The high digit strings are scanned
    in slabs of at most `_SCAN_CELLS` partial sums, in order, and a top
    whose rank rows exceed the budget keeps no tie sets."""
    ma, mb, da, db = C.shape
    n_maps = min(da ** ma, db ** mb)
    if n_maps > budget:
        raise BudgetExceededError(
            f"{n_maps} response maps exceed the strategy budget of {budget}")
    alice = da ** ma <= db ** mb
    # E[i, b, j, c]: enumerated input i answered with c, answering input j with b
    E = C.transpose((0, 3, 1, 2) if alice else (1, 2, 0, 3))
    n, base = E.shape[0], E.shape[-1]
    lead = None  # the first input's column [b, j] when it answers 0 on every map
    if alice and not ties and da == db and C.size and _shift_invariant(C):
        lead, E = E[0, :, :, 0], E[1:]
    narrow = _narrow_dtype(C)
    if narrow is not None:
        E = E.astype(narrow)
        lead = None if lead is None else lead.astype(narrow)
    h = len(E) // 2
    hi, lo = _partial_sums(E[:h]), _partial_sums(E[h:])
    if lead is not None:
        hi += lead[..., None]

    step = max(1, _SCAN_CELLS // max(1, lo[0].size))
    top = key = None
    found, count, rows = [], 0, 0
    for r in range(0, hi.shape[2], step):
        t, k, part = _scan_chunk(hi, lo, r, min(r + step, hi.shape[2]), alice, ties)
        if top is not None and t < top:
            continue
        if top is None or t > top:
            top, key, found, count, rows = t, k, [], 0, 0
        key = min(key, k)
        if ties:
            numbers, chunk_rows, chunk_count, T = part
            count, rows = count + chunk_count, rows + chunk_rows
            if found is None or rows * cols > budget:
                found = None
            else:
                found.append((numbers, T))

    a_map = _digits(key, n, base) if alice else np.array(key, dtype=np.int64)
    b_map = C[np.arange(ma), :, a_map].sum(axis=0).argmax(axis=1)  # Bob's first best answers
    scan = _Scan(int(top), (tuple(a_map.tolist()), tuple(b_map.tolist())), alice)
    if not ties:
        return scan
    if found is None:
        return scan._replace(count=count, rows=rows)
    numbers, T = (np.concatenate(parts) for parts in zip(*found))
    return scan._replace(count=count, rows=rows, maps=_digits(numbers, n, base),
                         ties=T)


def _pruned_scan(C, budget) -> _Scan:
    """`_scan` of the integer functional C[x, y, a, b] without the Alice and
    Bob inputs whose cells are all zero (C is copied only when one is
    dropped); the scan's box is given on every input, a dropped input
    answering 0."""
    weighed = (C != 0).any(axis=(2, 3))
    rows, cols = np.flatnonzero(weighed.any(axis=1)), np.flatnonzero(weighed.any(axis=0))
    if len(rows) == C.shape[0] and len(cols) == C.shape[1]:
        return _scan(C, budget)
    scan = _scan(C[np.ix_(rows, cols)], budget)
    a_map, b_map = np.zeros(C.shape[0], dtype=np.int64), np.zeros(C.shape[1], dtype=np.int64)
    a_map[rows], b_map[cols] = scan.box
    return scan._replace(box=(tuple(a_map.tolist()), tuple(b_map.tolist())))


def classical_value(g, budget: int = DEFAULT_BOX_BUDGET) -> ClassicalValue:
    """Exact classical optimum with the lexicographically first optimal
    (a_map, b_map) as witness, re-evaluated in exact rationals: one
    `_pruned_scan` of the integer game functional, whose budget counts the
    maps of the side with fewer."""
    C, den = scaled_functionals(g)
    return _exact_value(g, _pruned_scan(C, budget), den)


def _exact_value(g, scan, den) -> ClassicalValue:
    """The classical value scan.top / den of g, from a scan of its functional;
    the scan's box is the witness, and VerificationError is raised unless it
    attains that value in exact rationals."""
    a_map, b_map = scan.box
    val, found = strategy_value(g, a_map, b_map), Fraction(scan.top, den)
    if val != found:
        raise VerificationError(
            f"integer-scaled search disagrees with exact re-evaluation ({found} vs {val})")
    return ClassicalValue(val, a_map, b_map)


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------

def spectral_norm(m) -> float:
    """Largest singular value of a complex array."""
    arr = np.asarray(m, dtype=complex)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def spectral_norms(mats) -> list:
    """The largest singular value of each of the equally shaped complex
    arrays `mats`, from one stacked SVD; each equals its `spectral_norm`."""
    arr = np.asarray(mats, dtype=complex)
    if arr.size == 0:
        return [0.0] * len(arr)
    return np.linalg.svd(arr, compute_uv=False)[:, 0].tolist()


def _bound_error_estimate(d, ma, mb, norms):
    # conservative envelope for LAPACK singular values: ~1e-15 relative each
    return sqrt(ma * mb) / d * sum(norms) * 1e-13 + 1e-15


def norm_bound_linear(g) -> float:
    """Upper bound on the quantum value of a game (`norm_bound`)."""
    return norm_bound(g, fourier_blocks(g)).value


def _linear_bound(g, norms) -> float:
    """(1/d) [W + sqrt(ma mb) * sum_k N_k] for the norms N_k of g's k-th
    Fourier blocks, clamped at the no-signaling value W (the clamp matters
    only for unnormalized fragments)."""
    W = float(g.total_weight)
    raw = (W + sqrt(g.ma * g.mb) * sum(norms)) / g.d
    return min(raw, W)


def _unit(v, fallback):
    """v scaled to unit length, or the fallback when v is zero."""
    n = np.linalg.norm(v)
    return v / n if n > 0 else fallback


def _ascent(A, B, x1, x2, goal) -> float:
    """The best value ||A x1 + B x2|| of a monotone alternating ascent from
    the unit pair (x1, x2): x1 <- A^dag y / ||.||, the same for x2, with
    y = A x1 + B x2. It stops at the goal or at a step that gains nothing;
    the cap of 100 steps only bounds a start that gains ever less."""
    best = 0.0
    for _ in range(100):
        y = A @ x1 + B @ x2
        val = float(np.linalg.norm(y))
        if val <= best:
            break
        best = val
        if best >= goal:
            break
        x1, x2 = _unit(A.conj().T @ y, x1), _unit(B.conj().T @ y, x2)
    return best


def gen_norm_detailed(a, b):
    """A certified interval (lower, upper) for the joint norm
    N = max { ||a x1 + b x2|| : ||x1|| = ||x2|| = 1 }.

    Upper end: for a unit y, |y^dag (a x1 + b x2)| <= ||a^dag y|| + ||b^dag y||,
    whose square is at most y^dag ((1+s) P + (1+1/s) Q) y for every s > 0,
    with P = a a^dag and Q = b b^dag. So N^2 <= lambda_max((1+s) P + (1+1/s) Q)
    for every s, with equality at the minimum over s: a complex quadratic
    problem with two constraints has no duality gap (the S-lemma; Polik &
    Terlaky, SIAM Review 49 (2007)). lambda_max is convex in t = log s, with
    derivative s ||a^dag v||^2 - ||b^dag v||^2 / s at a top eigenvector v,
    and its minimum is searched for inside the bracket that
    (1+s) ||a||^2 <= N^2 <= (||a|| + ||b||)^2 and its mirror image give: a
    secant step on that derivative through the bracket's ends (Illinois: the
    derivative of an end kept twice in a row is halved), and a bisection
    step while an end's derivative is unknown, when the secant point leaves
    the bracket, or after two steps in a row that did not halve it. Every
    step keeps the side of the bracket that the derivative's sign leaves.
    The upper end is the square root of the least lambda_max seen plus a
    float error term for forming the matrix and for eigh; every s gives an
    upper bound, so it is valid whatever points the search visits.

    Lower end: a top eigenvector v gives the unit pair x1 ~ a^dag v,
    x2 ~ b^dag v, of value at least ||a^dag v|| + ||b^dag v||. The search
    stops once that meets the upper end within twice its error term; failing
    that, a monotone alternating ascent (x1 <- a^dag y / ||.||, and the same
    for x2, with y = a x1 + b x2) starts from each vector of the top
    eigenspace at the minimiser and from the top right singular pair, and
    stops when it meets the upper end or stops gaining.

    Both ends lie in [max(||a||, ||b||), ||a|| + ||b||]. When the smaller
    norm is below the float resolution of the larger (a zero block), that
    range is the interval: N is a plain spectral norm.
    """
    A, B = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if A.shape[0] != B.shape[0]:
        raise ValueError("matrices must share their output dimension")
    na, nb = spectral_norm(A), spectral_norm(B)
    c, eps = max(na, nb), np.finfo(float).eps
    if min(na, nb) <= eps * c:
        return c, na + nb
    # scaled by the larger norm, so that P and Q neither overflow nor lose
    # digits to underflow; the parts are divided apart, as numpy's complex
    # division overflows when c is subnormal
    A, B = (M.real / c + 1j * (M.imag / c) for M in (A, B))
    Ah, Bh = A.conj().T, B.conj().T
    P, Q = A @ Ah, B @ Bh
    # a generous envelope for the rounding of P, Q, M and of eigh's lambda_max
    err = 4 * eps * sum(A.shape + B.shape[1:])
    fa, fb = np.linalg.norm(A) ** 2, np.linalg.norm(B) ** 2
    r = nb / na
    lo, hi = 2 * log(r) - log1p(2 * r), log(r) + log(2 + r)
    dlo = dhi = None  # the derivative at lo and at hi, once a step has landed there
    moved, slow = 0, 0  # the end the last step moved (-1 lo, 1 hi); steps that did not halve
    lower, upper = 1.0, inf
    while hi - lo > 4 * eps * max(1.0, -lo, hi):
        width = hi - lo
        t = (lo + hi) / 2
        if dlo is not None and dhi is not None and slow < 2:
            secant = hi - dhi * width / (dhi - dlo)
            if lo < secant < hi:
                t = secant
        s = exp(t)
        w, V = np.linalg.eigh((1 + s) * P + (1 + 1 / s) * Q)
        bound = sqrt(w[-1] + err * ((1 + s) * fa + (1 + 1 / s) * fb))
        if bound < upper:
            upper, slack, top = bound, bound - sqrt(w[-1]), (w, V)
        v = V[:, -1]
        pa, pb = np.linalg.norm(Ah @ v), np.linalg.norm(Bh @ v)
        lower = max(lower, pa + pb)
        if lower >= upper - 2 * slack:
            break
        slope = s * pa * pa - pb * pb / s
        # Illinois: an end kept twice in a row has its derivative halved
        if slope > 0:
            hi, dhi = t, slope
            if moved == 1 and dlo is not None:
                dlo /= 2
            moved = 1
        else:
            lo, dlo = t, slope
            if moved == -1 and dhi is not None:
                dhi /= 2
            moved = -1
        slow = slow + 1 if hi - lo > width / 2 else 0
    upper = min(upper, (na + nb) / c)
    goal = upper - 2 * slack  # the lower end meets the upper end within its error term
    if lower < goal:
        w, V = top
        ra, rb = (np.linalg.svd(M)[2][0].conj() for M in (A, B))
        starts = [(_unit(Ah @ v, ra), _unit(Bh @ v, rb))
                  for v in V[:, w >= w[-1] * (1 - DEGENERACY_RTOL)].T] + [(ra, rb)]
        for x1, x2 in starts:
            lower = max(lower, _ascent(A, B, x1, x2, goal))
            if lower >= goal:
                break
    upper = min(max(c * upper, c), na + nb)
    return min(float(c * lower), upper), upper


@record
class NormBound:
    """A game's norm bound, `_linear_bound` at the upper ends of certified
    intervals (lower, upper) for the norms of its k-th Fourier blocks,
    k = 1..d-1: the spectral norm of one block, the joint norm
    (`gen_norm_detailed`) of two. One interval is computed per conjugate
    pair of blocks, k and d - k, and stands at both indices."""
    value: float
    error: float   # the float envelope of value
    norms: tuple   # (lower, upper) per k

    @property
    def certified(self) -> bool:
        """Whether every interval is at most 1e-9 wide."""
        return all(hi - lo <= 1e-9 for lo, hi in self.norms)

    @property
    def precisions(self) -> tuple:
        """Per norm, the precision of its upper end: the interval's width
        plus the float envelope of one norm."""
        return tuple(hi - lo + _bound_error_estimate(1, 1, 1, (hi,)) for lo, hi in self.norms)


def norm_bound(g, blocks) -> NormBound:
    """The norm bound of g from its Fourier blocks `blocks`, those of
    `fourier_blocks(g)`. The weights are real, so block d - k is the
    entrywise conjugate of block k and has its norms: they are computed for
    k = 1..d // 2 only, the single blocks' from one `spectral_norms` call,
    and block d - k takes block k's interval."""
    half = blocks[:g.d // 2]
    tops = iter(spectral_norms([b[0] for b in half if len(b) == 1]))
    own = [(next(tops),) * 2 if len(b) == 1 else gen_norm_detailed(*b) for b in half]
    norms = tuple(own[min(k, g.d - k) - 1] for k in range(1, g.d))
    upper = [hi for _, hi in norms]
    return NormBound(_linear_bound(g, upper), _bound_error_estimate(g.d, g.ma, g.mb, upper),
                     norms)


# ---------------------------------------------------------------------------
# no-advantage condition
# ---------------------------------------------------------------------------

def sufficient_no_advantage(g) -> NoAdvantageVerdict:
    """A sufficient condition for no quantum advantage: the exact classical
    value c meets the norm bound within BOUND_TOL times the total weight W.
    As c <= quantum value <= bound, the quantum value is then c, and the
    classical witness, re-checked exactly by `classical_value`, is an
    optimal strategy. The norm bound is an upper bound on both game kinds,
    so the condition reads both.

    Otherwise the verdict is Inconclusive; the condition is one-sided and
    its failure proves nothing.
    """
    return _no_advantage(g, classical_value(g), norm_bound(g, fourier_blocks(g)))


def _no_advantage(g, cv, bound) -> NoAdvantageVerdict:
    """sufficient_no_advantage given g's classical value and norm bound."""
    if abs(float(cv.value) - bound.value) > BOUND_TOL * float(g.total_weight):
        return NoAdvantageVerdict(reason="classical value does not meet the bound")
    return NoAdvantageVerdict(strategy=(cv.a_map, cv.b_map))


def value_report(g, with_sufficient: bool = False,
                 budget: int = DEFAULT_BOX_BUDGET) -> ValueReport:
    """Bundle of the exact values and the norm bound, cross-checked.

    Raises VerificationError if the chain omega_c <= bound <= W is violated
    by more than BOUND_TOL * W; that chain is a theorem, so a violation
    means a bug.
    """
    cv = classical_value(g, budget=budget)
    bound = norm_bound(g, fourier_blocks(g))
    verdict = _no_advantage(g, cv, bound) if with_sufficient else None
    report = ValueReport(cv.value, ns_value(g), (cv.a_map, cv.b_map), bound, verdict)
    verify_value_report(report)
    return report


def verify_value_report(report: ValueReport):
    """Soundness chain: classical <= quantum bound <= no-signaling value W,
    each within BOUND_TOL * W."""
    tol = BOUND_TOL * float(report.no_signaling)
    if float(report.classical) > report.quantum_upper_bound + tol:
        raise VerificationError(
            f"classical value {report.classical} exceeds the quantum bound "
            f"{report.quantum_upper_bound}")
    if report.quantum_upper_bound > float(report.no_signaling) + tol:
        raise VerificationError(
            f"quantum bound {report.quantum_upper_bound} exceeds the no-signaling "
            f"value {report.no_signaling}")
