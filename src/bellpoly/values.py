"""Exact classical/no-signaling values and norm-based quantum upper bounds.

The classical optimum comes from one best-response scan (`_scan`), which
facet tests share: it enumerates the response maps of the side with fewer,
and the other side answers each with its best output per input, which is
equivalent to enumerating all strategy pairs because that optimum decomposes
across inputs. The scan runs on integer-scaled weights, and the winning
strategy is re-verified in exact rational arithmetic before being returned.

Quantum upper bounds come from sums of spectral norms of the Fourier game
matrices; for 3-output unique games the two coset matrices enter through a
joint two-matrix norm, bounded above by a one-dimensional eigenvalue
envelope and below by feasible points, so each is a certified interval.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import exp, inf, log, log1p, sqrt
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .games import GameMatrix, LinearGame, game_matrix, scaled_functionals, unique3_matrices

DEFAULT_STRATEGY_BUDGET = 2 ** 24

SPECTRAL_NORM_RTOL = 1e-12  # promised relative accuracy of spectral_norm
ROOT_OF_UNITY_TOL = 1e-9
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class ClassicalValue:
    value: Fraction
    a_map: tuple
    b_map: tuple


@dataclass(frozen=True)
class NoAdvantageVerdict:
    holds: bool
    strategy: tuple = None  # (a_map, b_map) when holds
    reason: str = None      # set when inconclusive


@dataclass(frozen=True)
class ValueReport:
    classical: Fraction
    no_signaling: Fraction
    quantum_upper_bound: float
    bound_error: float
    witness: tuple
    no_advantage: NoAdvantageVerdict = None
    unique3_bound: Unique3Bound = None  # the joint-norm bound of a unique3 game


def strategy_value(g, a_map, b_map) -> Fraction:
    """Exact winning weight of a deterministic strategy pair."""
    return sum((g.q[x][y] for x in range(g.ma) for y in range(g.mb)
                if g.win(a_map[x], b_map[y], x, y)), Fraction(0))


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


def _scan_axes(alice):
    """The axes of C[x, y, a, b] in the order of E[i, b, j, c], which `_scan`
    reads: enumerated input i answered with c, answering input j with b."""
    return (0, 3, 1, 2) if alice else (1, 2, 0, 3)


def _partial_sums(E):
    """P[b, j, s] = sum_i E[i, b, j, s_i] over all output strings s of E's
    inputs, numbered lexicographically with the first input most significant."""
    P = np.zeros(E.shape[1:3] + (1,), dtype=E.dtype)
    for t in E:
        P = (P[..., :, None] + t[..., None, :]).reshape(E.shape[1:3] + (-1,))
    return P


_SCAN_CELLS = 1 << 18  # partial sums per slab of a scan, to bound its memory


def _box_count(ties) -> int:
    """The boxes answering each map with one best output per input: over
    the maps, the product of the tie-set sizes (exact in int64 when the
    answering side has fewer than 2^63 maps)."""
    n, d = ties.shape[1:]
    sizes = ties.sum(axis=2).prod(axis=1, dtype=np.int64 if d ** n < 2 ** 63 else object)
    sizes, repeats = np.unique(sizes, return_counts=True)
    return sum(int(s) * int(r) for s, r in zip(sizes.tolist(), repeats.tolist()))


def _scan_chunk(hi, lo, start, stop, alice, ties):
    """The best total over the maps whose high digits are strings start..stop
    of hi ([s, b, j]) and low digits any string of lo ([b, j, s]), the two
    partial-sum tables; a key whose least value over the chunks attaining the
    best names the witness (the first such map when Alice's are enumerated,
    else the least of Alice's first best answers to such maps); with `ties`,
    the numbers of those maps and the tie sets against them ([map, j, b])."""
    d, L = lo.shape[0], lo.shape[2]
    best = hi[start:stop, 0, :, None] + lo[0]
    for b in range(1, d):
        np.maximum(best, hi[start:stop, b, :, None] + lo[b], out=best)
    totals = best.sum(axis=1).ravel()
    top = totals.max()
    if alice and not ties:
        return top, start * L + int(totals.argmax()), None
    k = np.flatnonzero(totals == top)
    c, l = np.divmod(k, L)
    T = np.empty((len(k), lo.shape[1], d), dtype=bool)
    step = max(1, _SCAN_CELLS // lo[..., 0].size)  # maps at a time, to bound the slab
    for r in range(0, len(k), step):
        cr, lr = c[r:r + step], l[r:r + step]
        scores = hi[start + cr] + lo[:, :, lr].transpose(2, 0, 1)  # [map, output, input]
        T[r:r + step] = (scores == best[cr, None, :, lr]).transpose(0, 2, 1)
    answers = T.argmax(axis=2)
    key = start * L + int(k[0]) if alice else tuple(answers[np.lexsort(answers.T[::-1])[0]])
    return top, key, (k + start * L, T) if ties else None


def _chunk_results(f, ranges, workers):
    """f on each range, in order; with several workers, that many at a time
    in threads, so at most that many results wait to be read."""
    if len(ranges) > 1 and workers is None:
        workers = os.cpu_count() or 1
    if len(ranges) == 1 or workers == 1:
        yield from map(f, ranges)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for r in range(0, len(ranges), workers):
            yield from ex.map(f, ranges[r:r + workers])


def _digits(numbers, m, base):
    """The m-digit base-`base` strings of the numbers, most significant first."""
    return np.asarray(numbers, dtype=np.int64)[..., None] // base ** np.arange(m)[::-1] % base


def _scan(C, budget, workers=None, ties=False, cols=1) -> _Scan:
    """Maximise the integer functional C[x, y, a, b] (int64, or Python ints
    when a sum could reach 2^62) over deterministic boxes, enumerating the
    maps of the side with fewer (Alice's on a tie) over partial-sum tables of
    their high and low inputs; the budget on those maps is checked first. C
    is read contiguously when its memory holds the axes as `_scan_axes`
    orders them. With `ties`, the optimal maps and tie sets are kept only
    while their rank rows, `cols` cells each, fit the budget. Results do not
    depend on workers."""
    ma, mb, da, db = C.shape
    n_maps = min(da ** ma, db ** mb)
    if n_maps > budget:
        raise BudgetExceededError(
            f"{n_maps} response maps exceed the strategy budget of {budget}")
    alice = da ** ma <= db ** mb
    E = C.transpose(*_scan_axes(alice))
    h = len(E) // 2
    hi = np.ascontiguousarray(_partial_sums(E[:h]).transpose(2, 0, 1))
    lo = _partial_sums(E[h:])

    step = max(1, _SCAN_CELLS // max(1, lo[0].size))
    ranges = [(r, min(r + step, len(hi))) for r in range(0, len(hi), step)]
    top = key = None
    found, count, rows = [], 0, 0
    for t, k, part in _chunk_results(lambda r: _scan_chunk(hi, lo, *r, alice, ties),
                                     ranges, workers):
        if top is not None and t < top:
            continue
        if top is None or t > top:
            top, key, found, count, rows = t, k, [], 0, 0
        key = min(key, k)
        if ties:
            T = part[1]
            count += _box_count(T)
            rows += int(T.sum()) - len(T) * (T.shape[1] - 1)
            found = found + [part] if rows * cols <= budget else None

    a_map = _digits(key, len(E), E.shape[-1]) if alice else np.array(key, dtype=np.int64)
    b_map = C[np.arange(ma), :, a_map].sum(axis=0).argmax(axis=1)  # Bob's first best answers
    scan = _Scan(int(top), (tuple(a_map.tolist()), tuple(b_map.tolist())), alice)
    if not ties:
        return scan
    if found is None:
        return scan._replace(count=count, rows=rows)
    numbers, T = (np.concatenate(parts) for parts in zip(*found))
    return scan._replace(count=count, rows=rows, maps=_digits(numbers, len(E), E.shape[-1]),
                         ties=T)


def classical_value(g, budget: int = DEFAULT_STRATEGY_BUDGET, workers: int = None) -> ClassicalValue:
    """Exact classical optimum with the lexicographically first optimal
    (a_map, b_map) as witness, re-evaluated in exact rationals. Inputs whose
    whole row (Alice) or column (Bob) of weights is zero are fixed to output
    0 and the rest of the integer game functional goes through `_scan`,
    whose budget counts the maps of the side with fewer."""
    rows = [x for x in range(g.ma) if any(g.q[x])]
    cols = [y for y in range(g.mb) if any(row[y] for row in g.q)]
    alice = len(rows) <= len(cols)  # whether _scan enumerates Alice's maps
    C, _, den = scaled_functionals([g], rows=rows, cols=cols, axes=_scan_axes(alice))
    scan = _scan(C[0], budget, workers)
    a, b = dict(zip(rows, scan.box[0])), dict(zip(cols, scan.box[1]))
    a_map = tuple(a.get(x, 0) for x in range(g.ma))
    b_map = tuple(b.get(y, 0) for y in range(g.mb))
    val, found = strategy_value(g, a_map, b_map), Fraction(scan.top, den)
    if val != found:
        raise VerificationError(
            f"integer-scaled search disagrees with exact re-evaluation ({found} vs {val})")
    return ClassicalValue(val, a_map, b_map)


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------

def spectral_norm(m) -> float:
    """Largest singular value; accepts a GameMatrix or a complex array."""
    arr = m.to_complex() if isinstance(m, GameMatrix) else np.asarray(m, dtype=complex)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _bound_error_estimate(d, ma, mb, norms):
    # conservative envelope for LAPACK singular values: ~1e-15 relative each
    return sqrt(ma * mb) / d * sum(norms) * 1e-13 + 1e-15


def norm_bound_linear(g: LinearGame) -> float:
    """Upper bound on the quantum value of a linear game:
    (1/d) [W + sqrt(ma mb) * sum_k ||Phi_k||], clamped at the no-signaling
    value W (the clamp matters only for unnormalized fragments)."""
    return _linear_bound(g, _linear_norms(g))


def _linear_norms(g: LinearGame) -> list:
    """||Phi_k|| for k = 1..d-1."""
    return [spectral_norm(game_matrix(g, k)) for k in range(1, g.d)]


def _linear_bound(g: LinearGame, norms) -> float:
    W = float(g.total_weight)
    raw = (W + sqrt(g.ma * g.mb) * sum(norms)) / g.d
    return min(raw, W)


def gen_norm(a, b) -> float:
    """The upper end of the certified joint-norm interval (`gen_norm_detailed`)."""
    return gen_norm_detailed(a, b)[1]


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
    derivative v^dag (s P - Q / s) v at a top eigenvector v, and its minimum
    is bisected on that sign inside the bracket that (1+s) ||a||^2 <= N^2 <=
    (||a|| + ||b||)^2 and its mirror image give. The upper end is the square
    root of the least lambda_max seen plus a float error term for forming
    the matrix and for eigh; it is valid whatever s the bisection reaches.

    Lower end: a top eigenvector v gives the unit pair x1 ~ a^dag v,
    x2 ~ b^dag v, of value at least ||a^dag v|| + ||b^dag v||. The bisection
    stops once that meets the upper end within twice its error term; failing
    that, a monotone alternating ascent (x1 <- a^dag y / ||.||, and the same
    for x2, with y = a x1 + b x2) starts from each vector of the top
    eigenspace at the minimiser and from the top right singular pair, and
    stops when it meets the upper end or stops gaining.

    Both ends lie in [max(||a||, ||b||), ||a|| + ||b||]. When the smaller
    norm is below the float resolution of the larger (a zero block), that
    range is the interval: N is a plain spectral norm.
    """
    A = np.asarray(a.to_complex() if isinstance(a, GameMatrix) else a, dtype=complex)
    B = np.asarray(b.to_complex() if isinstance(b, GameMatrix) else b, dtype=complex)
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
    lower, upper = 1.0, inf
    while hi - lo > 4 * eps * max(1.0, -lo, hi):
        t = (lo + hi) / 2
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
        if s * pa * pa > pb * pb / s:
            hi = t
        else:
            lo = t
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


@dataclass(frozen=True)
class Unique3Bound:
    """The joint-norm bound of a 3-output unique game, from the upper ends
    of the joint norms' certified intervals."""
    value: float
    certified: bool      # every joint-norm interval is at most 1e-9 wide
    joint_norms: tuple   # (lower, upper) of N(rot_k, ref_k) for k = 1, 2

    @property
    def precisions(self) -> tuple:
        """Per joint norm, the precision of its upper end: the interval's
        width plus the float envelope of one norm."""
        return tuple(hi - lo + _bound_error_estimate(1, 1, 1, (hi,))
                     for lo, hi in self.joint_norms)


def norm_bound_unique3_report(g) -> Unique3Bound:
    """Bound for a 3-output unique game:
    (1/3) [W + sqrt(ma mb) * sum_{k=1,2} N(rot_k, ref_k)], N the two-matrix
    joint norm at the upper end of its certified interval, clamped at W.
    Certified when each interval is at most 1e-9 wide."""
    W = float(g.total_weight)
    joint = tuple(gen_norm_detailed(*unique3_matrices(g, k)) for k in (1, 2))
    raw = (W + sqrt(g.ma * g.mb) * sum(hi for _, hi in joint)) / 3
    return Unique3Bound(min(raw, W), all(hi - lo <= 1e-9 for lo, hi in joint), joint)


def norm_bound_unique3(g) -> float:
    return norm_bound_unique3_report(g).value


# ---------------------------------------------------------------------------
# roots-of-unity sufficient condition
# ---------------------------------------------------------------------------

def sufficient_no_advantage(g: LinearGame, tol: float = ROOT_OF_UNITY_TOL) -> NoAdvantageVerdict:
    """Checks a sufficient condition for the norm bound to be classically
    attained: the top singular pair of Phi_1 must be non-degenerate, both
    vectors entrywise proportional to d-th roots of unity, and substituting
    the k-th power of the phases must give a top singular pair of every
    Phi_k. The strategy read off the phase exponents (a_x from the left
    vector, b_y from the negated right exponents) must then attain the exact
    classical value, which must meet the norm bound within tolerance.

    Any failed step returns Inconclusive with the failed check named; the
    condition is one-sided and its failure proves nothing.
    """
    return _no_advantage(g, tol, _linear_norms(g))


def _no_advantage(g, tol, norms, cv=None) -> NoAdvantageVerdict:
    """sufficient_no_advantage given the norms ||Phi_k||, and the classical
    value when it is known already (else it is computed when needed)."""
    d, ma, mb = g.d, g.ma, g.mb
    mats = [game_matrix(g, k).to_complex() for k in range(1, d)]
    U, S, Vh = np.linalg.svd(mats[0])
    if S[0] <= 0:
        return NoAdvantageVerdict(False, reason="zero game matrix")
    if len(S) > 1 and (S[0] - S[1]) <= DEGENERACY_RTOL * S[0]:
        return NoAdvantageVerdict(False, reason="degenerate top singular value")
    u = U[:, 0]
    v = Vh[0].conj()

    # joint phase fix: rotate the first sizable entry of u to the positive reals
    lead = next((c for c in u if abs(c) > 1e-12), None)
    if lead is None:
        return NoAdvantageVerdict(False, reason="null singular vector")
    u = u * (lead.conjugate() / abs(lead))
    v = v * (lead.conjugate() / abs(lead))

    def root_exponents(vec, m):
        scaled = vec * sqrt(m)
        exps = []
        for c in scaled:
            e = int(round(np.angle(c) * d / (2 * np.pi))) % d
            if abs(c - np.exp(2j * np.pi * e / d)) > tol:
                return None
            exps.append(e)
        return exps

    p_exp = root_exponents(u, ma)
    if p_exp is None:
        return NoAdvantageVerdict(False, reason="left vector entries not d-th roots of unity")
    s_exp = root_exponents(v, mb)
    if s_exp is None:
        return NoAdvantageVerdict(False, reason="right vector entries not d-th roots of unity")

    for k in range(1, d):
        uk = np.exp(2j * np.pi * (k * np.array(p_exp)) / d) / sqrt(ma)
        vk = np.exp(2j * np.pi * (k * np.array(s_exp)) / d) / sqrt(mb)
        if np.linalg.norm(mats[k - 1] @ vk - norms[k - 1] * uk) > tol:
            return NoAdvantageVerdict(False, reason=f"phase substitution fails at k = {k}")

    a_map = tuple(e % d for e in p_exp)
    b_map = tuple((-e) % d for e in s_exp)
    cv = cv or classical_value(g)
    if strategy_value(g, a_map, b_map) != cv.value:
        return NoAdvantageVerdict(False, reason="extracted strategy is not optimal")
    if abs(float(cv.value) - _linear_bound(g, norms)) > tol:
        return NoAdvantageVerdict(False, reason="classical value does not meet the bound")
    return NoAdvantageVerdict(True, strategy=(a_map, b_map))


def value_report(g, with_sufficient: bool = False, budget: int = DEFAULT_STRATEGY_BUDGET,
                 workers: int = None) -> ValueReport:
    """Bundle of the exact values and the norm bound, cross-checked.

    Raises VerificationError if the chain omega_c <= bound + 1e-9 <= W + 1e-9
    is violated; that chain is a theorem, so a violation means a bug.
    """
    cv = classical_value(g, budget=budget, workers=workers)
    W = ns_value(g)
    u3 = verdict = None
    if isinstance(g, LinearGame):
        norms = _linear_norms(g)
        bound = _linear_bound(g, norms)
        err = _bound_error_estimate(g.d, g.ma, g.mb, norms)
        if with_sufficient:
            verdict = _no_advantage(g, ROOT_OF_UNITY_TOL, norms, cv)
    else:
        u3 = norm_bound_unique3_report(g)
        bound = u3.value
        err = _bound_error_estimate(3, g.ma, g.mb, [hi for _, hi in u3.joint_norms])
        if with_sufficient:
            verdict = NoAdvantageVerdict(False, reason="condition applies to linear games")
    report = ValueReport(cv.value, W, bound, err, (cv.a_map, cv.b_map), verdict, u3)
    verify_value_report(report)
    return report


def verify_value_report(report: ValueReport, tol: float = 1e-9):
    """Soundness chain: classical <= quantum bound <= no-signaling value."""
    if float(report.classical) > report.quantum_upper_bound + tol:
        raise VerificationError(
            f"classical value {report.classical} exceeds the quantum bound "
            f"{report.quantum_upper_bound}")
    if report.quantum_upper_bound > float(report.no_signaling) + tol:
        raise VerificationError(
            f"quantum bound {report.quantum_upper_bound} exceeds the no-signaling "
            f"value {report.no_signaling}")
