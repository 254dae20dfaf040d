"""Facet testing and the non-tightness decompositions for NLC-style games.

Bell and correlation facet tests read the classical value's best-response
scan (`values._scan`): its top value rejects an invalid inequality, and its
optimal maps and tie sets give the saturating count and boxes spanning the
saturating set's affine hull. With the cut polytope's own vertex scan (`cut`)
they end in `exactrank._facet_report`, which decides facet-ness by the exact
affine rank. A game's verdict scans its integer functional once (`_game_scan`)
for its bound and its face. Decompositions (`_fragment_report`, for both NLC
families) write the game inequality as a sum of valid fragment inequalities,
the game's functional on some of Alice's inputs, with distinct faces, which
rules out facet-ness without a rank computation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import DEFAULT_BOX_BUDGET, BudgetExceededError, VerificationError
from .exactrank import FacetReport, _facet_report
from .games import LinearGame, fourier_blocks, input_dits, scaled_functionals
from .records import record, replace
from .scenario import BellInequality, _correlator_rows, _reduced_rows, ns_polytope_dimension
from .values import _exact_value, _pruned_scan, _scan

HADAMARD_TOL = 1e-12


@record
class LambdaProfile:
    lambdas: tuple  # lambda(i) for i in Z_d

    def __post_init__(self):
        if sum(self.lambdas, Fraction(0)) != 1:
            raise VerificationError("lambda profile does not sum to 1")

    @property
    def big_lambda(self) -> Fraction:
        return max(self.lambdas)


# ---------------------------------------------------------------------------
# facet tests
# ---------------------------------------------------------------------------

def _bell_roots(s, scan, project, budget, cols):
    """Rows spanning the affine hull of the boxes of value scan.top: per
    optimal map one base box (each answering input at its first best output)
    and one box per other best output of one answering input. With the
    enumerated map fixed, a vertex's coordinates are affine in the answering
    side's one-hot outputs, so these boxes span the same hull. The scan kept
    its tie sets only when these rows, `cols` cells each, fit the budget."""
    if scan.maps is None:
        raise BudgetExceededError(f"{scan.rows} rank rows of {cols} columns "
                                  f"({scan.rows * cols} cells) exceed the budget of {budget}")
    base = scan.ties.argmax(axis=2)
    k, j, o = np.nonzero(scan.ties)
    swap = o != base[k, j]
    k, j, o = k[swap], j[swap], o[swap]
    answers = np.concatenate([base, base[k]])
    answers[len(base) + np.arange(len(k)), j] = o
    maps = np.concatenate([scan.maps, scan.maps[k]])
    return project(s, maps, answers) if scan.alice else project(s, answers, maps)


def _polytope(kind, s):
    """The ambient dimension of the `kind` polytope of scenario s and the
    projection of boxes to its coordinates."""
    if kind == "bell":
        return ns_polytope_dimension(s), _reduced_rows
    if kind != "correlation":
        raise ValueError(f"unknown polytope kind {kind!r}")
    if s.da != 2 or s.db != 2:
        raise ValueError("correlation polytope needs binary outputs")
    return s.ma * s.mb, _correlator_rows


def _face(kind, s, scan, target, budget, trivial=False) -> FacetReport:
    """The facet test of the face of value `target` of a functional on
    scenario s, from its scan (top at most target) and tie sets."""
    ambient, project = _polytope(kind, s)
    if scan.top < target:
        return _facet_report(kind, ambient, 0, None, trivial)
    return _facet_report(kind, ambient, scan.count,
                         _bell_roots(s, scan, project, budget, ambient), trivial)


def facet_test(ineq: BellInequality, kind: str, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Exact facet test against the local polytope.

    kind "bell": ambient dimension is the no-signaling affine dimension, the
    saturating boxes are compared in minimal no-signaling coordinates.
    kind "correlation": binary outputs and a correlator-space inequality
    required; boxes are projected to their ma*mb full correlators. The
    scan reads the inequality's stored integer table and bound as they are.
    The budget bounds the maps scanned and the rank cells; a box above the
    bound raises ValueError naming the first box of largest value."""
    ambient, _ = _polytope(kind, ineq.scenario)
    if kind == "correlation" and ineq.space != "correlator":
        raise ValueError("correlation facet test needs a correlator-space inequality")
    C, target = ineq.table, ineq.scaled_bound
    # single-cell nonnegativity written as <= : one negative coefficient, bound 0
    trivial = bool(target == 0 and np.count_nonzero(C) == 1 and C.min() < 0)
    scan = _scan(C, budget, ties=True, cols=ambient)
    if scan.top > target:
        raise ValueError("inequality is violated by the deterministic box with "
                         "a_map {} and b_map {}".format(*scan.box))
    return _face(kind, ineq.scenario, scan, target, budget, trivial)


def _game_scan(g, kind, budget):
    """g's integer win functional C[x, y, a, b], its denominator, its scan
    with tie sets for the rank on the `kind` polytope, and g's classical
    value: the scan's top, re-checked as `classical_value` checks it."""
    C, den = scaled_functionals(g)
    scan = _scan(C, budget, ties=True, cols=_polytope(kind, g.scenario)[0])
    return C, den, scan, _exact_value(g, scan, den).value


# ---------------------------------------------------------------------------
# fragment decompositions
# ---------------------------------------------------------------------------

def _row_values(C, b_map):
    """r[x, a]: the functional C ([x, y, a, b]) summed over Bob's inputs y at
    his outputs b_map[y], when Alice answers input x with a."""
    return C[:, np.arange(C.shape[1]), :, b_map].sum(axis=0)


def _separated(Ci, Cj, target_j, witness_i) -> bool:
    """Whether a box on fragment i's face lies off fragment j's face: keep
    the witness's Bob outputs and its Alice outputs on the inputs fragment i
    weighs, leaving her other inputs free. Fragment j's least value over
    these boxes adds the fixed rows' values and the free rows' minima; as
    fragment j is valid, they leave its face exactly when that is below its
    bound."""
    a_map, b_map = witness_i
    r = _row_values(Cj, b_map)
    free = (Ci == 0).all(axis=(1, 2, 3))
    return np.where(free, r.min(axis=1), r[np.arange(len(r)), a_map]).sum() < target_j


def _proper(C, keep, targets) -> bool:
    """Whether the faces of the fragments of C on the Alice inputs keep[i],
    of bounds targets[i] (their values), are all proper. A fragment averages
    (its weight)/d over all boxes and over the d^2 constant-output ones, so
    a value above that leaves boxes off its face, and a value equal to it is
    met by every box, as when the fragment has no weight."""
    weights = C.max(axis=(2, 3)).sum(axis=1)  # per Alice input (a cell's top entry is its weight)
    return all(C.shape[-1] * t > weights[k].sum() for k, t in zip(keep, targets))


def _assert_distinct_faces(C, keep, targets, witnesses):
    """Certify that two of the fragment faces of C on the Alice inputs
    keep[i] differ (each fragment's witness attains its bound): a box on one
    face and off another (`_separated`)."""
    rows = keep[:, :, None, None, None]
    if not any(_separated(C * rows[i], C * rows[j], targets[j], witnesses[i])
               for i, j in itertools.permutations(range(len(keep)), 2)):
        raise VerificationError("fragment faces could not be separated by any box")


def _fragment_report(g, C, den, scan, bound, budget, restrictions=({0: 0}, {0: 1}),
                     expected=None, note="non-facet via decomposition into two distinct "
                                         "supporting faces"):
    """The non-facet verdict of g's inequality with bound `bound` (g's
    classical value) from one fragment per restriction of Alice's input dits
    (by default, her first bit), or None when the argument does not apply:
    the fragment values do not sum to `bound`, or a fragment's face is not
    proper (`_proper`). A fragment is g's integer functional C
    (denominator den) on the Alice inputs its restriction keeps, zero on
    the others; its value t / den is one `values._pruned_scan` of those
    rows, and its inequality is that table over den with bound t / den.
    Each value must be attained by its witness on C (and equal `expected`,
    if given), the restrictions must split Alice's inputs, and the faces
    must not all be equal; else VerificationError. The statistics come from g's scan `scan`, and are
    skipped, with a note, when it is None or kept no tie sets."""
    keep = np.array([[all(input_dits(x, g.d, g.n)[pos] == v for pos, v in fixes.items())
                      for x in range(g.ma)] for fixes in restrictions])
    if (keep.sum(axis=0) != 1).any():
        raise VerificationError("the restrictions do not split Alice's inputs")
    targets, witnesses = [], []
    for fixes, k in zip(restrictions, keep):
        rows = np.flatnonzero(k)
        frag = _pruned_scan(C[rows], budget)
        a_map, b_map = np.zeros(g.ma, dtype=np.int64), np.array(frag.box[1])
        a_map[rows] = frag.box[0]
        where = ", ".join(f"x{pos + 1}={v}" for pos, v in fixes.items())
        value = Fraction(frag.top, den)
        if _row_values(C, b_map)[rows, a_map[rows]].sum() != frag.top:
            raise VerificationError(
                f"fragment {where} has classical value {value}, not attained by its witness")
        if expected is not None and value != expected:
            raise VerificationError(
                f"fragment {where} has classical value {value}, expected {expected}")
        targets.append(frag.top)
        witnesses.append((a_map, b_map))
    if Fraction(sum(targets), den) != bound or not _proper(C, keep, targets):
        return None
    _assert_distinct_faces(C, keep, targets, witnesses)
    fragments = tuple(BellInequality._of_integers(g.scenario, C * k[:, None, None, None], t, den)
                      for k, t in zip(keep, targets))
    if scan is None or scan.maps is None:
        return FacetReport("bell", ns_polytope_dimension(g.scenario), -1, -1,
                           decomposition=fragments,
                           notes=(note, "saturating statistics skipped (box budget)"))
    stats = _face("bell", g.scenario, scan, scan.top, budget)
    if stats.is_facet:
        raise VerificationError("decomposition succeeded yet the saturating set spans a facet")
    return replace(stats, decomposition=fragments, notes=(note,))


def nlc2_decompose(g: LinearGame, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Split a binary dit-structured game along Alice's first input bit
    (`_fragment_report`); ValueError when the argument does not apply: the
    two fragment values do not sum to the game's, as on the n = 4
    inner-product and majority games, or a fragment's face is not proper,
    as when a half carries no weight."""
    if g.d != 2 or g.n < 2:
        raise ValueError("decomposition needs a binary game with n >= 2 input bits")
    C, den, scan, bound = _game_scan(g, "bell", budget)
    rep = _fragment_report(g, C, den, scan, bound, budget)
    if rep is None:
        raise ValueError(
            f"the first-bit fragment values do not sum to the game value {bound}, or a "
            f"fragment's face is not proper: the fragment argument does not apply, "
            f"no non-facet conclusion is drawn")
    return rep


# ---------------------------------------------------------------------------
# Hadamard block structure of binary dit games
# ---------------------------------------------------------------------------

def _sylvester_hadamard(m: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of order m (a power of two) in natural
    binary ordering: H[i, j] = (-1)^popcount(i & j)."""
    H = np.ones((1, 1), dtype=np.int64)
    while H.shape[0] < m:
        H = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), H)
    return H


def hadamard_diagonal_check(g: LinearGame, j: int, k: int, tol: float = HADAMARD_TOL) -> bool:
    """True iff the (x1=j, y1=k) block of the game matrix is diagonal in the
    normalized Sylvester-Hadamard basis of order 2^(n-1), natural binary
    ordering. Holds structurally for distributed-computation games, where the
    block depends on x xor y only; false generically otherwise."""
    if g.d != 2 or g.n < 2:
        raise ValueError("block check needs a binary game with n >= 2 input bits")
    if j not in (0, 1) or k not in (0, 1):
        raise ValueError("block selectors are bits")
    m = g.ma // 2  # the first input bit selects a block of m inputs
    block = fourier_blocks(g)[0][0][j * m:j * m + m, k * m:k * m + m]
    H = _sylvester_hadamard(m) / np.sqrt(m)
    D = H.conj().T @ block @ H
    off = D - np.diag(np.diag(D))
    return bool(np.max(np.abs(off)) <= tol)


def nlc2_block_symmetry(g: LinearGame) -> bool:
    """Exact check of the block symmetry Phi^(j,k) == Phi^(j xor 1, k xor 1):
    the weights q and, where they are nonzero, the phases f are compared as
    rationals and integers, no floats."""
    if g.d != 2 or g.n < 2:
        raise ValueError("block symmetry needs a binary game with n >= 2 input bits")
    half = g.ma // 2  # adding half flips the first input bit: block j <-> j xor 1
    for x, y in itertools.product(range(g.ma), range(g.mb)):
        x2, y2 = (x + half) % g.ma, (y + half) % g.mb
        if g.q[x][y] != g.q[x2][y2] or (g.q[x][y] and g.f[x][y] != g.f[x2][y2]):
            return False
    return True


# ---------------------------------------------------------------------------
# product-form profile machinery
# ---------------------------------------------------------------------------

def _product_spec(g):
    spec = g.nlc
    if spec is None or not spec.is_product_form:
        raise ValueError("game does not carry a product-form construction")
    return spec


def nlcd_lambda(g: LinearGame) -> LambdaProfile:
    """Weighted histogram of the product-form table: lambda(i) = total p-mass
    of the g-preimage of i."""
    spec = _product_spec(g)
    lambdas = [Fraction(0)] * spec.d
    for z, gz in enumerate(spec.g):
        lambdas[gz] += spec.p[z]
    return LambdaProfile(tuple(lambdas))


def nlcd_classical_formula(g: LinearGame) -> Fraction:
    """Closed form of the classical value for product-form games:
    (1/d)(1 + (d-1) Lambda)."""
    d = _product_spec(g).d
    return Fraction(1, d) * (1 + (d - 1) * nlcd_lambda(g).big_lambda)


def nlcd_nonfacet_check(g: LinearGame, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Fragment decomposition of a product-form game with Lambda >= 1/2: one
    fragment per assignment of Alice's first n-1 dits (Bob stays
    unrestricted), each with classical value (1/d^n)(1 + (d-1) Lambda)
    (`_fragment_report`). These sum to the closed form, and each is above
    its fragment's weight 1/d^(n-1) over d, so the argument applies. The
    game's scan, when it fits the budget, gives the statistics, and its top
    must be the closed form."""
    spec = _product_spec(g)
    prof = nlcd_lambda(g)
    if prof.big_lambda < Fraction(1, 2):
        raise ValueError(
            f"Lambda = {prof.big_lambda} < 1/2: the fragment argument does not "
            f"apply, no non-facet conclusion is drawn")
    if spec.n < 2:
        raise ValueError("fragments fix the first n-1 dits; need n >= 2")
    d, n = spec.d, spec.n
    value = nlcd_classical_formula(g)
    C, den = scaled_functionals(g)
    try:
        scan = _scan(C, budget, ties=True, cols=ns_polytope_dimension(g.scenario))
    except BudgetExceededError:
        scan = None  # the statistics are skipped
    if scan is not None and Fraction(scan.top, den) != value:
        raise VerificationError(f"the game's classical value {Fraction(scan.top, den)} "
                                f"is not the closed form {value}")
    restrictions = [dict(enumerate(input_dits(s, d, n - 1))) for s in range(d ** (n - 1))]
    return _fragment_report(g, C, den, scan, value, budget, restrictions, value / d ** (n - 1),
                            "non-facet via decomposition into distinct supporting faces")


def game_facet_test(g, kind: str, budget: int = DEFAULT_BOX_BUDGET):
    """The facet test of a game's inequality on the `kind` polytope, and its
    bound. On the Bell polytope a game on n >= 2 dits is decided by its
    fragments where their argument applies: along Alice's first n-1 dits
    for an NLC product form on d >= 3 outputs with Lambda >= 1/2
    (`nlcd_nonfacet_check`; the bound is the fragment bounds' sum), along
    her first bit for any binary game when the two fragment values sum to
    the game's (`nlc2_decompose`). Otherwise the rank decides. Bound and
    face come from one scan of the win functional: the correlator one is it
    minus q(x, y)/2 per cell, with the same optimal boxes and tie sets."""
    spec = g.nlc
    split = kind == "bell" and g.n >= 2
    if (split and g.d != 2 and spec is not None and spec.is_product_form
            and nlcd_lambda(g).big_lambda >= Fraction(1, 2)):
        rep = nlcd_nonfacet_check(g, budget)
        return rep, sum((fr.bound for fr in rep.decomposition), Fraction(0))
    if kind != "bell" and g.d != 2:  # any other kind reads the correlator form
        raise ValueError("correlator form needs binary outputs")
    C, den, scan, bound = _game_scan(g, kind, budget)
    rep = _fragment_report(g, C, den, scan, bound, budget) if split and g.d == 2 else None
    if rep is None:
        rep = _face(kind, g.scenario, scan, scan.top, budget)
    return rep, bound if kind == "bell" else bound - g.total_weight / 2
