"""Facet testing and the non-tightness decompositions for NLC-style games.

Bell and correlation facet tests read the classical value's best-response
scan (`values._scan`): its top value rejects an invalid inequality, and its
optimal maps and tie sets give the saturating count and boxes spanning the
saturating set's affine hull. With the cut polytope's own vertex scan (`cut`)
they end in `_facet_report`, which decides facet-ness by the exact affine
rank. Decompositions (`_fragment_report`, for both NLC families) write the
game inequality as a cell-wise sum of valid fragment inequalities with
distinct faces, which rules out facet-ness without a rank computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .exactrank import affine_rank
from .games import (LinearGame, _win_coeffs, game_matrix, input_dits, int_scaled,
                    scaled_functionals, subgame_restrict, to_bell_inequality,
                    to_correlator_inequality)
from .scenario import (DEFAULT_BOX_BUDGET, BellInequality, DeterministicBox,
                       _correlator_rows, _reduced_rows, ns_polytope_dimension)
from .values import _scan, classical_value

HADAMARD_TOL = 1e-12


@dataclass(frozen=True)
class FacetReport:
    """Outcome of a facet test.

    saturating_affine_dim is -1 when the saturating set is empty or (for a
    decomposition verdict whose facet test exceeds the budget) when the
    statistics were skipped; `notes` says which. The defining invariant
    is_facet <=> saturating_affine_dim == ambient_dim - 1 always holds.
    """
    polytope_kind: str
    ambient_dim: int
    saturating_count: int
    saturating_affine_dim: int
    is_facet: bool
    decomposition: tuple = None
    trivial_facet_class: bool = False
    notes: tuple = ()


@dataclass(frozen=True)
class LambdaProfile:
    lambdas: tuple  # lambda(i) for i in Z_d
    big_lambda: Fraction
    i_max: int

    def __post_init__(self):
        if sum(self.lambdas, Fraction(0)) != 1:
            raise VerificationError("lambda profile does not sum to 1")


# ---------------------------------------------------------------------------
# saturating boxes and facet tests
# ---------------------------------------------------------------------------

def _facet_report(kind, ambient, count, rows, trivial=False):
    """The facet-test tail, given the number of vertices meeting the bound
    and integer coordinate rows spanning their affine hull: a facet's
    vertices span ambient - 1 dimensions."""
    dim = affine_rank(rows) if count else -1
    return FacetReport(kind, ambient, count, dim, dim == ambient - 1,
                       trivial_facet_class=trivial)


def _valid_scan(C, target, budget):
    """`values._scan` of the integer functional C, with tie sets; a box above
    the integer bound raises ValueError naming the first box of largest
    value."""
    scan = _scan(C, budget, ties=True)
    if scan.top > target:
        raise ValueError("inequality is violated by the deterministic box with "
                         "a_map {} and b_map {}".format(*scan.box))
    return scan


def _bell_roots(s, scan, project, budget):
    """Rows spanning the affine hull of the boxes of value scan.top: per
    optimal map one base box (each answering input at its first best output)
    and one box per other best output of one answering input. With the
    enumerated map fixed, a vertex's coordinates are affine in the answering
    side's one-hot outputs, so these boxes span the same hull. The scan kept
    its tie sets only when these rows fit the budget."""
    if scan.maps is None:
        raise BudgetExceededError(f"{scan.rows} rank rows exceed the budget of {budget}")
    base = scan.ties.argmax(axis=2)
    k, j, o = np.nonzero(scan.ties)
    swap = o != base[k, j]
    k, j, o = k[swap], j[swap], o[swap]
    answers = np.concatenate([base, base[k]])
    answers[len(base) + np.arange(len(k)), j] = o
    maps = np.concatenate([scan.maps, scan.maps[k]])
    return project(s, maps, answers) if scan.alice else project(s, answers, maps)


def saturating_boxes(ineq: BellInequality, budget: int = DEFAULT_BOX_BUDGET):
    """All deterministic boxes achieving the bound exactly, in lexicographic
    order on (a_map, b_map): the optimal maps of `values._scan`, each with
    every choice from the answering side's tie sets. A box above the bound
    raises the ValueError of `facet_test`. The budget bounds the maps
    scanned and the boxes listed."""
    C, (target,), _ = int_scaled(ineq.coeffs, [ineq.bound])
    scan = _valid_scan(C, target, budget)
    if scan.top < target:
        return []
    if scan.count > budget:
        raise BudgetExceededError(f"{scan.count} saturating boxes exceed the budget of {budget}")
    boxes = []
    for m, tie_sets in zip(scan.maps.tolist(), scan.ties):
        for answers in itertools.product(*(np.flatnonzero(t).tolist() for t in tie_sets)):
            boxes.append((tuple(m), answers) if scan.alice else (answers, tuple(m)))
    return [DeterministicBox(ineq.scenario, a_map, b_map) for a_map, b_map in sorted(boxes)]


def facet_test(ineq: BellInequality, kind: str, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Exact facet test against the local polytope.

    kind "bell": ambient dimension is the no-signaling affine dimension, the
    saturating boxes are compared in minimal no-signaling coordinates.
    kind "correlation": binary outputs and a correlator-space inequality
    required; boxes are projected to their ma*mb full correlators.
    """
    s = ineq.scenario
    if kind == "correlation":
        if s.da != 2 or s.db != 2:
            raise ValueError("correlation polytope needs binary outputs")
        if ineq.space != "correlator":
            raise ValueError("correlation facet test needs a correlator-space inequality")
    elif kind != "bell":
        raise ValueError(f"unknown polytope kind {kind!r}")
    C, (target,), _ = int_scaled(ineq.coeffs, [ineq.bound])
    # single-cell nonnegativity written as <= : one negative coefficient, bound 0
    trivial = bool(target == 0 and np.count_nonzero(C) == 1 and C.min() < 0)
    return _bell_facet(kind, s, C, target, budget, trivial)


def _bell_facet(kind, s, C, target, budget, trivial=False) -> FacetReport:
    """The facet test of the integer functional C[x, y, a, b] with integer
    bound `target` on the `kind` polytope of scenario s. The vertices come
    from the best-response scan `values._scan`; the budget bounds the maps it
    enumerates and the rank rows (`_bell_roots`)."""
    if kind == "bell":
        ambient, project = ns_polytope_dimension(s), _reduced_rows
    else:
        ambient, project = s.ma * s.mb, _correlator_rows
    scan = _valid_scan(C, target, budget)
    if scan.top < target:
        return _facet_report(kind, ambient, 0, None, trivial)
    return _facet_report(kind, ambient, scan.count, _bell_roots(s, scan, project, budget), trivial)


# ---------------------------------------------------------------------------
# fragment decompositions
# ---------------------------------------------------------------------------

def _row_values(C, b_map):
    """r[x, a]: the functional C ([x, y, a, b]) summed over Bob's inputs y at
    his outputs b_map[y], when Alice answers input x with a."""
    return C[:, np.arange(C.shape[1]), :, b_map].sum(axis=0)


def _separated(Ci, Cj, target_j, witness_i) -> bool:
    """Whether a box on fragment i's face lies off fragment j's face.

    Keep the witness's Bob outputs, and its Alice outputs on the inputs that
    fragment i weighs; her other inputs are free, and fragment i's value does
    not depend on them. Fragment j's value is a sum over Alice's inputs, so
    its least value over these boxes adds the fixed rows' values and the free
    rows' minima. Fragment j is valid (its bound is its classical value), so
    these boxes leave its face exactly when that least value is below the
    bound."""
    a_map, b_map = witness_i
    r = _row_values(Cj, b_map)
    free = (Ci == 0).all(axis=(1, 2, 3))
    return np.where(free, r.min(axis=1), r[np.arange(len(r)), a_map]).sum() < target_j


def _assert_distinct_faces(C, targets, witnesses):
    """Certify the non-facet argument: every fragment face is proper, and two
    fragment faces differ (each fragment's witness attains its bound).

    Properness is an averaging argument: over the d^2 constant-output boxes
    the fragment expression averages to (total weight)/d, so a bound above
    that average has non-saturating boxes; equality would mean every box
    saturates (face = whole polytope) and nothing follows. Distinctness is
    shown by a box on one fragment's face and off another's (`_separated`).
    """
    d = C.shape[-1]
    for i, Ci in enumerate(C):
        # the largest entry of each (x, y) cell is its weight
        if d * targets[i] <= Ci.max(axis=(2, 3)).sum():
            raise VerificationError(
                f"fragment {i} is saturated by every box; its face is not proper")
    if not any(_separated(C[i], C[j], targets[j], witnesses[i])
               for i in range(len(C)) for j in range(len(C)) if i != j):
        raise VerificationError("fragment faces could not be separated by any box")


def _fragment_report(g, restrictions, expected, bound, note, budget):
    """The non-facet verdict of g's inequality with bound `bound` (g's
    classical value) from one fragment per restriction of Alice's input dits
    (`subgame_restrict`), or None when the fragment values do not sum to
    `bound`: the fragment argument does not apply.

    Each fragment's enumerated value must be attained by its witness (and
    equal `expected`, if given), the fragments must sum cell for cell to the
    game, and, when the argument applies, their faces must be proper and not
    all equal; else VerificationError. The statistics are skipped, with a
    note, exactly when the facet test exceeds the budget.
    """
    frags = [subgame_restrict(g, fix_a=fixes) for fixes in restrictions]
    values = [classical_value(fr) for fr in frags]
    C, targets, _ = scaled_functionals([g] + frags, [bound] + [cv.value for cv in values])
    witnesses = [(np.array(cv.a_map), np.array(cv.b_map)) for cv in values]
    for fixes, Ci, target, cv, (a_map, b_map) in zip(restrictions, C[1:], targets[1:],
                                                        values, witnesses):
        where = ", ".join(f"x{pos + 1}={v}" for pos, v in fixes.items())
        if _row_values(Ci, b_map)[np.arange(len(a_map)), a_map].sum() != target:
            raise VerificationError(
                f"fragment {where} has classical value {cv.value}, not attained by its witness")
        if expected is not None and cv.value != expected:
            raise VerificationError(
                f"fragment {where} has classical value {cv.value}, expected {expected}")
    if (C[1:].sum(axis=0) != C[0]).any():
        raise VerificationError("fragment coefficients do not sum to the original cell for cell")
    if sum(targets[1:]) != targets[0]:
        return None
    _assert_distinct_faces(C[1:], targets[1:], witnesses)

    fragment_ineqs = tuple(BellInequality(fr.scenario, _win_coeffs(fr), cv.value)
                           for fr, cv in zip(frags, values))
    try:
        stats = _bell_facet("bell", g.scenario, C[0], targets[0], budget)
    except BudgetExceededError:
        return FacetReport("bell", ns_polytope_dimension(g.scenario), -1, -1, False,
                           decomposition=fragment_ineqs,
                           notes=(note, "saturating statistics skipped (box budget)"))
    if stats.is_facet:
        raise VerificationError("decomposition succeeded yet the saturating set spans a facet")
    return replace(stats, decomposition=fragment_ineqs, notes=(note,))


def _first_bit_split(g, bound, budget):
    """`_fragment_report` of a binary game split along Alice's first bit."""
    return _fragment_report(g, [{0: 0}, {0: 1}], None, bound,
                            "non-facet via decomposition into two distinct supporting faces",
                            budget)


def nlc2_decompose(g: LinearGame, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Split a binary dit-structured game along Alice's first input bit
    (`_fragment_report`); ValueError when the two fragment values do not sum
    to the game's, as on the n = 4 inner-product and majority games."""
    if g.d != 2 or g.n < 2:
        raise ValueError("decomposition needs a binary game with n >= 2 input bits")
    bound = classical_value(g).value
    rep = _first_bit_split(g, bound, budget)
    if rep is None:
        raise ValueError(
            f"the first-bit fragment values do not sum to the game value {bound}: the "
            f"fragment argument does not apply, no non-facet conclusion is drawn")
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
    block = game_matrix(g, 1).block(list(range(j * m, j * m + m)), list(range(k * m, k * m + m)))
    H = _sylvester_hadamard(m) / np.sqrt(m)
    D = H.conj().T @ block @ H
    off = D - np.diag(np.diag(D))
    return bool(np.max(np.abs(off)) <= tol)


def nlc2_block_symmetry(g: LinearGame) -> bool:
    """Exact check of the block symmetry Phi^(j,k) == Phi^(j xor 1, k xor 1):
    weights and phase exponents are compared as rationals/integers, no floats."""
    if g.d != 2 or g.n < 2:
        raise ValueError("block symmetry needs a binary game with n >= 2 input bits")
    gm = game_matrix(g, 1)
    half = g.ma // 2  # adding half flips the first input bit: block j <-> j xor 1
    for x, y in itertools.product(range(g.ma), range(g.mb)):
        x2, y2 = (x + half) % g.ma, (y + half) % g.mb
        if gm.weights[x][y] != gm.weights[x2][y2]:
            return False
        if gm.weights[x][y] != 0 and gm.phases[x][y] != gm.phases[x2][y2]:
            return False
    return True


# ---------------------------------------------------------------------------
# product-form profile machinery
# ---------------------------------------------------------------------------

def _product_spec(g):
    spec = getattr(g, "nlc", None)
    if spec is None or not spec.is_product_form:
        raise ValueError("game does not carry a product-form construction")
    return spec


def nlcd_lambda(g: LinearGame) -> LambdaProfile:
    """Weighted histogram of the product-form table: lambda(i) = total p-mass
    of the g-preimage of i. Ties in the argmax break toward the smallest i."""
    spec = _product_spec(g)
    lambdas = [Fraction(0)] * spec.d
    for z, gz in enumerate(spec.g):
        lambdas[gz] += spec.p[z]
    big = max(lambdas)
    return LambdaProfile(tuple(lambdas), big, lambdas.index(big))


def nlcd_classical_formula(g: LinearGame) -> Fraction:
    """Closed form of the classical value for product-form games:
    (1/d)(1 + (d-1) Lambda)."""
    d = _product_spec(g).d
    return Fraction(1, d) * (1 + (d - 1) * nlcd_lambda(g).big_lambda)


def nlcd_nonfacet_check(g: LinearGame, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Fragment decomposition of a product-form game with Lambda >= 1/2: one
    fragment per assignment of Alice's first n-1 dits (Bob stays
    unrestricted), each with classical value (1/d^n)(1 + (d-1) Lambda)
    (`_fragment_report`).
    """
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
    restrictions = [dict(enumerate(input_dits(s, d, n - 1))) for s in range(d ** (n - 1))]
    return _fragment_report(g, restrictions, value / d ** (n - 1), value,
                            "non-facet via decomposition into distinct supporting faces",
                            budget)


def game_facet_test(g, kind: str, budget: int = DEFAULT_BOX_BUDGET):
    """The facet test of a game's inequality on the `kind` polytope, and its
    bound. On the Bell polytope a distributed-computation game on n >= 2
    dits is decided by its fragments where their argument applies: along
    Alice's first n-1 dits for a product form on d >= 3 outputs with
    Lambda >= 1/2 (`nlcd_nonfacet_check`; the bound is the fragment bounds'
    sum), along her first bit for d = 2 when the two fragment values sum to
    the game's (`nlc2_decompose`). Every other game goes through `facet_test`.
    """
    spec = getattr(g, "nlc", None)
    split = kind == "bell" and spec is not None and spec.n >= 2
    if (split and g.d != 2 and spec.is_product_form
            and nlcd_lambda(g).big_lambda >= Fraction(1, 2)):
        rep = nlcd_nonfacet_check(g, budget)
        return rep, sum((fr.bound for fr in rep.decomposition), Fraction(0))
    ineq = to_bell_inequality(g) if kind == "bell" else to_correlator_inequality(g)
    rep = _first_bit_split(g, ineq.bound, budget) if split and g.d == 2 else None
    if rep is None:
        rep = facet_test(ineq, kind, budget)
    return rep, ineq.bound
