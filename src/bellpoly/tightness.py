"""Facet testing and the non-tightness decompositions for NLC-style games.

Every facet test (Bell and correlation inequalities here, cut inequalities
in `cut`) runs on one engine, `_facet_report`, fed with the integer-scaled
functional's value on each vertex of the polytope: it rejects an inequality
that a vertex violates, and decides facet-ness exactly by the affine rank of
the vertices meeting the bound. Decompositions write the game inequality as
a cell-wise sum of two or more valid fragment inequalities whose faces
differ, which rules out facet-ness without any rank computation
(intersections of distinct faces are lower-dimensional faces).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .exactrank import affine_rank
from .games import LinearGame, _win_coeffs, game_matrix, input_dits, subgame_restrict
from .scenario import (DEFAULT_BOX_BUDGET, BellInequality, DeterministicBox,
                       _correlator_rows, _reduced_rows, _response_maps,
                       ns_polytope_dimension)
from .values import classical_value

HADAMARD_TOL = 1e-12


@dataclass(frozen=True)
class FacetReport:
    """Outcome of a facet test.

    saturating_affine_dim is -1 when the saturating set is empty or (for
    decomposition-based verdicts at large scenario sizes) when the statistics
    were skipped; `notes` says which. The defining invariant
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

_CHUNK_CELLS = 1 << 20  # values per chunk of a vertex scan, to bound its memory


def _int_scaled(values, bound):
    """The values and bound times their common denominator: an integer array
    (int64 unless a sum could overflow), the integer bound, the denominator."""
    den = lcm(bound.denominator, *(v.denominator for v in values))
    scaled = [v.numerator * (den // v.denominator) for v in values]
    target = bound.numerator * (den // bound.denominator)
    dtype = np.int64 if abs(target) + sum(map(abs, scaled)) < 2 ** 62 else object
    return np.array(scaled, dtype=dtype), target, den


def _scan(values, target):
    """Over integer values given in chunks, in vertex order: the indices equal
    to target, the largest value, and the index of its first occurrence."""
    roots, top, first, offset = [], None, -1, 0
    for v in values:
        k = int(np.argmax(v))
        if top is None or v[k] > top:
            top, first = v[k], offset + k
        roots.append(np.flatnonzero(v == target) + offset)
        offset += len(v)
    return np.concatenate(roots), top, first


def _facet_report(kind, ambient, values, target, rows, violation, trivial=False):
    """The facet-test engine. `values` yields the integer-scaled functional on
    the polytope's vertices, chunk by chunk in vertex order; `rows(indices)`
    gives those vertices' integer coordinate rows; `violation(index)` names
    the vertex in the ValueError raised when the first vertex of largest
    value exceeds the bound. A facet's roots span ambient - 1 dimensions."""
    roots, top, first = _scan(values, target)
    if top > target:
        raise ValueError(f"inequality is violated {violation(first)}")
    dim = affine_rank(rows(roots)) if len(roots) else -1
    return FacetReport(kind, ambient, len(roots), dim, dim == ambient - 1,
                       trivial_facet_class=trivial)


def _box_values(ineq: BellInequality, budget: int):
    """The integer-scaled values of all deterministic boxes, lexicographic in
    (a_map, b_map) and chunked by Alice map; the integer-scaled bound; and
    `boxes`, from box numbers to their map rows. The budget is checked first."""
    s = ineq.scenario
    if s.box_count > budget:
        raise BudgetExceededError(
            f"{s.box_count} boxes exceed the enumeration budget of {budget}")
    flat = [v for block in ineq.coeffs for row in block for cell in row for v in cell]
    C, target, _ = _int_scaled(flat, ineq.bound)
    C = C.reshape(s.ma, s.mb, s.da, s.db)
    a_maps, b_maps = _response_maps(s.da, s.ma), _response_maps(s.db, s.mb)
    # T[ai, y, b] = sum_x C[x, y, a_maps[ai, x], b]
    T = sum(C[x].transpose(1, 0, 2)[a_maps[:, x]] for x in range(s.ma))
    step = max(1, _CHUNK_CELLS // (len(b_maps) * s.mb))

    def values():
        for lo in range(0, len(a_maps), step):
            # V[ai, bi] = sum_y T[ai, y, b_maps[bi, y]]
            yield sum(T[lo:lo + step, y][:, b_maps[:, y]] for y in range(s.mb)).ravel()

    def boxes(k):
        ai, bi = np.divmod(k, len(b_maps))
        return a_maps[ai], b_maps[bi]
    return values(), target, boxes


def saturating_boxes(ineq: BellInequality, budget: int = DEFAULT_BOX_BUDGET):
    """All deterministic boxes achieving the bound exactly, in lexicographic
    order on (a_map, b_map). Exact: weights are integer-scaled once and every
    hit is an integer equality."""
    values, target, boxes = _box_values(ineq, budget)
    A, B = boxes(_scan(values, target)[0])
    return [DeterministicBox(ineq.scenario, tuple(a_map), tuple(b_map))
            for a_map, b_map in zip(A.tolist(), B.tolist())]


def _is_positivity_form(ineq):
    # single-cell nonnegativity written as <= : one negative coefficient, bound 0
    nz = [v for block in ineq.coeffs for row in block for cell in row for v in cell if v != 0]
    return len(nz) == 1 and nz[0] < 0 and ineq.bound == 0


def facet_test(ineq: BellInequality, kind: str, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Exact facet test against the local polytope.

    kind "bell": ambient dimension is the no-signaling affine dimension, the
    saturating boxes are compared in minimal no-signaling coordinates.
    kind "correlation": binary outputs and a correlator-space inequality
    required; boxes are projected to their ma*mb full correlators.
    """
    s = ineq.scenario
    if kind == "bell":
        ambient, project = ns_polytope_dimension(s), _reduced_rows
    elif kind == "correlation":
        if s.da != 2 or s.db != 2:
            raise ValueError("correlation polytope needs binary outputs")
        if ineq.space != "correlator":
            raise ValueError("correlation facet test needs a correlator-space inequality")
        ambient, project = s.ma * s.mb, _correlator_rows
    else:
        raise ValueError(f"unknown polytope kind {kind!r}")
    values, target, boxes = _box_values(ineq, budget)

    def violation(k):
        a_map, b_map = boxes(k)
        return (f"by the deterministic box with a_map {tuple(a_map.tolist())} "
                f"and b_map {tuple(b_map.tolist())}")
    return _facet_report(kind, ambient, values, target, lambda k: project(s, *boxes(k)),
                         violation, trivial=_is_positivity_form(ineq))


# ---------------------------------------------------------------------------
# decomposition machinery
# ---------------------------------------------------------------------------

def _assert_coefficient_additivity(full_ineq, fragment_ineqs):
    s = full_ineq.scenario
    for x, y, a, b in itertools.product(range(s.ma), range(s.mb), range(s.da), range(s.db)):
        total = sum((fr.coeffs[x][y][a][b] for fr in fragment_ineqs), Fraction(0))
        if total != full_ineq.coeffs[x][y][a][b]:
            raise VerificationError(
                f"fragment coefficients do not sum to the original at ({x},{y},{a},{b})")
    if sum((fr.bound for fr in fragment_ineqs), Fraction(0)) != full_ineq.bound:
        raise VerificationError("fragment bounds do not sum to the original bound")


def _fragment_rows(ineq):
    return [x for x, block in enumerate(ineq.coeffs)
            if any(v != 0 for row in block for cell in row for v in cell)]


_SEPARATION_SEARCH_CAP = 4096


def _assert_distinct_faces(d, fragment_ineqs, witnesses):
    """Certify the non-facet argument: every fragment face is proper, and two
    fragment faces differ.

    Properness is an averaging argument: over the d^2 constant-output boxes
    the fragment expression averages to (total weight)/d, so a bound above
    that average has non-saturating boxes; equality would mean every box
    saturates (face = whole polytope) and nothing follows. Distinctness is
    shown by a box saturating one fragment but not another; fragments occupy
    disjoint Alice rows, so perturbing a witness on the other fragment's rows
    keeps it on the first face while searching off the second.
    """
    k = len(fragment_ineqs)
    for i, fr in enumerate(fragment_ineqs):
        if fr.evaluate_box(witnesses[i]) != fr.bound:
            raise VerificationError(f"fragment {i} bound is not attained by its witness")
        cell_total = sum((v for block in fr.coeffs for row in block
                          for cell in row for v in cell), Fraction(0))
        # each (x, y) cell wins for exactly d output pairs, so cell_total = d * weight
        if d * fr.bound <= cell_total / d:
            raise VerificationError(
                f"fragment {i} is saturated by every box; its face is not proper")

    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            frj = fragment_ineqs[j]
            if frj.evaluate_box(witnesses[i]) != frj.bound:
                return
            rows_j = _fragment_rows(frj)
            if d ** len(rows_j) > _SEPARATION_SEARCH_CAP:
                continue
            base_a = list(witnesses[i].a_map)
            s = witnesses[i].scenario
            for trial in itertools.product(range(d), repeat=len(rows_j)):
                a = list(base_a)
                for x, v in zip(rows_j, trial):
                    a[x] = v
                box = DeterministicBox(s, tuple(a), witnesses[i].b_map)
                if frj.evaluate_box(box) != frj.bound:
                    return  # box sits on face i (rows disjoint) but off face j
    raise VerificationError("fragment faces could not be separated by any box")


def nlc2_decompose(g: LinearGame, compute_polytope_stats: bool = True,
                   budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Split a binary dit-structured game along Alice's first input bit.

    Both fragments must have exactly half the classical value; the fragment
    inequalities then sum cell-wise to the game inequality, each is a
    supporting hyperplane, and their faces differ, so the game inequality is
    an intersection of two distinct faces and cannot be a facet. Any failed
    check raises VerificationError (it would falsify the decomposition claim,
    not merely this run).
    """
    if g.d != 2 or g.n < 2:
        raise ValueError("decomposition needs a binary game with n >= 2 input bits")
    full_cv = classical_value(g)
    half = full_cv.value / 2

    fragment_ineqs = []
    witnesses = []
    for j in (0, 1):
        frag = subgame_restrict(g, fix_a={0: j})
        cv = classical_value(frag)
        if cv.value != half:
            raise VerificationError(
                f"fragment x1={j} has classical value {cv.value}, expected {half}")
        fragment_ineqs.append(BellInequality(frag.scenario, _win_coeffs(frag), cv.value))
        witnesses.append(DeterministicBox(g.scenario, cv.a_map, cv.b_map))

    full_ineq = BellInequality(g.scenario, _win_coeffs(g), full_cv.value)
    _assert_coefficient_additivity(full_ineq, fragment_ineqs)
    _assert_distinct_faces(g.d, fragment_ineqs, witnesses)

    notes = ("non-facet via decomposition into two distinct supporting faces",)
    if compute_polytope_stats and g.scenario.box_count <= budget:
        stats = facet_test(full_ineq, "bell", budget=budget)
        if stats.is_facet:
            raise VerificationError(
                "decomposition succeeded yet the saturating set spans a facet")
        return replace(stats, decomposition=tuple(fragment_ineqs), notes=notes)
    ambient = ns_polytope_dimension(g.scenario)
    return FacetReport("bell", ambient, -1, -1, False,
                       decomposition=tuple(fragment_ineqs),
                       notes=notes + ("saturating statistics skipped (box budget)",))


# ---------------------------------------------------------------------------
# Hadamard block structure of binary dit games
# ---------------------------------------------------------------------------

def _block_indices(g, first_dit):
    half = g.ma // 2
    return range(first_dit * half, (first_dit + 1) * half)


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
    m = g.ma // 2
    block = game_matrix(g, 1).block(list(_block_indices(g, j)), list(_block_indices(g, k)))
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
    spec = _product_spec(g)
    prof = nlcd_lambda(g)
    return Fraction(1, spec.d) * (1 + (spec.d - 1) * prof.big_lambda)


ENUMERATION_SCALE_D = 3
ENUMERATION_SCALE_N = 2


def nlcd_nonfacet_check(g: LinearGame) -> FacetReport:
    """Fragment decomposition of a product-form game with Lambda >= 1/2.

    One fragment per assignment s of Alice's first n-1 dits (Bob stays
    unrestricted); each must have classical value (1/d^n)(1 + (d-1) Lambda),
    verified by enumeration at desk scale (d <= 3, n <= 2) and by the formula
    with a warning note beyond that. The fragments sum to the game inequality
    and define distinct faces, so the game inequality is not a facet.
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
    expected = nlcd_classical_formula(g) / d ** (n - 1)
    enumerate_fragments = d <= ENUMERATION_SCALE_D and n <= ENUMERATION_SCALE_N
    notes = ("non-facet via decomposition into distinct supporting faces",)
    if not enumerate_fragments:
        notes += ("fragment values taken from the closed form, not enumerated "
                  "(instance above desk scale)",)

    fragment_ineqs = []
    witnesses = []
    for s_idx in range(d ** (n - 1)):
        fixes = dict(enumerate(input_dits(s_idx, d, n - 1)))
        frag = subgame_restrict(g, fix_a=fixes)
        if enumerate_fragments:
            cv = classical_value(frag)
            if cv.value != expected:
                raise VerificationError(
                    f"fragment s={s_idx} has classical value {cv.value}, "
                    f"expected {expected}")
            bound, witness = cv.value, DeterministicBox(g.scenario, cv.a_map, cv.b_map)
        else:
            bound, witness = expected, None
        fragment_ineqs.append(BellInequality(frag.scenario, _win_coeffs(frag), bound))
        witnesses.append(witness)

    full_ineq = BellInequality(g.scenario, _win_coeffs(g), nlcd_classical_formula(g))
    _assert_coefficient_additivity(full_ineq, fragment_ineqs)
    if enumerate_fragments:
        _assert_distinct_faces(g.d, fragment_ineqs, witnesses)

    ambient = ns_polytope_dimension(g.scenario)
    return FacetReport("bell", ambient, -1, -1, False,
                       decomposition=tuple(fragment_ineqs),
                       notes=notes + ("saturating statistics skipped (box budget)",))
