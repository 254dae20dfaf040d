"""Facet testing and the non-tightness decompositions for NLC-style games.

Every facet test (Bell and correlation inequalities here, cut inequalities
in `cut`) runs on one engine, `_facet_report`, fed with the integer-scaled
functional's value on each vertex of the polytope: it rejects an inequality
that a vertex violates, and decides facet-ness exactly by the affine rank of
the vertices meeting the bound. Decompositions write the game inequality as
a cell-wise sum of two or more valid fragment inequalities whose faces
differ, which rules out facet-ness without any rank computation
(intersections of distinct faces are lower-dimensional faces); both NLC
decompositions run on one core, `_fragment_report`, which enumerates every
fragment's classical value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .exactrank import affine_rank
from .games import (LinearGame, _win_coeffs, game_matrix, input_dits, subgame_restrict,
                    to_bell_inequality, to_correlator_inequality)
from .scenario import (DEFAULT_BOX_BUDGET, BellInequality, DeterministicBox,
                       _correlator_rows, _reduced_rows, _response_maps,
                       ns_polytope_dimension)
from .values import classical_value

HADAMARD_TOL = 1e-12


@dataclass(frozen=True)
class FacetReport:
    """Outcome of a facet test.

    saturating_affine_dim is -1 when the saturating set is empty or (for a
    decomposition verdict whose scenario has more boxes than the box budget)
    when the statistics were skipped; `notes` says which. The defining invariant
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
# fragment decompositions
# ---------------------------------------------------------------------------

def _scaled_wins(games, bounds):
    """Each game's functional (`games._win_coeffs`) and each bound, times one
    common denominator: an integer array [game, x, y, a, b] (int64 unless a
    sum could overflow) and the integer bounds."""
    den = lcm(*{v.denominator for g in games for row in g.q for v in row},
              *(b.denominator for b in bounds))
    Q = [[[v.numerator * (den // v.denominator) for v in row] for row in g.q] for g in games]
    targets = [b.numerator * (den // b.denominator) for b in bounds]
    d = games[0].d
    total = sum(sum(map(sum, q)) for q in Q) + sum(map(abs, targets))
    Q = np.array(Q, dtype=np.int64 if d * total < 2 ** 62 else object)
    outputs = np.arange(d)
    wins = np.array([g.f for g in games])[..., None, None] == (outputs[:, None] + outputs) % d
    return Q[..., None, None] * wins, targets


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
    fragment faces differ.

    Properness is an averaging argument: over the d^2 constant-output boxes
    the fragment expression averages to (total weight)/d, so a bound above
    that average has non-saturating boxes; equality would mean every box
    saturates (face = whole polytope) and nothing follows. Distinctness is
    shown by a box on one fragment's face and off another's (`_separated`).
    """
    d = C.shape[-1]
    for i, (Ci, (a_map, b_map)) in enumerate(zip(C, witnesses)):
        if _row_values(Ci, b_map)[np.arange(len(a_map)), a_map].sum() != targets[i]:
            raise VerificationError(f"fragment {i} bound is not attained by its witness")
        # each (x, y) cell wins for exactly d output pairs, so C sums to d * weight
        if d * d * targets[i] <= Ci.sum():
            raise VerificationError(
                f"fragment {i} is saturated by every box; its face is not proper")
    if not any(_separated(C[i], C[j], targets[j], witnesses[i])
               for i in range(len(C)) for j in range(len(C)) if i != j):
        raise VerificationError("fragment faces could not be separated by any box")


def _fragment_report(g, restrictions, expected, bound, note, budget):
    """The non-facet verdict of g's inequality with bound `bound`, from one
    fragment per restriction of Alice's input dits (`subgame_restrict`).

    Every fragment's classical value is enumerated and must equal `expected`;
    the fragment inequalities must sum cell for cell to the game inequality,
    and their faces must be proper and not all equal. The game inequality is
    then an intersection of distinct faces, not a facet. A failed check raises
    VerificationError: it would falsify the decomposition claim, not merely
    this run. The polytope statistics come from `facet_test` when the boxes
    fit the budget and are skipped, with a note, otherwise.
    """
    frags, witnesses = [], []
    for fixes in restrictions:
        frag = subgame_restrict(g, fix_a=fixes)
        cv = classical_value(frag)
        if cv.value != expected:
            where = ", ".join(f"x{pos + 1}={v}" for pos, v in fixes.items())
            raise VerificationError(
                f"fragment {where} has classical value {cv.value}, expected {expected}")
        frags.append(frag)
        witnesses.append((np.array(cv.a_map), np.array(cv.b_map)))
    C, targets = _scaled_wins([g] + frags, [bound] + [expected] * len(frags))
    if (C[1:].sum(axis=0) != C[0]).any():
        raise VerificationError("fragment coefficients do not sum to the original cell for cell")
    if sum(targets[1:]) != targets[0]:
        raise VerificationError("fragment bounds do not sum to the original bound")
    _assert_distinct_faces(C[1:], targets[1:], witnesses)

    fragment_ineqs = tuple(BellInequality(fr.scenario, _win_coeffs(fr), expected) for fr in frags)
    if g.scenario.box_count > budget:
        return FacetReport("bell", ns_polytope_dimension(g.scenario), -1, -1, False,
                           decomposition=fragment_ineqs,
                           notes=(note, "saturating statistics skipped (box budget)"))
    stats = facet_test(BellInequality(g.scenario, _win_coeffs(g), bound), "bell", budget=budget)
    if stats.is_facet:
        raise VerificationError("decomposition succeeded yet the saturating set spans a facet")
    return replace(stats, decomposition=fragment_ineqs, notes=(note,))


def nlc2_decompose(g: LinearGame, budget: int = DEFAULT_BOX_BUDGET) -> FacetReport:
    """Split a binary dit-structured game along Alice's first input bit: both
    fragments must have exactly half the classical value (`_fragment_report`).
    """
    if g.d != 2 or g.n < 2:
        raise ValueError("decomposition needs a binary game with n >= 2 input bits")
    value = classical_value(g).value
    return _fragment_report(g, [{0: 0}, {0: 1}], value / 2, value,
                            "non-facet via decomposition into two distinct supporting faces",
                            budget)


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
    """The facet test of a game's inequality on the `kind` polytope, and the
    inequality's bound.

    On the Bell polytope a distributed-computation game on n >= 2 dits is
    decided by its fragments: a binary one split along Alice's first bit
    (`nlc2_decompose`), a product-form one with Lambda >= 1/2 along her first
    n-1 dits (`nlcd_nonfacet_check`). The bound is then the sum of the
    fragment bounds, so a product-form game's own classical value is never
    enumerated. Every other game goes through `facet_test`.
    """
    spec = getattr(g, "nlc", None)
    split = kind == "bell" and spec is not None and spec.n >= 2
    if split and g.d == 2:
        rep = nlc2_decompose(g, budget)
    elif split and spec.is_product_form and nlcd_lambda(g).big_lambda >= Fraction(1, 2):
        rep = nlcd_nonfacet_check(g, budget)
    else:
        ineq = to_bell_inequality(g) if kind == "bell" else to_correlator_inequality(g)
        return facet_test(ineq, kind, budget), ineq.bound
    return rep, sum((fr.bound for fr in rep.decomposition), Fraction(0))
