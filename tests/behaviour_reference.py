"""The full behaviour model, kept as the tests' reference: conditional
tables P(a, b | x, y), their mixtures and evaluation, and the inverse cut
map. The library decides faces from boxes, correlators and cuts and never
reads these tables; the tests check it against them.

Conventions:
  * a behaviour is the full conditional table P(a, b | x, y), stored exactly
    as nested tuples of Fractions indexed [x][y][a][b];
  * deterministic boxes are enumerated in lexicographic order on
    (a_map, b_map);
  * probability vectors are flat, in x, y, a, b order.

All arithmetic here is exact.
"""
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bellpoly import (DEFAULT_BOX_BUDGET, BellInequality, BudgetExceededError,
                      DeterministicBox, Scenario, VerificationError, affine_rank)
from bellpoly.cut import (CE_GAP_B, CorrelatorInequality, CutVector, Graph, NCBehaviour,
                          ce1_inequalities, ce_gap_report, pentagonal_contextuality_inequality)

# ---------------------------------------------------------------------------
# behaviours
# ---------------------------------------------------------------------------


def enumerate_deterministic_boxes(s: Scenario, budget: int = DEFAULT_BOX_BUDGET) -> list:
    """All deterministic boxes, lexicographic on (a_map, b_map).

    Raises BudgetExceededError when da^ma * db^mb exceeds the budget.
    """
    if s.box_count > budget:
        raise BudgetExceededError(
            f"{s.box_count} deterministic boxes exceed the budget of {budget}")
    return [DeterministicBox(s, am, bm)
            for am in itertools.product(range(s.da), repeat=s.ma)
            for bm in itertools.product(range(s.db), repeat=s.mb)]


def probability_vector(box: DeterministicBox) -> tuple:
    """Flat 0/1 vector of P(a, b | x, y) in x, y, a, b order."""
    s = box.scenario
    return tuple(1 if (a == box.a_map[x] and b == box.b_map[y]) else 0
                 for x in range(s.ma) for y in range(s.mb)
                 for a in range(s.da) for b in range(s.db))


def _table(s: Scenario, values) -> tuple:
    """Nested tuples [x][y][a][b] of values given in x, y, a, b order."""
    t = np.array(list(values), dtype=object).reshape(s.ma, s.mb, s.da, s.db)
    return tuple(tuple(tuple(tuple(cell) for cell in row) for row in block) for block in t)


@dataclass(frozen=True)
class Behaviour:
    scenario: Scenario
    table: tuple  # [x][y][a][b] of Fraction

    def prob(self, a, b, x, y) -> Fraction:
        return self.table[x][y][a][b]

    def probability_vector(self) -> tuple:
        s = self.scenario
        return tuple(self.table[x][y][a][b]
                     for x in range(s.ma) for y in range(s.mb)
                     for a in range(s.da) for b in range(s.db))

    def alice_marginal(self, a, x, y) -> Fraction:
        return sum((self.table[x][y][a][b] for b in range(self.scenario.db)), Fraction(0))

    def bob_marginal(self, b, x, y) -> Fraction:
        return sum((self.table[x][y][a][b] for a in range(self.scenario.da)), Fraction(0))


def behaviour_from_box(box: DeterministicBox) -> Behaviour:
    table = _table(box.scenario, map(Fraction, probability_vector(box)))
    return Behaviour(box.scenario, table)


def mix(behaviours, weights) -> Behaviour:
    """Convex combination, exact. Weights must sum to 1."""
    behaviours = list(behaviours)
    weights = [Fraction(w) for w in weights]
    if len(behaviours) != len(weights) or not behaviours:
        raise ValueError("need equally many behaviours and weights")
    if sum(weights) != 1:
        raise ValueError("weights must sum to 1")
    s = behaviours[0].scenario
    if any(b.scenario != s for b in behaviours):
        raise ValueError("behaviours live in different scenarios")
    total = sum(w * np.array(b.probability_vector(), dtype=object)
                for w, b in zip(weights, behaviours))
    return Behaviour(s, _table(s, total))


def is_no_signaling(b: Behaviour) -> bool:
    """True iff Alice's marginals do not depend on y and Bob's do not depend on x."""
    s = b.scenario
    for x in range(s.ma):
        for a in range(s.da):
            ref = b.alice_marginal(a, x, 0)
            if any(b.alice_marginal(a, x, y) != ref for y in range(1, s.mb)):
                return False
    for y in range(s.mb):
        for bb in range(s.db):
            ref = b.bob_marginal(bb, 0, y)
            if any(b.bob_marginal(bb, x, y) != ref for x in range(1, s.ma)):
                return False
    return True


def evaluate_box(ineq: BellInequality, box: DeterministicBox) -> Fraction:
    s, coeffs = ineq.scenario, ineq.coeffs
    return sum((coeffs[x][y][box.a_map[x]][box.b_map[y]]
                for x in range(s.ma) for y in range(s.mb)), Fraction(0))


def evaluate(ineq: BellInequality, b) -> Fraction:
    """The inequality's left side on a behaviour or a deterministic box."""
    if isinstance(b, DeterministicBox):
        return evaluate_box(ineq, b)
    s = ineq.scenario
    if b.scenario != s:
        raise ValueError("behaviour scenario mismatch")
    coeffs = ineq.coeffs
    return sum((coeffs[x][y][a][bb] * b.table[x][y][a][bb]
                for x in range(s.ma) for y in range(s.mb)
                for a in range(s.da) for bb in range(s.db)), Fraction(0))


def affine_dimension(boxes, rank=affine_rank) -> int:
    """Exact affine dimension of a set of deterministic boxes, from their
    probability vectors (the value is embedding-independent) and an affine
    rank function of integer points. Raises on empty input."""
    pts = [probability_vector(b) for b in boxes]
    if not pts:
        raise ValueError("affine dimension of an empty set")
    return rank(pts)


# ---------------------------------------------------------------------------
# cuts and exclusivity
# ---------------------------------------------------------------------------

def cut_to_behaviour(cv: CutVector) -> NCBehaviour:
    """Inverse map: the cut lives on a suspension graph whose apex is the
    last vertex; apex edges give singles, the rest give pair correlators."""
    sg = cv.graph
    apex = sg.n - 1
    base_edges = [(i, j) for i, j in sg.sorted_edges if j != apex]
    if {(i, apex) for i in range(apex)} - set(sg.sorted_edges):
        raise ValueError("graph is not a suspension: apex must see every vertex")
    base = Graph(apex, base_edges)
    singles = [1 - 2 * cv.bit(i, apex) for i in range(apex)]
    fulls = {(i, j): 1 - 2 * cv.bit(i, j) for i, j in base_edges}
    for i, j in base_edges:  # product structure of cuts, checked exhaustively
        if fulls[(i, j)] != singles[i] * singles[j]:
            raise VerificationError("cut image violates the apex factorization identity")
    return NCBehaviour(base, singles, fulls)


def ce1_from_triple_set(events, n: int) -> CorrelatorInequality:
    """Exclusivity inequality of a size-3 maximal set: the probabilities of
    the three events sum to at most 1, which in correlators reads
    ab <M_iM_j> + bc <M_jM_k> - ac <M_iM_k> <= 1 (singles cancel)."""
    if len(events) != 3:
        raise ValueError("triple sets have exactly three events")
    val = {}
    pairs = {}
    for e in events:
        pairs[(e.i, e.j)] = Fraction(e.a * e.b)
        for vtx, out in ((e.i, e.a), (e.j, e.b)):
            val.setdefault(vtx, []).append(out)
    if len(val) != 3 or any(len(v) != 2 or v[0] != -v[1] for v in val.values()):
        raise ValueError("events do not form a triangle with flipped shared outcomes")
    return CorrelatorInequality(n, pairs, (0,) * n, 1)


def ce_gap_certificate() -> NCBehaviour:
    """The behaviour of `ce_gap_report`, checked there."""
    rep = ce_gap_report()
    return NCBehaviour(Graph.complete(4), rep["singles"], dict(rep["fulls"]))


def ce_gap_grid_search(steps: int = 12):
    """Secondary brute-force route to the same gap: scan the two-parameter
    rational family <M_i> = s b_i, <M_iM_j> = -t b_i b_j, keep points passing
    positivity and every exclusivity inequality, and maximize the pentagonal
    value. Returns (best value, s, t)."""
    b = CE_GAP_B
    g4 = Graph.complete(4)
    pent = pentagonal_contextuality_inequality()
    ce1 = ce1_inequalities(4)
    best = (Fraction(-100), Fraction(0), Fraction(0))
    for si in range(steps + 1):
        for ti in range(steps + 1):
            s, t = Fraction(si, steps), Fraction(ti, steps)
            try:
                beh = NCBehaviour(g4, [s * v for v in b],
                                  {(i, j): -t * b[i] * b[j] for i, j in g4.sorted_edges})
            except ValueError:
                continue
            if any(ineq.evaluate_behaviour(beh) > 1 for ineq in ce1):
                continue
            val = pent.evaluate_behaviour(beh)
            if val > best[0]:
                best = (val, s, t)
    return best
