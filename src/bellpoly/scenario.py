"""Bipartite measurement scenarios, behaviours, and linear functionals on them.

Conventions used throughout the package:
  * a scenario (ma, mb, da, db) has ma Alice inputs with da outputs each and
    mb Bob inputs with db outputs;
  * a behaviour is the full conditional table P(a, b | x, y), stored exactly
    as nested tuples of Fractions indexed [x][y][a][b];
  * deterministic boxes are pairs of response maps, enumerated in
    lexicographic order on (a_map, b_map).

All arithmetic in this module is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .exactrank import affine_rank

DEFAULT_BOX_BUDGET = 2 ** 24


@dataclass(frozen=True)
class Scenario:
    ma: int
    mb: int
    da: int
    db: int

    def __post_init__(self):
        for v in (self.ma, self.mb, self.da, self.db):
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"scenario parameters must be positive integers, got {self}")

    @property
    def box_count(self) -> int:
        return self.da ** self.ma * self.db ** self.mb


def ns_polytope_dimension(s: Scenario) -> int:
    """Affine dimension of the no-signaling polytope of the scenario.

    The local polytope is full-dimensional inside the same affine subspace,
    so facet tests against either polytope use this ambient dimension.
    """
    return (s.ma * s.mb * (s.da - 1) * (s.db - 1)
            + s.ma * (s.da - 1)
            + s.mb * (s.db - 1))


@dataclass(frozen=True)
class DeterministicBox:
    scenario: Scenario
    a_map: tuple
    b_map: tuple

    def __post_init__(self):
        s = self.scenario
        if len(self.a_map) != s.ma or len(self.b_map) != s.mb:
            raise ValueError("response map lengths do not match the scenario")
        if any(not 0 <= a < s.da for a in self.a_map) or any(not 0 <= b < s.db for b in self.b_map):
            raise ValueError("response map values out of range")

    def behaviour(self) -> "Behaviour":
        table = _table(self.scenario, map(Fraction, self.probability_vector()))
        return Behaviour(self.scenario, table)

    def probability_vector(self) -> tuple:
        """Flat 0/1 vector of P(a, b | x, y) in x, y, a, b order."""
        s = self.scenario
        return tuple(1 if (a == self.a_map[x] and b == self.b_map[y]) else 0
                     for x in range(s.ma) for y in range(s.mb)
                     for a in range(s.da) for b in range(s.db))

    def reduced_vector(self) -> tuple:
        """Minimal no-signaling coordinates: Alice marginals for a < da-1, Bob
        marginals for b < db-1, and the joint block for a < da-1, b < db-1.
        The length equals ns_polytope_dimension(scenario)."""
        A, B = np.array([self.a_map]), np.array([self.b_map])
        return tuple(_reduced_rows(self.scenario, A, B)[0].tolist())

    def correlator_vector(self) -> tuple:
        """(+1/-1)^{ma*mb} vector of <A_x B_y>; binary outputs only."""
        s = self.scenario
        if s.da != 2 or s.db != 2:
            raise ValueError("correlators need binary outputs")
        A, B = np.array([self.a_map]), np.array([self.b_map])
        return tuple(_correlator_rows(s, A, B)[0].tolist())


def _reduced_rows(s: Scenario, A, B) -> np.ndarray:
    """reduced_vector of the boxes (A[k], B[k]), one integer row each; A and
    B hold the Alice and Bob maps as rows."""
    alice = A[:, :, None] == np.arange(s.da - 1)
    bob = B[:, :, None] == np.arange(s.db - 1)
    joint = alice[:, :, None, :, None] & bob[:, None, :, None, :]
    return np.hstack([m.reshape(len(A), -1) for m in (alice, bob, joint)]).astype(np.int64)


def _correlator_rows(s: Scenario, A, B) -> np.ndarray:
    """correlator_vector of the boxes (A[k], B[k]), one integer row each."""
    return np.where(A[:, :, None] == B[:, None, :], 1, -1).reshape(len(A), s.ma * s.mb)


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
    return box.behaviour()


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


@dataclass(frozen=True)
class BellInequality:
    """A linear functional sum c(a,b,x,y) P(a,b|x,y) <= bound.

    `space` records how the inequality was built. A correlator-space
    inequality's coefficients are c = corr(x,y) * (-1)^(a xor b), so
    evaluation is uniform; `corr` reads its table [x][y] on <A_x B_y> back
    (None in probability space).
    """
    scenario: Scenario
    coeffs: tuple  # [x][y][a][b] of Fraction
    bound: Fraction
    space: str = "probability"

    def __post_init__(self):
        if self.space not in ("probability", "correlator"):
            raise ValueError(f"unknown inequality space {self.space!r}")

    @property
    def corr(self):
        if self.space != "correlator":
            return None
        return tuple(tuple(cell[0][0] for cell in row) for row in self.coeffs)

    def evaluate(self, b: Behaviour) -> Fraction:
        s = self.scenario
        if b.scenario != s:
            raise ValueError("behaviour scenario mismatch")
        return sum((self.coeffs[x][y][a][bb] * b.table[x][y][a][bb]
                    for x in range(s.ma) for y in range(s.mb)
                    for a in range(s.da) for bb in range(s.db)), Fraction(0))

    def evaluate_box(self, box: DeterministicBox) -> Fraction:
        s = self.scenario
        return sum((self.coeffs[x][y][box.a_map[x]][box.b_map[y]]
                    for x in range(s.ma) for y in range(s.mb)), Fraction(0))


def correlator_inequality(s: Scenario, corr, bound) -> BellInequality:
    """Build sum_{x,y} corr[x][y] <A_x B_y> <= bound as a BellInequality."""
    if s.da != 2 or s.db != 2:
        raise ValueError("correlator inequalities need binary outputs")
    corr = tuple(tuple(Fraction(v) for v in row) for row in corr)
    coeffs = tuple(
        tuple(
            tuple(tuple(corr[x][y] * (1 if a == b else -1) for b in range(2))
                  for a in range(2))
            for y in range(s.mb))
        for x in range(s.ma))
    return BellInequality(s, coeffs, Fraction(bound), space="correlator")


def evaluate(ineq: BellInequality, b) -> Fraction:
    """Module-level convenience: works on behaviours and deterministic boxes."""
    if isinstance(b, DeterministicBox):
        return ineq.evaluate_box(b)
    return ineq.evaluate(b)


def affine_dimension(boxes) -> int:
    """Exact affine dimension of a set of boxes/behaviours (full probability
    coordinates; the value is embedding-independent). Raises on empty input."""
    pts = [b.probability_vector() for b in boxes]
    if not pts:
        raise ValueError("affine dimension of an empty set")
    return affine_rank(pts)
