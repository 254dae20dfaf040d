"""Bipartite measurement scenarios, deterministic boxes, and linear
inequalities on behaviours.

Conventions used throughout the package:
  * a scenario (ma, mb, da, db) has ma Alice inputs with da outputs each and
    mb Bob inputs with db outputs;
  * a deterministic box is a pair of response maps (a_map, b_map); the
    facet tests project boxes to minimal no-signaling coordinates
    (`_reduced_rows`) or to full correlators (`_correlator_rows`), in bulk;
  * an inequality's coefficients are indexed [x][y][a][b], on
    P(a, b | x, y).

An inequality holds its exact rational coefficients and bound once, as one
integer table over their least common denominator (`BellInequality`), which
the facet tests scan as it is; box coordinates are integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .rational import as_rational
from .records import record


@record
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


@record
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


_SIGNS = np.array([[1, -1], [-1, 1]])  # a correlator cell [a][b] is c (-1)^(a xor b)


def int_scaled(values, bounds=()):
    """The rationals `values` (any nesting, such as a coefficient table) and
    `bounds`, each read with `as_rational`, times their common denominator:
    an integer array of the values' shape, the integer bounds and the
    denominator. The array is int64 unless the sum of every |value| and
    |bound|, which bounds each sum formed from them, reaches 2^62; then it
    holds Python ints."""
    shaped = np.asarray(values, dtype=object)
    flat = list(map(as_rational, shaped.ravel().tolist()))
    bounds = list(map(as_rational, bounds))
    den = lcm(*{v.denominator for v in flat}, *(b.denominator for b in bounds))
    scaled = [v.numerator * (den // v.denominator) for v in flat]
    targets = [b.numerator * (den // b.denominator) for b in bounds]
    dtype = np.int64 if sum(map(abs, scaled)) + sum(map(abs, targets)) < 2 ** 62 else object
    return np.array(scaled, dtype=dtype).reshape(shaped.shape), targets, den


@record
class BellInequality:
    """A linear functional sum c(a,b,x,y) P(a,b|x,y) <= bound, stored once,
    as integers over their least common denominator `den`: the read-only
    array `table` [x, y, a, b] of c * den, and `scaled_bound`, bound * den.
    The table follows the `int_scaled` rule: int64, or Python ints once the
    sum of every |entry| and |bound| reaches 2^62, so the scans read it as
    it is. The constructor takes the coefficients [x][y][a][b] and the bound
    as anything `Fraction` reads (a float exactly), and raises ValueError
    unless the table has the scenario's shape. `coeffs`, `bound` and `corr`
    rebuild the Fractions on demand. Two inequalities are equal when their
    scenario, space, bound and rational coefficients are, however built.

    `space` records how the inequality was built. A correlator-space
    inequality's cells are c (-1)^(a xor b), ((c, -c), (-c, c)) with
    c = corr(x, y), so evaluation is uniform; the constructor rejects any
    other cell, and `corr` reads the table [x][y] on <A_x B_y> back (None
    in probability space).
    """
    scenario: Scenario
    table: np.ndarray
    scaled_bound: int
    den: int
    space: str

    def __init__(self, scenario: Scenario, coeffs, bound, space: str = "probability"):
        s = scenario
        shape = (s.ma, s.mb, s.da, s.db)
        try:
            coeffs = np.asarray(coeffs, dtype=object)
        except ValueError:  # a table numpy cannot lay out
            coeffs = None
        if coeffs is None or coeffs.shape != shape:
            raise ValueError(f"coefficients must be a {' x '.join(map(str, shape))} "
                             f"[x][y][a][b] table in this scenario")
        table, (target,), den = int_scaled(coeffs, [bound])
        self._set(s, table, target, den, space)

    @classmethod
    def _of_integers(cls, scenario, table, bound, den, space="probability"):
        """The inequality table / den <= bound / den, from an integer array
        table [x, y, a, b] of the scenario's shape, which it takes over
        (read-only, no copy when it is already in lowest terms and of the
        right dtype), and integers bound and den > 0."""
        self = cls.__new__(cls)
        self._set(scenario, table, bound, den, space)
        return self

    def _set(self, scenario, table, bound, den, space):
        """Store table / den and bound / den in lowest terms, the table in
        its `int_scaled` dtype."""
        if space not in ("probability", "correlator"):
            raise ValueError(f"unknown inequality space {space!r}")
        if space == "correlator":
            if table.shape[2:] != (2, 2):
                raise ValueError("correlator inequalities need binary outputs")
            if not (table == table[:, :, :1, :1] * _SIGNS).all():
                raise ValueError("a correlator-space inequality's cells must be "
                                 "((c, -c), (-c, c))")
        flat = table.ravel().tolist()
        common = gcd(den, bound, *flat)
        if common > 1:
            table, bound, den = table // common, bound // common, den // common
        total = sum(map(abs, flat)) // common + abs(bound)
        table = table.astype(np.int64 if total < 2 ** 62 else object, copy=False)
        table.flags.writeable = False
        for name, value in (("scenario", scenario), ("table", table), ("scaled_bound", bound),
                            ("den", den), ("space", space)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, BellInequality):
            return NotImplemented
        return (self.scenario == other.scenario and self.space == other.space
                and self.den == other.den and self.scaled_bound == other.scaled_bound
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.scenario, self.space, self.den, self.scaled_bound,
                     tuple(self.table.ravel().tolist())))

    @property
    def bound(self) -> Fraction:
        return Fraction(self.scaled_bound, self.den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients [x][y][a][b], as nested tuples of Fractions."""
        den = self.den
        return tuple(tuple(tuple(tuple(Fraction(v, den) for v in cell) for cell in row)
                           for row in block) for block in self.table.tolist())

    @property
    def corr(self):
        if self.space != "correlator":
            return None
        return tuple(tuple(Fraction(c, self.den) for c in row)
                     for row in self.table[:, :, 0, 0].tolist())


def correlator_inequality(s: Scenario, corr, bound) -> BellInequality:
    """Build sum_{x,y} corr[x][y] <A_x B_y> <= bound as a BellInequality;
    its constructor checks that corr is ma x mb."""
    if s.da != 2 or s.db != 2:
        raise ValueError("correlator inequalities need binary outputs")
    # cell [a][b] is corr(x, y) (-1)^(a xor b)
    coeffs = tuple(tuple(((c, -c), (-c, c)) for c in map(as_rational, row)) for row in corr)
    return BellInequality(s, coeffs, bound, space="correlator")
