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

Coefficients and bounds are exact rationals; box coordinates are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np


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


def _check_shape(table, shape):
    """ValueError unless the nested table has exactly this shape: the scans
    read a table by the scenario's counts and would drop extra entries. It
    reads one level at a time with `map` and `chain`: a recursive walk over
    every entry added about a fifth to the `facets` benchmark's time."""
    level = [table]
    for depth, n in enumerate(shape):
        if depth:
            level = list(chain.from_iterable(level))
        try:
            fits = set(map(len, level)) == {n}
        except TypeError:  # a number where a row belongs
            fits = False
        if not fits:
            raise ValueError(f"coefficients must be a {' x '.join(map(str, shape))} "
                             f"[x][y][a][b] table in this scenario")


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
        s = self.scenario
        _check_shape(self.coeffs, (s.ma, s.mb, s.da, s.db))

    @property
    def corr(self):
        if self.space != "correlator":
            return None
        return tuple(tuple(cell[0][0] for cell in row) for row in self.coeffs)


def correlator_inequality(s: Scenario, corr, bound) -> BellInequality:
    """Build sum_{x,y} corr[x][y] <A_x B_y> <= bound as a BellInequality;
    its constructor checks that corr is ma x mb."""
    if s.da != 2 or s.db != 2:
        raise ValueError("correlator inequalities need binary outputs")
    # cell [a][b] is corr(x, y) (-1)^(a xor b)
    coeffs = tuple(tuple(((c, -c), (-c, c)) for c in map(Fraction, row)) for row in corr)
    return BellInequality(s, coeffs, Fraction(bound), space="correlator")
