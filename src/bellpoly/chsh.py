"""Weighted two-input binary correlation inequalities.

Output sign flips multiply cell (x, y) of the 2x2 coefficient table by
s_x t_y, so they keep the product of the four signs and reach every sign
pattern with it; setting and party swaps permute the cells. So a table with
a zero cell or an even number of negative cells is a product game, whose
classical bound is the total weight, and any other has the canonical form
p1 E11 + p2 E12 + p3 E21 - p4 E22 <= 1 - 2 p4 with the negative weight
minimal. The canonical form carries an exact algebraic test deciding whether
the inequality supports the quantum correlation set (no quantum advantage)
or is violated, plus two independent numeric cross-checks: a spectral-radius
certificate for the no-advantage case and a closed-form single-qubit oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import VerificationError
from .rational import as_rational, parse_rational

CERT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class WeightedCHSH:
    """Canonical weight vector. p is (p1, p2, p3, p4), nonnegative, summing
    to 1. For the generic class the matrix is [[p1, p2], [p3, -p4]] with p4
    minimal and sign_cell (1, 1); for the all-nonnegative (trivial) class
    every cell is +p_i, trivial_even is True and sign_cell is None."""
    p: tuple
    trivial_even: bool = False

    def __post_init__(self):
        if len(self.p) != 4:
            raise ValueError("four weights required")
        object.__setattr__(self, "p", tuple(map(as_rational, self.p)))
        if any(v < 0 for v in self.p):
            raise ValueError("canonical weights are nonnegative")
        if sum(self.p) != 1:
            raise ValueError("canonical weights sum to 1")
        if not self.trivial_even and self.p[3] > min(self.p[:3]):
            raise ValueError("canonical form has the minimal weight on the negative cell")

    @property
    def sign_cell(self) -> Optional[tuple]:
        return None if self.trivial_even else (1, 1)

    @property
    def classical_game_value(self) -> Fraction:
        # game form: win iff a xor b equals the cell's target bit
        return 1 - self.p[3] if not self.trivial_even else Fraction(1)

    @property
    def correlator_bound(self) -> Fraction:
        return 2 * self.classical_game_value - 1


def _arrangements(m) -> tuple:
    """The 8 images of the row-major table m = (c11, c12, c21, c22) under
    setting swaps and the party swap: the row and column swaps, and their
    transposes."""
    a, b, c, d = m
    swaps = ((a, b, c, d), (c, d, a, b), (b, a, d, c), (d, c, b, a))
    return swaps + tuple((w, y, x, z) for w, x, y, z in swaps)


def canonicalize(raw_coeffs) -> WeightedCHSH:
    """Reduce four signed correlator coefficients (row-major cells) to the
    canonical class representative. With a zero cell or an even number of
    negative cells some relabeling makes every cell nonnegative: the
    inequality is a product game with classical value equal to the total
    weight, returned with trivial_even set and the lexicographically
    greatest arrangement of the magnitudes. Otherwise exactly one cell stays
    negative, moved to cell E22 with minimal magnitude, ties broken toward
    the lexicographically greatest (p1, p2, p3)."""
    c = [parse_rational(v, where="coefficient") for v in raw_coeffs]
    if len(c) != 4:
        raise ValueError("four coefficients required")
    total = sum(abs(v) for v in c)
    if total == 0:
        raise ValueError("all four coefficients are zero")
    arrangements = _arrangements(tuple(abs(v) / total for v in c))
    if 0 in c or sum(v < 0 for v in c) % 2 == 0:
        return WeightedCHSH(max(arrangements), trivial_even=True)
    return WeightedCHSH(max(m for m in arrangements if m[3] == min(m)))


def from_weights(values) -> WeightedCHSH:
    """The class named by four rationals. All nonnegative, they are the
    canonical weights, normalised and sorted in decreasing order (the minus
    sign on the fourth cell is implied); with a negative one they are signed
    coefficients (`canonicalize`)."""
    if any(v < 0 for v in values):
        return canonicalize(values)
    total = sum(values, Fraction(0))
    if total == 0:
        raise ValueError("weights cannot all be zero")
    return WeightedCHSH(tuple(sorted((v / total for v in values), reverse=True)))


# ---------------------------------------------------------------------------
# exact face decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceVerdict:
    verdict: str  # NontrivialFace | QuantumViolation | Trivial
    algebraically_trivial: bool
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    classical_game_value: Fraction

    @property
    def correlator_bound(self) -> Fraction:
        return 2 * self.classical_game_value - 1


def face_condition(w: WeightedCHSH) -> FaceVerdict:
    """Exact rational decision. The canonical inequality supports the quantum
    set iff (p2 p3 + p1 p4)^2 <= (p1 + p2)(p1 + p3)(p2 - p4)(p3 - p4);
    equality counts as supporting. A tie p4 == min(p1, p2, p3) can only
    support when both tied weights vanish, which is the trivial face."""
    if w.trivial_even:
        return FaceVerdict("Trivial", True, None, None, Fraction(1))
    p1, p2, p3, p4 = w.p
    lhs = (p2 * p3 + p1 * p4) ** 2
    rhs = (p1 + p2) * (p1 + p3) * (p2 - p4) * (p3 - p4)
    if lhs > rhs:
        return FaceVerdict("QuantumViolation", False, lhs, rhs, w.classical_game_value)
    if p4 < min(p1, p2, p3):
        return FaceVerdict("NontrivialFace", p4 == 0, lhs, rhs, w.classical_game_value)
    # condition holds with a tie: forces p4 == tied weight == 0
    if not (p4 == 0 and min(p1, p2, p3) == 0):
        raise VerificationError(
            f"supporting tie with nonzero weights p = {tuple(map(str, w.p))}")
    return FaceVerdict("Trivial", True, lhs, rhs, w.classical_game_value)


# ---------------------------------------------------------------------------
# spectral-radius certificate (numeric cross-check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaLambdaCertificate:
    phi: tuple
    sigma: tuple       # diagonal of the row-sum matrix
    lambda_: tuple     # diagonal of the column-sum matrix
    rho: float         # spectral radius; inf/nan when a scaling is singular
    verdict: str       # no-advantage | advantage | indefinite

    @property
    def tolerance(self) -> float:
        return CERT_TOLERANCE


def sigma_lambda_certificate(w: WeightedCHSH) -> SigmaLambdaCertificate:
    """Scaling certificate for the all-ones strategy: with Sigma holding the
    signed row sums and Lambda the signed column sums of the game matrix, the
    strategy is unbeatable iff the spectral radius of
    m = Lambda^-1 Phi^T Sigma^-1 Phi equals 1. Singular scalings give no
    verdict (indefinite) and the exact decision governs.

    m fixes the all-ones vector (Phi 1 = Sigma 1 and Phi^T 1 = Lambda 1), so
    its eigenvalues are 1 and det m = det(Phi)^2 / (det Sigma det Lambda),
    and rho = max(1, |det m|). This takes no square root: on the face
    boundary the two eigenvalues meet, and the root of a near-zero
    discriminant would carry an error of order 1e-8."""
    if w.trivial_even:
        raise ValueError("certificate applies to the canonical signed form")
    p1, p2, p3, p4 = (float(v) for v in w.p)
    phi = ((p1, p2), (p3, -p4))
    sigma = (p1 + p2, p3 - p4)
    lam = (p1 + p3, p2 - p4)
    det_phi = -p1 * p4 - p2 * p3
    if min(abs(sigma[0]), abs(sigma[1]), abs(lam[0]), abs(lam[1])) < 1e-300:
        rho = float("inf") if abs(det_phi) > 0 else float("nan")
        return SigmaLambdaCertificate(phi, sigma, lam, rho, "indefinite")
    rho = max(1.0, abs(det_phi * det_phi / (sigma[0] * sigma[1] * lam[0] * lam[1])))
    verdict = "no-advantage" if abs(rho - 1) <= CERT_TOLERANCE else "advantage"
    return SigmaLambdaCertificate(phi, sigma, lam, rho, verdict)


# ---------------------------------------------------------------------------
# single-qubit oracle (numeric lower bound on the quantum game value)
# ---------------------------------------------------------------------------

def qubit_value_estimate(w: WeightedCHSH) -> float:
    """Best game value over projective qubit measurements on the maximally
    entangled pair. Oracle assumption: for two-setting sign games that state
    and plane-angle measurements reach the quantum optimum, so the best
    correlator is sqrt(u + 2bc) + sqrt(v - 2ec) at the best cosine c of one
    relative angle (u = p1^2 + p3^2, b = p1 p3, v = p2^2 + p4^2, e = p2 p4).
    It is concave in c: its maximum lies at c = -1, c = 1 or the stationary
    point b^2 (v - 2ec) = e^2 (u + 2bc). Returns (1 + that maximum) / 2."""
    if w.trivial_even:
        return 1.0
    p1, p2, p3, p4 = (float(v) for v in w.p)
    u, b, v, e = p1 * p1 + p3 * p3, p1 * p3, p2 * p2 + p4 * p4, p2 * p4

    def correlator(c):
        return math.sqrt(max(0.0, u + 2 * b * c)) + math.sqrt(max(0.0, v - 2 * e * c))
    cosines = [-1.0, 1.0]
    if b > 0 and e > 0:
        cosines.append(min(1.0, max(-1.0, (b * b * v - e * e * u) / (2 * b * e * (b + e)))))
    return (1 + max(map(correlator, cosines))) / 2
