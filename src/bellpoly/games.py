"""Game constructors and their Fourier blocks.

Two game families are first-class here:

  * linear games over Z_d: win iff (a + b) mod d == f(x, y), with a rational
    weight q(x, y) on each input pair;
  * three-output unique games: win iff b == pi_{x,y}(a) for a permutation of
    {0,1,2} attached to each input pair.

Distributed-computation (NLC) instances are built from a compact spec and come
out as linear games carrying their construction data, which the non-facet
machinery needs later.

Every game has one builder of its Fourier blocks for k = 1..d-1
(`fourier_blocks`), complex arrays in the weighted convention: entry (x, y)
is q(x, y) times a d-th root of unity. A linear game has one block per k,
Phi_k with phase k f(x, y); a 3-output unique game has two, one per coset
of its permutations. The norm bound reads both kinds the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, pi

import numpy as np

from .errors import DEFAULT_BOX_BUDGET
from .rational import as_rational
from .records import record
from .scenario import _SIGNS, BellInequality, Scenario, int_scaled

# permutations of {0,1,2} by cycle name; table[i] = image of i
PERMS = {
    "e": (0, 1, 2),
    "(01)": (1, 0, 2),
    "(02)": (2, 1, 0),
    "(12)": (0, 2, 1),
    "(012)": (1, 2, 0),
    "(021)": (2, 0, 1),
}
# by shift pi(0): rotations pi(a) = a + shift, reflections pi(a) = shift - a (mod 3)
ROTATIONS = {name: t[0] for name, t in PERMS.items() if t[1] == (t[0] + 1) % 3}
REFLECTIONS = {name: t[0] for name, t in PERMS.items() if name not in ROTATIONS}
# PERMS as a read-only array [permutation, a], rows in the order of PERMS
_PERM_IMAGES = np.array(list(PERMS.values()), dtype=np.int64)
_PERM_IMAGES.flags.writeable = False
_PERM_INDEX = {name: i for i, name in enumerate(PERMS)}


def _check_weight_table(q, ma, mb):
    if ma < 1 or mb < 1:
        raise ValueError("each side needs at least one input")
    q = tuple(tuple(map(as_rational, row)) for row in q)
    if len(q) != ma or any(len(row) != mb for row in q):
        raise ValueError("weight table shape does not match input counts")
    if any(v < 0 for row in q for v in row):
        raise ValueError("weights must be nonnegative")
    return q


class _Game:
    """The scenario, weight tables, total weight and win rule of both kinds.
    The win rule is one array expression per kind (`winning_b`), which the
    functional's table and the exact re-check of a strategy both call. As
    games are immutable, each table is built once per game, on first use,
    and is read-only: the integer weights (`scaled_weights`), which the
    scan's functional and the total weight read, the float weights
    (`float_weights`), which every Fourier block reads, and the table the
    win rule reads. A value report reads the total weight twice (the
    no-signaling value and the clamp of the norm bound)."""

    @property
    def scenario(self) -> Scenario:
        return Scenario(self.ma, self.mb, self.d, self.d)

    @cached_property
    def scaled_weights(self) -> tuple:
        """q integer-scaled (`int_scaled`): a read-only array [x, y] and the
        denominator."""
        Q, _, den = int_scaled(self.q)
        Q.flags.writeable = False
        return Q, den

    @cached_property
    def float_weights(self) -> np.ndarray:
        """q as a read-only float array [x, y]; ValueError when the total
        weight, which bounds every weight, is beyond the float range."""
        top = np.finfo(float).max
        if self.total_weight > top:
            raise ValueError(f"total weight beyond the float range (max {top:.17g})")
        Q = np.array(self.q, dtype=float)
        Q.flags.writeable = False
        return Q

    @cached_property
    def total_weight(self) -> Fraction:
        Q, den = self.scaled_weights
        return Fraction(int(Q.sum()), den)

    def win(self, a, b, x, y):
        """Whether b wins against a at (x, y), cellwise over broadcast arrays."""
        return b == self.winning_b(a, x, y)


@record
class LinearGame(_Game):
    d: int
    ma: int
    mb: int
    q: tuple  # [x][y] Fraction >= 0
    f: tuple  # [x][y] int in Z_d
    n: int = 1  # dits per input when inputs range over Z_d^n
    nlc: "NLCSpec" = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need at least two outputs")
        object.__setattr__(self, "q", _check_weight_table(self.q, self.ma, self.mb))
        f = tuple(tuple(int(v) for v in row) for row in self.f)
        if len(f) != self.ma or any(len(row) != self.mb for row in f):
            raise ValueError("winning-value table shape does not match input counts")
        if any(not 0 <= v < self.d for row in f for v in row):
            raise ValueError("winning values must lie in Z_d")
        object.__setattr__(self, "f", f)
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n > 1 and (self.ma != self.d ** self.n or self.mb != self.d ** self.n):
            raise ValueError("dit-structured games need ma = mb = d^n")

    @cached_property
    def f_table(self) -> np.ndarray:
        """f as a read-only int array [x, y]."""
        f = np.array(self.f, dtype=np.int64)
        f.flags.writeable = False
        return f

    def winning_b(self, a, x, y):
        """The Bob output that wins against a at (x, y), a + b = f(x, y) mod d,
        cellwise over broadcast arrays (or scalars)."""
        return (self.f_table[x, y] - a) % self.d


@record
class UniqueGame3(_Game):
    ma: int
    mb: int
    q: tuple
    perms: tuple  # [x][y] permutation names

    d = 3

    def __post_init__(self):
        object.__setattr__(self, "q", _check_weight_table(self.q, self.ma, self.mb))
        perms = tuple(tuple(str(v) for v in row) for row in self.perms)
        if len(perms) != self.ma or any(len(row) != self.mb for row in perms):
            raise ValueError("permutation table shape does not match input counts")
        for row in perms:
            for name in row:
                if name not in PERMS:
                    raise ValueError(f"unknown permutation {name!r}; use {sorted(PERMS)}")
        object.__setattr__(self, "perms", perms)

    @cached_property
    def perm_indexes(self) -> np.ndarray:
        """perms as a read-only int array [x, y] of their rows in PERMS."""
        index = np.array([[_PERM_INDEX[name] for name in row] for row in self.perms],
                         dtype=np.int64)
        index.flags.writeable = False
        return index

    def winning_b(self, a, x, y):
        """The Bob output that wins against a at (x, y), pi_{x,y}(a), cellwise
        over broadcast arrays (or scalars)."""
        return _PERM_IMAGES[self.perm_indexes[x, y], a]


# ---------------------------------------------------------------------------
# NLC construction
# ---------------------------------------------------------------------------

def _is_prime(d):
    return d >= 2 and all(d % i for i in range(2, isqrt(d) + 1))


@record
class NLCSpec:
    """Compact description of a distributed-computation game.

    For d = 2 the table `g` may be a full truth table on Z_2^n (arbitrary
    function, length 2^n) or a product-form table on Z_2^(n-1). For d >= 3
    only the product form g(first n-1 dits) * (last dit sum) is accepted.
    `p` is a rational probability distribution on the same index set as `g`.
    """
    d: int
    n: int
    g: tuple
    p: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        g = tuple(int(v) for v in self.g)
        p = tuple(map(as_rational, self.p))
        if len(g) != len(p):
            raise ValueError("g and p must share an index set")
        full = self.d == 2 and len(g) == 2 ** self.n
        product = len(g) == self.d ** (self.n - 1)
        if not (full or product):
            raise ValueError(
                f"table length {len(g)} matches neither a full d=2 table (2^n) "
                f"nor a product-form table (d^(n-1))")
        if any(not 0 <= v < self.d for v in g):
            raise ValueError("g values must lie in Z_d")
        if any(v < 0 for v in p) or sum(p) != 1:
            raise ValueError("p must be a probability distribution")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "p", p)

    @property
    def is_product_form(self) -> bool:
        return len(self.g) == self.d ** (self.n - 1)


def input_dits(x, d, n):
    """Base-d digits of x, most significant first (n digits)."""
    return tuple(x // d ** (n - 1 - i) % d for i in range(n))


def build_nlc2(spec: NLCSpec) -> LinearGame:
    """Binary distributed-computation game: q(x,y) = p(x xor y)/2^n and
    f(x,y) = g(x xor y), any g: Z_2^n -> Z_2."""
    if spec.d != 2:
        raise ValueError("build_nlc2 needs d = 2")
    if len(spec.g) != 2 ** spec.n:
        raise ValueError("build_nlc2 needs the full f-table; use build_nlcd for product form")
    return build_nlc(spec)


def build_nlc(spec: NLCSpec) -> LinearGame:
    """Distributed-computation game for prime d: q(x,y) = p(z)/d^n and
    f(x,y) = g(z) with z = x + y dit-wise mod d. A product-form table is
    first written out on Z_d^n: g(z) = g(zt) * z_n and p(z) = p(zt)/d, where
    zt is the string of the first n-1 dits."""
    d, n = spec.d, spec.n
    if not _is_prime(d):
        raise ValueError(f"d = {d} is not prime")
    g, p = spec.g, spec.p
    if spec.is_product_form:
        g = [gt * zn % d for gt in g for zn in range(d)]
        p = [pt / d for pt in p for _ in range(d)]
    m = d ** n
    i, z = np.arange(m), np.zeros((m, m), dtype=np.int64)
    for w in d ** np.arange(n):
        z += (i[:, None] // w + i // w) % d * w
    z = z.tolist()
    q = [p_z / m for p_z in p]
    return LinearGame(d, m, m, tuple(tuple(q[v] for v in row) for row in z),
                      tuple(tuple(g[v] for v in row) for row in z), n=n, nlc=spec)


def build_nlcd(spec: NLCSpec) -> LinearGame:
    """Product-form distributed-computation game for prime d:
    f(x,y) = g(xt + yt) * (x_n + y_n) and q(x,y) = p(xt + yt) / d^(n+1),
    where xt is the string of the first n-1 dits (digit-wise sums mod d).
    `build_nlc` checks that d is prime."""
    if not spec.is_product_form:
        raise ValueError("build_nlcd needs the product-form table g on Z_d^(n-1)")
    return build_nlc(spec)


# ---------------------------------------------------------------------------
# Fourier blocks
# ---------------------------------------------------------------------------

def fourier_blocks(g) -> tuple:
    """The Fourier blocks of g for k = 1..d-1, one tuple per k, of complex
    arrays [x, y] whose entries are q(x, y) zeta^(phase), zeta = exp(2 pi i / d),
    read from one table of the d powers of zeta: for a linear game one
    block, Phi_k, of phase k f(x, y), all d - 1 of them from one broadcast
    over k (views of one array); for a 3-output unique game two, which
    partition q. Its permutations split into rotations (a -> a + c) and
    reflections (a -> c - a), and each input pair feeds one coset's block:
    a rotation cell has phase -k f_minus, where a - b = f_minus on a win,
    and a reflection cell phase k f_plus, where a + b = f_plus on a win."""
    q, d = g.float_weights, g.d
    roots = np.exp(2j * pi * np.arange(d) / d)
    if isinstance(g, LinearGame):
        k = np.arange(1, d)[:, None, None]
        return tuple((block,) for block in q * roots[k * g.f_table % d])
    # rotation cells: f_minus = -shift, so -k f_minus = k shift; reflections: f_plus = shift
    cosets = [(q * [[name in shifts for name in row] for row in g.perms],
               np.array([[shifts.get(name, 0) for name in row] for row in g.perms]))
              for shifts in (ROTATIONS, REFLECTIONS)]
    return tuple(tuple(w * roots[k * s % d] for w, s in cosets) for k in range(1, d))


# ---------------------------------------------------------------------------
# Inequality views
# ---------------------------------------------------------------------------

def to_bell_inequality(g) -> BellInequality:
    """The game as a linear functional on behaviours, bounded by its exact
    classical value: sum q(x,y) P(win|x,y) <= omega_c. Its table is g's
    integer functional (`scaled_functionals`), built once and scanned for
    the value."""
    from .values import _exact_value, _pruned_scan  # deferred: values depends on games

    C, den = scaled_functionals(g)
    cv = _exact_value(g, _pruned_scan(C, DEFAULT_BOX_BUDGET), den)
    return BellInequality._of_integers(g.scenario, C, int(cv.value * den), den)


def scaled_functionals(g):
    """g's functional, q(x, y) where b wins against a at (x, y), integer-scaled:
    an array [x, y, a, b] built from g's integer weights (`scaled_weights`),
    and the denominator. The winning outputs B[x, y, a] come from one call
    of the win rule (`winning_b`) on broadcast index grids."""
    Q, den = g.scaled_weights
    x, y, a = np.ix_(np.arange(g.ma), np.arange(g.mb), np.arange(g.d))
    C = np.zeros((g.ma, g.mb, g.d, g.d), dtype=Q.dtype)
    C[x, y, a, g.winning_b(a, x, y)] = Q[..., None]
    return C, den


def to_correlator_inequality(g: LinearGame) -> BellInequality:
    """Correlator-space view of a binary game: the win probability is
    W/2 + (1/2) sum q(x,y) (-1)^f(x,y) <A_x B_y>, so the correlator
    coefficients are q(x,y)(-1)^f(x,y)/2 with bound omega_c - W/2. Over the
    denominator 2 den of g's integer weights Q (`scaled_weights`), the table
    is Q (-1)^f times ((1, -1), (-1, 1)) and the bound 2 top - sum Q, where
    top / den is the classical value."""
    from .values import classical_value

    if g.d != 2:
        raise ValueError("correlator form needs binary outputs")
    Q, den = g.scaled_weights
    top = int(classical_value(g).value * den)
    corr = np.where(g.f_table == 0, Q, -Q)
    return BellInequality._of_integers(g.scenario, corr[:, :, None, None] * _SIGNS,
                                       2 * top - int(Q.sum()), 2 * den, "correlator")
