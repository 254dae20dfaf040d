"""Game constructors and their Fourier blocks.

Two game families are first-class here:

  * linear games over Z_d: win iff (a + b) mod d == f(x, y), with a rational
    weight q(x, y) on each input pair;
  * three-output unique games: win iff b == pi_{x,y}(a) for a permutation of
    {0,1,2} attached to each input pair.

Distributed-computation (NLC) instances are built from a compact spec and come
out as linear games carrying their construction data, which the non-facet
machinery needs later.

Every game has one builder of its k-th Fourier blocks (`fourier_blocks`),
complex arrays in the weighted convention: entry (x, y) is q(x, y) times a
d-th root of unity. A linear game has one block, Phi_k with phase
k f(x, y); a 3-output unique game has two, one per coset of its
permutations. The norm bound reads both kinds the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm, pi

import numpy as np

from .scenario import BellInequality, Scenario, correlator_inequality

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


def _check_weight_table(q, ma, mb):
    if ma < 1 or mb < 1:
        raise ValueError("each side needs at least one input")
    q = tuple(tuple(Fraction(v) for v in row) for row in q)
    if len(q) != ma or any(len(row) != mb for row in q):
        raise ValueError("weight table shape does not match input counts")
    if any(v < 0 for row in q for v in row):
        raise ValueError("weights must be nonnegative")
    return q


class _Game:
    """The scenario, total weight and win rule (`winning_b`) of both kinds.
    The total weight is summed once per game, as games are immutable: a
    value report reads it twice (the no-signaling value and the clamp of
    the norm bound)."""

    @property
    def scenario(self) -> Scenario:
        return Scenario(self.ma, self.mb, self.d, self.d)

    @cached_property
    def total_weight(self) -> Fraction:
        Q, _, den = int_scaled(self.q)
        return Fraction(int(Q.sum()), den)

    def win(self, a, b, x, y) -> bool:
        return b == self.winning_b(a, x, y)


@dataclass(frozen=True)
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

    def winning_b(self, a, x, y) -> int:
        # the unique Bob output that wins against a on (x, y): a + b = f(x, y) mod d
        return (self.f[x][y] - a) % self.d


@dataclass(frozen=True)
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

    def winning_b(self, a, x, y) -> int:
        return PERMS[self.perms[x][y]][a]


# ---------------------------------------------------------------------------
# NLC construction
# ---------------------------------------------------------------------------

def _is_prime(d):
    return d >= 2 and all(d % i for i in range(2, isqrt(d) + 1))


@dataclass(frozen=True)
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
        p = tuple(Fraction(v) for v in self.p)
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


def dits_to_index(dits, d):
    v = 0
    for t in dits:
        v = v * d + t
    return v


def ditwise_add(u, v, d, n):
    """Index of the digit-wise mod-d sum of two base-d encoded strings."""
    du = input_dits(u, d, n)
    dv = input_dits(v, d, n)
    return dits_to_index(tuple((a + b) % d for a, b in zip(du, dv)), d)


def build_nlc2(spec: NLCSpec) -> LinearGame:
    """Binary distributed-computation game: q(x,y) = p(x xor y)/2^n and
    f(x,y) = g(x xor y), any g: Z_2^n -> Z_2."""
    if spec.d != 2:
        raise ValueError("build_nlc2 needs d = 2")
    if len(spec.g) != 2 ** spec.n:
        raise ValueError("build_nlc2 needs the full f-table; use build_nlcd for product form")
    m = 2 ** spec.n
    q = tuple(tuple(spec.p[x ^ y] / m for y in range(m)) for x in range(m))
    f = tuple(tuple(spec.g[x ^ y] for y in range(m)) for x in range(m))
    return LinearGame(2, m, m, q, f, n=spec.n, nlc=spec)


def build_nlc(spec: NLCSpec) -> LinearGame:
    """Dispatch on the table shape: full d=2 truth tables go through
    build_nlc2, product-form tables (any prime d, including 2) through
    build_nlcd."""
    if spec.d == 2 and len(spec.g) == 2 ** spec.n:
        return build_nlc2(spec)
    return build_nlcd(spec)


def build_nlcd(spec: NLCSpec) -> LinearGame:
    """Product-form distributed-computation game for prime d:
    f(x,y) = g(xt + yt) * (x_n + y_n) and q(x,y) = p(xt + yt) / d^(n+1),
    where xt is the string of the first n-1 dits (digit-wise sums mod d)."""
    d = spec.d
    if not _is_prime(d):
        raise ValueError(f"d = {d} is not prime")
    if not spec.is_product_form:
        raise ValueError("build_nlcd needs the product-form table g on Z_d^(n-1)")
    n = spec.n
    m = d ** n
    den = d ** (n + 1)
    q = [[None] * m for _ in range(m)]
    f = [[0] * m for _ in range(m)]
    for x in range(m):
        xt, xn = divmod(x, d)
        for y in range(m):
            yt, yn = divmod(y, d)
            zt = ditwise_add(xt, yt, d, n - 1)
            q[x][y] = spec.p[zt] / den
            f[x][y] = (spec.g[zt] * ((xn + yn) % d)) % d
    return LinearGame(d, m, m, tuple(map(tuple, q)), tuple(map(tuple, f)),
                      n=n, nlc=spec)


# ---------------------------------------------------------------------------
# Fourier blocks
# ---------------------------------------------------------------------------

def fourier_blocks(g, k: int) -> tuple:
    """The k-th Fourier blocks of g, complex arrays [x, y] whose entries are
    q(x, y) zeta^(phase), zeta = exp(2 pi i / d): for a linear game one
    block, Phi_k, of phase k f(x, y); for a 3-output unique game two, which
    partition q. Its permutations split into rotations (a -> a + c) and
    reflections (a -> c - a), and each input pair feeds one coset's block:
    a rotation cell has phase -k f_minus, where a - b = f_minus on a win,
    and a reflection cell phase k f_plus, where a + b = f_plus on a win."""
    if not 1 <= k <= g.d - 1:
        raise ValueError(f"k must be in 1..{g.d - 1}, got {k}")
    q = np.array([[float(v) for v in row] for row in g.q])
    if isinstance(g, LinearGame):
        return (_phased(q, k * np.array(g.f), g.d),)
    # rotation cells: f_minus = -shift, so -k f_minus = k shift; reflections: f_plus = shift
    return tuple(_phased(q * [[name in shifts for name in row] for row in g.perms],
                         [[k * shifts.get(name, 0) for name in row] for row in g.perms], 3)
                 for shifts in (ROTATIONS, REFLECTIONS))


def _phased(weights, exponents, d) -> np.ndarray:
    return weights * np.exp(2j * pi * (np.asarray(exponents) % d) / d)


# ---------------------------------------------------------------------------
# Inequality views and subgames
# ---------------------------------------------------------------------------

def to_bell_inequality(g) -> BellInequality:
    """The game as a linear functional on behaviours, bounded by its exact
    classical value: sum q(x,y) P(win|x,y) <= omega_c."""
    from .values import classical_value  # deferred: values depends on games

    return BellInequality(g.scenario, _win_coeffs(g), classical_value(g).value)


def _win_coeffs(g) -> tuple:
    """The game functional's coefficients q(x,y) [b wins against a at (x,y)],
    indexed [x][y][a][b]. Cells with the same weight and winning answers
    share one table."""
    s = g.scenario
    zero = Fraction(0)
    tables = {}

    def table(x, y):
        q = g.q[x][y]
        wins = tuple(g.winning_b(a, x, y) for a in range(s.da)) if q else ()
        if (q, wins) not in tables:
            tables[q, wins] = tuple(tuple(q if q and b == wins[a] else zero for b in range(s.db))
                                    for a in range(s.da))
        return tables[q, wins]
    return tuple(tuple(table(x, y) for y in range(s.mb)) for x in range(s.ma))


def int_scaled(values, bounds=()):
    """The rationals `values` (any nesting, such as a coefficient table) and
    `bounds` times their common denominator: an integer array of the values'
    shape, the integer bounds and the denominator. The array is int64 unless
    the sum of every |value| and |bound|, which bounds each sum formed from
    them, reaches 2^62; then it holds Python ints."""
    shaped = np.array(values, dtype=object)
    flat = shaped.ravel().tolist()
    den = lcm(*{v.denominator for v in flat}, *(b.denominator for b in bounds))
    scaled = [v.numerator * (den // v.denominator) for v in flat]
    targets = [b.numerator * (den // b.denominator) for b in bounds]
    dtype = np.int64 if sum(map(abs, scaled)) + sum(map(abs, targets)) < 2 ** 62 else object
    return np.array(scaled, dtype=dtype).reshape(shaped.shape), targets, den


def scaled_functionals(g):
    """g's functional (as in `_win_coeffs`) integer-scaled (`int_scaled`):
    an array [x, y, a, b] and the denominator."""
    shape = (g.ma, g.mb, g.d)  # x, y, a
    Q, _, den = int_scaled(g.q)
    B = np.array([[[g.winning_b(a, x, y) for a in range(g.d)] for y in range(g.mb)]
                  for x in range(g.ma)], dtype=np.int64).reshape(shape)
    C = np.zeros(shape + (g.d,), dtype=Q.dtype)
    C[np.ix_(*map(np.arange, shape)) + (B,)] = Q.reshape(shape[:2] + (1,))
    return C, den


def to_correlator_inequality(g: LinearGame) -> BellInequality:
    """Correlator-space view of a binary game: the win probability is
    W/2 + (1/2) sum q(x,y) (-1)^f(x,y) <A_x B_y>, so the correlator
    coefficients are q(x,y)(-1)^f(x,y)/2 with bound omega_c - W/2."""
    from .values import classical_value

    if g.d != 2:
        raise ValueError("correlator form needs binary outputs")
    corr = tuple(
        tuple(g.q[x][y] * (1 if g.f[x][y] == 0 else -1) / 2 for y in range(g.mb))
        for x in range(g.ma))
    bound = classical_value(g).value - g.total_weight / 2
    return correlator_inequality(g.scenario, corr, bound)


def subgame_restrict(g, fix_a=None, fix_b=None):
    """Zero out all weight outside a partial assignment of input dits.

    fix_a / fix_b map dit positions (0 = first = most significant) to values.
    The game shape is unchanged; only q is masked, so fragment inequalities
    live in the same scenario and sum cell-wise to the original. The masked
    game comes out of g's constructor; a linear one carries no NLC spec, as
    the spec no longer describes its weights.
    """
    fix_a, fix_b = dict(fix_a or {}), dict(fix_b or {})
    if not fix_a and not fix_b:
        raise ValueError("empty restriction")
    n, d = getattr(g, "n", 1), g.d
    for pos, val in [*fix_a.items(), *fix_b.items()]:
        if not 0 <= pos < n:
            raise ValueError(f"dit position {pos} out of range for n = {n}")
        if not 0 <= val < d:
            raise ValueError(f"dit value {val} out of range for d = {d}")

    def kept(m, fixes):
        dits = [input_dits(i, d, n) for i in range(m)]
        return [all(t[pos] == val for pos, val in fixes.items()) for t in dits]

    keep_x, keep_y = kept(g.ma, fix_a), kept(g.mb, fix_b)
    q = tuple(tuple(v if keep_x[x] and keep_y[y] else Fraction(0) for y, v in enumerate(row))
              for x, row in enumerate(g.q))
    if isinstance(g, LinearGame):
        return replace(g, q=q, nlc=None)
    return replace(g, q=q)
