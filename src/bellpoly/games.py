"""Game constructors and their Fourier blocks.

Two game families are first-class here, with a rational weight q(x, y) on
each input pair and one win rule: b wins against a iff b = shift + sign a
(mod d), a shift composed with a coset representative.

  * linear games over Z_d, win iff (a + b) mod d == f(x, y): every cell a
    reflection, sign -1 and shift f(x, y);
  * three-output unique games, win iff b == pi_{x,y}(a) for a permutation of
    {0,1,2}: a rotation (sign +1) or a reflection (-1), shift pi(0).

Distributed-computation (NLC) instances are built from a compact spec and come
out as linear games carrying their construction data, which the non-facet
machinery needs later.

Every game has one builder of its Fourier blocks for k = 1..d-1
(`fourier_blocks`), complex arrays in the weighted convention: entry (x, y)
is q(x, y) times a d-th root of unity, one block per coset of the kind.
The norm bound reads both kinds the same way.
"""

from __future__ import annotations

import operator
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


def _index(v, name):
    """v as an int; ValueError for anything else, such as a float."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} {v!r} is not an integer") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _is_power(m, d, n) -> bool:
    """Whether m = d^n, for d >= 2 and n >= 0. As d^n >= 2^n > m once
    n >= m.bit_length(), that is checked first, and a huge n takes no power."""
    return n < m.bit_length() and m == d ** n


class _Game:
    """The scenario, weight tables, total weight and win rule of both kinds.
    A kind supplies only its cells' (sign, shift) table (`sign_shift`) and
    its cosets, the signs it uses (`COSETS`), which the one win rule
    (`winning_b`) and the Fourier blocks read. Each table is built once per
    game, on first use, and is read-only."""

    def _check_fields(self, *ints):
        """Read ma, mb and the named fields as ints, and q as the weights."""
        for name in ("ma", "mb", *ints):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.ma < 1 or self.mb < 1:
            raise ValueError("each side needs at least one input")
        q = self._table("weight", self.q, as_rational)
        if any(v < 0 for row in q for v in row):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "q", q)

    def _table(self, name, rows, cell) -> tuple:
        """rows as an ma x mb tuple of tuples of cell(entry)."""
        table = tuple(tuple(map(cell, row)) for row in rows)
        if len(table) != self.ma or any(len(row) != self.mb for row in table):
            raise ValueError(f"{name} table shape does not match input counts")
        return table

    @property
    def scenario(self) -> Scenario:
        return Scenario(self.ma, self.mb, self.d, self.d)

    @cached_property
    def scaled_weights(self) -> tuple:
        """q integer-scaled (`int_scaled`): a read-only array [x, y] and the
        denominator."""
        Q, _, den = int_scaled(self.q)
        return _read_only(Q), den

    @cached_property
    def float_weights(self) -> np.ndarray:
        """q as a read-only float array [x, y]; ValueError when the total
        weight, which bounds every weight, is beyond the float range."""
        top = np.finfo(float).max
        if self.total_weight > top:
            raise ValueError(f"total weight beyond the float range (max {top:.17g})")
        return _read_only(np.array(self.q, dtype=float))

    @cached_property
    def total_weight(self) -> Fraction:
        Q, den = self.scaled_weights
        return Fraction(int(Q.sum()), den)

    def winning_b(self, a, x, y):
        """The Bob output that wins against a at (x, y), shift + sign a mod d,
        cellwise over broadcast arrays (or scalars)."""
        sign, shift = self.sign_shift
        return (shift[x, y] + sign[x, y] * a) % self.d

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

    COSETS = (-1,)

    def __post_init__(self):
        self._check_fields("d", "n")
        if self.d < 2:
            raise ValueError("need at least two outputs")
        f = self._table("winning-value", self.f, lambda v: _index(v, "winning value"))
        if any(not 0 <= v < self.d for row in f for v in row):
            raise ValueError("winning values must lie in Z_d")
        object.__setattr__(self, "f", f)
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n > 1 and not (_is_power(self.ma, self.d, self.n)
                               and _is_power(self.mb, self.d, self.n)):
            raise ValueError("dit-structured games need ma = mb = d^n")

    @cached_property
    def sign_shift(self) -> np.ndarray:
        """A read-only int array [sign/shift, x, y]: sign -1 and shift f."""
        f = np.array(self.f, dtype=np.int64)
        return _read_only(np.stack([np.full_like(f, -1), f]))


@record
class UniqueGame3(_Game):
    ma: int
    mb: int
    q: tuple
    perms: tuple  # [x][y] permutation names

    d = 3
    n = 1
    nlc = None
    COSETS = (1, -1)

    def __post_init__(self):
        self._check_fields()
        perms = self._table("permutation", self.perms, str)
        if unknown := [name for row in perms for name in row if name not in PERMS]:
            raise ValueError(f"unknown permutation {unknown[0]!r}; use {sorted(PERMS)}")
        object.__setattr__(self, "perms", perms)

    @cached_property
    def sign_shift(self) -> np.ndarray:
        """A read-only int array [sign/shift, x, y] of ROTATIONS (+1), REFLECTIONS (-1)."""
        cells = [[(1, ROTATIONS[p]) if p in ROTATIONS else (-1, REFLECTIONS[p]) for p in row]
                 for row in self.perms]
        return _read_only(np.array(cells, dtype=np.int64).transpose(2, 0, 1))


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
        object.__setattr__(self, "d", _index(self.d, "d"))
        object.__setattr__(self, "n", _index(self.n, "n"))
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        g = tuple(_index(v, "g entry") for v in self.g)
        p = tuple(map(as_rational, self.p))
        if len(g) != len(p):
            raise ValueError("g and p must share an index set")
        full = self.d == 2 and _is_power(len(g), 2, self.n)
        product = _is_power(len(g), self.d, self.n - 1)
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
        return _is_power(len(self.g), self.d, self.n - 1)


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
    """The Fourier blocks of g for k = 1..d-1, one tuple per k of complex
    arrays [x, y], one per coset s of g's kind (`COSETS`), in that order:
    q(x, y) zeta^(k shift(x, y)), zeta = exp(2 pi i / d), on the cells of
    sign s, 0 (weight 0, phase 0) on the rest; views of one broadcast over
    k per coset, read from one table of the d powers of zeta. A linear game
    has one block, Phi_k of phase k f; a 3-output unique game two, which
    partition q: rotations (phase k shift = -k f_minus) and reflections."""
    q, d, (sign, shift) = g.float_weights, g.d, g.sign_shift
    roots = np.exp(2j * pi * np.arange(d) / d)
    k = np.arange(1, d)[:, None, None]
    inside = [sign == s for s in g.COSETS]
    return tuple(zip(*(q * m * roots[k * shift * m % d] for m in inside)))


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
    corr = np.where(g.sign_shift[1] == 0, Q, -Q)
    return BellInequality._of_integers(g.scenario, corr[:, :, None, None] * _SIGNS,
                                       2 * top - int(Q.sum()), 2 * den, "correlator")
