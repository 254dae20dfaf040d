"""Dit-string helpers, subgames and the cellwise game functional, kept as
the tests' reference: the library builds dit-structured games
(`games.build_nlc`), game inequalities (`games.to_bell_inequality`,
`games.to_correlator_inequality`) and their fragments
(`tightness._fragment_report`) from integer arrays and never calls these;
the tests check it against them.
"""
from fractions import Fraction

from bellpoly.games import LinearGame, input_dits
from bellpoly.records import replace
from bellpoly.scenario import BellInequality, correlator_inequality
from bellpoly.values import classical_value


def dits_to_index(dits, d):
    """The index whose base-d digits, most significant first, are `dits`
    (the inverse of `input_dits`)."""
    v = 0
    for t in dits:
        v = v * d + t
    return v


def ditwise_add(u, v, d, n):
    """Index of the digit-wise mod-d sum of two base-d encoded strings."""
    du = input_dits(u, d, n)
    dv = input_dits(v, d, n)
    return dits_to_index(tuple((a + b) % d for a, b in zip(du, dv)), d)


def _win_coeffs(g) -> tuple:
    """The game functional's coefficients q(x,y) [b wins against a at (x,y)],
    indexed [x][y][a][b], as Fractions. Cells with the same weight and
    winning answers share one table."""
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


def fraction_inequalities(g):
    """g's Bell inequality, and its correlator inequality for a binary game
    (else None), built from Fraction tables: the win coefficients
    (`_win_coeffs`) bounded by the classical value, and q(x,y)(-1)^f(x,y)/2
    bounded by it minus half the total weight."""
    value = classical_value(g).value
    bell = BellInequality(g.scenario, _win_coeffs(g), value)
    if g.d != 2:
        return bell, None
    corr = [[g.q[x][y] * (-1) ** g.f[x][y] / 2 for y in range(g.mb)] for x in range(g.ma)]
    return bell, correlator_inequality(g.scenario, corr, value - sum(map(sum, g.q)) / 2)


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
