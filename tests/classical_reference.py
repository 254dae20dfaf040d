"""Reference classical values for the tests, written apart from the
program's scan: plain Python loops over Python ints, with the weights scaled
by their common denominator.

`by_alice_maps` walks every Alice map in lexicographic order and answers it
with Bob's best response per input (smallest output on ties); the first map
of largest value and that response are the lexicographically first optimal
pair. `by_all_pairs` scores every (a_map, b_map) pair and keeps the first
best one. `by_prefix_search` suits games with few Bob maps and many Alice
maps: it fixes the outputs one at a time, keeping the smallest output that
some completion of the prefix still lifts to the optimum.

Each reads the winning answers from the game's own fields, f or perms
(`games_reference.winning_answer`), not from the library's win rule.

`box_values` is the reference for facet tests: the value of an inequality
on every deterministic box, scored pair by pair.
"""
import itertools
from fractions import Fraction
from math import lcm

import numpy as np

from tests.games_reference import winning_answer


def _scaled(g):
    den = lcm(*(v.denominator for row in g.q for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in g.q]


def by_alice_maps(g):
    """(value, a_map, b_map) by enumerating Alice's d^ma maps."""
    den, Q = _scaled(g)
    best = None
    for a_map in itertools.product(range(g.d), repeat=g.ma):
        total, b_map = 0, []
        for y in range(g.mb):
            scores = [0] * g.d
            for x in range(g.ma):
                scores[winning_answer(g, a_map[x], x, y)] += Q[x][y]
            top = max(scores)
            total += top
            b_map.append(scores.index(top))
        if best is None or total > best[0]:
            best = (total, a_map, tuple(b_map))
    return Fraction(best[0], den), best[1], best[2]


def by_all_pairs(g):
    """(value, a_map, b_map) by scoring all d^(ma + mb) strategy pairs."""
    den, Q = _scaled(g)
    cells = [(x, y) for x in range(g.ma) for y in range(g.mb) if Q[x][y]]
    best = None
    for a_map in itertools.product(range(g.d), repeat=g.ma):
        for b_map in itertools.product(range(g.d), repeat=g.mb):
            total = sum(Q[x][y] for x, y in cells
                        if b_map[y] == winning_answer(g, a_map[x], x, y))
            if best is None or total > best[0]:
                best = (total, a_map, b_map)
    return Fraction(best[0], den), best[1], best[2]


def by_prefix_search(g):
    """(value, a_map, b_map) from optima over Bob's d^mb maps with Alice's
    outputs on a prefix of her inputs (and Bob's on a prefix of his) fixed."""
    den, Q = _scaled(g)
    b_maps = list(itertools.product(range(g.d), repeat=g.mb))

    def best(a_prefix, b_prefix):
        top = None
        for b_map in b_maps:
            if b_map[:len(b_prefix)] != b_prefix:
                continue
            total = 0
            for x in range(g.ma):
                scores = [sum(Q[x][y] for y in range(g.mb)
                              if b_map[y] == winning_answer(g, a, x, y))
                          for a in range(g.d)]
                total += scores[a_prefix[x]] if x < len(a_prefix) else max(scores)
            top = total if top is None else max(top, total)
        return top

    top = best((), ())
    a_map = b_map = ()
    for _ in range(g.ma):
        a_map += (next(a for a in range(g.d) if best(a_map + (a,), ()) == top),)
    for _ in range(g.mb):
        b_map += (next(b for b in range(g.d) if best(a_map, b_map + (b,)) == top),)
    return Fraction(top, den), a_map, b_map


def box_values(ineq):
    """V[i, j]: the inequality's value on the box (A[i], B[j]), times the
    common denominator of its coefficients and bound, as Python ints, with
    Alice's maps A and Bob's maps B in lexicographic order; the scaled bound;
    A; B."""
    s = ineq.scenario
    flat = [v for block in ineq.coeffs for row in block for cell in row for v in cell]
    den = lcm(ineq.bound.denominator, *(v.denominator for v in flat))
    C = np.array([int(v * den) for v in flat], dtype=object).reshape(s.ma, s.mb, s.da, s.db)
    A = np.array(list(itertools.product(range(s.da), repeat=s.ma)))
    B = np.array(list(itertools.product(range(s.db), repeat=s.mb)))
    # T[i, y, b] = sum_x C[x, y, A[i, x], b]; V[i, j] = sum_y T[i, y, B[j, y]]
    T = sum(C[x].transpose(1, 0, 2)[A[:, x]] for x in range(s.ma))
    V = sum(T[:, y][:, B[:, y]] for y in range(s.mb))
    return V, int(ineq.bound * den), A, B
