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
"""
import itertools
from fractions import Fraction
from math import lcm


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
                scores[g.winning_b(a_map[x], x, y)] += Q[x][y]
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
            total = sum(Q[x][y] for x, y in cells if g.win(a_map[x], b_map[y], x, y))
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
                scores = [sum(Q[x][y] for y in range(g.mb) if g.win(a, b_map[y], x, y))
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
