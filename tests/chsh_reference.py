"""Reference canonical form for the tests: the image search that
`chsh.canonicalize` used before its closed form.

`relabel_images(cells)` lists the images of a 2x2 correlator coefficient
matrix under output sign flips (one per setting per party), setting swaps
and the party swap. `canonicalize_by_images(raw)` picks, among the images
of four signed coefficients (row-major cells), the lexicographically
greatest nonnegative one (trivial_even) or else the greatest one whose only
negative cell is (2, 2) with minimal magnitude, and normalises it. The
search runs on the coefficients times their common denominator, integers,
as a positive scale keeps every sign and order it compares.
"""
import itertools
import math
from fractions import Fraction as F

from bellpoly.chsh import WeightedCHSH
from bellpoly.rational import parse_rational


def relabel_images(cells):
    """All 128 images of ((c11, c12), (c21, c22)); a sorted deduplicated list."""
    base = tuple(tuple(row) for row in cells)
    out = set()
    for sa1, sa2, sb1, sb2 in itertools.product((1, -1), repeat=4):
        signed = ((sa1 * sb1 * base[0][0], sa1 * sb2 * base[0][1]),
                  (sa2 * sb1 * base[1][0], sa2 * sb2 * base[1][1]))
        for swap_rows in (False, True):
            m = (signed[1], signed[0]) if swap_rows else signed
            for swap_cols in (False, True):
                mm = tuple((r[1], r[0]) for r in m) if swap_cols else m
                out.add(mm)
                out.add(((mm[0][0], mm[1][0]), (mm[0][1], mm[1][1])))  # party swap
    return sorted(out)


def canonicalize_by_images(raw_coeffs) -> WeightedCHSH:
    c = [parse_rational(v, where="coefficient") for v in raw_coeffs]
    if len(c) != 4:
        raise ValueError("four coefficients required")
    den = math.lcm(*(v.denominator for v in c))
    c = [v.numerator * (den // v.denominator) for v in c]
    total = sum(abs(v) for v in c)
    if total == 0:
        raise ValueError("all four coefficients are zero")
    images = relabel_images(((c[0], c[1]), (c[2], c[3])))

    nonneg = [m for m in images if all(v >= 0 for row in m for v in row)]
    if nonneg:
        best = max(nonneg, key=lambda m: (m[0][0], m[0][1], m[1][0], m[1][1]))
        p = (best[0][0], best[0][1], best[1][0], best[1][1])
        return WeightedCHSH(tuple(F(v, total) for v in p), trivial_even=True)

    candidates = []
    for m in images:
        flat = (m[0][0], m[0][1], m[1][0], m[1][1])
        if flat[0] >= 0 and flat[1] >= 0 and flat[2] >= 0 and flat[3] < 0 \
                and -flat[3] <= min(flat[:3]):
            candidates.append(flat)
    best = max(candidates, key=lambda f: (f[0], f[1], f[2]))
    return WeightedCHSH(tuple(F(v, total) for v in (best[0], best[1], best[2], -best[3])))
