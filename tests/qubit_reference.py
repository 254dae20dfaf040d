"""Reference single-qubit oracle for the tests: the grid search that
`chsh.qubit_value_estimate` used before its closed form.

`grid_estimate(p)` maximises the best correlator
sqrt(p1^2 + p3^2 + 2 p1 p3 cos a) + sqrt(p2^2 + p4^2 - 2 p2 p4 cos a) over
the relative angle a in [0, pi]: 721 grid points, then 200 ternary steps
inside the grid cells around the best point (the correlator is concave in
cos a). Returns (1 + best correlator) / 2.
"""
import math

GRID_POINTS = 721
REFINE_ITERS = 200


def _envelope(p, cos_gap):
    p1, p2, p3, p4 = p
    t1 = math.sqrt(max(0.0, p1 * p1 + p3 * p3 + 2 * p1 * p3 * cos_gap))
    t2 = math.sqrt(max(0.0, p2 * p2 + p4 * p4 - 2 * p2 * p4 * cos_gap))
    return t1 + t2


def grid_estimate(p):
    """The grid-and-ternary estimate for the canonical weights p (floats)."""
    best_alpha, best_val = 0.0, -math.inf
    for i in range(GRID_POINTS):
        alpha = math.pi * i / (GRID_POINTS - 1)
        val = _envelope(p, math.cos(alpha))
        if val > best_val:
            best_alpha, best_val = alpha, val
    step = math.pi / (GRID_POINTS - 1)
    lo, hi = max(0.0, best_alpha - step), min(math.pi, best_alpha + step)
    for _ in range(REFINE_ITERS):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if _envelope(p, math.cos(m1)) >= _envelope(p, math.cos(m2)):
            hi = m2
        else:
            lo = m1
    return (1 + max(best_val, _envelope(p, math.cos((lo + hi) / 2)))) / 2
