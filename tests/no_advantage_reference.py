"""Reference no-advantage strategy for the tests: the roots-of-unity
extraction that `values.sufficient_no_advantage` ran before it became one
comparison of the classical value with the norm bound.

`extract(g)` reads a strategy off the top singular pair (u, v) of Phi_1, the
first Fourier block of a linear game g. The top singular value must be
non-degenerate, and sqrt(ma) u and sqrt(mb) v, after one joint phase fix,
must be entrywise d-th roots of unity zeta^p_x and zeta^s_y. Substituting the
k-th powers of those phases must give a top singular pair of every Phi_k.
The strategy is then a_x = p_x and b_y = -s_y, and it attains the unclamped
norm bound, the paper's sufficient condition for no quantum advantage. Any
failed step returns None.
"""
from math import sqrt

import numpy as np

from bellpoly import fourier_blocks, spectral_norm

TOL = 1e-9


def _root_exponents(vec, m, d):
    """e in Z_d with sqrt(m) vec = zeta^e within TOL, or None."""
    scaled = vec * sqrt(m)
    exps = np.rint(np.angle(scaled) * d / (2 * np.pi)).astype(np.int64) % d
    close = np.abs(scaled - np.exp(2j * np.pi * exps / d)) <= TOL
    return exps if close.all() else None


def extract(g):
    """(a_map, b_map) from the phases of Phi_1's top singular pair, or None."""
    d, ma, mb = g.d, g.ma, g.mb
    mats = [phi for phi, in fourier_blocks(g)]
    U, S, Vh = np.linalg.svd(mats[0])
    if S[0] <= 0 or (len(S) > 1 and S[0] - S[1] <= TOL * S[0]):
        return None
    # joint phase fix: rotate the first sizable entry of u to the positive
    # reals (a unit vector has an entry of modulus at least 1/sqrt(ma))
    lead = next(c for c in U[:, 0] if abs(c) > 1e-12)
    phase = lead.conjugate() / abs(lead)
    p = _root_exponents(U[:, 0] * phase, ma, d)
    s = _root_exponents(Vh[0].conj() * phase, mb, d)
    if p is None or s is None:
        return None
    for k, phi in enumerate(mats, 1):
        uk = np.exp(2j * np.pi * (k * p) / d) / sqrt(ma)
        vk = np.exp(2j * np.pi * (k * s) / d) / sqrt(mb)
        if np.linalg.norm(phi @ vk - spectral_norm(phi) * uk) > TOL:
            return None
    return tuple(p.tolist()), tuple((-s % d).tolist())
