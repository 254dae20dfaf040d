"""Reference joint norm for the tests: the multi-start alternating ascent
that `values.gen_norm_detailed` used before its certified envelope.

`ascent(a, b)` estimates N(a, b) = max ||a x1 + b x2|| over unit x1, x2 from
below. Each step moves one block to the normalized gradient direction
(x1 <- a^dag y / ||.||, y = a x1 + b x2, then the same for x2), which never
decreases the objective. Starts: the top right singular vectors of a and b
jointly, plus `restarts` random complex pairs from a fixed-seed generator.
The value is clamped into [max(||a||, ||b||), ||a|| + ||b||]; `converged` is
False if any start hit the iteration cap before its improvement fell below
tol.
"""
from math import sqrt

import numpy as np


def _norm(M):
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def ascent(a, b, restarts=16, max_iter=500, tol=1e-12, seed=42):
    """(value, converged): the best ascent value over all starts."""
    A = np.asarray(a, dtype=complex)
    B = np.asarray(b, dtype=complex)
    na, nb = _norm(A), _norm(B)
    if na == 0.0 and nb == 0.0:
        return 0.0, True

    def top_right_vector(M):
        if not M.any():
            k = M.shape[1]
            return np.ones(k) / sqrt(k)
        return np.linalg.svd(M)[2][0].conj()

    rng = np.random.default_rng(seed)
    inits = [(top_right_vector(A), top_right_vector(B))]
    for _ in range(restarts):
        x1 = rng.normal(size=A.shape[1]) + 1j * rng.normal(size=A.shape[1])
        x2 = rng.normal(size=B.shape[1]) + 1j * rng.normal(size=B.shape[1])
        inits.append((x1 / np.linalg.norm(x1), x2 / np.linalg.norm(x2)))

    best = 0.0
    converged = True
    for x1, x2 in inits:
        x1 = np.array(x1, dtype=complex)
        x2 = np.array(x2, dtype=complex)
        prev = -1.0
        for _ in range(max_iter):
            y = A @ x1 + B @ x2
            val = float(np.linalg.norm(y))
            if val <= prev + tol * max(val, 1.0):
                break
            prev = val
            g1 = A.conj().T @ y
            n1 = np.linalg.norm(g1)
            if n1 > 1e-300:
                x1 = g1 / n1
            g2 = B.conj().T @ y
            n2 = np.linalg.norm(g2)
            if n2 > 1e-300:
                x2 = g2 / n2
        else:
            converged = False
        best = max(best, prev)
    return min(max(best, na, nb), na + nb), converged
