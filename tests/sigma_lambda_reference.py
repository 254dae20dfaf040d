"""Reference spectral radius for the tests: the eigenvalue computation that
`chsh.sigma_lambda_certificate` used before its closed form.

`eigvals_rho(p)` builds m = Lambda^-1 Phi^T Sigma^-1 Phi for the canonical
weights p (floats), with Phi = [[p1, p2], [p3, -p4]], Sigma = diag(p1 + p2,
p3 - p4) and Lambda = diag(p1 + p3, p2 - p4), and returns the largest
modulus of its eigenvalues from `numpy.linalg.eigvals`. The scalings must be
nonsingular.
"""
import numpy as np


def eigvals_rho(p):
    p1, p2, p3, p4 = p
    phi = np.array([[p1, p2], [p3, -p4]])
    sigma_inv = np.diag([1 / (p1 + p2), 1 / (p3 - p4)])
    lambda_inv = np.diag([1 / (p1 + p3), 1 / (p2 - p4)])
    m = lambda_inv @ phi.T @ sigma_inv @ phi
    return float(max(abs(np.linalg.eigvals(m))))
