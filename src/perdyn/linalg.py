"""Small shared linear-algebra utilities."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class DivergenceError(RuntimeError):
    """Raised when an iteration produces non-finite or unbounded values."""


def spd_solver(mat):
    """Return a solve(x) closure backed by a Cholesky factorization of ``mat``.

    The factorization is computed once; every call applies mat^-1 to a
    vector or matrix without ever forming the inverse explicitly.  Only
    the factor is checked: a non-finite right-hand side gives a
    non-finite solution, for the caller's divergence guard to report.
    """
    factor = cho_factor(np.asarray(mat, dtype=float))

    def solve(rhs):
        return cho_solve(factor, rhs, check_finite=False)

    return solve


def spectral_radius(mat):
    """Spectral radius of a square matrix by a dense eigensolve.

    Exact to roundoff at every size: the stability gates compare it
    with 1, so an estimate that can miss a complex or clustered
    dominant pair is not acceptable.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        return float("inf")
    return float(np.abs(np.linalg.eigvals(mat)).max())


def neumann_sum(mat, order):
    """Truncated Neumann sum I + B + B^2 + ... + B^order for even ``order``.

    Uses the nested evaluation
    I + B + B^2 (I + B + B^2 (...)), which costs order/2 matrix products.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError(f"Neumann truncation order must be even and >= 2, got {order}")
    mat = np.asarray(mat, dtype=float)
    eye = np.eye(mat.shape[0])
    sq = mat @ mat
    total = eye + mat + sq
    for _ in range(order // 2 - 1):
        total = eye + mat + sq @ total
    return total
