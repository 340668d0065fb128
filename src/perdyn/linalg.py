"""Small shared linear-algebra utilities."""

from __future__ import annotations

from math import sqrt

import numpy as np
from scipy.linalg import cho_factor, cho_solve


#: Smallest matrix order whose doubling flushes underflowing entries.  The
#: flush is an O(N^2) pass: at order 24 it costs 4-12 us, against 7 us for
#: the whole doubling, and the 12-dof chain and the 48-dof beam never hold a
#: tiny entry.  Banded models do, below this order too: the 20 doublings of
#: the 48-dof benchmark chain (order 96) took 5.93 ms unflushed and 0.72 ms
#: flushed, of a 64-dof chain 28 ms and 2.5 ms, of the 480-dof benchmark
#: chain 1.6 s and 0.8 s (one OpenBLAS thread, Xeon 2.1 GHz).
_FLUSH_MIN_ORDER = 128

#: Flush threshold relative to the largest entry: the product of two kept
#: entries stays above the smallest normal number.
_FLUSH_REL = sqrt(np.finfo(float).tiny)


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


def double_increment(delta, p):
    """Increment at t from the increment at t/2^p by p doublings
    delta <- 2 delta + delta @ delta, i.e. exp(Wt) - I from exp(Wt/2^p) - I.

    From order _FLUSH_MIN_ORDER up, every entry below _FLUSH_REL times the
    largest magnitude is set to zero after each doubling.  Far-off-diagonal
    entries of a banded model's propagator decay below the normal range,
    and products on subnormal numbers run about ten times slower.  A
    non-finite entry is never flushed: an inf makes the threshold inf and
    stays, a NaN compares false.
    """
    flush = delta.shape[0] >= _FLUSH_MIN_ORDER
    for _ in range(p):
        delta = 2.0 * delta + delta @ delta
        if flush:
            # no full-size abs() temporary: it adds to the peak memory of the setup
            tol = _FLUSH_REL * max(delta.max(), -delta.min())
            delta[(delta > -tol) & (delta < tol)] = 0.0
    return delta
