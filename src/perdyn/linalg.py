"""Small shared linear-algebra utilities."""

from __future__ import annotations

from math import sqrt

import numpy as np
from scipy.linalg import cho_factor, cho_solve


#: Smallest matrix order whose doubling flushes underflowing entries, and
#: the row-block size of the profile product above it.  The flush is an
#: O(N^2) pass: at order 24 it costs 4-12 us, against 7 us for the whole
#: doubling, and the 12-dof chain and the 48-dof beam never hold a tiny
#: entry.  Banded models do, below this order too: the 20 doublings of the
#: 48-dof benchmark chain (order 96) took 5.93 ms unflushed and 0.72 ms
#: flushed.  Above this order, a seed with a zero entry is squared over its
#: nonzero profile, one block of this many rows at a time (see
#: _profile_doubling); an increment of one block, or a seed without a zero
#: entry, keeps the dense product and its bits.  The 20 doublings of the
#: benchmark chain at 0.8 dt_max, m_b = 8, dense -> profile: N = 96 (order
#: 192) 10.3 -> 12.4 ms, N = 240 132 -> 56 ms, N = 480 796 -> 142 ms, median
#: of 11 alternating runs (one OpenBLAS thread, Xeon 2.1 GHz).
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

    Above order _FLUSH_MIN_ORDER, a seed with a zero entry is squared over
    its nonzero profile by _profile_doubling, with the same doublings and
    flush.  Its products skip only exact zeros, but they sum in another
    order than one dense product, so the result moves by a few ulp of its
    peak.  An increment of order _FLUSH_MIN_ORDER or less, or a seed with no
    zero entry, takes one dense product per doubling, bit for bit.
    """
    if delta.shape[0] > _FLUSH_MIN_ORDER and not (delta != 0.0).all():
        return _profile_doubling(delta, p)
    flush = delta.shape[0] >= _FLUSH_MIN_ORDER
    for _ in range(p):
        delta = 2.0 * delta + delta @ delta
        if flush:
            # no full-size abs() temporary: it adds to the peak memory of the setup
            tol = _FLUSH_REL * max(delta.max(), -delta.min())
            delta[(delta > -tol) & (delta < tol)] = 0.0
    return delta


def _profile_doubling(delta, p):
    """double_increment over the nonzero profile of ``delta``.

    The state is first interleaved as (u_0, v_0, u_1, v_1, ...), so that
    the four banded N x N blocks of a (u, v) increment form one band.  Row r
    of the square is zero outside the columns that the rows in row r's
    nonzero span reach.  So each block R of _FLUSH_MIN_ORDER rows, whose
    rows span the columns K, is written as 2 delta[R, J] + delta[R, K] @
    delta[K, J], where J spans the rows in K and R; the rest of R is zero.
    The flush threshold is taken from the largest magnitude of the whole
    square, ignoring NaN.  NaN and inf count as nonzero.  Besides the
    caller's seed, at most two full-size arrays are alive at once.
    """
    n = delta.shape[0]
    perm = np.argsort(np.arange(n) % ((n + 1) // 2), kind="stable")
    delta = delta[np.ix_(perm, perm)]
    first, stop = _spans(delta == 0.0, 0, n)
    blocks = [slice(r0, min(r0 + _FLUSH_MIN_ORDER, n))
              for r0 in range(0, n, _FLUSH_MIN_ORDER)]
    for _ in range(p):
        new = np.zeros_like(delta)
        windows, peak = [], 0.0
        for rows in blocks:
            k0, k1 = first[rows].min(), stop[rows].max()
            if k0 >= k1:  # the rows of R are zero, and so are they in the square
                continue
            cols = slice(min(k0, first[k0:k1].min()), max(k1, stop[k0:k1].max()))
            window = new[rows, cols]
            np.matmul(delta[rows, k0:k1], delta[k0:k1, cols], out=window)
            window += 2.0 * delta[rows, cols]
            peak = max(peak, np.fmax.reduce(window, axis=None),
                       -np.fmin.reduce(window, axis=None))
            windows.append((rows, cols))
        tol = _FLUSH_REL * peak
        for rows, cols in windows:
            window = new[rows, cols]
            small = np.abs(window) < tol
            window[small] = 0.0
            first[rows], stop[rows] = _spans(small, cols.start, n)
        delta = new
    back = np.argsort(perm)
    return delta[np.ix_(back, back)]


def _spans(zero, offset, n):
    """First and stop column, plus ``offset``, of the entries of each row of
    the mask ``zero`` that are False; (n, 0) for a row that is all True."""
    first = zero.argmin(axis=1)
    stop = zero.shape[1] - zero[:, ::-1].argmin(axis=1)
    empty = zero[np.arange(len(zero)), first]
    return np.where(empty, n, first + offset), np.where(empty, 0, stop + offset)
