"""Small shared linear-algebra utilities."""

from __future__ import annotations

from math import ldexp, sqrt
from operator import index

import numpy as np
from scipy.linalg import cho_factor, cho_solve


#: Smallest matrix order whose doubling flushes underflowing entries, and
#: the row-block size of the profile products above it (the doubling's and
#: per.recurrence's).  The flush is an
#: O(N^2) pass: at order 24 it costs 4-12 us, against 7 us for the whole
#: doubling, and the 12-dof chain and the 48-dof beam never hold a tiny
#: entry.  Banded models do, below this order too: the 20 doublings of the
#: 48-dof benchmark chain (order 96) took 5.93 ms unflushed and 0.72 ms
#: flushed.  Above this order, a seed with a zero entry is squared over its
#: nonzero profile, one block of this many rows at a time (see
#: _profile_doubling); an increment of one block, or a seed without a zero
#: entry, keeps the dense product and its bits.  The 20 doublings of the
#: benchmark chain at 0.8 dt_max, m_b = 8, dense -> profile, medians of 11
#: alternating runs, twice: N = 96 (order 192) 6.7-10.1 -> 8.1-12.3 ms, N = 240
#: 110-129 -> 46-55 ms, N = 480 787-824 -> 130-135 ms (one OpenBLAS thread).
_FLUSH_MIN_ORDER = 128

#: Flush threshold relative to the largest entry: the product of two kept
#: entries stays above the smallest normal number.
_FLUSH_REL = sqrt(np.finfo(float).tiny)

MAX_SERIES_ORDER = 60  # higher truncations are numerically unreliable
MAX_NEUMANN_ORDER = 1000  # past it the terms are below roundoff for any rho(B) <= 0.96


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
    """Spectral radius of a square matrix by a dense eigensolve, 0.0 if 0 x 0.

    Exact to roundoff at every size: the stability gates compare it
    with 1, so an estimate that can miss a complex or clustered
    dominant pair is not acceptable.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        return float("inf")
    return float(np.abs(np.linalg.eigvals(mat)).max(initial=0.0))


def neumann_sum(mat, order):
    """Truncated Neumann sum I + B + B^2 + ... + B^order for even ``order``:
    I plus _neumann_columns over every column of B."""
    mat = np.asarray(mat, dtype=float)
    return np.eye(len(mat)) + _neumann_columns(mat, np.arange(len(mat)), order)


def _neumann_columns(mat_cols, cols, order):
    """Columns ``cols`` of B + B^2 + ... + B^order, even ``order``, for a B that
    is zero outside them, from mat_cols = B[:, cols]: nested as B + B^2 +
    B^2 (B + B^2 + B^2 (...)) in order/2 products, each X @ Y with X zero
    outside the columns cols taken as X[:, cols] @ Y[cols].  Callers take the
    increment over I from here, never as the sum minus I, which rounds away
    the low bits of a small B."""
    _check_order(order, "Neumann truncation order", 2, MAX_NEUMANN_ORDER)
    sq = mat_cols @ mat_cols[cols]
    total = first = mat_cols + sq
    for _ in range(order // 2 - 1):
        total = first + sq @ total[cols]
    return total


def _check_order(m, name="truncation order", low=0, cap=MAX_SERIES_ORDER):
    """Truncation orders are even (the validity bounds assume it), >= low and <= cap."""
    if m < low or m % 2 != 0:
        raise ValueError(f"{name} must be an even integer >= {low}, got {m}")
    if cap is not None and m > cap:
        raise ValueError(f"{name} exceeds the series cap {cap}")


def _reduced_step(t, p):
    """t/2^p, the step p doublings start from, by ldexp, which cannot overflow.
    p < 1, or a positive t whose t/2^p is not a normal float, is rejected."""
    if p < 1:
        raise ValueError("p must be >= 1")
    t0 = ldexp(t, -index(p))  # a numpy integer p is accepted, a float p is not
    if t > 0.0 and not t0 >= np.finfo(float).tiny:
        raise ValueError(f"'p' = {p} is too large: dt/2^p is not a normal float")
    return t0


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

    The state is first interleaved by _interleaved_profile, so that the
    four banded N x N blocks of a (u, v) increment form one band.  Row r
    of the square is zero outside the columns that the rows in row r's
    nonzero span reach.  So each block R of _FLUSH_MIN_ORDER rows, whose
    rows span the columns K, is written as 2 delta[R, J] + delta[R, K] @
    delta[K, J], where J spans the rows in K and R; the rest of R is zero.
    The flush threshold is taken from the largest magnitude of the whole
    square, ignoring NaN.  NaN and inf count as nonzero.  Besides the
    caller's seed, two full-size buffers are alive, swapped at each doubling;
    a block is zeroed only where its old window there leaves its new one.
    """
    n = delta.shape[0]
    perm, first, stop, blocks = _interleaved_profile(delta)
    delta = delta[np.ix_(perm, perm)]
    # each block's window in each buffer: slice(n, 0) is none, the seed's is all
    new = np.zeros_like(delta)
    held, held_new = [slice(0, n)] * len(blocks), [slice(n, 0)] * len(blocks)
    for _ in range(p):
        windows, peak = [slice(n, 0)] * len(blocks), 0.0
        for i, (rows, old) in enumerate(zip(blocks, held_new)):
            k0, k1 = first[rows].min(), stop[rows].max()
            if k0 >= k1:  # the rows of R are zero, and so are they in the square
                new[rows, old] = 0.0
                continue
            cols = windows[i] = slice(min(k0, first[k0:k1].min()), max(k1, stop[k0:k1].max()))
            new[rows, old.start:cols.start] = 0.0
            new[rows, cols.stop:old.stop] = 0.0
            window = new[rows, cols]
            np.matmul(delta[rows, k0:k1], delta[k0:k1, cols], out=window)
            window += 2.0 * delta[rows, cols]
            peak = max(peak, np.fmax.reduce(window, axis=None),
                       -np.fmin.reduce(window, axis=None))
        tol = _FLUSH_REL * peak
        for rows, cols in zip(blocks, windows):
            if cols.start < cols.stop:
                window = new[rows, cols]
                small = np.abs(window) < tol
                window[small] = 0.0
                first[rows], stop[rows] = _spans(small, cols.start, n)
        delta, new, held, held_new = new, delta, windows, held
    back = np.argsort(perm)
    return delta[np.ix_(back, back)]


def _interleaved_profile(mat):
    """(perm, first, stop, blocks) of the square ``mat``: the interleaved
    order perm = (u_0, v_0, u_1, v_1, ...), in which the four banded N x N
    blocks of a (u, v) map form one band; the spans (see _spans) of the
    nonzero entries of each row of mat[perm][:, perm], NaN and inf counting
    as nonzero; and its row blocks of _FLUSH_MIN_ORDER rows, as slices.  The
    mask, not the matrix, is permuted here: it is an eighth of the bytes."""
    n = mat.shape[0]
    perm = np.argsort(np.arange(n) % ((n + 1) // 2), kind="stable")
    zero = (mat == 0.0).take(perm, axis=0).take(perm, axis=1)
    blocks = [slice(r0, min(r0 + _FLUSH_MIN_ORDER, n)) for r0 in range(0, n, _FLUSH_MIN_ORDER)]
    return (perm, *_spans(zero, 0, n), blocks)


def _spans(zero, offset, n):
    """First and stop column, plus ``offset``, of the entries of each row of
    the mask ``zero`` that are False; (n, 0) for a row that is all True."""
    first = zero.argmin(axis=1)
    stop = zero.shape[1] - zero[:, ::-1].argmin(axis=1)
    empty = zero[np.arange(len(zero)), first]
    return np.where(empty, n, first + offset), np.where(empty, 0, stop + offset)
