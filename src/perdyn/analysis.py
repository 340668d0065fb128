"""Convergence and stability analysis of the perturbation scheme.

Provides the scalar 2x2 series matrix sigma_m(tau) and its eigenvalues,
the admissible-step limit tau_L(m), the combined time-step bound, the
single-dof stability map of the reduced-step transition matrix, and the
spectral radius of beta_b over a time-step grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import per
from .linalg import _check_order
from .model import SystemModel, _spectral_extremes

#: Modulus of the sigma eigenvalues at tau = 0: 1/(2*sqrt(3)).
SIGMA_THRESHOLD = 1.0 / (2.0 * np.sqrt(3.0))
#: The scan of tau_limit: its grid step, its end, the points per batched
#: eigensolve, and the width to which the crossing is bisected.
_SCAN_STEP = 0.01
_TAU_MAX = 100.0
_SCAN_CHUNK = 128
_TOL = 1e-8


@dataclass(frozen=True)
class SigmaEigen:
    mu1: complex
    mu2: complex
    modulus_max: float


@dataclass(frozen=True)
class StabilityRecord:
    """Single-dof stability map of a(dt0) on a grid of dt0/T.

    ``grid`` rows are (dt0_over_T, max_abs_eigenvalue); ``boundaries``
    lists the (lower, upper) intervals where max|lambda| <= 1.
    """

    grid: np.ndarray
    boundaries: list[tuple[float, float]]


@dataclass(frozen=True)
class DtBound:
    """Admissible time-step bound.

    damping_bound     2*sqrt(3)/rho(M^-1 C) (inf for undamped systems)
    truncation_bound  tau_L(m) / omega_max
    dt_max            min of the two
    """

    damping_bound: float
    truncation_bound: float
    dt_max: float


def sigma_matrix(m: int, tau: float, dt: float = 1.0) -> np.ndarray:
    """Scalar 2x2 series matrix sigma_m(tau).

    The dt factors on the off-diagonal cancel from the eigenvalue moduli
    (diagonal similarity), so dt = 1 is used unless stated otherwise.
    """
    _check_order(m)
    return _sigma_stack(m, [tau], dt)[0]


def _sigma_stack(m: int, taus: list[float], dt: float = 1.0) -> np.ndarray:
    """sigma_m(tau) for every tau of the list, stacked along the first axis:
    the beta series of per.coeff_beta for the unit oscillator omega = tau/dt,
    M^-1 C = 1, divided by dt."""
    omega2 = (np.asarray(taus, dtype=float) / dt) ** 2
    out = np.zeros((len(omega2), 2, 2))
    for j in range(m // 2 + 1):
        out += omega2[:, None, None] ** j * per.coeff_beta(j, dt)
    return out / dt


def sigma_eigenvalues(m: int, tau: float) -> SigmaEigen:
    """Both eigenvalues of sigma_m(tau) and their largest modulus."""
    if not 0.0 <= tau < np.inf:
        raise ValueError("tau must be >= 0" if tau < 0.0 else f"tau must be finite, not {tau}")
    mu = np.linalg.eigvals(sigma_matrix(m, tau))
    return SigmaEigen(mu1=complex(mu[0]), mu2=complex(mu[1]),
                      modulus_max=float(np.abs(mu).max()))


@cache
def tau_limit(m: int) -> float:
    """Smallest tau > 0 where the spectral radius of sigma_m(tau) climbs
    back to its tau = 0 value 1/(2*sqrt(3)); a constant of m, cached.

    The curve starts exactly at the threshold, dips below it, and the
    first upward crossing bounds the admissible nondimensional step
    omega*dt.  Found by a bracketing scan followed by bisection; returns
    inf when no crossing exists below _TAU_MAX.  m = 0 is rejected: the
    m = 0 eigenvalue moduli are constant so no crossing is defined.
    """
    _check_order(m)
    if m == 0:
        raise ValueError("tau limit is undefined for m = 0 (constant spectral radius)")

    def radii(taus):
        return np.abs(np.linalg.eigvals(_sigma_stack(m, taus))).max(axis=1)

    prev_tau, prev_f = 0.0, 0.0
    tau = _SCAN_STEP
    while tau <= _TAU_MAX:
        taus = []  # the scan grid, one chunk per batched eigensolve
        while tau <= _TAU_MAX and len(taus) < _SCAN_CHUNK:
            taus.append(tau)
            tau += _SCAN_STEP
        for t, f in zip(taus, (radii(taus) - SIGMA_THRESHOLD).tolist()):
            if f > 0.0 and prev_f <= 0.0:
                return _bisect(prev_tau, t, _TOL, lambda x: radii([x])[0] > SIGMA_THRESHOLD)
            prev_tau, prev_f = t, f
    return float("inf")


def _bisect(lo, hi, tol, past):
    """Bisect [lo, hi] to width tol; ``past(x)`` is true on hi's side."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dt_bound(model: SystemModel, m: int) -> DtBound:
    """Combined admissible-step bound from the damping intensity and the
    series truncation order."""
    w_max, rho_c = _spectral_extremes(model)
    if w_max <= 0.0:
        raise ValueError("model has zero stiffness: no maximum frequency")
    damping_bound = float("inf") if rho_c == 0.0 else 2.0 * np.sqrt(3.0) / rho_c
    truncation_bound = tau_limit(m) / w_max
    return DtBound(damping_bound=damping_bound, truncation_bound=truncation_bound,
                   dt_max=min(damping_bound, truncation_bound))


def _dt_max(model, m):
    """dt_bound(model, m).dt_max, or NaN for a model without stiffness."""
    try:
        return dt_bound(model, m).dt_max
    except ValueError:
        return float("nan")


def _grid(start, stop, step):
    """start, start + step, ... through stop plus 1e-9 steps, not empty: the
    scans of the stability map and the sigma curves; stop, step finite, > 0."""
    if stop <= 0.0 or step <= 0.0:
        raise ValueError("grid parameters must be positive")
    for name, value in (("end", stop), ("step", step)):
        if not np.isfinite(value):
            raise ValueError(f"grid {name} must be finite, not {value}")
    grid = np.arange(start, stop + 1e-9 * step, step)
    if not grid.size:
        raise ValueError(f"the grid from {start} by {step} through {stop} is empty")
    return grid


def _sdof_amplification(x: float, zeta: float, m_a: int, r_a: int) -> np.ndarray:
    """a(dt0) of the unit-period single-dof oscillator, x = dt0/T."""
    omega = 2.0 * np.pi
    dt0 = x  # T = 1
    delta_a, _ = per._increment_at_reduced_step(
        np.array([[omega * omega]]), np.array([[2.0 * omega * zeta]]), dt0, m_a, r_a)
    return np.eye(2) + delta_a


def _max_abs_eig(x, zeta, m_a, r_a):
    return float(np.abs(np.linalg.eigvals(_sdof_amplification(x, zeta, m_a, r_a))).max())


#: |lambda| classification threshold: unity plus a roundoff allowance
#: (near dt0 -> 0 the true excess sits below machine precision).
_STABLE_LIMIT = 1.0 + 64.0 * np.finfo(float).eps
_MAP_TOL = 1e-6  # the width to which sdof_stability_map bisects a boundary


def sdof_stability_map(zeta: float, m_a: int, r_a: int = 2,
                       grid_max: float = 0.9, grid_step: float = 2e-3) -> StabilityRecord:
    """Stability intervals of the reduced-step transition matrix.

    Scans max|lambda(a(dt0))| over dt0/T, refines every stability
    boundary by bisection, and reports the |lambda| <= 1 intervals.
    Intervals narrower than 3 grid steps are discarded: near dt0 -> 0
    the excess over 1 sits below machine precision and produces
    sub-resolution noise.  The map takes no halving count p: a run's
    a(dt) is a(dt0)^(2^p), whose eigenvalues are those of a(dt0) raised to
    2^p, so |lambda| <= 1 holds for both or for neither (multiply dt0/T
    by 2^p for full-step values).
    """
    xs = _grid(grid_step, grid_max, grid_step)
    if not 0.0 <= zeta < np.inf:
        raise ValueError("zeta must be >= 0" if zeta < 0.0 else f"zeta must be finite, not {zeta}")
    lams = np.array([_max_abs_eig(x, zeta, m_a, r_a) for x in xs])

    def is_stable(x):
        return _max_abs_eig(x, zeta, m_a, r_a) <= _STABLE_LIMIT

    # each stable run xs[i:j] starts at a rising edge i and ends at a falling edge j
    edges = np.flatnonzero(np.diff(np.pad(lams <= _STABLE_LIMIT, 1))).tolist()
    boundaries = []
    for i, j in zip(edges[::2], edges[1::2]):
        lower = 0.0 if i == 0 else _bisect(xs[i - 1], xs[i], _MAP_TOL, is_stable)
        upper = (float(xs[-1]) if j == len(xs) else
                 _bisect(xs[j - 1], xs[j], _MAP_TOL, lambda x: not is_stable(x)))
        if upper - lower >= 3.0 * grid_step:
            boundaries.append((float(lower), float(upper)))
    return StabilityRecord(grid=np.column_stack([xs, lams]), boundaries=boundaries)


def beta_radius_map(model: SystemModel, dt_values, m_b: int) -> list[tuple[float, float]]:
    """rho(beta_b(dt)) for each time step in dt_values: the radius a PER run
    at that step reports, bit for bit, without the run's other operators."""
    _check_order(m_b)
    _, a_mat, minv_c = per.system_operators(model)
    out = []
    for dt in dt_values:
        if dt <= 0.0:
            raise ValueError("time steps must be positive")
        out.append((float(dt), per._damped_series(a_mat, minv_c, dt, m_b, per.coeff_beta)[1]))
    return out
