"""Damping-perturbation explicit time integrator.

The one-step map U_{k+1} = a U_k + b_k is obtained by summing the
perturbation series of the damped response.  ``a`` is computed by the
2^p doubling algorithm from its increment at the reduced step
dt0 = dt/2^p; the nonhomogeneous factor combines a truncated Neumann
sum of the series matrix beta with the force-interpolation operator L.
The explicit double iteration (time steps x series terms),
``integrate_asymptotic``, is a cross-check of the summed scheme on its own
operators, diverged by the same rules.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from math import factorial
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgbmv

from .linalg import (_FLUSH_MIN_ORDER, MAX_NEUMANN_ORDER, MAX_SERIES_ORDER, DivergenceError,
                     _check_order, _interleave, _interleaved_profile, _neumann_columns,
                     _reduced_step, double_increment, spectral_radius)
from .model import StateVector, SystemModel, _load_sampler

_DIVERGENCE_FACTOR = 1e12

#: Force samples, and state entries, of one block of the step loop (1 MB of
#: float64 each).
_BLOCK_FLOATS = 1 << 17

_BAND_SHARE = 0.75  # widest band (lower + upper + 1) of the band loop, per unit order


@dataclass(frozen=True)
class PerConfig:
    """Tunables of the scheme.

    dt    time step (s)
    p     number of halvings, reduced step dt0 = dt/2^p
    m_a   series truncation for the matrices entering a(dt)
    r_a   Neumann truncation for (I - beta_a)^-1; default 4, because
          beta_a carries an O(1) entry -M^-1 C at the reduced step, so
          the first dropped term beta_a^(r_a+1) is O(dt0^2) at r_a = 2,
          and the p doublings multiply it: on the unit oscillator at
          damping ratio 0.5 and dt = T/100, a(dt) lies 3.8e-9 from
          exp(W dt) at r_a = 2 and 1.1e-16 at r_a = 4 (p = 20)
    m_b   series truncation for beta_b and L_b (full step)
    r_b   Neumann truncation for (I - beta_b)^-1
    """

    dt: float
    p: int = 20
    m_a: int = 2
    r_a: int = 4
    m_b: int = 4
    r_b: int = 2

    def __post_init__(self):
        if not np.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.dt < 0.0:
            raise ValueError("dt must be >= 0")
        _reduced_step(self.dt, self.p)
        for name, cap in zip(("m_a", "r_a", "m_b", "r_b"),
                             (MAX_SERIES_ORDER, MAX_NEUMANN_ORDER) * 2):
            _check_order(getattr(self, name), name, 2, cap)

    @property
    def dt0(self) -> float:
        return _reduced_step(self.dt, self.p)


@dataclass(frozen=True)
class SchemeMatrices:
    """Precomputed one-step operators.

    a          2N x 2N transition matrix
    neumann_b  truncated Neumann sum of beta_b (None for an unforced model)
    l_b        force-interpolation operator L_b on the run's load columns: the
               2N x 4|S| L_b M^-1 E_S from build_scheme, the 2N x 4N L_b (on
               I) from compute_b_factors (None for an unforced model)
    rho_beta_b spectral radius of beta_b (convergence diagnostic)
    rho_beta_a spectral radius of beta_a at the reduced step
    """

    a: np.ndarray | None
    neumann_b: np.ndarray | None
    l_b: np.ndarray | None
    rho_beta_b: float
    rho_beta_a: float | None = None

    def __post_init__(self):
        # shareable across concurrent runs: freeze the operator arrays
        for arr in (self.a, self.neumann_b, self.l_b):
            if arr is not None:
                arr.setflags(write=False)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state history.

    ``displacements`` and ``velocities`` have one row per time sample.
    ``diverged`` marks a run aborted by the divergence guard; the arrays
    then hold the computed prefix and ``info`` carries diagnostics.
    """

    times: np.ndarray
    displacements: np.ndarray
    velocities: np.ndarray
    diverged: bool = False
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if len(times) > 2:
            steps = np.diff(times)
            # 1e-12 relative to the step, floored by the ulp of the end time
            tol = max(1e-12 * abs(steps[0]),
                      8.0 * np.finfo(float).eps * abs(times[-1]), 1e-300)
            if np.abs(steps - steps[0]).max() > tol:
                raise ValueError("trajectory time grid is not uniform")

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def state(self, k: int) -> StateVector:
        return StateVector(self.displacements[k].copy(), self.velocities[k].copy())

    def states(self) -> Iterator[StateVector]:
        for k in range(len(self.times)):
            yield self.state(k)


# ---------------------------------------------------------------------------
# Coefficient families (2x2 and 2x4 blocks of the series expansions).

def coeff_t(j: int, dt: float) -> np.ndarray:
    """j-th 2x2 coefficient of the homogeneous transfer series."""
    if j < 0:
        raise ValueError("j must be >= 0")
    c = (-1.0) ** j / factorial(2 * j)
    lower = 0.0 if j == 0 else c * 2 * j * dt ** (2 * j - 1)
    return np.array([
        [c * dt ** (2 * j), c * dt ** (2 * j + 1) / (2 * j + 1)],
        [lower, c * dt ** (2 * j)],
    ])


def coeff_l(j: int, dt: float) -> np.ndarray:
    """j-th 2x4 coefficient of the force-interpolation series."""
    if j < 0:
        raise ValueError("j must be >= 0")
    c = (-1.0) ** j * dt ** (2 * j + 1) / factorial(2 * j + 4)
    row_u = [
        (j + 1) * (8 * j * j + 18 * j + 13) * dt / (2 * j + 5),
        36 * (j + 1) ** 2 * dt / (2 * j + 5),
        -9 * (2 * j * j + j - 1) * dt / (2 * j + 5),
        2 * (1 + 2 * j * j) * dt / (2 * j + 5),
    ]
    row_v = [
        (2 * j + 1) * (4 * j * j + 5 * j + 3),
        9 * (2 * j + 1) ** 2,
        -9 * (j - 1) * (2 * j + 1),
        4 * j * j - 4 * j + 3,
    ]
    return c * np.array([row_u, row_v])


def coeff_alpha(j: int, dt: float) -> np.ndarray:
    """j-th 2x2 coefficient of the damping series acting on the old state."""
    if j < 0:
        raise ValueError("j must be >= 0")
    c = (-1.0) ** j * dt ** (2 * j) / factorial(2 * j + 4)
    return c * np.array([
        [12 * (j + 1) * dt, -2 * (2 * j + 1) * (j + 1) * dt * dt],
        [12 * (2 * j + 1) * (j + 2), -4 * j * (2 * j + 1) * (j + 2) * dt],
    ])


def coeff_beta(j: int, dt: float) -> np.ndarray:
    """j-th 2x2 coefficient of the damping series acting on the new state."""
    if j < 0:
        raise ValueError("j must be >= 0")
    c = (-1.0) ** j * dt ** (2 * j) / factorial(2 * j + 4)
    return c * np.array([
        [-12 * (j + 1) * dt, 2 * (2 * j + 1) * dt * dt],
        [-12 * (2 * j + 1) * (j + 2), 8 * j * (j + 2) * dt],
    ])


def system_operators(model: SystemModel):
    """(solve_mass, A, minv_c) with A = M^-1 K and minv_c = M^-1 C.

    M^-1 is the model's ``solve_mass``; its inverse is never formed.  minv_c
    is solved on the nonzero columns of C only, and is zero elsewhere.
    """
    solve_mass = model.solve_mass
    a_mat = solve_mass(model.stiffness)
    minv_c = np.zeros_like(a_mat)
    s = np.flatnonzero((model.damping != 0.0).any(axis=0))
    minv_c[:, s] = _on_columns(lambda cols: [solve_mass(cols)], model.damping[:, s])[0]
    return solve_mass, a_mat, minv_c


def _on_columns(fn, cols):
    """fn(cols), a list of arrays whose column blocks follow the n x k
    ``cols``.  A lone column is taken twice, and the first copy of each block
    kept: a vector kernel's sums differ from those of a matrix product."""
    if cols.shape[1] != 1:
        return fn(cols)
    return [np.ascontiguousarray(out[:, ::2]) for out in fn(np.repeat(cols, 2, axis=1))]


def assemble_series(model: SystemModel, dt: float, m: int, which: str) -> np.ndarray:
    """Truncated series sum_{j=0}^{m/2} coeff_j(dt) (x) A^j (for T, L) or
    coeff_j(dt) (x) (A^j M^-1 C) (for alpha, beta)."""
    coeff = {"T": coeff_t, "L": coeff_l, "alpha": coeff_alpha, "beta": coeff_beta}.get(which)
    if coeff is None:
        raise ValueError(f"unknown series {which!r}; expected T, L, alpha or beta")
    _check_order(m)
    _, a_mat, minv_c = system_operators(model)
    return _series(a_mat, minv_c if which in ("alpha", "beta") else None, dt, m, coeff)[0]


def _series(a_mat, start, dt, m, *coeffs):
    """[sum_{j=0}^{m/2} c(j, dt) (x) A^j F for c in coeffs], every family
    summed off one chain of powers A^j F with F = ``start`` (the identity
    when None, whose first power is A itself, else n x k), one power held
    at a time."""
    n = a_mat.shape[0]
    power = np.eye(n) if start is None else start
    k = power.shape[1]
    outs = [np.zeros((rows * n, cols * k)) for rows, cols in (c(0, dt).shape for c in coeffs)]
    for j in range(m // 2 + 1):
        if j:
            power = a_mat if j == 1 and start is None else a_mat @ power
        for out, coeff in zip(outs, coeffs):
            for (r, c), cj in np.ndenumerate(coeff(j, dt)):
                if cj != 0.0:
                    out[r * n:(r + 1) * n, c * k:(c + 1) * k] += cj * power
    return outs


def _damped_series(a_mat, minv_c, dt, m, *coeffs):
    """(cols, rho, series): the damping series of _series on their nonzero
    columns cols = (s, n + s), s the damped dofs (the nonzero columns of
    minv_c), summed from minv_c[:, s]; rho of the first, that of its block
    [cols, cols], as the square is zero outside cols (0.0 when undamped)."""
    s = np.flatnonzero((minv_c != 0.0).any(axis=0))
    series = _on_columns(lambda start: _series(a_mat, start, dt, m, *coeffs), minv_c[:, s])
    cols = np.concatenate([s, len(minv_c) + s])
    return cols, spectral_radius(series[0][cols]), series


def undamped_step_increment(a_mat: np.ndarray, dt: float, m: int) -> np.ndarray:
    """Increment dT of the truncated undamped transfer matrix.

    Built from the truncated cosine/sine series of sqrt(A)*dt; the
    lower-left block is -A H so it carries one extra power of A.
    """
    _check_order(m)
    n = a_mat.shape[0]
    b_mat = (dt * dt) * a_mat
    j_max = m // 2
    delta_g = np.zeros((n, n))
    h_mat = np.eye(n)
    for j in range(1, j_max + 1):
        b_pow = b_mat if j == 1 else b_pow @ b_mat
        delta_g += (-1.0) ** j / factorial(2 * j) * b_pow
        h_mat += (-1.0) ** j / factorial(2 * j + 1) * b_pow
    h_mat *= dt
    return np.block([[delta_g, h_mat], [-a_mat @ h_mat, delta_g]])


def compute_a(model: SystemModel, config: PerConfig) -> np.ndarray:
    """Transition matrix a(dt) by the 2^p doubling algorithm.

    The increment da(dt0) is assembled from the truncated series at the
    reduced step and doubled p times: da <- 2 da + da*da.
    """
    return _doubled_increment(*system_operators(model)[1:], config)[0]


def _doubled_increment(a_mat, minv_c, config):
    """a(dt) = I + da(dt), da doubled p times from the reduced step, plus
    rho(beta_a) as diagnostic."""
    delta_a, rho_beta_a = _increment_at_reduced_step(a_mat, minv_c, config.dt0,
                                                     config.m_a, config.r_a)
    delta_a = double_increment(delta_a, config.p)
    if not np.isfinite(delta_a).all():
        raise DivergenceError(
            "non-finite entries while doubling the transition increment "
            f"(rho(beta_a) = {rho_beta_a:.3e})")
    return np.eye(len(delta_a)) + delta_a, rho_beta_a


def _increment_at_reduced_step(a_mat, minv_c, dt0, m_a, r_a):
    """da(dt0) = (I + dbeta)(I + dT + alpha_a) - I, dbeta the Neumann increment,
    and rho(beta_a), at the series order m_a (0 allowed here) and the Neumann
    order r_a.  alpha_a and beta_a carry +-M^-1 C at any dt0, so the same
    truncation is summed as (I + dbeta)(dT + Delta) - beta_a^(r_a + 1), with
    Delta = alpha_a + beta_a from the coefficient sums (its j = 0 term is
    zero).  All but dT live on the columns S of _damped_series: dbeta (dT +
    Delta) is dbeta[:, S] (dT + Delta)[S], and the last term beta_a[:, S]
    beta_a[S, S]^r_a."""
    cols, rho, (beta_a, delta_cols) = _damped_series(
        a_mat, minv_c, dt0, m_a, coeff_beta,
        lambda j, dt: coeff_alpha(j, dt) + coeff_beta(j, dt))
    delta = undamped_step_increment(a_mat, dt0, m_a)
    delta[:, cols] += delta_cols
    delta += _neumann_columns(beta_a, cols, r_a) @ delta[cols]
    delta[:, cols] -= beta_a @ np.linalg.matrix_power(beta_a[cols], r_a)
    return delta, rho


def compute_b_factors(model: SystemModel, config: PerConfig) -> SchemeMatrices:
    """Nonhomogeneous factors at the full step: the truncated Neumann sum
    of beta_b, the operator L_b, and rho(beta_b).

    Emits a warning when rho(beta_b) >= 1: the Neumann truncation then no
    longer approximates (I - beta_b)^-1 and the scheme will diverge.
    """
    _, a_mat, minv_c = system_operators(model)
    return _b_factors(a_mat, minv_c, config, np.eye(model.n_dof))


def _b_factors(a_mat, minv_c, config, start):
    """compute_b_factors on A = M^-1 K and minv_c = M^-1 C, with L_b summed on
    the n x k ``start`` F as L_b F; only rho(beta_b) if start is None."""
    cols, rho, (beta_b,) = _damped_series(a_mat, minv_c, config.dt, config.m_b, coeff_beta)
    if rho >= 1.0:
        warnings.warn(
            f"rho(beta_b) = {rho:.4f} >= 1: the damping series does not "
            "converge at this time step", RuntimeWarning, stacklevel=3)
    if start is None:
        return SchemeMatrices(a=None, neumann_b=None, l_b=None, rho_beta_b=rho)
    l_b, = _on_columns(lambda f: _series(a_mat, f, config.dt, config.m_b, coeff_l), start)
    neumann_b = np.eye(len(l_b))  # I plus the Neumann increment, on the columns cols
    neumann_b[:, cols] += _neumann_columns(beta_b, cols, config.r_b)
    return SchemeMatrices(a=None, neumann_b=neumann_b, l_b=l_b, rho_beta_b=rho)


def build_scheme(model: SystemModel, config: PerConfig) -> SchemeMatrices:
    """All one-step operators of the scheme that a run of the model reads,
    with l_b = L_b M^-1 E_S on the load's dofs S, summed from M^-1 E_S.  An
    unforced model has no forcing operators: neumann_b and l_b are None, and
    beta_b is summed for its radius alone."""
    solve_mass, a_mat, minv_c = system_operators(model)
    a, rho_beta_a = _doubled_increment(a_mat, minv_c, config)
    start = None if model.force is None else solve_mass(_load_sampler(model)[0])
    return replace(_b_factors(a_mat, minv_c, config, start), a=a, rho_beta_a=rho_beta_a)


def _per_offsets(dt):
    """Force abscissae of one step: the cubic-interpolation nodes."""
    return (0.0, dt / 3.0, 2.0 * dt / 3.0, dt)


def _step_samples(sample, k0, k1, dt, offsets):
    """[s(t_k + o_1), ..., s(t_k + o_q)] with t_k = k*dt, one row per step k0 <= k < k1."""
    times = np.arange(k0, k1)[:, None] * dt + np.asarray(offsets)
    return sample(times.ravel()).reshape(k1 - k0, -1)


def _per_samples(sample, k0, k1, dt):
    """``sample`` (times -> one row per time) at the force abscissae of the
    steps k0 <= k < k1, one row per step; a non-finite sample raises
    ValueError."""
    offsets = _per_offsets(dt)
    g = _step_samples(sample, k0, k1, dt, offsets)
    bad = np.flatnonzero(~np.isfinite(g.reshape((k1 - k0) * len(offsets), -1)).all(axis=1))
    if len(bad):
        k, i = divmod(int(bad[0]), len(offsets))
        raise ValueError(f"non-finite force sample at t = {(k0 + k) * dt + offsets[i]}")
    return g


def force_samples(model: SystemModel, k: int, dt: float) -> np.ndarray:
    """g_k: M^-1 f at the four interpolation abscissae of step k."""
    rows = _load_sampler(model)[2]
    return _per_samples(lambda times: model.solve_mass(rows(times).T).T, k, k + 1, dt)[0]


def _steps(t_max, dt):
    """round(t_max/dt), the step count of every integrator, at least 1."""
    for name, value in (("dt", dt), ("t_max", t_max)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0.0:
        raise ValueError("integration requires dt > 0")
    if t_max < dt:
        raise ValueError("t_max must be at least one time step")
    return max(1, int(round(t_max / dt)))


def integrate(model: SystemModel, config: PerConfig, t_max: float) -> Trajectory:
    """Run the explicit scheme from the model's initial state to t_max.

    The step count is round(t_max/dt), so the final sample may overshoot
    t_max by less than one step.  ``info`` carries rho(beta_b), rho(beta_a)
    and ``loop_s``, the step loop's seconds.  Two runs end with
    ``diverged=True``: one the guard stops, as its computed prefix with
    ``info["diverged_at_step"]``, and one with rho(beta_b) >= 1, whose
    truncated Neumann sum does not approximate (I - beta_b)^-1, as its full
    trajectory.  Either carries ``info["reason"]`` ("norm guard" or
    "rho(beta_b) >= 1") and ``info["dt_max_bound"]``.
    """
    n_steps = _steps(t_max, config.dt)
    _, cols, _ = _load_sampler(model)  # a built-in load of the wrong size raises here
    scheme = build_scheme(model, config)
    info = {"rho_beta_b": scheme.rho_beta_b, "rho_beta_a": scheme.rho_beta_a}
    if scheme.rho_beta_b >= 1.0:
        info["reason"] = "rho(beta_b) >= 1"
    forcing = ()
    if cols is not None:
        # the guard scale is that of L_b M^-1 E_S, deliberately without the
        # Neumann factor so that its blow-up is detected
        forcing = (cols, _per_offsets(config.dt), scheme.neumann_b @ scheme.l_b,
                   np.linalg.norm(scheme.l_b, 2))
    traj = _run(config.dt, n_steps, model.n_dof, scheme.a,
                np.concatenate([model.u0, model.v0]), *forcing, info=info)
    if forcing and "diverged_at_step" in traj.info:  # a non-finite sample raises
        force_samples(model, traj.n_steps - 1, config.dt)
    if not traj.diverged:
        return traj
    from .analysis import _dt_max  # deferred: analysis imports this module
    return replace(traj, info={**traj.info, "dt_max_bound": _dt_max(model, config.m_b)})


def _fold(weights, proj):
    """``weights`` on samples proj g, a block of len(proj) columns per sample,
    as weights on the samples g: proj = E_S or [0; M^-1 E_S] is folded in
    once, so that a step loop samples f_S alone."""
    return (weights.reshape(-1, len(proj)) @ proj).reshape(len(weights), -1)


def _run(dt, n_steps, n, phi, x0, sample=None, offsets=(), weights=None, ref_scale=None,
         info=None):
    """The run of every method and of the RK4 reference: ``recurrence`` from
    x0 (see there for the arguments; an unforced run has ``sample=None``, and
    ref_scale is by default ||weights||_2, inf for weights that are not
    finite, whose run stops at its first step), as the Trajectory of the
    (u, v) part, the first 2n entries, of its states.  It carries a copy of
    the caller's ``info`` and the seconds of its step loop as ``loop_s``; a
    guard stop adds its step as ``diverged_at_step`` and the reason "norm
    guard".  A run whose info holds a ``reason`` is diverged."""
    if sample is not None and ref_scale is None:  # the SVD raises on inf or nan
        ref_scale = np.linalg.norm(weights, 2) if np.isfinite(weights).all() else np.inf
    t0 = time.perf_counter()
    states, stop = recurrence(phi, x0, dt, n_steps, sample, offsets, weights, ref_scale)
    info = dict(info or {}, loop_s=time.perf_counter() - t0)
    if stop is not None:
        info.update(diverged_at_step=stop, reason="norm guard")
    return Trajectory(times=np.arange(len(states)) * dt, displacements=states[:, :n],
                      velocities=states[:, n:2 * n], diverged="reason" in info, info=info)


def recurrence(phi, x0, dt, n_steps, sample, offsets, weights, ref_scale):
    """Step U_{k+1} = phi U_k + weights @ [s(t_k + o_1); ...; s(t_k + o_q)].

    The one step loop of all six methods: Wilson on the state [u; v; a],
    the other five (this scheme, RK4, MPIM, Newmark and the composite
    scheme) on [u; v].  t_k = k*dt, ``sample`` maps an array of times to one
    forcing row per time (None when unforced), and ``offsets`` are its
    abscissae inside the step.  The run stops at the first state whose
    norm is non-finite (as after a non-finite sample) or exceeds
    _DIVERGENCE_FACTOR times the initial norm plus ref_scale times the
    accumulated sample norms.  Returns (states, stop): the computed
    states, one row per step from x0 on, and the step at which the guard
    stopped the run (None when it ran all n_steps).

    The steps run a block at a time, each block holding at most
    _BLOCK_FLOATS samples and _BLOCK_FLOATS state entries.  A block draws
    its samples in one call, forms all its forcing rows in one stacked
    product (one matrix-vector product per row, the arithmetic of
    ``weights @ g_k``), then steps phi U_k plus that row, and checks the
    guard once on all its states; after a stop, at most the rest of its
    block has been computed and is dropped.

    A banded phi (see _band) is stepped in the interleaved order (u_0, v_0,
    u_1, v_1, ...), where its nonzero entries form one band: each step adds
    phi U_k to its forcing row (zero if unforced) by one BLAS dgbmv call,
    and the states go back to the (u, v) order once, at the end.  They equal
    those of the step-by-step dgbmv loop bit for bit, and those of the dense
    loop to roundoff.  Every other phi takes one dense product per step, bit
    for bit as the step-by-step dense loop.
    """
    if np.shape(x0) != phi.shape[:1]:
        raise ValueError(f"initial state must have length {phi.shape[0]}")
    states = np.zeros((n_steps + 1, phi.shape[0]))
    states[0] = x0
    ref_norm = np.linalg.norm(states[0])
    band = _band(phi)
    if band is not None:  # states and forcing rows in the interleaved order
        perm, lower, upper, storage = band
        states[0] = states[0][perm]
        weights = None if sample is None else weights[perm]
    width = len(x0) if sample is None else max(len(x0), weights.shape[1])
    block, stop = max(1, _BLOCK_FLOATS // width), None
    for k0 in range(0, n_steps, block):
        k1 = min(k0 + block, n_steps)
        new = states[k0 + 1:k1 + 1]
        g = None if sample is None else _step_samples(sample, k0, k1, dt, offsets)
        # the steps after a stop inside the block may overflow: the guard
        # reports the stop, the rest of the block is dropped
        with np.errstate(over="ignore", invalid="ignore"):
            if g is not None:
                np.matmul(weights, g[:, :, None], out=new[:, :, None])
            if band is not None:  # the rows of new hold their forcing, or zero
                for x, nxt in zip(states[k0:k1], new):
                    nxt[:] = dgbmv(len(x), len(x), upper, lower, 1.0, storage, x, beta=1.0,
                                   y=nxt, trans=1)
            else:
                for x, nxt in zip(states[k0:k1], new):
                    nxt += phi @ x
            bad, ref_norm = _guard(new, ref_norm, ref_scale, g)
        if bad.any():
            stop = k0 + 1 + int(bad.argmax())
            states = states[:stop + 1]
            break
    if band is not None:  # back in the (u, v) order
        states = states[:, np.argsort(perm)]
    return states, stop


def _band(phi):
    """(perm, lower, upper, storage) of the band loop of ``recurrence``, None
    for the dense loop: perm the interleaved order, lower and upper the
    bandwidths of phi[perm][:, perm] (NaN and inf count as nonzero), storage
    the LAPACK band storage of its transpose, for dgbmv with trans=1.  Taken
    above order _FLUSH_MIN_ORDER, with a zero entry and a band of at most
    _BAND_SHARE of the order."""
    n = phi.shape[0]
    if n <= _FLUSH_MIN_ORDER or (phi != 0.0).all():
        return None
    (perm, first, stop), rows = _interleaved_profile(phi), np.arange(n)
    lower, upper = max(0, (rows - first).max()), max(0, (stop - 1 - rows).max())
    width = lower + upper + 1
    if width > _BAND_SHARE * n:
        return None
    # row r of the band, phi[perm][r, r - lower:r + upper + 1], read off a padded copy
    padded = np.zeros((n, n + width - 1))
    _interleave(phi, padded[:, lower:lower + n])
    return perm, lower, upper, sliding_window_view(padded, width, axis=1)[rows, rows].T


def _guard(states, ref_norm, ref_scale, g):
    """(bad, last): whether the norm of each state is non-finite or above
    _DIVERGENCE_FACTOR times its reference, ref_norm plus ref_scale times the
    accumulated norms of the sample rows g through its step (ref_norm alone
    if g is None), and the last reference."""
    if g is None:
        refs = last = ref_norm
    else:
        refs = np.cumsum(np.concatenate([[ref_norm], ref_scale * _row_norms(g)]))[1:]
        last = refs[-1]
    norms = _row_norms(states)
    return ~np.isfinite(norms) | (norms > _DIVERGENCE_FACTOR * np.maximum(refs, 1e-30)), last


def _row_norms(rows):
    """sqrt(r @ r) of each row r, by the same dot product as a single row."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def integrate_asymptotic(model: SystemModel, config: PerConfig, t_max: float,
                         n_terms: int) -> Trajectory:
    """Partial sum of the explicit double iteration.

    Every term marches x_{k+1} = T x_k + d_k.  Term 0 starts at the initial
    state, driven by l_b = L_b M^-1 E_S (as in ``build_scheme``) on the
    load's samples f_S; every further term starts at rest, driven by the
    previous term x as alpha x_k + beta x_{k+1} on the damped columns.  All
    series are truncated at m_b on the full step.  The trajectory is the sum
    of the first n_terms+1 terms, and ``info`` carries each term's peak as
    ``term_norms`` and rho(beta_b).  The run is diverged by the rules of
    ``integrate``: rho(beta_b) >= 1, or a state of the sum that fails the
    norm guard (on ||l_b||_2 and f_S), as under a T that grows, which adds
    ``diverged_at_step`` and the reason "norm guard".
    """
    n_steps = _steps(t_max, config.dt)
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    n, dt, m = model.n_dof, config.dt, config.m_b
    solve_mass, a_mat, minv_c = system_operators(model)
    e_s, load, _ = _load_sampler(model)
    t_mat, = _series(a_mat, None, dt, m, coeff_t)
    cols, rho, (beta, alpha) = _damped_series(a_mat, minv_c, dt, m, coeff_beta, coeff_alpha)
    x = np.zeros((n_steps + 1, 2 * n))
    x[0] = np.concatenate([model.u0, model.v0])
    drive, g, scale = np.zeros_like(x[1:]), None, 0.0
    if load is not None:
        l_b, = _on_columns(lambda f: _series(a_mat, f, dt, m, coeff_l), solve_mass(e_s))
        g = _per_samples(load, 0, n_steps, dt)
        drive, scale = g @ l_b.T, np.linalg.norm(l_b, 2)
    total, term_norms = 0.0, []
    for j in range(n_terms + 1):
        if j:
            drive = x[:-1, cols] @ alpha.T + x[1:, cols] @ beta.T
            x = np.zeros_like(x)
        for k in range(n_steps):
            x[k + 1] = t_mat @ x[k] + drive[k]
        total = total + x
        term_norms.append(float(np.abs(x).max()))
        if not np.isfinite(term_norms[-1]):
            break
    info = {"term_norms": term_norms, "rho_beta_b": rho}
    with np.errstate(over="ignore", invalid="ignore"):  # the norms of a sum that overflows
        bad = _guard(total[1:], np.linalg.norm(total[0]), scale, g)[0]
    if bad.any():
        info.update(diverged_at_step=1 + int(bad.argmax()), reason="norm guard")
    return Trajectory(times=np.arange(n_steps + 1) * dt, displacements=total[:, :n],
                      velocities=total[:, n:], info=info, diverged=rho >= 1.0 or "reason" in info)
