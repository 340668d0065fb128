"""Benchmark harness: error norms, parameter sweeps, operation-count
cost models and reference-solution generation."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, baselines, per
from .linalg import _reduced_step
from .model import SystemModel, _spectral_extremes, damping_level

METHODS = ("per", "newmark", "wilson", "bathe", "rk4", "mpim")

#: RK4 stability margin on omega_max * dt used by reference_solution.
RK4_STABLE_PRODUCT = 2.5
MAX_REFINE = 8000
_FLOOR_FACTOR = 10.0  # fit_order's floor, in units of the smallest error


@dataclass(frozen=True)
class ErrorReport:
    """Relative discrete-l2 errors of one dof's displacement and velocity."""

    e_disp: float
    e_vel: float


@dataclass(frozen=True)
class CostModel:
    """Operation count n3*N^3 + n2*N^2 + n1*N of one method run."""

    method: str
    n3_coeff: int
    n2_coeff: int
    n1_coeff: int
    total_ops: int


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: ``abscissa`` is dt/T_min in sweep_dt and zeta in
    sweep_damping."""

    dt: float
    abscissa: float
    e_disp: float
    e_vel: float
    diverged: bool
    extra: dict = field(default_factory=dict)


def trajectory_norm(values: np.ndarray) -> float:
    """Discrete l2 norm sqrt(sum_k y(t_k)^2) over the whole grid."""
    return float(np.sqrt(np.sum(np.asarray(values, dtype=float) ** 2)))


def global_error(test: per.Trajectory, reference: per.Trajectory,
                 dof: int) -> ErrorReport:
    """Relative global error of one dof's displacement and velocity."""
    _check_dof(dof, test.displacements.shape[1])
    if len(test.times) != len(reference.times):
        raise ValueError("trajectories have different lengths")
    if np.abs(test.times - reference.times).max() > 1e-12 * max(test.times[-1], 1e-300):
        raise ValueError("trajectories are sampled on different time grids")
    u_t = test.displacements[:, dof]
    u_r = reference.displacements[:, dof]
    v_t = test.velocities[:, dof]
    v_r = reference.velocities[:, dof]
    nu, nv = trajectory_norm(u_r), trajectory_norm(v_r)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("reference trajectory has zero norm: error undefined")
    return ErrorReport(e_disp=trajectory_norm(u_t - u_r) / nu,
                       e_vel=trajectory_norm(v_t - v_r) / nv)


def _check_dof(dof, n_dof):
    if not 0 <= dof < n_dof:
        raise ValueError(f"dof must be in [0, {n_dof}), got {dof}")


def mechanical_energy(model: SystemModel, traj: per.Trajectory) -> np.ndarray:
    """Discrete mechanical energy 0.5 u'Ku + 0.5 v'Mv at every sample."""
    u = traj.displacements
    v = traj.velocities
    return 0.5 * (np.einsum("ki,ij,kj->k", u, model.stiffness, u)
                  + np.einsum("ki,ij,kj->k", v, model.mass, v))


def reference_solution(model: SystemModel, dt: float, t_max: float,
                       refine: int = 500) -> per.Trajectory:
    """RK4 reference at dt/refine subsampled onto the coarse grid.

    The refinement doubles automatically (up to 8000) until
    omega_max * dt_fine clears the RK4 stability margin; the refine
    value actually used is reported in ``info``.

    The system is linear, so s fine steps fold into one step map
    U <- R^s U + W g (a blocked linear scan: the same RK4 in exact
    arithmetic), and only every s-th fine state is computed.  ``g`` holds
    f_S, the load on its support S, at the 2s+1 half-step nodes of the s
    steps, and W folds in the [0; M^-1 E_S] of ``baselines.state_space``:
    q = |S| numbers per node, with no mass solve.  s is refine, or the
    largest divisor of refine that keeps the powers of R stacked by
    _folded_rk4 below twice per._BLOCK_FLOATS numbers (``_fold_size``).
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    n_coarse = per._steps(t_max, dt)
    system = baselines.state_space(model)  # a built-in load of the wrong size raises here
    w_max = _spectral_extremes(model)[0]
    used = refine
    while w_max * dt / used >= RK4_STABLE_PRODUCT:
        used *= 2
        if used > MAX_REFINE:
            raise ValueError(
                f"cannot reach RK4 stability below refine={MAX_REFINE} "
                f"(omega_max*dt = {w_max * dt:.3e})")
    h, load = dt / used, system.load
    fold = _fold_size(used, model.n_dof)
    phi, weights = _folded_rk4(system.w, h, fold, system.proj)
    fine = per._run(
        fold * h, n_coarse * (used // fold), model.n_dof, phi,
        np.concatenate([model.u0, model.v0]),
        None if load is None else lambda times: load(_on_fine_grid(times, h)),
        np.arange(2 * fold + 1) * (h / 2.0), weights)
    if fine.diverged:
        raise ValueError("reference RK4 run diverged")
    every = used // fold
    return per.Trajectory(times=np.arange(n_coarse + 1) * dt,
                          displacements=fine.displacements[::every].copy(),
                          velocities=fine.velocities[::every].copy(),
                          info={"refine": used})


def _fold_size(refine, n_dof):
    """Fine steps per folded step: the largest divisor s of refine with
    (2s+1) 2N^2 <= per._BLOCK_FLOATS (s = 1 from N = 115 up).  The folded
    weights are only 2N x (2s+1)|S|: the rule bounds _folded_rk4's stack of
    up to 2^ceil(log2 s) powers of order 2N, under 2 per._BLOCK_FLOATS
    numbers (16 x 96 x 96 = 147,456 on the 48-dof beam at refine 500, s = 10)."""
    s_max = max(1, (per._BLOCK_FLOATS // (2 * n_dof * n_dof) - 1) // 2)
    return next(s for s in range(min(refine, s_max), 0, -1) if refine % s == 0)


def _folded_rk4(w, h, s, proj):
    """(R^s, W): s RK4 steps of size h on dU/dt = W U + proj g(t) as one step.

    Step j of the s contributes R^(s-1-j) h/6 (P0, Pm, I) at the nodes
    2j, 2j+1, 2j+2 of the half-step grid, so node 2j (0 < j < s) weighs
    R^(s-1-j) (P0 + R).  proj, 2N x q, is folded in before the powers, so
    W has q columns per node.  The powers are doubled as
    increments R^j - I (R^(a+b) - I = D_a + D_b + D_a D_b, one batched
    product per doubling) from RK4's own increment D, never from a rounded
    R = I + D: that rounding put a forced 12-dof chain's reference 1.1e-12
    of its peak from a long-double RK4 loop at t_max = 1.2, against 5.6e-15.
    """
    d_one, p0, pm = baselines.rk4_operators(w, h)
    n2 = w.shape[0]
    eye = np.eye(n2)
    inc = np.zeros((1, n2, n2))  # inc[j] = R^j - I
    d_len = d_one  # R^len(inc) - I
    # a diverging map overflows to inf and nan here; the run's guard reports it
    with np.errstate(over="ignore", invalid="ignore"):
        while len(inc) < s:
            inc = np.concatenate([inc, inc + d_len + inc @ d_len])
            d_len = 2.0 * d_len + d_len @ d_len
        q = inc[s - 1::-1]  # q[j] = R^(s-1-j) - I
        head = h / 6.0 * np.hstack([(p0 + eye + d_one) @ proj, pm @ proj])
        blocks = head + q @ head
        first = h / 6.0 * (p0 @ proj)
        blocks[0, :, :first.shape[1]] = first + q[0] @ first
        phi = eye + (q[0] + d_one + q[0] @ d_one)
    weights = np.hstack([blocks.transpose(1, 0, 2).reshape(n2, -1),
                         h / 6.0 * proj])
    return phi, weights


def _on_fine_grid(times, h):
    """Node times t_k + i h/2 snapped to k*h + (0 or h/2), the values the
    fine-step loop computes: a step load switching at a node then switches
    at the same sample."""
    k, odd = np.divmod(np.rint(times / (h / 2.0)), 2.0)
    return k * h + odd * (h / 2.0)


def run_method(model: SystemModel, method: str, dt: float, t_max: float,
               per_config: per.PerConfig | None = None,
               params: baselines.IntegratorParams | None = None) -> per.Trajectory:
    """Dispatch a single integration run by method name."""
    _check_method(method)
    params = params or baselines.IntegratorParams()
    if method == "per":
        return per.integrate(model, _at_dt(per_config, dt), t_max)
    if method == "newmark":
        return baselines.newmark(model, dt, t_max, params.newmark_gamma,
                                 params.newmark_beta)
    if method == "wilson":
        return baselines.wilson(model, dt, t_max, params.wilson_theta)
    if method == "bathe":
        return baselines.bathe(model, dt, t_max, params.bathe_gamma)
    system = baselines.state_space(model)
    u0 = np.concatenate([model.u0, model.v0])
    if method == "rk4":
        return baselines.rk4(system, u0, dt, t_max)
    return baselines.mpim(system, u0, dt, t_max, params.mpim_g, params.mpim_p)


def _check_method(method):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _at_dt(per_config, dt):
    """The PER configuration of a run at this dt."""
    return replace(per_config, dt=dt) if per_config else per.PerConfig(dt=dt)


def _sweep(methods, points, t_max, dof, per_config, params, refine):
    """One row per point (model, dt, abscissa, extra) and method, point by
    point, scored against the point's RK4 reference: NaN errors and
    diverged when the run raises DivergenceError, is flagged diverged (as
    a PER run with rho(beta_b) >= 1 is) or stops short of the reference.
    The one scoring loop of compare and the sweeps; every run goes through
    run_method with RuntimeWarnings silenced (divergence is sweep data).
    The methods, and the dof on every point, are checked before any reference."""
    for method in methods:
        _check_method(method)
    for model, *_ in points:
        _check_dof(dof, model.n_dof)
    rows = []
    for model, dt, abscissa, extra in points:
        ref = reference_solution(model, dt, t_max, refine=refine)
        config = _at_dt(per_config, dt)
        for method in methods:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    traj = run_method(model, method, dt, t_max, config, params)
                except per.DivergenceError:
                    traj = None
            ok = traj is not None and not traj.diverged and len(traj.times) == len(ref.times)
            scores = float("nan"), float("nan"), True
            if ok:
                rep = global_error(traj, ref, dof)
                scores = rep.e_disp, rep.e_vel, False
            rows.append(SweepRow(dt, abscissa, *scores, extra=extra))
    return rows


def sweep_dt(model: SystemModel, method: str, dt_list, t_max: float, dof: int,
             per_config: per.PerConfig | None = None,
             params: baselines.IntegratorParams | None = None,
             refine: int = 500) -> list[SweepRow]:
    """Global error against the RK4 reference for each time step.

    Runs where the trajectory blows up, or (for the perturbation scheme)
    where rho(beta_b) >= 1 so the underlying series does not converge,
    are recorded with the diverged flag instead of numbers.
    """
    w_max = _spectral_extremes(model)[0]
    if w_max <= 0.0:
        raise ValueError("model has no positive natural frequency")
    return _sweep([method], [(model, dt, dt * w_max / (2.0 * np.pi), {}) for dt in dt_list],
                  t_max, dof, per_config, params, refine)


def sweep_damping(model: SystemModel, zeta_list, dt: float, t_max: float,
                  dof: int, method: str = "per",
                  per_config: per.PerConfig | None = None,
                  params: baselines.IntegratorParams | None = None,
                  refine: int = 500) -> list[SweepRow]:
    """Scale the template's damping matrix by each zeta and record the
    global errors plus PER's rho(beta_b) at dt, whatever the method.

    The template model's damping matrix is the zeta = 1 layout.
    """
    _check_method(method)
    config = _at_dt(per_config, dt)
    points = []
    for zeta in zeta_list:
        if zeta < 0.0:
            raise ValueError("zeta must be >= 0")
        scaled = model.with_damping(zeta * model.damping)
        [(_, rho)] = analysis.beta_radius_map(scaled, [dt], config.m_b)
        extra = {"damping_level": damping_level(scaled) if zeta > 0.0 else 0.0,
                 "rho_beta_b": rho}
        points.append((scaled, dt, zeta, extra))
    return _sweep([method], points, t_max, dof, config, params, refine)


def fit_order(dts, errors) -> float:
    """Least-squares slope of log10(error) vs log10(dt).

    Non-finite entries and floor-dominated points (below _FLOOR_FACTOR
    times the smallest error) are discarded before fitting.
    """
    dts = np.asarray(list(dts), dtype=float)
    errors = np.asarray(list(errors), dtype=float)
    ok = np.isfinite(errors) & (errors > 0.0)
    if ok.sum() < 2:
        raise ValueError("not enough valid points for a slope fit")
    floor = errors[ok].min()
    keep = ok & (errors > _FLOOR_FACTOR * floor)
    if keep.sum() < 2:
        keep = ok
    return float(np.polyfit(np.log10(dts[keep]), np.log10(errors[keep]), 1)[0])


# ---------------------------------------------------------------------------
# Operation-count cost models.

def _cost(method, steps, n3, n2, n1, n):
    if n < 1 or steps < 0:
        raise ValueError(f"a cost model needs N >= 1 and steps >= 0, got N = {n}, "
                         f"steps = {steps}")
    total = n3 * n**3 + n2 * n**2 + n1 * n
    return CostModel(method=method, n3_coeff=n3, n2_coeff=n2, n1_coeff=n1,
                     total_ops=total)


def cost_per(n_dof: int, p: int = 20, m_a: int = 2, m_b: int = 4,
             r_a: int = 2, r_b: int = 2, steps: int = 0) -> CostModel:
    """Operation count of the perturbation scheme."""
    per.PerConfig(0.0, p, m_a=m_a, r_a=r_a, m_b=m_b, r_b=r_b)  # checks p and the orders
    n3 = 33 + 4 * (r_a + r_b) + 8 * p + m_b
    n2 = 11 * m_a // 2 + 8 * m_b + 24 + 4 * steps
    n1 = 8 * steps
    return _cost("per", steps, n3, n2, n1, n_dof)


def cost_mpim(n_dof: int, p: int = 20, g: int = 4, steps: int = 0) -> CostModel:
    """Operation count of the modified precise integration method."""
    _reduced_step(0.0, p)  # p >= 1: the halving rule, with no step to halve
    baselines._gauss_rule(g)
    n3 = 18 + 8 * p * (1 + g)
    n2 = 4 * g + 4 * steps
    return _cost("mpim", steps, n3, n2, 0, n_dof)


def cost_rk4(n_dof: int, steps: int = 0) -> CostModel:
    """Operation count of classical RK4."""
    return _cost("rk4", steps, 2, 16 * steps, 8 * steps, n_dof)


def per_mpim_setup_ratio() -> float:
    """Large-N limit of the setup-cost ratio per/mpim (N^3 coefficients)
    at the default orders of both cost models."""
    return cost_per(1).n3_coeff / cost_mpim(1).n3_coeff


# ---------------------------------------------------------------------------
# Wall-clock timing (plot data only, never asserted against literature).

def timing_run(model: SystemModel, method: str, dt: float, t_max: float,
               per_config: per.PerConfig | None = None,
               params: baselines.IntegratorParams | None = None,
               repeats: int = 3) -> tuple[float, float]:
    """(setup_seconds, loop_seconds), best of ``repeats`` runs, one run each.

    The loop phase is the run's own ``info["loop_s"]``, the setup phase the
    rest of the call (operator preparation and the trajectory's assembly).
    t_max below one step means a setup-only measurement: one step is run,
    and its loop is not counted.
    """
    best_setup = best_loop = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        loop_s = run_method(model, method, dt, max(t_max, dt), per_config, params).info["loop_s"]
        best_setup = min(best_setup, time.perf_counter() - t0 - loop_s)
        best_loop = min(best_loop, loop_s if t_max >= dt else 0.0)
    return best_setup, best_loop
