"""Reference time integrators for comparison runs.

Implicit: Newmark (average acceleration), Wilson-theta, and the
two-sub-step composite scheme (trapezoidal rule + 3-point backward
Euler).  Explicit: classical RK4 on the state-space form, collapsed
into its one-step map, and the modified precise integration method
(MPIM) whose matrix exponential is built by the same 2^p doubling idea
from RK4's step increment and whose forcing integral uses
Gauss-Legendre quadrature.

Every method is a step map U_{k+1} = Phi U_k + W f_S(t_k + o_i) run by
``per._run``, the runner of the perturbation scheme, on the samples f_S of
the load on its support S: the explicit ones on U = [u; v], the implicit
ones on U = [u; v] (Newmark, the composite scheme) or U = [u; v; a]
(Wilson, whose a is not in equilibrium), their maps built once by applying
the step to the columns of the identity, with [0; M^-1 E_S] or E_S folded
into W by ``per._fold``.  Every M^-1 is the model's ``solve_mass``.
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import signature
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve

from .linalg import _reduced_step, double_increment
from .model import SystemModel, _load_sampler
from .per import Trajectory, _fold, _run, _steps, system_operators


@dataclass(frozen=True)
class StateSpaceSystem:
    """First-order form dU/dt = W U + h(t), U = [u; v], h(t) = proj f_S(t): ``load``
    maps an array of times to f_S, the load on its support S, one row per time
    (None when unforced), and ``proj`` = [0; M^-1 E_S] is 2N x |S|."""

    w: np.ndarray
    load: Callable[[np.ndarray], np.ndarray] | None
    proj: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.w.shape[0] // 2

    def h(self, t):
        """h at a time, a 2N vector, or at an array of times, one row per time."""
        times = np.asarray(t, dtype=float)
        out = (np.zeros((times.size, len(self.w))) if self.load is None
               else self.load(times.ravel()) @ self.proj.T)
        return out if times.ndim else out[0]


@dataclass(frozen=True)
class IntegratorParams:
    """The tunables every baseline accepts."""

    newmark_gamma: float = 0.5
    newmark_beta: float = 0.25
    wilson_theta: float = 1.4
    bathe_gamma: float = 0.5
    mpim_g: int = 4
    mpim_p: int = 20


def _companion(model):
    """W = [[0, I], [-M^-1 K, -M^-1 C]]."""
    n = model.n_dof
    _, a_mat, minv_c = system_operators(model)
    return np.block([[np.zeros((n, n)), np.eye(n)], [-a_mat, -minv_c]])


def state_space(model: SystemModel) -> StateSpaceSystem:
    """Companion form of a second-order model."""
    e_s, cols, _ = _load_sampler(model)  # a built-in load of the wrong size raises here
    return StateSpaceSystem(_companion(model), cols,
                            np.vstack([np.zeros_like(e_s), model.solve_mass(e_s)]))


def _step_map(model, offsets, step):
    """(Phi, offsets, W) of a one-step method on the state U = (u, v), or
    (u, v, a) for Wilson.

    ``step(*U_k, f_1, ..., f_q)`` returns the blocks of U_{k+1} under the
    loads f_i = f(t_k + offsets[i]); the state width is the number of
    blocks it returns.  It is linear and acts column by column, so one
    call on the columns of the identity, one block per argument, gives
    Phi (the state columns) and W (the load columns) of
    U_{k+1} = Phi U_k + W [f(t_k + o_1); ...; f(t_k + o_q)].
    """
    n_args = len(signature(step).parameters)
    out = np.vstack(step(*np.split(np.eye(n_args * model.n_dof), n_args)))
    return out[:, :len(out)], offsets, out[:, len(out):]


def _run_map(model, dt, t_max, build, *params):
    """The map ``build(model, dt, *params)`` run by ``_run`` from [u0, v0],
    extended by the equilibrium acceleration at t = 0 for Wilson's
    (u, v, a), with E_S folded into its W."""
    n_steps = _steps(t_max, dt)
    e_s, cols, _ = _load_sampler(model)  # a built-in load of the wrong size raises here
    phi, offsets, weights = build(model, dt, *params)
    x0 = np.concatenate([model.u0, model.v0])
    if len(phi) > len(x0):
        x0 = np.concatenate([x0, _acceleration(model)(model.u0, model.v0, model.force_at(0.0))])
    return _run(dt, n_steps, model.n_dof, phi, x0, cols, offsets, _fold(weights, e_s))


def _acceleration(model):
    """(u, v, f) -> M^-1 (f - C v - K u), the acceleration in equilibrium."""
    return lambda u, v, f: model.solve_mass(f - model.damping @ v - model.stiffness @ u)


# ---------------------------------------------------------------------------
# Newmark

def newmark(model: SystemModel, dt: float, t_max: float,
            gamma: float = 0.5, beta: float = 0.25) -> Trajectory:
    """Newmark recursion; defaults are the average-acceleration pair."""
    if beta <= 0.0:
        raise ValueError("newmark beta must be positive")
    return _run_map(model, dt, t_max, _newmark_map, gamma, beta)


def _newmark_map(model, dt, gamma, beta):
    """Newmark's step map on (u, v): loads at t and t + dt, the first for
    the acceleration at t."""
    a0 = 1.0 / (beta * dt * dt)
    a1 = gamma / (beta * dt)
    a2 = 1.0 / (beta * dt)
    a3 = 1.0 / (2.0 * beta) - 1.0
    a4 = gamma / beta - 1.0
    a5 = dt / 2.0 * (gamma / beta - 2.0)
    factor = cho_factor(model.stiffness + a0 * model.mass + a1 * model.damping)
    acceleration = _acceleration(model)

    def step(u, v, f_now, f_next):
        acc = acceleration(u, v, f_now)
        rhs = (f_next + model.mass @ (a0 * u + a2 * v + a3 * acc)
               + model.damping @ (a1 * u + a4 * v + a5 * acc))
        u_next = cho_solve(factor, rhs)
        acc_next = a0 * (u_next - u) - a2 * v - a3 * acc
        v_next = v + dt * ((1.0 - gamma) * acc + gamma * acc_next)
        return u_next, v_next

    return _step_map(model, (0.0, dt), step)


# ---------------------------------------------------------------------------
# Wilson-theta

def wilson(model: SystemModel, dt: float, t_max: float,
           theta: float = 1.4) -> Trajectory:
    """Wilson recursion: linear acceleration over the extended step
    theta*dt, force linearly extrapolated to t + theta*dt."""
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    return _run_map(model, dt, t_max, _wilson_map, theta)


def _wilson_map(model, dt, theta):
    """Wilson's step map on (u, v, a): loads at t and t + dt."""
    td = theta * dt
    k_eff = model.stiffness + 6.0 / td**2 * model.mass + 3.0 / td * model.damping
    factor = cho_factor(k_eff)

    def step(u, v, acc, f_now, f_next):
        f_theta = f_now + theta * (f_next - f_now)
        rhs = (f_theta + model.mass @ (6.0 / td**2 * u + 6.0 / td * v + 2.0 * acc)
               + model.damping @ (3.0 / td * u + 2.0 * v + td / 2.0 * acc))
        u_theta = cho_solve(factor, rhs)
        acc_next = (6.0 / (theta**3 * dt * dt) * (u_theta - u)
                    - 6.0 / (theta**2 * dt) * v + (1.0 - 3.0 / theta) * acc)
        v_next = v + dt / 2.0 * (acc_next + acc)
        u_next = u + dt * v + dt * dt / 6.0 * (acc_next + 2.0 * acc)
        return u_next, v_next, acc_next

    return _step_map(model, (0.0, dt), step)


# ---------------------------------------------------------------------------
# Composite two-sub-step scheme

def bathe(model: SystemModel, dt: float, t_max: float,
          gamma: float = 0.5) -> Trajectory:
    """Composite scheme: trapezoidal rule on [t, t+gamma*dt], 3-point
    backward differences on the full step."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return _run_map(model, dt, t_max, _bathe_map, gamma)


def _bathe_map(model, dt, gamma):
    """The composite scheme's step map on (u, v): loads at t (for the
    acceleration at t), t + gamma*dt and t + dt.  Both effective matrices
    are factorized once."""
    dt1 = gamma * dt
    b0 = 4.0 / (dt1 * dt1)
    b1 = 2.0 / dt1
    factor1 = cho_factor(model.stiffness + b0 * model.mass + b1 * model.damping)
    c1 = (1.0 - gamma) / (gamma * dt)
    c2 = -1.0 / ((1.0 - gamma) * gamma * dt)
    c3 = (2.0 - gamma) / ((1.0 - gamma) * dt)
    factor2 = cho_factor(model.stiffness + c3 * c3 * model.mass + c3 * model.damping)
    acceleration = _acceleration(model)

    def step(u, v, f_now, f_mid, f_next):
        acc = acceleration(u, v, f_now)
        # sub-step 1: trapezoidal to t + gamma*dt
        rhs = (f_mid + model.mass @ (b0 * u + 4.0 / dt1 * v + acc)
               + model.damping @ (b1 * u + v))
        u_mid = cho_solve(factor1, rhs)
        v_mid = b1 * (u_mid - u) - v
        # sub-step 2: backward differences over (t, t+gamma*dt, t+dt)
        rhs = (f_next - model.mass @ (c1 * v + c2 * v_mid + c3 * (c1 * u + c2 * u_mid))
               - model.damping @ (c1 * u + c2 * u_mid))
        u_next = cho_solve(factor2, rhs)
        return u_next, c1 * u + c2 * u_mid + c3 * u_next

    return _step_map(model, (0.0, dt1, dt), step)


# ---------------------------------------------------------------------------
# RK4

def rk4_operators(w: np.ndarray, dt: float):
    """(D, P0, Pm) of one RK4 step of size dt on dU/dt = W U + h(t).

    On a linear system the four stages collapse into the step map
    U_{k+1} = (I + D) U_k + dt/6 (P0 h(t_k) + Pm h(t_k + dt/2) + I h(t_k + dt))
    with X = W dt, P0 = I + X + X^2/2 + X^3/4, Pm = 4I + 2X + X^2/2 and the
    increment D = X + X^2/2 + X^3/6 + X^4/24, never rounded through I + D.
    """
    eye = np.eye(w.shape[0])
    x = w * dt
    x2 = x @ x
    x3 = x2 @ x
    d = x + x2 / 2.0 + x3 / 6.0 + x2 @ x2 / 24.0
    return d, eye + x + x2 / 2.0 + x3 / 4.0, 4.0 * eye + 2.0 * x + x2 / 2.0


def rk4(system: StateSpaceSystem, u0: np.ndarray, dt: float,
        t_max: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta on dU/dt = W U + h(t), stepped as
    its one-step map (see ``rk4_operators``), three force samples per step.

    ``u0`` is the 2N initial state [u; v].  Divergence (non-finite or
    unbounded growth) truncates the run and sets the flag.
    """
    n_steps = _steps(t_max, dt)
    d, p0, pm = rk4_operators(system.w, dt)
    eye = np.eye(len(d))
    return _run(dt, n_steps, system.n_dof, eye + d, u0, system.load, (0.0, dt / 2.0, dt),
                _fold(dt / 6.0 * np.hstack([p0, pm, eye]), system.proj))


# ---------------------------------------------------------------------------
# MPIM

#: Gauss-Legendre nodes/weights on [-1, 1].
GAUSS_NODES = {g: tuple(map(tuple, leggauss(g))) for g in range(2, 7)}


def expm_2p(w: np.ndarray, t: float, p: int = 20) -> np.ndarray:
    """exp(W t) from RK4's increment at t/2^p, the 4th-order Taylor
    increment of exp(W t/2^p), doubled p times."""
    return np.eye(w.shape[0]) + double_increment(rk4_operators(w, _reduced_step(t, p))[0], p)


def _gauss_rule(g):
    """(nodes, weights) of the g-point Gauss rule; g must be in GAUSS_NODES."""
    if g not in GAUSS_NODES:
        raise ValueError(f"g must be one of {sorted(GAUSS_NODES)}, got {g}")
    return GAUSS_NODES[g]


def mpim_operators(system: StateSpaceSystem, dt: float, g: int = 4, p: int = 20):
    """(full-step exponential, per-node weighted exponentials, node times).

    Each Gauss node i needs exp(W dt (1 - eta_i)/2); the force is then
    sampled at t_k + dt(1 + eta_i)/2 so that the exponential acts over
    the remainder of the step.
    """
    nodes, weights = _gauss_rule(g)
    big_h = expm_2p(system.w, dt, p)
    exps = [dt / 2.0 * wt * expm_2p(system.w, dt / 2.0 * (1.0 - eta), p)
            for eta, wt in zip(nodes, weights)]
    offsets = [dt / 2.0 * (1.0 + eta) for eta in nodes]
    return big_h, exps, offsets


def mpim(system: StateSpaceSystem, u0: np.ndarray, dt: float, t_max: float,
         g: int = 4, p: int = 20) -> Trajectory:
    """Modified precise integration: exact-to-roundoff homogeneous
    propagation plus Gauss quadrature of the forcing convolution."""
    n_steps = _steps(t_max, dt)
    big_h, exps, offsets = mpim_operators(system, dt, g, p)
    return _run(dt, n_steps, system.n_dof, big_h, u0, system.load, offsets,
                _fold(np.hstack(exps), system.proj))
