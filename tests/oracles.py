"""Independent reference computations shared by the tests.

Everything here is deliberately written against the underlying physics
or textbook formulas, not against the library's own code paths.
"""

from math import factorial, sqrt

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from perdyn.model import SystemModel, modal_analysis


def sdof_model(omega=2.0 * np.pi, zeta=0.0, mass=1.0, u0=1.0, v0=0.0,
               force=None):
    """Single-dof oscillator with natural frequency omega and ratio zeta."""
    k = mass * omega * omega
    c = 2.0 * mass * omega * zeta
    return SystemModel(np.array([[mass]]), np.array([[c]]), np.array([[k]]),
                       force=force, u0=np.array([u0]), v0=np.array([v0]))


def companion_matrix(model):
    """State-space matrix [[0, I], [-M^-1 K, -M^-1 C]] via a dense solve."""
    n = model.n_dof
    minv = np.linalg.inv(model.mass)
    return np.block([
        [np.zeros((n, n)), np.eye(n)],
        [-minv @ model.stiffness, -minv @ model.damping],
    ])


def expm_eig(w, t):
    """Matrix exponential through a dense eigendecomposition."""
    lam, vec = np.linalg.eig(w)
    return (vec @ np.diag(np.exp(lam * t)) @ np.linalg.inv(vec)).real


def rotation_propagator(omega, dt):
    """Exact undamped single-dof transfer matrix."""
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return np.array([[c, s / omega], [-omega * s, c]])


def damped_free_vibration(omega, zeta, u0, v0, t):
    """Exact underdamped free response (displacement, velocity)."""
    t = np.asarray(t, dtype=float)
    wd = omega * np.sqrt(1.0 - zeta * zeta)
    a = u0
    b = (v0 + zeta * omega * u0) / wd
    env = np.exp(-zeta * omega * t)
    u = env * (a * np.cos(wd * t) + b * np.sin(wd * t))
    du_osc = -a * wd * np.sin(wd * t) + b * wd * np.cos(wd * t)
    v = env * du_osc - zeta * omega * u
    return u, v


def lagrange_cubic_basis(xi):
    """Third-order Lagrange basis on nodes xi = 0, 1/3, 2/3, 1."""
    return np.array([
        0.5 * (1.0 - xi) * (2.0 - 3.0 * xi) * (1.0 - 3.0 * xi),
        4.5 * (1.0 - xi) * (2.0 - 3.0 * xi) * xi,
        -4.5 * (1.0 - xi) * (1.0 - 3.0 * xi) * xi,
        0.5 * (1.0 - 3.0 * xi) * (2.0 - 3.0 * xi) * xi,
    ])


def gauss_panel_integral(f, a, b, panels=64, order=12):
    """Composite Gauss-Legendre quadrature of a vector/matrix-valued f."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = None
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            val = w * half * np.asarray(f(mid + half * x))
            total = val if total is None else total + val
    return total


def generalized_modes(stiffness, mass):
    """Generalized eigensolve via the plain nonsymmetric route, sorted.

    Brute force on M^-1 K with explicit normalization; independent of
    scipy.linalg.eigh used by the library.
    """
    vals, vecs = np.linalg.eig(np.linalg.inv(mass) @ stiffness)
    vals = vals.real
    vecs = vecs.real
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        scale = vecs[:, j] @ mass @ vecs[:, j]
        vecs[:, j] /= np.sqrt(scale)
    return np.sqrt(np.clip(vals, 0.0, None)), vecs


def l2_norm(values):
    values = np.asarray(values, dtype=float)
    return float(np.sqrt((values * values).sum()))


def rk4_stage_loop(w, h, u0, dt, n_steps):
    """Classical RK4 on dU/dt = W U + h(t), stage by stage; all states."""
    def rate(t, y):
        return w @ y + h(t)

    states = np.zeros((n_steps + 1, len(u0)))
    states[0] = u0
    for k in range(n_steps):
        t = k * dt
        y = states[k]
        k1 = rate(t, y)
        k2 = rate(t + dt / 2.0, y + dt / 2.0 * k1)
        k3 = rate(t + dt / 2.0, y + dt / 2.0 * k2)
        k4 = rate(t + dt, y + dt * k3)
        states[k + 1] = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return states


def step_loop(phi, x0, dt, n_steps, sample, offsets, weights, ref_scale):
    """U_{k+1} = phi U_k + weights @ [s(t_k + o_1); ...] one step at a time.

    ``sample`` maps one time to one vector, t_k = k*dt, and the run stops
    at the first state whose norm is non-finite or exceeds 1e12 times the
    initial norm plus ref_scale times the accumulated sample norms.
    Returns (states computed, step at which it stopped or None).
    """
    states = np.zeros((n_steps + 1, len(x0)))
    states[0] = x0
    ref_norm = np.linalg.norm(states[0])
    for k in range(n_steps):
        nxt = phi @ states[k]
        if sample is not None:
            g_k = np.concatenate([sample(k * dt + off) for off in offsets])
            nxt = nxt + weights @ g_k
            ref_norm += ref_scale * np.linalg.norm(g_k)
        states[k + 1] = nxt
        norm = np.linalg.norm(nxt)
        if not np.isfinite(norm) or norm > 1e12 * max(ref_norm, 1e-30):
            return states[:k + 2], k + 1
    return states, None


def doubling_unflushed(delta, p):
    """exp(Wt) - I from exp(Wt/2^p) - I by p plain doublings
    delta <- 2 delta + delta @ delta, keeping every entry however small."""
    for _ in range(p):
        delta = 2.0 * delta + delta @ delta
    return delta


def doubling_dense_flushed(delta, p):
    """exp(Wt) - I from exp(Wt/2^p) - I by p dense doublings
    delta <- 2 delta + delta @ delta, each one product over the whole
    matrix, whatever its zeros.  From order 128 up, every entry below
    sqrt(tiny) times the largest magnitude is set to zero after each
    doubling."""
    flush = delta.shape[0] >= 128
    for _ in range(p):
        delta = 2.0 * delta + delta @ delta
        if flush:
            # no full-size abs() temporary: it adds to the peak memory of the setup
            tol = sqrt(np.finfo(float).tiny) * max(delta.max(), -delta.min())
            delta[(delta > -tol) & (delta < tol)] = 0.0
    return delta


def tau_limit_scalar_scan(m, scan_step=0.01, tau_max=100.0, tol=1e-8):
    """First upward crossing of rho(sigma_m(tau)) through 1/(2 sqrt(3)).

    One 2x2 eigensolve per grid point, the grid accumulated by
    tau += scan_step, then bisection of the bracketing interval.
    """
    threshold = 1.0 / (2.0 * np.sqrt(3.0))

    def excess(tau):
        sigma = np.zeros((2, 2))
        for j in range(m // 2 + 1):
            c = (-1.0) ** j * tau ** (2 * j) / factorial(2 * j + 4)
            sigma += c * np.array([
                [-12.0 * (j + 1), 2.0 * (2 * j + 1)],
                [-12.0 * (2 * j + 1) * (j + 2), 8.0 * j * (j + 2)],
            ])
        return float(np.abs(np.linalg.eigvals(sigma)).max()) - threshold

    prev_tau, prev_f = 0.0, 0.0
    tau = scan_step
    while tau <= tau_max:
        f = excess(tau)
        if f > 0.0 and prev_f <= 0.0:
            lo, hi = prev_tau, tau
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if excess(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev_tau, prev_f = tau, f
        tau += scan_step
    return float("inf")


def reference_fine_rk4(model, dt, t_max, refine=500):
    """RK4 reference stepped one fine step of dt/refine at a time through
    ``baselines.rk4`` (three force calls per step), sampled every refine
    steps; refine doubles up to 8000 until omega_max * dt/refine < 2.5.
    Returns (displacements, velocities, refine used)."""
    from perdyn.baselines import rk4, state_space
    w_max = modal_analysis(model).frequencies[-1]
    while w_max * dt / refine >= 2.5:
        refine *= 2
        if refine > 8000:
            raise ValueError("cannot reach RK4 stability")
    n_coarse = max(1, int(round(t_max / dt)))
    fine = rk4(state_space(model), np.concatenate([model.u0, model.v0]),
               dt / refine, n_coarse * refine * (dt / refine))
    if fine.diverged:
        raise ValueError("reference RK4 run diverged")
    return fine.displacements[::refine], fine.velocities[::refine], refine


def _initial_acceleration(model):
    return np.linalg.solve(model.mass, model.force_at(0.0)
                           - model.damping @ model.v0 - model.stiffness @ model.u0)


def newmark_loop(model, dt, n_steps, gamma=0.5, beta=0.25):
    """Newmark recursion stepped one step at a time, load at (k+1)*dt.
    Returns (displacements, velocities), one row per step."""
    a0 = 1.0 / (beta * dt * dt)
    a1 = gamma / (beta * dt)
    a2 = 1.0 / (beta * dt)
    a3 = 1.0 / (2.0 * beta) - 1.0
    a4 = gamma / beta - 1.0
    a5 = dt / 2.0 * (gamma / beta - 2.0)
    factor = cho_factor(model.stiffness + a0 * model.mass + a1 * model.damping)
    u = model.u0.copy()
    v = model.v0.copy()
    acc = _initial_acceleration(model)
    us, vs = [u.copy()], [v.copy()]
    for k in range(n_steps):
        f_next = model.force_at((k + 1) * dt)
        rhs = (f_next + model.mass @ (a0 * u + a2 * v + a3 * acc)
               + model.damping @ (a1 * u + a4 * v + a5 * acc))
        u_next = cho_solve(factor, rhs)
        acc_next = a0 * (u_next - u) - a2 * v - a3 * acc
        v_next = v + dt * ((1.0 - gamma) * acc + gamma * acc_next)
        u, v, acc = u_next, v_next, acc_next
        us.append(u.copy())
        vs.append(v.copy())
    return np.array(us), np.array(vs)


def wilson_loop(model, dt, n_steps, theta=1.4):
    """Wilson-theta recursion stepped one step at a time: linear
    acceleration over theta*dt, force extrapolated to t + theta*dt."""
    td = theta * dt
    factor = cho_factor(model.stiffness + 6.0 / td**2 * model.mass
                        + 3.0 / td * model.damping)
    u = model.u0.copy()
    v = model.v0.copy()
    acc = _initial_acceleration(model)
    us, vs = [u.copy()], [v.copy()]
    for k in range(n_steps):
        t = k * dt
        f_now = model.force_at(t)
        f_theta = f_now + theta * (model.force_at(t + dt) - f_now)
        rhs = (f_theta + model.mass @ (6.0 / td**2 * u + 6.0 / td * v + 2.0 * acc)
               + model.damping @ (3.0 / td * u + 2.0 * v + td / 2.0 * acc))
        u_theta = cho_solve(factor, rhs)
        acc_next = (6.0 / (theta**3 * dt * dt) * (u_theta - u)
                    - 6.0 / (theta**2 * dt) * v + (1.0 - 3.0 / theta) * acc)
        v_next = v + dt / 2.0 * (acc_next + acc)
        u_next = u + dt * v + dt * dt / 6.0 * (acc_next + 2.0 * acc)
        u, v, acc = u_next, v_next, acc_next
        us.append(u.copy())
        vs.append(v.copy())
    return np.array(us), np.array(vs)


def bathe_loop(model, dt, n_steps, gamma=0.5):
    """Composite scheme stepped one step at a time: trapezoidal rule to
    t + gamma*dt, then 3-point backward differences to t + dt."""
    dt1 = gamma * dt
    b0 = 4.0 / (dt1 * dt1)
    b1 = 2.0 / dt1
    factor1 = cho_factor(model.stiffness + b0 * model.mass + b1 * model.damping)
    c1 = (1.0 - gamma) / (gamma * dt)
    c2 = -1.0 / ((1.0 - gamma) * gamma * dt)
    c3 = (2.0 - gamma) / ((1.0 - gamma) * dt)
    factor2 = cho_factor(model.stiffness + c3 * c3 * model.mass + c3 * model.damping)
    u = model.u0.copy()
    v = model.v0.copy()
    acc = _initial_acceleration(model)
    us, vs = [u.copy()], [v.copy()]
    for k in range(n_steps):
        t = k * dt
        f_mid = model.force_at(t + dt1)
        rhs = (f_mid + model.mass @ (b0 * u + 4.0 / dt1 * v + acc)
               + model.damping @ (b1 * u + v))
        u_mid = cho_solve(factor1, rhs)
        v_mid = b1 * (u_mid - u) - v
        f_next = model.force_at(t + dt)
        rhs = (f_next - model.mass @ (c1 * v + c2 * v_mid + c3 * (c1 * u + c2 * u_mid))
               - model.damping @ (c1 * u + c2 * u_mid))
        u_next = cho_solve(factor2, rhs)
        v_next = c1 * u + c2 * u_mid + c3 * u_next
        acc = c1 * v + c2 * v_mid + c3 * v_next
        u, v = u_next, v_next
        us.append(u.copy())
        vs.append(v.copy())
    return np.array(us), np.array(vs)
