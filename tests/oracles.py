"""Independent reference computations shared by the tests.

Everything here is deliberately written against the underlying physics
or textbook formulas, not against the library's own code paths.
"""

from math import factorial, sqrt

import numpy as np
from scipy.linalg import cho_factor, cho_solve, expm

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


def exosystem_solution(model, dofs, c_mat, s_mat, z0, times):
    """Exact (u, v) at ``times`` of ``model`` from its initial state under the
    load f(t) = E_S C z(t), z' = S z, z(0) = z0, E_S the identity's columns
    at ``dofs``: steps (S = 0), cubics (a nilpotent S), harmonics and their
    sums.  Each state is one expm of the generator
    [[W, [0; M^-1 E_S C]], [0, S]] at its own time, never a power of one
    step's, applied to [u0; v0; z0]."""
    n, q = model.n_dof, len(z0)
    gen = np.zeros((2 * n + q, 2 * n + q))
    gen[:2 * n, :2 * n] = companion_matrix(model)
    gen[n:2 * n, 2 * n:] = np.linalg.solve(model.mass, np.eye(n)[:, dofs] @ c_mat)
    gen[2 * n:, 2 * n:] = s_mat
    x0 = np.concatenate([model.u0, model.v0, z0])
    states = np.array([expm(gen * t) @ x0 for t in np.asarray(times, dtype=float)])
    return states[:, :n], states[:, n:2 * n]


def forcing_operator_exact(model, dofs, dt):
    """Exact weights [Phi_0, ..., Phi_3] (2N x 4|S|) of PER's cubic
    interpolant of f_S on the nodes (0, dt/3, 2dt/3, dt):
    Phi_i = int_0^dt e^{W(dt-s)} [0; M^-1 E_S] l_i(s/dt) ds, l_i the
    Lagrange cubics.  One expm of Van Loan's block matrix (IEEE Trans. Autom.
    Control 23(3), 1978), [[W, B, 0, 0, 0], [0, 0, I, 0, 0], ..., [0, ..., 0]],
    gives F_j = int_0^dt e^{W(dt-s)} B s^j/j! ds in its first block row; Phi_i
    is the sum of F_j times the j-th derivative of l_i at 0."""
    n, m = model.n_dof, len(dofs)
    size = 2 * n + 4 * m
    block = np.zeros((size, size))
    block[:2 * n, :2 * n] = companion_matrix(model)
    block[n:2 * n, 2 * n:2 * n + m] = np.linalg.solve(model.mass, np.eye(n)[:, dofs])
    for j in range(3):
        rows = slice(2 * n + j * m, 2 * n + (j + 1) * m)
        block[rows, 2 * n + (j + 1) * m:2 * n + (j + 2) * m] = np.eye(m)
    f = expm(block * dt)[:2 * n, 2 * n:].reshape(2 * n, 4, m)
    # l_i(s/dt) = sum_j power[j, i] (s/dt)^j = sum_j power[j, i] j!/dt^j s^j/j!
    power = np.linalg.inv(np.vander(np.arange(4) / 3.0, 4, increasing=True))
    scale = np.array([factorial(j) / dt ** j for j in range(4)])
    return np.einsum("rjm,ji->rim", f, power * scale[:, None]).reshape(2 * n, 4 * m)


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


def half_step_times(i, dt):
    """The times t_k + j dt/2 of the half-step node numbers i = 2k + j."""
    k, j = np.divmod(i, 2)
    return k * dt + j * (dt / 2.0)


def rk4_longdouble_loop(w, sample, u0, dt, n_steps, every, window=1000):
    """Classical RK4 on dU/dt = W U + h(t) in long double (np.longdouble),
    stage by stage, one step of size dt at a time.  ``sample(i)`` returns h
    at the half-step nodes t_k + j dt/2 of node numbers i = 2k + j, an
    integer array, one row per node, in double or long double; it is called
    for ``window`` steps at a time, so that a long run never holds all its
    samples.  Returns every ``every``-th state, rounded to double."""
    ld = np.longdouble
    w = np.asarray(w, dtype=ld)
    step = ld(dt)
    half, sixth = step / 2, step / 6
    y = np.asarray(u0, dtype=ld)
    states = [y.astype(float)]
    for lo in range(0, n_steps, window):
        hi = min(lo + window, n_steps)
        g = np.asarray(sample(np.arange(2 * lo, 2 * hi + 1)), dtype=ld)
        for k in range(lo, hi):
            i = 2 * (k - lo)
            k1 = w @ y + g[i]
            k2 = w @ (y + half * k1) + g[i + 1]
            k3 = w @ (y + half * k2) + g[i + 1]
            k4 = w @ (y + step * k3) + g[i + 2]
            y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            if (k + 1) % every == 0:
                states.append(y.astype(float))
    return np.array(states)


def mass_solve_exact(mass, dofs):
    """M^-1 E_S in long double, N x len(dofs): the columns ``dofs`` of the
    identity solved in 50-digit mpmath against the double M, taken exactly."""
    import mpmath
    with mpmath.workdps(50):
        m = mpmath.matrix(np.asarray(mass).tolist())
        cols = [mpmath.lu_solve(m, mpmath.matrix([float(i == d) for i in range(len(mass))]))
                for d in dofs]
        return np.array([[np.longdouble(mpmath.nstr(x[i], 40)) for x in cols]
                         for i in range(len(mass))])


def increment_at_reduced_step_i_rounded(a_mat, minv_c, dt0, m_a, r_a):
    """The PER doubling seed da(dt0) with the Neumann factor taken as
    (I + B + ... + B^r_a) - I, the sum rounded through I first; B = beta_a.
    The series come from the library, the Neumann sum is evaluated here."""
    from perdyn import per
    delta_t = per.undamped_step_increment(a_mat, dt0, m_a)
    alpha_a, beta_a = per._series(a_mat, minv_c, dt0, m_a, per.coeff_alpha,
                                  per.coeff_beta)
    eye = np.eye(len(beta_a))
    sq = beta_a @ beta_a
    total = eye + beta_a + sq
    for _ in range(r_a // 2 - 1):
        total = eye + beta_a + sq @ total
    delta_beta = total - eye
    return (delta_t + alpha_a + delta_beta
            + delta_beta @ delta_t + delta_beta @ alpha_a)


def dense_series(a_mat, start, dt, m, *coeffs):
    """[sum_{j=0}^{m/2} c(j, dt) (x) A^j F for c in coeffs] over every column:
    F = ``start`` (the identity when None, whose first power is then A @ I)
    is n x n, and so is each block."""
    n = a_mat.shape[0]
    outs = [np.zeros((rows * n, cols * n)) for rows, cols in (c(0, dt).shape for c in coeffs)]
    power = np.eye(n) if start is None else start
    for j in range(m // 2 + 1):
        if j:
            power = a_mat @ power
        for out, coeff in zip(outs, coeffs):
            for (r, c), cj in np.ndenumerate(coeff(j, dt)):
                if cj != 0.0:
                    out[r * n:(r + 1) * n, c * n:(c + 1) * n] += cj * power
    return outs


def system_operators_every_column(model):
    """(M^-1 K, M^-1 C), each by one Cholesky solve over all its columns, the
    zero columns of C among them."""
    factor = cho_factor(model.mass)
    return cho_solve(factor, model.stiffness), cho_solve(factor, model.damping)


def undamped_step_increment_eye_first(a_mat, dt, m):
    """The increment dT of the truncated undamped transfer matrix, its powers
    of B = dt^2 A walked from the identity: the first is I @ B.  Its blocks
    are the truncated cosine and sine series, and -A H."""
    n = a_mat.shape[0]
    b_mat = (dt * dt) * a_mat
    delta_g = np.zeros((n, n))
    h_mat = np.eye(n)
    b_pow = np.eye(n)
    for j in range(1, m // 2 + 1):
        b_pow = b_pow @ b_mat
        delta_g += (-1.0) ** j / factorial(2 * j) * b_pow
        h_mat += (-1.0) ** j / factorial(2 * j + 1) * b_pow
    h_mat *= dt
    return np.block([[delta_g, h_mat], [-a_mat @ h_mat, delta_g]])


def dense_neumann_increment(mat, order):
    """B + B^2 + ... + B^order, nested as B + B^2 + B^2 (B + B^2 + ...), every
    product over the whole matrix."""
    sq = mat @ mat
    total = first = mat + sq
    for _ in range(order // 2 - 1):
        total = first + sq @ total
    return total


def dense_scheme(model, config):
    """(beta_b, a, neumann_b, rho_beta_a, rho_beta_b) of the PER scheme with
    every damping operator dense, 2N x 2N: the series summed from all of
    M^-1 C, the Neumann increments over every column, and the seed's
    product dbeta @ (dT + Delta) over every row.  The doubling is the
    library's; each radius is that of the dense series' block [S, S], S the
    u and v columns of the damped dofs, outside which the series is zero."""
    from perdyn import per
    from perdyn.linalg import double_increment, spectral_radius
    _, a_mat, minv_c = per.system_operators(model)
    damped = np.flatnonzero(minv_c.any(axis=0))
    support = np.concatenate([damped, len(minv_c) + damped])
    block = np.ix_(support, support)
    beta_a, delta = dense_series(a_mat, minv_c, config.dt0, config.m_a, per.coeff_beta,
                                 lambda j, dt: per.coeff_alpha(j, dt) + per.coeff_beta(j, dt))
    delta += per.undamped_step_increment(a_mat, config.dt0, config.m_a)
    delta += dense_neumann_increment(beta_a, config.r_a) @ delta
    cols = np.flatnonzero((beta_a != 0.0).any(axis=0))
    delta[:, cols] -= beta_a[:, cols] @ np.linalg.matrix_power(beta_a[np.ix_(cols, cols)],
                                                               config.r_a)
    beta_b, = dense_series(a_mat, minv_c, config.dt, config.m_b, per.coeff_beta)
    eye = np.eye(len(beta_b))
    return (beta_b, eye + double_increment(delta, config.p),
            eye + dense_neumann_increment(beta_b, config.r_b),
            spectral_radius(beta_a[block]), spectral_radius(beta_b[block]))


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


def profile_step_loop(phi, x0, dt, n_steps, sample, offsets, weights, ref_scale):
    """``step_loop`` over the nonzero profile of phi, of even order n: phi,
    the state and the rows of weights taken in the order (x_0, x_h, x_1,
    x_{h+1}, ...) with h = n/2, and each step the forcing row plus, for
    each block of 128 rows with a nonzero entry, that block times the state
    between its first and last nonzero column.  The guard is step_loop's,
    on the initial norm in the given order.  Returns (states in the given
    order, step at which it stopped or None)."""
    n = len(x0)
    assert n % 2 == 0
    perm = np.stack([np.arange(n // 2), n // 2 + np.arange(n // 2)], axis=1).ravel()
    p = phi[np.ix_(perm, perm)]
    blocks = []
    for r0 in range(0, n, 128):
        rows = slice(r0, min(r0 + 128, n))
        nonzero = np.flatnonzero((p[rows] != 0.0).any(axis=0))
        if len(nonzero):
            cols = slice(nonzero[0], nonzero[-1] + 1)
            blocks.append((rows, cols, np.ascontiguousarray(p[rows, cols])))
    states = np.zeros((n_steps + 1, n))
    states[0] = np.asarray(x0)[perm]
    ref_norm = np.linalg.norm(x0)
    stop = None
    for k in range(n_steps):
        nxt = np.zeros(n)
        if sample is not None:
            g_k = np.concatenate([sample(k * dt + off) for off in offsets])
            nxt = weights[perm] @ g_k
            ref_norm += ref_scale * np.linalg.norm(g_k)
        for rows, cols, block in blocks:
            nxt[rows] += block @ states[k, cols]
        states[k + 1] = nxt
        norm = np.linalg.norm(nxt)
        if not np.isfinite(norm) or norm > 1e12 * max(ref_norm, 1e-30):
            states, stop = states[:k + 2], k + 1
            break
    return states[:, np.argsort(perm)], stop


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


def profile_doubling_fresh_buffer(delta, p, height=128):
    """The profile doubling of ``linalg._profile_doubling`` as it was first
    written: a fresh zero array at every doubling, each block of ``height``
    rows R written over its window of columns J as 2 delta[R, J] + delta[R,
    K] delta[K, J], then flushed below sqrt(tiny) times the peak of all
    windows.  At the default height it is the doubling's arithmetic before
    its blocks were cut to linalg._DOUBLING_ROWS rows."""
    from perdyn.linalg import _spans
    n = delta.shape[0]
    perm = np.argsort(np.arange(n) % ((n + 1) // 2), kind="stable")
    delta = delta[np.ix_(perm, perm)]
    first, stop = _spans(delta == 0.0, 0, n)
    blocks = [slice(r0, min(r0 + height, n)) for r0 in range(0, n, height)]
    for _ in range(p):
        new = np.zeros_like(delta)
        windows, peak = [], 0.0
        for rows in blocks:
            k0, k1 = first[rows].min(), stop[rows].max()
            if k0 >= k1:
                continue
            cols = slice(min(k0, first[k0:k1].min()), max(k1, stop[k0:k1].max()))
            window = new[rows, cols]
            np.matmul(delta[rows, k0:k1], delta[k0:k1, cols], out=window)
            window += 2.0 * delta[rows, cols]
            peak = max(peak, np.fmax.reduce(window, axis=None),
                       -np.fmin.reduce(window, axis=None))
            windows.append((rows, cols))
        tol = sqrt(np.finfo(float).tiny) * peak
        for rows, cols in windows:
            window = new[rows, cols]
            small = np.abs(window) < tol
            window[small] = 0.0
            first[rows], stop[rows] = _spans(small, cols.start, n)
        delta = new
    back = np.argsort(perm)
    return delta[np.ix_(back, back)]


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


def mass_solved_sampler(model, solve_mass):
    """times -> M^-1 f(t), one row per time of an array of times, by one
    multi-RHS solve with M^-1 = ``solve_mass``: the samples of the unfolded
    forms, whose weights act on M^-1 f."""
    return lambda times: solve_mass(np.array([model.force_at(t) for t in times.tolist()]).T).T


def reference_mass_solve_fold(model, dt, t_max, refine):
    """The folded RK4 reference as it took a load without a support: W over
    all N velocity columns, fed M^-1 f at every dof by one mass solve per
    block of samples.  ``refine`` is taken as given.  Returns
    (displacements, velocities) on the coarse grid."""
    from perdyn import baselines, bench, per
    w, solve_mass = baselines._companion(model), model.solve_mass
    n2, n, h = len(w), model.n_dof, dt / refine
    s = bench._fold_size(refine, n)
    d_one, p0, pm = baselines.rk4_operators(w, h)
    eye = np.eye(n2)
    inc = np.zeros((1, n2, n2))  # inc[j] = R^j - I
    d_len = d_one
    while len(inc) < s:
        inc = np.concatenate([inc, inc + d_len + inc @ d_len])
        d_len = 2.0 * d_len + d_len @ d_len
    q = inc[s - 1::-1]
    head = h / 6.0 * np.hstack([(p0 + eye + d_one)[:, n:], pm[:, n:]])
    blocks = head + q @ head
    first = h / 6.0 * p0[:, n:]
    blocks[0, :, :n] = first + q[0] @ first
    weights = np.hstack([blocks.transpose(1, 0, 2).reshape(n2, -1), h / 6.0 * eye[:, n:]])
    force = mass_solved_sampler(model, solve_mass)
    states, stop = per.recurrence(
        eye + (q[0] + d_one + q[0] @ d_one), np.concatenate([model.u0, model.v0]), s * h,
        per._steps(t_max, dt) * (refine // s), lambda t: force(bench._on_fine_grid(t, h)),
        np.arange(2 * s + 1) * (h / 2.0), weights, s * h)
    assert stop is None
    coarse = states[::refine // s]
    return coarse[:, :n], coarse[:, n:]


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
