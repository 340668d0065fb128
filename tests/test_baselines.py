"""Tests for the reference integrators."""

import math

import numpy as np
import pytest

from oracles import (bathe_loop, companion_matrix, damped_free_vibration,
                     expm_eig, l2_norm, newmark_loop, rk4_stage_loop,
                     sdof_model, wilson_loop)

import perdyn.baselines as baselines
from perdyn.baselines import (GAUSS_NODES, IntegratorParams, bathe, expm_2p, mpim,
                              mpim_operators, newmark, rk4, rk4_operators,
                              state_space, wilson)
from perdyn.bench import run_method
from perdyn.linalg import double_increment
from perdyn.model import (SystemModel, benchmark_beam, benchmark_chain, build_chain,
                          constant_step_force, gaussian_multiharmonic_force)
from perdyn.per import PerConfig, integrate

OMEGA = 2.0 * np.pi
T = 1.0


def zero_ic_model(force=None):
    return sdof_model(omega=OMEGA, zeta=0.1, u0=0.0, v0=0.0, force=force)


def convergence_slope(method, zeta=0.05, t_max=2.0, **kwargs):
    model = sdof_model(omega=OMEGA, zeta=zeta)
    dts = [T / n for n in (10, 20, 40, 80, 160, 320)]
    errs = []
    for dt in dts:
        traj = method(model, dt, t_max, **kwargs)
        u_ref, _ = damped_free_vibration(OMEGA, zeta, 1.0, 0.0, traj.times)
        errs.append(l2_norm(traj.displacements[:, 0] - u_ref) / l2_norm(u_ref))
    return np.polyfit(np.log10(dts), np.log10(errs), 1)[0]


def one_step_amplification(stepper, model_factory, dt):
    """Map (u, v) -> (u, v) over one step with the start acceleration
    taken from the equation of motion (the consistent manifold)."""
    n = model_factory(np.zeros(1), np.zeros(1)).n_dof
    cols = []
    for i in range(2 * n):
        u0 = np.zeros(n)
        v0 = np.zeros(n)
        if i < n:
            u0[i] = 1.0
        else:
            v0[i - n] = 1.0
        traj = stepper(model_factory(u0, v0), dt, dt)
        cols.append(np.concatenate([traj.displacements[-1], traj.velocities[-1]]))
    return np.array(cols).T


class TestNewmark:
    def test_energy_conserved_undamped(self):
        model = sdof_model(omega=OMEGA, zeta=0.0)
        dt = T / 40.0
        traj = newmark(model, dt, 1000 * dt)
        k = OMEGA * OMEGA
        energy = 0.5 * k * traj.displacements[:, 0]**2 + 0.5 * traj.velocities[:, 0]**2
        assert np.abs(energy - energy[0]).max() <= 1e-10 * energy[0]

    def test_zero_everything_stays_zero(self):
        traj = newmark(zero_ic_model(), 0.01, 0.2)
        assert np.all(traj.displacements == 0.0)
        assert np.all(traj.velocities == 0.0)

    def test_second_order_convergence(self):
        assert convergence_slope(newmark) == pytest.approx(2.0, abs=0.3)

    def test_bounded_at_ten_periods(self):
        model = sdof_model(omega=OMEGA, zeta=0.05)
        traj = newmark(model, 10.0 * T, 500.0 * T)
        assert np.isfinite(traj.displacements).all()
        assert np.abs(traj.displacements).max() <= 10.0


class TestWilson:
    def test_zero_everything_stays_zero(self):
        traj = wilson(zero_ic_model(), 0.01, 0.2)
        assert np.all(traj.displacements == 0.0)

    def test_second_order_convergence(self):
        assert convergence_slope(wilson) == pytest.approx(2.0, abs=0.4)

    def test_unconditional_stability_smoke(self):
        # the scheme carries (u, v, a) between steps, so the stability
        # oracle is the spectral radius of the full three-state map
        zeta, dt, theta = 0.05, 5.0 * T, 1.4
        m_c, k = 2.0 * OMEGA * zeta, OMEGA * OMEGA
        td = theta * dt
        keff = k + 6.0 / td**2 + 3.0 / td * m_c
        amp = np.zeros((3, 3))
        for i in range(3):
            u, v, a = (float(i == 0), float(i == 1), float(i == 2))
            u_th = (6.0 / td**2 * u + 6.0 / td * v + 2.0 * a
                    + m_c * (3.0 / td * u + 2.0 * v + td / 2.0 * a)) / keff
            a1 = (6.0 / (theta**3 * dt * dt) * (u_th - u)
                  - 6.0 / (theta**2 * dt) * v + (1.0 - 3.0 / theta) * a)
            v1 = v + dt / 2.0 * (a1 + a)
            u1 = u + dt * v + dt * dt / 6.0 * (a1 + 2.0 * a)
            amp[:, i] = (u1, v1, a1)
        assert np.abs(np.linalg.eigvals(amp)).max() <= 1.0 + 1e-9
        # and the library run stays bounded, decaying after the transient
        traj = wilson(sdof_model(omega=OMEGA, zeta=zeta), dt, 300 * dt)
        assert np.isfinite(traj.displacements).all()
        assert abs(traj.displacements[-1, 0]) < 1.0

    def test_theta_below_one_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            wilson(sdof_model(), 0.01, 0.1, theta=0.8)


class TestBathe:
    def test_zero_everything_stays_zero(self):
        traj = bathe(zero_ic_model(), 0.01, 0.2)
        assert np.all(traj.displacements == 0.0)

    def test_second_order_convergence(self):
        assert convergence_slope(bathe) == pytest.approx(2.0, abs=0.4)

    def test_unconditional_stability_undamped(self):
        def factory(u0, v0):
            return sdof_model(omega=OMEGA, zeta=0.0, u0=u0[0], v0=v0[0])
        amp = one_step_amplification(
            lambda m, dt, tm: bathe(m, dt, tm), factory, 10.0 * T)
        assert np.abs(np.linalg.eigvals(amp)).max() <= 1.0 + 1e-9

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            bathe(sdof_model(), 0.01, 0.1, gamma=1.5)


class TestRk4:
    def test_fourth_order_convergence(self):
        zeta = 0.05
        model = sdof_model(omega=OMEGA, zeta=zeta)
        system = state_space(model)
        u0 = np.array([1.0, 0.0])
        dts = [T / n for n in (10, 20, 40, 80)]
        errs = []
        for dt in dts:
            traj = rk4(system, u0, dt, 2.0)
            u_ref, _ = damped_free_vibration(OMEGA, zeta, 1.0, 0.0, traj.times)
            errs.append(l2_norm(traj.displacements[:, 0] - u_ref) / l2_norm(u_ref))
        slope = np.polyfit(np.log10(dts), np.log10(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_divergence_beyond_stability_interval(self):
        # omega*dt = 3 exceeds the imaginary-axis stability bound 2*sqrt(2)
        model = sdof_model(omega=OMEGA, zeta=0.0)
        system = state_space(model)
        dt = 3.0 / OMEGA
        traj = rk4(system, np.array([1.0, 0.0]), dt, 200 * dt)
        assert traj.diverged
        assert traj.n_steps < 200

    def test_zero_trajectory(self):
        system = state_space(zero_ic_model())
        traj = rk4(system, np.zeros(2), 0.01, 0.1)
        assert np.all(traj.displacements == 0.0)

    def test_step_map_matches_stage_loop(self):
        # the collapsed step map R, P0, Pm reorders the stage arithmetic;
        # it must stay at the rounding level of the stage loop
        model = SystemModel(
            np.array([[2.0, 0.3], [0.3, 1.0]]),
            np.array([[0.4, -0.1], [-0.1, 0.2]]),
            np.array([[50.0, -20.0], [-20.0, 30.0]]),
            force=lambda t: np.array([np.sin(3.0 * t), 0.5 * np.cos(7.0 * t) + 1.0]),
            u0=np.array([0.01, -0.02]), v0=np.array([0.1, 0.0]))
        system = state_space(model)
        u0 = np.concatenate([model.u0, model.v0])
        dt = 0.01
        traj = rk4(system, u0, dt, 2000 * dt)
        assert traj.n_steps == 2000
        got = np.hstack([traj.displacements, traj.velocities])
        want = rk4_stage_loop(system.w, system.h, u0, dt, 2000)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_overflowing_forcing_flags_divergence():
    # a finite load whose response overflows (M^-1 f for rk4 and mpim, the
    # effective-stiffness solve for the implicit maps) ends every method as
    # a diverged run, not as an exception
    model = sdof_model(mass=1e-300,
                       force=lambda t: np.array([1e100 if t > 0.25 else 0.0]))
    system = state_space(model)
    u0 = np.array([1.0, 0.0])
    with np.errstate(invalid="ignore", over="ignore"):  # the overflow, inf * 0
        runs = (rk4(system, u0, 0.1, 1.0), mpim(system, u0, 0.1, 1.0),
                newmark(model, 0.1, 1.0), wilson(model, 0.1, 1.0),
                bathe(model, 0.1, 1.0))
    for traj in runs:
        assert traj.diverged
        assert traj.n_steps == traj.info["diverged_at_step"] < 10


def test_unstable_newmark_pair_stopped_by_the_guard():
    # beta = 1/12 is stable only up to omega dt = sqrt(6); at omega dt = 10
    # the map grows 8.6x a step and the guard stops the forced run once the
    # state passes 1e12 times its reference, long before 200 steps
    model = sdof_model(omega=1.0, force=lambda t: np.array([1.0]))
    traj = newmark(model, 10.0, 2000.0, gamma=0.5, beta=1.0 / 12.0)
    assert traj.diverged
    assert traj.n_steps == traj.info["diverged_at_step"] < 50
    assert np.isfinite(traj.displacements).all()


def test_nan_forcing_flags_divergence():
    # neither the mass solve nor the implicit maps reject a NaN load: every
    # method ends as a diverged run at the step that samples it
    model = sdof_model(force=lambda t: np.array([np.nan if t > 0.25 else 1.0]))
    system = state_space(model)
    runs = (rk4(system, np.array([1.0, 0.0]), 0.1, 1.0),
            mpim(system, np.array([1.0, 0.0]), 0.1, 1.0),
            newmark(model, 0.1, 1.0), wilson(model, 0.1, 1.0),
            bathe(model, 0.1, 1.0))
    for traj in runs:
        assert traj.diverged
        assert traj.n_steps == traj.info["diverged_at_step"] == 3
        assert np.isfinite(traj.displacements[:-1]).all()


class TestMpim:
    def test_exponential_matches_oracle(self):
        model = sdof_model(omega=OMEGA, zeta=0.05)
        w = companion_matrix(model)
        for dt in (T / 10.0, T / 2.0, T):
            got = expm_2p(w, dt)
            assert np.abs(got - expm_eig(w, dt)).max() <= 1e-10

    def test_zero_trajectory(self):
        system = state_space(zero_ic_model())
        traj = mpim(system, np.zeros(2), 0.01, 0.1)
        assert np.all(traj.displacements == 0.0)

    def test_constant_force_single_step(self):
        # one step against the closed-form particular + homogeneous split
        zeta, f0 = 0.1, 2.5
        model = sdof_model(omega=OMEGA, zeta=zeta,
                           force=lambda t: np.array([f0]))
        system = state_space(model)
        w = companion_matrix(model)
        dt = T / 20.0
        u0 = np.array([1.0, 0.0])
        traj = mpim(system, u0, dt, dt, g=4)
        e_wt = expm_eig(w, dt)
        h_vec = np.array([0.0, f0])
        exact = e_wt @ u0 + np.linalg.solve(w, (e_wt - np.eye(2)) @ h_vec)
        got = np.array([traj.displacements[-1, 0], traj.velocities[-1, 0]])
        assert np.abs(got - exact).max() <= 1e-9

    def test_time_varying_force_single_step(self):
        # pins the quadrature pairing: the exponential weight acts over
        # the remainder of the step while the force is sampled at the
        # forward abscissa; pairing both at the same abscissa would be
        # off by ~1e-4 here
        zeta = 0.1
        model = sdof_model(omega=OMEGA, zeta=zeta,
                           force=lambda t: np.array([np.sin(3.0 * t) + 0.5]))
        system = state_space(model)
        w = companion_matrix(model)
        dt = T / 20.0
        u0 = np.array([0.3, -0.2])
        traj = mpim(system, u0, dt, dt, g=5)

        def integrand(tau):
            h = np.array([0.0, np.sin(3.0 * tau) + 0.5])
            return expm_eig(w, dt - tau) @ h

        from oracles import gauss_panel_integral
        exact = expm_eig(w, dt) @ u0 + gauss_panel_integral(integrand, 0.0, dt)
        got = np.array([traj.displacements[-1, 0], traj.velocities[-1, 0]])
        assert np.abs(got - exact).max() <= 1e-10

    def test_gauss_weights_sum_to_two(self):
        for g, (nodes, weights) in GAUSS_NODES.items():
            assert sum(weights) == pytest.approx(2.0, abs=1e-14)
            assert sum(nodes) == pytest.approx(0.0, abs=1e-14)

    def test_quadrature_integrates_polynomials_exactly(self):
        # degree 2g-1 exactness of the tabulated nodes/weights
        for g, (nodes, weights) in GAUSS_NODES.items():
            for deg in range(2 * g):
                got = sum(w * x**deg for x, w in zip(nodes, weights))
                exact = (1.0 - (-1.0)**(deg + 1)) / (deg + 1)
                assert got == pytest.approx(exact, abs=1e-13)

    def test_invalid_gauss_order(self):
        system = state_space(sdof_model())
        with pytest.raises(ValueError, match="g must be"):
            mpim(system, np.zeros(2), 0.01, 0.1, g=9)

    @pytest.mark.parametrize("p", [0, -1, 1024, 2000])
    def test_invalid_halving_count_rejected(self, p):
        # below p = 1 the doubling returned a wrong exp(W dt), and the run
        # was marked converged (e_disp 0.48 at p = -1); from p = 1024 up,
        # 2^p overflowed.  Each raises the error that PerConfig raises.
        model = benchmark_chain(0.1).with_initial_state(np.full(12, 0.01), None)
        system = state_space(model)
        x0 = np.concatenate([model.u0, model.v0])
        params = IntegratorParams(mpim_p=p)
        for call in (lambda: expm_2p(system.w, 0.024, p),
                     lambda: mpim(system, x0, 0.024, 0.48, p=p),
                     lambda: run_method(model, "mpim", 0.024, 0.48, params=params)):
            with pytest.raises(ValueError, match=r"^p must be >= 1$|^'p' = "):
                call()

    def test_halving_by_ldexp_keeps_the_bits(self):
        w = state_space(benchmark_chain(0.1)).w
        old = np.eye(len(w)) + double_increment(rk4_operators(w, 0.024 / 2.0 ** 20)[0], 20)
        assert np.array_equal(expm_2p(w, 0.024, 20), old)


@pytest.mark.parametrize("method", [rk4, mpim])
@pytest.mark.parametrize("u0", [1.0, np.ones(3)], ids=["scalar", "wrong-length"])
def test_initial_state_length_checked(method, u0):
    # a 2-dof system has a 4-entry state: no broadcast of a scalar, and
    # one message for a wrong length
    system = state_space(build_chain(2, 1.0, 100.0))
    with pytest.raises(ValueError, match="initial state must have length 4"):
        method(system, u0, 0.01, 0.05)


class TestMutualConsistency:
    def test_all_methods_agree_on_damped_sdof(self):
        zeta = 0.05
        model = sdof_model(omega=OMEGA, zeta=zeta)
        dt = T / 200.0
        t_max = T / 10.0
        system = state_space(model)
        u0 = np.array([1.0, 0.0])
        runs = {
            "per": integrate(model, PerConfig(dt=dt, m_b=8, r_b=4), t_max),
            "newmark": newmark(model, dt, t_max),
            "wilson": wilson(model, dt, t_max),
            "bathe": bathe(model, dt, t_max),
            "rk4": rk4(system, u0, dt, t_max),
            "mpim": mpim(system, u0, dt, t_max),
        }
        names = list(runs)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                ua = runs[a].displacements[:, 0]
                ub = runs[b].displacements[:, 0]
                err = l2_norm(ua - ub) / l2_norm(ub)
                assert err <= 1e-4, (a, b, err)


class TestStateSpace:
    def test_block_structure(self):
        model = sdof_model(omega=3.0, zeta=0.2, mass=2.0)
        system = state_space(model)
        np.testing.assert_allclose(system.w, companion_matrix(model), rtol=1e-14)

    def test_forced_nonhomogeneous_term(self):
        model = sdof_model(mass=2.0, force=lambda t: np.array([4.0 * t]))
        system = state_space(model)
        np.testing.assert_allclose(system.h(1.5), [0.0, 3.0], atol=1e-15)

    def test_array_of_times_gives_one_row_per_time(self):
        rows = np.eye(3)
        model = benchmark_chain(0.1, n_dof=3).with_force(
            lambda t: rows[0] * np.sin(t) + rows[2] * t * t)
        system = state_space(model)
        times = np.array([0.0, 0.3, 1.7, 2.25])
        batch = system.h(times)
        assert batch.shape == (4, 6)
        for t, row in zip(times.tolist(), batch):
            assert system.h(t).shape == (6,)
            assert np.array_equal(system.h(t), row)


# ---------------------------------------------------------------------------
# The implicit methods as step maps

#: The README chain: 12 dofs, two dampers, the Gaussian multiharmonic load.
README_CHAIN = build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]).with_force(
    gaussian_multiharmonic_force(12, 2, t0=10.0, s=2.5,
                                 components=[(1.0, 3.0), (0.5, 7.1)]))

#: A damped 4-dof chain whose step load switches on at a grid node: t_c is
#: 8 steps of a dt exact in binary, so every time the methods sample is
#: exact and the load switches on the same step in the map and the loop.
STEP_CHAIN = build_chain(4, 1.0, 100.0, [(0, None, 1.5), (1, 2, 0.8)]).with_force(
    constant_step_force(4, 3, t_c=8 * 0.0625, f0=2.0)).with_initial_state(
    np.array([0.01, 0.0, -0.02, 0.0]), np.array([0.0, 0.1, 0.0, 0.0]))

#: The 48-dof benchmark beam from the nonzero initial state of
#: tools/cli_identity.py; its tip step load switches on at t = 0.01.
BEAM = benchmark_beam().with_initial_state(
    np.array([1e-3 * math.sin(i + 1.0) for i in range(48)]),
    np.array([3e-2 * math.cos(i + 1.0) for i in range(48)]))


@pytest.mark.parametrize("method, oracle", [(newmark, newmark_loop),
                                            (wilson, wilson_loop),
                                            (bathe, bathe_loop)],
                         ids=["newmark", "wilson", "bathe"])
@pytest.mark.parametrize("model, dt, t_max", [(README_CHAIN, 0.024, 4.0),
                                              (STEP_CHAIN, 0.0625, 5.0),
                                              (BEAM, 2e-5, 0.02)],
                         ids=["readme_chain", "step_chain", "beam"])
def test_step_map_matches_step_loop(method, oracle, model, dt, t_max):
    traj = method(model, dt, t_max)
    u_ref, v_ref = oracle(model, dt, traj.n_steps)
    assert not traj.diverged and traj.n_steps == round(t_max / dt)
    for got, want in ((traj.displacements, u_ref), (traj.velocities, v_ref)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def unit_oscillator(zeta):
    return sdof_model(omega=1.0, zeta=zeta, u0=0.0)


OMEGA_DT = np.logspace(-2, 3, 51)


def test_average_acceleration_newmark_conserves_amplitude():
    # undamped: Phi is the 2x2 map of (u, v), and both of its roots have
    # |lambda| = 1 at every omega dt
    for x in OMEGA_DT:
        phi, _, _ = baselines._newmark_map(unit_oscillator(0.0), x, 0.5, 0.25)
        assert phi.shape == (2, 2)
        assert np.abs(np.abs(np.linalg.eigvals(phi)) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("build, params, width", [("_newmark_map", (0.5, 0.25), 2),
                                                  ("_wilson_map", (1.4,), 3),
                                                  ("_bathe_map", (0.5,), 2)],
                         ids=["newmark", "wilson", "bathe"])
def test_implicit_map_state_width(build, params, width):
    # Newmark and the composite scheme step (u, v), whose acceleration
    # follows from equilibrium; Wilson's a does not, so it steps (u, v, a)
    model = benchmark_chain(0.1)
    phi, offsets, weights = getattr(baselines, build)(model, 0.024, *params)
    assert phi.shape == (width * 12, width * 12)
    assert weights.shape == (width * 12, len(offsets) * 12)
    assert np.linalg.matrix_rank(phi) == width * 12


@pytest.mark.parametrize("zeta", [0.0, 0.05])
@pytest.mark.parametrize("build, param", [("_wilson_map", 1.4), ("_bathe_map", 0.5)],
                         ids=["wilson", "bathe"])
def test_unconditionally_stable_maps(build, param, zeta):
    for x in OMEGA_DT:
        phi, _, _ = getattr(baselines, build)(unit_oscillator(zeta), x, param)
        assert np.abs(np.linalg.eigvals(phi)).max() <= 1.0 + 1e-12
