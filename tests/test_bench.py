"""Tests for error norms, sweeps, cost models and timing."""

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (damped_free_vibration, half_step_times, l2_norm, mass_solve_exact,
                     reference_fine_rk4, reference_mass_solve_fold, rk4_longdouble_loop,
                     sdof_model, step_loop)

import perdyn.baselines as baselines
import perdyn.bench as bench
import perdyn.per as per
from perdyn.baselines import newmark, state_space
from perdyn.bench import (cost_mpim, cost_per, cost_rk4, fit_order,
                          global_error, per_mpim_setup_ratio,
                          reference_solution, run_method, sweep_damping,
                          sweep_dt, timing_run, trajectory_norm)
from perdyn.model import (SystemModel, benchmark_beam, benchmark_chain,
                          build_chain, constant_step_force,
                          gaussian_multiharmonic_force)
from perdyn.per import PerConfig, Trajectory, integrate

OMEGA = 2.0 * np.pi
T = 1.0


def make_traj(times, u, v):
    u = np.asarray(u, dtype=float).reshape(len(times), -1)
    v = np.asarray(v, dtype=float).reshape(len(times), -1)
    return Trajectory(times=np.asarray(times, dtype=float),
                      displacements=u, velocities=v)


class TestGlobalError:
    def test_identical_is_zero(self):
        times = np.linspace(0.0, 1.0, 11)
        t1 = make_traj(times, np.sin(times), np.cos(times))
        rep = global_error(t1, t1, 0)
        assert rep.e_disp == 0.0 and rep.e_vel == 0.0

    def test_doubled_is_one(self):
        times = np.linspace(0.0, 1.0, 11)
        ref = make_traj(times, np.sin(times) + 0.2, np.cos(times))
        test = make_traj(times, 2.0 * (np.sin(times) + 0.2), 2.0 * np.cos(times))
        rep = global_error(test, ref, 0)
        assert rep.e_disp == pytest.approx(1.0, rel=1e-14)
        assert rep.e_vel == pytest.approx(1.0, rel=1e-14)

    def test_matches_hand_rolled_norm(self):
        zeta = 0.05
        model = sdof_model(omega=OMEGA, zeta=zeta)
        dt = T / 50.0
        traj = integrate(model, PerConfig(dt=dt, m_b=8, r_b=4), 2.0)
        u_ref, v_ref = damped_free_vibration(OMEGA, zeta, 1.0, 0.0, traj.times)
        ref = make_traj(traj.times, u_ref, v_ref)
        rep = global_error(traj, ref, 0)
        by_hand = l2_norm(traj.displacements[:, 0] - u_ref) / l2_norm(u_ref)
        assert rep.e_disp == pytest.approx(by_hand, abs=1e-14)

    def test_zero_reference_rejected(self):
        times = np.linspace(0.0, 1.0, 5)
        ref = make_traj(times, np.zeros(5), np.ones(5))
        test = make_traj(times, np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="zero norm"):
            global_error(test, ref, 0)

    @pytest.mark.parametrize("dof", [-1, 1])
    def test_dof_out_of_range_rejected(self, dof):
        # -1 scored the last dof, 1 raised IndexError
        times = np.linspace(0.0, 1.0, 5)
        traj = make_traj(times, np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match=rf"dof must be in \[0, 1\), got {dof}"):
            global_error(traj, traj, dof)

    def test_norm_is_a_norm(self, rng):
        for _ in range(20):
            a = rng.standard_normal(40)
            b = rng.standard_normal(40)
            lam = rng.standard_normal()
            assert trajectory_norm(a + b) <= (trajectory_norm(a)
                                              + trajectory_norm(b)) + 1e-12
            assert trajectory_norm(lam * a) == pytest.approx(
                abs(lam) * trajectory_norm(a), rel=1e-12)


class TestReferenceSolution:
    def test_matches_analytic(self):
        zeta = 0.05
        model = sdof_model(omega=OMEGA, zeta=zeta)
        ref = reference_solution(model, T / 20.0, 1.0)
        u_ref, _ = damped_free_vibration(OMEGA, zeta, 1.0, 0.0, ref.times)
        assert np.abs(ref.displacements[:, 0] - u_ref).max() <= 1e-10

    def test_refine_one_is_plain_rk4(self):
        from perdyn.baselines import rk4, state_space
        model = sdof_model(omega=OMEGA, zeta=0.1)
        ref = reference_solution(model, 0.01, 0.2, refine=1)
        direct = rk4(state_space(model), np.array([1.0, 0.0]), 0.01, 0.2)
        np.testing.assert_array_equal(ref.displacements, direct.displacements)

    def test_grid_alignment(self):
        model = sdof_model(omega=OMEGA, zeta=0.1)
        dt = 0.013
        ref = reference_solution(model, dt, 0.13)
        expected = np.arange(len(ref.times)) * dt
        assert np.abs(ref.times - expected).max() <= 1e-12

    @pytest.mark.parametrize("dt, t_max, message", [
        (0.0, 1.0, "dt > 0"),
        (-0.1, 1.0, "dt > 0"),
        (0.1, 0.05, "at least one time step"),
    ])
    def test_step_count_is_the_integrators(self, dt, t_max, message):
        # the integrators' one step-count rule, checked before the
        # refinement loop
        with pytest.raises(ValueError, match=message):
            reference_solution(sdof_model(omega=OMEGA, zeta=0.1), dt, t_max)

    def test_auto_refinement_recorded(self):
        # tiny period forces the fine step below the stability margin
        model = benchmark_beam(n_elements=8)
        w_max = 0.0
        from perdyn.model import modal_analysis
        w_max = modal_analysis(model).frequencies[-1]
        dt = 3.0 * 500.0 / w_max  # violates the margin at refine=500
        ref = reference_solution(model, dt, 2 * dt)
        assert ref.info["refine"] > 500

    def test_refine_cap_raises(self):
        model = sdof_model(omega=1.0)
        with pytest.raises(ValueError, match="cannot reach RK4 stability"):
            reference_solution(model, 2.5 * 8000.0, 3 * 2.5 * 8000.0)

    def test_overdamped_fine_map_diverges(self):
        # omega_max = 1 passes the refine check, but the fine step 0.002
        # puts the damping pole -2000 at h*lambda = -4, outside RK4's region
        model = SystemModel(np.array([[1.0]]), np.array([[2000.0]]),
                            np.array([[1.0]]), u0=np.array([1.0]))
        with pytest.raises(ValueError, match="reference RK4 run diverged"):
            reference_solution(model, 1.0, 3.0)


def _damped_chain4(force):
    """Forced 4-dof chain with ground and inter-mass dampers (non-proportional)."""
    model = build_chain(4, 1.0, 100.0, [(0, None, 1.5), (1, 2, 0.8)])
    return model.with_force(force).with_initial_state(
        [0.01, -0.02, 0.015, 0.0], [0.0, 0.1, 0.0, -0.05])


_GAUSS4 = gaussian_multiharmonic_force(4, 2, t0=0.3, s=0.2,
                                       components=[(1.0, 3.0), (0.5, 7.1)])


class TestFoldedReference:
    """The folded reference against the fine-step loop it replaces."""

    @staticmethod
    def assert_matches_fine_loop(model, dt, t_max, refine=500):
        ref = reference_solution(model, dt, t_max, refine=refine)
        u, v, used = reference_fine_rk4(model, dt, t_max, refine)
        assert ref.info["refine"] == used
        for got, want in ((ref.displacements, u), (ref.velocities, v)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("force", [
        _GAUSS4,                                    # array form
        # switches on fine node 581, where k*h exceeds the node time that
        # the folded steps compute as 1*(s*h) + 162*(h/2) by one ulp
        constant_step_force(4, 1, 581 * (0.025 / 500), 2.0),
        lambda t: _GAUSS4(t),                       # a load on every dof
    ], ids=["gaussian", "step", "lambda"])
    def test_whole_coarse_step_folded(self, force):
        assert bench._fold_size(500, 4) == 500
        self.assert_matches_fine_loop(_damped_chain4(force), 0.025, 1.0)

    def test_divisor_of_refine_folded(self):
        # 2N x 1001N weights of the 12-dof chain exceed the cap: s = 125
        assert bench._fold_size(500, 12) == 125
        model = benchmark_chain(0.1).with_force(gaussian_multiharmonic_force(
            12, 2, t0=0.3, s=2.5, components=[(1.0, 3.0), (0.5, 7.1)]))
        self.assert_matches_fine_loop(model.with_initial_state(
            np.linspace(0.0, 1e-3, 12), np.zeros(12)), 0.024, 0.6)

    @staticmethod
    def readme_chain():
        rng = np.random.default_rng(0)
        force = gaussian_multiharmonic_force(12, 2, t0=0.3, s=2.5,
                                             components=[(1.0, 3.0), (0.5, 7.1)])
        return build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]).with_force(
            force).with_initial_state(1e-3 * rng.standard_normal(12),
                                      1e-3 * rng.standard_normal(12))

    def test_near_the_long_double_loop(self):
        # the chain-compare chain; folded from a rounded R = I + D, the
        # reference was 1.1e-12 of the peak from exact RK4 arithmetic
        model = self.readme_chain()
        dt, refine, n_fine = 0.024, 500, 50 * 500
        ref = reference_solution(model, dt, 50 * dt, refine=refine)
        assert ref.info["refine"] == refine
        system = state_space(model)
        h = dt / refine
        exact = rk4_longdouble_loop(system.w, lambda i: system.h(half_step_times(i, h)),
                                    np.concatenate([model.u0, model.v0]), h,
                                    n_fine, refine)
        for got, want in ((ref.displacements, exact[:, :12]),
                          (ref.velocities, exact[:, 12:])):
            assert np.abs(got - want).max() <= 2e-14 * np.abs(want).max()

    def plain_case(self, case):
        """(model, dt, t_max) of a case of the plain-callable tests."""
        return {
            "readme-chain": lambda: (self.readme_chain(), 0.024, 0.6),
            # a non-diagonal mass; the step switches at the sample t = 0.3
            "full-mass": lambda: (SystemModel(
                np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
                np.array([[3.0, -1.0, 0.5], [-1.0, 2.0, -0.5], [0.5, -0.5, 1.0]]),
                np.array([[200.0, -100.0, 0.0], [-100.0, 200.0, -100.0],
                          [0.0, -100.0, 100.0]]),
                force=constant_step_force(3, 1, 0.3, 5.0),
                u0=np.array([0.01, 0.0, -0.01])), 0.1, 1.0),
            "beam": lambda: (benchmark_beam(n_elements=6, t_c=10 * 2e-5), 2e-5, 20 * 2e-5),
        }[case]()

    @pytest.mark.parametrize("case", ["readme-chain", "full-mass", "beam"])
    def test_plain_callable_matches_the_support_path(self, case):
        # the same load without its support: folded as a load on every dof
        model, dt, t_max = self.plain_case(case)
        assert model.force._support
        ref = reference_solution(model, dt, t_max)
        plain = reference_solution(model.with_force(lambda t: model.force(t)), dt, t_max)
        for got, want in ((ref.displacements, plain.displacements),
                          (ref.velocities, plain.velocities)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["readme-chain", "full-mass", "beam"])
    def test_plain_callable_near_the_mass_solve_fold(self, case):
        # the every-dof fold against the M^-1 f samples it replaced
        model, dt, t_max = self.plain_case(case)
        plain = reference_solution(model.with_force(lambda t: model.force(t)), dt, t_max)
        u, v = reference_mass_solve_fold(model, dt, t_max, plain.info["refine"])
        for got, want in ((plain.displacements, u), (plain.velocities, v)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_plain_callable_makes_no_mass_solve_per_sample(self, monkeypatch):
        # its samples are f itself; M^-1 is solved on the identity once, and
        # else only on K and C
        rhs = []
        model, dt, t_max = self.plain_case("full-mass")
        plain = model.with_force(lambda t: model.force(t))
        plain = plain._derive(solve_mass=lambda b: rhs.append(b) or model.solve_mass(b))
        reference_solution(plain, dt, t_max)
        assert [np.array_equal(b, np.eye(3)) for b in rhs].count(True) == 1
        assert all(any(np.array_equal(b, mat) for mat in (np.eye(3), model.stiffness,
                                                          model.damping)) for b in rhs)

    def test_unforced_reference_folds_no_load_columns(self, monkeypatch):
        folds = []
        fold = bench._folded_rk4
        monkeypatch.setattr(bench, "_folded_rk4",
                            lambda *args: folds.append(fold(*args)) or folds[-1])
        # numpy 1.x raises on the 2-norm of an empty matrix: no guard scale is
        # taken of the 24 x 0 weights' projection
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda a, *args, **kw: norm(a, *args, **kw)
                            if np.size(a) else pytest.fail("norm of an empty matrix"))
        model = benchmark_chain(0.1).with_initial_state(np.linspace(0.0, 1e-2, 12),
                                                        np.zeros(12))
        ref = reference_solution(model, 0.024, 0.24)
        [(_, weights)] = folds
        assert weights.shape == (24, 0)
        u, v, _ = reference_fine_rk4(model, 0.024, 0.24)
        assert np.abs(ref.displacements - u).max() <= 1e-12 * np.abs(u).max()
        # the fine loop's own roundoff puts its v 2.7e-12 of the peak from
        # exact RK4, the fold's 1.6e-14: v is held to the long-double loop
        exact = rk4_longdouble_loop(state_space(model).w, lambda i: np.zeros((len(i), 24)),
                                    np.concatenate([model.u0, model.v0]), 0.024 / 500, 5000, 500)
        assert np.abs(ref.velocities - exact[:, 12:]).max() <= 1e-13 * np.abs(v).max()

    def test_load_of_another_model_rejected(self):
        # a built-in load is sampled only on its support, dof 1, and a plain
        # callable's 4-vectors met the 12 x 12 mass solve
        for force in (constant_step_force(4, 1, 0.0, 1.0), lambda t: np.ones(4)):
            model = self.readme_chain().with_force(force)
            with pytest.raises(ValueError, match="the load is not one of 12 dofs"):
                reference_solution(model, 0.024, 0.24)

    @pytest.mark.parametrize("case", ["readme-chain", "beam"])
    def test_support_path_near_the_long_double_loop(self, case):
        # The oracle is fed f(t) M^-1 E_S with the solve exact.  ``plain``
        # folds the same load as one on every dof: the rounded M^-1 in place
        # of the rounded M^-1 E_S.  Both folds sit at their roundoff floor,
        # and either may be the nearer: measured support/plain, u then v,
        # 6.3e-16/6.3e-16 and 2.3e-15/2.1e-15 on the chain, 9.3e-13/9.4e-13
        # and 2.3e-12/2.1e-12 on the beam, whose gap follows those roundings.
        pytest.importorskip("mpmath")
        model, dt, n_coarse = {
            "readme-chain": lambda: (self.readme_chain(), 0.024, 20),
            # the tip step switches at t = 0.01, the sample of coarse step 10
            "beam": lambda: (benchmark_beam(n_elements=12), 1e-3, 20),
        }[case]()
        refine = 500
        ref = reference_solution(model, dt, n_coarse * dt, refine=refine)
        plain = reference_solution(model.with_force(lambda t: model.force(t)), dt,
                                   n_coarse * dt, refine=refine)
        assert ref.info["refine"] == plain.info["refine"] == refine
        n, h, n_fine = model.n_dof, dt / refine, n_coarse * refine
        dofs, cols = model.force._support
        forcing = mass_solve_exact(model.mass, dofs).T

        def sample(i):
            out = np.zeros((len(i), 2 * n), dtype=np.longdouble)
            out[:, n:] = cols(half_step_times(i, h)) @ forcing
            return out
        exact = rk4_longdouble_loop(state_space(model).w, sample,
                                    np.concatenate([model.u0, model.v0]), h, n_fine, refine)

        def error(traj, half):
            got = np.hstack([traj.displacements, traj.velocities])[:, half]
            return np.abs(got - exact[:, half]).max() / np.abs(exact[:, half]).max()
        for half in (slice(0, n), slice(n, 2 * n)):  # u, then v
            assert error(ref, half) <= 1.25 * error(plain, half) + 4 * np.finfo(float).eps

    def test_long_double_loop_windows_agree(self):
        # the oracle draws its samples a window of steps at a time; the
        # window, here cut mid-run and at the end, moves no bit
        model = self.readme_chain()
        system, h = state_space(model), 0.024 / 50
        runs = [rk4_longdouble_loop(system.w, lambda i: system.h(half_step_times(i, h)),
                                    np.concatenate([model.u0, model.v0]), h, 60, 5,
                                    window=window) for window in (1, 7, 60, 1000)]
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    def test_fold_size_divides_refine(self):
        for refine in (1, 7, 500, 1000, 8000):
            for n in (1, 4, 12, 48, 200):
                s = bench._fold_size(refine, n)
                assert refine % s == 0
                assert s == 1 or 2 * n * n * (2 * s + 1) <= per._BLOCK_FLOATS
        assert bench._fold_size(8000, 48) == 10


@pytest.mark.parametrize("run", [
    lambda model: integrate(model, PerConfig(dt=0.01), np.inf),
    lambda model: newmark(model, 0.01, np.inf),
    lambda model: reference_solution(model, 0.01, np.inf),
], ids=["per", "newmark", "reference"])
def test_infinite_t_max_rejected(run):
    # the one step-count rule names it, rather than overflowing int()
    with pytest.raises(ValueError, match="t_max must be finite"):
        run(sdof_model(omega=OMEGA, zeta=0.1))


class TestLoadSize:
    # every method and the reference raise the one message; before, Newmark,
    # Wilson and the composite scheme ran the scalar load on one dof to the
    # end, and the others raised numpy's own shape errors
    LOADS = {
        "4-vector-callable": lambda: (TestFoldedReference.readme_chain().with_force(
            lambda t: np.ones(4)), 12),
        "built-in-of-4-dofs": lambda: (TestFoldedReference.readme_chain().with_force(
            constant_step_force(4, 2, 0.0, 1.0)), 12),
        "scalar-on-1-dof": lambda: (build_chain(1, 1.0, 100.0).with_force(lambda t: 1.0), 1),
    }

    @pytest.mark.parametrize("load", list(LOADS))
    @pytest.mark.parametrize("method", [*bench.METHODS, "reference"])
    def test_one_message_from_every_method(self, method, load):
        model, n = self.LOADS[load]()
        with pytest.raises(ValueError, match=f"^the load is not one of {n} dofs$"):
            if method == "reference":
                reference_solution(model, 0.024, 0.24)
            else:
                run_method(model, method, 0.024, 0.24)


    @pytest.mark.parametrize("method", [*bench.METHODS, "reference"])
    def test_built_in_load_raises_before_any_setup(self, method, monkeypatch):
        def reached(*args):
            raise AssertionError("the setup ran")
        for module, name in ((per, "build_scheme"), (per, "system_operators"),
                             (baselines, "system_operators"), (baselines, "_step_map"),
                             (bench, "_spectral_extremes")):
            monkeypatch.setattr(module, name, reached)
        model, n = self.LOADS["built-in-of-4-dofs"]()
        with pytest.raises(ValueError, match=f"^the load is not one of {n} dofs$"):
            if method == "reference":
                reference_solution(model, 0.024, 0.24)
            else:
                run_method(model, method, 0.024, 0.24)


class TestSweeps:
    def test_rk4_order_from_sweep(self):
        model = sdof_model(omega=OMEGA, zeta=0.05)
        dts = [T / n for n in (10, 20, 40, 80)]
        rows = sweep_dt(model, "rk4", dts, 1.0, 0)
        slope = fit_order([r.dt for r in rows], [r.e_disp for r in rows])
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_per_error_floor(self):
        model = sdof_model(omega=OMEGA, zeta=0.0123,
                           force=lambda t: np.array(
                               [np.exp(-(t - 0.8)**2 / 0.18)
                                * (np.sin(5.0 * t) + 0.4 * np.sin(11.0 * t))]))
        config = PerConfig(dt=0.1, m_b=8, r_b=4)
        dts = [T / n for n in (5, 10, 20, 40, 80)]
        rows = sweep_dt(model, "per", dts, 2.0, 0, per_config=config)
        errs = np.array([r.e_disp for r in rows])
        assert not any(r.diverged for r in rows)
        assert errs.min() <= 1e-5
        # non-increasing until within 10x of the floor
        floor = errs.min()
        above = errs[errs > 10.0 * floor]
        assert np.all(np.diff(above) <= 0.0)

    def test_single_dt_single_row(self):
        model = sdof_model(omega=OMEGA, zeta=0.05)
        rows = sweep_dt(model, "newmark", [0.01], 0.2, 0)
        assert len(rows) == 1 and not rows[0].diverged

    def test_rk4_divergence_flagged(self):
        model = sdof_model(omega=OMEGA, zeta=0.0)
        dt = 3.0 / OMEGA
        rows = sweep_dt(model, "rk4", [dt], 200 * dt, 0)
        assert rows[0].diverged and np.isnan(rows[0].e_disp)

    def test_damping_sweep_rho_proportional(self):
        model = benchmark_chain(1.0).with_initial_state(
            np.linspace(0.0, 0.11, 12), np.zeros(12))
        config = PerConfig(dt=0.02, m_b=8)
        rows = sweep_damping(model, [0.0, 0.1, 0.2, 0.4], 0.02, 0.2, 0,
                             per_config=config)
        rhos = [r.extra["rho_beta_b"] for r in rows]
        assert rhos[0] == 0.0
        assert rhos[2] == pytest.approx(2.0 * rhos[1], rel=1e-9)
        assert rhos[3] == pytest.approx(4.0 * rhos[1], rel=1e-9)
        # undamped run sits at the series-truncation floor
        errs = [r.e_disp for r in rows]
        assert errs[0] == min(errs)

    def test_b_factors_built_once_per_point(self, monkeypatch):
        calls = []
        b_factors = per._b_factors
        monkeypatch.setattr(per, "_b_factors",
                            lambda *args: calls.append(1) or b_factors(*args))
        model = sdof_model(omega=OMEGA, zeta=0.05)
        dts = [T / 40, T / 20]
        rows = sweep_dt(model, "per", dts, 0.5, 0)
        assert len(calls) == 2 and not any(r.diverged for r in rows)
        assert [r.abscissa for r in rows] == pytest.approx([1 / 40, 1 / 20])
        # the rho >= 1 point is skipped, but its rho is still reported
        chain = benchmark_chain(1.0).with_initial_state(
            np.linspace(0.0, 0.11, 12), np.zeros(12))
        calls.clear()
        rows = sweep_damping(chain, [0.1, 4.0], 0.16, 0.64, 0,
                             per_config=PerConfig(dt=0.16, m_b=8))
        assert len(calls) == 2
        assert [r.abscissa for r in rows] == [0.1, 4.0]
        assert rows[1].diverged and rows[1].extra["rho_beta_b"] >= 1.0

    def test_damping_sweep_divergence_flag(self):
        model = benchmark_chain(1.0).with_initial_state(
            np.linspace(0.0, 0.11, 12), np.zeros(12))
        config = PerConfig(dt=0.16, m_b=8)
        rows = sweep_damping(model, [0.1, 1.0, 4.0], 0.16, 0.64, 0,
                             per_config=config)
        assert not rows[0].diverged
        last = rows[-1]
        assert last.extra["rho_beta_b"] >= 1.0
        assert last.diverged and np.isnan(last.e_disp)


class TestCostModels:
    def test_per_n3_coefficient(self):
        cm = cost_per(1, p=20, m_a=2, m_b=4, r_a=2, r_b=2)
        assert cm.n3_coeff == 213

    def test_mpim_n3_coefficient(self):
        cm = cost_mpim(1, p=20, g=4)
        assert cm.n3_coeff == 818

    def test_setup_ratio(self):
        assert per_mpim_setup_ratio() == pytest.approx(213.0 / 818.0, rel=1e-15)

    def test_total_consistency(self):
        cm = cost_per(7, p=20, m_a=2, m_b=8, r_a=2, r_b=4, steps=100)
        assert cm.total_ops == (cm.n3_coeff * 343 + cm.n2_coeff * 49
                                + cm.n1_coeff * 7)

    def test_coefficient_extraction(self):
        # totals at N = 1..4 determine the cubic exactly; recovered
        # coefficients must be the integers of the closed forms
        for builder, expected in (
            (lambda n: cost_per(n, p=20, m_a=2, m_b=4, r_a=2, r_b=2, steps=50),
             (213, 11 + 32 + 24 + 200, 400, 0)),
            (lambda n: cost_mpim(n, p=20, g=4, steps=50), (818, 216, 0, 0)),
            (lambda n: cost_rk4(n, steps=50), (2, 800, 400, 0)),
        ):
            totals = [builder(n).total_ops for n in (1, 2, 3, 4)]
            vander = np.array([[n**3, n**2, n, 1] for n in (1, 2, 3, 4)])
            coeffs = np.linalg.solve(vander, np.array(totals, dtype=float))
            got = tuple(int(round(c)) for c in coeffs)
            np.testing.assert_allclose(coeffs, got, atol=1e-9)
            assert got == expected


class TestForcedChainEndToEnd:
    def test_per_tracks_reference_on_forced_chain(self):
        # production-style run: 12-dof chain, windowed multiharmonic
        # force, step near 0.075 of the shortest period
        from perdyn.model import gaussian_multiharmonic_force
        force = gaussian_multiharmonic_force(
            12, 2, t0=1.0, s=0.4, components=[(1.0, 3.0), (0.5, 7.1)])
        model = benchmark_chain(0.1).with_force(force)
        dt = 0.024
        traj = run_method(model, "per", dt, 3.0,
                          per_config=PerConfig(dt=dt, m_b=8, r_b=4))
        ref = reference_solution(model, dt, 3.0)
        rep = global_error(traj, ref, 0)
        assert rep.e_disp <= 1e-4
        assert rep.e_vel <= 1e-3


_FORCE_12 = gaussian_multiharmonic_force(12, 2, t0=0.1, s=0.4,
                                         components=[(1.0, 3.0), (0.5, 7.1)])


@pytest.mark.parametrize("method", bench.METHODS)
def test_every_method_runs_one_step_loop(method, monkeypatch):
    # one call of per.recurrence per run, counted in every perdyn module
    # that binds it
    original, calls = per.recurrence, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("perdyn") and getattr(module, "recurrence", None) is original:
            monkeypatch.setattr(module, "recurrence", counted)
    model = benchmark_chain(0.1).with_force(_FORCE_12)
    traj = run_method(model, method, 0.024, 0.24,
                      per_config=PerConfig(dt=0.024, m_b=8, r_b=4))
    assert not traj.diverged and traj.n_steps == 10
    assert len(calls) == 1


@pytest.mark.parametrize("forced", [True, False], ids=["forced", "unforced"])
@pytest.mark.parametrize("method", bench.METHODS)
def test_every_method_matches_the_step_loop(method, forced, monkeypatch):
    # each method's blocked loop against the one-step-at-a-time oracle on
    # the same operators and samples, across at least three block boundaries
    monkeypatch.setattr(per, "_BLOCK_FLOATS", 1 << 10)
    original, runs = per.recurrence, []

    def recorded(*args):
        runs.append((args, original(*args)))
        return runs[-1][1]

    for name, module in list(sys.modules.items()):
        if name.startswith("perdyn") and getattr(module, "recurrence", None) is original:
            monkeypatch.setattr(module, "recurrence", recorded)
    model = benchmark_chain(0.1).with_initial_state(0.01 * np.sin(np.arange(12.0)),
                                                    np.zeros(12))
    if forced:
        model = model.with_force(gaussian_multiharmonic_force(
            12, 2, t0=1.0, s=2.5, components=[(1.0, 3.0), (0.5, 7.1)]))
    run_method(model, method, 0.024, 3.6, per_config=PerConfig(dt=0.024, m_b=8, r_b=4))
    (phi, x0, dt, n_steps, sample, offsets, weights, ref_scale), (states, stop) = runs[0]
    # a block is at most _BLOCK_FLOATS // len(x0) steps
    assert n_steps == 150 > 3 * (per._BLOCK_FLOATS // len(x0))
    assert (sample is None) != forced
    one_time = None if sample is None else (lambda t: sample(np.array([t]))[0])
    want, want_stop = step_loop(phi, x0, dt, n_steps, one_time, offsets, weights, ref_scale)
    assert stop is want_stop is None
    assert np.array_equal(states, want)


class TestQualitativeOrdering:
    def test_per_beats_newmark_and_wilson(self):
        zeta = 0.05
        model = sdof_model(omega=OMEGA, zeta=zeta)
        config = PerConfig(dt=0.1, m_b=8, r_b=4)
        for ratio in (0.01, 0.05, 0.1, 0.2, 0.5):
            dt = ratio * T
            t_max = max(20 * dt, T)
            runs = {m: run_method(model, m, dt, t_max, per_config=config)
                    for m in ("per", "newmark", "wilson")}
            errs = {}
            for name, traj in runs.items():
                u_ref, _ = damped_free_vibration(OMEGA, zeta, 1.0, 0.0, traj.times)
                errs[name] = l2_norm(traj.displacements[:, 0] - u_ref) / l2_norm(u_ref)
            assert errs["per"] <= errs["newmark"], ratio
            assert errs["per"] <= errs["wilson"], ratio


#: The best of 10 alternating setups of the perturbation scheme and of MPIM
#: on the 64-dof chain, printed as a JSON pair of seconds.
SETUP_RATIO_SCRIPT = """
import json
from perdyn.baselines import IntegratorParams
from perdyn.bench import timing_run
from perdyn.model import build_chain
from perdyn.per import PerConfig
model = build_chain(64, 1.0, 100.0, [(0, None, 1.0)])
per_config = PerConfig(dt=0.01, p=20, m_a=2, r_a=2, m_b=4, r_b=2)
params = IntegratorParams(mpim_g=4, mpim_p=20)
per_s = mpim_s = float("inf")
for _ in range(10):
    per_s = min(per_s, timing_run(model, "per", 0.01, 0.0, per_config=per_config,
                                  repeats=1)[0])
    mpim_s = min(mpim_s, timing_run(model, "mpim", 0.01, 0.0, params=params, repeats=1)[0])
print(json.dumps([per_s, mpim_s]))
"""


class TestTiming:
    def test_setup_only(self):
        model = benchmark_chain(0.1)
        setup_s, loop_s = timing_run(model, "per", 0.01, 0.0, repeats=1)
        assert loop_s < setup_s

    def test_loop_phase(self, monkeypatch):
        # each repeat is one full run, whose step loop times itself
        calls = []
        run_method = bench.run_method

        def counted(model, method, dt, t_max, *args):
            calls.append(t_max)
            return run_method(model, method, dt, t_max, *args)

        monkeypatch.setattr(bench, "run_method", counted)
        setup_s, loop_s = timing_run(benchmark_chain(0.1), "per", 0.01, 0.5, repeats=2)
        assert calls == [0.5, 0.5]
        assert np.isfinite(loop_s) and loop_s >= 0.0 and setup_s > 0.0

    def test_loop_phase_is_the_runs_own(self, monkeypatch):
        # the loop phase was the full run's time less a one-step run's,
        # clamped at zero; now it is the loop time that the run recorded
        def run(model, method, dt, t_max, *args):
            time.sleep(0.02)
            return SimpleNamespace(info={"loop_s": 0.005})

        monkeypatch.setattr(bench, "run_method", run)
        setup_s, loop_s = timing_run(benchmark_chain(0.1), "per", 0.01, 0.5, repeats=2)
        assert loop_s == 0.005 and setup_s >= 0.015

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("method", bench.METHODS)
    def test_every_run_times_its_step_loop(self, method, forced):
        model = benchmark_chain(0.1).with_initial_state(np.full(12, 0.01), np.zeros(12))
        if forced:
            model = model.with_force(constant_step_force(12, 3, 0.12, 2.0))
        t0 = time.perf_counter()
        traj = run_method(model, method, 0.024, 0.24, per_config=PerConfig(dt=0.024, m_b=8, r_b=4))
        wall = time.perf_counter() - t0
        assert not traj.diverged and traj.n_steps == 10
        assert np.isfinite(traj.info["loop_s"]) and 0.0 <= traj.info["loop_s"] <= wall

    def test_setup_grows_with_size(self):
        setups = []
        for n in (16, 32, 64):
            model = build_chain(n, 1.0, 100.0, [(0, None, 1.0)])
            setup_s, _ = timing_run(model, "per", 0.01, 0.0)
            setups.append(setup_s)
        assert setups[0] < setups[2]

    def test_setup_ratio_direction(self):
        # with m_a=r_a=2, p=20, m_b=4, r_b=2 and g=4 the perturbation
        # setup must cost less than the precise-integration setup; the
        # counted ratio is 213/818, the wall-clock check allows +-50%.
        # The two setups are timed alternately and compared best-of-N,
        # so a drift of the host's speed hits both alike; on a shared
        # 2-vCPU host single setups ran up to 3x slower than the best, so
        # N = 10 pairs are taken.  They run in a fresh interpreter at one
        # BLAS thread, as the counted flops assume: at two threads the
        # small products of both setups pay the threads' overhead instead.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   os.path.dirname(os.path.dirname(bench.__file__)),
                   os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", SETUP_RATIO_SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout
        per_s, mpim_s = json.loads(out)
        assert per_s < mpim_s
        ratio = per_s / mpim_s
        assert 0.5 * 213.0 / 818.0 <= ratio <= 1.5 * 213.0 / 818.0


@pytest.mark.parametrize("method", [*bench.METHODS, "reference"])
def test_step_loops_never_sample_the_n_wide_load(method):
    # every loop samples f_S, the load on its support; only Wilson's
    # equilibrium acceleration at t = 0 reads the N-wide load, once.  Before,
    # every loop but the reference's sampled it (and solved M) in each block.
    force = constant_step_force(12, 3, 0.12, 2.0)
    rows, calls = force._rows, []
    force._rows = lambda times: calls.append(len(times)) or rows(times)
    model = benchmark_chain(0.1).with_force(force)
    if method == "reference":
        reference_solution(model, 0.024, 0.24)
    else:
        traj = run_method(model, method, 0.024, 0.24,
                          per_config=PerConfig(dt=0.024, m_b=8, r_b=4))
        assert not traj.diverged and traj.n_steps == 10
    assert calls == ([1] if method == "wilson" else [])


def _unfolded(model, method, dt, config):
    """(phi, x0, sample, offsets, weights, ref_scale) of ``method`` with its
    weights on the N-wide samples it took before the fold: M^-1 f (PER, whose
    L_b is compute_b_factors', on the identity), [0; M^-1 f] (RK4, MPIM) or f
    (the implicit maps), M solved per sample."""
    n, solve = model.n_dof, model.solve_mass
    x0 = np.concatenate([model.u0, model.v0])

    def loads(times):
        return np.array([model.force_at(t) for t in times.tolist()])

    def mass_solved(times):
        return solve(loads(times).T).T

    if method == "per":
        factors = per.compute_b_factors(model, config)
        return (per.compute_a(model, config), x0, mass_solved,
                (0.0, dt / 3.0, 2.0 * dt / 3.0, dt), factors.neumann_b @ factors.l_b,
                np.linalg.norm(factors.l_b, 2))
    if method in ("rk4", "mpim"):
        system = state_space(model)  # its W alone
        if method == "rk4":
            d, p0, pm = baselines.rk4_operators(system.w, dt)
            phi, offsets, weights = (np.eye(2 * n) + d, (0.0, dt / 2.0, dt),
                                     dt / 6.0 * np.hstack([p0, pm, np.eye(2 * n)]))
        else:
            phi, exps, offsets = baselines.mpim_operators(system, dt)
            weights = np.hstack(exps)
        return (phi, x0, lambda times: np.hstack([np.zeros((len(times), n)),
                                                  mass_solved(times)]),
                offsets, weights, dt)
    build, params = {"newmark": (baselines._newmark_map, (0.5, 0.25)),
                     "wilson": (baselines._wilson_map, (1.4,)),
                     "bathe": (baselines._bathe_map, (0.5,))}[method]
    phi, offsets, weights = build(model, dt, *params)
    if len(phi) > len(x0):
        x0 = np.concatenate([x0, solve(model.force_at(0.0) - model.damping @ model.v0
                                       - model.stiffness @ model.u0)])
    return phi, x0, loads, offsets, weights, np.linalg.norm(weights, 2)


#: (model, dt, steps, bound on u, bound on v) of the folded-against-unfolded
#: cases; a bound is relative to the peak of the unfolded run.
UNFOLDED_CASES = {
    # the README chain and its Gaussian load, t_max 40
    "readme-chain": lambda: (build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)])
                             .with_force(gaussian_multiharmonic_force(
                                 12, 2, t0=10.0, s=2.5, components=[(1.0, 3.0), (0.5, 7.1)])),
                             0.024, 1667, 1e-12, 1e-12),
    # the 48-dof beam from the initial state of tools/cli_identity.py, its
    # tip step on at t = 0.01; RK4 diverges at this dt
    "beam": lambda: (benchmark_beam().with_initial_state(
        np.array([1e-3 * np.sin(i + 1.0) for i in range(48)]),
        np.array([3e-2 * np.cos(i + 1.0) for i in range(48)])), 2e-5, 1000, 1e-12, 1e-12),
    # the same beam from rest, whose state is the load's response alone: v
    # moved by 4.7e-12 (PER) and 1.4e-11 (MPIM) of its peak, u by 6.4e-14
    "beam-from-rest": lambda: (benchmark_beam(), 2e-5, 1000, 1e-12, 3e-11),
    # a full mass and a plain callable: S is every dof
    "plain-3-dof": lambda: (SystemModel(
        np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
        np.array([[3.0, -1.0, 0.5], [-1.0, 2.0, -0.5], [0.5, -0.5, 1.0]]),
        np.array([[200.0, -100.0, 0.0], [-100.0, 200.0, -100.0], [0.0, -100.0, 100.0]]),
        force=lambda t: np.array([np.sin(3.0 * t), 0.5 * np.cos(7.0 * t) + 1.0, t * t]),
        u0=np.array([0.01, 0.0, -0.01])), 0.01, 400, 1e-12, 1e-12),
}


@pytest.mark.parametrize("case", list(UNFOLDED_CASES))
@pytest.mark.parametrize("method", bench.METHODS)
def test_folded_forcing_near_the_unfolded_form(method, case):
    # the weights on f_S, with M^-1 E_S or E_S folded in once, against the
    # same method's weights on its N-wide samples, M solved per sample: both
    # run to the end, or both are stopped (RK4 on the beam, one step apart
    # at most, as the guard scale moved from dt to the 2-norm of the folded
    # weights), and the states agree within the case's bounds up to the stop
    model, dt, n_steps, u_bound, v_bound = UNFOLDED_CASES[case]()
    config = PerConfig(dt=dt, m_b=8, r_b=4)
    with np.errstate(over="ignore", invalid="ignore"):  # RK4 on the beam
        traj = run_method(model, method, dt, n_steps * dt, per_config=config)
        phi, x0, *forcing = _unfolded(model, method, dt, config)
        states, stop = per.recurrence(phi, x0, dt, n_steps, *forcing)
    stops = (traj.info.get("diverged_at_step"), stop)
    if method == "rk4" and case.startswith("beam"):
        assert abs(stops[0] - stops[1]) <= 1
    else:
        assert stops == (None, None)
    n, k = model.n_dof, min(len(traj.times), len(states)) - (stop is not None)
    for got, want, bound in ((traj.displacements, states[:, :n], u_bound),
                             (traj.velocities, states[:, n:2 * n], v_bound)):
        assert np.abs(got[:k] - want[:k]).max() <= bound * np.abs(want[:k]).max()
