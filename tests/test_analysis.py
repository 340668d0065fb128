"""Tests for the sigma eigenvalue machinery, step bounds and the
single-dof stability map."""

import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from oracles import sdof_model, tau_limit_scalar_scan

import perdyn.analysis
import perdyn.bench
import perdyn.model
import perdyn.per as per
from perdyn.analysis import (SIGMA_THRESHOLD, beta_radius_map, dt_bound,
                             sdof_stability_map, sigma_eigenvalues,
                             sigma_matrix, tau_limit)
from perdyn.bench import reference_solution, sweep_dt
from perdyn.model import (SystemModel, benchmark_beam, benchmark_chain, build_chain,
                          damping_level, modal_analysis)


def mu_closed_form_m2(tau):
    """Printed closed form of the order-2 eigenvalue pair."""
    rad = complex(300.0 + 2.0 * tau**4 - 60.0 * tau**2)
    root = np.sqrt(rad)
    return ((-30.0 + 1j * root) / 120.0, (-30.0 - 1j * root) / 120.0)


class TestSigma:
    @pytest.mark.parametrize("tau", [0.0, 1.0, 5.0])
    def test_order_zero_modulus_constant(self, tau):
        res = sigma_eigenvalues(0, tau)
        assert abs(res.mu1 - (-3.0 + 1j * np.sqrt(3.0)) / 12.0) < 1e-12 or \
               abs(res.mu1 - (-3.0 - 1j * np.sqrt(3.0)) / 12.0) < 1e-12
        assert res.modulus_max == pytest.approx(SIGMA_THRESHOLD, abs=1e-12)

    def test_order_two_at_zero(self):
        res = sigma_eigenvalues(2, 0.0)
        assert res.modulus_max == pytest.approx(SIGMA_THRESHOLD, abs=1e-12)

    @pytest.mark.parametrize("tau", [np.sqrt(30.0), 1.3, 3.0, 6.0])
    def test_order_two_closed_form(self, tau):
        res = sigma_eigenvalues(2, tau)
        got = sorted((res.mu1, res.mu2), key=lambda z: (z.real, z.imag))
        want = sorted(mu_closed_form_m2(tau), key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    def test_modulus_invariant_in_dt(self):
        for m in (2, 8, 20):
            for tau in (0.7, 3.3):
                mods = []
                for dt in (0.1, 1.0, 10.0):
                    mu = np.abs(np.linalg.eigvals(sigma_matrix(m, tau, dt=dt)))
                    mods.append(np.sort(mu))
                np.testing.assert_allclose(mods[0], mods[1], atol=1e-12)
                np.testing.assert_allclose(mods[0], mods[2], atol=1e-12)

    def test_matches_beta_series(self):
        # dt * sigma_m(dt*omega) must equal the scalar beta series
        model = sdof_model(omega=3.1, zeta=0.5)
        dt, m = 0.21, 8
        beta = per.assemble_series(model, dt, m, "beta")
        mc = 2.0 * 3.1 * 0.5
        sig = dt * sigma_matrix(m, 3.1 * dt, dt=dt) * mc
        np.testing.assert_allclose(beta, sig, rtol=1e-13)

    @pytest.mark.parametrize("tau, message", [
        (np.inf, "tau must be finite, not inf"), (np.nan, "tau must be finite, not nan"),
        (-np.inf, "tau must be >= 0"), (-1.0, "tau must be >= 0")])
    def test_tau_rejected_by_name(self, tau, message):
        # an infinite or NaN tau reached numpy's "Array must not contain infs or NaNs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                sigma_eigenvalues(4, tau)
        assert str(exc.value) == message

    def test_curve_grid_rejected_by_name(self):
        # the sigma curve's grid: the same checks as the stability map's
        with pytest.raises(ValueError, match="^grid end must be finite, not inf$"):
            perdyn.analysis._grid(0.0, np.inf, 0.05)
        np.testing.assert_array_equal(perdyn.analysis._grid(0.0, 0.1, 0.05), [0.0, 0.05, 0.1])


class TestTauLimit:
    def test_published_orders(self):
        assert tau_limit(2) == pytest.approx(2.64303, abs=1e-4)
        assert tau_limit(10) == pytest.approx(7.38332, abs=1e-4)
        assert tau_limit(20) == pytest.approx(11.3105, abs=1e-3)

    def test_order_four_first_crossing(self):
        # the order-4 eigenvalue-modulus curve first climbs through the
        # threshold at 5.60346; beyond it the largest modulus keeps
        # growing (only the smaller branch touches the threshold again,
        # near 9.59, where the spectral radius is already ~5)
        assert tau_limit(4) == pytest.approx(5.60346, abs=1e-4)

    def test_trend_above_order_ten(self):
        values = [tau_limit(m) for m in (10, 20, 30, 40)]
        assert values == sorted(values)
        np.testing.assert_allclose(values, [7.38332, 11.3105, 15.1700, 19.0203],
                                   atol=2e-3)

    def test_batched_scan_equals_scalar_scan(self):
        # the scan grid is evaluated in chunks with one batched eigensolve;
        # grid, crossing and bisection must stay those of the scalar scan
        for m in range(2, 22, 2):
            assert tau_limit(m) == tau_limit_scalar_scan(m), m

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="m = 0"):
            tau_limit(0)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            tau_limit(3)

    def test_scanned_once_per_order(self, monkeypatch):
        # tau_limit is a constant of m: a second dt_bound runs no scan
        calls = []
        stack = perdyn.analysis._sigma_stack

        def counting(*args):
            calls.append(args[0])
            return stack(*args)

        monkeypatch.setattr(perdyn.analysis, "_sigma_stack", counting)
        model = benchmark_chain(0.1)
        tau_limit.cache_clear()
        first = dt_bound(model, 8)
        assert calls and set(calls) == {8}
        calls.clear()
        assert dt_bound(model, 8) == first and tau_limit(8) == tau_limit_scalar_scan(8)
        assert calls == []

    @pytest.mark.parametrize("m, match", [(0, "m = 0"), (3, "even"), (-2, "even")])
    def test_rejected_order_raises_at_every_call(self, m, match):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                tau_limit(m)


class TestDtBound:
    def test_sdof_both_bounds(self):
        # unit-ratio damping: C = M so rho(M^-1 C) = 1
        omega = 2.0 * np.pi
        model = SystemModel(np.eye(1), np.eye(1), np.array([[omega**2]]))
        bound = dt_bound(model, 2)
        assert bound.damping_bound == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)
        assert bound.truncation_bound == pytest.approx(0.42065, abs=1e-4)
        assert bound.dt_max == pytest.approx(0.42065, abs=1e-4)

    def test_undamped_gives_truncation_bound(self):
        model = build_chain(3, 1.0, 100.0)
        bound = dt_bound(model, 8)
        assert bound.damping_bound == float("inf")
        assert bound.dt_max == bound.truncation_bound

    def test_zero_stiffness_rejected(self):
        model = SystemModel(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="stiffness"):
            dt_bound(model, 2)

    @pytest.mark.parametrize("model", [
        build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]),
        benchmark_beam(),
        benchmark_chain(0.1, 96),
    ], ids=["readme-chain", "beam", "chain-96"])
    def test_within_four_ulp_of_the_modal_formula(self, model):
        # omega_max from an eigenvalue-only solve, against the largest
        # frequency of the full modal analysis
        w_max = modal_analysis(model).frequencies[-1]
        rho_c = np.abs(eigh(model.damping, model.mass, eigvals_only=True)).max()
        want = min(2.0 * np.sqrt(3.0) / rho_c, tau_limit(8) / w_max)
        assert abs(dt_bound(model, 8).dt_max - want) <= 4.0 * np.spacing(want)


class TestSpectralExtremes:
    """omega_max and rho(M^-1 C) of dt_bound, damping_level and the RK4
    reference come from eigenvalue-only solves, never a modal analysis."""

    @pytest.mark.parametrize("caller", [
        lambda model: dt_bound(model, 8),
        damping_level,
        lambda model: reference_solution(model, 0.024, 0.24),
        lambda model: sweep_dt(model.with_initial_state(np.ones(model.n_dof), None),
                               "per", [0.024], 0.048, 0),
    ], ids=["dt_bound", "damping_level", "reference_solution", "sweep_dt"])
    def test_no_modal_analysis(self, caller, monkeypatch):
        calls = []

        def counting(model):
            calls.append(1)
            return modal_analysis(model)

        for module in (perdyn.model, perdyn.analysis, perdyn.bench):
            monkeypatch.setattr(module, "modal_analysis", counting, raising=False)
        caller(benchmark_chain(0.1))
        assert calls == []

    def test_sweep_dt_rejects_a_model_without_stiffness(self):
        model = SystemModel(np.eye(2), 0.3 * np.eye(2), np.zeros((2, 2)), u0=[1.0, 0.0])
        with pytest.raises(ValueError, match="no positive natural frequency"):
            sweep_dt(model, "per", [0.1], 1.0, 0)

    def test_reference_runs_without_stiffness(self):
        # omega_max is 0: the reference keeps its refine and never raises
        model = SystemModel(np.eye(2), 0.3 * np.eye(2), np.zeros((2, 2)),
                            u0=[1.0, 0.0], v0=[0.0, 1.0])
        ref = reference_solution(model, 0.1, 1.0, refine=20)
        assert ref.info["refine"] == 20
        np.testing.assert_allclose(ref.velocities[-1], np.exp(-0.3) * np.array([0.0, 1.0]),
                                   rtol=1e-10)


class TestStabilityMap:
    def test_undamped_order_two(self):
        rec = sdof_stability_map(0.0, 2, grid_max=0.5)
        assert len(rec.boundaries) == 1
        lo, hi = rec.boundaries[0]
        assert lo == 0.0
        assert hi == pytest.approx(0.2757, abs=5e-4)

    def test_damped_order_two_upper_bounds(self):
        uppers = []
        for zeta, expected in ((0.005, 0.2791), (0.05, 0.3024), (0.5, 0.3871)):
            rec = sdof_stability_map(zeta, 2, grid_max=0.5)
            widest = max(rec.boundaries, key=lambda b: b[1] - b[0])
            assert widest[1] == pytest.approx(expected, abs=5e-4)
            uppers.append(widest[1])
        assert uppers == sorted(uppers)  # nondecreasing with damping

    def test_undamped_order_four_interval(self):
        rec = sdof_stability_map(0.0, 4, grid_max=0.7)
        widest = max(rec.boundaries, key=lambda b: b[1] - b[0])
        assert widest[0] == pytest.approx(0.2964, abs=5e-4)
        assert widest[1] == pytest.approx(0.5405, abs=5e-4)

    @pytest.mark.parametrize("zeta,m_a,lower,upper", [
        (0.0, 6, 0.0, 0.2808),
        (0.0, 8, 0.2749, 0.7279),
        (0.005, 4, 0.0, 0.5406),
        (0.005, 6, 0.0, 0.3741),
        (0.005, 8, 0.0, 0.7287),
        (0.05, 4, 0.0, 0.5421),
        (0.05, 6, 0.0, 0.4766),
        (0.05, 8, 0.0, 0.7343),
        (0.5, 4, 0.0, 0.5342),
        (0.5, 6, 0.0, 0.6156),
        (0.5, 8, 0.0, 0.7407),
    ])
    def test_higher_order_rows(self, zeta, m_a, lower, upper):
        rec = sdof_stability_map(zeta, m_a, grid_max=0.8)
        widest = max(rec.boundaries, key=lambda b: b[1] - b[0])
        assert widest[0] == pytest.approx(lower, abs=5e-4)
        assert widest[1] == pytest.approx(upper, abs=5e-4)

    @pytest.mark.parametrize("zeta,m_a,grid_max,intervals", [
        # two stable runs, the second bisected at both ends
        (0.0, 8, 0.9, [(0.0, 0.02978955078125), (0.2748754882812501, 0.72794287109375)]),
        # one run that is still stable at the last grid point
        (0.05, 4, 0.5, [(0.0, 0.5)]),
    ])
    def test_every_interval(self, zeta, m_a, grid_max, intervals):
        rec = sdof_stability_map(zeta, m_a, grid_max=grid_max)
        assert len(rec.boundaries) == len(intervals)
        for got, expected in zip(rec.boundaries, intervals):
            assert got == pytest.approx(expected, abs=1e-9)

    def test_grid_shape_and_metadata(self):
        rec = sdof_stability_map(0.1, 2, r_a=4, grid_max=0.1, grid_step=0.01)
        assert rec.grid.shape[1] == 2
        assert np.all(np.diff(rec.grid[:, 0]) > 0)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            sdof_stability_map(0.0, 2, grid_max=-1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(zeta=np.inf), "zeta must be finite, not inf"),
        (dict(zeta=np.nan), "zeta must be finite, not nan"),
        (dict(zeta=-np.inf), "zeta must be >= 0"),
        (dict(zeta=-0.1), "zeta must be >= 0"),
        (dict(grid_max=np.inf), "grid end must be finite, not inf"),
        (dict(grid_max=np.nan), "grid end must be finite, not nan"),
        (dict(grid_step=np.inf), "grid step must be finite, not inf"),
        (dict(grid_step=np.nan), "grid step must be finite, not nan"),
        (dict(grid_max=-np.inf), "grid parameters must be positive"),
        (dict(grid_max=0.001, grid_step=0.002),
         "the grid from 0.002 by 0.002 through 0.001 is empty"),
    ])
    def test_inputs_rejected_by_name(self, kwargs, message):
        # an infinite zeta or grid end, or a NaN, reached numpy's errors
        # (and RuntimeWarnings); the empty grid returned an empty map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                sdof_stability_map(**{"zeta": 0.05, "m_a": 2, **kwargs})
        assert str(exc.value) == message

    def test_order_zero_runs(self):
        # m_a = 0 keeps only the first series terms; PerConfig rejects it,
        # so the map must not be built through a PerConfig
        rec = sdof_stability_map(0.05, 0)
        assert rec.grid.shape == (450, 2) and np.isfinite(rec.grid).all()
        assert len(rec.boundaries) == 1
        lo, hi = rec.boundaries[0]
        assert lo == 0.0
        assert hi == pytest.approx(0.0159292, abs=2e-6)

    def test_amplification_against_scalar_construction(self):
        # independent scalar build of a(dt0) at m_a = 2, r_a = 2: the
        # explicit low-order matrices, Neumann sum written out by hand
        from perdyn.analysis import _sdof_amplification
        omega = 2.0 * np.pi
        for zeta, x in ((0.0, 0.21), (0.05, 0.13), (0.5, 0.3)):
            dt0 = x
            a_ = omega * omega
            mc = 2.0 * omega * zeta
            t_a = np.array([
                [1.0 - dt0**2 / 2.0 * a_, dt0 - dt0**3 / 6.0 * a_],
                [-dt0 * a_ + dt0**3 / 6.0 * a_**2, 1.0 - dt0**2 / 2.0 * a_],
            ])
            alpha_a = np.array([
                [dt0 / 2.0 - dt0**3 / 30.0 * a_,
                 -dt0**2 / 12.0 + dt0**4 / 60.0 * a_],
                [1.0 - 3.0 * dt0**2 / 20.0 * a_, dt0**3 / 20.0 * a_],
            ]) * mc
            beta_a = np.array([
                [-dt0 / 2.0 + dt0**3 / 30.0 * a_,
                 dt0**2 / 12.0 - dt0**4 / 120.0 * a_],
                [-1.0 + 3.0 * dt0**2 / 20.0 * a_, -dt0**3 / 30.0 * a_],
            ]) * mc
            expected = (np.eye(2) + beta_a + beta_a @ beta_a) @ (t_a + alpha_a)
            got = _sdof_amplification(x, zeta, 2, 2)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


class TestBetaRadiusMap:
    def test_undamped_all_zero(self):
        model = build_chain(4, 1.0, 100.0)
        rows = beta_radius_map(model, [0.05, 0.1, 0.2], 8)
        assert all(rho == 0.0 for _, rho in rows)

    def test_doubling_damping_doubles_radius(self):
        base = benchmark_chain(0.2)
        double = benchmark_chain(0.4)
        rows1 = beta_radius_map(base, [0.05, 0.15], 8)
        rows2 = beta_radius_map(double, [0.05, 0.15], 8)
        for (_, r1), (_, r2) in zip(rows1, rows2):
            assert r2 == pytest.approx(2.0 * r1, rel=1e-9)

    def test_classical_sdof_bound(self):
        # for proportional damping, rho(beta) <= dt * rho(M^-1 C) / (2 sqrt(3))
        # whenever omega*dt stays below the truncation limit
        omega, zeta, m_b = 2.0 * np.pi, 0.3, 8
        model = sdof_model(omega=omega, zeta=zeta)
        rho_c = 2.0 * omega * zeta
        tau_cap = tau_limit(m_b)
        dts = [dt for dt in np.linspace(0.02, 1.0, 15) if omega * dt < tau_cap]
        for dt, rho in beta_radius_map(model, dts, m_b):
            assert rho <= dt * rho_c / (2.0 * np.sqrt(3.0)) * (1.0 + 1e-9)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            beta_radius_map(sdof_model(), [0.1, -0.2], 4)

    @pytest.mark.parametrize("m_b", [4, 8])
    def test_equals_the_integrator_radius(self, m_b):
        # beta_radius_map and compute_b_factors build beta_b by one series
        # builder, so the radii agree bit for bit
        model = benchmark_beam()
        [(_, rho)] = beta_radius_map(model, [2e-5], m_b)
        config = per.PerConfig(dt=2e-5, m_b=m_b)
        assert rho == per.compute_b_factors(model, config).rho_beta_b


class TestAsymptoticConvergenceRegions:
    def test_converges_below_point_nine(self):
        model = benchmark_chain(0.45).with_initial_state(
            np.linspace(0.01, 0.03, 12), np.zeros(12))
        config = per.PerConfig(dt=0.05, m_b=8)
        rho = per.compute_b_factors(model, config).rho_beta_b
        assert rho < 0.9
        traj = per.integrate_asymptotic(model, config, 5 * config.dt, n_terms=60)
        assert not traj.diverged
        norms = np.array(traj.info["term_norms"][1:])
        assert norms[-1] < norms[0]

    def test_diverges_above_one_point_one(self):
        import warnings
        model = benchmark_chain(2.2).with_initial_state(
            np.linspace(0.01, 0.03, 12), np.zeros(12))
        config = per.PerConfig(dt=0.05, m_b=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rho = per.compute_b_factors(model, config).rho_beta_b
        assert rho > 1.1
        traj = per.integrate_asymptotic(model, config, 5 * config.dt, n_terms=40)
        assert traj.diverged
        norms = np.array(traj.info["term_norms"][1:])
        assert norms[-1] > norms[-11]  # net growth over 10 consecutive terms
