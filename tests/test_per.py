"""Tests for the perturbation scheme: coefficient families, series
assembly, the doubling algorithm, the forcing factors and both
integration modes."""

import warnings

import numpy as np
import pytest

import scipy.linalg
from hypothesis import given, settings, strategies as st
from oracles import (companion_matrix, damped_free_vibration,
                     doubling_dense_flushed, doubling_unflushed, expm_eig,
                     gauss_panel_integral, lagrange_cubic_basis, l2_norm,
                     rotation_propagator, sdof_model, step_loop)
from scipy.linalg import cho_factor, cho_solve

import perdyn.per as per
from perdyn import linalg
from perdyn.analysis import dt_bound
from perdyn.baselines import expm_2p, state_space
from perdyn.linalg import (DivergenceError, double_increment, neumann_sum,
                           spd_solver)
from perdyn.model import (benchmark_beam, benchmark_chain, build_chain,
                          constant_step_force, damping_level)


# ---------------------------------------------------------------------------
# Coefficient families

class TestCoefficients:
    def test_t_j0(self):
        dt = 0.37
        np.testing.assert_array_equal(per.coeff_t(0, dt),
                                      np.array([[1.0, dt], [0.0, 1.0]]))

    def test_t_j1_unit_step(self):
        expected = -0.5 * np.array([[1.0, 1.0 / 3.0], [2.0, 1.0]])
        np.testing.assert_allclose(per.coeff_t(1, 1.0), expected, rtol=1e-15)

    def test_t_series_reproduces_rotation(self):
        omega, dt = 4.0, 0.2  # omega*dt = 0.8 <= 1
        acc = np.zeros((2, 2))
        for j in range(30):
            acc += per.coeff_t(j, dt) * (omega * omega) ** j
        np.testing.assert_allclose(acc, rotation_propagator(omega, dt),
                                   atol=1e-12)

    def test_l_j0_unit_step(self):
        expected = np.array([[13.0 / 5, 36.0 / 5, 9.0 / 5, 2.0 / 5],
                             [3.0, 9.0, 9.0, 3.0]]) / 24.0
        np.testing.assert_allclose(per.coeff_l(0, 1.0), expected, rtol=1e-15)

    def test_l_series_row_sums(self):
        # summing the four column blocks must give the step integrals of
        # the impulse/step responses: rows (u, v) -> (A^-1 (1 - cos), sin/w)
        omega, dt = 4.0, 0.2
        a = omega * omega
        acc = np.zeros((2, 4))
        for j in range(30):
            acc += per.coeff_l(j, dt) * a ** j
        row_u, row_v = acc[0].sum(), acc[1].sum()
        assert row_v == pytest.approx(np.sin(omega * dt) / omega, abs=1e-12)
        assert row_u == pytest.approx((1.0 - np.cos(omega * dt)) / a, abs=1e-12)

    def test_alpha_beta_j0(self):
        dt = 0.83
        np.testing.assert_allclose(
            per.coeff_beta(0, dt),
            np.array([[-dt / 2.0, dt * dt / 12.0], [-1.0, 0.0]]), rtol=1e-15)
        np.testing.assert_allclose(
            per.coeff_alpha(0, dt),
            np.array([[dt / 2.0, -dt * dt / 12.0], [1.0, 0.0]]), rtol=1e-15)

    @pytest.mark.parametrize("j", range(21))
    def test_alpha_plus_beta_first_column_cancels(self, j):
        total = per.coeff_alpha(j, 0.61) + per.coeff_beta(j, 0.61)
        assert total[0, 0] == 0.0
        assert total[1, 0] == 0.0

    def test_alpha_beta_match_defining_integrals(self):
        # quadrature of the damping convolution blocks with exact cos/sin
        # kernels vs the series summed far past convergence
        omega, dt = 1.7, 0.9
        n1 = lambda x: (1 - x) ** 2 * (1 + 2 * x)
        n2 = lambda x: (3 - 2 * x) * x * x
        d1 = lambda x: (1 - x) ** 2 * x
        d2 = lambda x: -(1 - x) * x * x
        g = lambda x: np.cos(omega * dt * (1 - x))
        h = lambda x: np.sin(omega * dt * (1 - x)) / omega
        a = omega * omega
        quad = lambda f: gauss_panel_integral(f, 0.0, 1.0, panels=8)
        alpha_exact = np.array([
            [np.sin(omega * dt) / omega - dt * quad(lambda x: g(x) * n1(x)),
             -dt * dt * quad(lambda x: g(x) * d1(x))],
            [np.cos(omega * dt) + dt * a * quad(lambda x: h(x) * n1(x)),
             dt * dt * a * quad(lambda x: h(x) * d1(x))],
        ])
        beta_exact = np.array([
            [-dt * quad(lambda x: g(x) * n2(x)),
             -dt * dt * quad(lambda x: g(x) * d2(x))],
            [-1.0 + dt * a * quad(lambda x: h(x) * n2(x)),
             dt * dt * a * quad(lambda x: h(x) * d2(x))],
        ])
        alpha_series = sum(per.coeff_alpha(j, dt) * a ** j for j in range(30))
        beta_series = sum(per.coeff_beta(j, dt) * a ** j for j in range(30))
        np.testing.assert_allclose(alpha_series, alpha_exact, atol=1e-13)
        np.testing.assert_allclose(beta_series, beta_exact, atol=1e-13)


# ---------------------------------------------------------------------------
# Series assembly

class TestAssembleSeries:
    def test_beta_vanishes_without_damping(self):
        model = build_chain(4, 1.0, 100.0)
        beta = per.assemble_series(model, 0.1, 8, "beta")
        assert np.all(beta == 0.0)

    def test_transfer_matches_rotation(self):
        model = sdof_model(omega=2.0 * np.pi)
        t_mat = per.assemble_series(model, 0.05, 30, "T")
        np.testing.assert_allclose(t_mat, rotation_propagator(2.0 * np.pi, 0.05),
                                   atol=1e-12)

    def test_order_cap(self):
        model = sdof_model()
        with pytest.raises(ValueError, match="cap"):
            per.assemble_series(model, 0.1, 62, "T")

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            per.assemble_series(sdof_model(), 0.1, 3, "T")

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError, match="unknown series"):
            per.assemble_series(sdof_model(), 0.1, 2, "Q")

    def test_constant_state_null_response(self, chain12):
        # (alpha + beta) applied to [x; 0] vanishes at every truncation
        for m in (2, 8, 20):
            alpha = per.assemble_series(chain12, 0.08, m, "alpha")
            beta = per.assemble_series(chain12, 0.08, m, "beta")
            x = np.zeros(24)
            x[:12] = np.linspace(-1.0, 1.0, 12)
            assert np.abs((alpha + beta) @ x).max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 8])
    @pytest.mark.parametrize("which, coeff, damped", [
        ("T", per.coeff_t, False), ("L", per.coeff_l, False),
        ("alpha", per.coeff_alpha, True), ("beta", per.coeff_beta, True),
    ])
    def test_kronecker_sum_oracle(self, which, coeff, damped, m):
        # consistent mass and non-proportional damping: every block of the
        # layout carries a distinct matrix
        model = benchmark_beam(n_elements=6)
        dt = 3e-4
        a_mat = np.linalg.solve(model.mass, model.stiffness)
        start = (np.linalg.solve(model.mass, model.damping) if damped
                 else np.eye(model.n_dof))
        want = sum(np.kron(coeff(j, dt), np.linalg.matrix_power(a_mat, j) @ start)
                   for j in range(m // 2 + 1))
        got = per.assemble_series(model, dt, m, which)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Transition matrix

class TestComputeA:
    def test_undamped_matches_rotation(self):
        model = sdof_model(omega=2.0 * np.pi)
        a = per.compute_a(model, per.PerConfig(dt=0.1))
        np.testing.assert_allclose(a, rotation_propagator(2.0 * np.pi, 0.1),
                                   atol=1e-9)

    def test_damped_matches_exponential(self):
        model = sdof_model(omega=2.0 * np.pi, zeta=0.05)
        a = per.compute_a(model, per.PerConfig(dt=0.1))
        exact = expm_eig(companion_matrix(model), 0.1)
        assert np.abs(a - exact).max() <= 1e-8

    def test_zero_step_is_identity(self):
        model = sdof_model(zeta=0.1)
        a = per.compute_a(model, per.PerConfig(dt=0.0))
        np.testing.assert_array_equal(a, np.eye(2))

    def test_semigroup(self):
        model = sdof_model(omega=2.0 * np.pi, zeta=0.05)
        dt = 0.05  # T/20 < T/10
        a1 = per.compute_a(model, per.PerConfig(dt=dt))
        a2 = per.compute_a(model, per.PerConfig(dt=2.0 * dt))
        dev = np.abs(a1 @ a1 - a2).max()
        assert dev <= 1e-8 * np.abs(a2).max()

    def test_propagator_fidelity_light_damping(self):
        # light damping, where even an order-2 Neumann remainder
        # ||M^-1 C||^3 dt^2 / (6 * 2^p) would sit below the tolerance;
        # the heavy-damping cells, which need the default r_a = 4, are
        # criterion 4 of the acceptance suite
        for zeta, dt in ((0.005, 0.5), (0.02, 0.2), (0.05, 0.1)):
            model = sdof_model(omega=2.0 * np.pi, zeta=zeta)
            a = per.compute_a(model, per.PerConfig(dt=dt))
            exact = expm_eig(companion_matrix(model), dt)
            assert np.abs(a - exact).max() <= 1e-8, (zeta, dt)

    def test_propagator_fidelity_chain(self):
        model = benchmark_chain(0.02)
        rho_c = damping_level(model) * 19.843  # rho(M^-1 C)
        dt = 0.05
        assert rho_c * dt <= 1.0
        a = per.compute_a(model, per.PerConfig(dt=dt))
        exact = expm_eig(companion_matrix(model), dt)
        assert np.abs(a - exact).max() <= 1e-8

    def test_nonfinite_raises(self):
        model = sdof_model(omega=2.0 * np.pi, zeta=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="rho"):
                per.compute_a(model, per.PerConfig(dt=1e80, p=2))


class TestDoublingFlush:
    """The doubling flushes entries below sqrt(tiny) * max from order 128 up."""

    @staticmethod
    def unflushed_a(model, config):
        a_mat, minv_c = per.system_operators(model)[1:]
        seed, _ = per._increment_at_reduced_step(a_mat, minv_c, config.dt0,
                                                 config.m_a, config.r_a)
        return np.eye(2 * model.n_dof) + doubling_unflushed(seed, config.p)

    @staticmethod
    def unflushed_expm(w, t, p=20):
        x = w * (t / 2.0 ** p)
        x2 = x @ x
        seed = x + x2 / 2.0 + x2 @ x / 6.0 + x2 @ x2 / 24.0
        return np.eye(w.shape[0]) + doubling_unflushed(seed, p)

    @pytest.fixture(scope="class")
    def chain64(self):
        # order 128: the far-off-diagonal entries of a(dt) underflow
        model = build_chain(64, 1.0, 100.0, [(0, None, 1.0)])
        config = per.PerConfig(dt=0.01)
        w = state_space(model).w
        return {"a": (per.build_scheme(model, config).a, self.unflushed_a(model, config)),
                "expm": (expm_2p(w, config.dt), self.unflushed_expm(w, config.dt))}

    @pytest.mark.parametrize("which", ["a", "expm"])
    def test_no_subnormal_entries(self, chain64, which):
        got, unflushed = chain64[which]
        tiny = np.finfo(float).tiny
        assert ((unflushed != 0.0) & (np.abs(unflushed) < tiny)).any()
        assert not ((got != 0.0) & (np.abs(got) < tiny)).any()

    @pytest.mark.parametrize("which", ["a", "expm"])
    def test_kept_entries_bit_for_bit(self, chain64, which):
        got, unflushed = chain64[which]
        big = np.abs(unflushed) > 1e-100 * np.abs(unflushed).max()
        np.testing.assert_array_equal(got[big], unflushed[big])
        assert np.abs(got - unflushed).max() <= 1e-150 * np.abs(unflushed).max()

    @pytest.mark.parametrize("model, config", [
        # the README chain (order 24) and the benchmark beam (order 96)
        (build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]),
         per.PerConfig(dt=0.024, m_b=8, r_b=4)),
        (benchmark_beam(), per.PerConfig(dt=2e-5, m_b=8)),
    ], ids=["chain12", "beam48"])
    def test_below_the_gate_unchanged(self, model, config):
        np.testing.assert_array_equal(per.build_scheme(model, config).a,
                                      self.unflushed_a(model, config))
        w = state_space(model).w
        np.testing.assert_array_equal(expm_2p(w, config.dt),
                                      self.unflushed_expm(w, config.dt))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_not_flushed(self, bad, monkeypatch):
        # an inf makes the threshold inf; the entry itself must survive
        seed = 1e-3 * np.eye(128)
        seed[5, 7] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            assert not np.isfinite(double_increment(seed, 3)).all()
            monkeypatch.setattr(per, "_increment_at_reduced_step",
                                lambda a_mat, minv_c, dt0, m_a, r_a: (seed, 0.5))
            with pytest.raises(DivergenceError, match="non-finite"):
                per._doubled_increment(None, None, per.PerConfig(dt=0.01))


def banded_seed(n, half_band, coupling, scale, p, rng):
    """Random increment of order n in (u, v) block form, h = ceil(n/2) rows
    of u first: entry (i, j) is nonzero only when |i mod h - j mod h| <=
    half_band, and the u-v and v-u blocks are scaled by ``coupling``.  The
    largest row sum is scale / 2^p, so p doublings stay below e^scale."""
    h = (n + 1) // 2
    idx = np.arange(n)
    band = np.abs(idx[:, None] % h - idx[None, :] % h) <= half_band
    weight = np.array([[1.0, coupling[0]], [coupling[1], 1.0]])[idx // h][:, idx // h]
    seed = rng.standard_normal((n, n)) * band * weight
    return seed * (scale / 2.0 ** p / np.abs(seed).sum(axis=1).max())


class TestProfileDoubling:
    """Above order 128, a seed with a zero entry is squared over its nonzero
    profile; the dense flushed doubling is the oracle."""

    @staticmethod
    def dense_a(model, config):
        a_mat, minv_c = per.system_operators(model)[1:]
        seed, _ = per._increment_at_reduced_step(a_mat, minv_c, config.dt0,
                                                 config.m_a, config.r_a)
        return np.eye(2 * model.n_dof) + doubling_dense_flushed(seed, config.p)

    @staticmethod
    def dense_expm(w, t, p=20):
        x = w * (t / 2.0 ** p)
        x2 = x @ x
        seed = x + x2 / 2.0 + x2 @ x / 6.0 + x2 @ x2 / 24.0
        return np.eye(w.shape[0]) + doubling_dense_flushed(seed, p)

    @pytest.fixture(scope="class")
    def chain240(self):
        model = benchmark_chain(0.1, 240)
        config = per.PerConfig(dt=0.8 * dt_bound(model, 8).dt_max, m_b=8)
        w = state_space(model).w
        exact = scipy.linalg.expm(w * config.dt)
        return {"a": (per.build_scheme(model, config).a, self.dense_a(model, config), exact),
                "expm": (expm_2p(w, config.dt), self.dense_expm(w, config.dt), exact)}

    @pytest.mark.parametrize("which", ["a", "expm"])
    def test_chain240_near_the_dense_doubling(self, chain240, which):
        got, dense, _ = chain240[which]
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("which", ["a", "expm"])
    def test_chain240_no_farther_from_expm(self, chain240, which):
        got, dense, exact = chain240[which]
        peak = np.abs(dense).max()
        assert (np.abs(got - exact).max()
                <= np.abs(dense - exact).max() + 1e-14 * peak)

    @pytest.mark.parametrize("which", ["a", "expm"])
    def test_chain240_no_subnormal_entries(self, chain240, which):
        got = chain240[which][0]
        assert not ((got != 0.0) & (np.abs(got) < np.finfo(float).tiny)).any()

    def test_dense_seed_bit_for_bit(self):
        seed = 1e-3 * np.random.default_rng(7).standard_normal((200, 200))
        assert seed.all()
        np.testing.assert_array_equal(double_increment(seed, 6),
                                      doubling_dense_flushed(seed, 6))

    def test_integrate_near_the_dense_doubling(self, monkeypatch):
        model = benchmark_chain(0.1, 96).with_initial_state(
            1e-2 * np.sin(np.arange(1.0, 97.0)), np.zeros(96))
        config = per.PerConfig(dt=0.8 * dt_bound(model, 8).dt_max, m_b=8)
        got = per.integrate(model, config, 200 * config.dt)
        monkeypatch.setattr(per, "double_increment", doubling_dense_flushed)
        want = per.integrate(model, config, 200 * config.dt)
        assert got.n_steps == want.n_steps == 200 and not got.diverged
        for x, y in [(got.displacements, want.displacements),
                     (got.velocities, want.velocities)]:
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(5, 7), (5, 200)], ids=["in-band", "off-band"])
    def test_non_finite_entry_ends_non_finite(self, bad, where, monkeypatch):
        seed = banded_seed(256, 3, (0.5, 0.5), 0.5, 3, np.random.default_rng(1))
        seed[where] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            assert not np.isfinite(double_increment(seed, 3)).all()
            monkeypatch.setattr(per, "_increment_at_reduced_step",
                                lambda a_mat, minv_c, dt0, m_a, r_a: (seed, 0.5))
            with pytest.raises(DivergenceError, match="non-finite"):
                per._doubled_increment(None, None, per.PerConfig(dt=0.01))

    def test_zero_row_has_an_empty_span(self):
        seed = banded_seed(256, 3, (0.5, 0.5), 0.5, 5, np.random.default_rng(2))
        seed[100] = 0.0
        first, stop = linalg._spans(seed == 0.0, 0, 256)
        assert (first[100], stop[100]) == (256, 0)
        assert (first[:100] < stop[:100]).all()
        got = double_increment(seed, 5)
        assert np.isfinite(got).all() and not got[100].any()
        want = doubling_dense_flushed(seed, 5)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_seed_doubles_to_zero(self, monkeypatch):
        zero = np.zeros((256, 256))
        first, stop = linalg._spans(zero == 0.0, 0, 256)
        assert (first == 256).all() and (stop == 0).all()
        np.testing.assert_array_equal(double_increment(zero, 5), zero)
        monkeypatch.setattr(per, "_increment_at_reduced_step",
                            lambda a_mat, minv_c, dt0, m_a, r_a: (zero, 0.0))
        a, _ = per._doubled_increment(None, None, per.PerConfig(dt=0.01))
        np.testing.assert_array_equal(a, np.eye(256))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(129, 320), half_band=st.integers(1, 40),
           coupling=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           scale=st.floats(0.05, 2.0), p=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_banded_seeds_near_the_dense_doubling(self, n, half_band, coupling,
                                                  scale, p, seed):
        delta = banded_seed(n, half_band, coupling, scale, p,
                            np.random.default_rng(seed))
        assert not delta.all()
        got = double_increment(delta, p)
        want = doubling_dense_flushed(delta, p)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Forcing factors

class TestComputeBFactors:
    def test_undamped_neumann_is_identity(self):
        model = build_chain(3, 1.0, 100.0)
        factors = per.compute_b_factors(model, per.PerConfig(dt=0.1))
        np.testing.assert_array_equal(factors.neumann_b, np.eye(6))
        assert factors.rho_beta_b == 0.0

    def test_neumann_telescoping_identity(self, chain12):
        config = per.PerConfig(dt=0.12, m_b=8, r_b=6)
        beta = per.assemble_series(chain12, config.dt, config.m_b, "beta")
        factors = per.compute_b_factors(chain12, config)
        lhs = (np.eye(24) - beta) @ factors.neumann_b
        rhs = np.eye(24) - np.linalg.matrix_power(beta, config.r_b + 1)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_rho_matches_dense_eigensolve(self):
        # chain scaled so the damping level ratio reaches 0.815
        zeta = 0.1 * 0.815 / damping_level(benchmark_chain(0.1))
        model = benchmark_chain(zeta)
        assert damping_level(model) == pytest.approx(0.815, rel=1e-10)
        config = per.PerConfig(dt=0.24, m_b=8)
        factors = per.compute_b_factors(model, config)
        from scipy.linalg import eig
        beta = per.assemble_series(model, 0.24, 8, "beta")
        rho_ref = np.abs(eig(beta, right=False)).max()
        assert factors.rho_beta_b == pytest.approx(rho_ref, abs=1e-6)

    def test_warns_when_series_diverges(self):
        model = benchmark_chain(2.0)
        with pytest.warns(RuntimeWarning, match="does not converge"):
            factors = per.compute_b_factors(model, per.PerConfig(dt=0.3, m_b=8))
        assert factors.rho_beta_b >= 1.0

    def test_exact_radius_above_four_hundred(self):
        # 2N = 480: the dominant eigenvalues of beta_b are a complex pair
        # at 1.133, which a power iteration reads as 0.349
        model = benchmark_chain(2.0, n_dof=240)
        config = per.PerConfig(dt=0.05, m_b=8)
        with pytest.warns(RuntimeWarning, match="does not converge"):
            factors = per.compute_b_factors(model, config)
        beta = per.assemble_series(model, 0.05, 8, "beta")
        rho_ref = np.abs(np.linalg.eigvals(beta)).max()
        assert factors.rho_beta_b == pytest.approx(rho_ref, rel=1e-12)


# ---------------------------------------------------------------------------
# Force sampling

class TestForceSamples:
    def test_zero_force(self):
        model = sdof_model()
        np.testing.assert_array_equal(per.force_samples(model, 0, 0.1),
                                      np.zeros(4))

    def test_linear_force_samples(self):
        model = sdof_model(mass=2.0, force=lambda t: np.array([t]))
        g = per.force_samples(model, 0, 0.3)
        np.testing.assert_allclose(g, [0.0, 0.05, 0.10, 0.15], atol=1e-15)

    def test_non_finite_sample_rejected(self):
        # a finite load whose M^-1 f overflows: scipy's finiteness check
        # of the load does not see it, the sampler's check does
        model = sdof_model(mass=1e-300,
                           force=lambda t: np.array([1e100 if t > 0.25 else 0.0]))
        with pytest.raises(ValueError, match="non-finite force sample"):
            per.integrate(model, per.PerConfig(dt=0.1), 1.0)

    def test_nan_load_raises_the_sampler_message(self):
        # the mass solve passes a NaN load through, so the message is PER's
        # own, with the first non-finite abscissa of the step
        model = sdof_model(force=lambda t: np.array([np.nan if t > 0.25 else 1.0]))
        with pytest.raises(ValueError, match=r"non-finite force sample at t = 0\.266"):
            per.integrate(model, per.PerConfig(dt=0.1), 1.0)

    def test_step_index_offsets(self):
        model = sdof_model(mass=1.0, force=lambda t: np.array([t]))
        g = per.force_samples(model, 3, 0.3)
        np.testing.assert_allclose(g, [0.9, 1.0, 1.1, 1.2], atol=1e-12)

    def test_cubic_reproduced_by_interpolant(self):
        t_k, dt = 0.4, 0.7
        samples = np.array([(t_k + i * dt / 3.0) ** 3 for i in range(4)])
        for xi in np.linspace(0.05, 0.95, 10):
            value = lagrange_cubic_basis(xi) @ samples
            assert value == pytest.approx((t_k + xi * dt) ** 3, abs=1e-12)

    def test_lagrange_basis_nodes(self):
        # basis i equals 1 at node i and 0 at the other three
        nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        for i, xi in enumerate(nodes):
            vals = lagrange_cubic_basis(xi)
            np.testing.assert_allclose(vals, np.eye(4)[i], atol=1e-14)

    def test_force_interpolation_exact_for_cubics(self):
        # L_b g_k against quadrature of the truncated-kernel convolution
        omega, dt, m = 3.0, 0.4, 12
        model = sdof_model(omega=omega, force=lambda t: np.array(
            [2.0 - t + 0.5 * t * t + 0.25 * t ** 3]))
        l_b = per.assemble_series(model, dt, m, "L")
        g0 = per.force_samples(model, 0, dt)
        got = l_b @ g0

        from math import factorial
        jm = m // 2
        a = omega * omega

        def kern_h(s):
            return sum((-1.0) ** j * a ** j * s ** (2 * j + 1) / factorial(2 * j + 1)
                       for j in range(jm + 1))

        def kern_g(s):
            return sum((-1.0) ** j * a ** j * s ** (2 * j) / factorial(2 * j)
                       for j in range(jm + 1))

        f = lambda t: 2.0 - t + 0.5 * t * t + 0.25 * t ** 3
        want_u = gauss_panel_integral(lambda t: kern_h(dt - t) * f(t), 0.0, dt)
        want_v = gauss_panel_integral(lambda t: kern_g(dt - t) * f(t), 0.0, dt)
        assert got[0] == pytest.approx(want_u, rel=1e-11)
        assert got[1] == pytest.approx(want_v, rel=1e-11)


# ---------------------------------------------------------------------------
# Time stepping

class TestIntegrate:
    def test_undamped_free_vibration(self):
        model = sdof_model(omega=2.0 * np.pi)
        traj = per.integrate(model, per.PerConfig(dt=0.01), 1.0)
        assert traj.displacements[-1, 0] == pytest.approx(1.0, abs=1e-7)

    def test_damped_against_analytic(self):
        zeta = 0.05
        model = sdof_model(omega=2.0 * np.pi, zeta=zeta)
        dt = 1.0 / 50.0
        traj = per.integrate(model, per.PerConfig(dt=dt, m_b=8, r_b=4), 3.0)
        u_ref, _ = damped_free_vibration(2.0 * np.pi, zeta, 1.0, 0.0, traj.times)
        err = l2_norm(traj.displacements[:, 0] - u_ref) / l2_norm(u_ref)
        assert err <= 1e-6

    def test_energy_never_increases(self, chain12):
        from perdyn.bench import mechanical_energy
        model = chain12.with_initial_state(np.linspace(0.01, 0.05, 12),
                                           np.zeros(12))
        dt = 0.3166 / 20.0
        traj = per.integrate(model, per.PerConfig(dt=dt, m_b=8), 100 * dt)
        energy = mechanical_energy(model, traj)
        assert energy[0] > 0.0
        increases = np.diff(energy)
        assert increases.max() <= 1e-9 * energy[0]

    def test_zero_damping_collapse_bit_for_bit(self):
        # with C = 0 the scheme must reduce exactly to the undamped
        # transfer step driven by L g_k
        model = build_chain(4, 1.0, 100.0,).with_force(
            lambda t: np.array([np.sin(3.0 * t), 0.0, 0.0, 1.0]))
        config = per.PerConfig(dt=0.02, m_b=6)
        scheme = per.build_scheme(model, config)

        _, a_mat, _ = per.system_operators(model)
        delta = per.undamped_step_increment(a_mat, config.dt0, config.m_a)
        for _ in range(config.p):
            delta = 2.0 * delta + delta @ delta
        t_doubled = np.eye(8) + delta
        np.testing.assert_array_equal(scheme.a, t_doubled)
        np.testing.assert_array_equal(scheme.neumann_b, np.eye(8))

        traj = per.integrate(model, config, 0.5)
        l_b = per.assemble_series(model, config.dt, config.m_b, "L")
        state = np.concatenate([model.u0, model.v0])
        for k in range(traj.n_steps):
            state = t_doubled @ state + l_b @ per.force_samples(model, k, config.dt)
        np.testing.assert_array_equal(
            state, np.concatenate([traj.displacements[-1], traj.velocities[-1]]))

    def test_partial_trajectory_on_divergence(self):
        # a step far beyond the admissible bound makes the forcing factors
        # blow up through the divergent Neumann sum
        model = benchmark_chain(3.0).with_force(
            lambda t: np.eye(12)[3] * np.sin(2.0 * t))
        config = per.PerConfig(dt=1.4, m_b=2, r_b=12)
        with pytest.warns(RuntimeWarning):
            traj = per.integrate(model, config, 70.0)
        assert traj.diverged
        assert traj.n_steps < 50
        assert "rho_beta_b" in traj.info and traj.info["rho_beta_b"] >= 1.0
        assert "dt_max_bound" in traj.info
        assert np.isfinite(traj.displacements).all()

    def test_forced_run_factorizes_mass_once(self, monkeypatch):
        # the force sampler reuses build_scheme's factorization of M
        calls = []
        solver = per.spd_solver
        monkeypatch.setattr(per, "spd_solver",
                            lambda mat: calls.append(1) or solver(mat))
        traj = per.integrate(benchmark_beam(), per.PerConfig(dt=2e-5, m_b=8), 2e-4)
        assert len(calls) == 1
        assert traj.n_steps == 10 and not traj.diverged

    def test_divergent_damping_series_ends_as_diverged(self):
        # rho(beta_b) = 1.93: the guard does not stop the finite trajectory,
        # but the truncated Neumann sum is no (I - beta_b)^-1
        model = benchmark_chain(1.0).with_force(lambda t: np.eye(12)[3] * np.sin(2.0 * t))
        config = per.PerConfig(dt=0.2, m_b=8, r_b=4)
        with pytest.warns(RuntimeWarning, match="does not converge"):
            traj = per.integrate(model, config, 4.0)
        assert traj.diverged and traj.n_steps == 20
        assert np.isfinite(traj.displacements).all()
        assert traj.info["reason"] == "rho(beta_b) >= 1"
        assert traj.info["rho_beta_b"] >= 1.0 and "dt_max_bound" in traj.info
        assert "diverged_at_step" not in traj.info

    def test_guard_stop_factorizes_mass_once(self, monkeypatch):
        # the divergence path checks the last step's samples with
        # build_scheme's factorization of M
        calls = []
        solver = per.spd_solver
        monkeypatch.setattr(per, "spd_solver",
                            lambda mat: calls.append(1) or solver(mat))
        model = benchmark_chain(3.0).with_force(lambda t: np.eye(12)[3] * np.sin(2.0 * t))
        with pytest.warns(RuntimeWarning):
            traj = per.integrate(model, per.PerConfig(dt=1.4, m_b=2, r_b=12), 70.0)
        assert traj.info["reason"] == "norm guard"
        assert len(calls) == 1

    def test_t_max_shorter_than_step_rejected(self):
        with pytest.raises(ValueError, match="one time step"):
            per.integrate(sdof_model(), per.PerConfig(dt=0.1), 0.05)

    def test_single_step_run(self):
        traj = per.integrate(sdof_model(zeta=0.1), per.PerConfig(dt=0.1), 0.1)
        assert traj.n_steps == 1
        assert traj.times[-1] == pytest.approx(0.1)


class TestBlockedForcing:
    """The step loop samples the forcing a block of steps at a time; the
    result must be the one-sample-at-a-time loop's, bit for bit."""

    N = 64

    def forced_chain(self):
        model = build_chain(self.N, 1.0, 100.0, [(0, None, 2.0), (5, 6, 1.0)])
        rows = np.eye(self.N)
        return model.with_force(lambda t: rows[3] * np.sin(2.0 * t)
                                + rows[40] * np.exp(-0.01 * t))

    def scalar_sampler(self, model):
        factor = cho_factor(model.mass)
        return lambda t: cho_solve(factor, model.force_at(t))

    def test_forced_per_matches_step_loop(self):
        model = self.forced_chain()
        config = per.PerConfig(dt=0.2, m_b=8)
        block = per._BLOCK_FLOATS // (4 * self.N)
        n_steps = 3 * block + 100
        assert n_steps % block != 0
        traj = per.integrate(model, config, n_steps * config.dt)
        assert traj.n_steps == n_steps and not traj.diverged

        scheme = per.build_scheme(model, config)
        states, stop = step_loop(scheme.a, np.concatenate([model.u0, model.v0]),
                                 config.dt, n_steps, self.scalar_sampler(model),
                                 (0.0, config.dt / 3.0, 2.0 * config.dt / 3.0, config.dt),
                                 scheme.neumann_b @ scheme.l_b,
                                 np.linalg.norm(scheme.l_b, 2))
        assert stop is None
        assert np.array_equal(states, np.hstack([traj.displacements, traj.velocities]))

    def test_divergence_in_a_later_block(self):
        # a growing map that trips the guard in the fourth block
        model = self.forced_chain()
        dt = 0.2
        offsets = (0.0, dt / 3.0, 2.0 * dt / 3.0, dt)
        rng = np.random.default_rng(5)
        phi = 1.02 * np.eye(2 * self.N)
        weights = 1e-3 * rng.standard_normal((2 * self.N, 4 * self.N))
        x0 = rng.standard_normal(2 * self.N)
        block = per._BLOCK_FLOATS // (4 * self.N)
        got, got_stop = per.recurrence(phi, x0, dt, 5 * block,
                                       per._force_sampler(model, spd_solver(model.mass)),
                                       offsets, weights, 1.0)
        states, stop = step_loop(phi, x0, dt, 5 * block, self.scalar_sampler(model),
                                 offsets, weights, 1.0)
        assert 3 * block < stop < 4 * block
        assert got_stop == len(got) - 1 == stop
        assert np.array_equal(states, got)

    def test_nan_sample_inside_a_later_block(self):
        # the load turns NaN in the middle of the third block: the run stops
        # at the step that samples it, with the step loop's prefix
        dt = 0.2
        offsets = (0.0, dt / 3.0, 2.0 * dt / 3.0, dt)
        block = per._BLOCK_FLOATS // (4 * self.N)
        t_nan = (2 * block + block // 2) * dt + 0.05
        rows = np.eye(self.N)
        model = build_chain(self.N, 1.0, 100.0).with_force(
            lambda t: rows[7] * (np.nan if t > t_nan else np.cos(t)))
        rng = np.random.default_rng(11)
        phi = 0.5 * np.eye(2 * self.N)
        weights = rng.standard_normal((2 * self.N, 4 * self.N))
        x0 = rng.standard_normal(2 * self.N)
        got, got_stop = per.recurrence(phi, x0, dt, 3 * block,
                                       per._force_sampler(model, spd_solver(model.mass)),
                                       offsets, weights, 1.0)
        factor = cho_factor(model.mass)
        states, stop = step_loop(phi, x0, dt, 3 * block,
                                 lambda t: cho_solve(factor, model.force_at(t), check_finite=False),
                                 offsets, weights, 1.0)
        assert stop == 2 * block + block // 2 + 1
        assert got_stop == len(got) - 1 == stop
        assert np.array_equal(states, got, equal_nan=True)
        assert np.isfinite(got[:-1]).all() and np.isnan(got[-1]).all()

    def test_growing_unforced_map_stops_inside_a_block_silently(self):
        # 10x a step: the guard stops at step 12 of a block of 32768 steps;
        # the rest of the block overflows to inf and nan (inf * 0), which
        # must not reach the caller as a warning
        phi = 10.0 * np.eye(4) + np.eye(4, k=1)
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        n_steps = 1000
        assert n_steps < per._BLOCK_FLOATS // len(x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_stop = per.recurrence(phi, x0, 1.0, n_steps, None, (), None, 0.0)
        states, stop = step_loop(phi, x0, 1.0, n_steps, None, (), None, 0.0)
        assert 0 < stop < n_steps
        assert got_stop == len(got) - 1 == stop
        assert np.array_equal(states, got)

    def test_non_finite_load_after_the_stop_is_not_sampled_into_an_error(self):
        # the run stops at step 1; the load turns NaN later in the same
        # block, which the loop samples but never reaches
        def force(t):
            return np.full(12, np.nan) if t > 2.0 else np.eye(12)[3] * np.sin(2.0 * t)

        config = per.PerConfig(dt=1.4, m_b=2, r_b=12)
        with pytest.warns(RuntimeWarning):
            traj = per.integrate(benchmark_chain(3.0).with_force(force), config, 70.0)
        assert traj.diverged
        assert traj.info["diverged_at_step"] == traj.n_steps == 1


class TestPerConfigValidation:
    def test_odd_truncation_rejected(self):
        with pytest.raises(ValueError, match="even integer"):
            per.PerConfig(dt=0.1, m_b=3)

    def test_series_cap(self):
        with pytest.raises(ValueError, match="cap"):
            per.PerConfig(dt=0.1, m_b=62)

    def test_reduced_step(self):
        config = per.PerConfig(dt=1.0, p=3)
        assert config.dt0 == 0.125

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            per.PerConfig(dt=-0.1)

    def test_zero_order_transfer_assembly(self):
        # m = 0 keeps only the leading block [[1, dt],[0, 1]] (x) I
        model = build_chain(2, 1.0, 100.0)
        t_mat = per.assemble_series(model, 0.3, 0, "T")
        expected = np.block([[np.eye(2), 0.3 * np.eye(2)],
                             [np.zeros((2, 2)), np.eye(2)]])
        np.testing.assert_array_equal(t_mat, expected)


class TestIntegrateAsymptotic:
    def test_zero_terms_equals_undamped_solution(self):
        damped = sdof_model(omega=2.0 * np.pi, zeta=0.3)
        undamped = sdof_model(omega=2.0 * np.pi, zeta=0.0)
        config = per.PerConfig(dt=0.02, m_b=8)
        got = per.integrate_asymptotic(damped, config, 0.4, n_terms=0)
        ref = per.integrate_asymptotic(undamped, config, 0.4, n_terms=0)
        np.testing.assert_array_equal(got.displacements, ref.displacements)
        np.testing.assert_array_equal(got.velocities, ref.velocities)

    def test_undamped_corrections_vanish(self):
        model = sdof_model(omega=2.0 * np.pi)
        config = per.PerConfig(dt=0.02, m_b=8)
        many = per.integrate_asymptotic(model, config, 0.4, n_terms=7)
        none = per.integrate_asymptotic(model, config, 0.4, n_terms=0)
        np.testing.assert_array_equal(many.displacements, none.displacements)
        assert all(n == 0.0 for n in many.info["term_norms"][1:])

    def test_matches_summed_scheme_light_damping(self):
        # against the production loop: the doubled propagator carries a
        # measured roundoff floor of ~1e-10 per step relative to the
        # series-limit operator, so the trajectory agreement is checked
        # at 5e-9 over 10 steps; the exact summation identity is covered
        # by test_matches_limit_scheme_exactly
        model = sdof_model(omega=2.0 * np.pi, zeta=0.005)
        config = per.PerConfig(dt=0.01, m_b=8, r_b=12)
        summed = per.integrate(model, config, 0.1)
        partial = per.integrate_asymptotic(model, config, 0.1, n_terms=50)
        dev = max(np.abs(partial.displacements - summed.displacements).max(),
                  np.abs(partial.velocities - summed.velocities).max())
        assert dev <= 5e-9

    def test_matches_limit_scheme_exactly(self):
        # the partial sums must converge to the one-step map built from
        # the same truncated operators with the inverse taken exactly;
        # this is the summation identity, free of propagator error
        model = sdof_model(omega=2.0 * np.pi, zeta=0.05,
                           force=lambda t: np.array([np.sin(3.0 * t)]))
        config = per.PerConfig(dt=0.02, m_b=8)
        n_steps = 10
        t_mat = per.assemble_series(model, config.dt, config.m_b, "T")
        l_mat = per.assemble_series(model, config.dt, config.m_b, "L")
        alpha = per.assemble_series(model, config.dt, config.m_b, "alpha")
        beta = per.assemble_series(model, config.dt, config.m_b, "beta")
        a_lim = np.linalg.solve(np.eye(2) - beta, t_mat + alpha)
        b_lim = np.linalg.solve(np.eye(2) - beta, l_mat)
        state = np.concatenate([model.u0, model.v0])
        limit = [state]
        for k in range(n_steps):
            state = a_lim @ state + b_lim @ per.force_samples(model, k, config.dt)
            limit.append(state)
        limit = np.array(limit)
        partial = per.integrate_asymptotic(model, config, n_steps * config.dt,
                                           n_terms=50)
        got = np.hstack([partial.displacements, partial.velocities])
        assert np.abs(got - limit).max() <= 1e-12 * np.abs(limit).max()

    def test_unforced_run_factorizes_mass_once(self, monkeypatch):
        # the four series share one factorization of M
        calls = []
        solver = per.spd_solver
        monkeypatch.setattr(per, "spd_solver",
                            lambda mat: calls.append(1) or solver(mat))
        model = benchmark_chain(0.1).with_initial_state(np.eye(12)[0], np.zeros(12))
        per.integrate_asymptotic(model, per.PerConfig(dt=0.02, m_b=8), 0.1, n_terms=3)
        assert len(calls) == 1

    def test_forced_run_factorizes_mass_once(self, monkeypatch):
        # the force samples reuse the series' factorization of M
        calls = []
        solver = per.spd_solver
        monkeypatch.setattr(per, "spd_solver",
                            lambda mat: calls.append(1) or solver(mat))
        model = benchmark_chain(0.1).with_force(constant_step_force(12, 3, 0.0, 1.0))
        per.integrate_asymptotic(model, per.PerConfig(dt=0.02, m_b=8), 0.1, n_terms=3)
        assert len(calls) == 1

    def test_diverges_past_the_bound(self):
        model = benchmark_chain(2.0).with_initial_state(
            np.eye(12)[0] * 0.01, np.zeros(12))
        config = per.PerConfig(dt=0.3, m_b=8)
        traj = per.integrate_asymptotic(model, config, 1.5, n_terms=40)
        assert traj.diverged
        norms = traj.info["term_norms"]
        assert norms[-1] > norms[1]
