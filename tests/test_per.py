"""Tests for the perturbation scheme: coefficient families, series
assembly, the doubling algorithm, the forcing factors and both
integration modes."""

import warnings

import numpy as np
import pytest

import scipy.linalg
from hypothesis import given, settings, strategies as st
from oracles import (companion_matrix, damped_free_vibration, dense_scheme, dense_series,
                     doubling_dense_flushed, doubling_unflushed, expm_eig,
                     gauss_panel_integral, increment_at_reduced_step_i_rounded,
                     lagrange_cubic_basis, l2_norm, mass_solved_sampler,
                     profile_doubling_fresh_buffer, profile_step_loop,
                     rotation_propagator, sdof_model, step_loop,
                     system_operators_every_column, undamped_step_increment_eye_first)
from scipy.linalg import cho_factor, cho_solve

import perdyn.per as per
from perdyn import linalg
from perdyn.analysis import beta_radius_map, dt_bound
from perdyn.baselines import expm_2p, state_space
from perdyn.linalg import (DivergenceError, double_increment, neumann_sum,
                           spd_solver, spectral_radius)
from perdyn.model import (SystemModel, _load_sampler, _spectral_extremes, benchmark_beam,
                          benchmark_chain, build_beam, build_chain, constant_step_force,
                          damping_level, step_function)


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

    @staticmethod
    def chain_seed(n_dof):
        model = benchmark_chain(0.1, n_dof)
        config = per.PerConfig(dt=0.8 * dt_bound(model, 8).dt_max, m_b=8)
        seed, _ = per._increment_at_reduced_step(*per.system_operators(model)[1:],
                                                 config.dt0, config.m_a, config.r_a)
        return model, config, seed

    # the block height of 48 rows divides orders 192, 480 and 960, not 200
    @pytest.mark.parametrize("n_dof", [96, 100, 240, 480])
    def test_two_buffers_bit_for_bit(self, n_dof):
        _, config, seed = self.chain_seed(n_dof)
        assert np.array_equal(double_increment(seed, config.p),
                              profile_doubling_fresh_buffer(seed, config.p,
                                                            linalg._DOUBLING_ROWS))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_two_buffers_clear_what_the_flush_drops(self, p):
        # two off-band entries, one right of the first row block and one far
        # left of the band, and the interleaved rows 128-255 (u rows 64-127,
        # v rows 256-319) fall below the flush threshold at the first
        # doubling: no buffer may keep them
        seed = banded_seed(384, 3, (0.5, 0.5), 0.5, 4, np.random.default_rng(3))
        seed[5, 300] = seed[150, 0] = 1e-300
        seed[np.r_[64:128, 256:320]] *= 1e-290
        got = double_increment(seed, p)
        assert np.array_equal(got, profile_doubling_fresh_buffer(seed, p, linalg._DOUBLING_ROWS))
        assert got[5, 300] == got[150, 0] == 0.0 and not got[64:128].any()

    @pytest.mark.parametrize("n_dof", [96, 240, 480])
    def test_a_near_the_128_row_blocks(self, n_dof):
        # the doubling's arithmetic before its blocks were cut to
        # _DOUBLING_ROWS rows is the oracle at height 128
        model, config, seed = self.chain_seed(n_dof)
        got = per.build_scheme(model, config).a
        want = np.eye(2 * n_dof) + profile_doubling_fresh_buffer(seed, config.p, 128)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
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


def random_model(rng):
    """SPD M = X X^T + 1e-3 I and K alike, PSD C = Y Y^T of a random rank,
    X standard normal n x n and Y n x r, each matrix scaled by 10^U(-2, 2),
    of 1 to 6 dof."""
    n = int(rng.integers(1, 7))
    m, k = (x @ x.T + 1e-3 * np.eye(n) for x in rng.standard_normal((2, n, n)))
    y = rng.standard_normal((n, int(rng.integers(0, n + 1))))
    return SystemModel(*(mat * 10.0 ** rng.uniform(-2.0, 2.0) for mat in (m, y @ y.T, k)))


class TestIncrementRule:
    """The Neumann factor of the doubling seed is summed as its increment,
    never as the sum minus I; the oracle is the seed rounded through I."""

    @staticmethod
    def distances(model, frac):
        """(default, I-rounded) max distance of a(dt) from scipy's expm at
        dt = frac dt_max, m_b = 8."""
        config = per.PerConfig(dt=frac * dt_bound(model, 8).dt_max, m_b=8)
        exact = scipy.linalg.expm(state_space(model).w * config.dt)
        a_mat, minv_c = per.system_operators(model)[1:]
        seed = increment_at_reduced_step_i_rounded(a_mat, minv_c, config.dt0,
                                                   config.m_a, config.r_a)
        rounded = np.eye(len(seed)) + doubling_dense_flushed(seed, config.p)
        return (np.abs(per.compute_a(model, config) - exact).max(),
                np.abs(rounded - exact).max())

    def test_beam_a_near_expm(self):
        # 1.07e-11 of the peak with the I-rounded seed
        model = benchmark_beam()
        config = per.PerConfig(dt=2e-5, m_b=8)
        exact = scipy.linalg.expm(state_space(model).w * config.dt)
        a = per.build_scheme(model, config).a
        assert np.abs(a - exact).max() <= 5e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("zeta", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("n_elements", [6, 12, 24])
    def test_beam_no_farther_than_the_rounded_seed(self, n_elements, zeta):
        model = benchmark_beam(zeta_a=zeta, zeta_b=zeta, n_elements=n_elements)
        for frac in (0.1, 0.4, 0.8):
            new, rounded = self.distances(model, frac)
            assert new <= rounded, frac

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.01, 1.0))
    def test_random_models_near_expm(self, seed, frac):
        # a seed summed as dT + alpha_a + dbeta + ... cancels the O(1) blocks
        # +-M^-1 C, and the 2^20 doublings multiply the rounding: up to 5e-4
        # of the peak on these models
        model = random_model(np.random.default_rng(seed))
        config = per.PerConfig(dt=frac * dt_bound(model, 4).dt_max)
        exact = scipy.linalg.expm(state_space(model).w * config.dt)
        assert np.abs(per.compute_a(model, config) - exact).max() <= 1e-11 * np.abs(exact).max()

    @pytest.mark.parametrize("zeta", [0.02, 0.1, 0.5])
    @pytest.mark.parametrize("n_dof", [4, 12, 24])
    def test_chain_within_twice_the_rounded_seed(self, n_dof, zeta):
        # at the doubling's rounding floor either seed may be the nearer
        model = benchmark_chain(zeta, n_dof)
        for frac in (0.1, 0.4, 0.8):
            new, rounded = self.distances(model, frac)
            assert new <= 2.0 * rounded, frac


#: A 3-dof model whose damping matrix has full rank: every dof is damped.
FULL_DAMPING = SystemModel(
    np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
    np.array([[3.0, -1.0, 0.5], [-1.0, 2.0, -0.5], [0.5, -0.5, 1.0]]),
    np.array([[200.0, -100.0, 0.0], [-100.0, 200.0, -100.0], [0.0, -100.0, 100.0]]))


def with_a_load(model):
    """``model`` with a step load at dof 0.  The forcing operators do not
    depend on the load, and the scheme of an unforced model has none."""
    return model.with_force(constant_step_force(model.n_dof, 0, 0.0, 1.0))


class TestDampedColumns:
    """Every damping operator is built on the u and v columns of the damped
    dofs only; the oracle builds each one dense, over all 2N columns."""

    MODELS = {
        "readme-chain": (lambda: build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]),
                         per.PerConfig(dt=0.024, m_b=8, r_b=4)),
        "beam": (benchmark_beam, per.PerConfig(dt=2e-5, m_b=8)),
        "undamped-chain": (lambda: build_chain(12, 1.0, 100.0, []),
                           per.PerConfig(dt=0.024, m_b=8, r_b=4)),
        "full-damping": (lambda: FULL_DAMPING, per.PerConfig(dt=0.1)),
    }

    @staticmethod
    def check(model, config):
        """Compare the library with the dense oracle: the series and the radii
        bit for bit, the Neumann factor to roundoff."""
        beta_b, a, neumann_b, rho_a, rho_b = dense_scheme(model, config)
        _, a_mat, minv_c = per.system_operators(model)
        cols, rho, (beta,) = per._damped_series(a_mat, minv_c, config.dt, config.m_b,
                                                per.coeff_beta)
        got = np.zeros_like(beta_b)
        got[:, cols] = beta
        scheme = per.build_scheme(with_a_load(model), config)
        radii = (rho, scheme.rho_beta_b, beta_radius_map(model, [config.dt], config.m_b)[0][1])
        assert np.array_equal(got, beta_b)
        assert radii == (rho_b,) * 3 and scheme.rho_beta_a == rho_a
        assert np.abs(scheme.neumann_b - neumann_b).max() <= 1e-15 * np.abs(neumann_b).max()
        exact = scipy.linalg.expm(state_space(model).w * config.dt)
        assert np.abs(scheme.a - exact).max() <= np.abs(a - exact).max()
        return cols

    @pytest.mark.parametrize("name", list(MODELS))
    def test_equals_the_dense_operators(self, name):
        make, config = self.MODELS[name]
        model = make()
        cols = self.check(model, config)
        damped = np.flatnonzero(model.damping.any(axis=0))
        np.testing.assert_array_equal(cols, np.concatenate([damped, model.n_dof + damped]))

    def test_beam_radius_is_exact_to_roundoff(self):
        # rho(beta_a) of the benchmark beam against the 50-digit radius of the
        # same float block; the eigensolve of the 2N x 2N square was 7.1e-12 off
        mpmath = pytest.importorskip("mpmath")
        model = benchmark_beam()
        config = per.PerConfig(dt=2e-5, m_b=8)
        _, a_mat, minv_c = per.system_operators(model)
        cols, _, (beta_a,) = per._damped_series(a_mat, minv_c, config.dt0, config.m_a,
                                                per.coeff_beta)
        with mpmath.workdps(50):
            eigs = mpmath.eig(mpmath.matrix(beta_a[cols].tolist()), left=False, right=False)
            exact = float(max(abs(e) for e in eigs))
        assert abs(per.build_scheme(model, config).rho_beta_a - exact) <= 1e-14 * exact

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.05, 1.0))
    def test_random_models(self, seed, frac):
        # C = Y Y^T of a random rank, with a random set of dofs undamped
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        n = model.n_dof
        undamped = rng.random(n) < rng.random()
        damping = np.where(undamped[:, None] | undamped[None, :], 0.0, model.damping)
        model = SystemModel(model.mass, damping, model.stiffness)
        self.check(model, per.PerConfig(dt=frac * dt_bound(model, 4).dt_max))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_rho_minv_c_from_the_damped_block(self, seed):
        # against the eigensolve of the pencil (C, M) over all N dofs, on the
        # models of test_random_models, whose C may be zero.  Both solves are
        # off the 50-digit radius by up to about eps cond(M) (5e-13 and 6.5e-13
        # at most on 592 damped models, medians 8.8e-16 and 7.6e-16)
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        undamped = rng.random(model.n_dof) < rng.random()
        damping = np.where(undamped[:, None] | undamped[None, :], 0.0, model.damping)
        model = SystemModel(model.mass, damping, model.stiffness)
        want = np.abs(scipy.linalg.eigh(model.damping, model.mass, eigvals_only=True)).max()
        tol = max(1e-14, 8.0 * np.finfo(float).eps * np.linalg.cond(model.mass))
        assert abs(_spectral_extremes(model)[1] - want) <= tol * want

    @pytest.mark.parametrize("name", ["undamped-chain", "readme-chain", "beam"])
    def test_rho_minv_c_of_the_named_models(self, name):
        model = self.MODELS[name][0]()
        want = np.abs(scipy.linalg.eigh(model.damping, model.mass, eigvals_only=True)).max()
        got = _spectral_extremes(model)[1]
        assert abs(got - want) <= 1e-14 * want and (got == 0.0) == (name == "undamped-chain")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.05, 1.0))
    def test_one_damped_dof(self, seed, frac):
        # one damper among 2 to 39 dofs: M^-1 C has one nonzero column, whose
        # series sums as the dense product's column does, bit for bit (as a
        # matrix-vector product it was up to 2.5e-14 of the peak away)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m, k = (x @ x.T + 1e-3 * np.eye(n) for x in rng.standard_normal((2, n, n)))
        damping = np.zeros((n, n))
        damping[(d := rng.integers(n)), d] = 10.0 ** rng.uniform(-2.0, 2.0)
        model = SystemModel(m, damping, k)
        cols = self.check(model, per.PerConfig(dt=frac * dt_bound(model, 4).dt_max))
        np.testing.assert_array_equal(cols, [d, n + d])


def one_damped_dof():
    """9 dof with a dense mass and one damper, so that M^-1 C has one nonzero
    column, solved through the full triangular factor."""
    m, k = (x @ x.T + 1e-3 * np.eye(9)
            for x in np.random.default_rng(5).standard_normal((2, 9, 9)))
    damping = np.zeros((9, 9))
    damping[4, 4] = 3.0
    return SystemModel(m, damping, k)


class TestSetupOldForms:
    """The setup's shortcuts against the forms they replaced, bit for bit and
    sign bit for sign bit: M^-1 C solved on the nonzero columns of C against
    one solve over every column, and A (or B) taken as the identity's first
    power against the product A @ I."""

    MODELS = {
        "readme-chain": (lambda: build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]),
                         0.024),
        **{f"setup-scaling-{n}": (lambda n=n: benchmark_chain(0.1, n_dof=n), None)
           for n in (96, 240, 480)},
        "beam": (benchmark_beam, 2e-5),
        "one-damped-dof": (one_damped_dof, None),
        "undamped-chain": (lambda: build_chain(12, 1.0, 100.0), 0.024),
        "full-damping": (lambda: FULL_DAMPING, 0.1),
    }

    def case(self, name):
        """The model and its config at m_b = 8: at the named dt, or at 0.8
        dt_max as the setup-scaling benchmark runs."""
        make, dt = self.MODELS[name]
        model = make()
        return model, per.PerConfig(dt=dt or 0.8 * dt_bound(model, 8).dt_max, m_b=8)

    @staticmethod
    def same(got, want):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("name", list(MODELS))
    def test_each_operator(self, name):
        model, config = self.case(name)
        ops = per.system_operators(model)[1:]
        for got, want in zip(ops, system_operators_every_column(model)):
            self.same(got, want)
        a_mat = ops[0]
        coeffs = (per.coeff_t, per.coeff_l)
        for got, want in zip(per._series(a_mat, None, config.dt, config.m_b, *coeffs),
                             dense_series(a_mat, None, config.dt, config.m_b, *coeffs)):
            self.same(got, want)
        for dt, m in ((config.dt0, config.m_a), (config.dt, config.m_b)):
            self.same(per.undamped_step_increment(a_mat, dt, m),
                      undamped_step_increment_eye_first(a_mat, dt, m))

    # the larger chains are left to test_each_operator: each build takes seconds
    @pytest.mark.parametrize("name", [n for n in MODELS if n[-3:] not in ("240", "480")])
    def test_scheme(self, name, monkeypatch):
        # build_scheme again with the three old forms patched in
        model, config = self.case(name)
        model = with_a_load(model)
        new = per.build_scheme(model, config)
        series = per._series
        monkeypatch.setattr(per, "system_operators", lambda m: (
            spd_solver(m.mass), *system_operators_every_column(m)))
        monkeypatch.setattr(per, "undamped_step_increment", undamped_step_increment_eye_first)
        monkeypatch.setattr(per, "_series", lambda a_mat, start, *rest: (
            dense_series if start is None else series)(a_mat, start, *rest))
        old = per.build_scheme(model, config)
        for key in ("a", "neumann_b", "l_b"):
            self.same(getattr(new, key), getattr(old, key))
        assert (new.rho_beta_a, new.rho_beta_b) == (old.rho_beta_a, old.rho_beta_b)


# ---------------------------------------------------------------------------
# Forcing factors

class TestUnforcedScheme:
    def test_no_forcing_operators_without_a_load(self, monkeypatch):
        model = benchmark_chain(0.1, 24)
        config = per.PerConfig(dt=0.05, m_b=8)
        calls = []
        coeff_l = per.coeff_l
        monkeypatch.setattr(per, "coeff_l", lambda *args: calls.append(args) or coeff_l(*args))
        scheme = per.build_scheme(model, config)
        assert not calls and scheme.neumann_b is None and scheme.l_b is None
        # a forced copy: the operators of compute_b_factors, bit for bit, L_b
        # on the load's dof 0, and the same a and radii, which do not depend
        # on the load
        forced = per.build_scheme(with_a_load(model), config)
        assert calls
        factors = per.compute_b_factors(model, config)
        TestSetupOldForms.same(forced.neumann_b, factors.neumann_b)
        assert np.array_equal(forced.l_b, per._fold(factors.l_b, np.eye(24)[:, :1]))
        TestSetupOldForms.same(forced.a, scheme.a)
        assert (forced.rho_beta_a, forced.rho_beta_b) == (scheme.rho_beta_a, scheme.rho_beta_b)
        assert scheme.rho_beta_b == factors.rho_beta_b


def two_load_beam():
    """The beam of tools/cli_identity.py whose load has a support of two dofs."""
    return build_beam(2.0, 3e5, 120.0, 6, supports=[(3, 1e4, 50.0), (6, 0.0, 20.0)],
                      point_loads=[(6, -1.0, step_function(2e-3, 300.0)),
                                   (3, 1.0, step_function(5e-3, 100.0))])


class TestForcingOnTheSupport:
    """build_scheme sums l_b = L_b M^-1 E_S from M^-1 E_S; the oracle folds
    M^-1 E_S into compute_b_factors' L_b, summed on the identity.  The two
    agree bit for bit on the chains, whose M^-1 E_S is E_S, and to roundoff
    elsewhere, at 0.8 dt_max or the model's tools/cli_identity.py step."""

    CASES = {
        "chain12": (lambda: benchmark_chain(0.1).with_force(constant_step_force(12, 3, 0.0, 1.0)),
                    None, 0.0),
        "chain480": (lambda: benchmark_chain(0.1, 480).with_force(
            constant_step_force(480, 3, 0.0, 1.0)), None, 0.0),
        "beam": (benchmark_beam, 2e-5, 1e-14),
        "beam-two-loads": (two_load_beam, 1e-4, 1e-14),
        "full-damping": (lambda: FULL_DAMPING.with_force(constant_step_force(3, 1, 0.3, 5.0)),
                         0.1, 1e-14),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_l_b_near_the_folded_identity_sum(self, case):
        make, dt, bound = self.CASES[case]
        model = make()
        config = per.PerConfig(dt=dt or 0.8 * dt_bound(model, 8).dt_max, m_b=8, r_b=4)
        got = per.build_scheme(model, config).l_b
        want = per._fold(per.compute_b_factors(model, config).l_b,
                         model.solve_mass(_load_sampler(model)[0]))
        assert got.shape == want.shape == (2 * model.n_dof, 4 * len(model.force._support[0]))
        assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("case", list(CASES))
    def test_compute_b_factors_keeps_the_full_l_b(self, case):
        # summed on the identity, L_b equals the sum whose first power is A itself
        make, dt, _ = self.CASES[case]
        model = make()
        config = per.PerConfig(dt=dt or 0.8 * dt_bound(model, 8).dt_max, m_b=8, r_b=4)
        a_mat = per.system_operators(model)[1]
        TestSetupOldForms.same(per.compute_b_factors(model, config).l_b,
                               per._series(a_mat, None, config.dt, config.m_b, per.coeff_l)[0])


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

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_neumann_sum_is_the_power_sum(self, rng, order):
        mat = 0.4 * rng.standard_normal((7, 7)) / np.sqrt(7.0)
        want = sum(np.linalg.matrix_power(mat, k) for k in range(order + 1))
        assert np.abs(neumann_sum(mat, order) - want).max() <= 1e-15 * np.abs(want).max()

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

    def test_t_max_shorter_than_step_rejected(self):
        with pytest.raises(ValueError, match="one time step"):
            per.integrate(sdof_model(), per.PerConfig(dt=0.1), 0.05)

    def test_single_step_run(self):
        traj = per.integrate(sdof_model(zeta=0.1), per.PerConfig(dt=0.1), 0.1)
        assert traj.n_steps == 1
        assert traj.times[-1] == pytest.approx(0.1)

    def test_info_carries_rho_beta_a(self):
        # the radius of the doubling start's beta_a, at the reduced step dt0:
        # that of its block on the u and v columns of the damped dofs
        model = benchmark_chain(0.5)
        config = per.PerConfig(dt=0.02, m_b=8)
        beta_a = per.assemble_series(model, config.dt0, config.m_a, "beta")
        damped = np.flatnonzero(model.damping.any(axis=0))
        cols = np.concatenate([damped, model.n_dof + damped])
        info = per.integrate(model, config, 0.1).info
        assert info["rho_beta_a"] == linalg.spectral_radius(beta_a[np.ix_(cols, cols)]) > 0.0


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
                                       mass_solved_sampler(model, spd_solver(model.mass)),
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
                                       mass_solved_sampler(model, spd_solver(model.mass)),
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


def banded_map(n_dof, scale, skip=0):
    """scale * [[T, 0.2 T], [-0.2 T, T]], T = tridiag(0.25, 0.6, 0.25) of order
    n_dof with its first ``skip`` rows zero: banded in the interleaved order."""
    t = 0.6 * np.eye(n_dof) + 0.25 * (np.eye(n_dof, k=1) + np.eye(n_dof, k=-1))
    t[:skip] = 0.0
    return scale * np.kron(np.array([[1.0, 0.2], [-0.2, 1.0]]), t)


class TestProfileLoop:
    """A step map with a narrow nonzero profile is stepped one row block at
    a time over that profile; every other map keeps the dense loop."""

    N = 480
    STEPS = 100

    @pytest.fixture(scope="class")
    def chain480(self):
        # the setup-scaling chain at 0.8 dt_max, and a copy with a step load
        # at its far end; both take the same a
        model = benchmark_chain(0.1, self.N).with_initial_state(
            1e-2 * np.sin(np.arange(self.N) + 1.0), None)
        config = per.PerConfig(dt=0.8 * dt_bound(model, 8).dt_max, m_b=8)
        forced = model.with_force(constant_step_force(self.N, self.N - 1, 5 * config.dt, 3.0))
        return model, forced, config, per.build_scheme(forced, config)

    @staticmethod
    def near(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_chain480_unforced_near_the_dense_loop(self, chain480):
        model, _, config, scheme = chain480
        assert per._profile_blocks(scheme.a)[1] is not None
        traj = per.integrate(model, config, self.STEPS * config.dt)
        states, stop = step_loop(scheme.a, np.concatenate([model.u0, model.v0]), config.dt,
                                 self.STEPS, None, (), None, 0.0)
        assert stop is None and traj.n_steps == self.STEPS and not traj.diverged
        self.near(np.hstack([traj.displacements, traj.velocities]), states)

    def test_chain480_forced_near_the_dense_loop(self, chain480):
        # the oracle steps L_b on the N-wide samples M^-1 f
        _, model, config, scheme = chain480
        traj = per.integrate(model, config, self.STEPS * config.dt)
        factor, l_b = cho_factor(model.mass), per.compute_b_factors(model, config).l_b
        states, stop = step_loop(scheme.a, np.concatenate([model.u0, model.v0]), config.dt,
                                 self.STEPS, lambda t: cho_solve(factor, model.force_at(t)),
                                 per._per_offsets(config.dt), scheme.neumann_b @ l_b,
                                 np.linalg.norm(l_b, 2))
        assert stop is None and traj.n_steps == self.STEPS and not traj.diverged
        assert np.abs(states[-1, self.N - 1]) > 10.0 * np.abs(states[0, self.N - 1])
        self.near(np.hstack([traj.displacements, traj.velocities]), states)

    def test_growing_map_stops_at_the_dense_step(self):
        phi = banded_map(200, 1.0)
        assert spectral_radius(phi) > 1.1 and per._profile_blocks(phi)[1] is not None
        x0 = np.random.default_rng(3).standard_normal(400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_stop = per.recurrence(phi, x0, 1.0, 1000, None, (), None, 0.0)
        states, stop = step_loop(phi, x0, 1.0, 1000, None, (), None, 0.0)
        assert 100 < stop < 1000 and got_stop == len(got) - 1 == stop
        assert np.abs(got - states).max() <= 1e-12 * np.abs(states).max()

    def test_nan_sample_ends_the_run(self):
        n, dt = 200, 0.2
        offsets = per._per_offsets(dt)
        rows = np.eye(n)
        model = build_chain(n, 1.0, 100.0).with_force(
            lambda t: rows[7] * (np.nan if t > 30.05 else np.cos(t)))
        phi = banded_map(n, 0.5)
        weights = np.random.default_rng(11).standard_normal((2 * n, 4 * n))
        x0 = np.random.default_rng(12).standard_normal(2 * n)
        got, got_stop = per.recurrence(phi, x0, dt, 400,
                                       mass_solved_sampler(model, spd_solver(model.mass)),
                                       offsets, weights, 1.0)
        factor = cho_factor(model.mass)
        states, stop = step_loop(phi, x0, dt, 400,
                                 lambda t: cho_solve(factor, model.force_at(t), check_finite=False),
                                 offsets, weights, 1.0)
        assert stop == 151 and got_stop == len(got) - 1 == stop
        assert np.isfinite(got[:-1]).all() and np.isnan(got[-1]).all()
        assert np.abs(got[:-1] - states[:-1]).max() <= 1e-12 * np.abs(states[:-1]).max()

    @pytest.mark.parametrize("forced", [False, True])
    def test_equals_its_step_by_step_block_loop(self, forced, monkeypatch):
        # the first row block is zero and skipped; the samples come in
        # blocks of 16 steps
        monkeypatch.setattr(per, "_BLOCK_FLOATS", 16 * 600)
        n, dt = 150, 0.2
        phi = banded_map(n, 0.99, skip=64)
        assert len(per._profile_blocks(phi)[1]) == 2
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(2 * n)
        forcing = (None, (), None, 0.0)
        if forced:
            model = build_chain(n, 1.0, 100.0).with_force(
                lambda t: np.eye(n)[3] * np.sin(2.0 * t))
            factor = cho_factor(model.mass)
            forcing = (lambda t: cho_solve(factor, model.force_at(t)), per._per_offsets(dt),
                       rng.standard_normal((2 * n, 4 * n)), 1.0)
        states, stop = profile_step_loop(phi, x0, dt, 100, *forcing)
        if forced:
            forcing = (mass_solved_sampler(model, spd_solver(model.mass)), *forcing[1:])
        got, got_stop = per.recurrence(phi, x0, dt, 100, *forcing)
        assert stop is None is got_stop
        assert np.array_equal(got, states)

    @staticmethod
    def wide_band_map():
        """Zero entries, but windows that cover all but 0.3% of the map."""
        return 0.3 * banded_map(150, 1.0) + sum(0.01 * np.eye(300, k=k) for k in range(-40, 40))

    @staticmethod
    def chain_map(n_dof):
        model = benchmark_chain(0.1, n_dof)
        return per.build_scheme(model, per.PerConfig(dt=0.8 * dt_bound(model, 8).dt_max, m_b=8)).a

    @pytest.mark.parametrize("case", ["chain96", "chain240", "chain480", "growing", "nan-sample",
                                      "skip-64", "wide-band"])
    def test_cheap_rejection_keeps_the_choice(self, case, chain480):
        phi = {"chain96": lambda: self.chain_map(96), "chain240": lambda: self.chain_map(240),
               "chain480": lambda: chain480[3].a, "growing": lambda: banded_map(200, 1.0),
               "nan-sample": lambda: banded_map(200, 0.5),
               "skip-64": lambda: banded_map(150, 0.99, skip=64),
               "wide-band": self.wide_band_map}[case]()
        # the choice of the pass over every row
        n = len(phi)
        _, first, stop = linalg._interleaved_profile(phi)
        rows = [slice(r0, r0 + 128) for r0 in range(0, n, 128)]
        area = sum(len(first[r]) * (stop[r].max() - first[r].min())
                   for r in rows if first[r].min() < n)
        assert (per._profile_blocks(phi)[1] is None) == (2 * area > n * n)

    def test_chain240_rejected_before_the_full_pass(self, monkeypatch):
        phi = self.chain_map(240)
        monkeypatch.setattr(per, "_interleaved_profile", lambda mat: pytest.fail("full pass"))
        assert per._profile_blocks(phi) == (None, None)

    @pytest.mark.parametrize("case", ["beam", "chain12", "no-zero", "wide-band"])
    def test_dense_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(6)
        if case == "beam":
            phi = per.build_scheme(benchmark_beam(), per.PerConfig(dt=2e-5, m_b=8)).a
        elif case == "chain12":
            phi = per.build_scheme(build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]),
                                   per.PerConfig(dt=0.024, m_b=8)).a
        elif case == "no-zero":
            phi = 0.9 * np.eye(300) + 1e-3 * rng.random((300, 300))
        else:
            phi = self.wide_band_map()
        assert per._profile_blocks(phi) == (None, None)
        x0 = rng.standard_normal(len(phi))
        got, got_stop = per.recurrence(phi, x0, 0.1, 300, None, (), None, 0.0)
        states, stop = step_loop(phi, x0, 0.1, 300, None, (), None, 0.0)
        assert got_stop == stop
        assert np.array_equal(got, states)


class TestPerConfigValidation:
    def test_odd_truncation_rejected(self):
        with pytest.raises(ValueError, match="even integer"):
            per.PerConfig(dt=0.1, m_b=3)

    def test_series_cap(self):
        with pytest.raises(ValueError, match="cap"):
            per.PerConfig(dt=0.1, m_b=62)

    @pytest.mark.parametrize("name", ["r_a", "r_b"])
    def test_neumann_cap(self, name):
        # a Neumann order of 1e300 from a config ran its 5e299 products and never returned
        per.PerConfig(dt=0.1, **{name: 1000})
        for order in (1002, int(1e300)):
            with pytest.raises(ValueError, match=f"^{name} exceeds the series cap 1000$"):
                per.PerConfig(dt=0.1, **{name: order})
        with pytest.raises(ValueError, match="cap 1000"):
            neumann_sum(np.zeros((2, 2)), 1002)

    def test_reduced_step(self):
        config = per.PerConfig(dt=1.0, p=3)
        assert config.dt0 == 0.125

    @pytest.mark.parametrize("p", [1023, 1024, 2000, 10 ** 30])
    def test_reduced_step_out_of_range_rejected(self, p):
        # 2.0 ** p overflows from p = 1024; below, dt/2^p leaves the normal range
        with pytest.raises(ValueError, match="'p' = "):
            per.PerConfig(dt=0.01, p=p)

    def test_reduced_step_at_the_normal_range(self):
        assert per.PerConfig(dt=1.0, p=1022).dt0 == np.finfo(float).tiny
        assert per.PerConfig(dt=0.0, p=2000).dt0 == 0.0

    @settings(max_examples=500, deadline=None)
    @given(t=st.floats(0.0, exclude_min=True, allow_infinity=False), p=st.integers(1, 1022))
    def test_reduced_step_is_the_quotient(self, t, p):
        # ldexp(t, -p) is t/2^p wherever 2.0 ** p does not overflow; a
        # quotient below the normal range is rejected, not returned
        quotient = t / 2.0 ** p
        if quotient >= np.finfo(float).tiny:
            assert linalg._reduced_step(t, p) == quotient
        else:
            with pytest.raises(ValueError, match=f"'p' = {p} is too large"):
                linalg._reduced_step(t, p)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            per.PerConfig(dt=-0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            per.PerConfig(dt=dt)

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

    def test_diverges_past_the_bound(self):
        model = benchmark_chain(2.0).with_initial_state(
            np.eye(12)[0] * 0.01, np.zeros(12))
        config = per.PerConfig(dt=0.3, m_b=8)
        traj = per.integrate_asymptotic(model, config, 1.5, n_terms=40)
        assert traj.diverged
        norms = traj.info["term_norms"]
        assert norms[-1] > norms[1]
