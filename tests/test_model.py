"""Tests for system builders, modal analysis and the damping metric."""

import json
import sys
import warnings

import numpy as np
import pytest

from oracles import generalized_modes, sdof_model

import perdyn.per as per
from perdyn.analysis import beta_radius_map, dt_bound
from perdyn.bench import reference_solution, run_method
from perdyn.cli import RunConfig, main
from perdyn.model import (SystemModel, _force_rows, beam_matrices,
                          benchmark_beam, benchmark_chain, build_beam,
                          build_chain, constant_step_force, damping_level,
                          gaussian_multiharmonic_force, modal_analysis,
                          step_function)


def watch_factorizations(monkeypatch):
    """The list of the matrices that perdyn factorizes by Cholesky from now on:
    every call of scipy's cho_factor or cholesky that a perdyn module holds,
    linalg.spd_solver's among them."""
    seen = []
    for name, module in list(sys.modules.items()):
        if name == "perdyn" or name.startswith("perdyn."):
            for key in ("cho_factor", "cholesky"):
                if key in vars(module):
                    monkeypatch.setattr(module, key, lambda mat, *args, fn=vars(module)[key],
                                        **kw: seen.append(np.array(mat)) or fn(mat, *args, **kw))
    return seen


class TestBuildChain:
    def test_sdof_frequency(self):
        model = build_chain(1, 1.0, 100.0)
        modal = modal_analysis(model)
        assert modal.frequencies[0] == pytest.approx(10.0, abs=1e-12)

    def test_two_dof_closed_form(self):
        # fixed-free 2-dof chain: omega^2 = (K/M) * (3 -+ sqrt(5))/2
        model = build_chain(2, 1.0, 100.0)
        modal = modal_analysis(model)
        base = np.sqrt(100.0)
        expected = base * np.sqrt([(3.0 - np.sqrt(5.0)) / 2.0,
                                   (3.0 + np.sqrt(5.0)) / 2.0])
        np.testing.assert_allclose(modal.frequencies, expected, rtol=1e-12)

    def test_zero_dampers_gives_zero_damping_matrix(self):
        model = build_chain(5, 2.0, 50.0, [(0, None, 0.0), (1, 2, 0.0)])
        assert np.all(model.damping == 0.0)

    def test_damper_assembly(self):
        model = build_chain(3, 1.0, 10.0, [(0, None, 2.0), (1, 2, 3.0)])
        expected = np.array([[2.0, 0.0, 0.0],
                             [0.0, 3.0, -3.0],
                             [0.0, -3.0, 3.0]])
        np.testing.assert_allclose(model.damping, expected)

    def test_out_of_range_damper_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_chain(3, 1.0, 10.0, [(5, None, 1.0)])

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            build_chain(3, 1.0, 10.0, [(0, None, -1.0)])

    def test_builder_symmetry(self):
        model = benchmark_chain(0.3, n_dof=9)
        for mat in (model.mass, model.damping, model.stiffness):
            dev = np.abs(mat - mat.T).max()
            assert dev <= 1e-12 * max(np.abs(mat).max(), 1.0)


class TestBuildBeam:
    def test_dof_count(self):
        model = build_beam(3.0, 437.5e3, 235.5, 24)
        assert model.n_dof == 48

    def test_static_tip_deflection_single_element(self):
        # cantilever tip deflection under constant end force: f l^3 / (3 EI)
        length, ei, f0 = 2.0, 1.0e4, 50.0
        model = build_beam(length, ei, 10.0, 1,
                           point_loads=[(1, 1.0, lambda t: f0)])
        u_static = np.linalg.solve(model.stiffness, model.force_at(1.0))
        assert u_static[0] == pytest.approx(f0 * length**3 / (3.0 * ei), rel=1e-12)

    def test_static_tip_deflection_by_long_integration(self):
        from perdyn.baselines import newmark
        length, ei, f0 = 2.0, 1.0e4, 50.0
        model = build_beam(length, ei, 10.0, 1,
                           supports=[(1, 0.0, 200.0)],
                           point_loads=[(1, 1.0, lambda t: f0)])
        t_settle = 40.0
        traj = newmark(model, 0.005, t_settle)
        assert traj.displacements[-1, 0] == pytest.approx(
            f0 * length**3 / (3.0 * ei), rel=1e-4)

    def test_no_supports_no_damping(self):
        model = build_beam(3.0, 437.5e3, 235.5, 6)
        assert np.all(model.damping == 0.0)

    def test_support_node_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_beam(3.0, 437.5e3, 235.5, 4, supports=[(9, 1.0, 0.0)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("name", ["length", "bending_stiffness", "total_mass"])
    def test_length_ei_and_mass_must_be_finite_and_positive(self, name, bad):
        values = {"length": 3.0, "bending_stiffness": 437.5e3, "total_mass": 235.5, name: bad}
        for build in (lambda: build_beam(*values.values(), 4), lambda: benchmark_beam(**values)):
            with pytest.raises(ValueError,
                               match=f"^{name} must be finite and positive, got {bad}$"):
                build()

    def test_rigid_body_translation_free_free(self):
        mass, stiff = beam_matrices(3.0, 437.5e3, 235.5, 8)
        rigid = np.zeros(stiff.shape[0])
        rigid[0::2] = 1.0  # unit deflection, zero rotation everywhere
        residual = np.abs(stiff @ rigid).max()
        assert residual <= 1e-9 * np.abs(stiff).max()

    def test_rigid_body_rotation_free_free(self):
        length, n_el = 3.0, 8
        mass, stiff = beam_matrices(length, 437.5e3, 235.5, n_el)
        x = np.linspace(0.0, length, n_el + 1)
        rigid = np.zeros(stiff.shape[0])
        rigid[0::2] = x    # w = x
        rigid[1::2] = 1.0  # theta = 1
        assert np.abs(stiff @ rigid).max() <= 1e-9 * np.abs(stiff).max()

    def test_total_mass(self):
        total = 235.5
        mass, _ = beam_matrices(3.0, 437.5e3, total, 12)
        ones_w = np.zeros(mass.shape[0])
        ones_w[0::2] = 1.0
        assert ones_w @ mass @ ones_w == pytest.approx(total, rel=1e-9)

    def test_benchmark_beam_configuration(self):
        model = benchmark_beam()
        assert model.n_dof == 48
        # two damped supports on deflection dofs only
        diag = np.diag(model.damping)
        assert np.count_nonzero(diag) == 2
        assert np.count_nonzero(model.damping) == 2
        # step load appears after t_c at the tip deflection dof
        assert np.all(model.force_at(0.0) == 0.0)
        f = model.force_at(0.02)
        assert f[2 * 24 - 2] == pytest.approx(-1.0e3)

    def test_builder_symmetry(self):
        model = benchmark_beam(n_elements=6)
        for mat in (model.mass, model.damping, model.stiffness):
            dev = np.abs(mat - mat.T).max()
            assert dev <= 1e-12 * max(np.abs(mat).max(), 1.0)


class TestModalAnalysis:
    def test_sdof(self):
        modal = modal_analysis(build_chain(1, 1.0, 100.0))
        assert modal.frequencies[0] == pytest.approx(10.0)
        assert abs(modal.mode_shapes[0, 0]) == pytest.approx(1.0)

    def test_mass_normalization(self, chain12):
        modal = modal_analysis(chain12)
        gram = modal.mode_shapes.T @ chain12.mass @ modal.mode_shapes
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-9)

    def test_frequencies_match_brute_force(self, chain12):
        modal = modal_analysis(chain12)
        ref_freqs, _ = generalized_modes(chain12.stiffness, chain12.mass)
        np.testing.assert_allclose(modal.frequencies, ref_freqs, rtol=1e-8)

    def test_modal_residual(self, chain12):
        modal = modal_analysis(chain12)
        res = (chain12.stiffness @ modal.mode_shapes
               - chain12.mass @ modal.mode_shapes @ np.diag(modal.frequencies**2))
        assert np.abs(res).max() <= 1e-8 * np.abs(chain12.stiffness).max()

    def test_frequencies_sorted(self, chain12):
        freqs = modal_analysis(chain12).frequencies
        assert np.all(np.diff(freqs) >= 0.0)
        assert np.all(freqs >= 0.0)

    def test_min_period(self):
        modal = modal_analysis(build_chain(1, 1.0, 100.0))
        assert modal.min_period == pytest.approx(2.0 * np.pi / 10.0)


class TestDampingLevel:
    def test_undamped_is_zero(self):
        assert damping_level(build_chain(3, 1.0, 10.0)) == 0.0

    def test_sdof_is_twice_zeta(self):
        model = sdof_model(omega=3.0, zeta=0.2)
        assert damping_level(model) == pytest.approx(0.4, rel=1e-12)

    def test_linear_in_zeta(self):
        lvl1 = damping_level(benchmark_chain(0.05))
        lvl2 = damping_level(benchmark_chain(0.35))
        assert lvl2 / lvl1 == pytest.approx(7.0, abs=1e-10)

    def test_zero_stiffness_rejected(self):
        model = SystemModel(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="stiffness"):
            damping_level(model)


class TestSystemModelValidation:
    def test_asymmetric_mass_rejected(self):
        mass = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SystemModel(mass, np.zeros((2, 2)), np.eye(2))

    def test_symmetry_message_and_tolerance(self):
        # an exact transpose skips the deviation; any other matrix is measured
        # against 1e-12 of its peak, as before the exact test
        mass = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError) as exc:
            SystemModel(mass, np.zeros((2, 2)), np.eye(2))
        assert str(exc.value) == "mass matrix is not symmetric (deviation 5.000e-01)"
        near = np.array([[2.0, 0.5], [0.5 + 1e-13, 2.0]])
        assert not np.array_equal(near, near.T)
        assert SystemModel(np.eye(2), np.zeros((2, 2)), near).stiffness[1, 0] == near[1, 0]

    def test_indefinite_mass_rejected(self):
        mass = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="positive definite"):
            SystemModel(mass, np.zeros((2, 2)), np.eye(2))

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            SystemModel(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["mass", "damping", "stiffness"])
    def test_non_finite_matrix_rejected(self, name, value):
        mats = {"mass": np.eye(2), "damping": np.eye(2), "stiffness": np.eye(2)}
        mats[name][1, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected up front, not after a RuntimeWarning
            with pytest.raises(ValueError, match=f"^{name} matrix must be finite$"):
                SystemModel(**mats)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            SystemModel(np.eye(2), np.zeros((3, 3)), np.eye(2))

    def test_arrays_read_only(self):
        model = build_chain(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            model.mass[0, 0] = 5.0


class TestDerivedModels:
    """A model made from a checked one shares the arrays it keeps and checks
    only the ones it replaces."""

    @pytest.fixture
    def choleskys(self, monkeypatch):
        # one Cholesky check of each matrix: the mass's is its solve_mass
        return watch_factorizations(monkeypatch)

    def test_cholesky_checks(self, choleskys):
        base = benchmark_chain(0.1, 96)
        assert len(choleskys) == 3
        moved = base.with_initial_state(np.ones(96), None).with_force(
            constant_step_force(96, 3, 0.0, 1.0))
        assert len(choleskys) == 3
        assert all(getattr(moved, name) is getattr(base, name)
                   for name in ("mass", "damping", "stiffness", "solve_mass"))
        np.testing.assert_array_equal(moved.v0, np.zeros(96))
        assert not moved.u0.flags.writeable and not moved.v0.flags.writeable
        damped = moved.with_damping(2.0 * base.damping)
        assert len(choleskys) == 4
        assert damped.u0 is moved.u0 and damped.force is moved.force
        assert damped.solve_mass is base.solve_mass
        assert not damped.damping.flags.writeable
        np.testing.assert_array_equal(damped.damping, 2.0 * base.damping)

    def test_cholesky_checks_of_a_cli_model(self, choleskys):
        config = RunConfig.from_dict({
            "model": {"kind": "chain", "zeta": 0.1, "n_dof": 96},
            "force": {"kind": "constant-step", "dof": 3, "f0": 1.0},
            "dt": 0.1, "t_max": 1.0, "u0": [0.01] * 96})
        model = config.build_model()
        assert len(choleskys) == 3
        assert model.force is not None and model.u0[0] == 0.01

    def test_replaced_fields_keep_their_messages(self):
        base = benchmark_chain(0.1)
        for u0, v0 in ((np.ones(11), None), (None, np.ones(13))):
            with pytest.raises(ValueError,
                               match="^initial state dimensions disagree with the matrices$"):
                base.with_initial_state(u0, v0)
        asymmetric = base.damping.copy()
        asymmetric[0, 1] += 1.0
        with pytest.raises(ValueError, match="^damping matrix is not symmetric"):
            base.with_damping(asymmetric)
        with pytest.raises(ValueError, match="^damping matrix must be positive semidefinite$"):
            base.with_damping(-base.damping)
        with pytest.raises(ValueError, match="^mass, damping and stiffness dimensions disagree$"):
            base.with_damping(np.zeros((3, 3)))


#: The model entry of the README chain's run configuration.
README_CHAIN = {"kind": "chain", "n_dof": 12, "mass": 1.0, "stiffness": 100.0,
                "dampers": [{"i": 0, "j": None, "c": 2.0}, {"i": 1, "j": 2, "c": 2.0}]}


def forced_chain():
    """The README chain with a step load at dof 3."""
    return build_chain(12, 1.0, 100.0, [(0, None, 2.0), (1, 2, 2.0)]).with_force(
        constant_step_force(12, 3, 0.12, 2.0))


def guard_stop(make):
    with pytest.warns(RuntimeWarning):  # rho(beta_b) >= 1
        traj = per.integrate(make(), per.PerConfig(dt=1.4, m_b=2, r_b=12), 70.0)
    assert traj.info["reason"] == "norm guard"


def cli_compare(make):
    """``compare`` on a config of forced_chain's model, in the working
    directory; the command line builds the model, not ``make``."""
    with open("chain.json", "w") as out:
        json.dump({"version": 1, "model": README_CHAIN, "dt": 0.024, "t_max": 0.24,
                   "force": {"kind": "constant-step", "dof": 3, "t_c": 0.12, "f0": 2.0}}, out)
    assert main(["compare", "--config", "chain.json", "--out", "out.csv"]) == 0


class TestOneMassFactorization:
    """Every M^-1 of every entry point reads the model's solve_mass: a run
    factorizes M once, when its model is built and checked."""

    CASES = {
        "integrate-forced": (benchmark_beam, lambda make: per.integrate(
            make(), per.PerConfig(dt=2e-5, m_b=8), 2e-4)),
        "integrate-unforced": (lambda: benchmark_chain(0.1).with_initial_state(
            np.linspace(0.0, 1e-2, 12), None), lambda make: per.integrate(
                make(), per.PerConfig(dt=0.024, m_b=8), 0.24)),
        "integrate-guard-stop": (lambda: benchmark_chain(3.0).with_force(
            lambda t: np.eye(12)[3] * np.sin(2.0 * t)), guard_stop),
        "integrate_asymptotic-forced": (forced_chain, lambda make: per.integrate_asymptotic(
            make(), per.PerConfig(dt=0.02, m_b=8), 0.1, n_terms=3)),
        "integrate_asymptotic-unforced": (
            lambda: benchmark_chain(0.1).with_initial_state(np.eye(12)[0], None),
            lambda make: per.integrate_asymptotic(make(), per.PerConfig(dt=0.02, m_b=8),
                                                  0.1, n_terms=3)),
        "beta_radius_map": (lambda: benchmark_chain(0.2),
                            lambda make: beta_radius_map(make(), [0.05, 0.1, 0.15], 8)),
        "dt_bound": (benchmark_beam, lambda make: dt_bound(make(), 8)),
        **{f"run_method-{method}": (forced_chain, lambda make, method=method: run_method(
            make(), method, 0.024, 0.24)) for method in ("newmark", "wilson", "bathe", "rk4",
                                                         "mpim")},
        "reference_solution": (forced_chain,
                               lambda make: reference_solution(make(), 0.024, 0.24)),
        "cli-compare": (forced_chain, cli_compare),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_mass_factorized_once(self, case, monkeypatch, tmp_path):
        make, run = self.CASES[case]
        mass = make().mass
        monkeypatch.chdir(tmp_path)
        seen = watch_factorizations(monkeypatch)
        run(make)
        assert sum(mat.shape == mass.shape and np.array_equal(mat, mass) for mat in seen) == 1


class TestDefinitenessBorder:
    """The definiteness checks at their borders: M must be positive definite;
    C and K may have no eigenvalue below -1e-10 max(|X|max, 1)."""

    @staticmethod
    def with_eigenvalue(rel):
        """A symmetric 4 x 4 matrix with eigenvalues 300, 200, 100 and rel
        times the largest magnitude of its entries."""
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        base = (q * [300.0, 200.0, 100.0, 0.0]) @ q.T
        mat = base + rel * np.abs(base).max() * np.outer(q[:, 3], q[:, 3])
        return (mat + mat.T) / 2.0

    def test_free_free_stiffness_accepted(self):
        mass, stiff = beam_matrices(3.0, 437.5e3, 235.5, 6)
        # two rigid-body modes, zero to roundoff
        assert np.abs(np.linalg.eigvalsh(stiff)[:2]).max() < 1e-10 * np.abs(stiff).max()
        SystemModel(mass, np.zeros_like(mass), stiff)

    @pytest.mark.parametrize("rel, accepted", [(-1e-12, True), (-1e-8, False)])
    @pytest.mark.parametrize("name", ["damping", "stiffness"])
    def test_negative_eigenvalue(self, name, rel, accepted):
        mat = self.with_eigenvalue(rel)
        lowest = np.linalg.eigvalsh(mat)[0]
        assert lowest == pytest.approx(rel * np.abs(mat).max(), rel=1e-2)
        mats = {"mass": np.eye(4), "damping": np.eye(4), "stiffness": np.eye(4), name: mat}
        if accepted:
            SystemModel(**mats)
        else:
            with pytest.raises(ValueError, match=f"{name} matrix must be positive semidefinite"):
                SystemModel(**mats)

    def test_singular_mass_rejected(self):
        with pytest.raises(ValueError, match="mass matrix must be positive definite"):
            SystemModel(np.ones((2, 2)), np.zeros((2, 2)), np.eye(2))


class TestForceBuilders:
    def test_step(self):
        step = step_function(0.5, 3.0)
        assert step(0.49) == 0.0
        assert step(0.5) == 3.0

    def test_constant_step_force(self):
        force = constant_step_force(4, 2, 0.1, 7.0)
        np.testing.assert_array_equal(force(0.0), np.zeros(4))
        out = force(0.2)
        assert out[2] == 7.0 and np.count_nonzero(out) == 1

    def test_gaussian_multiharmonic(self):
        force = gaussian_multiharmonic_force(3, 1, t0=2.0, s=0.5,
                                             components=[(1.0, 3.0), (0.5, 7.0)])
        t = 1.7
        expected = np.exp(-(t - 2.0)**2 / 0.5) * (np.sin(3 * t) + 0.5 * np.sin(7 * t))
        assert force(t)[1] == pytest.approx(expected, rel=1e-12)
        assert force(t)[0] == 0.0

    def test_bad_dof_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            constant_step_force(3, 3, 0.0, 1.0)


class TestForceArrayForm:
    """The array form of each built-in load against its scalar calls."""

    @staticmethod
    def scalar_rows(force, times):
        return np.array([force(t) for t in times.tolist()], dtype=float)

    def test_constant_step_force_exact(self):
        t_c = 0.1
        force = constant_step_force(4, 2, t_c, 7.0)
        times = np.array([0.0, np.nextafter(t_c, -np.inf), t_c,
                          np.nextafter(t_c, np.inf), 0.3, -1.0])
        np.testing.assert_array_equal(_force_rows(force, times),
                                      self.scalar_rows(force, times))

    def test_gaussian_multiharmonic_exact(self):
        # 1e5 random times over four random loads; the square of the
        # envelope is where a plain array multiply differs from the scalar
        # pow (about 6 in 10,000 samples)
        rng = np.random.default_rng(8)
        for _ in range(4):
            comps = [(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 20.0))
                     for _ in range(rng.integers(1, 4))]
            force = gaussian_multiharmonic_force(3, 1, t0=rng.uniform(-5.0, 15.0),
                                                 s=rng.uniform(0.05, 5.0), components=comps)
            times = rng.uniform(-10.0, 40.0, 25_000)
            np.testing.assert_array_equal(_force_rows(force, times),
                                          self.scalar_rows(force, times))

    def test_beam_point_loads_exact(self):
        # a built-in step and a plain callable on the same node
        t_c = 0.01
        model = build_beam(3.0, 437.5e3, 235.5, 4, point_loads=[
            (4, -1.0, step_function(t_c, 1.0e3)),
            (4, 1.0, lambda t: 2.0 * t),
            (2, 1.0, step_function(0.0, 5.0))])
        times = np.array([0.0, np.nextafter(t_c, -np.inf), t_c, 0.02, 1.0])
        np.testing.assert_array_equal(_force_rows(model.force, times),
                                      self.scalar_rows(model.force, times))

    def test_other_callable_called_once_per_time(self):
        calls = []
        rows = _force_rows(lambda t: calls.append(t) or np.array([t, 2.0 * t]),
                          np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(rows, [[0.0, 0.0], [0.5, 1.0], [1.0, 2.0]])
        assert calls == [0.0, 0.5, 1.0]


class TestForceSupport:
    """The support form (dofs S, times -> f_S) of each built-in load: its
    ``_rows`` is that form scattered into zeros, bit for bit, and each
    column is the load's own per-dof arithmetic."""

    @staticmethod
    def scattered(force, times, n_dof):
        dofs, cols = force._support
        out = np.zeros((len(times), n_dof))
        out[:, dofs] = cols(times)
        return out

    def test_constant_step_switches_at_the_sample(self):
        t_c = 0.1
        force = constant_step_force(4, 2, t_c, 7.0)
        times = np.array([0.0, np.nextafter(t_c, -np.inf), t_c, 0.3])
        rows = _force_rows(force, times)
        assert force._support[0] == [2]
        np.testing.assert_array_equal(rows, self.scattered(force, times, 4))
        np.testing.assert_array_equal(rows[:, 2], [0.0, 0.0, 7.0, 7.0])
        assert not rows[:, [0, 1, 3]].any()

    def test_gaussian_multiharmonic(self):
        t0, s, comps = 0.3, 2.5, [(1.0, 3.0), (0.5, 7.1)]
        force = gaussian_multiharmonic_force(5, 3, t0=t0, s=s, components=comps)
        times = np.random.default_rng(3).uniform(-10.0, 40.0, 10_000)
        rows = _force_rows(force, times)
        assert force._support[0] == [3]
        np.testing.assert_array_equal(rows, self.scattered(force, times, 5))
        # the envelope through libm pow, as the scalar form computes it
        env = np.exp(-np.float_power(times - t0, 2.0) / (2.0 * s * s))
        np.testing.assert_array_equal(rows[:, 3], env * sum(a * np.sin(w * times)
                                                            for a, w in comps))

    def test_beam_point_loads_on_one_node(self):
        # two loads on node 4 add in the order given; node 2 has its own column
        t_c = 0.01
        tip, ramp, side = step_function(t_c, 1.0e3), (lambda t: 2.0 * t), step_function(0.0, 5.0)
        model = build_beam(3.0, 437.5e3, 235.5, 4, point_loads=[
            (4, -1.0, tip), (4, 1.0, ramp), (2, 1.0, side)])
        times = np.array([0.0, np.nextafter(t_c, -np.inf), t_c, 0.02, 1.0])
        dofs, cols = model.force._support
        assert dofs == [2, 6]  # the deflection dofs of nodes 2 and 4, sorted
        np.testing.assert_array_equal(_force_rows(model.force, times),
                                      self.scattered(model.force, times, 8))
        ramp_rows = np.array([ramp(t) for t in times])
        np.testing.assert_array_equal(cols(times), np.column_stack([
            0.0 + _force_rows(side, times), 0.0 + -1.0 * _force_rows(tip, times) + ramp_rows]))
