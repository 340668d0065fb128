"""The exact oracles for forced runs, checked against independent
constructions: the closed-form free response and composite Gauss
quadrature of the variation-of-constants integral."""

import numpy as np
import pytest

from oracles import (companion_matrix, damped_free_vibration, exosystem_solution, expm_eig,
                     forcing_operator_exact, gauss_panel_integral, lagrange_cubic_basis,
                     sdof_model)
from perdyn.analysis import dt_bound
from perdyn.model import benchmark_chain

HARMONIC = np.array([[0.0, 3.0], [-3.0, 0.0]])  # z = (sin 3t, cos 3t) from z0 = (0, 1)

#: (C, S, z0, f) of a load on one dof: f(t) = C z(t), and f in closed form.
LOADS = {
    "harmonic": (np.array([[1.0, 0.0]]), HARMONIC, np.array([0.0, 1.0]),
                 lambda t: np.sin(3.0 * t)),
    "step": (np.array([[2.0]]), np.zeros((1, 1)), np.array([1.0]), lambda t: 2.0),
    "cubic": (np.array([[1.0, 0.0, 0.0, 0.0]]), np.eye(4, k=1), np.array([0.5, 2.0, -3.0, 6.0]),
              lambda t: 0.5 + 2.0 * t - 1.5 * t * t + t ** 3),
}


def _peak_error(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def _b(model, dofs):
    """[0; M^-1 E_S]."""
    n = model.n_dof
    return np.vstack([np.zeros((n, len(dofs))), np.linalg.solve(model.mass, np.eye(n)[:, dofs])])


def _chain_dt(fraction):
    """The 12-dof benchmark chain and ``fraction`` of its dt_max at m_b = 8."""
    model = benchmark_chain(0.1)
    return model, fraction * dt_bound(model, 8).dt_max


@pytest.mark.parametrize("zeta, u0, v0", [(0.0, 1.0, 0.0), (0.05, 0.3, -2.0), (0.4, -1.0, 5.0)])
def test_exosystem_free_response(zeta, u0, v0):
    # zero load: the state is the closed-form damped free vibration
    omega = 2.0 * np.pi
    times = np.linspace(0.0, 2.0, 21)
    u, v = exosystem_solution(sdof_model(omega, zeta, u0=u0, v0=v0), [0], np.zeros((1, 2)),
                              HARMONIC, np.array([0.0, 1.0]), times)
    u_ref, v_ref = damped_free_vibration(omega, zeta, u0, v0, times)
    assert _peak_error(u[:, 0], u_ref) <= 1e-12
    assert _peak_error(v[:, 0], v_ref) <= 1e-12


@pytest.mark.parametrize("load", sorted(LOADS))
def test_exosystem_one_forced_step(load):
    # x(dt) = e^{W dt} x0 + int_0^dt e^{W(dt-s)} [0; M^-1 E_S] f(s) ds, by quadrature
    model, dt = _chain_dt(0.8)
    model = model.with_initial_state(np.linspace(-1.0, 1.0, 12), np.linspace(0.5, -0.5, 12))
    c_mat, s_mat, z0, f = LOADS[load]
    w, b = companion_matrix(model), _b(model, [2])[:, 0]
    x0 = np.concatenate([model.u0, model.v0])
    want = expm_eig(w, dt) @ x0 + gauss_panel_integral(
        lambda s: expm_eig(w, dt - s) @ b * f(s), 0.0, dt, panels=8)
    u, v = exosystem_solution(model, [2], c_mat, s_mat, z0, [0.0, dt])
    np.testing.assert_array_equal(np.concatenate([u[0], v[0]]), x0)
    assert _peak_error(np.concatenate([u[1], v[1]]), want) <= 1e-12


def _check_forcing_operator(model, dofs, dt):
    # Phi_i = int_0^dt e^{W(dt-s)} [0; M^-1 E_S] l_i(s/dt) ds, by quadrature
    w, b = companion_matrix(model), _b(model, dofs)
    want = gauss_panel_integral(
        lambda s: np.hstack([expm_eig(w, dt - s) @ b * l for l in lagrange_cubic_basis(s / dt)]),
        0.0, dt, panels=8)
    got = forcing_operator_exact(model, dofs, dt)
    assert got.shape == (2 * model.n_dof, 4 * len(dofs))
    assert _peak_error(got, want) <= 1e-12


@pytest.mark.parametrize("dofs, fraction", [([2], 0.4), ([2], 0.8), ([0, 7], 0.8)])
def test_forcing_operator_on_the_chain(dofs, fraction):
    model, dt = _chain_dt(fraction)
    _check_forcing_operator(model, dofs, dt)


def test_forcing_operator_on_a_single_dof():
    _check_forcing_operator(sdof_model(zeta=0.05), [0], 0.05)
