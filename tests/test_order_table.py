"""The order of every method on forced problems, against their exact
solutions: each row runs one method at four halvings of dt, scores each run
against tests/oracles.exosystem_solution and fits the slope with
bench.fit_order.  The windows sit where each method is in its asymptotic
regime and above the oracle's floor."""

import numpy as np
import pytest

from oracles import exosystem_solution, sdof_model
from perdyn import per
from perdyn.analysis import dt_bound
from perdyn.bench import METHODS, fit_order, run_method
from perdyn.model import _spectral_extremes, benchmark_beam, benchmark_chain


def _harmonic(w):
    """S of z = (sin wt, cos wt), from z0 = (0, 1)."""
    return np.array([[0.0, w], [-w, 0.0]])


def _sdof_cubic():
    model = sdof_model(zeta=0.05, u0=0.2, v0=-1.0,
                       force=lambda t: np.array([0.5 + 2.0 * t - 1.5 * t * t + t ** 3]))
    return model, [0], np.array([[1.0, 0.0, 0.0, 0.0]]), np.eye(4, k=1), [0.5, 2.0, -3.0, 6.0]


def _chain_harmonic():
    row = np.eye(12)[2]
    model = benchmark_chain(0.1).with_initial_state(np.linspace(-0.02, 0.02, 12), None)
    return (model.with_force(lambda t: row * np.sin(3.0 * t)), [2], np.array([[1.0, 0.0]]),
            _harmonic(3.0), [0.0, 1.0])


def _beam_harmonic():
    # a tip load fast enough that PER's interpolation error, of order 4, is
    # above the oracle's floor of about 1e-13 where L_b's truncation error
    # has fallen below it; at sin(2000 t) the error falls from 1.7e-6 at 0.43
    # dt_max to the floor at 0.11 dt_max, a slope of 9
    row = np.eye(48)[46]
    return (benchmark_beam().with_force(lambda t: -1e3 * row * np.sin(5e4 * t)), [46],
            np.array([[-1e3, 0.0]]), _harmonic(5e4), [0.0, 1.0])


#: problem: (build, t_max, scored intervals); each run is scored at the ends
#: of the intervals, every one a whole number of its steps
PROBLEMS = {"sdof-cubic": (_sdof_cubic, 2.0, 4), "chain-harmonic": (_chain_harmonic, 6.0, 12),
            "beam-harmonic": (_beam_harmonic, 6e-4, 6)}

#: (problem, method): steps per scored interval at the largest dt of the row
STEPS = {
    ("sdof-cubic", "per"): 5, ("sdof-cubic", "rk4"): 10, ("sdof-cubic", "mpim"): 1,
    ("sdof-cubic", "newmark"): 10, ("sdof-cubic", "wilson"): 20, ("sdof-cubic", "bathe"): 10,
    ("chain-harmonic", "per"): 8, ("chain-harmonic", "rk4"): 16, ("chain-harmonic", "mpim"): 1,
    ("chain-harmonic", "newmark"): 32, ("chain-harmonic", "wilson"): 32,
    ("chain-harmonic", "bathe"): 32,
    ("beam-harmonic", "per"): 18, ("beam-harmonic", "rk4"): 100, ("beam-harmonic", "mpim"): 4,
    ("beam-harmonic", "newmark"): 200, ("beam-harmonic", "wilson"): 200,
    ("beam-harmonic", "bathe"): 200,
}

#: method: the band of its fitted order
BANDS = {"per": (3.7, 4.3), "rk4": (3.7, 4.3), "mpim": (6.0, np.inf),
         "newmark": (1.7, 2.3), "wilson": (1.7, 2.3), "bathe": (1.7, 2.3)}


@pytest.fixture(scope="module")
def exact():
    """problem: (model, the exact displacements at the scored times)."""
    out = {}
    for name, (build, t_max, intervals) in PROBLEMS.items():
        model, dofs, c_mat, s_mat, z0 = build()
        times = np.linspace(0.0, t_max, intervals + 1)
        out[name] = model, exosystem_solution(model, dofs, c_mat, s_mat, np.array(z0), times)[0]
    return out


@pytest.mark.parametrize("problem, method", list(STEPS), ids=[f"{p}-{m}" for p, m in STEPS])
def test_order_in_its_band(problem, method, exact):
    assert set(METHODS) == set(BANDS)
    model, u_exact = exact[problem]
    _, t_max, intervals = PROBLEMS[problem]
    steps = STEPS[problem, method] * 2 ** np.arange(4)
    dts = t_max / (intervals * steps)
    dt_max = dt_bound(model, 8).dt_max
    if method == "per":  # fourth order up to 0.4 dt_max
        assert dts[0] <= 0.4 * dt_max
    if method == "rk4" and problem == "beam-harmonic":  # once omega_max dt <= 0.3
        assert dts[0] * _spectral_extremes(model)[0] <= 0.3
    errors = []
    for dt, every in zip(dts, steps):
        traj = run_method(model, method, dt, t_max, per.PerConfig(dt=dt, m_b=8, r_b=4))
        assert not traj.diverged and traj.n_steps == intervals * every
        u = traj.displacements[::every]
        errors.append(np.linalg.norm(u - u_exact) / np.linalg.norm(u_exact))
    low, high = BANDS[method]
    assert low <= fit_order(dts, errors) <= high, errors
