"""The benchmark's workloads.

Each workload turns the seed into inputs, drives perdyn only through its
public entry points (``cli.main`` in-process, or the library functions) and
checks every operation's output outside the timed region.  perdyn functions
are always reached through their module (``per.integrate``, not a local
name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
import scipy.linalg

from perdyn import analysis, baselines, cli, model, per


class CheckFailed(Exception):
    """An operation's output failed a correctness check; ``values`` keeps
    what was measured before the check failed."""

    def __init__(self, message, **values):
        super().__init__(message)
        self.values = values


def _require(cond, message, **values):
    if not cond:
        raise CheckFailed(message, **values)


def _accurate(e_disp: float, ceiling: float) -> dict:
    _require(e_disp < ceiling, f"e_disp {e_disp:.3e} above ceiling {ceiling}", e_disp=e_disp)
    return {"e_disp": e_disp}


def rel_l2(test, ref) -> float:
    """Relative discrete-l2 error sqrt(sum (y - r)^2) / sqrt(sum r^2)."""
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(np.asarray(test, dtype=float) - ref) / np.linalg.norm(ref))


def companion(m) -> np.ndarray:
    """State-space matrix W of U' = W U + h with U = [u; v]."""
    n = m.n_dof
    return np.block([
        [np.zeros((n, n)), np.eye(n)],
        [-scipy.linalg.solve(m.mass, m.stiffness, assume_a="pos"),
         -scipy.linalg.solve(m.mass, m.damping, assume_a="pos")],
    ])


def expm_free(m, dt: float, n_steps: int) -> np.ndarray:
    """Unforced states at t_k = k dt by repeated exp(W dt) propagation."""
    step = scipy.linalg.expm(companion(m) * dt)
    states = np.empty((n_steps + 1, 2 * m.n_dof))
    states[0] = np.concatenate([m.u0, m.v0])
    for k in range(n_steps):
        states[k + 1] = step @ states[k]
    return states


def expm_step_load(m, dt: float, n_steps: int, t_c: float, f_after) -> np.ndarray:
    """States at t_k = k dt for a force that switches from 0 to f_after at t_c.

    Before t_c the motion is free; after it the state relaxes about the
    static equilibrium U_s = -W^-1 h, so U(t) = U_s + exp(W (t - t_c)) (U(t_c) - U_s).
    """
    n = m.n_dof
    w = companion(m)
    step = scipy.linalg.expm(w * dt)
    h = np.concatenate([np.zeros(n), scipy.linalg.solve(m.mass, f_after, assume_a="pos")])
    u_static = -np.linalg.solve(w, h)
    states = np.empty((n_steps + 1, 2 * n))
    states[0] = np.concatenate([m.u0, m.v0])
    k = 0
    while k < n_steps and (k + 1) * dt <= t_c:
        states[k + 1] = step @ states[k]
        k += 1
    at_load = scipy.linalg.expm(w * (t_c - k * dt)) @ states[k]
    rel = scipy.linalg.expm(w * ((k + 1) * dt - t_c)) @ (at_load - u_static)
    for j in range(k + 1, n_steps + 1):
        states[j] = u_static + rel
        rel = step @ rel
    return states


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


# Each workload's set-up is sampled SETUP_REPEATS times before the first
# operation and SETUPS_PER_OP times before every operation, so that set-up
# samples of the millisecond set-ups are spread over the whole run.
# CALIBRATION names the kernels of run.Calibration that measure the host's
# speed for the workload: the ones whose work resembles its operations.


class BeamSimulate:
    """``perdyn simulate`` on the 48-dof benchmark beam, 10,000 PER steps."""

    name = "beam-simulate"
    DT = 2e-5
    T_MAX = 0.2
    M_B = 8  # at the CLI default m_b = 4, dt_max = 1.96e-5 < DT
    STEPS = 10_000
    N_DOF = 48
    #: benchmark_beam's tip step load switches on at this time.
    T_C = 0.01
    #: Tip deflection: dof 2 (n_elements - 1) of the 24-element cantilever.
    CHECK_DOF = 46
    #: PER error at this commit is 4.6e-5 against the exact solution; the
    #: ceiling flags a gross loss of accuracy, the metric's bound a small one.
    E_DISP_CEILING = 1e-4
    #: Initial state: white noise of 1 mm and 30 mm/s against a static tip
    #: deflection of 1.1e-2 m under the load; e_disp moves by under 1% from
    #: seed to seed.
    U0_SCALE = 1e-3
    V0_SCALE = 3e-2
    SETUP_REPEATS = 5
    SETUPS_PER_OP = 1
    CALIBRATION = ("interp", "blas")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        n = self.N_DOF
        self.config_path = os.path.join(workdir, "beam.json")
        self.out_path = os.path.join(workdir, "beam.csv")
        _write_json(self.config_path, {
            "version": 1,
            "model": {"kind": "beam"},
            "method": {"name": "per", "mb": self.M_B},
            "dt": self.DT,
            "t_max": self.T_MAX,
            "u0": (self.U0_SCALE * rng.standard_normal(n)).tolist(),
            "v0": (self.V0_SCALE * rng.standard_normal(n)).tolist(),
        })

    def setup(self):
        config = cli.load_config(self.config_path)
        m = config.build_model()
        per.build_scheme(m, config.per_config())

    def reference(self):
        m = cli.load_config(self.config_path).build_model()
        f_after = m.force_at(self.T_MAX)
        _require(not m.force_at(self.T_C * (1 - 1e-9)).any() and f_after.any(),
                 "benchmark beam load is not a step at T_C")
        dt_max = analysis.dt_bound(m, self.M_B).dt_max
        _require(self.DT <= dt_max, f"dt {self.DT} exceeds dt_max {dt_max}")
        states = expm_step_load(m, self.DT, self.STEPS, self.T_C, f_after)
        self.ref_disp = states[:, self.CHECK_DOF]
        return {"dt": self.DT, "dt_max": dt_max}

    def op(self):
        return _run_cli(["simulate", "--config", self.config_path, "--out", self.out_path])

    def check(self, result) -> dict:
        code, stdout = result
        try:
            _require(code == 0, f"exit code {code}")
            _require("diverged: False" in stdout, "run reported divergence")
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        finally:
            if os.path.exists(self.out_path):
                os.unlink(self.out_path)
        lines = data.split(b"\n")
        _require(lines[0].count(b",") == 2 * self.N_DOF, "bad header")
        _require(lines[-1] == b"" and len(lines) == self.STEPS + 3,
                 f"expected {self.STEPS + 1} data rows, got {len(lines) - 2}")
        _require(b"nan" not in data and b"inf" not in data, "non-finite output")
        col = 1 + self.CHECK_DOF
        disp = np.array([float(line.split(b",", col + 1)[col]) for line in lines[1:-1]])
        return {**_accurate(rel_l2(disp, self.ref_disp), self.E_DISP_CEILING),
                "csv_bytes": len(data)}


class SetupScaling:
    """Setup-dominated library runs of the benchmark chain at N = 96, 240, 480."""

    name = "setup-scaling"
    SIZES = (96, 240, 480)
    ZETA = 0.1
    M_B = 8
    DT_FRACTION = 0.8
    STEPS = 200
    #: PER error at this commit is about 1.3e-8 against expm propagation.
    E_DISP_CEILING = 1e-6
    U0_RMS = 1e-2
    SETUP_REPEATS = 5
    SETUPS_PER_OP = 0  # a set-up takes about 3 s; 5 already span 15 s
    CALIBRATION = ("blas",)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.u0 = {}
        for n in self.SIZES:
            # Every undamped mode with the same amplitude and a seeded sign:
            # white noise in modal coordinates.  With white noise in nodal
            # coordinates the error would hinge on the random amplitude of
            # the few highest modes and move by 15% from seed to seed.
            base = model.benchmark_chain(self.ZETA, n_dof=n)
            modes = scipy.linalg.eigh(base.stiffness, base.mass)[1]
            u0 = modes @ rng.choice([-1.0, 1.0], size=n)
            self.u0[n] = self.U0_RMS / np.sqrt(np.mean(u0 ** 2)) * u0

    def _model(self, n):
        return model.benchmark_chain(self.ZETA, n_dof=n).with_initial_state(
            self.u0[n], np.zeros(n))

    def _config(self, m):
        dt = self.DT_FRACTION * analysis.dt_bound(m, self.M_B).dt_max
        return per.PerConfig(dt=dt, m_b=self.M_B)

    def setup(self):
        for n in self.SIZES:
            m = self._model(n)
            per.build_scheme(m, self._config(m))

    def reference(self):
        self.ref_disp = {}
        dts = {}
        for n in self.SIZES:
            m = self._model(n)
            config = self._config(m)
            dts[n] = config.dt
            self.ref_disp[n] = expm_free(m, config.dt, self.STEPS)[:, :n]
        return {"dt": dts}

    def op(self):
        runs = {}
        for n in self.SIZES:
            m = self._model(n)
            config = self._config(m)
            runs[n] = per.integrate(m, config, self.STEPS * config.dt)
        return runs

    def check(self, runs) -> dict:
        for n, traj in runs.items():
            _require(not traj.diverged, f"N={n}: diverged")
            _require(traj.n_steps == self.STEPS, f"N={n}: {traj.n_steps} steps")
            _require(np.isfinite(traj.displacements).all()
                     and np.isfinite(traj.velocities).all(), f"N={n}: non-finite output")
        # every dof of all three runs: one dof alone moves by 20% between seeds
        return _accurate(
            rel_l2(np.concatenate([runs[n].displacements.ravel() for n in self.SIZES]),
                   np.concatenate([self.ref_disp[n].ravel() for n in self.SIZES])),
            self.E_DISP_CEILING)


class ChainCompare:
    """``perdyn compare`` with all six methods on the README 12-dof forced chain."""

    name = "chain-compare"
    DT = 0.024
    #: 25 steps; the RK4 reference at refine 500 then takes about 1.8 s.
    T_MAX = 0.6
    M_B = 8
    METHODS = ("per", "newmark", "wilson", "bathe", "rk4", "mpim")
    #: PER error at this commit is about 9e-7 against the RK4 reference.
    E_DISP_CEILING = 1e-5
    #: A tenth of the forced response, so the error is set by the load: at
    #: 1e-2 it would move by 30% from seed to seed.
    U0_SCALE = 1e-3
    V0_SCALE = 1e-3
    SETUP_REPEATS = 5
    SETUPS_PER_OP = 1
    CALIBRATION = ("interp", "blas")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        n = 12
        self.config_path = os.path.join(workdir, "chain.json")
        self.out_path = os.path.join(workdir, "compare.csv")
        _write_json(self.config_path, {
            "version": 1,
            "model": {"kind": "chain", "n_dof": n, "mass": 1.0, "stiffness": 100.0,
                      "dampers": [{"i": 0, "j": None, "c": 2.0},
                                  {"i": 1, "j": 2, "c": 2.0}]},
            "force": {"kind": "gaussian-multiharmonic", "dof": 2,
                      "t0": float(rng.uniform(0.1, 0.5)), "s": 2.5,
                      "components": [{"a": 1.0, "omega": 3.0},
                                     {"a": 0.5, "omega": 7.1}]},
            "method": {"name": "per", "mb": self.M_B, "rb": 4},
            "dt": self.DT,
            "t_max": self.T_MAX,
            "u0": (self.U0_SCALE * rng.standard_normal(n)).tolist(),
            "v0": (self.V0_SCALE * rng.standard_normal(n)).tolist(),
            "reference": {"refine": 500},
        })

    def setup(self):
        config = cli.load_config(self.config_path)
        m = config.build_model()
        per.build_scheme(m, config.per_config())
        params = config.integrator_params()
        system = baselines.state_space(m)
        baselines.mpim_operators(system, config.dt, params.mpim_g, params.mpim_p)

    def reference(self):
        m = cli.load_config(self.config_path).build_model()
        dt_max = analysis.dt_bound(m, self.M_B).dt_max
        _require(self.DT <= dt_max, f"dt {self.DT} exceeds dt_max {dt_max}")
        return {"dt": self.DT, "dt_max": dt_max}

    def op(self):
        return _run_cli(["compare", "--config", self.config_path, "--out", self.out_path])

    def check(self, result) -> dict:
        code, _ = result
        try:
            _require(code == 0, f"exit code {code}")
            with open(self.out_path) as fh:
                text = fh.read()
        finally:
            if os.path.exists(self.out_path):
                os.unlink(self.out_path)
        rows = [line.split(",") for line in text.splitlines()]
        _require(rows[0] == ["method", "e_disp", "e_vel", "diverged"], "bad header")
        _require(tuple(r[0] for r in rows[1:]) == self.METHODS, "missing methods")
        for method, e_disp, e_vel, diverged in rows[1:]:
            _require(diverged == "false", f"{method} diverged")
            _require(np.isfinite(float(e_disp)) and np.isfinite(float(e_vel)),
                     f"{method}: non-finite error")
        return _accurate(float(rows[1][1]), self.E_DISP_CEILING)


WORKLOADS = {w.name: w for w in (BeamSimulate, SetupScaling, ChainCompare)}
