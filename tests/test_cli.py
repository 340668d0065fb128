"""End-to-end tests of the command-line interface."""

import json
import os
import signal
import warnings

import numpy as np
import pytest

from perdyn import analysis, baselines, bench, cli, per
from perdyn.analysis import beta_radius_map
from perdyn.cli import (EXIT_DIVERGENCE, EXIT_VALIDATION, RunConfig,
                        dump_config, load_config, main, write_csv)
from perdyn.linalg import DivergenceError
from perdyn.model import benchmark_chain, build_beam, build_chain, step_function
from perdyn.per import PerConfig, integrate


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.fixture
def sdof_config(tmp_path):
    doc = {
        "version": 1,
        "model": {"kind": "matrices", "mass": [[1.0]],
                  "damping": [[0.6283185307179586]],
                  "stiffness": [[39.47841760435743]]},
        "force": {"kind": "zero"},
        "method": {"name": "per", "mb": 8, "rb": 4},
        "dt": 0.02,
        "t_max": 0.4,
        "u0": [1.0],
        "v0": [0.0],
    }
    path = tmp_path / "sdof.json"
    write_config(path, doc)
    return path


class TestSimulate:
    def test_zero_everything_gives_zero_csv(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "traj.csv"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "chain", "n_dof": 3, "mass": 1.0,
                      "stiffness": 100.0, "dampers": []},
            "force": {"kind": "zero"},
            "method": {"name": "per"},
            "dt": 0.01, "t_max": 0.1,
        })
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "u_1", "u_2", "u_3", "v_1", "v_2", "v_3"]
        for row in rows:
            assert all(float(x) == 0.0 for x in row[1:])

    def test_round_trip_matches_library(self, sdof_config, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(sdof_config),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rho_beta_b" in printed and "dt_max_bound" in printed
        _, rows = read_csv(out)

        # the config sets only mb and rb: p, ma and ra keep the library's
        # PerConfig defaults
        config = load_config(str(sdof_config))
        library = PerConfig(dt=config.dt, m_b=8, r_b=4)
        assert config.per_config() == library
        traj = integrate(config.build_model(), library, config.t_max)
        assert len(rows) == len(traj.times)
        for row, k in zip(rows, range(len(traj.times))):
            assert float(row[1]) == traj.displacements[k, 0]  # exact via %.17g
            assert float(row[2]) == traj.velocities[k, 0]

    def test_beam_config_runs(self, tmp_path):
        cfg = tmp_path / "beam.json"
        out = tmp_path / "beam.csv"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "beam", "n_elements": 8, "zeta_a": 0.5,
                      "zeta_b": 0.5},
            "method": {"name": "per", "mb": 4, "rb": 2},
            "dt": 8e-5, "t_max": 8e-4,
        })
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        values = np.array([[float(x) for x in row] for row in rows])
        assert np.isfinite(values).all()

    def test_beam_agrees_with_reference(self, tmp_path):
        # step-forced cantilever vs an RK4 reference
        from perdyn.bench import global_error, reference_solution, run_method
        from perdyn.model import benchmark_beam, modal_analysis
        model = benchmark_beam(n_elements=8, t_c=0.0)
        t_min = modal_analysis(model).min_period
        dt = 0.4 * t_min
        t_max = 40 * dt
        traj = run_method(model, "per", dt, t_max,
                          per_config=PerConfig(dt=dt, m_b=4, r_b=2))
        ref = reference_solution(model, dt, t_max)
        rep = global_error(traj, ref, model.n_dof - 2)  # tip deflection dof
        assert rep.e_disp <= 1e-3

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        write_config(cfg, {"version": 1, "model": {"kind": "nope"},
                           "dt": 0.01, "t_max": 1.0})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION

    def test_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "div.json"
        omega = 2.0 * np.pi
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "matrices", "mass": [[1.0]], "damping": [[0.0]],
                      "stiffness": [[omega * omega]]},
            "method": {"name": "rk4"},
            "u0": [1.0],
            "dt": 3.0 / omega, "t_max": 200 * 3.0 / omega,
        })
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_DIVERGENCE

    def test_diverged_per_summary_reuses_the_bound(self, tmp_path, capsys,
                                                   monkeypatch):
        # the diverged PER run carries dt_max_bound; the summary prints it
        # without a second dt_bound (eigenvalue solves and tau_limit scan)
        from perdyn import analysis
        calls = []
        dt_bound = analysis.dt_bound

        def counting(*args, **kwargs):
            calls.append(args)
            return dt_bound(*args, **kwargs)

        monkeypatch.setattr(analysis, "dt_bound", counting)
        cfg = tmp_path / "div.json"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "chain", "zeta": 3.0},
            "force": {"kind": "constant-step", "dof": 1, "t_c": 0.0, "f0": 1.0},
            "method": {"name": "per", "mb": 2, "rb": 12},
            "dt": 1.4, "t_max": 14.0,
        })
        with pytest.warns(RuntimeWarning, match="rho"):
            code = main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_DIVERGENCE
        assert len(calls) == 1
        printed = capsys.readouterr().out
        assert f"dt_max_bound: {dt_bound(*calls[0]).dt_max}" in printed

    @pytest.mark.parametrize("doc", [
        # unforced: rho(beta_b) = 1223.6
        {"model": {"kind": "chain", "zeta": 3.0},
         "method": {"name": "per", "mb": 2, "rb": 12}, "dt": 1.4, "t_max": 14.0,
         "u0": [0.01] + [0.0] * 11},
        # the README chain with dampers c = 120: rho(beta_b) = 1.66
        {"model": {"kind": "chain", "n_dof": 12, "mass": 1.0, "stiffness": 100.0,
                   "dampers": [{"i": 0, "j": None, "c": 120.0},
                               {"i": 1, "j": 2, "c": 120.0}]},
         "force": {"kind": "gaussian-multiharmonic", "dof": 2, "t0": 10.0,
                   "s": 2.5, "components": [{"a": 1.0, "omega": 3.0},
                                            {"a": 0.5, "omega": 7.1}]},
         "method": {"name": "per", "mb": 8, "rb": 4}, "dt": 0.024, "t_max": 0.48},
    ], ids=["unforced", "readme-c120"])
    def test_divergent_damping_series_exits_as_diverged(self, doc, tmp_path, capsys):
        # the guard never stops these runs: the whole finite trajectory is
        # written, and the run is reported diverged
        cfg = tmp_path / "rho.json"
        write_config(cfg, {"version": 1, **doc})
        out = tmp_path / "rho.csv"
        with pytest.warns(RuntimeWarning, match="rho"):
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_DIVERGENCE
        assert "diverged: True" in capsys.readouterr().out
        assert len(read_csv(out)[1]) == round(doc["t_max"] / doc["dt"]) + 1

    def test_other_method_reports_the_radius_without_warning(self, tmp_path, capsys,
                                                             monkeypatch):
        # the README chain with dampers c = 120: PER's rho(beta_b) = 1.66 is
        # printed for a Newmark run, which has no damping series to warn about
        calls = []
        monkeypatch.setattr(per, "compute_b_factors", lambda *args: calls.append(args))
        cfg = tmp_path / "c120.json"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "chain", "n_dof": 12, "mass": 1.0, "stiffness": 100.0,
                      "dampers": [{"i": 0, "j": None, "c": 120.0},
                                  {"i": 1, "j": 2, "c": 120.0}]},
            "force": {"kind": "gaussian-multiharmonic", "dof": 2, "t0": 10.0,
                      "s": 2.5, "components": [{"a": 1.0, "omega": 3.0},
                                               {"a": 0.5, "omega": 7.1}]},
            "method": {"name": "newmark", "mb": 8, "rb": 4},
            "dt": 0.024, "t_max": 0.48,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "c120.csv")])
        assert code == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        rho = float(printed["rho_beta_b"])
        model = build_chain(12, 1.0, 100.0, [(0, None, 120.0), (1, 2, 120.0)])
        assert rho == beta_radius_map(model, [0.024], 8)[0][1]
        # the 50-digit radius of the same float block (mpmath); the printed
        # value is 4 ulp from it
        exact = 1.655591616895341979
        assert abs(rho - exact) <= 5 * np.spacing(exact)
        assert calls == []

    @pytest.mark.parametrize("doc, key", [
        ({"model": {"kind": "chain"}}, "n_dof"),
        ({"model": {"kind": "chain", "n_dof": 3},
          "force": {"kind": "constant-step", "dof": 1}}, "f0"),
        ({"model": 5}, "model"),
        ({"model": {"kind": "beam", "length": 3.0, "ei": 437.5e3, "total_mass": 235.5,
                    "n_elements": 6, "supports": [{"spring": 1e3}]}}, "node"),
        ({"model": {"kind": "chain", "n_dof": 2}, "u0": {"a": 1.0}}, "u0"),
        ({"model": {"kind": "chain", "n_dof": 2}, "out": 5}, "out"),
        ({"model": {"kind": "chain", "n_dof": 2}, "t_max": float("inf")}, "t_max"),
        ({"model": {"kind": "chain", "n_dof": 2}, "dt": float("nan")}, "dt"),
        ({"model": {"kind": "chain", "n_dof": 2}, "method": {"name": "per", "mb": 8.5}}, "mb"),
        ({"model": {"kind": "chain", "n_dof": 2}, "method": {"name": "mpim", "g": 4.7}}, "g"),
        ({"model": {"kind": "chain", "n_dof": 2.9}}, "n_dof"),
        ({"model": {"kind": "chain", "n_dof": True}}, "n_dof"),
        ({"model": {"kind": "chain", "n_dof": 1e400}}, "n_dof"),
        ({"model": {"kind": "chain", "n_dof": 2}, "method": {"name": "per", "mb": 1e400}}, "mb"),
        ({"model": {"kind": "chain", "n_dof": 2,
                    "dampers": [{"i": 0, "j": None, "c": 1e400}]}}, "c"),
        ({"model": {"kind": "matrices", "mass": [[1.0]], "damping": [[0.0]],
                    "stiffness": [[1e400]]}}, "stiffness"),
        ({"model": {"kind": "chain", "n_dof": 2}, "u0": [1e400, 0.0]}, "u0"),
        ({"model": {"kind": "chain", "n_dof": 2, "mass": 1e400}}, "mass"),
        ({"model": {"kind": "chain", "zeta": float("nan")}}, "zeta"),
        ({"model": {"kind": "chain", "n_dof": 2}, "method": {"name": "per", "p": 2000}}, "p"),
        ({"model": {"kind": "chain", "n_dof": 2}, "force": {"kind": "impulse"}}, "impulse"),
        ({"model": {"kind": "chain", "n_dof": 2}, "method": {"name": "euler"}}, "euler"),
    ], ids=["chain-without-size", "step-without-f0", "model-not-object",
            "support-without-node", "state-not-numbers", "out-not-string",
            "t_max-infinite", "dt-nan", "mb-non-integral", "g-non-integral",
            "n_dof-non-integral", "n_dof-boolean", "n_dof-infinite", "mb-infinite",
            "damper-infinite", "stiffness-infinite", "state-infinite", "mass-infinite",
            "zeta-nan", "p-overflow", "force-kind-unknown", "method-unknown"])
    def test_malformed_config_is_a_validation_error(self, doc, key, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        write_config(cfg, {"version": 1, "dt": 0.01, "t_max": 0.1, **doc})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("beam", [
        {"length": 0}, {"length": 1e300}, {"length": 1e-110}, {"total_mass": 0},
        {"supports": [], "length": 0, "ei": 1.0, "total_mass": 1.0, "n_elements": 2},
    ], ids=["length-zero", "length-overflow", "length-cube-underflow", "mass-zero",
            "supported-length-zero"])
    def test_beam_arithmetic_fault_is_a_validation_error(self, beam, tmp_path, capsys):
        # each raised ZeroDivisionError or OverflowError: a traceback and exit 1
        cfg = tmp_path / "beam.json"
        write_config(cfg, {"version": 1, "model": {"kind": "beam", **beam},
                           "dt": 0.001, "t_max": 0.01})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()
        # the overflow and the underflowed cube are arithmetic faults, named by
        # the model key and its kind; the other three break the input rule
        if beam.get("length") in (1e300, 1e-110):
            assert err.startswith("error: config key 'model' of kind 'beam' cannot be built: ")

    @pytest.mark.parametrize("doc, key", [
        ({"model": {"kind": "chain", "n_dof": 4},
          "force": {"kind": "constant-step", "dof": 1e300, "f0": 1.0}}, "dof"),
        ({"model": {"kind": "chain", "n_dof": 4},
          "force": {"kind": "constant-step", "dof": 10**300, "f0": 1.0}}, "dof"),
        ({"model": {"kind": "beam", "n_elements": 1e300}}, "n_elements"),
        ({"model": {"kind": "chain", "n_dof": 1e300}}, "n_dof"),
        ({"model": {"kind": "chain", "n_dof": -2**60}}, "n_dof"),
    ], ids=["dof-float", "dof-json-integer", "n_elements", "n_dof", "n_dof-negative"])
    def test_huge_integer_names_the_key(self, doc, key, tmp_path, capsys):
        # the dofs echoed a 301-digit int, n_elements printed "float division
        # by zero" and n_dof numpy's "Maximum allowed dimension exceeded"
        cfg = tmp_path / "huge.json"
        write_config(cfg, {"version": 1, "dt": 0.01, "t_max": 0.1, **doc})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: config key {key!r} has the invalid value ")
        assert err.endswith(": expected an integer of magnitude at most 2**53\n")
        assert len(err.splitlines()) == 1 and len(err) < 200

    @pytest.mark.parametrize("beam, message", [
        ({"length": -1}, "length must be finite and positive, got -1.0"),
        ({"ei": -5}, "bending_stiffness must be finite and positive, got -5.0"),
        ({"total_mass": -1}, "total_mass must be finite and positive, got -1.0"),
        ({"ei": 0}, "bending_stiffness must be finite and positive, got 0.0"),
    ], ids=["length", "ei", "total_mass", "ei-zero"])
    def test_beam_input_rule_names_the_key(self, beam, message, tmp_path, capsys):
        # the first three blamed a support coefficient or the damping matrix;
        # ei = 0 exited 0 with a zero-stiffness model and dt_max_bound nan
        cfg = tmp_path / "beam.json"
        write_config(cfg, {"version": 1, "model": {"kind": "beam", **beam},
                           "dt": 0.001, "t_max": 0.01})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("doc, out, message", [
        ([1, 2], True, "a config must be a JSON object"),
        ({"dt": 0.0}, True, "dt must be positive"),
        ({"method": {"name": "newmark", "beta": 0.0}}, True, "newmark beta must be positive"),
        ({}, False, "no output path: pass --out or set 'out' in the config"),
    ], ids=["not-an-object", "dt-zero", "newmark-beta", "no-out"])
    def test_rejected_config_names_the_fault(self, doc, out, message, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        if isinstance(doc, dict):
            doc = {"version": 1, "model": {"kind": "chain", "n_dof": 2}, "dt": 0.01,
                   "t_max": 0.1, **doc}
        write_config(cfg, doc)
        flags = ["--out", str(tmp_path / "x.csv")] if out else []
        assert main(["simulate", "--config", str(cfg), *flags]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_raised_divergence_exit_code(self, tmp_path, capsys):
        # the doubling of a(dt) overflows: DivergenceError, not a diverged run
        cfg = tmp_path / "div.json"
        omega = 2.0 * np.pi
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "matrices", "mass": [[1.0]], "damping": [[omega]],
                      "stiffness": [[omega * omega]]},
            "method": {"name": "per", "p": 2},
            "u0": [1.0],
            "dt": 1e80, "t_max": 1e80,
        })
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_DIVERGENCE
        assert capsys.readouterr().err.startswith(
            "divergence: non-finite entries while doubling the transition increment")

    def test_oversized_model_is_a_validation_error(self, tmp_path, capsys):
        # numpy refuses the 7 EiB matrices of a 10^9-dof chain before allocating
        cfg = tmp_path / "huge.json"
        write_config(cfg, {"version": 1, "model": {"kind": "chain", "n_dof": 10 ** 9},
                           "dt": 0.01, "t_max": 0.1})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_non_finite_load_exit_codes(self, tmp_path, capsys):
        # rk4 ends a NaN load as a diverged run; PER names the sample
        cfg = tmp_path / "nan.json"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "chain", "n_dof": 3, "mass": 1.0,
                      "stiffness": 100.0, "dampers": [{"i": 0, "j": None, "c": 1.0}]},
            "force": {"kind": "constant-step", "dof": 1, "t_c": 0.05, "f0": float("nan")},
            "dt": 0.01, "t_max": 0.2,
        })
        out = str(tmp_path / "nan.csv")
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--method", "rk4"]) == EXIT_DIVERGENCE
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", out]) == EXIT_VALIDATION
        assert "non-finite force sample at t = 0.05" in capsys.readouterr().err


    @pytest.mark.parametrize("method, flags, keys", [
        ("per", ["--mb", "6", "--rb", "2", "--ma", "4", "--ra", "2", "--p", "16"],
         {"mb": 6, "rb": 2, "ma": 4, "ra": 2, "p": 16}),
        ("mpim", ["--g", "3", "--p", "12"], {"g": 3, "p": 12}),
        ("per", ["--mb", "8"], {"mb": 8.0}),
    ], ids=["per", "mpim", "integral-float"])
    def test_override_flags_equal_config_keys(self, method, flags, keys, tmp_path, capsys):
        # on each of the four --config commands
        doc = {"version": 1,
               "model": {"kind": "chain", "n_dof": 4, "dampers": [{"i": 0, "j": None, "c": 2.0}]},
               "force": {"kind": "constant-step", "dof": 1, "t_c": 0.05, "f0": 1.0},
               "method": {}, "dt": 0.01, "t_max": 0.2}
        write_config(tmp_path / "flags.json", doc)
        write_config(tmp_path / "keys.json", {**doc, "dt": 0.02, "t_max": 0.4,
                                              "method": {"name": method, **keys}})
        overrides = ["--method", method, "--dt", "0.02", "--t-max", "0.4", *flags]
        for command, lines in ((["simulate"], 22),  # the header and 21 samples, dt 0.02
                               (["compare"], 7),  # the header and six methods
                               (["sweep-dt", "--dts", "0.01,0.02"], 3),
                               (["sweep-damping", "--zetas", "0.5,1"], 3)):
            outputs = []
            for name, extra in (("flags", overrides), ("keys", [])):
                out = tmp_path / f"{name}.csv"
                assert main([*command, "--config", str(tmp_path / f"{name}.json"),
                             "--out", str(out), *extra]) == 0
                outputs.append((out.read_bytes(), capsys.readouterr().out))
            assert outputs[0] == outputs[1], command
            assert outputs[0][0].count(b"\n") == lines, command

    def test_beam_supports_and_point_loads(self):
        doc = {"version": 1, "dt": 1e-4, "t_max": 1e-3,
               "model": {"kind": "beam", "length": 2.0, "ei": 3e5, "total_mass": 120.0,
                         "n_elements": 6,
                         "supports": [{"node": 3, "spring": 1e4, "damper": 50.0},
                                      {"node": 6, "damper": 20.0}],
                         "point_loads": [{"node": 6, "direction": -1.0, "t_c": 4e-4,
                                          "f0": 300.0},
                                         {"node": 2, "f0": 40.0}]}}
        got = RunConfig.from_dict(doc).build_model()
        want = build_beam(2.0, 3e5, 120.0, 6, supports=[(3, 1e4, 50.0), (6, 0.0, 20.0)],
                          point_loads=[(6, -1.0, step_function(4e-4, 300.0)),
                                       (2, 1.0, step_function(0.0, 40.0))])
        for name in ("mass", "damping", "stiffness"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for t in np.linspace(0.0, 1e-3, 11):
            np.testing.assert_array_equal(got.force_at(t), want.force_at(t))
        assert got.force_at(1e-3)[10] == -300.0 and got.force_at(0.0)[2] == 40.0


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identical_bytes(self, sdof_config, tmp_path):
        config = load_config(str(sdof_config))
        copy_path = tmp_path / "copy.json"
        dump_config(config, str(copy_path))
        config2 = load_config(str(copy_path))

        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for cfg_path, out in ((sdof_config, out1), (copy_path, out2)):
            assert main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_version_checked(self, tmp_path):
        with pytest.raises(ValueError, match="version"):
            RunConfig.from_dict({"version": 7, "model": {}, "dt": 0.1,
                                 "t_max": 1.0})


class TestAnalysisCommands:
    def test_tau_limit_values(self, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        assert main(["tau-limit", "--m", "2,10", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["m", "tau_limit", "tau_limit_over_2pi"]
        got = {int(float(r[0])): float(r[1]) for r in rows}
        assert got[2] == pytest.approx(2.64303, abs=1e-4)
        assert got[10] == pytest.approx(7.38332, abs=1e-4)

    def test_tau_limit_rejects_odd(self, capsys):
        assert main(["tau-limit", "--m", "3"]) == EXIT_VALIDATION

    def test_sigma_curve_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["tau-limit", "--m", "2", "--curve-out", str(out),
                     "--curve-max", "3.0", "--curve-step", "0.5"]) == 0
        header, rows = read_csv(out)
        assert header == ["m", "tau", "abs_mu1", "abs_mu2"]
        assert len(rows) == 7
        # both moduli start at the common threshold 1/(2 sqrt(3))
        assert float(rows[0][2]) == pytest.approx(0.2886751345948129, abs=1e-12)

    @pytest.mark.parametrize("command", [
        ["tau-limit", "--m", "2", "--curve-step", "0"],
        ["tau-limit", "--m", "2", "--curve-step", "-1"],
        ["tau-limit", "--m", "2", "--curve-max", "-1"],
        ["stability-map", "--zeta", "0.05", "--ma", "2", "--grid-step", "0"],
    ], ids=["curve-step-zero", "curve-step-negative", "curve-max-negative", "grid-step-zero"])
    def test_scan_grid_must_be_positive(self, command, tmp_path, capsys):
        # one rule for both grids: the curve's zero step raised
        # ZeroDivisionError, its negative step or end wrote a header-only curve
        out = tmp_path / "grid.csv"
        flag = "--curve-out" if command[0] == "tau-limit" else "--out"
        assert main(command + [flag, str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: grid parameters must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        (["stability-map", "--zeta", "inf", "--ma", "2"], "zeta must be finite, not inf"),
        (["stability-map", "--zeta", "nan", "--ma", "2"], "zeta must be finite, not nan"),
        (["stability-map", "--zeta", "0.05", "--ma", "2", "--grid-max", "inf"],
         "grid end must be finite, not inf"),
        (["stability-map", "--zeta", "0.05", "--ma", "2", "--grid-max", "nan"],
         "grid end must be finite, not nan"),
        (["stability-map", "--zeta", "0.05", "--ma", "2", "--grid-step", "nan"],
         "grid step must be finite, not nan"),
        (["stability-map", "--zeta", "0.05", "--ma", "2", "--grid-max", "0.001",
          "--grid-step", "0.002"], "the grid from 0.002 by 0.002 through 0.001 is empty"),
        (["tau-limit", "--m", "2", "--curve-max", "inf"], "grid end must be finite, not inf"),
        (["tau-limit", "--m", "2", "--curve-max", "nan"], "grid end must be finite, not nan"),
    ], ids=["zeta-inf", "zeta-nan", "grid-max-inf", "grid-max-nan", "grid-step-nan",
            "grid-empty", "curve-max-inf", "curve-max-nan"])
    def test_scan_inputs_rejected_by_name(self, command, message, tmp_path, capsys):
        # numpy's errors ("Array must not contain infs or NaNs", after
        # RuntimeWarnings for zeta = inf; "Maximum allowed size exceeded";
        # "arange: cannot compute length") were printed, and the empty grid
        # wrote a header-only CSV and exited 0
        out = tmp_path / "grid.csv"
        flag = "--curve-out" if command[0] == "tau-limit" else "--out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(command + [flag, str(out)]) == EXIT_VALIDATION
        assert caught == []
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, code, last", [
        (["stability-map", "--zeta", "0.1", "--ma", "4", "--grid-max", "0.0015",
          "--grid-step", "0.002"], EXIT_VALIDATION, None),
        (["stability-map", "--zeta", "0.1", "--ma", "4", "--grid-max", "0.0071",
          "--grid-step", "0.002"], 0, 0.006),
        (["tau-limit", "--m", "4", "--curve-max", "0.08", "--curve-step", "0.05"], 0, 0.05),
    ], ids=["grid-below-one-step", "grid-max-0.0071", "curve-max-0.08"])
    def test_scan_grid_stops_at_its_end(self, command, code, last, tmp_path, capsys):
        # the grids wrote a point past their end (0.002, 0.008 and tau 0.1),
        # and the map printed "stable: 0.0000 < dt0/T < 0.0080"
        out = tmp_path / "grid.csv"
        flag = "--curve-out" if command[0] == "tau-limit" else "--out"
        assert main(command + [flag, str(out)]) == code
        printed = capsys.readouterr()
        if last is None:
            assert printed.err == "error: the grid from 0.002 by 0.002 through 0.0015 is empty\n"
            assert not out.exists()
            return
        header, rows = read_csv(out)
        column = header.index("tau") if "tau" in header else 0
        assert float(rows[-1][column]) == pytest.approx(last, rel=1e-12)
        assert command[0] == "tau-limit" or "stable: 0.0000 < dt0/T < 0.0060" in printed.out

    def test_stability_map_has_no_p(self, tmp_path, capsys):
        # the map lives at the reduced step: --p was parsed and shown nowhere
        with pytest.raises(SystemExit) as exc:
            main(["stability-map", "--zeta", "0.05", "--ma", "2", "--p", "20",
                  "--out", str(tmp_path / "map.csv")])
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: --p 20" in capsys.readouterr().err

    def test_stability_map_order_zero(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        assert main(["stability-map", "--zeta", "0.05", "--ma", "0",
                     "--out", str(out)]) == 0
        assert "stable: 0.0000 < dt0/T < 0.0159" in capsys.readouterr().out
        _, rows = read_csv(out)
        assert len(rows) == 450

    def test_stability_map(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        assert main(["stability-map", "--zeta", "0", "--ma", "2",
                     "--grid-max", "0.4", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0.2757" in printed
        header, rows = read_csv(out)
        assert header == ["dt0_over_T", "max_abs_lambda"]
        assert len(rows) > 100

    def test_cost_model(self, tmp_path, capsys):
        out = tmp_path / "cost.csv"
        assert main(["cost-model", "--method", "per", "--n", "1",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "n3=213" in printed
        header, rows = read_csv(out)
        assert float(rows[0][2]) == 213.0

    @pytest.mark.parametrize("flags, message", [
        (["--method", "per", "--n", "-5"], "N >= 1"),
        (["--method", "per", "--p", "-30"], "p must be >= 1"),
        (["--method", "per", "--ma", "3"], "m_a must be an even integer >= 2, got 3"),
        (["--method", "per", "--mb", "62"], "m_b exceeds the series cap 60"),
        (["--method", "per", "--rb", "0"], "r_b must be an even integer >= 2, got 0"),
        (["--method", "mpim", "--g", "0"], "g must be one of [2, 3, 4, 5, 6], got 0"),
        (["--method", "mpim", "--p", "0"], "p must be >= 1"),
        (["--method", "rk4", "--steps", "-10"], "steps >= 0"),
    ], ids=["n", "p", "ma-odd", "mb-cap", "rb-zero", "g", "mpim-p", "steps"])
    def test_cost_model_rejects_invalid_counts(self, flags, message, tmp_path, capsys):
        # each printed a count, such as total=-24950 for --n -5, and exited 0
        out = tmp_path / "cost.csv"
        assert main(["cost-model", *flags, "--out", str(out)]) == EXIT_VALIDATION
        printed = capsys.readouterr()
        assert printed.out == "" and not out.exists()
        assert printed.err.startswith("error: ") and message in printed.err


    def test_tau_limit_checks_the_curve_grid_first(self, tmp_path, capsys):
        # it printed the tau lines and wrote --out before the curve grid failed,
        # and printed the lines of the orders before a rejected one
        out, curve = tmp_path / "tau.csv", tmp_path / "curve.csv"
        for flags, message in (
                (["--m", "2,4", "--curve-out", str(curve), "--curve-step", "0"],
                 "grid parameters must be positive"),
                (["--m", "2,3"], "truncation order must be an even integer >= 0, got 3"),
                (["--m", "2,0"], "tau limit is undefined for m = 0 (constant spectral radius)")):
            assert main(["tau-limit", *flags, "--out", str(out)]) == EXIT_VALIDATION, flags
            printed = capsys.readouterr()
            assert printed.out == "" and printed.err == f"error: {message}\n"
            assert not out.exists() and not curve.exists()

    def test_tau_limit_rejects_an_empty_order_list(self, tmp_path, capsys):
        # "--m ," exited 0 and wrote a CSV that held only its header
        out = tmp_path / "tau.csv"
        assert main(["tau-limit", "--m", ",", "--out", str(out)]) == EXIT_VALIDATION
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == "error: --m lists no value\n"
        assert not out.exists()


class TestParser:
    def test_built_once_and_reused_after_a_failed_parse(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        # argparse's choices reject a method without a cost model
        with pytest.raises(SystemExit) as exc:
            main(["cost-model", "--method", "newmark"])
        assert exc.value.code == EXIT_VALIDATION
        assert "invalid choice: 'newmark'" in capsys.readouterr().err
        assert main(["cost-model", "--method", "per", "--n", "1"]) == 0
        assert "n3=213" in capsys.readouterr().out

    def test_command_looked_up_at_each_call(self, monkeypatch):
        # a cmd_* replaced after the parser was built, as a tracer's wrapper, runs
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_cost_model", lambda args: calls.append(args.n) or 7)
        assert main(["cost-model", "--method", "rk4", "--n", "3"]) == 7
        assert calls == [3]

class TestSweepCommands:
    def test_sweep_dt_csv(self, sdof_config, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-dt", "--config", str(sdof_config),
                     "--dts", "0.02,0.05", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["dt", "dt_over_T", "e_disp", "e_vel", "diverged"]
        assert len(rows) == 2
        assert all(row[-1] in ("true", "false") for row in rows)

    def test_sweep_dt_divergent_row_format(self, tmp_path):
        # a step outside the RK4 stability interval: the row must carry
        # diverged=true with non-numbers in the error fields
        omega = 2.0 * np.pi
        cfg = tmp_path / "div.json"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "matrices", "mass": [[1.0]], "damping": [[0.0]],
                      "stiffness": [[omega * omega]]},
            "method": {"name": "rk4"},
            "u0": [1.0],
            "dt": 3.0 / omega, "t_max": 200 * 3.0 / omega,
        })
        out = tmp_path / "div.csv"
        assert main(["sweep-dt", "--config", str(cfg),
                     "--dts", f"{3.0 / omega}", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][-1] == "true"
        assert np.isnan(float(rows[0][2]))

    def test_sweep_damping_csv(self, tmp_path):
        cfg = tmp_path / "chain.json"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "chain", "zeta": 1.0},
            "method": {"name": "per", "mb": 8},
            "dt": 0.02, "t_max": 0.2,
            "u0": [0.01] * 12,
        })
        out = tmp_path / "zeta.csv"
        assert main(["sweep-damping", "--config", str(cfg),
                     "--zetas", "0.0,0.2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["zeta", "damping_level", "e_disp", "e_vel",
                          "rho_beta_b", "diverged"]
        assert float(rows[0][4]) == 0.0

    @pytest.mark.parametrize("command, flag", [("sweep-dt", "--dts"),
                                               ("sweep-damping", "--zetas")])
    def test_empty_list_rejected(self, sdof_config, tmp_path, capsys, command, flag):
        # a list of blank items exited 0 and wrote a CSV that held only its header
        out = tmp_path / "sweep.csv"
        assert main([command, "--config", str(sdof_config), flag, ", ,",
                     "--out", str(out)]) == EXIT_VALIDATION
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == f"error: {flag} lists no value\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["compare", "--methods", "per,newmark,rk4"],
        ["sweep-dt", "--method", "per", "--dts", "0.02,0.05"],
        ["sweep-dt", "--method", "newmark", "--dts", "0.02,0.05"],
    ])
    def test_raising_run_scores_as_diverged(self, sdof_config, tmp_path,
                                            monkeypatch, command):
        # a run that raises DivergenceError gets the diverged row of the
        # scoring rule compare and the sweeps share
        def diverge(*args, **kwargs):
            raise DivergenceError("forced divergence")

        monkeypatch.setattr(per, "build_scheme", diverge)
        monkeypatch.setattr(baselines, "_newmark_map", diverge)
        out = tmp_path / "scores.csv"
        assert main(command + ["--config", str(sdof_config), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        if command[0] == "compare":
            assert rows[0] == ["per", "nan", "nan", "true"]
            assert rows[1] == ["newmark", "nan", "nan", "true"]
            assert rows[2][0] == "rk4" and rows[2][-1] == "false"
        else:
            assert [row[2:] for row in rows] == [["nan", "nan", "true"]] * 2

    def test_divergent_damping_series_scores_as_diverged(self, tmp_path):
        # the README chain with dampers c = 120: rho(beta_b) = 1.66 at
        # dt 0.024, so PER's finite trajectory is no converged run in
        # compare or in the sweeps
        cfg = tmp_path / "c120.json"
        write_config(cfg, {
            "version": 1,
            "model": {"kind": "chain", "n_dof": 12, "mass": 1.0, "stiffness": 100.0,
                      "dampers": [{"i": 0, "j": None, "c": 120.0},
                                  {"i": 1, "j": 2, "c": 120.0}]},
            "force": {"kind": "gaussian-multiharmonic", "dof": 2, "t0": 10.0,
                      "s": 2.5, "components": [{"a": 1.0, "omega": 3.0},
                                               {"a": 0.5, "omega": 7.1}]},
            "method": {"name": "per", "mb": 8, "rb": 4},
            "dt": 0.024, "t_max": 0.48,
        })
        out = tmp_path / "scores.csv"
        assert main(["compare", "--config", str(cfg), "--methods", "per",
                     "--out", str(out)]) == 0
        assert read_csv(out)[1] == [["per", "nan", "nan", "true"]]
        assert main(["sweep-dt", "--config", str(cfg), "--dts", "0.024",
                     "--out", str(out)]) == 0
        assert read_csv(out)[1][0][2:] == ["nan", "nan", "true"]
        assert main(["sweep-damping", "--config", str(cfg), "--zetas", "1",
                     "--out", str(out)]) == 0
        [row] = read_csv(out)[1]
        assert row[2:4] == ["nan", "nan"] and float(row[4]) > 1.6 and row[5] == "true"

    @pytest.mark.parametrize("dof", ["1", "-1"])
    @pytest.mark.parametrize("command", [
        ["compare"], ["sweep-dt", "--dts", "0.02"], ["sweep-damping", "--zetas", "1"]],
        ids=["compare", "sweep-dt", "sweep-damping"])
    def test_dof_out_of_range_rejected_before_any_run(self, sdof_config, tmp_path,
                                                      capsys, monkeypatch, command, dof):
        # 1 raised IndexError after every run, -1 scored the last dof
        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was built")

        monkeypatch.setattr(bench, "reference_solution", no_reference)
        out = tmp_path / "out.csv"
        assert main(command + ["--config", str(sdof_config), "--dof", dof,
                               "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: dof must be in [0, 1), got {dof}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["compare", "--methods", "per,bogus"],
        ["sweep-dt", "--dts", "0.02", "--method", "bogus"],
        ["sweep-damping", "--zetas", "0,1", "--method", "bogus"]],
        ids=["compare", "sweep-dt", "sweep-damping"])
    def test_unknown_method_rejected_before_any_run(self, sdof_config, tmp_path,
                                                    capsys, monkeypatch, command):
        # each built a full RK4 reference, and sweep-damping a radius per
        # zeta, before run_method named the method
        calls = []

        def spy(original):
            return lambda *args, **kwargs: calls.append(original) or original(*args, **kwargs)
        for module, name in ((bench, "reference_solution"), (analysis, "beta_radius_map")):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
        out = tmp_path / "out.csv"
        assert main(command + ["--config", str(sdof_config), "--out", str(out)]) \
            == EXIT_VALIDATION
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: unknown method 'bogus'; expected one of {bench.METHODS}\n")
        assert not out.exists()

    def test_sweep_dt_ignores_the_config_step(self, sdof_config, tmp_path):
        # sweep-dt steps only with --dts: a config dt beyond t_max is no error
        doc = json.loads(sdof_config.read_text())
        doc.update(dt=5.0, t_max=4.0)
        write_config(sdof_config, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep-dt", "--config", str(sdof_config),
                     "--dts", "0.01,0.02", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row[-1] for row in rows] == ["false", "false"]

    @pytest.mark.parametrize("command", [
        ["simulate"], ["compare"], ["sweep-damping", "--zetas", "1"]])
    def test_step_longer_than_the_run_rejected(self, sdof_config, tmp_path,
                                               capsys, command):
        # the integrators' step-count rule, reached through every command
        # that steps with the config's dt
        out = tmp_path / "out.csv"
        assert main(command + ["--config", str(sdof_config), "--t-max", "0.01",
                               "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: t_max must be at least one time step\n"

    def test_infinite_t_max_flag_rejected(self, sdof_config, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(sdof_config), "--t-max", "inf",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: t_max must be finite, got inf\n"

    def test_compare_csv(self, sdof_config, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", str(sdof_config),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["method", "e_disp", "e_vel", "diverged"]
        assert [row[0] for row in rows] == ["per", "newmark", "wilson",
                                            "bathe", "rk4", "mpim"]
        errs = {row[0]: float(row[1]) for row in rows}
        assert all(row[-1] == "false" for row in rows)
        assert errs["per"] < errs["newmark"]


class TestCsvFormat:
    def test_lf_endings_and_digits(self, sdof_config, tmp_path):
        out = tmp_path / "fmt.csv"
        main(["simulate", "--config", str(sdof_config), "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        # a 17-significant-digit float must round-trip exactly
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == float(f"{float(value):.17g}")

    def test_array_rows_write_the_per_item_bytes(self, tmp_path):
        values = np.array([
            [0.0, -0.0, 5e-324, -5e-324, 1e300],
            [-1e300, 1.0, -2.0, 3.0, 1e16],
            [0.1, -1.0 / 3.0, 2.0 ** 0.5, -123456789.0, 2.5e-308],
            [np.pi, -np.e, 1e-5, 65536.0, -0.5],
        ])
        header = ["a", "b", "c", "d", "e"]
        write_csv(str(tmp_path / "array.csv"), header, values)
        write_csv(str(tmp_path / "items.csv"), header, values.tolist())
        raw = (tmp_path / "array.csv").read_bytes()
        assert raw == (tmp_path / "items.csv").read_bytes()
        assert raw.splitlines()[1] == b"0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,1.0000000000000001e+300"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def odd_rows(n):
    """An array of n numbers with an odd number of rows and several columns."""
    cols = next(c for c in range(2, n + 1) if n % c == 0 and n // c % 2)
    return np.random.default_rng(n).standard_normal((n // cols, cols))


class TestSplitWriter:
    """From cli._SPLIT_NUMBERS numbers, write_csv formats the second half of
    an array in a forked child; the bytes are those of the item-by-item path."""

    @staticmethod
    def assert_same_bytes(tmp_path, values):
        header = [f"c{j}" for j in range(values.shape[1])]
        write_csv(str(tmp_path / "array.csv"), header, values)
        write_csv(str(tmp_path / "items.csv"), header, values.tolist())
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "items.csv").read_bytes()
        assert_no_child_left()

    @staticmethod
    def count_forks(monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("shape", ["one-column", "odd-rows"])
    def test_same_bytes_around_the_threshold(self, tmp_path, monkeypatch, offset, shape):
        n = cli._SPLIT_NUMBERS + offset
        values = (np.random.default_rng(n).standard_normal((n, 1)) if shape == "one-column"
                  else odd_rows(n))
        assert values.size == n
        forks = self.count_forks(monkeypatch)
        self.assert_same_bytes(tmp_path, values)
        assert len(forks) == (offset >= 0)

    def test_special_values_split(self, tmp_path, monkeypatch):
        special = np.array([
            [0.0, -0.0, 5e-324, -5e-324, 1e300],
            [-1e300, 1.0, -2.0, 3.0, 1e16],
            [0.1, -1.0 / 3.0, 2.0 ** 0.5, -123456789.0, 2.5e-308],
            [np.pi, -np.e, 1e-5, 65536.0, -0.5],
        ])
        # an odd row count, above the threshold
        values = np.tile(special, (cli._SPLIT_NUMBERS // 20 + 2, 1))[1:]
        forks = self.count_forks(monkeypatch)
        self.assert_same_bytes(tmp_path, values)
        assert len(forks) == 1

    def test_without_fork_the_array_is_written_here(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        self.assert_same_bytes(tmp_path, odd_rows(cli._SPLIT_NUMBERS + 1))

    @staticmethod
    def fail_blocks(monkeypatch, failing_start):
        """Make _csv_blocks raise for the half that starts as ``failing_start``
        says: in the child (start > 0) or here (start == 0)."""
        blocks = cli._csv_blocks

        def patched(rows, start, stop):
            if failing_start(start):
                raise RuntimeError("injected")
            return blocks(rows, start, stop)
        monkeypatch.setattr(cli, "_csv_blocks", patched)

    def test_child_failure_is_an_os_error(self, tmp_path, monkeypatch, sdof_config, capsys):
        self.fail_blocks(monkeypatch, lambda start: start > 0)
        values = np.ones((cli._SPLIT_NUMBERS, 1))
        with pytest.raises(OSError, match="child process exited with code 1"):
            write_csv(str(tmp_path / "a.csv"), ["a"], values)
        assert_no_child_left()
        # sdof_config writes (t, u, v): 3 numbers a row at dt 0.02
        t_max = 0.02 * (cli._SPLIT_NUMBERS // 3 + 1)
        assert main(["simulate", "--config", str(sdof_config), "--t-max", str(t_max),
                     "--out", str(tmp_path / "b.csv")]) == EXIT_VALIDATION
        assert "error: the CSV writer's child process exited" in capsys.readouterr().err
        assert_no_child_left()

    def test_parent_failure_kills_the_child(self, tmp_path, monkeypatch):
        self.fail_blocks(monkeypatch, lambda start: start == 0)
        signals, kill = [], os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: signals.append(sig) or kill(pid, sig))
        with pytest.raises(RuntimeError, match="injected"):
            write_csv(str(tmp_path / "a.csv"), ["a"], np.ones((cli._SPLIT_NUMBERS, 1)))
        assert signals == [signal.SIGKILL]
        assert_no_child_left()
