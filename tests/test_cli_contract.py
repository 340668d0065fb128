"""The command-line contract under generated configs: every run of
``simulate``, ``compare``, ``sweep-dt`` and ``sweep-damping`` exits 0, 2
or 3 (an uncaught exception is the traceback and exit 1 of the console
script), an exit 2 prints an ``error:`` line, and an exit-0 ``simulate``
writes a CSV whose numbers are all finite.

The configs hold small chain, beam and matrix models (at most 5 dofs or 4
elements), each load kind and each method, with edge values (0, negative,
1e-110, 1e300, inf, NaN) and wrong-typed values in every field.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from perdyn.cli import main

EDGE = st.sampled_from([0, -1.0, 1e-110, 1e300, math.inf, -math.inf, math.nan])
WRONG = st.sampled_from(["x", True, [1.0]])
METHODS = ("per", "newmark", "wilson", "bathe", "rk4", "mpim")


def _mostly(usual):
    """``usual`` six times in eight, else an edge value or a wrong-typed one."""
    return st.integers(0, 7).flatmap(lambda k: EDGE if k == 6 else WRONG if k == 7 else usual)


def number(*usual):
    return _mostly(st.sampled_from(usual))


def count(lo, hi):
    return _mostly(st.integers(lo, hi))


def _symmetric(values, n):
    return [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]


def _matrices(n):
    entry = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 100.0, -0.5]), EDGE)
    matrix = st.one_of(
        st.lists(entry, min_size=n * n, max_size=n * n).map(lambda v: _symmetric(v, n)),
        WRONG)
    diagonal = st.lists(st.sampled_from([1.0, 2.0, 100.0]), min_size=n, max_size=n).map(
        lambda d: np.diag(d).tolist())
    return st.fixed_dictionaries({"kind": st.just("matrices"),
                                  "mass": st.one_of(diagonal, matrix),
                                  "damping": st.one_of(diagonal, matrix),
                                  "stiffness": st.one_of(diagonal, matrix)})


CHAIN = st.fixed_dictionaries(
    {"kind": st.just("chain"), "n_dof": count(1, 5)},
    optional={"mass": number(1.0, 2.0), "stiffness": number(100.0, 30.0),
              "dampers": st.lists(st.fixed_dictionaries(
                  {"i": count(0, 4), "c": number(0.5, 2.0)},
                  optional={"j": st.one_of(st.none(), count(0, 4))}), max_size=3)})
ZETA_CHAIN = st.fixed_dictionaries(
    {"kind": st.just("chain"), "zeta": number(0.0, 0.05, 0.5), "n_dof": count(1, 5)},
    optional={"mass": number(1.0), "stiffness": number(100.0)})
BEAM = st.fixed_dictionaries(
    {"kind": st.just("beam"), "n_elements": count(1, 4)},
    optional={"length": number(3.0, 1.0), "ei": number(437.5e3, 1e3),
              "total_mass": number(235.5, 10.0), "zeta_a": number(0.5, 0.0),
              "zeta_b": number(0.5, 0.1)})
SUPPORTED_BEAM = st.fixed_dictionaries(
    {"kind": st.just("beam"), "n_elements": count(1, 4), "length": number(2.0, 1.0),
     "ei": number(3e5, 1e3), "total_mass": number(120.0, 10.0),
     "supports": st.lists(st.fixed_dictionaries(
         {"node": count(1, 4)}, optional={"spring": number(1e4, 0.0),
                                          "damper": number(50.0, 0.0)}), max_size=2)},
    optional={"point_loads": st.lists(st.fixed_dictionaries(
        {"node": count(1, 4)}, optional={"direction": number(-1.0, 1.0),
                                         "t_c": number(0.0, 0.01), "f0": number(300.0)}),
        max_size=2)})
MODEL = st.one_of(CHAIN, ZETA_CHAIN, BEAM, SUPPORTED_BEAM,
                  st.integers(1, 3).flatmap(_matrices))

FORCE = st.one_of(
    st.just({"kind": "zero"}),
    st.fixed_dictionaries({"kind": st.just("constant-step"), "dof": count(0, 5),
                           "f0": number(1.0, -2.0)}, optional={"t_c": number(0.0, 0.05)}),
    st.fixed_dictionaries({"kind": st.just("gaussian-multiharmonic"), "dof": count(0, 5),
                           "t0": number(0.05, 0.0), "s": number(0.02, 1.0),
                           "components": st.lists(st.fixed_dictionaries(
                               {"a": number(1.0, 0.5), "omega": number(3.0, 7.1)}),
                               max_size=2)}))

METHOD = st.fixed_dictionaries(
    {"name": st.sampled_from(METHODS)},
    optional={"mb": count(2, 8), "rb": count(2, 4), "ma": count(2, 4), "ra": count(2, 4),
              "p": count(1, 30), "g": count(2, 6), "gamma": number(0.5, 0.6),
              "beta": number(0.25), "theta": number(1.4, 1.0)})

CONFIG = st.fixed_dictionaries(
    {"model": MODEL, "force": FORCE, "dt": number(0.01, 0.05, 1e-3),
     "t_max": number(0.1, 0.02)},
    optional={"method": METHOD,
              "u0": st.lists(number(0.01, 0.0), max_size=5),
              "reference": st.fixed_dictionaries({"refine": count(1, 50)})})

COMMAND = st.one_of(
    st.just(["simulate"]),
    st.just(["compare"]),
    st.tuples(st.just("sweep-dt"), st.just("--dts"),
              st.sampled_from(["0.01,0.05", "0.02", "0,0.01", "-1", "nan", "1e300"])
              ).map(list),
    st.tuples(st.just("sweep-damping"), st.just("--zetas"),
              st.sampled_from(["0,1", "0.5", "-1", "nan,inf", "1e300"])).map(list))

DOF = st.one_of(st.just("0"), st.sampled_from(["1", "4", "-1", "5"]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=CONFIG, command=COMMAND, dof=DOF)
@example(config={"model": {"kind": "beam", "length": 0}, "dt": 0.001, "t_max": 0.01},
         command=["simulate"], dof="0")
@example(config={"model": {"kind": "beam", "length": 1e300}, "dt": 0.001, "t_max": 0.01},
         command=["simulate"], dof="0")
@example(config={"model": {"kind": "beam", "length": 1e-110}, "dt": 0.001, "t_max": 0.01},
         command=["simulate"], dof="0")
@example(config={"model": {"kind": "beam", "total_mass": 0}, "dt": 0.001, "t_max": 0.01},
         command=["simulate"], dof="0")
@example(config={"model": {"kind": "beam", "supports": [], "length": 0, "ei": 1.0,
                           "total_mass": 1.0, "n_elements": 2},
                 "dt": 0.001, "t_max": 0.01},
         command=["simulate"], dof="0")
def test_cli_contract(config, command, dof, tmp_path):
    cfg, out = tmp_path / "config.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    argv = [command[0], "--config", str(cfg), "--out", str(out), *command[1:]]
    if command[0] != "simulate":
        argv += ["--dof", dof]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert any(line.startswith("error: ") for line in stderr.getvalue().splitlines())
    if code == 0 and command[0] == "simulate":
        with open(out) as fh:
            next(fh)
            values = np.array([[float(x) for x in line.split(",")] for line in fh])
        assert values.size and np.isfinite(values).all()
