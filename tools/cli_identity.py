"""Compare the perdyn command line of two source trees, output for output.

    python3 tools/cli_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``perdyn`` package,
such as the ``src`` directories of two checkouts.  The same fixed matrix of
commands runs against each tree, in a fresh interpreter per tree with one
BLAS thread and ``COLUMNS=80`` (so that help text does not depend on the
terminal), and every CSV, stdout, exit code and stderr that differs
between the two is printed.  For a CSV whose header and row count agree,
the largest difference of a numeric column relative to the peak of that
column in the parent is printed too, so that a roundoff move can be read
against a relative bar such as 1e-12.  The script exits 0 when all are
identical and 1 otherwise.

The matrix:

- ``simulate`` with each of the six methods on the README chain (dt 0.024,
  t_max 40) and on the benchmark beam (dt 2e-5, t_max 0.02, m_b 8);
- ``simulate`` of the perturbation scheme on the benchmark beam to t_max
  0.1: 5,001 rows of 97 numbers, far above the size from which the CSV
  writer formats half of the rows in a forked child;
- ``simulate`` of the perturbation scheme on two runs with
  rho(beta_b) >= 1: the README chain with dampers c = 120, and the
  unforced ``{"kind": "chain", "zeta": 3.0}`` at dt 1.4, m_b 2, r_b 12;
- ``simulate`` of Newmark on the c = 120 chain, whose summary still
  reports the perturbation scheme's rho(beta_b) >= 1;
- ``simulate`` of the perturbation scheme and of MPIM on the unforced
  ``{"kind": "chain", "zeta": 0.1, "n_dof": 96}`` from a nonzero ``u0``
  (dt 0.2, t_max 4): order 192, so both doublings take the profile product;
- ``simulate`` of the perturbation scheme on the unforced
  ``{"kind": "chain", "zeta": 0.1, "n_dof": 480}`` (dt 0.2, t_max 1): its
  step map is a band of a quarter of its order 960, so the step loop runs
  as a band.  ``u0`` alternates in sign with a size of 0.5e-2 to 1.5e-2 at
  every dof, so that no column of the CSV peaks near zero, where a roundoff
  move would read large against the column's peak;
- ``simulate`` of the perturbation scheme on that 480-dof chain with a step
  load at dof 3, so that the forcing operator on the load's dof runs in the
  band loop, and of Newmark on the 96-dof chain with the same load;
- ``simulate`` of RK4 on the unforced 480-dof chain at ``--dt 0.1``
  (``omega_max dt`` 2.0, inside RK4's stability limit): its step map is a
  band of width 13 in its order 960, so a baseline's run takes the band loop;
- ``simulate`` of two malformed configs: a ``{"kind": "chain"}`` model
  with neither ``n_dof`` nor ``zeta``, and an ``out`` that is the number 5
  (always run with ``--out``, so that no tree opens a file descriptor);
- ``simulate`` of two non-finite inputs: the README chain with
  ``--t-max inf``, and a config whose ``dt`` is NaN;
- ``simulate`` of the README chain with the override flags: the
  perturbation scheme at ``--dt 0.02 --mb 6 --rb 2 --ma 4 --ra 2 --p 16``,
  and MPIM at ``--dt 0.02 --g 3 --p 12``;
- ``simulate`` of a custom-support beam (6 elements, a sprung and damped
  support at node 3, a damper at node 6) with a step point load at its tip;
- ``simulate`` with each of the six methods on that beam with a second step
  point load, at node 3 from t = 5e-3, so that the load's support holds two
  dofs;
- ``simulate`` of two configs that the input checks reject: the README
  chain with ``"mb": 8.5``, and a chain whose damper ``c`` is infinite;
- ``simulate`` of the perturbation scheme on a 3-dof ``matrices`` model
  whose damping matrix has full rank, so that every dof is damped (dt 0.1,
  a step load at t = 0.3);
- ``simulate`` of the perturbation scheme on the README chain with a single
  ground damper, at dof 0, and a step load at dof 2 from t = 10: M^-1 C has
  one nonzero column, solved alone;
- ``simulate`` of a 2-dof chain with ``"p": 2000``, whose reduced step
  dt/2^p is no float;
- ``simulate`` of a chain with ``"n_dof": 1000000000``, whose matrices
  numpy refuses to allocate;
- ``compare`` on the README chain and on its c = 120 variant, and
  ``sweep-dt`` (the perturbation scheme and Newmark) and ``sweep-damping``
  on the README chain, all at t_max 4;
- ``compare`` on the README chain with ``--dof 12``, one past its last dof;
- ``compare --methods per,bogus`` and ``sweep-damping --method bogus`` on the
  README chain, whose unknown method is rejected;
- ``compare`` on the benchmark beam to t_max 0.0104, so that its tip step
  load switches on at the sample t = 0.01, 20 steps before the end;
- ``tau-limit --curve-out``, the same with ``--curve-step 0``, and four
  ``stability-map`` grids, one of them (zeta 0, m_a 8) with two stable runs
  whose second is bisected at both ends, and one of order m_a 0;
- eight scan inputs that the analysis rejects by name: ``stability-map``
  with ``--zeta`` inf and NaN, ``--grid-max`` inf and NaN, ``--grid-step``
  NaN and the empty grid ``--grid-max 0.001 --grid-step 0.002``, and
  ``tau-limit --curve-out`` with ``--curve-max`` inf and NaN;
- three grids whose end is not a whole number of steps from their start,
  which stop at their last point through the end: ``stability-map`` with
  ``--grid-step 0.002`` and ``--grid-max`` 0.0015 (no point, so rejected)
  and 0.0071, and ``tau-limit --curve-max 0.08 --curve-step 0.05``;
- ``cost-model`` of the perturbation scheme, MPIM and RK4 at N 48, and of
  the perturbation scheme at N -5;
- ``tau-limit --m 2,3``, whose odd order is rejected, and ``tau-limit --m ,``,
  whose list holds no order;
- ``perdyn --help`` and ``--help`` of each of the seven subcommands, at a
  terminal width of 80 columns;
- three usage errors that argparse reports: ``sweep-dt`` without ``--dts``,
  ``compare`` without ``--config``, and ``simulate --bogus 1``.

Each command runs through ``perdyn.cli.main`` in its own directory.  A
warning is written to stderr as "Category: message", without the file and
line that raised it, so that code which only moved is not a difference.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

METHODS = ("per", "newmark", "wilson", "bathe", "rk4", "mpim")

#: The run configuration of the README.
CHAIN = {
    "version": 1,
    "model": {"kind": "chain", "n_dof": 12, "mass": 1.0, "stiffness": 100.0,
              "dampers": [{"i": 0, "j": None, "c": 2.0}, {"i": 1, "j": 2, "c": 2.0}]},
    "force": {"kind": "gaussian-multiharmonic", "dof": 2, "t0": 10.0, "s": 2.5,
              "components": [{"a": 1.0, "omega": 3.0}, {"a": 0.5, "omega": 7.1}]},
    "method": {"name": "per", "mb": 8, "rb": 4},
    "dt": 0.024,
    "t_max": 40.0,
    "u0": [0] * 12,
    "reference": {"refine": 500},
}

CONFIGS = {
    "chain.json": CHAIN,
    # rho(beta_b) = 1.66 at dt 0.024, m_b 8, r_b 4
    "c120.json": {**CHAIN, "model": {**CHAIN["model"], "dampers": [
        {"i": 0, "j": None, "c": 120.0}, {"i": 1, "j": 2, "c": 120.0}]}},
    # the benchmark cantilever with its tip step load at t = 0.01
    "beam.json": {"version": 1, "model": {"kind": "beam"},
                  "method": {"name": "per", "mb": 8}, "dt": 2e-5, "t_max": 0.02,
                  "u0": [1e-3 * math.sin(i + 1.0) for i in range(48)],
                  "v0": [3e-2 * math.cos(i + 1.0) for i in range(48)]},
    # unforced, rho(beta_b) = 1223.6
    "zeta3.json": {"version": 1, "model": {"kind": "chain", "zeta": 3.0},
                   "method": {"name": "per", "mb": 2, "rb": 12}, "dt": 1.4,
                   "t_max": 14.0, "u0": [0.01] + [0.0] * 11},
    # the 96-dof benchmark chain, unforced: its increments are of order 192
    "chain96.json": {"version": 1, "model": {"kind": "chain", "zeta": 0.1, "n_dof": 96},
                     "dt": 0.2, "t_max": 4.0,
                     "u0": [1e-2 * math.sin(i + 1.0) for i in range(96)]},
    # the 480-dof benchmark chain, unforced: its step map is a narrow band
    "chain480.json": {"version": 1, "model": {"kind": "chain", "zeta": 0.1, "n_dof": 480},
                      "dt": 0.2, "t_max": 1.0,
                      "u0": [1e-2 * (-1) ** i * (1.0 + 0.5 * math.sin(i + 1.0))
                             for i in range(480)]},
    # a chain without n_dof or zeta: a validation error
    "missing-key.json": {"version": 1, "model": {"kind": "chain"}, "dt": 0.024,
                         "t_max": 0.48},
    # an output path that is not a string: a validation error
    "out-not-string.json": {"version": 1, "model": {"kind": "chain", "n_dof": 2},
                            "dt": 0.01, "t_max": 0.1, "out": 5},
    # a time step that is not a number: a validation error
    "dt-nan.json": {"version": 1, "model": {"kind": "chain", "n_dof": 2},
                    "dt": math.nan, "t_max": 0.1},
    # a beam built from supports and point loads, at 0.57 dt_max
    "beam-supports.json": {
        "version": 1, "method": {"name": "per", "mb": 8}, "dt": 1e-4, "t_max": 0.02,
        "model": {"kind": "beam", "length": 2.0, "ei": 3e5, "total_mass": 120.0,
                  "n_elements": 6,
                  "supports": [{"node": 3, "spring": 1e4, "damper": 50.0},
                               {"node": 6, "damper": 20.0}],
                  "point_loads": [{"node": 6, "direction": -1.0, "t_c": 2e-3, "f0": 300.0}]}},
    # the same beam with a second point load: a support of two dofs
    "beam-two-loads.json": {
        "version": 1, "method": {"name": "per", "mb": 8}, "dt": 1e-4, "t_max": 0.02,
        "model": {"kind": "beam", "length": 2.0, "ei": 3e5, "total_mass": 120.0,
                  "n_elements": 6,
                  "supports": [{"node": 3, "spring": 1e4, "damper": 50.0},
                               {"node": 6, "damper": 20.0}],
                  "point_loads": [{"node": 6, "direction": -1.0, "t_c": 2e-3, "f0": 300.0},
                                  {"node": 3, "t_c": 5e-3, "f0": 100.0}]}},
    # a truncation order that is not an integer
    "mb-non-integral.json": {**CHAIN, "method": {"name": "per", "mb": 8.5, "rb": 4},
                             "t_max": 0.48},
    # an infinite damper
    "damper-infinite.json": {"version": 1, "dt": 0.01, "t_max": 0.1,
                             "model": {"kind": "chain", "n_dof": 2,
                                       "dampers": [{"i": 0, "j": None, "c": math.inf}]}},
    # every dof damped: C has full rank
    "matrices.json": {"version": 1, "dt": 0.1, "t_max": 4.0, "u0": [0.01, 0.0, -0.01],
                      "model": {"kind": "matrices",
                                "mass": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]],
                                "damping": [[3.0, -1.0, 0.5], [-1.0, 2.0, -0.5],
                                            [0.5, -0.5, 1.0]],
                                "stiffness": [[200.0, -100.0, 0.0], [-100.0, 200.0, -100.0],
                                              [0.0, -100.0, 100.0]]},
                      "force": {"kind": "constant-step", "dof": 1, "t_c": 0.3, "f0": 5.0}},
    # one damped dof, and a step load
    "one-damper.json": {**CHAIN,
                        "model": {**CHAIN["model"], "dampers": [{"i": 0, "j": None, "c": 2.0}]},
                        "force": {"kind": "constant-step", "dof": 2, "t_c": 10.0, "f0": 1.0}},
    # a reduced step dt/2^p beyond the float range
    "p-overflow.json": {"version": 1, "model": {"kind": "chain", "n_dof": 2},
                        "method": {"name": "per", "p": 2000}, "dt": 0.01, "t_max": 0.1},
    # 7 EiB per matrix: numpy refuses before allocating
    "chain-huge.json": {"version": 1, "model": {"kind": "chain", "n_dof": 1000000000},
                        "dt": 0.01, "t_max": 0.1},
}

# the 96- and 480-dof chains with a step load at dof 3 from t = 0.3
CONFIGS.update({f"{name}-forced.json": {**CONFIGS[f"{name}.json"], "force": {
    "kind": "constant-step", "dof": 3, "t_c": 0.3, "f0": 2.0}} for name in ("chain96", "chain480")})

SHORT = ["--t-max", "4"]

SUBCOMMANDS = ("simulate", "stability-map", "tau-limit", "sweep-dt", "sweep-damping",
               "cost-model", "compare")

#: case name -> command-line arguments, run in a directory holding CONFIGS.
CASES = {
    **{f"simulate-chain-{m}": ["simulate", "--config", "chain.json", "--method", m,
                               "--out", "out.csv"] for m in METHODS},
    **{f"simulate-beam-{m}": ["simulate", "--config", "beam.json", "--method", m,
                              "--out", "out.csv"] for m in METHODS},
    "simulate-beam-long": ["simulate", "--config", "beam.json", "--t-max", "0.1",
                           "--out", "out.csv"],
    "simulate-c120-per": ["simulate", "--config", "c120.json", "--out", "out.csv"],
    "simulate-zeta3-per": ["simulate", "--config", "zeta3.json", "--out", "out.csv"],
    "simulate-c120-newmark": ["simulate", "--config", "c120.json", "--method", "newmark",
                              "--out", "out.csv"],
    **{f"simulate-chain96-{m}": ["simulate", "--config", "chain96.json", "--method", m,
                                 "--out", "out.csv"] for m in ("per", "mpim")},
    "simulate-chain480-per": ["simulate", "--config", "chain480.json", "--out", "out.csv"],
    "simulate-chain480-forced-per": ["simulate", "--config", "chain480-forced.json",
                                     "--out", "out.csv"],
    "simulate-chain480-rk4": ["simulate", "--config", "chain480.json", "--method", "rk4",
                              "--dt", "0.1", "--out", "out.csv"],
    "simulate-chain96-forced-newmark": ["simulate", "--config", "chain96-forced.json",
                                        "--method", "newmark", "--out", "out.csv"],
    "simulate-missing-key": ["simulate", "--config", "missing-key.json", "--out", "out.csv"],
    "simulate-out-not-string": ["simulate", "--config", "out-not-string.json",
                                "--out", "out.csv"],
    "simulate-t-max-infinite": ["simulate", "--config", "chain.json", "--t-max", "inf",
                                "--out", "out.csv"],
    "simulate-dt-nan": ["simulate", "--config", "dt-nan.json", "--out", "out.csv"],
    "simulate-chain-per-flags": ["simulate", "--config", "chain.json", "--dt", "0.02",
                                 "--mb", "6", "--rb", "2", "--ma", "4", "--ra", "2",
                                 "--p", "16", "--out", "out.csv"],
    "simulate-chain-mpim-flags": ["simulate", "--config", "chain.json", "--method", "mpim",
                                  "--dt", "0.02", "--g", "3", "--p", "12", "--out", "out.csv"],
    "simulate-beam-supports": ["simulate", "--config", "beam-supports.json", "--out", "out.csv"],
    **{f"simulate-beam-two-loads-{m}": ["simulate", "--config", "beam-two-loads.json",
                                        "--method", m, "--out", "out.csv"] for m in METHODS},
    "simulate-mb-non-integral": ["simulate", "--config", "mb-non-integral.json",
                                 "--out", "out.csv"],
    "simulate-damper-infinite": ["simulate", "--config", "damper-infinite.json",
                                 "--out", "out.csv"],
    "simulate-matrices-full-damping": ["simulate", "--config", "matrices.json",
                                       "--out", "out.csv"],
    "simulate-chain-one-damper": ["simulate", "--config", "one-damper.json",
                                  "--out", "out.csv"],
    "simulate-p-overflow": ["simulate", "--config", "p-overflow.json", "--out", "out.csv"],
    "simulate-chain-huge": ["simulate", "--config", "chain-huge.json", "--out", "out.csv"],
    "compare-chain": ["compare", "--config", "chain.json", *SHORT, "--out", "out.csv"],
    "compare-c120": ["compare", "--config", "c120.json", *SHORT, "--out", "out.csv"],
    "sweep-dt-per": ["sweep-dt", "--config", "chain.json", *SHORT,
                     "--dts", "0.01,0.024,0.05,0.5", "--out", "out.csv"],
    "sweep-dt-newmark": ["sweep-dt", "--config", "chain.json", *SHORT, "--method", "newmark",
                         "--dts", "0.024,0.5", "--out", "out.csv"],
    "sweep-damping": ["sweep-damping", "--config", "chain.json", *SHORT,
                      "--zetas", "0,0.5,1,5,20,60", "--out", "out.csv"],
    "compare-beam": ["compare", "--config", "beam.json", "--t-max", "0.0104", "--out", "out.csv"],
    "compare-dof-out-of-range": ["compare", "--config", "chain.json", *SHORT, "--dof", "12",
                                 "--out", "out.csv"],
    "compare-method-unknown": ["compare", "--config", "chain.json", *SHORT,
                               "--methods", "per,bogus", "--out", "out.csv"],
    "sweep-damping-method-unknown": ["sweep-damping", "--config", "chain.json", *SHORT,
                                     "--method", "bogus", "--zetas", "0,1",
                                     "--out", "out.csv"],
    "tau-limit": ["tau-limit", "--m", "2,4,6,8,10,20", "--out", "out.csv",
                  "--curve-out", "curve.csv"],
    "tau-limit-curve-step-zero": ["tau-limit", "--m", "2,4", "--out", "out.csv",
                                  "--curve-out", "curve.csv", "--curve-step", "0"],
    "stability-map-0.05": ["stability-map", "--zeta", "0.05", "--ma", "2", "--out", "out.csv"],
    "stability-map-0.5": ["stability-map", "--zeta", "0.5", "--ma", "4", "--out", "out.csv"],
    "stability-map-two-runs": ["stability-map", "--zeta", "0", "--ma", "8", "--out", "out.csv"],
    "stability-map-order-zero": ["stability-map", "--zeta", "0.005", "--ma", "0",
                                 "--out", "out.csv"],
    **{f"stability-map-{name}": ["stability-map", "--ma", "2", "--out", "out.csv", *flags]
       for name, flags in (("zeta-inf", ["--zeta", "inf"]), ("zeta-nan", ["--zeta", "nan"]),
                           ("grid-max-inf", ["--zeta", "0.05", "--grid-max", "inf"]),
                           ("grid-max-nan", ["--zeta", "0.05", "--grid-max", "nan"]),
                           ("grid-step-nan", ["--zeta", "0.05", "--grid-step", "nan"]),
                           ("grid-empty", ["--zeta", "0.05", "--grid-max", "0.001",
                                           "--grid-step", "0.002"]))},
    **{f"tau-limit-curve-max-{value}": ["tau-limit", "--m", "2,4", "--out", "out.csv",
                                        "--curve-out", "curve.csv", "--curve-max", value]
       for value in ("inf", "nan")},
    **{f"stability-map-grid-max-{value}": ["stability-map", "--zeta", "0.1", "--ma", "4",
                                           "--grid-max", value, "--grid-step", "0.002",
                                           "--out", "out.csv"] for value in ("0.0015", "0.0071")},
    "tau-limit-curve-past-end": ["tau-limit", "--m", "4", "--curve-out", "curve.csv",
                                 "--curve-max", "0.08", "--curve-step", "0.05"],
    **{f"cost-model-{m}": ["cost-model", "--method", m, "--n", "48", "--steps", "1000",
                           "--out", "out.csv"] for m in ("per", "mpim", "rk4")},
    "cost-model-invalid": ["cost-model", "--method", "per", "--n", "-5", "--out", "out.csv"],
    "tau-limit-odd-order": ["tau-limit", "--m", "2,3", "--out", "out.csv"],
    "tau-limit-empty": ["tau-limit", "--m", ",", "--out", "out.csv"],
    "help": ["--help"],
    **{f"help-{command}": [command, "--help"] for command in SUBCOMMANDS},
    "usage-sweep-dt-no-dts": ["sweep-dt", "--config", "chain.json", "--out", "out.csv"],
    "usage-compare-no-config": ["compare", "--out", "out.csv"],
    "usage-simulate-unknown-flag": ["simulate", "--config", "chain.json", "--bogus", "1",
                                    "--out", "out.csv"],
}

#: Outputs of one case besides the files it writes.
STREAMS = ("exit_code", "stdout", "stderr")


def run_cases(src: str, out_dir: str) -> None:
    """Run every case against the perdyn package under ``src``; case ``c``
    leaves its files and its STREAMS under ``out_dir/c``."""
    sys.path.insert(0, os.path.abspath(src))
    from perdyn import cli
    if Path(cli.__file__).resolve().parent != (Path(src) / "perdyn").resolve():
        sys.exit(f"error: imported perdyn from {cli.__file__}, not {src}")

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(f"{category.__name__}: {message}\n")

    for name, argv in CASES.items():
        case_dir = Path(out_dir) / name
        case_dir.mkdir(parents=True)
        for file_name, doc in CONFIGS.items():
            (case_dir / file_name).write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(case_dir)
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.showwarning = show
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            except Exception as exc:
                stderr.write("".join(traceback.format_exception_only(exc)))
                code = 1
        for file_name in CONFIGS:
            (case_dir / file_name).unlink()
        for stream, text in zip(STREAMS, (f"{code}\n", stdout.getvalue(), stderr.getvalue())):
            (case_dir / f"{stream}.txt").write_text(text)


def _outputs(case_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())}


def _relative_move(old: str, new: str) -> str:
    """" largest difference X of the peak of column C" over the numeric
    columns of two CSVs with one header and row count, else ""."""
    old_rows, new_rows = ([line.split(",") for line in text.splitlines()]
                          for text in (old, new))
    if not old_rows or len(old_rows) != len(new_rows) or old_rows[0] != new_rows[0]:
        return ""
    worst = (0.0, None)
    for j, column in enumerate(old_rows[0]):
        try:
            pairs = [(float(a[j]), float(b[j])) for a, b in zip(old_rows[1:], new_rows[1:])]
        except (ValueError, IndexError):
            continue
        diffs = [0.0 if a == b or math.isnan(a) and math.isnan(b) else abs(a - b)
                 for a, b in pairs]
        diff = max((math.inf if math.isnan(d) else d for d in diffs), default=0.0)
        peak = max((abs(a) for a, _ in pairs if math.isfinite(a)), default=0.0)
        rel = diff / peak if peak else (math.inf if diff else 0.0)
        worst = max(worst, (rel, column), key=lambda item: item[0])
    rel, column = worst
    return f" largest difference {rel:.2g} of the peak of column {column}" if rel else ""


def _describe(name, old: bytes | None, new: bytes | None) -> str:
    if old is None or new is None:
        return f"  {name}: only in the {'change' if old is None else 'parent'}"
    old, new = old.decode(errors="replace"), new.decode(errors="replace")
    move = _relative_move(old, new) if name.endswith(".csv") else ""
    lines = difflib.unified_diff(old.splitlines(), new.splitlines(),
                                 "parent", "change", n=0, lineterm="")
    shown = list(lines)[2:14]
    return "\n".join([f"  {name}:{move}"] + [f"    {line[:160]}" for line in shown])


def differences(parent_dir: str, change_dir: str) -> dict:
    """case -> description of each output that differs, for the cases
    whose outputs under ``parent_dir`` and ``change_dir`` are not identical."""
    found = {}
    for name in CASES:
        old = _outputs(Path(parent_dir, name))
        new = _outputs(Path(change_dir, name))
        report = [_describe(key, old.get(key), new.get(key))
                  for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]
        if report:
            found[name] = report
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--worker":
        run_cases(argv[1], argv[2])
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, label) for label in ("parent", "change")]
        for src, out_dir in zip(argv, dirs):
            subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                            src, out_dir], check=True, env=env)
        found = differences(*dirs)
    for name, report in found.items():
        print(f"{name}: differs")
        print("\n".join(report))
    print(f"{len(CASES) - len(found)} of {len(CASES)} cases identical, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
