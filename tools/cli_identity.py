"""Compare the perdyn command line of two source trees, output for output.

    python3 tools/cli_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``perdyn`` package,
such as the ``src`` directories of two checkouts.  The same fixed matrix of
commands runs against each tree, in a fresh interpreter per tree with one
BLAS thread, and every CSV, stdout, exit code and stderr that differs
between the two is printed.  For a CSV whose header and row count agree,
the largest difference of a numeric column relative to the peak of that
column in the parent is printed too, so that a roundoff move can be read
against a relative bar such as 1e-12.  The script exits 0 when all are
identical and 1 otherwise.

The matrix:

- ``simulate`` with each of the six methods on the README chain (dt 0.024,
  t_max 40) and on the benchmark beam (dt 2e-5, t_max 0.02, m_b 8);
- ``simulate`` of the perturbation scheme on two runs with
  rho(beta_b) >= 1: the README chain with dampers c = 120, and the
  unforced ``{"kind": "chain", "zeta": 3.0}`` at dt 1.4, m_b 2, r_b 12;
- ``simulate`` of Newmark on the c = 120 chain, whose summary still
  reports the perturbation scheme's rho(beta_b) >= 1;
- ``simulate`` of the perturbation scheme and of MPIM on the unforced
  ``{"kind": "chain", "zeta": 0.1, "n_dof": 96}`` from a nonzero ``u0``
  (dt 0.2, t_max 4): order 192, so both doublings take the profile product;
- ``simulate`` of two malformed configs: a ``{"kind": "chain"}`` model
  with neither ``n_dof`` nor ``zeta``, and an ``out`` that is the number 5
  (always run with ``--out``, so that no tree opens a file descriptor);
- ``compare`` on the README chain and on its c = 120 variant, and
  ``sweep-dt`` (the perturbation scheme and Newmark) and ``sweep-damping``
  on the README chain, all at t_max 4;
- ``tau-limit --curve-out`` and two ``stability-map`` grids;
- ``cost-model`` of the perturbation scheme, MPIM and RK4 at N 48.

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
    # a chain without n_dof or zeta: a validation error
    "missing-key.json": {"version": 1, "model": {"kind": "chain"}, "dt": 0.024,
                         "t_max": 0.48},
    # an output path that is not a string: a validation error
    "out-not-string.json": {"version": 1, "model": {"kind": "chain", "n_dof": 2},
                            "dt": 0.01, "t_max": 0.1, "out": 5},
}

SHORT = ["--t-max", "4"]

#: case name -> command-line arguments, run in a directory holding CONFIGS.
CASES = {
    **{f"simulate-chain-{m}": ["simulate", "--config", "chain.json", "--method", m,
                               "--out", "out.csv"] for m in METHODS},
    **{f"simulate-beam-{m}": ["simulate", "--config", "beam.json", "--method", m,
                              "--out", "out.csv"] for m in METHODS},
    "simulate-c120-per": ["simulate", "--config", "c120.json", "--out", "out.csv"],
    "simulate-zeta3-per": ["simulate", "--config", "zeta3.json", "--out", "out.csv"],
    "simulate-c120-newmark": ["simulate", "--config", "c120.json", "--method", "newmark",
                              "--out", "out.csv"],
    **{f"simulate-chain96-{m}": ["simulate", "--config", "chain96.json", "--method", m,
                                 "--out", "out.csv"] for m in ("per", "mpim")},
    "simulate-missing-key": ["simulate", "--config", "missing-key.json", "--out", "out.csv"],
    "simulate-out-not-string": ["simulate", "--config", "out-not-string.json",
                                "--out", "out.csv"],
    "compare-chain": ["compare", "--config", "chain.json", *SHORT, "--out", "out.csv"],
    "compare-c120": ["compare", "--config", "c120.json", *SHORT, "--out", "out.csv"],
    "sweep-dt-per": ["sweep-dt", "--config", "chain.json", *SHORT,
                     "--dts", "0.01,0.024,0.05,0.5", "--out", "out.csv"],
    "sweep-dt-newmark": ["sweep-dt", "--config", "chain.json", *SHORT, "--method", "newmark",
                         "--dts", "0.024,0.5", "--out", "out.csv"],
    "sweep-damping": ["sweep-damping", "--config", "chain.json", *SHORT,
                      "--zetas", "0,0.5,1,5,20,60", "--out", "out.csv"],
    "tau-limit": ["tau-limit", "--m", "2,4,6,8,10,20", "--out", "out.csv",
                  "--curve-out", "curve.csv"],
    "stability-map-0.05": ["stability-map", "--zeta", "0.05", "--ma", "2", "--out", "out.csv"],
    "stability-map-0.5": ["stability-map", "--zeta", "0.5", "--ma", "4", "--out", "out.csv"],
    **{f"cost-model-{m}": ["cost-model", "--method", m, "--n", "48", "--steps", "1000",
                           "--out", "out.csv"] for m in ("per", "mpim", "rk4")},
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
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
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
