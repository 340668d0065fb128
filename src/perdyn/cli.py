"""Configuration-driven command-line front end.

Subcommands: simulate, stability-map, tau-limit, sweep-dt,
sweep-damping, cost-model, compare.  Run configurations are JSON
documents (schema version 1); every command emits CSV with a header
row, 17-significant-digit numbers, comma separators and LF endings.

Exit codes: 0 success, 2 validation or arithmetic error, 3 divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, baselines, bench, per
from .linalg import DivergenceError
from .model import (SystemModel, benchmark_beam, benchmark_chain, build_beam,
                    build_chain, constant_step_force,
                    gaussian_multiharmonic_force, step_function)

CONFIG_VERSION = 1
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _field(spec: dict, key: str, kind, default=_REQUIRED):
    """spec[key], or ``default`` when absent, converted by ``kind``.  A missing
    required key, or a value ``kind`` rejects, is a ConfigError naming the key."""
    value = spec.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"config is missing the required key {key!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} has the invalid value "
                          f"{reprlib.repr(value)}: {exc}") from None


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected an object")
    return dict(value)


def _objects(value) -> list:
    return [_object(v) for v in value]


def _finite(value) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _integer(value) -> int:
    """An int, or a finite float of integral value, of magnitude at most 2**53; not a boolean."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, not a boolean")
    number = value if isinstance(value, int) else _finite(value)
    if abs(number) > 2**53:
        raise ValueError("expected an integer of magnitude at most 2**53")
    if number != int(number):
        raise ValueError("expected an integer")
    return int(number)


def _path(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _array(value) -> np.ndarray:
    array = np.array(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError("expected finite numbers")
    return array


# ---------------------------------------------------------------------------
# CSV helpers

def format_number(x) -> str:
    return f"{float(x):.17g}"


#: Rows per string of _csv_blocks: one ``%`` call formats the whole block.
_BLOCK_ROWS = 32
#: Numbers (rows x columns) from which write_csv formats the second half of
#: an array in a forked child.  The fork, the child's start and its reaping
#: cost the parent about 7 ms, half of what 20,000 numbers take to format at
#: about 0.8 us each (measured on a 2-vCPU Xeon; the README has the table).
_SPLIT_NUMBERS = 20_000


def _csv_blocks(rows: np.ndarray, start: int, stop: int):
    """The CSV text of rows[start:stop], one string per _BLOCK_ROWS rows."""
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for lo in range(start, stop, _BLOCK_ROWS):
        block = rows[lo:min(lo + _BLOCK_ROWS, stop)]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


def _write_split(fh, rows: np.ndarray) -> None:
    """Write rows[:mid] here while a forked child formats rows[mid:], then
    copy the child's text after them from a pipe, 64 KB per read.  The
    child formats into its own memory before it writes, since a pipe holds
    only 64 KB.  It runs only this formatting, no BLAS call, and leaves by
    os._exit, so it flushes none of the parent's buffers; it is reaped on
    every path, and killed first if this side fails."""
    mid = len(rows) // 2
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            text = "".join(_csv_blocks(rows, mid, len(rows)))
            with open(write_end, "w", newline="\n") as out:
                out.write(text)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        fh.writelines(_csv_blocks(rows, 0, mid))
        fh.flush()
        while chunk := os.read(read_end, 1 << 16):
            fh.buffer.write(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise OSError(f"the CSV writer's child process exited with code {code}")


def write_csv(path: str, header, rows) -> None:
    """Write ``rows``, a 2-D float array (formatted a block of rows at a
    time, its second half in a forked child from _SPLIT_NUMBERS numbers
    where os.fork exists) or mixed rows (item by item); numbers get
    format_number's bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            if rows.size >= _SPLIT_NUMBERS and hasattr(os, "fork"):
                _write_split(fh, rows)
            else:
                fh.writelines(_csv_blocks(rows, 0, len(rows)))
            return
        for row in rows:
            fields = []
            for item in row:
                if isinstance(item, bool):
                    fields.append("true" if item else "false")
                elif isinstance(item, str):
                    fields.append(item)
                else:
                    fields.append(format_number(item))
            fh.write(",".join(fields) + "\n")


# ---------------------------------------------------------------------------
# Run configuration

#: method-spec key -> PerConfig field
_PER_KEYS = {"p": "p", "ma": "m_a", "ra": "r_a", "mb": "m_b", "rb": "r_b"}

#: method-spec key -> (kind, the IntegratorParams fields it sets)
_BASELINE_KEYS = {"gamma": (_finite, "newmark_gamma", "bathe_gamma"),
                  "beta": (_finite, "newmark_beta"), "theta": (_finite, "wilson_theta"),
                  "g": (_integer, "mpim_g"), "p": (_integer, "mpim_p")}


@dataclass
class RunConfig:
    """Parsed run configuration (JSON schema version 1)."""

    model_spec: dict
    force_spec: dict
    method_spec: dict
    dt: float
    t_max: float
    out: str | None = None
    reference: dict = field(default_factory=lambda: {"refine": 500})
    u0: list | None = None
    v0: list | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
        if doc.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {doc.get('version')}")
        model_spec = _field(doc, "model", _object)
        dt, t_max = _field(doc, "dt", _finite), _field(doc, "t_max", _finite)
        if dt <= 0.0:
            raise ConfigError("dt must be positive")
        for key in ("u0", "v0"):  # kept as given, read by build_model
            if doc.get(key) is not None:
                _field(doc, key, _array)
        return cls(model_spec=model_spec,
                   force_spec=_field(doc, "force", _object, {"kind": "zero"}),
                   method_spec=_field(doc, "method", _object, {"name": "per"}),
                   dt=dt, t_max=t_max, out=_field(doc, "out", _path, None),
                   reference=_field(doc, "reference", _object, {"refine": 500}),
                   u0=doc.get("u0"), v0=doc.get("v0"))

    def to_dict(self) -> dict:
        doc = {"version": CONFIG_VERSION, "model": self.model_spec,
               "force": self.force_spec, "method": self.method_spec, "dt": self.dt,
               "t_max": self.t_max, "reference": self.reference, "out": self.out,
               "u0": self.u0, "v0": self.v0}
        return {key: val for key, val in doc.items() if val is not None}

    def build_model(self) -> SystemModel:
        """The model; a force spec of kind "zero" keeps the model's own loads
        (a beam's point loads), and an omitted u0 or v0 is zero."""
        try:
            model = _build_bare_model(self.model_spec)
        except ArithmeticError as exc:
            raise ConfigError(f"config key 'model' of kind {self.model_spec.get('kind')!r} "
                              f"cannot be built: {exc}") from None
        force = _build_force(self.force_spec, model.n_dof) or model.force
        return model.with_force(force).with_initial_state(self.u0, self.v0)

    def method_name(self) -> str:
        return self.method_spec.get("name", "per")

    def refine(self) -> int:
        return _field(self.reference, "refine", _integer, 500)

    def per_config(self) -> per.PerConfig:
        """PerConfig from the method keys; omitted keys keep its defaults."""
        ms = self.method_spec
        return per.PerConfig(dt=self.dt, **{name: _field(ms, key, _integer)
                                            for key, name in _PER_KEYS.items()
                                            if key in ms})

    def integrator_params(self) -> baselines.IntegratorParams:
        """IntegratorParams from the method keys; omitted keys keep its defaults."""
        ms = self.method_spec
        return baselines.IntegratorParams(**{name: _field(ms, key, kind)
                                             for key, (kind, *names) in _BASELINE_KEYS.items()
                                             if key in ms for name in names})


def _build_bare_model(spec: dict) -> SystemModel:
    kind = spec.get("kind")
    if kind == "chain":
        if "zeta" in spec:
            return benchmark_chain(_field(spec, "zeta", _finite),
                                   n_dof=_field(spec, "n_dof", _integer, 12),
                                   mass_coeff=_field(spec, "mass", _finite, 1.0),
                                   stiffness_coeff=_field(spec, "stiffness", _finite, 100.0))
        dampers = [(_field(d, "i", _integer),
                    None if d.get("j") is None else _field(d, "j", _integer),
                    _field(d, "c", _finite)) for d in _field(spec, "dampers", _objects, [])]
        return build_chain(_field(spec, "n_dof", _integer), _field(spec, "mass", _finite, 1.0),
                           _field(spec, "stiffness", _finite, 100.0), dampers)
    if kind == "beam":
        if "supports" in spec:
            supports = [(_field(s, "node", _integer), _field(s, "spring", _finite, 0.0),
                         _field(s, "damper", _finite, 0.0))
                        for s in _field(spec, "supports", _objects)]
            loads = [(_field(ld, "node", _integer), _field(ld, "direction", float, 1.0),
                      step_function(_field(ld, "t_c", float, 0.0), _field(ld, "f0", float, 0.0)))
                     for ld in _field(spec, "point_loads", _objects, [])]
            return build_beam(_field(spec, "length", _finite), _field(spec, "ei", _finite),
                              _field(spec, "total_mass", _finite),
                              _field(spec, "n_elements", _integer),
                              supports=supports, point_loads=loads)
        return benchmark_beam(zeta_a=_field(spec, "zeta_a", _finite, 0.5),
                              zeta_b=_field(spec, "zeta_b", _finite, 0.5),
                              n_elements=_field(spec, "n_elements", _integer, 24),
                              length=_field(spec, "length", _finite, 3.0),
                              bending_stiffness=_field(spec, "ei", _finite, 437.5e3),
                              total_mass=_field(spec, "total_mass", _finite, 235.5))
    if kind == "matrices":
        return SystemModel(*(_field(spec, key, _array)
                             for key in ("mass", "damping", "stiffness")))
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_force(spec: dict, n_dof: int):
    """The load of a force spec.  Its values, as those of a beam's point
    loads, may be non-finite: the run reports such a sample."""
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return None
    if kind == "constant-step":
        return constant_step_force(n_dof, _field(spec, "dof", _integer),
                                   _field(spec, "t_c", float, 0.0), _field(spec, "f0", float))
    if kind == "gaussian-multiharmonic":
        comps = [(_field(c, "a", float), _field(c, "omega", float))
                 for c in _field(spec, "components", _objects)]
        return gaussian_multiharmonic_force(n_dof, _field(spec, "dof", _integer),
                                            _field(spec, "t0", float), _field(spec, "s", float),
                                            comps)
    raise ConfigError(f"unknown force kind {kind!r}")


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))


def dump_config(config: RunConfig, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_simulate(args) -> int:
    config, model = _configured(args)
    out = args.out or config.out
    if out is None:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    method = config.method_name()
    pc = config.per_config()
    traj = bench.run_method(model, method, config.dt, config.t_max, per_config=pc,
                            params=config.integrator_params())
    n = model.n_dof
    header = (["t"] + [f"u_{i+1}" for i in range(n)]
              + [f"v_{i+1}" for i in range(n)])
    write_csv(out, header, np.column_stack([traj.times, traj.displacements, traj.velocities]))
    rho = (traj.info["rho_beta_b"] if method == "per"
           else analysis.beta_radius_map(model, [config.dt], pc.m_b)[0][1])
    bound = traj.info.get("dt_max_bound")  # a diverged PER run carries it
    if bound is None:
        bound = analysis._dt_max(model, pc.m_b)
    print(f"rho_beta_b: {rho}")
    print(f"dt_max_bound: {bound}")
    print(f"diverged: {traj.diverged}")
    return EXIT_DIVERGENCE if traj.diverged else 0


def cmd_stability_map(args) -> int:
    record = analysis.sdof_stability_map(args.zeta, args.ma, r_a=args.ra,
                                         grid_max=args.grid_max, grid_step=args.grid_step)
    write_csv(args.out, ["dt0_over_T", "max_abs_lambda"], record.grid)
    for lo, hi in record.boundaries:
        print(f"stable: {lo:.4f} < dt0/T < {hi:.4f}")
    return 0


def cmd_tau_limit(args) -> int:
    orders = _parse_list(args.m, int, "--m")
    # the curve grid and every order are checked before any tau line or file is written
    taus = analysis._grid(0.0, args.curve_max, args.curve_step) if args.curve_out else None
    limits = [analysis.tau_limit(m) for m in orders]
    for m, tl in zip(orders, limits):
        print(f"m={m}: tau_limit={tl:.5f}  tau_limit/2pi={tl / (2 * np.pi):.5f}")
    if args.out:
        write_csv(args.out, ["m", "tau_limit", "tau_limit_over_2pi"],
                  [[m, tl, tl / (2.0 * np.pi)] for m, tl in zip(orders, limits)])
    if args.curve_out:
        curve = []
        for m in orders:
            for tau in taus:
                res = analysis.sigma_eigenvalues(m, float(tau))
                curve.append([m, tau, abs(res.mu1), abs(res.mu2)])
        write_csv(args.curve_out, ["m", "tau", "abs_mu1", "abs_mu2"], curve)
    return 0


def cmd_sweep_dt(args) -> int:
    config, model = _configured(args)
    dts = _parse_list(args.dts, float, "--dts")
    rows = bench.sweep_dt(model, config.method_name(), dts, config.t_max,
                          args.dof, per_config=config.per_config(),
                          params=config.integrator_params(),
                          refine=config.refine())
    write_csv(args.out, ["dt", "dt_over_T", "e_disp", "e_vel", "diverged"],
              [[r.dt, r.abscissa, r.e_disp, r.e_vel, r.diverged] for r in rows])
    return 0


def cmd_sweep_damping(args) -> int:
    config, model = _configured(args)
    zetas = _parse_list(args.zetas, float, "--zetas")
    rows = bench.sweep_damping(model, zetas, config.dt, config.t_max, args.dof,
                               method=config.method_name(),
                               per_config=config.per_config(),
                               params=config.integrator_params(),
                               refine=config.refine())
    write_csv(args.out,
              ["zeta", "damping_level", "e_disp", "e_vel", "rho_beta_b", "diverged"],
              [[r.abscissa, r.extra["damping_level"], r.e_disp, r.e_vel,
                r.extra["rho_beta_b"], r.diverged] for r in rows])
    return 0


def cmd_cost_model(args) -> int:
    steps = args.steps
    if args.method == "per":
        cm = bench.cost_per(args.n, p=args.p, m_a=args.ma, m_b=args.mb,
                            r_a=args.ra, r_b=args.rb, steps=steps)
    elif args.method == "mpim":
        cm = bench.cost_mpim(args.n, p=args.p, g=args.g, steps=steps)
    else:  # rk4: argparse's choices reject every other method
        cm = bench.cost_rk4(args.n, steps=steps)
    print(f"method={cm.method} N={args.n} n3={cm.n3_coeff} n2={cm.n2_coeff} "
          f"n1={cm.n1_coeff} total={cm.total_ops}")
    if args.out:
        write_csv(args.out,
                  ["method", "N", "n3_coeff", "n2_coeff", "n1_coeff", "total_ops"],
                  [[cm.method, args.n, cm.n3_coeff, cm.n2_coeff, cm.n1_coeff,
                    cm.total_ops]])
    return 0


def cmd_compare(args) -> int:
    config, model = _configured(args)
    methods = ([m.strip() for m in args.methods.split(",")] if args.methods
               else list(bench.METHODS))
    rows = bench._sweep(methods, [(model, config.dt, config.dt, {})], config.t_max,
                        args.dof, config.per_config(), config.integrator_params(),
                        config.refine())
    write_csv(args.out, ["method", "e_disp", "e_vel", "diverged"],
              [[m, r.e_disp, r.e_vel, r.diverged] for m, r in zip(methods, rows)])
    return 0


def _configured(args) -> tuple[RunConfig, SystemModel]:
    """The run configuration of --config with the flag overrides applied,
    and its model."""
    config = load_config(args.config)
    if args.method:
        config.method_spec["name"] = args.method
    if args.dt is not None:
        config.dt = args.dt
    if args.t_max is not None:
        config.t_max = args.t_max
    for flag in ("mb", "rb", "ma", "ra", "p", "g"):
        if vars(args)[flag] is not None:
            config.method_spec[flag] = vars(args)[flag]
    return config, config.build_model()


def _parse_list(text: str, kind, flag: str) -> list:
    """The comma-separated values of ``flag``, blank items skipped; a list
    with no value is a ConfigError."""
    values = [kind(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{flag} lists no value")
    return values


def _add_config_command(subs, name: str, help_text: str, own: dict, out_help=None):
    """Subcommand ``name``: --config, its ``own`` flags (flag -> add_argument
    keywords), --out (required unless ``out_help`` is given) and the override
    flags that _configured applies, in that order."""
    sub = subs.add_parser(name, help=help_text)
    sub.add_argument("--config", required=True)
    for flag, kwargs in own.items():
        sub.add_argument(flag, **kwargs)
    sub.add_argument("--out", required=out_help is None, help=out_help)
    sub.add_argument("--method", help="integrator name override")
    sub.add_argument("--dt", type=float, help="time step override")
    sub.add_argument("--t-max", dest="t_max", type=float, help="end time override")
    sub.add_argument("--mb", type=int, help="series truncation for the forcing factors")
    sub.add_argument("--rb", type=int, help="Neumann truncation for the forcing factors")
    sub.add_argument("--ma", type=int, help="series truncation for the transition matrix")
    sub.add_argument("--ra", type=int, help="Neumann truncation for the transition matrix")
    sub.add_argument("--p", type=int, help="number of step halvings")
    sub.add_argument("--g", type=int, help="Gauss points (mpim)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``perdyn`` parser, built once per process.  ``main`` looks up the
    subcommand's cmd_* function at every call, so a cmd_* replaced after the
    first build (as a tracer's wrapper) is still the one that runs."""
    parser = argparse.ArgumentParser(
        prog="perdyn",
        description="Transient structural dynamics toolkit: perturbation "
                    "integrator, stability analysis and benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_config_command(subs, "simulate", "integrate one configuration, emit a trajectory CSV",
                        {}, out_help="CSV output path (overrides config)")

    smap = subs.add_parser("stability-map", help="single-dof stability map of a(dt0)")
    smap.add_argument("--zeta", type=float, required=True)
    smap.add_argument("--ma", type=int, required=True)
    smap.add_argument("--ra", type=int, default=2)
    smap.add_argument("--grid-max", dest="grid_max", type=float, default=0.9)
    smap.add_argument("--grid-step", dest="grid_step", type=float, default=2e-3)
    smap.add_argument("--out", required=True)

    tl = subs.add_parser("tau-limit", help="admissible nondimensional step limits")
    tl.add_argument("--m", required=True, help="comma-separated even truncation orders")
    tl.add_argument("--out")
    tl.add_argument("--curve-out", dest="curve_out",
                    help="also emit the eigenvalue-modulus curves (m, tau, |mu1|, |mu2|)")
    tl.add_argument("--curve-max", dest="curve_max", type=float, default=12.0)
    tl.add_argument("--curve-step", dest="curve_step", type=float, default=0.05)

    _add_config_command(subs, "sweep-dt", "global error vs time step",
                        {"--dts": dict(required=True, help="comma-separated time steps"),
                         "--dof": dict(type=int, default=0)})

    _add_config_command(subs, "sweep-damping", "global error vs damping scale",
                        {"--zetas": dict(required=True, help="comma-separated damping scales"),
                         "--dof": dict(type=int, default=0)})

    cost = subs.add_parser("cost-model", help="operation-count polynomials")
    cost.add_argument("--method", choices=["per", "mpim", "rk4"], required=True)
    cost.add_argument("--n", type=int, default=1)
    cost.add_argument("--steps", type=int, default=0)
    cost.add_argument("--p", type=int, default=20)
    cost.add_argument("--ma", type=int, default=2)
    cost.add_argument("--mb", type=int, default=4)
    cost.add_argument("--ra", type=int, default=2)
    cost.add_argument("--rb", type=int, default=2)
    cost.add_argument("--g", type=int, default=4)
    cost.add_argument("--out")

    _add_config_command(subs, "compare", "run several methods, joined error CSV",
                        {"--methods": dict(help="comma-separated subset (default: all)"),
                         "--dof": dict(type=int, default=0)})

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
