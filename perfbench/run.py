"""perdyn benchmark: times each workload from outside the package and checks
every operation's output.

    python3 perfbench/run.py --workload beam-simulate --seed 1 --seconds 30 --trace 0

The workload, the metrics and their bounds are declared in BENCHMARK.json at
the repository root; perfbench/layers.json maps each per-layer metric to the
end-to-end metric it should move and the workloads that show it.

A run computes the independent reference once, then runs operations in a
closed loop, one after another, until ``--seconds`` have passed.  The
workload's set-up is timed several times, before and between operations
(``setup_s`` is the median of the samples).  Each operation is timed alone
and checked afterwards.  Fixed calibration kernels run between timed
sections, and ``setup_s``, ``run_s`` and ``steps_per_s`` are given in
reference seconds: wall seconds scaled by the host's speed at that moment
(see ``Calibration``); the wall times are on the detail line.  With
``--trace 0`` the only wrappers are two timers on ``per.integrate`` and
``per.build_scheme`` (PER loop time is the first minus the second); with
``--trace 1`` operations alternate between that state and full tracing, and
the per-layer metrics are the median over the traced operations.  Standard
output ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the seed, the environment and the
raw samples.  Temporary files go under ``.perfbench_out/`` in the checkout
and are removed at exit; traced runs also leave their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Shortest set-up sample: set-ups are repeated back to back until this much
#: time has passed and the sample is their mean.  A set-up of a few ms samples
#: the machine at one instant, and on a shared host its speed flips between two
#: levels 1.6x apart within seconds, so a median of such samples flips too.
SETUP_SAMPLE_S = 0.2

#: Fewest operations per run, whatever --seconds says.
MIN_OPS = 3
MIN_TRACED_OPS = 2  # the counts of two traced operations must agree exactly


#: OpenBLAS threads unless the caller sets them.  On a 2-vCPU virtual machine
#: a second BLAS thread made the 48-dof set-up 30x slower (3 ms -> 95 ms)
#: whenever the second vCPU had been idle, so set-up times were bimodal.
BLAS_THREADS = "1"


def import_perdyn():
    """Import perdyn from this checkout's sources, never from elsewhere."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, BLAS_THREADS)
    if not (SRC / "perdyn" / "__init__.py").is_file():
        sys.exit(f"error: no perdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import perdyn
    if Path(perdyn.__file__).resolve().parent != SRC / "perdyn":
        sys.exit(f"error: imported perdyn from {perdyn.__file__}, not {SRC}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]}}


# ---------------------------------------------------------------------------
# Environment

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # a plain checkout: src_sha256 identifies the code instead
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "perdyn").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# Host speed

#: Median time of each calibration kernel on the host the benchmark was tuned
#: on (2 vCPUs of a 2.1 GHz Xeon shared with other work): a section timed
#: while its kernel takes this long is reported unchanged.
CAL_REF_S = {"interp": 0.08, "blas": 0.07}


class Calibration:
    """Measures the host's speed with a fixed kernel run between timed sections.

    The benchmark runs on a share of a busy machine.  There the same perdyn
    operation took 1.6 s to 3.2 s within four minutes; a pure-Python loop
    slowed by the same 1.5x at the same times, and CPU time followed wall
    time, so the machine lost cycles rather than descheduling the process.
    The kernels slow with the host but not with perdyn: they use numpy alone.
    ``interp`` is interpreted small-array steps with string formatting, like
    the step loops and the CSV output; ``blas`` is dense 400 x 400 products
    and solves, like the O(N^3) set-up.  Each workload names the kernels that
    match its work.  A section's wall time times the kernels' CAL_REF_S over
    their mean time just before and just after the section is its time in
    reference seconds.  Over four minutes of operations, the spread of the
    operation time's median across 30 s windows fell from 0.20 to 0.06 on
    beam-simulate (interp + blas), from 0.15 to 0.03 on chain-compare
    (interp + blas) and from 0.13 to 0.04 on setup-scaling (blas).  The
    interp kernel made setup-scaling's spread worse, not better: BLAS and
    the interpreter slowed at different times.
    """

    def __init__(self, kinds):
        import numpy as np
        self.np = np
        self.kinds = tuple(kinds)
        self.ref = sum(CAL_REF_S[kind] for kind in self.kinds)
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((48, 48))
        self.x0 = rng.standard_normal(48)
        big = rng.standard_normal((400, 400))
        self.big = big @ big.T + 400.0 * np.eye(400)
        self.times = []

    @property
    def segment(self) -> int:
        """Index of the last measurement: sections timed now are scaled by
        it and the next one."""
        return len(self.times) - 1

    def _interp(self) -> None:
        np = self.np
        x = self.x0
        for _ in range(3000):
            x = self.small @ x
            x = x / np.linalg.norm(x)
            ",".join(f"{v:.6e}" for v in x[:16])

    def _blas(self) -> None:
        for _ in range(4):
            self.np.linalg.solve(self.big, self.big @ self.big)

    def measure(self) -> None:
        start = time.perf_counter()
        for kind in self.kinds:
            getattr(self, "_" + kind)()
        self.times.append(time.perf_counter() - start)

    def ref_s(self, wall_s: float, segment: int) -> float:
        """Wall seconds of a section timed in ``segment``, in reference seconds."""
        return wall_s * self.ref / ((self.times[segment] + self.times[segment + 1]) / 2)


# ---------------------------------------------------------------------------
# Statistics

def median(values, empty=0.0):
    values = list(values)
    return statistics.median(values) if values else empty


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def tail(samples):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        value = ordered[min(len(ordered) - 1, int(pct / 100 * len(ordered)))]
        if sum(x > value for x in ordered) >= 10:
            return {"percentile": pct, "value": value}
    return None  # fewer than about twenty samples


# ---------------------------------------------------------------------------
# Operations

class Runner:
    """Runs, times and checks one workload's operations."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = []  # one dict per attempted operation

    def run_op(self, traced: bool, segment: int):
        tracer = tracer_mod.Tracer(tracer_mod.SPANNED if traced else tracer_mod.PHASES)
        index = len(self.ops)
        tracer.op = index
        record = {"op": index, "traced": traced, "segment": segment, "ok": False}
        try:
            start = time.perf_counter()
            try:
                result = self.workload.op()
            finally:
                record["run_s"] = time.perf_counter() - start
                tracer.restore()
            record.update(self.workload.check(result))
            record["ok"] = True
        except Exception as exc:  # any failure of an operation is counted, not fatal
            record.update(getattr(exc, "values", {}))
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        view = tracer_mod.OpView(tracer.spans)
        loop_s, steps, _, _ = view.per_loop()
        record.update(loop_s=loop_s, steps=steps)
        self.ops.append(record)
        return record, view

    def to_ref_s(self, cal):
        """Add each operation's times in reference seconds."""
        for r in self.ops:
            r["run_ref_s"] = cal.ref_s(r["run_s"], r["segment"])
            r["loop_ref_s"] = cal.ref_s(r["loop_s"], r["segment"])

    def untraced_metrics(self, setup_ref_s) -> dict:
        ops = self.ops
        ok = [r for r in ops if r["ok"]]
        return {
            "setup_s": median(setup_ref_s),
            "run_s": median(r["run_ref_s"] for r in ops),
            # the median operation's rate: chain-compare's PER loop lasts a few ms,
            # so single operations can land in a brief slow spell of the host
            "steps_per_s": ratio(1.0, median(r["loop_ref_s"] / r["steps"]
                                             for r in ops if r["steps"])),
            # 1.0 means no operation produced a trajectory to compare
            "e_disp": median((r["e_disp"] for r in ops if "e_disp" in r), empty=1.0),
            "ok_frac": len(ok) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def layer_metrics(view, op_s: float) -> dict:
    """Per-layer metrics of one traced operation."""
    from perdyn import bench
    FORCE_EVAL, MASS_SOLVE = tracer_mod.FORCE_EVAL, tracer_mod.MASS_SOLVE
    loop_s, steps, forces, solves = view.per_loop()
    rk4 = view.named("baselines.rk4")
    rk4_steps = sum(s.info["steps"] for s in rk4)
    rk4_s = view.total("baselines.rk4")
    ref_steps = sum(c.info["steps"] for s in view.named("bench.reference_solution")
                    for c in view.children[s.id] if c.name == "baselines.rk4")
    build_s = view.total("per.build_scheme")
    gflop = sum(bench.cost_per(m.n_dof, p=c.p, m_a=c.m_a, m_b=c.m_b, r_a=c.r_a,
                               r_b=c.r_b).total_ops
                for m, c in (s.info["inputs"] for s in view.named("per.build_scheme"))) / 1e9
    csv_s = view.total("cli.write_csv")
    csv_bytes = sum(s.info["bytes"] for s in view.named("cli.write_csv"))
    roots = sum(s.dur for s in view.spans if s.parent not in view.by_id)

    return {
        "model.build_s": view.outermost_in_layer("model"),
        "model.modal_analysis_calls": view.calls("model.modal_analysis"),
        "model.force_evals": view.count(FORCE_EVAL),
        "per.build_scheme_s": build_s,
        "per.compute_b_factors_s": view.total("per.compute_b_factors"),
        "per.compute_b_factors_calls": view.calls("per.compute_b_factors"),
        "per.loop_s": loop_s,
        "per.step_us": ratio(loop_s, steps, 1e6),
        "per.force_evals_per_step": ratio(forces, steps),
        "per.mass_solves_per_step": ratio(solves, steps),
        "per.setup_gflop_computed": gflop,
        "per.setup_gflops": ratio(gflop, build_s),
        "linalg.factorizations": view.calls("linalg.spd_solver"),
        "linalg.mass_solves": view.count(MASS_SOLVE),
        "linalg.spectral_radius_s": view.total("linalg.spectral_radius"),
        "linalg.spectral_radius_calls": view.calls("linalg.spectral_radius"),
        "linalg.neumann_sum_s": view.total("linalg.neumann_sum"),
        "analysis.dt_bound_s": view.total("analysis.dt_bound"),
        "analysis.dt_bound_calls": view.calls("analysis.dt_bound"),
        "analysis.tau_limit_s": view.total("analysis.tau_limit"),
        "analysis.tau_limit_calls": view.calls("analysis.tau_limit"),
        "baselines.rk4_s": rk4_s,
        "baselines.rk4_steps": rk4_steps,
        "baselines.rk4_step_us": ratio(rk4_s, rk4_steps, 1e6),
        "baselines.force_evals_per_rk4_step": ratio(view.count_in("baselines.rk4", FORCE_EVAL),
                                                    rk4_steps),
        "baselines.state_space_s": view.total("baselines.state_space"),
        "baselines.mpim_s": view.total("baselines.mpim"),
        "baselines.newmark_s": view.total("baselines.newmark"),
        "baselines.wilson_s": view.total("baselines.wilson"),
        "baselines.bathe_s": view.total("baselines.bathe"),
        "bench.reference_solution_s": view.total("bench.reference_solution"),
        "bench.reference_fine_steps": ref_steps,
        "bench.run_method_s": view.total("bench.run_method"),
        "bench.global_error_s": view.total("bench.global_error"),
        "cli.main_s": view.total("cli.main"),
        "cli.self_s": sum(view.self_time(s) for s in view.spans
                          if view.layer_of(s) == "cli" and s.name != "cli.write_csv"),
        "cli.write_csv_s": csv_s,
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": ratio(csv_bytes / 1e6, csv_s),
        "trace.self_coverage": ratio(roots, op_s),
    }


#: Per-layer metrics that count work; they must repeat exactly between runs.
COUNTS = ("model.modal_analysis_calls", "model.force_evals",
          "per.compute_b_factors_calls", "per.force_evals_per_step",
          "per.mass_solves_per_step", "per.setup_gflop_computed",
          "linalg.factorizations", "linalg.mass_solves",
          "linalg.spectral_radius_calls", "analysis.dt_bound_calls",
          "analysis.tau_limit_calls", "baselines.rk4_steps",
          "baselines.force_evals_per_rk4_step", "bench.reference_fine_steps",
          "cli.csv_bytes")


def once_per_run_metrics(view) -> dict:
    """Layer metrics needing extra calls on the traced inputs, made once per
    run and outside every operation's timing."""
    import numpy as np
    from perdyn import per
    compute_a_s = 0.0
    for s in view.named("per.build_scheme"):
        m, config = s.info["inputs"]
        start = time.perf_counter()
        per.compute_a(m, config)
        compute_a_s += time.perf_counter() - start
    rel_err = 0.0
    seen = set()
    for s in view.named("per.compute_b_factors"):
        m, config = s.info["inputs"]
        key = (m.n_dof, config.dt, config.m_b)
        if key in seen:
            continue
        seen.add(key)
        beta_b = per.assemble_series(m, config.dt, config.m_b, "beta")
        dense = float(np.abs(np.linalg.eigvals(beta_b)).max())
        rel_err = max(rel_err, abs(s.info["rho_beta_b"] - dense) / dense)
    return {"per.compute_a_s": compute_a_s, "linalg.rho_beta_b_rel_err": rel_err}


# ---------------------------------------------------------------------------

def run(args, workdir):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    runner = Runner(workload)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    cal = Calibration(workload.CALIBRATION)
    cal.measure()
    setup_times = []  # (wall seconds, calibration segment)

    def time_setups(count):
        for _ in range(count):
            reps, start = 0, time.perf_counter()
            while True:
                workload.setup()
                reps += 1
                elapsed = time.perf_counter() - start
                if elapsed >= SETUP_SAMPLE_S:
                    break
            setup_times.append((elapsed / reps, cal.segment))

    for _ in range(1 if args.trace else workload.SETUP_REPEATS):
        time_setups(1)
        cal.measure()
    detail["reference"] = workload.reference()

    deadline = time.perf_counter() + args.seconds
    views = []
    run_failures = []
    while True:
        n_traced = sum(r["traced"] for r in runner.ops)
        n_plain = len(runner.ops) - n_traced
        if time.perf_counter() >= deadline:
            if not args.trace and n_plain >= MIN_OPS:
                break
            if args.trace and n_traced >= MIN_TRACED_OPS and n_plain >= 1:
                break
        traced = bool(args.trace) and n_plain > n_traced
        if not args.trace:
            time_setups(workload.SETUPS_PER_OP)
        record, view = runner.run_op(traced, cal.segment)
        cal.measure()
        if traced:
            views.append((view, record))
    runner.to_ref_s(cal)
    setup_ref_s = [cal.ref_s(wall, segment) for wall, segment in setup_times]
    detail["calibration_s"] = cal.times

    if args.trace:
        per_op = [layer_metrics(v, r["run_s"]) for v, r in views]
        for name in COUNTS:
            values = {m[name] for m in per_op}
            if len(values) != 1:
                run_failures.append(f"{name} differs between traced operations: {sorted(values)}")
        metrics = {name: median(m[name] for m in per_op) for name in per_op[0]}
        metrics.update(once_per_run_metrics(views[0][0]))
        plain = [r["run_ref_s"] for r in runner.ops if not r["traced"]]
        traced_s = [r["run_ref_s"] for r in runner.ops if r["traced"]]
        metrics["trace.overhead_frac"] = median(traced_s) / median(plain) - 1.0
        metrics["host.calibration_s"] = median(cal.times)
        metrics["fail_frac"] = 1.0 - sum(r["ok"] for r in runner.ops) / len(runner.ops)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump([s.to_dict() for v, _ in views for s in v.spans], fh)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = runner.untraced_metrics(setup_ref_s)
        detail["setup_s_samples"] = {"wall": [wall for wall, _ in setup_times],
                                     "ref": setup_ref_s}
        detail["run_s"] = {"median": metrics["run_s"], "n": len(runner.ops),
                           "tail": tail([r["run_ref_s"] for r in runner.ops]),
                           "wall_median": median(r["run_s"] for r in runner.ops)}

    failed = sum(not r["ok"] for r in runner.ops)
    detail["fail_frac"] = failed / len(runner.ops)
    detail["run_failures"] = run_failures
    detail["ops"] = runner.ops
    return detail, {
        "correct": failed == 0 and not run_failures,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_perdyn()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        detail, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatch = set(units) ^ set(result["metrics"])
    if mismatch:
        sys.exit(f"error: computed metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    result["metrics"] = {name: {"value": float(result["metrics"][name]), "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
