"""Record the benchmark of one commit as the next BENCH_<n>.json.

    python3 tools/record_bench.py [REV]

REV (default HEAD) is unpacked by ``git archive`` into a temporary
directory, so that only its committed files are measured.  There,
``perfbench/run.py --trace 0`` runs each workload that BENCHMARK.json
declares, for seeds 1 to 5 at its ``run_seconds``, seed by seed with the
workloads in turn; then one ``--trace 1`` run per workload (seed 1) gives
the per-layer metrics; then the Tier-1 tests run once and are timed.

The file is written next to BENCHMARK.json, with n one more than the
highest BENCH_<n>.json there.  It holds, per workload, the median and the
inclusive quartiles of every end-to-end metric with its values seed by
seed, the traced run's per-layer metrics, the environment from run.py's
detail line (nproc, BLAS and its threads, numpy and scipy) and the Tier-1
wall time with pytest's summary line.  Each metric's change against
BENCH_<n-1>.json is printed, with whether it moved the way BENCHMARK.json
calls better.  Nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def unpack(rev: str, dest: Path) -> str:
    """Unpack the committed tree of ``rev`` into ``dest``; its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """(detail, result) of one perfbench/run.py run: its last two output lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd[1:])} exited {run.returncode}\n{run.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def tier1(tree: Path) -> dict:
    """Wall time, exit code and summary line of one Tier-1 run in ``tree``."""
    start = time.perf_counter()
    path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    run = subprocess.run(TIER1, cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - start
    summary = next((line for line in reversed(run.stdout.splitlines())
                    if re.search(r"\d+ (passed|failed)", line)), "")
    return {"wall_s": round(wall, 2), "returncode": run.returncode,
            "summary": summary.strip("= ")}


def summarize(values: list[float]) -> dict:
    """Median and inclusive quartiles of one metric's values, seed by seed."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def record(rev: str) -> dict:
    """The BENCH entry of ``rev``, without its number."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        commit = unpack(rev, tree)
        runs = {name: [] for name in names}
        environment = None
        for seed in SEEDS:
            for name in names:
                detail, result = bench_run(tree, name, seed, seconds, 0)
                environment = environment or detail["environment"]
                runs[name].append(result)
                print(f"{name} seed {seed}: {json.dumps(result['metrics'])}", flush=True)
        traced = {name: bench_run(tree, name, SEEDS[0], seconds, 1)[1] for name in names}
        tests = tier1(tree)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    workloads = {}
    for name in names:
        workloads[name] = {
            "attempted": [r["attempted"] for r in runs[name]],
            "failed": [r["failed"] for r in runs[name]],
            "end_to_end": {metric: {"unit": unit, **summarize(
                [r["metrics"][metric]["value"] for r in runs[name]])}
                for metric, unit in units.items()},
            "per_layer": {metric: m["value"] for metric, m in traced[name]["metrics"].items()},
        }
    return {"commit": commit, "run_seconds": seconds, "seeds": list(SEEDS),
            "environment": environment, "tier1": tests, "workloads": workloads}


def changes(old: dict, new: dict, better: dict) -> list[str]:
    """One line per metric of both files: old -> new, its relative change and,
    where BENCHMARK.json names a direction, whether it is better or worse."""
    lines = []
    for name, work in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        pairs = [(metric, before["end_to_end"][metric]["median"], m["median"])
                 for metric, m in work["end_to_end"].items() if metric in before["end_to_end"]]
        pairs += [(metric, before["per_layer"][metric], value)
                  for metric, value in work["per_layer"].items() if metric in before["per_layer"]]
        for metric, a, b in pairs:
            rel = f"{(b - a) / abs(a):+.1%}" if a else "n/a"
            way = better.get(metric)
            verdict = "" if way is None or a == b else (
                " better" if (b < a) == (way == "lower") else " worse")
            lines.append(f"{name} {metric}: {a:.4g} -> {b:.4g} ({rel}){verdict}")
    lines.append(f"tier1 wall_s: {old['tier1']['wall_s']} -> {new['tier1']['wall_s']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="the commit to measure")
    args = parser.parse_args(argv)
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    n = max(taken, default=0) + 1
    entry = {"n": n, **record(args.rev)}
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {path.name} ({entry['commit'][:12]}; Tier-1 {entry['tier1']['summary']})")
    previous = ROOT / f"BENCH_{n - 1}.json"
    if previous.is_file():
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
        print(f"against {previous.name}:")
        print("\n".join(changes(json.loads(previous.read_text()), entry, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
