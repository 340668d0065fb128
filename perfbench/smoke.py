"""Smoke check of the benchmark: schema, metric names and one tiny run each.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json keeps the benchmark contract, that layers.json
describes exactly the declared per-layer metrics, that every workload prints
a well-formed last line with exactly the declared metrics and units, traced
and untraced, and that the benchmark refuses to run without perdyn's
sources.  Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_declaration(bench: dict, layers: dict) -> list[str]:
    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)

    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json: wrong top-level keys")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds must be a whole number from 1 to 60")
    expect(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(bench["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(bench["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload {w}: keys must be name, why")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"{w['name']}: why too long")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']}: wrong keys")
        expect(0 < m["bound"] <= 0.25, f"{m['name']}: bound must be in (0, 0.25]")
    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"{m['name']}: wrong keys")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(NAME.fullmatch(m["name"]), f"bad metric name {m['name']!r}")
        expect(UNIT.fullmatch(m["unit"]), f"{m['name']}: bad unit {m['unit']!r}")
        expect(m["better"] in ("lower", "higher"), f"{m['name']}: better must be lower/higher")
        names.append(m["name"])
    expect(len(names) == len(set(names)), "names must be unique")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s must exist, in s, lower is better, with the largest bound")
    expect(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json over 64 KiB")

    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    expect(set(layers["workloads"]) == workloads, "layers.json: workloads differ")
    expect(set(layers["per_layer"]) == {m["name"] for m in bench["per_layer"]},
           "layers.json: per-layer metric names differ from BENCHMARK.json")
    for name, entry in layers["per_layer"].items():
        expect(set(entry["moves"]) <= end_to_end, f"layers.json {name}: unknown moves")
        expect(set(entry["shows_on"]) | set(entry["not_on"]) <= workloads,
               f"layers.json {name}: unknown workload")
    return problems


def check_result(line: str, declared: dict) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    if not (isinstance(result["failed"], int) and result["failed"] == 0):
        problems.append(f"failed = {result['failed']}")
    if set(result["metrics"]) != set(declared):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(declared))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != declared.get(name):
            problems.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    return problems


def run_benchmark(cwd: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "layers.json") as fh:
        layers = json.load(fh)
    problems = check_declaration(bench, layers)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            declared = {m["name"]: m["unit"] for m in bench[key]}
            problems += [f"{label}: {p}" for p in
                         check_result(proc.stdout.strip().splitlines()[-1], declared)]
            print(f"ran {label}", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_benchmark(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without perdyn's sources the benchmark must exit non-zero "
                        "and print no result")

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
