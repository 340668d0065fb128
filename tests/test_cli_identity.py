"""The byte-identity tool tools/cli_identity.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_twice_is_identical():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, str(TOOL), src, src],
                         capture_output=True, text=True, timeout=600)
    n = len(load_tool().CASES)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == f"{n} of {n} cases identical, 0 differ\n"


def test_differing_outputs_are_reported(tmp_path):
    tool = load_tool()
    for side in ("parent", "change"):
        for name in tool.CASES:
            case = tmp_path / side / name
            case.mkdir(parents=True)
            (case / "exit_code.txt").write_text("0\n")
            (case / "out.csv").write_text("t,u_1\n0,1\n")
    case = tmp_path / "change" / "compare-chain"
    (case / "out.csv").write_text("t,u_1\n0,2\n")
    (case / "curve.csv").write_text("")
    # the largest move of a numeric column relative to its peak in the parent;
    # text columns and a NaN in both are not moves
    table = "method,e_disp,e_vel,diverged\nper,{},{},false\nrk4,nan,-4e-3,{}\n"
    (tmp_path / "parent" / "sweep-damping" / "out.csv").write_text(
        table.format("1e-3", "2e-3", "false"))
    (tmp_path / "change" / "sweep-damping" / "out.csv").write_text(
        table.format("1.0000000000001e-3", "2.1e-3", "true"))
    # a CSV of another shape is only shown
    (tmp_path / "change" / "tau-limit" / "out.csv").write_text("t,u_1\n0,1\n1,1\n")
    found = tool.differences(tmp_path / "parent", tmp_path / "change")
    assert list(found) == ["compare-chain", "sweep-damping", "tau-limit"]
    assert found["compare-chain"][0] == "  curve.csv: only in the change"
    assert found["compare-chain"][1].startswith(
        "  out.csv: largest difference 1 of the peak of column u_1\n")
    assert "-0,1" in found["compare-chain"][1] and "+0,2" in found["compare-chain"][1]
    assert found["sweep-damping"][0].startswith(
        "  out.csv: largest difference 0.025 of the peak of column e_vel\n")
    assert found["tau-limit"][0].startswith("  out.csv:\n")
