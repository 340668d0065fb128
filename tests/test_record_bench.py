"""The BENCH recorder tools/record_bench.py: its summary and its comparison."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_median_and_inclusive_quartiles():
    got = load_tool().summarize([4.0, 1.0, 10.0, 2.0, 3.0])
    assert (got["median"], got["q1"], got["q3"], got["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert got["values"] == [4.0, 1.0, 10.0, 2.0, 3.0]


def test_changes_name_the_better_direction():
    def entry(setup_s, rate, calls, wall_s):
        return {"tier1": {"wall_s": wall_s}, "workloads": {"w": {
            "end_to_end": {"setup_s": {"median": setup_s}, "steps_per_s": {"median": rate}},
            "per_layer": {"per.compute_b_factors_calls": calls}}}}
    better = {"setup_s": "lower", "steps_per_s": "higher", "per.compute_b_factors_calls": "lower"}
    lines = load_tool().changes(entry(0.4, 100.0, 3, 36.0), entry(0.3, 90.0, 3, 35.0), better)
    assert lines == ["w setup_s: 0.4 -> 0.3 (-25.0%) better",
                     "w steps_per_s: 100 -> 90 (-10.0%) worse",
                     "w per.compute_b_factors_calls: 3 -> 3 (+0.0%)",
                     "tier1 wall_s: 36.0 -> 35.0"]
