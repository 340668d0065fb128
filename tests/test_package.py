"""Package-level surface checks."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import perdyn
from perdyn import PerConfig, StateVector, benchmark_chain, integrate


def test_all_exports_resolve():
    for name in perdyn.__all__:
        assert getattr(perdyn, name, None) is not None, name


def test_trajectory_state_accessors():
    model = benchmark_chain(0.1).with_initial_state(
        np.linspace(0.01, 0.05, 12), np.zeros(12))
    traj = integrate(model, PerConfig(dt=0.02), 0.1)
    first = traj.state(0)
    assert isinstance(first, StateVector)
    np.testing.assert_array_equal(first.displacement, model.u0)
    states = list(traj.states())
    assert len(states) == traj.n_steps + 1
    np.testing.assert_array_equal(states[-1].velocity, traj.velocities[-1])


def test_scheme_matrices_read_only():
    import pytest
    from perdyn import build_scheme
    model = benchmark_chain(0.1)
    scheme = build_scheme(model, PerConfig(dt=0.02))
    with pytest.raises(ValueError):
        scheme.a[0, 0] = 1.0


def test_perfbench_traced_names_resolve():
    # perfbench/tracer.py wraps these names from outside the package; a
    # renamed or deleted one breaks every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in [*tracer.SPANNED.items(), *tracer.PHASES.items()]:
        module = importlib.import_module(f"perdyn.{layer}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"perdyn.{layer}.{dotted}"
