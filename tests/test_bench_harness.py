"""The benchmark harness still finds every qslsim name it wraps and calls.

``bench/tracing.py`` wraps public names from outside the package and
``bench/workloads.py`` calls the library directly, so a rename in qslsim
breaks the benchmark without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import qslsim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_warm_up_runs(monkeypatch):
    tracing, workloads = _load("tracing", monkeypatch), _load("workloads", monkeypatch)
    original = qslsim.first_orthogonal_time
    tracer = tracing.Tracer()
    tracer.install()
    assert qslsim.first_orthogonal_time is not original
    try:
        workloads.warm_up()
    finally:
        tracer.uninstall()
    assert qslsim.first_orthogonal_time is original
    metrics = tracer.layer_metrics()
    assert metrics["qcore.hamiltonian_count"] > 0
    assert metrics["dynamics.evaluate_calls"] > 0
