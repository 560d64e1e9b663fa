"""The names and configs that benchmarks/ relies on still exist in privadapt.

The benchmark wraps the functions in ``tracing.LAYERS`` by name and drives
the sweep configs in ``workloads.WORKLOADS``; a rename or a removed config
key would only surface when the benchmark runs.  Read-only: nothing under
benchmarks/ is imported as a package or changed.
"""

import copy
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from privadapt.harness import SweepSpec, spec_from_config

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in tracing.LAYERS.items() for name in names])
def test_traced_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"privadapt.{module}"), name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_builds(name, tmp_path):
    w = workloads.WORKLOADS[name]
    for variant in (w, workloads.toy(w), workloads.warm_up_config(w)):
        cfg = copy.deepcopy(variant.config)
        cfg["master_seed"] = 0
        if variant.csv is not None:
            cfg["csv"] = {"path": str(tmp_path / "data.csv")}
        assert isinstance(spec_from_config(cfg), SweepSpec)
