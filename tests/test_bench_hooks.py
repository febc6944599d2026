"""The names the benchmark harness under bench/ looks up in membeam.

The traced benchmark wraps functions by (module, attribute) and the probe
of bench/child.py imports and reads named objects; a rename in src/ that
misses one of them fails here rather than in a traced benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from membeam.config import ProblemSetup
from membeam.discretization import GeneratorAssembly, MemoryGrid

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [point[:2] for point in _tracing().WRAP_POINTS])
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_generator_matrix_is_a_property():
    prop = GeneratorAssembly.__dict__["generator_matrix"]
    assert isinstance(prop, property) and prop.fget is not None


def _probe_imports():
    tree = ast.parse((BENCH / "child.py").read_text())
    probe, = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "probe"]
    return [(node.module, alias.name) for node in ast.walk(probe)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("membeam")
            for alias in node.names]


def test_probe_names_exist():
    imports = _probe_imports()
    assert ("membeam.discretization", "memory_grid_from_counts") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # what the probe reads off the setup, the assembly and its memory grid
    assert {"kernel", "params", "assembly"} <= {f.name for f in dataclasses.fields(ProblemSetup)}
    for attr in ("ops", "memory_grid", "Nx", "Ns", "dim"):
        assert hasattr(GeneratorAssembly, attr) or attr in {
            f.name for f in dataclasses.fields(GeneratorAssembly)}, attr
    assert "ds" in {f.name for f in dataclasses.fields(MemoryGrid)}
