"""The names read across the boundary of a membeam module.

The traced benchmark wraps functions by (module, attribute) and the probe
of bench/child.py imports and reads named objects; a rename in src/ that
misses one of them fails here rather than in a traced benchmark run.  The
modules of membeam read no private name of one another.
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
SRC = Path(__file__).resolve().parent.parent / "src" / "membeam"


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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source):
    """(line, name) of every private name of another membeam module that
    source reads: as mod._x, mod a module it imported, or through
    from .mod import _x."""
    stems = {path.stem for path in SRC.glob("*.py")}
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("membeam."))
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if module in (".", "membeam") and alias.name in stems:
                    modules.add(alias.asname or alias.name)
                elif module.startswith((".", "membeam.")) and _private(alias.name):
                    reads.append((node.lineno, alias.name))
    reads += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return sorted(reads)


def test_private_reads_are_found():
    source = ("from . import analysis, stepper as st\n"
              "from .model import _readonly, State\n"
              "from numpy import _globals\n"
              "import membeam.config as cf\n"
              "st._fill(analysis.energy, cf._key, analysis.__name__, self._x)\n")
    assert _private_reads(source) == [(2, "_readonly"), (5, "cf._key"), (5, "st._fill")]


def test_no_module_reads_a_private_name_of_another():
    reads = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in _private_reads(path.read_text())]
    assert reads == []
