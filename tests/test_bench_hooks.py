"""The names read across the boundary of a membeam module.

The traced benchmark wraps functions by (module, attribute) and the probe
of bench/child.py imports and reads named objects; a rename in src/ that
misses one of them fails here rather than in a traced benchmark run.  The
modules of membeam import one another in one order and only at module
level, they read no private name of one another, no function of
theirs takes a parameter that it never reads, they keep no error class
that no caller tells apart and no dataclass field that nothing reads,
only cli._write opens a file for writing, and only
analysis.check_dissipativity draws random numbers.  No test ignores the
RuntimeWarning that pyproject.toml turns into an error.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from membeam.config import ProblemSetup
from membeam.discretization import GeneratorAssembly, MemoryGrid

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
SRC = TESTS.parent / "src" / "membeam"


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


# The order in which the modules of membeam import one another: each
# imports only modules before it, so no import waits on a module that is
# itself still importing.  __init__ and __main__, which gather the
# package, are exempt.
CHAIN = ("errors", "model", "discretization", "analysis", "stepper", "config", "cli")


def _chain_breaks(name, source):
    """(line, module) of every membeam module that source, the module
    name's, imports inside a function body or that does not come before
    name in CHAIN; the package itself counts as the module __init__."""
    rank, breaks = CHAIN.index(name), []

    def visit(node, nested):
        nested = nested or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        targets = []
        if isinstance(node, ast.Import):
            targets = [(alias.name + ".__init__").split(".")[1] for alias in node.names
                       if alias.name.split(".")[0] == "membeam"]
        elif isinstance(node, ast.ImportFrom):
            module = "membeam." * (node.level > 0) + (node.module or "")
            parts = module.rstrip(".").split(".")
            if parts[0] == "membeam":
                targets = parts[1:2] or [alias.name for alias in node.names]
        breaks.extend((node.lineno, target) for target in targets
                      if nested or target not in CHAIN[:rank])
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(ast.parse(source), False)
    return breaks


def test_chain_breaks_are_found():
    source = ("from . import model, errors\n"
              "from .discretization import GeneratorAssembly\n"
              "import membeam.stepper as st\n"
              "from membeam import cli\n"
              "from .analysis import energy\n"
              "import numpy, membeam\n"
              "from membeam.model import State\n"
              "def f():\n"
              "    from .model import State\n"
              "    import os\n")
    assert _chain_breaks("analysis", source) == [
        (3, "stepper"), (4, "cli"), (5, "analysis"), (6, "__init__"), (9, "model")]


def test_modules_import_in_one_chain():
    assert {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"} == set(CHAIN)
    breaks = [f"{name}.py:{line}: {target}" for name in CHAIN
              for line, target in _chain_breaks(name, (SRC / f"{name}.py").read_text())]
    assert breaks == []


# calls that write a file whatever their arguments, by attribute name
_WRITERS = {"write_text", "write_bytes", "savetxt", "savez", "savez_compressed", "tofile"}


def _file_writes(source, writer=None):
    """(line, call) of every call in source, outside the function named
    writer, that opens a file for writing: open, io.open, os.fdopen or a
    Path's open with a mode that writes or is not a string literal,
    os.open, a Path or numpy writer; and every O_TRUNC, in writer too."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == writer for node in ast.walk(fn)}
    writes = [(node.lineno, "O_TRUNC") for node in ast.walk(tree)
              if "O_TRUNC" in (getattr(node, "attr", None), getattr(node, "id", None))]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(func, "value", None)
        owner = owner.id if isinstance(owner, ast.Name) else None
        if name in _WRITERS or (owner, name) == ("os", "open"):
            writes.append((node.lineno, ast.unparse(func)))
        elif name in ("open", "fdopen"):   # the mode follows the file, a Path's comes first
            at = 0 if isinstance(func, ast.Attribute) and owner not in ("io", "os") else 1
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                writes.append((node.lineno, ast.unparse(func)))
    return sorted(writes)


def test_file_writes_are_found():
    source = ("import io, os, numpy as np\n"
              "def _write(path):\n"
              "    fd = os.open(path, os.O_WRONLY)\n"
              "    with open(fd, 'w') as fh:\n"
              "        fh.write('x')\n"
              "def other(path, mode):\n"
              "    open(path).read(); open(path, 'rb'); io.open(path, mode='r'); path.open()\n"
              "    open(path, 'a'); io.open(path, mode); path.open('w'); os.fdopen(3, 'r+')\n"
              "    path.write_text('x'); np.savetxt(path, []); os.open(path, os.O_RDONLY)\n"
              "    flags = os.O_CREAT | os.O_TRUNC\n")
    found = [(8, "io.open"), (8, "open"), (8, "os.fdopen"), (8, "path.open"),
             (9, "np.savetxt"), (9, "os.open"), (9, "path.write_text"), (10, "O_TRUNC")]
    assert _file_writes(source, "_write") == found
    assert _file_writes(source) == sorted([(3, "os.open"), (4, "open"), *found])


def test_only_cli_write_opens_a_file_for_writing():
    # a second writer could truncate at open, which waits for the last run's
    # blocks to be flushed
    writes = [f"{path.name}:{line}: {call}" for path in sorted(SRC.glob("*.py"))
              for line, call in _file_writes(path.read_text(),
                                             "_write" if path.name == "cli.py" else None)]
    assert writes == []


# names that reach a random number generator: the modules random, secrets
# and numpy.random, numpy's default_rng, and scipy.sparse.random
_RANDOM = {"random", "secrets", "default_rng"}


def _random_draws(source):
    """(line, function) of every import, name or attribute in source that
    names one of _RANDOM, or has it as a dotted part, with the innermost
    def it sits in ("" at module level)."""
    draws = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            parts = {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            parts = {*(node.module or "").split("."), *(alias.name for alias in node.names)}
        else:
            parts = {getattr(node, "attr", None), getattr(node, "id", None)}
        if parts & _RANDOM:
            draws.add((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return sorted(draws)


def test_random_draws_are_found():
    source = ("import random, numpy.random as npr\n"
              "from numpy.random import default_rng\n"
              "def f(n):\n"
              "    rng = np.random.default_rng(0)\n"
              "    def g():\n"
              "        return sp.random(n, n)\n"
              "    return rng.standard_normal(n), g, 'random'\n"
              "x = secrets.token_hex()\n")
    assert _random_draws(source) == [(1, ""), (2, ""), (4, "f"), (6, "g"), (8, "")]


def test_only_the_dissipativity_check_draws_random_numbers():
    # every other number a run prints follows from its run file alone, and
    # no setup samples what a test proves or the run's own checks watch
    draws = [(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in _random_draws(path.read_text())]
    assert draws == [("analysis.py", "check_dissipativity")]


def _unread_parameters(source):
    """(line, function, parameter) of every parameter of a def, other than
    self and cls, that its body never reads; a read in a nested function or
    lambda counts.  Lambdas themselves are exempt (the constant profile's
    slope is lambda x: 0.0)."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, p) for p in params if p not in read]
    return unread


def test_unread_parameters_are_found():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    return a + kw['x']\n"
              "class K:\n"
              "    def m(self, x, y):\n"
              "        def inner():\n"
              "            return y\n"
              "        x = inner()\n"
              "        return lambda z: 0.0\n")
    assert _unread_parameters(source) == [(1, "f", "b"), (1, "f", "rest"), (1, "f", "c"),
                                          (4, "m", "x")]


def test_no_function_has_an_unread_parameter():
    unread = [f"{path.name}:{line}: {name}({param})" for path in sorted(SRC.glob("*.py"))
              for line, name, param in _unread_parameters(path.read_text())]
    assert unread == []


def _names(node):
    """The names an except clause, an isinstance class argument or a
    decorator gives: a name, a dotted name's last part, or a tuple's."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Call):
        return _names(node.func)
    return {node.id} if isinstance(node, ast.Name) else {getattr(node, "attr", None)}


def _unread_errors_and_fields(errors, sources):
    """Every class of the errors source that no except clause or
    isinstance call of sources names and none of whose own attributes
    (self.x = ...) they read off an exception they caught (exc.x in an
    except ... as exc block); every such attribute that they never read
    off a caught exception; and every dataclass field of sources that
    they never read as .field nor name as a string."""
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    named, caught = set(), set()
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named |= _names(node.type)
            caught |= {n.attr for stmt in node.body for n in ast.walk(stmt)
                       if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                       and n.value.id == node.name}
        elif (isinstance(node, ast.Call) and _names(node.func) == {"isinstance"}
              and len(node.args) == 2):
            named |= _names(node.args[1])
    unread = []
    for cls in ast.parse(errors).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        own = {target.attr for n in ast.walk(cls) if isinstance(n, ast.Assign)
               for target in n.targets if isinstance(target, ast.Attribute)
               and isinstance(target.value, ast.Name) and target.value.id == "self"}
        if cls.name not in named and not own & caught:
            unread.append(f"error class {cls.name}")
        unread += [f"attribute {cls.name}.{attr}" for attr in sorted(own - caught)]
    read = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    read |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    for cls in nodes:
        if isinstance(cls, ast.ClassDef) and any("dataclass" in _names(d)
                                                 for d in cls.decorator_list):
            unread += [f"field {cls.name}.{stmt.target.id}" for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read]
    return unread


def test_unread_errors_and_fields_are_found():
    errors = ("class Base(Exception):\n"
              "    pass\n"
              "class Caught(Base):\n"
              "    pass\n"
              "class Checked(Base):\n"
              "    pass\n"
              "class Carrier(Base):\n"
              "    def __init__(self, n, k):\n"
              "        self.n = n\n"
              "        self.k = k\n"
              "class Unread(Base):\n"
              "    def __init__(self, m):\n"
              "        self.m = m\n")
    module = ("@dataclasses.dataclass(frozen=True)\n"
              "class Point:\n"
              "    x: float\n"
              "    y: float\n"
              "    z: float\n"
              "    w: float = 0.0\n"
              "class Plain:\n"
              "    v: float\n"
              "def run(p):\n"
              "    try:\n"
              "        return p.x + getattr(p, 'y') + p.m\n"
              "    except (errors.Caught, ValueError):\n"
              "        return p.w\n"
              "    except Base as exc:\n"
              "        return isinstance(exc, Checked) or exc.n\n")
    assert _unread_errors_and_fields(errors, [errors, module]) == [
        "attribute Carrier.k", "error class Unread", "attribute Unread.m", "field Point.z"]


def test_no_error_class_or_dataclass_field_goes_unread():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert _unread_errors_and_fields((SRC / "errors.py").read_text(), sources) == []


def _runtime_warning_ignores(source):
    """(line, call) of every filterwarnings or simplefilter call in source,
    a pytest mark among them, that ignores RuntimeWarning: its action is
    "ignore" and its category RuntimeWarning, Warning or none given.  A
    filter string "action:message:category:..." gives both."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and
                _names(node.func) & {"filterwarnings", "simplefilter"}):
            continue
        given = {kw.arg: kw.value for kw in node.keywords}
        action = given.get("action", node.args[0] if node.args else None)
        if not (isinstance(action, ast.Constant) and isinstance(action.value, str)):
            continue
        action, *rest = action.value.split(":")
        at = 1 if _names(node.func) == {"simplefilter"} else 2
        category = given.get("category", node.args[at] if len(node.args) > at else None)
        names = _names(category) if category is not None else set()
        names |= {rest[1].strip().rsplit(".", 1)[-1]} if len(rest) > 1 else set()
        if action.strip() == "ignore" and not names - {"", "RuntimeWarning", "Warning"}:
            found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_runtime_warning_ignores_are_found():
    source = ("@pytest.mark.filterwarnings('ignore::RuntimeWarning')\n"
              "@pytest.mark.filterwarnings('ignore::DeprecationWarning')\n"
              "@pytest.mark.filterwarnings('error::RuntimeWarning')\n"
              "def test():\n"
              "    warnings.simplefilter('ignore', RuntimeWarning)\n"
              "    warnings.simplefilter('ignore')\n"
              "    warnings.simplefilter('error')\n"
              "    warnings.filterwarnings('ignore', category=RuntimeWarning)\n"
              "    filterwarnings('ignore', 'overflow', builtins.RuntimeWarning)\n"
              "    warnings.filterwarnings('ignore', category=UserWarning)\n"
              "    warnings.simplefilter(action='ignore', category=Warning)\n")
    assert _runtime_warning_ignores(source) == [
        (1, "pytest.mark.filterwarnings"), (5, "warnings.simplefilter"),
        (6, "warnings.simplefilter"), (8, "warnings.filterwarnings"), (9, "filterwarnings"),
        (11, "warnings.simplefilter")]


def test_no_test_ignores_runtime_warnings():
    # pyproject.toml makes a numpy overflow or invalid-value warning an
    # error; a test that ignores it can hide a defect that warns
    ignores = [f"{path.name}:{line}: {call}" for path in sorted(TESTS.rglob("*.py"))
               for line, call in _runtime_warning_ignores(path.read_text())]
    assert ignores == []
