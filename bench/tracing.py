"""Spans around the calls into each membeam module, and the per-layer metrics.

The tracer replaces a function at the name the program looks it up by when
it calls (``cli.build_setup``, because ``cli`` imports it by name; but
``model.validate_kernel`` and ``analysis.validate_kernel`` separately,
because ``config`` calls the first and ``analysis`` the second).  Each call
becomes a span with a name, start, end and parent.  Spans stay in memory
and are written out once the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, span name)
WRAP_POINTS = (
    ("membeam.cli", "parse_config", "config.parse_config"),
    ("membeam.cli", "build_setup", "config.build_setup"),
    ("membeam.config", "build_kernel", "config.build_kernel"),
    ("membeam.model", "validate_kernel", "model.validate_kernel"),
    ("membeam.analysis", "validate_kernel", "model.validate_kernel"),
    ("membeam.model", "certify_coefficients", "model.certify_coefficients"),
    ("membeam.model", "build_initial_state", "model.build_initial_state"),
    ("membeam.config", "build_operators", "discretization.build_operators"),
    ("membeam.config", "build_memory_grid", "discretization.build_memory_grid"),
    ("membeam.config", "assemble_generator", "discretization.assemble_generator"),
    ("membeam.analysis", "choose_multipliers", "analysis.choose_multipliers"),
    ("membeam.stepper", "simulate", "stepper.simulate"),
    ("membeam.stepper", "splu", "stepper.splu"),
    ("membeam.analysis", "diagnostics_record", "analysis.diagnostics_record"),
    ("membeam.analysis", "certify_trajectory", "analysis.certify_trajectory"),
    ("membeam.analysis", "fit_decay", "analysis.fit_decay"),
    ("membeam.analysis", "spectral_abscissa", "analysis.spectral_abscissa"),
    ("membeam.analysis", "resolvent_check", "analysis.resolvent_check"),
    # analysis calls ``spla.splu`` through the scipy module at run time;
    # stepper bound its own ``splu`` at import and is wrapped above.
    ("scipy.sparse.linalg", "splu", "analysis.splu"),
)

# Spans that also record the order n of the matrix they factorize.
_SIZED = {"stepper.splu", "analysis.splu"}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("process.import_s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("config.parse_config.s", "s"),
    ("config.build_setup.s", "s"),
    ("config.build_setup.calls", "count"),
    ("config.build_kernel.s", "s"),
    ("model.validate_kernel.s", "s"),
    ("model.validate_kernel.calls", "count"),
    ("model.validate_kernel.calls_per_setup", "count"),
    ("discretization.build_memory_grid.s", "s"),
    ("model.build_initial_state.s", "s"),
    ("analysis.choose_multipliers.s", "s"),
    ("stepper.simulate.s", "s"),
    ("stepper.simulate.self_s", "s"),
    ("stepper.splu.s", "s"),
    ("stepper.splu.calls", "count"),
    ("stepper.splu.max_n", "count"),
    ("analysis.diagnostics_record.s", "s"),
    ("analysis.diagnostics_record.calls", "count"),
    ("discretization.generator_matrix.s", "s"),
    ("discretization.generator_matrix.calls", "count"),
    ("discretization.generator_matrix.nnz", "count"),
    ("analysis.resolvent_check.s", "s"),
    ("analysis.splu.s", "s"),
    ("analysis.certify_trajectory.s", "s"),
    ("analysis.fit_decay.s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans as [name, start, end, parent index, attrs] in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), None, parent, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record[4]
        finally:
            self._stack.pop()
            record[2] = self.clock()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if name in _SIZED:
                    attrs["n"] = args[0].shape[0]
                return out
        return traced

    def install(self):
        """Wrap every point in WRAP_POINTS and the generator_matrix property."""
        for module, attr, name in WRAP_POINTS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))

        from membeam.discretization import GeneratorAssembly

        fget = GeneratorAssembly.generator_matrix.fget
        counted = []   # (assembly, matrix) pairs already recorded as builds

        def generator_matrix(assembly):
            start = self.clock()
            matrix = fget(assembly)
            end = self.clock()
            if not any(a is assembly and m is matrix for a, m in counted):
                counted.append((assembly, matrix))
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(["discretization.generator_matrix", start, end,
                                   parent, {"nnz": int(matrix.nnz)}])
            return matrix

        GeneratorAssembly.generator_matrix = property(
            generator_matrix, doc=GeneratorAssembly.generator_matrix.__doc__)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def summarize(spans) -> dict:
    """Per span name: total time s, self time self_s, calls, and max attrs."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, attrs = span
        row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += end - start
        row["self_s"] += own
        row["calls"] += 1
        for key, value in attrs.items():
            row[key] = max(row.get(key, value), value)
    return table


def layer_metrics(spans, import_s: float, overhead_s: float) -> dict[str, float]:
    """Values of every LAYER_METRICS name; a layer that never ran reads 0."""
    table = summarize(spans)
    values = {"process.import_s": import_s, "trace.overhead_s": overhead_s}
    setups = table.get("config.build_setup", {}).get("calls", 0)
    kernel_calls = table.get("model.validate_kernel", {}).get("calls", 0)
    values["model.validate_kernel.calls_per_setup"] = kernel_calls / setups if setups else 0.0
    for metric, _ in LAYER_METRICS:
        if metric in values:
            continue
        layer, _, field = metric.rpartition(".")
        if field == "max_n":
            field = "n"
        values[metric] = table.get(layer, {}).get(field, 0)
    return values
