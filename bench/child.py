"""One benchmark sample: a fresh process that runs ``membeam.cli.main``.

Usage (by run.py): python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (directory holding the membeam package), ``argv``
(the CLI arguments), ``mode``, ``trace``, ``t0`` (the parent's
``time.monotonic()`` just before it started this process) and ``record``
(where to write the result).  Modes:

run    the whole command; records import_s, setup_s and, traced, the spans
setup  the same command, stopped once the first ``build_setup`` returns
probe  builds the setup of the run file directly and records the problem
       size and library versions; it also compiles and caches the sources
       before anything is timed
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import membeam.cli as cli  # noqa: E402

imported = time.monotonic()
record = {"import_s": imported - spec["t0"]}


class SetupDone(Exception):
    """Raised after the first build_setup returns in setup mode."""


def probe(argv):
    import numpy as np
    import scipy
    from membeam.config import build_setup, parse_config
    from membeam.discretization import assemble_generator, memory_grid_from_counts

    setup = build_setup(parse_config(argv[1]))
    asm = setup.assembly

    def nnz(ns):
        mg = memory_grid_from_counts(setup.kernel, asm.memory_grid.ds, ns)
        return assemble_generator(asm.ops, mg, setup.params).generator_matrix.nnz

    # The generator gains the same entries with each history column, so its
    # nnz is affine in Ns; two tiny assemblies give it without building A_h.
    nnz1, nnz2 = nnz(1), nnz(2)
    record["sizes"] = {
        "Nx": asm.Nx, "Ns": asm.Ns, "dim": asm.dim,
        "nnz": int(nnz1 + (asm.Ns - 1) * (nnz2 - nnz1)),
        "nnz_source": "computed: affine in Ns from Ns=1 and Ns=2 assemblies",
        "ring_bytes": asm.Nx * asm.Ns * 8,
        "ring_bytes_source": "computed: Nx*Ns*8",
    }
    blas = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = f"{deps.get('name')} {deps.get('version')}"
    record["libraries"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                           "blas": blas}
    return 0


def main() -> int:
    if spec["mode"] == "probe":
        return probe(spec["argv"])

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    build_setup = cli.build_setup

    def stamped_build_setup(*args, **kwargs):
        setup = build_setup(*args, **kwargs)
        if "setup_s" not in record:
            record["setup_s"] = time.monotonic() - spec["t0"]
            if spec["mode"] == "setup":
                raise SetupDone
        return setup

    cli.build_setup = stamped_build_setup
    try:
        if tracer is None:
            return cli.main(spec["argv"])
        with tracer.span("cli.main"):
            return cli.main(spec["argv"])
    except SetupDone:
        return 0
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans


if __name__ == "__main__":
    code = main()
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    sys.exit(code)
