"""The benchmark's workloads: run files made from a seed, and output checks.

Every workload runs a real ``membeam`` CLI command on a run file derived
from the shipped ``default.cfg``.  The seed changes only the initial
profiles, u0 = a x^2 (1-x)^2 and theta0 = b sin(m pi x); Nx, Ns, dt, the
kernel and the number of samples stay fixed, so every seed does the same
work.  Seed 0 keeps the shipped profiles.

The scheme is linear in the state and E is a quadratic form, so the final
energy of any seed is a^2 uu + a b ut_m + b^2 tt_m.  references.json stores
those coefficients (and the seed-0 fits), which lets every seed's output be
checked against stored numbers.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

KERNEL_TABLE = "kernel.txt"
RUN_FILE = "run.cfg"

# Relative tolerances against references.json.  Results differ between
# BLAS builds only by rounding, which stays far below these.
E_FINAL_RTOL = 1e-8        # quadratic-form prediction of the final energy
REPORT_RTOL = 1e-5         # report values printed with 6 significant digits
SWEEP_RTOL = 1e-7          # sweep CSV values printed with 17 digits


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # "simulate" or "sweep"
    T: float
    dt: float
    sample_every: int


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate_prony",
                 "the paper's headline run on default.cfg; sampling dominates",
                 "simulate", T=10.0, dt=1e-3, sample_every=10),
        Workload("simulate_table",
                 "tabulated non-Prony kernel; O(Nx*Ns) stepping dominates, table load in setup",
                 "simulate", T=2.0, dt=1e-3, sample_every=50),
        Workload("sweep_midpoint",
                 "serial 3-value beta sweep; the only path that assembles and factorizes A_h",
                 "sweep", T=10.0, dt=1e-2, sample_every=10),
    )
}

SWEEP_VALUES = (0.0, 0.5, 1.0)


def profiles_for_seed(seed: int) -> tuple[float, float, int]:
    """(a, b, m) of the initial profiles; seed 0 gives the shipped (1, 1, 1)."""
    if seed == 0:
        return 1.0, 1.0, 1
    rng = random.Random(seed)
    return rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.choice((1, 2))


def _edit(text: str, key: str, lines: list[str]) -> str:
    """Replace the one 'key = ...' line of a run file by lines."""
    new, count = re.subn(rf"^{re.escape(key)}\s*=.*\n", "".join(f"{l}\n" for l in lines),
                         text, flags=re.M)
    if count != 1:
        raise ValueError(f"default.cfg has {count} lines for key {key!r}, expected 1")
    return new


def run_file_text(workload: Workload, default_cfg: str, profiles) -> str:
    """The workload's run file; profiles is (a, b, m) or None for the shipped ones."""
    text = default_cfg
    if profiles is not None:
        a, b, m = profiles
        text = _edit(text, "u0", [f"u0 = poly 0 0 {a!r} {-2 * a!r} {a!r}"])
        text = _edit(text, "theta0", [f"theta0 = sine {b!r} {m}"])
    if workload.name == "simulate_table":
        text = _edit(text, "type", ["type = table", f"path = {KERNEL_TABLE}"])
        text = _edit(text, "amplitudes", [])
        text = _edit(text, "rates", [])
    if workload.name == "sweep_midpoint":
        text = _edit(text, "Nx", ["Nx = 32"])
        text = _edit(text, "scheme", ["scheme = full_implicit_midpoint"])
    for key, value in (("dt", workload.dt), ("T", workload.T),
                       ("sample_every", workload.sample_every)):
        text = _edit(text, key, [f"{key} = {value!r}"])
    return text


def write_kernel_table(path: Path):
    """mu(s) = e^-s / (1+s) and mu'(s) on s in [0, 40], 400,001 rows."""
    rows = []
    for k in range(400_001):
        s = k / 10_000
        e = math.exp(-s)
        rows.append(f"{s!r} {e / (1 + s)!r} {-e * (2 + s) / (1 + s) ** 2!r}\n")
    path.write_text("".join(rows))


def prepare(workload: Workload, workdir: Path, default_cfg: str, profiles) -> list[str]:
    """Write the workload's inputs into workdir; return the CLI argv."""
    (workdir / RUN_FILE).write_text(run_file_text(workload, default_cfg, profiles))
    if workload.name == "simulate_table":
        write_kernel_table(workdir / KERNEL_TABLE)
    if workload.command == "sweep":
        return ["sweep", RUN_FILE, "--param", "beta",
                "--values", ",".join(repr(v) for v in SWEEP_VALUES), "--serial"]
    return ["simulate", RUN_FILE]


# ---------------------------------------------------------------------------
# output checks


def expected_samples(workload: Workload) -> int:
    steps = round(workload.T / workload.dt)
    return steps // workload.sample_every + 1 + (1 if steps % workload.sample_every else 0)


def read_csv(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, data rows, comment lines) of a CSV the CLI wrote."""
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l.split(",") for l in lines if l and not l.startswith("#")]
    return (body[0] if body else []), body[1:], comments


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def energy_terms(ref: dict, profiles) -> tuple[float, float, float]:
    """The three terms of the predicted final energy of profiles (a, b, m)."""
    a, b, m = profiles
    return a * a * ref["uu"], a * b * ref[f"ut{m}"], b * b * ref[f"tt{m}"]


def final_energy(workdir: Path) -> float:
    header, rows, _ = read_csv(workdir / "membeam_run.csv")
    return float(rows[-1][header.index("E")])


def check_simulate(workload: Workload, workdir: Path, seed: int, refs: dict) -> list[str]:
    problems = []
    report = (workdir / "membeam_report.txt").read_text().splitlines()
    checks = [l for l in report if l.startswith("check ")]
    if not checks:
        problems.append("report has no check lines")
    problems += [f"report: {l}" for l in checks if not l.endswith(" PASS")]
    fit = [l for l in report if l.startswith("decay fit:")]
    match = re.search(r"gamma=(\S+)", fit[0]) if fit else None
    if match is None:
        problems.append(f"decay fit missing or unavailable: {fit}")
    rate = [l for l in report if l.startswith("certified decay rate")]
    if not rate or not _close(float(rate[0].split(":")[1]), refs["certified_rate"],
                              REPORT_RTOL):
        problems.append(f"certified decay rate {rate} != {refs['certified_rate']}")

    header, rows, comments = read_csv(workdir / "membeam_run.csv")
    if comments:
        problems.append(f"CSV comments {comments}")
    want = expected_samples(workload)
    if len(rows) != want or "E" not in header:
        problems.append(f"CSV has {len(rows)} samples, expected {want}")
        return problems

    got = float(rows[-1][header.index("E")])
    terms = energy_terms(refs, profiles_for_seed(seed))
    want_e = sum(terms)
    if not (math.isfinite(got) and abs(got - want_e) <= E_FINAL_RTOL * sum(map(abs, terms))):
        problems.append(f"final E {got!r}, expected {want_e!r}")
    if seed == 0 and match and not _close(float(match.group(1)), refs["gamma_fit"],
                                          REPORT_RTOL):
        problems.append(f"gamma_fit {match.group(1)}, expected {refs['gamma_fit']!r}")
    return problems


def check_sweep(workdir: Path, seed: int, refs: dict) -> list[str]:
    problems = []
    header, rows, _ = read_csv(workdir / "membeam_run_sweep.csv")
    if header != ["beta", "gamma_fit", "K_fit", "r2", "abscissa", "resolvent_cond"] \
            or len(rows) != len(SWEEP_VALUES):
        return [f"sweep CSV header {header} with {len(rows)} rows"]
    for i, (row, beta) in enumerate(zip(rows, SWEEP_VALUES)):
        value, gamma, k_fit, r2, absc, cond = (float(x) for x in row)
        if value != beta:
            problems.append(f"row {i}: beta {value}, expected {beta}")
        if not (gamma > 0 and k_fit > 0 and 0 < r2 <= 1):
            problems.append(f"row {i}: fit gamma={gamma} K={k_fit} r2={r2}")
        if not math.isnan(absc):
            problems.append(f"row {i}: abscissa {absc}, expected nan above the dense cap")
        if not (math.isfinite(cond) and cond > 0):
            problems.append(f"row {i}: resolvent_cond {cond} not finite")
        if seed == 0:
            for name, got, ref in zip(("gamma_fit", "K_fit", "r2"), (gamma, k_fit, r2),
                                      refs["rows"][i]):
                if not _close(got, ref, SWEEP_RTOL):
                    problems.append(f"row {i}: {name} {got!r}, expected {ref!r}")
    return problems


def check_output(workload: Workload, workdir: Path, rc: int, seed: int,
                 refs: dict) -> list[str]:
    """Everything wrong with one run's output; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if workload.command == "sweep":
            return check_sweep(workdir, seed, refs)
        return check_simulate(workload, workdir, seed, refs)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
