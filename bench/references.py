"""Regenerate references.json from the current program.

    python3 bench/references.py

Runs each simulate workload with the profiles (a, b, m) = (1, 0, 1),
(0, 1, m) and (1, 1, m) for m = 1, 2, which give the coefficients of the
final energy E_T = a^2 uu + a b ut_m + b^2 tt_m, and keeps the seed-0 fit
and certified decay rate.  For the sweep it keeps the seed-0 fit columns.
Regenerate only when a change is meant to alter the numbers, and say so.
"""

import json
import re
import sys

import run
import workloads


def cli_run(workload, profiles):
    workdir = run.OUT_DIR / "references" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    argv = workloads.prepare(workload, workdir, run.DEFAULT_CFG.read_text(), profiles)
    res = run.spawn("run", workdir, argv, False, 600.0)
    if res["rc"] != 0:
        sys.exit(f"{workload.name} {profiles}: exit {res['rc']}: "
                 f"{run.log_tail(workdir, 'run')}")
    return workdir


def main():
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        if workload.command == "sweep":
            workdir = cli_run(workload, None)
            _, rows, _ = workloads.read_csv(workdir / "membeam_run_sweep.csv")
            refs[name] = {"rows": [[float(x) for x in row[1:4]] for row in rows]}
            continue
        energy = {"uu": workloads.final_energy(cli_run(workload, (1.0, 0.0, 1)))}
        for m in (2, 1):
            energy[f"tt{m}"] = workloads.final_energy(cli_run(workload, (0.0, 1.0, m)))
            both = cli_run(workload, (1.0, 1.0, m))
            energy[f"ut{m}"] = (workloads.final_energy(both)
                                - energy["uu"] - energy[f"tt{m}"])
        # (1, 1, 1) are the seed-0 profiles, so the last run gives its report.
        report = (both / "membeam_report.txt").read_text()
        energy["gamma_fit"] = float(re.search(r"decay fit: gamma=(\S+)", report).group(1))
        energy["certified_rate"] = float(
            re.search(r"certified decay rate \(Lyapunov\): (\S+)", report).group(1))
        refs[name] = energy
    path = run.BENCH_DIR / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
