"""Compare two benchmark result files, metric by metric and workload by workload.

    python3 bench/compare.py PARENT.json CHANGE.json

Each run in a result file gives one value per end-to-end metric, its
median.  For every workload and metric this prints both sides' medians
and quartiles over their runs, the share of pairs the change won (runs are
paired by seed), and a verdict:

improved      the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance
within bound  the change's median is no worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or every change run beats
              every parent run
regressed     the change's median is worse by more than the bound
unresolved    the parent's own quartile distance is wider than the bound
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pair_by_seed(parent: list[tuple[int, float]], change: list[tuple[int, float]]):
    """Pairs (parent value, change value) of runs with the same seed, in order."""
    by_seed = defaultdict(list)
    for seed, value in parent:
        by_seed[seed].append(value)
    pairs = []
    for seed, value in change:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), value))
    return pairs


def verdict(parent: list[float], change: list[float], pairs, bound: float) -> str:
    """Lower is better for every end-to-end metric."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(c < p for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and mp - mc > q3 - q1:
        return "improved"
    if max(change) < min(parent):
        return "within bound"
    if q3 - q1 > bound * mp:
        return "unresolved"
    if mc > (1 + bound) * mp:
        return "regressed"
    return "within bound"


def load_runs(path: Path) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for run in json.loads(path.read_text())["runs"]:
        runs[run["workload"]].append(run)
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent, change = (load_runs(Path(p)) for p in argv)
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3] n':>34} "
          f"{'change median [q1, q3] n':>34} {'won':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric, bound in bounds.items():
            sides = []
            for runs in (parent[workload], change[workload]):
                sides.append([(r["seed"], r["medians"][metric]) for r in runs
                              if metric in r["medians"]])
            if not all(sides):
                continue
            p_vals, c_vals = ([v for _, v in side] for side in sides)
            pairs = pair_by_seed(*sides)
            cells = []
            for vals in (p_vals, c_vals):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}] "
                             f"{len(vals)}")
            won = sum(c < p for p, c in pairs)
            print(f"{workload:<16} {metric:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{won:>3}/{len(pairs):<2}  {verdict(p_vals, c_vals, pairs, bound)}")
        ratios = []
        for runs in (parent[workload], change[workload]):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            ratios.append(f"{failed / attempted:.4g} ({failed}/{attempted})")
        print(f"{workload:<16} {'fail_ratio':<12} {ratios[0]:>34} {ratios[1]:>34}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
