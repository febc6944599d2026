"""membeam benchmark: runs the CLI on fixed workloads and reports medians.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each sample is the real ``membeam`` command in a fresh child process
(child.py).  Untraced runs give the end-to-end metrics:

wall_s       wall time of the whole child process (median of the full runs)
setup_s      child start to the return of the first build_setup (median over
             the full runs and setup-only runs that fill the rest of the time)
peak_rss_mb  the child's ru_maxrss in MiB (median of the full runs)
fail_ratio   failed runs / attempted runs; a run fails on a non-zero exit code
             or a wrong output, and failed runs are left out of the timings

With --trace 1 one more full run is traced (tracing.py) and the per-layer
metrics replace the end-to-end ones in the last line.  Every run is
appended, with the machine and library versions, to the result file
(default .bench_out/results.json) that compare.py reads.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_CFG = SRC / "membeam" / "data" / "default.cfg"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0     # a run, traced child included, ends within this


def spawn(mode: str, workdir: Path, argv: list[str], trace: bool, timeout: float) -> dict:
    """Run child.py once; return exit code, wall time, peak RSS and its record."""
    record_path = workdir / f"child-{mode}.json"
    record_path.unlink(missing_ok=True)
    with open(workdir / f"child-{mode}.log", "w") as log:
        t0 = time.monotonic()
        spec = {"src": str(SRC), "argv": argv, "mode": mode, "trace": trace,
                "t0": t0, "record": str(record_path)}
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                                cwd=workdir, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = None
    return {"rc": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "record": record}


def log_tail(workdir: Path, mode: str) -> str:
    lines = (workdir / f"child-{mode}.log").read_text().splitlines()
    return " | ".join(lines[-3:])


def environment() -> dict:
    def git_sha():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    started = time.monotonic()
    workdir = OUT_DIR / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    profiles = workloads.profiles_for_seed(seed)
    argv = workloads.prepare(workload, workdir, DEFAULT_CFG.read_text(),
                             None if seed == 0 else profiles)

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - started)

    probe = spawn("probe", workdir, argv, False, remaining())
    if probe["rc"] != 0 or probe["record"] is None:
        raise RuntimeError(f"{workload.name}: setup probe failed: {log_tail(workdir, 'probe')}")

    full, setup_s, failures = [], [], []
    attempted = 0
    measuring = time.monotonic()

    def measure(mode):
        nonlocal attempted
        attempted += 1
        res = spawn(mode, workdir, argv, False, remaining())
        problems = (workloads.check_output(workload, workdir, res["rc"], seed, refs)
                    if mode == "run" else [] if res["rc"] == 0 else [f"exit code {res['rc']}"])
        if not problems and (res["record"] or {}).get("setup_s") is None:
            problems = [f"no child record: {log_tail(workdir, mode)}"]
        if problems:
            failures.append({"mode": mode, "problems": problems})
            return None
        setup_s.append(res["record"]["setup_s"])
        return res

    # Full runs while another one fits in the time; then setup-only runs.
    while not full or (time.monotonic() - measuring
                       + statistics.median(r["wall_s"] for r in full) <= seconds):
        res = measure("run")
        if res is None:
            if len(failures) >= 3:
                break
            continue
        full.append(res)
    setup_runs = 0
    while (len(full) + setup_runs < MIN_SETUP_SAMPLES
           or time.monotonic() - measuring < seconds) and remaining() > 30:
        measure("setup")
        setup_runs += 1

    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "profiles": profiles, "sizes": probe["record"]["sizes"],
        "libraries": probe["record"]["libraries"],
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "samples": {"wall_s": [r["wall_s"] for r in full], "setup_s": setup_s,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in full]},
    }
    result["fail_ratio"] = len(failures) / attempted
    result["medians"] = {k: statistics.median(v) for k, v in result["samples"].items() if v}

    if trace and full:
        traced = spawn("run", workdir, argv, True, remaining())
        problems = workloads.check_output(workload, workdir, traced["rc"], seed, refs)
        if problems or traced["record"] is None:
            raise RuntimeError(f"{workload.name}: traced run failed: {problems}")
        rec = traced["record"]
        result["layers"] = tracing.layer_metrics(
            rec["spans"], rec["import_s"], traced["wall_s"] - result["medians"]["wall_s"])
        result["spans_by_name"] = tracing.summarize(rec["spans"])
        result["traced_wall_s"] = traced["wall_s"]
    return result


def print_result(res: dict):
    print(f"{res['workload']}  seed {res['seed']}  attempted {res['attempted']}  "
          f"failed {res['failed']}")
    for name, unit in END_TO_END:
        values = res["samples"][name]
        if values:
            print(f"  {name:<12} {statistics.median(values):12.4f} {unit:<5} "
                  f"(median of {len(values)})")
    print(f"  {'fail_ratio':<12} {res['fail_ratio']:12.4f} {'1':<5} "
          f"({res['failed']}/{res['attempted']})")
    sizes = res["sizes"]
    print(f"  Nx={sizes['Nx']} Ns={sizes['Ns']} dim={sizes['dim']} nnz={sizes['nnz']} "
          f"ring={sizes['ring_bytes'] / 2**20:.1f} MiB (computed)")
    for failure in res["failures"]:
        print(f"  FAILED {failure['mode']}: {'; '.join(failure['problems'])}")
    for name, unit in tracing.LAYER_METRICS if "layers" in res else ():
        print(f"  {name:<42} {res['layers'][name]:14.6f} {unit}")


def append_results(path: Path, env: dict, results: list[dict]):
    data = {"runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"] += [dict(r, env=env) for r in results]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1))
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json")
    args = parser.parse_args(argv)

    if not (SRC / "membeam" / "cli.py").is_file() or not DEFAULT_CFG.is_file():
        print(f"membeam sources not found under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    try:
        for name in names:
            res = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), refs[name])
            print_result(res)
            results.append(res)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if any(not r["samples"]["wall_s"] for r in results):
        print("benchmark failed: no run of a workload completed correctly", file=sys.stderr)
        return 1
    append_results(args.out, environment(), results)

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        if args.trace:
            values = {n: (res["layers"][n], u) for n, u in tracing.LAYER_METRICS}
        else:
            values = {n: (res["medians"][n], u) for n, u in END_TO_END}
        metrics.update({prefix + n: {"value": v, "unit": u} for n, (v, u) in values.items()})
    print(json.dumps({"correct": all(r["failed"] == 0 for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
