"""Tests of the benchmark harness itself; none of them runs membeam.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["stepper.simulate", 1.0, 9.0, 0, {}],
        ["analysis.diagnostics_record", 2.0, 3.0, 1, {}],
        ["analysis.diagnostics_record", 5.0, 7.0, 1, {}],
        ["stepper.splu", 1.5, 2.0, 1, {"n": 192}],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.5, 1.0, 2.0, 0.5])
    table = tracing.summarize(spans)
    assert table["analysis.diagnostics_record"] == pytest.approx(
        {"s": 3.0, "self_s": 3.0, "calls": 2})
    assert table["stepper.splu"]["n"] == 192


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["outer", 0.0, 10.0, -1, {}],
        ["a", 1.0, 5.0, 0, {}],
        ["b", 4.0, 6.0, 0, {}],
        ["c", 9.0, 12.0, 0, {}],     # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_cover_every_name_and_count_setups():
    spans = [
        ["config.build_setup", 0.0, 1.0, -1, {}],
        ["model.validate_kernel", 0.1, 0.2, 0, {}],
        ["model.validate_kernel", 0.5, 0.6, 0, {}],
        ["discretization.generator_matrix", 2.0, 3.0, -1, {"nnz": 42}],
    ]
    values = tracing.layer_metrics(spans, import_s=0.3, overhead_s=0.01)
    assert set(values) == {name for name, _ in tracing.LAYER_METRICS}
    assert values["model.validate_kernel.calls_per_setup"] == 2
    assert values["discretization.generator_matrix.nnz"] == 42
    assert values["stepper.splu.calls"] == 0
    assert values["process.import_s"] == 0.3


def test_tracer_records_parents():
    tracer = tracing.Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap(lambda: None, "inner")
    with tracer.span("outer"):
        inner()
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


# ---------------------------------------------------------------------------
# output check

SIM = workloads.WORKLOADS["simulate_table"]
REFS = {"uu": 1.0, "ut1": 0.5, "tt1": 2.0, "ut2": 0.0, "tt2": 1.0,
        "gamma_fit": 1.44222, "certified_rate": 0.0197162}
GOOD_REPORT = """\
check energy_nonnegative: worst=-1.0e-01 tol=1.0e-08 PASS
check lemma_I_bound: worst=-2.0e-01 tol=1.0e-08 PASS
decay fit: gamma=1.44222 K=0.826045 r2=0.996286 window=[0.4,2] method=peak_envelope
spectral abscissa: skipped (dim=999360 > 2000)
certified decay rate (Lyapunov): 0.0197162
"""


def write_simulate_output(tmp_path, report=GOOD_REPORT, rows=None, final_e=3.5):
    rows = workloads.expected_samples(SIM) if rows is None else rows
    (tmp_path / "membeam_report.txt").write_text(report)
    lines = ["t,E,D,dE_numeric,identity_residual,F1,F2,I,L"]
    lines += [f"{i},{final_e},0,0,0,0,0,0,0" for i in range(rows)]
    (tmp_path / "membeam_run.csv").write_text("\n".join(lines) + "\n")


def test_check_accepts_correct_output(tmp_path):
    write_simulate_output(tmp_path)
    assert workloads.check_output(SIM, tmp_path, 0, 0, REFS) == []


def test_check_rejects_fail_line(tmp_path):
    write_simulate_output(tmp_path, GOOD_REPORT.replace("e-01 tol=1.0e-08 PASS",
                                                        "e-01 tol=1.0e-08 FAIL"))
    assert workloads.check_output(SIM, tmp_path, 0, 0, REFS)


@pytest.mark.parametrize("fit_line", ["", "decay fit: unavailable (only 3 samples)\n"])
def test_check_rejects_missing_decay_fit(tmp_path, fit_line):
    report = "".join(l + "\n" for l in GOOD_REPORT.splitlines()
                     if not l.startswith("decay fit")) + fit_line
    write_simulate_output(tmp_path, report)
    assert any("decay fit" in p for p in workloads.check_output(SIM, tmp_path, 0, 0, REFS))


def test_check_rejects_truncated_csv(tmp_path):
    write_simulate_output(tmp_path, rows=workloads.expected_samples(SIM) - 1)
    assert any("samples" in p for p in workloads.check_output(SIM, tmp_path, 0, 0, REFS))


def test_check_rejects_wrong_energy_and_exit_code(tmp_path):
    write_simulate_output(tmp_path, final_e=3.5 * (1 + 1e-6))
    assert workloads.check_output(SIM, tmp_path, 0, 0, REFS)
    write_simulate_output(tmp_path)
    assert workloads.check_output(SIM, tmp_path, 1, 0, REFS) == ["exit code 1"]


def test_check_predicts_energy_of_other_seeds(tmp_path):
    a, b, m = workloads.profiles_for_seed(7)
    write_simulate_output(tmp_path, final_e=sum(workloads.energy_terms(REFS, (a, b, m))))
    assert workloads.check_output(SIM, tmp_path, 0, 7, REFS) == []


def test_check_rejects_sweep_without_nan_abscissa(tmp_path):
    sweep = workloads.WORKLOADS["sweep_midpoint"]
    rows = [[1.0, 0.5, 0.9], [1.0, 0.5, 0.9], [1.0, 0.5, 0.9]]
    lines = ["beta,gamma_fit,K_fit,r2,abscissa,resolvent_cond"]
    lines += [f"{v!r},1.0,0.5,0.9,nan,1e9" for v in workloads.SWEEP_VALUES]
    (tmp_path / "membeam_run_sweep.csv").write_text("\n".join(lines) + "\n")
    assert workloads.check_output(sweep, tmp_path, 0, 0, {"rows": rows}) == []
    (tmp_path / "membeam_run_sweep.csv").write_text(
        "\n".join(lines).replace("nan", "-0.5") + "\n")
    assert workloads.check_output(sweep, tmp_path, 0, 0, {"rows": rows})


# ---------------------------------------------------------------------------
# seeds


def test_seed_zero_keeps_the_shipped_run_file():
    default_cfg = run.DEFAULT_CFG.read_text()
    prony = workloads.WORKLOADS["simulate_prony"]
    assert workloads.run_file_text(prony, default_cfg, None) == default_cfg


def test_seeds_change_only_the_initial_profiles():
    default_cfg = run.DEFAULT_CFG.read_text()
    for workload in workloads.WORKLOADS.values():
        base = workloads.run_file_text(workload, default_cfg, None).splitlines()
        seeded = workloads.run_file_text(
            workload, default_cfg, workloads.profiles_for_seed(3)).splitlines()
        changed = {b.split("=")[0].strip() for b, s in zip(base, seeded) if b != s}
        assert len(base) == len(seeded) and changed == {"u0", "theta0"}


# ---------------------------------------------------------------------------
# comparison verdicts


def verdict(parent, change, bound=0.1):
    pairs = list(zip(parent, change))
    return compare.verdict(parent, change, pairs, bound)


def test_verdict_improved():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
    assert verdict(parent, [p - 1.0 for p in parent]) == "improved"


def test_verdict_within_bound():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
    change = [p + (0.2 if i % 2 else -0.1) for i, p in enumerate(parent)]
    assert verdict(parent, change) == "within bound"


def test_verdict_regressed():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
    assert verdict(parent, [p * 1.5 for p in parent]) == "regressed"


def test_verdict_unresolved_when_spread_exceeds_bound():
    parent = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 13.0]
    change = [p * 1.05 for p in parent]
    assert verdict(parent, change) == "unresolved"


def test_pairs_match_seeds():
    pairs = compare.pair_by_seed([(1, 10.0), (2, 20.0)], [(2, 21.0), (1, 11.0), (3, 5.0)])
    assert pairs == [(20.0, 21.0), (10.0, 11.0)]


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
