import json
from pathlib import Path

import run


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def _run(out, code):
    return run.Run("untraced", 1.0, 40.0, code, (0.0, 0.0), out)


def test_crashed_run_counts_unreported_checks_as_failed(tmp_path):
    w = run.WORKLOADS["sweep"]
    assert run.account(w, _run(tmp_path, -9)) == (60, 60, False)


def test_exit_code_must_match_the_failed_rows(tmp_path):
    w = run.WORKLOADS["clustered"]
    rows = ["dim,passed"] + [f"8,{int(i != 3)}" for i in range(w.checks)]
    (tmp_path / "clustered.csv").write_text("\n".join(rows) + "\n")
    assert run.account(w, _run(tmp_path, 1)) == (12, 1, True)
    assert run.account(w, _run(tmp_path, 0)) == (12, 1, False)


def test_sweep_gate_fails_low_and_nan_slopes(tmp_path):
    w = run.WORKLOADS["sweep"]
    lines = ["dim,n,trial,epsilon,slope"]
    for t in range(w.checks):
        slope = {0: "1.84e+00", 1: "nan"}.get(t, "2.0e+00")
        lines += [f"8,2,{t},{eps},{slope}" for eps in (0.5, 0.25)]
    Path(tmp_path / "sweep.csv").write_text("\n".join(lines) + "\n")
    assert run.count_sweep(tmp_path) == (60, 2)
