"""Tests of the benchmark itself: its checks can fail, its tracer leaves no
trace behind, and a run prints every metric of BENCHMARK.json with its
unit.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import Tracer, traced_functions  # noqa: E402

BENCH = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pkg():
    return wl.import_package()


def _copy_frozen(name: str, dest: Path) -> None:
    for path in (wl.REFERENCE / name).glob("*.csv"):
        shutil.copy(path, dest / path.name)


def _rewrite(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_frozen_sweep_outputs_pass_their_own_check(tmp_path):
    ref = wl.load_reference("fig2a_budget")
    _copy_frozen("fig2a_budget", tmp_path)
    checked = wl.Checked()
    wl.check_sweep_csvs(tmp_path, wl.REFERENCE / "fig2a_budget", ref, checked)
    assert checked.ops > 100
    assert checked.failures == []


def test_perturbed_analytic_reference_is_a_failed_op(tmp_path):
    ref = wl.load_reference("fig2a_budget")
    _copy_frozen("fig2a_budget", tmp_path)
    key = next(iter(ref["analytic"]))
    ref["analytic"][key] *= 1.0 + 1e-3
    checked = wl.Checked()
    wl.check_sweep_csvs(tmp_path, wl.REFERENCE / "fig2a_budget", ref, checked)
    assert len(checked.failures) == 1
    assert key in checked.failures[0]


def test_shifted_mc_cell_is_a_failed_op(tmp_path):
    ref = wl.load_reference("fig3a_elements")
    _copy_frozen("fig3a_elements", tmp_path)

    def shift(rows):
        row = rows[0]
        row["mc_mean"] = repr(float(row["mc_mean"]) - 5.0 * float(row["mc_ci95"]))

    _rewrite(tmp_path / "fig3a_outage_t.csv", shift)
    checked = wl.Checked()
    wl.check_sweep_csvs(tmp_path, wl.REFERENCE / "fig3a_elements", ref, checked)
    assert len(checked.failures) == 1


def test_missing_output_fails_every_cell(tmp_path):
    ref = wl.load_reference("fig3a_elements")
    checked = wl.Checked()
    wl.check_sweep_csvs(tmp_path, wl.REFERENCE / "fig3a_elements", ref, checked)
    assert checked.ops > 0 and len(checked.failures) == checked.ops


def test_forced_gate_fail_and_missing_gate_are_failed_ops(tmp_path):
    shutil.copy(wl.REFERENCE / "validate" / "gates.csv", tmp_path / "gates.csv")
    checked = wl.Checked()
    wl.check_gates(tmp_path, wl.REFERENCE / "validate", checked)
    assert checked.ops >= 49 and checked.failures == []

    def fail_first_drop_last(rows):
        rows[0]["verdict"] = "FAIL"
        rows.pop()

    _rewrite(tmp_path / "gates.csv", fail_first_drop_last)
    checked = wl.Checked()
    wl.check_gates(tmp_path, wl.REFERENCE / "validate", checked)
    assert len(checked.failures) == 2


def test_closed_form_check_counts_perturbed_and_raising_calls(pkg):
    workload = wl.WORKLOADS["closed_forms"]
    ref = wl.load_reference("closed_forms")
    state = workload.setup(pkg, 0, "test")
    values = ref["calls"]
    state["results"] = [(values[call.key], 1e-3) for call in state["calls"]]
    state["fits"] = {k: v for k, v in values.items() if k.startswith("fit|")}
    assert len(state["fits"]) == 8
    checked = workload.check(state, ref)
    assert checked.ops == len(state["calls"]) + 8
    assert checked.failures == []

    state["results"][0] = (state["results"][0][0] * (1.0 + 1e-3), 1e-3)
    state["results"][1] = ("NumericIntegrityError: escaped", 1e-3)
    assert len(workload.check(state, ref).failures) == 2


def test_traced_calls_without_reference_or_off_it_are_failed_ops():
    ref = wl.load_reference("validate")
    key, value = next((k, v) for k, v in ref["calls"].items()
                      if k.startswith("analytic.outage_r|"))
    mode = key.split("|")[2].lower()
    good = ("analytic.outage_r", mode, key, value)
    checked = wl.Checked()
    wl.check_keyed_calls([good], ref, checked)
    assert checked.ops == 1 and checked.failures == []
    assert checked.rel_err == {f"analytic.outage_r.{mode}": 0.0, "analytic.outage_r": 0.0}

    off = ("analytic.outage_r", mode, key, value * (1.0 + 1e-2))
    unknown = ("analytic.outage_r", mode, key + "|one ulp away", value)
    checked = wl.Checked()
    wl.check_keyed_calls([off, unknown], ref, checked)
    assert checked.ops == 2 and len(checked.failures) == 2


def test_mc_agreement_rule():
    # few events or none: the exact test
    n = wl.TRIALS
    assert wl.mc_cells_agree((0.0, n), (0.0, n))
    assert wl.mc_cells_agree((2 / n, n), (0.0, n))
    # fig2a's astars_oma outage_t at 30 dBm is rare: the frozen cell drew
    # no event in 10 * n trials, and a run at another seed drew 4
    assert wl.mc_cells_agree((4 / n, n), (0.0, 10 * n))
    assert not wl.mc_cells_agree((7 / n, n), (0.0, 10 * n))
    # outage near 1: the rare outcome is the non-event
    assert wl.mc_cells_agree((1 - 3 / n, n), (1 - 30 / (10 * n), 10 * n))
    assert not wl.mc_cells_agree((1.0, n), (1 - 300 / (10 * n), 10 * n))
    p = 0.1
    sigma = math.sqrt(2 * p * (1 - p) / n)
    assert wl.mc_cells_agree((p + 4.5 * sigma, n), (p, n))
    assert not wl.mc_cells_agree((p + 5.5 * sigma, n), (p, n))


def _attributes(pkg) -> dict:
    return {(name, attr): obj for name, module in sys.modules.items()
            if name == "astars_noma" or name.startswith("astars_noma.")
            for attr, obj in vars(module).items()}


def test_tracer_restores_every_patched_attribute(pkg):
    before = _attributes(pkg)
    cfg = pkg.model.NetworkConfig()
    with Tracer(pkg, "test", signature=wl.call_key) as tracer:
        patched = tracer.patched
        assert pkg.cli.main is not before[("astars_noma.cli", "main")]
        pkg.analytic.outage_t(cfg, 1.0)
    # every function that is traced was reached through at least one module
    assert {id(obj) for _, _, obj in patched} == {id(fn) for fn in traced_functions(pkg)}
    after = _attributes(pkg)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    layer = tracer.layer_metrics()
    assert layer["analytic.outage_t.calls"] == 1
    assert layer["numerics.reg_lower_gamma.calls"] == 1
    assert layer["model.gamma_fit.calls"] == 1
    assert 0.0 < layer["analytic.outage_t.self_s"] < layer["analytic.outage_t.busy_s"]
    [(_, _, key, value)] = tracer.keyed_results()
    assert key.startswith("analytic.outage_t|") and value == pkg.analytic.outage_t(cfg, 1.0)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, group):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig3a_elements",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCH[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(wl.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "closed_forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
