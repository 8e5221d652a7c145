"""Freeze the benchmark's reference outputs.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload this runs one pass at the reference seed with the
package's default rule sizes and one with every rule size multiplied by
REFERENCE_RULE_SCALE, both traced so that each closed-form call is keyed
and kept.  The default-rule pass of a figure workload runs
REFERENCE_TRIALS trials per point.  It writes
``perfbench/reference/<workload>/``:

* the CSVs (or ``gates.csv``) of the default-rule pass, the frozen
  Monte Carlo cells and gate table;
* ``reference.json``: the large-rule value of every closed-form call and
  analytic CSV cell, the rule sizes of both passes, the error the default
  rules showed against the large rules on each evaluator row, the
  tolerance of every call and cell derived from those errors, and the
  cells that mc_ci2_s averages over.

The large-rule pass is slow (an ipSIC ergodic rate at 800^3 nodes takes
about 13 s), which is why its values are frozen and never recomputed
during a benchmark run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def record(pkg, workload, rule_scale: int) -> dict:
    """One traced pass at the reference seed: keyed call results, their
    rows, and the output files."""
    tag = f"reference-x{rule_scale}"
    state = workload.setup(pkg, wl.REFERENCE_SEED, tag, rule_scale)
    t0 = time.perf_counter()
    with Tracer(pkg, tag, signature=wl.call_key) as tracer:
        workload.run(pkg, state)
    print(f"{workload.name} rules x{rule_scale}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    calls, rows = {}, {}
    for label, mode, key, value in tracer.keyed_results():
        calls[key] = value
        rows[key] = wl.row_label(label, mode)
    for key, slope in state.get("fits", {}).items():
        calls[key] = slope
        rows[key] = "fit"
    files = {}
    if isinstance(workload, wl.CliWorkload):
        if state["code"] != 0:
            raise SystemExit(f"{workload.name} failed at rules x{rule_scale}: {state['code']}")
        files = {p.name: p.read_bytes() for p in sorted(workload.outputs(state).glob("*.csv"))}
    workload.cleanup(state)
    return {"calls": calls, "rows": rows, "files": files}


def freeze(pkg, workload) -> None:
    base = pkg.model.NetworkConfig()
    mc_frozen = isinstance(workload, wl.CliWorkload) and workload.command[0] == "figure"
    seed_workload = (dataclasses.replace(workload, trials=wl.REFERENCE_TRIALS)
                     if mc_frozen else workload)
    seed_run = record(pkg, seed_workload, 1)
    ref_run = record(pkg, workload, wl.REFERENCE_RULE_SCALE)

    # key of each call or analytic cell -> (row, error of the default rules)
    errors: dict[str, tuple[str, float]] = {}
    for key, value in seed_run["calls"].items():
        errors[key] = (seed_run["rows"][key], wl.rel_err(value, ref_run["calls"][key]))

    out_dir = wl.REFERENCE / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    analytic, ci2_cells = {}, []
    for name, data in seed_run["files"].items():
        (out_dir / name).write_bytes(data)
    for name in seed_run["files"]:
        if name == "gates.csv":
            continue
        seed_rows = {wl.cell_key(name, r): r for r in wl.read_csv(out_dir / name)}
        tmp = out_dir / f".{name}.x{wl.REFERENCE_RULE_SCALE}"
        tmp.write_bytes(ref_run["files"][name])
        for row in wl.read_csv(tmp):
            key = wl.cell_key(name, row)
            if row["analytic"]:
                analytic[key] = float(row["analytic"])
                errors[key] = (wl.cell_row_label(row),
                               wl.rel_err(float(seed_rows[key]["analytic"]), analytic[key]))
        tmp.unlink()
        for key, row in seed_rows.items():
            if row["mc_mean"] and row["metric"].startswith("outage"):
                if float(row["mc_mean"]) * workload.trials >= wl.CI2_MIN_EVENTS:
                    ci2_cells.append(key)

    # Each value may be off its reference by HEADROOM times the error the
    # default rules showed on it, but never by less than HEADROOM times the
    # median error of its row: a default-rule value that happens to sit
    # very close to the reference must not pin a better rule to that luck.
    by_row: dict[str, list[float]] = {}
    for row, err in errors.values():
        by_row.setdefault(row, []).append(err)
    median = {row: statistics.median(errs) for row, errs in by_row.items()}
    tolerance = {key: max(wl.TOLERANCE_HEADROOM * max(err, median[row]), wl.TOLERANCE_FLOOR)
                 for key, (row, err) in sorted(errors.items())}

    reference = {
        "workload": workload.name,
        "seed": wl.REFERENCE_SEED,
        "trials": seed_workload.trials,
        "rule_sizes": {"seed": {f: getattr(base, f) for f in wl.RULE_FIELDS},
                       "reference": {f: getattr(base, f) * wl.REFERENCE_RULE_SCALE
                                     for f in wl.RULE_FIELDS}},
        "tolerance_headroom": wl.TOLERANCE_HEADROOM,
        "seed_rel_err": {row: max(by_row[row]) for row in sorted(by_row)},
        "seed_rel_err_median": dict(sorted(median.items())),
        "tolerance": tolerance,
        "ci2_cells": ci2_cells,
        "analytic": analytic,
        "calls": ref_run["calls"],
    }
    (out_dir / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                            encoding="utf-8")


def main(argv: list[str]) -> int:
    pkg = wl.import_package()
    for name in argv or list(wl.WORKLOADS):
        freeze(pkg, wl.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
