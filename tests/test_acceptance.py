"""Acceptance suite: the eight exit criteria, each printed as one
PASS/FAIL line with the gates behind it.

Criteria 1-7 assert the gates of one `validate` run at the config's trial
count and seed; the gates and their tolerances are defined in
`astars_noma.cli.validate` alone.  CRITERIA maps each criterion to the
gate-name prefixes it owns, and every gate belongs to exactly one
criterion.  Criterion 8 (determinism) reruns `validate` with two workers
and checks that a sweep's CSVs do not depend on the worker count.

Run with `pytest tests/test_acceptance.py -v -s` (or `astars-noma validate`
for the same gates from the command line).
"""

import time
from pathlib import Path
from typing import NamedTuple

import pytest

from astars_noma.cli import SweepSpec, run_sweep, validate
from astars_noma.model import NetworkConfig

CFG = NetworkConfig()

# criterion -> (title, gate-name prefixes)
CRITERIA = {
    1: ("outage agreement", ("agree/outage_",)),
    2: ("diversity orders and ipSIC floor", ("diversity/", "floor/")),
    3: ("ergodic rates and U_t ceiling", ("agree/rate_", "ceiling/")),
    4: ("multiplexing + Jensen", ("multiplexing/", "jensen/")),
    5: ("scheme orderings", ("order/",)),
    6: ("numerics kernel", ("numerics/",)),
    7: ("moment-matching budget", ("cascade_cdf/",)),
}


class Run(NamedTuple):
    code: int
    gates: list
    gates_csv: Path
    seconds: float


@pytest.fixture(scope="module")
def validated(tmp_path_factory) -> Run:
    """One `validate` run at the config's trial count and seed."""
    out = tmp_path_factory.mktemp("validate")
    t0 = time.perf_counter()
    code, gates = validate(CFG, out_dir=out)
    return Run(code, gates, out / "gates.csv", time.perf_counter() - t0)


def report(label: str, passed: bool, lines: list[str]):
    print(f"\nACCEPTANCE {label}: {'PASS' if passed else 'FAIL'}")
    for line in lines:
        print(f"  {line}")
    assert passed, f"{label}: " + "; ".join(lines)


def check_criterion(run: Run, criterion: int):
    title, prefixes = CRITERIA[criterion]
    gates = [g for g in run.gates if g.name.startswith(prefixes)]
    assert gates, f"criterion {criterion} selects no gate"
    report(f"{criterion} ({title})", all(g.passed for g in gates),
           [f"{g.name}  observed={g.observed:.5g}  {g.tolerance}  "
            f"{'pass' if g.passed else 'FAIL'}" for g in gates])


def test_criterion_1_outage_agreement_within_tolerance(validated):
    check_criterion(validated, 1)


def test_criterion_2_diversity_orders(validated):
    check_criterion(validated, 2)


def test_criterion_3_ergodic_rate_agreement_and_ceiling(validated):
    check_criterion(validated, 3)


def test_criterion_4_multiplexing_gains_and_jensen(validated):
    check_criterion(validated, 4)


def test_criterion_5_scheme_orderings(validated):
    check_criterion(validated, 5)


def test_criterion_6_numerics_kernel(validated):
    check_criterion(validated, 6)


def test_criterion_7_cascade_cdf_approximation_budget(validated):
    check_criterion(validated, 7)


def test_every_gate_belongs_to_exactly_one_criterion(validated):
    owners = {g.name: [n for n, (_, prefixes) in CRITERIA.items()
                       if g.name.startswith(prefixes)] for g in validated.gates}
    assert len(owners) == len(validated.gates) == 49
    assert {name: ns for name, ns in owners.items() if len(ns) != 1} == {}


def test_validate_runs_within_a_minute(validated):
    assert validated.seconds < 60.0


def test_criterion_8_determinism(validated, tmp_path):
    code_b, _ = validate(CFG, out_dir=tmp_path / "w2", workers=2)
    same_csv = (validated.gates_csv.read_bytes()
                == (tmp_path / "w2" / "gates.csv").read_bytes())
    spec = SweepSpec(axis="q_tot_dbm", values=(15.0, 25.0), metrics=("outage_r", "rate_t"))
    w1 = run_sweep(CFG, spec, tmp_path / "w1", trials=3 * 8192 + 11, plots=False, workers=1)
    w4 = run_sweep(CFG, spec, tmp_path / "w4", trials=3 * 8192 + 11, plots=False, workers=4)
    same_workers = all(a.read_bytes() == b.read_bytes() for a, b in zip(w1, w4))
    code_a = validated.code
    report("8 (determinism)", code_a == 0 and code_b == 0 and same_csv and same_workers,
           [f"gates.csv byte-identical at 1 and 2 workers: {same_csv}",
            f"sweep worker-count invariance: {same_workers}",
            f"validate exit codes ({code_a}, {code_b})"])
