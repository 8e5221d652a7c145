"""The benchmark's four workloads: how each is set up, run and checked.

Every workload drives the package only through public entry points,
``cli.main`` and the public functions of ``analytic`` and ``asymptotic``,
looked up on their module at call time so that the tracer's wrappers see
each call.  A workload is run in three steps: ``setup`` builds the configs
and inputs, ``run`` is the timed pass, and ``check`` compares the pass's
outputs with the frozen reference and counts operations and failures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
REFERENCE = ROOT / "perfbench" / "reference"

# The seed the frozen Monte Carlo outputs were made with (the config
# default); runs on any other seed are checked against them statistically.
REFERENCE_SEED = 123456789
# Reference closed-form values use this multiple of every rule size.
REFERENCE_RULE_SCALE = 4
RULE_FIELDS = ("quad_k", "quad_u", "quad_q", "cheb_n")
# The fields that fix a closed-form value; rule sizes, trial count and
# seed are left out so one key matches at any rule size.
PHYSICS_FIELDS = ("rician_kappa", "amp_lambda", "num_elements", "radius_d",
                  "dist_bs", "beta_r", "beta_t", "a_r", "a_t", "noise_sigma_s2",
                  "noise_sigma_02", "noise_sigma_re2", "path_alpha", "path_eta0",
                  "target_rate_r", "target_rate_t", "pc_watts", "pd_watts",
                  "hyp2f1_z_cap", "mean_noise_mode")
# closed-form and asymptotic evaluators whose every call has a reference
REFERENCED = ("analytic.outage_r", "analytic.outage_t", "analytic.ergodic_rate_r",
              "analytic.ergodic_rate_t",
              "asymptotic.ergodic_bound_r_psic", "asymptotic.outage_floor_r_ipsic",
              "asymptotic.ergodic_asym_r_ipsic", "asymptotic.outage_asym_r_psic",
              "asymptotic.outage_asym_t")
# an analytic value may be off its reference by this multiple of the error
# the seed's own rules showed on it (see make_reference.py): a rule change
# may at most double the error of any value
TOLERANCE_HEADROOM = 2.0
TOLERANCE_FLOOR = 1.0e-10
# Monte Carlo trials per point: the config default (NetworkConfig.mc_trials),
# the count a user of the command line gets
TRIALS = 100_000
# The frozen Monte Carlo cells are run at ten times the trials, so that the
# reference's own error is a third of a run's.  A reference frozen at TRIALS
# is one draw: at the reference seed, five of fig3a's 40 cells sat more than
# 2.5 sigma from the mean of 20 other seeds, and runs failed at those cells
# far more often than the check's nominal rate.
REFERENCE_TRIALS = 10 * TRIALS
# Monte Carlo cells must agree with the frozen cells at the two-sided
# significance of this many standard deviations.  A pass checks up to 105
# cells and a full set of benchmark runs some 4000: at 4 sigma (6.3e-5 a
# check) about one set in five would see a false failure, at 5 sigma
# (5.7e-7 a check) fewer than one in 400.
MC_SIGMAS = 5.0
MC_ALPHA = math.erfc(MC_SIGMAS / math.sqrt(2.0))
# cells expecting at least this many events at TRIALS form the fixed set
# over which mc_ci2_s averages ci95^2
CI2_MIN_EVENTS = 10


class MissingSource(RuntimeError):
    """The checkout holds no package source to benchmark."""


def import_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    init = SRC / "astars_noma" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"no package source at {init.parent}")
    sys.path.insert(0, str(SRC))
    import astars_noma
    import astars_noma.cli  # noqa: F401  (loads every layer)
    if Path(astars_noma.__file__).resolve() != init.resolve():
        raise MissingSource(f"imported {astars_noma.__file__}, expected {init}")
    return astars_noma


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(ref), 1e-300)


def call_key(label: str, args, kwargs=None):
    """Key of a referenced evaluator call: label, SIC mode, power and the
    config's physical parameters; None for any other call."""
    if label not in REFERENCED:
        return None
    kwargs = kwargs or {}
    parts = [label]
    for arg in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        if hasattr(arg, "num_elements"):
            parts.append(",".join(repr(getattr(arg, f, None)) for f in PHYSICS_FIELDS))
        elif hasattr(arg, "value") and isinstance(arg.value, str):
            parts.append(arg.value)
        else:
            parts.append(repr(arg))
    return "|".join(parts)


def row_label(label: str, mode: str | None) -> str:
    return f"{label}.{mode}" if mode else label


@dataclass
class Checked:
    """Outcome of checking one pass: operation counts, the failures, the
    MC cells' ci95 and the closed-form errors against the reference."""

    ops: int = 0
    failures: list[str] = field(default_factory=list)
    mc_ci95: dict[str, float] = field(default_factory=dict)
    rel_err: dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)

    def err(self, row: str, value: float) -> None:
        """Keep the largest error of a row, and of its parent row when the
        row is one SIC mode of an evaluator."""
        rows = [row, row.rsplit(".", 1)[0]] if row.endswith((".psic", ".ipsic")) else [row]
        for r in rows:
            self.rel_err[r] = max(self.rel_err.get(r, 0.0), value)


def check_keyed_calls(keyed, ref: dict, checked: Checked) -> None:
    """Check every keyed evaluator call that a traced pass saw, nested calls
    included: each must have a reference value and lie within its tolerance.
    ``keyed`` yields (label, SIC mode, key, result)."""
    values, tolerance = ref.get("calls", {}), ref.get("tolerance", {})
    for label, mode, key, value in keyed:
        target = values.get(key)
        err = math.inf
        if target is not None and isinstance(value, float) and math.isfinite(value):
            err = rel_err(value, target)
            checked.err(row_label(label, mode), err)
        checked.op(err <= tolerance.get(key, -math.inf),
                   f"traced {key}: {value!r} vs {target!r}")


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / name / "reference.json").read_text(encoding="utf-8"))


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cell_key(file: str, row: dict) -> str:
    return "|".join((file, row["axis_value"], row["metric"], row["mode"], row["scheme"]))


def cell_row_label(row: dict) -> str:
    mode = {"pSIC": "psic", "ipSIC": "ipsic"}.get(row["mode"])
    return row_label(f"analytic.{row['metric']}", mode)


def outage_counts_agree(k1: int, n1: int, k2: int, n2: int) -> bool:
    """Fisher's exact test that k1 events in n1 trials and k2 in n2 come
    from one outage probability: the two-sided p-value, twice the smaller
    tail of k1 given the k1 + k2 events, must reach MC_ALPHA.  It holds
    its false-failure rate at any count; a normal approximation does not
    when one side has few events or none."""
    total, events = n1 + n2, k1 + k2
    if 2 * events > total:  # test the rarer outcome; the test is symmetric
        k1, events = n1 - k1, total - events
    lo, hi = max(0, events - n2), min(events, n1)
    x = np.arange(lo, hi)
    # log pmf of the hypergeometric law of k1, up to a constant, from the
    # ratio of consecutive terms
    log_pmf = np.concatenate(([0.0], np.cumsum(
        np.log((events - x) * (n1 - x)) - np.log((x + 1.0) * (n2 - events + x + 1.0)))))
    pmf = np.exp(log_pmf - log_pmf.max())
    i = k1 - lo
    tail = min(pmf[:i + 1].sum(), pmf[i:].sum()) / pmf.sum()
    return 2.0 * tail >= MC_ALPHA


def mc_cells_agree(run: tuple[float, int], ref: tuple[float, int]) -> bool:
    """Whether two Monte Carlo outage cells (mean, trials) agree.  Every
    Monte Carlo cell the workloads check is an outage probability."""
    (m1, n1), (m2, n2) = run, ref
    return outage_counts_agree(round(m1 * n1), n1, round(m2 * n2), n2)


# ---------------------------------------------------------------------------
# Workloads driven through cli.main
# ---------------------------------------------------------------------------

@dataclass
class CliWorkload:
    name: str
    command: tuple[str, ...]
    trials: int
    workers: int

    def setup(self, pkg, seed: int, tag: str, rule_scale: int = 1) -> dict:
        out = OUT / f"{self.name}-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = ["--out", str(out), "--trials", str(self.trials), "--seed", str(seed),
                "--workers", str(self.workers)]
        if rule_scale != 1:
            base = pkg.model.NetworkConfig()
            cfg_file = out / "rules.cfg"
            cfg_file.write_text("".join(
                f"{f} = {getattr(base, f) * rule_scale}\n" for f in RULE_FIELDS),
                encoding="utf-8")
            argv += ["--config", str(cfg_file)]
        return {"out": out, "argv": argv + list(self.command)}

    def run(self, pkg, state: dict) -> None:
        state["stdout"] = io.StringIO()
        try:
            with contextlib.redirect_stdout(state["stdout"]):
                state["code"] = pkg.cli.main(state["argv"])
        except Exception as exc:  # a raising program is a failed operation
            state["code"] = f"{type(exc).__name__}: {exc}"

    def latencies(self, state: dict) -> None:
        """No evaluator call is timed on its own: cli.main is one call."""
        return None

    def outputs(self, state: dict) -> Path:
        """Directory holding the pass's CSV outputs."""
        return state["out"] / self.command[-1] if self.command[0] == "figure" else state["out"]

    def csv_bytes(self, state: dict) -> int:
        return sum(p.stat().st_size for p in state["out"].rglob("*.csv"))

    def check(self, state: dict, ref: dict) -> Checked:
        checked = Checked()
        checked.op(state.get("code") == 0, f"exit code {state.get('code')!r}")
        if self.command[0] == "validate":
            check_gates(self.outputs(state), REFERENCE / self.name, checked)
        else:
            check_sweep_csvs(self.outputs(state), REFERENCE / self.name, ref, checked)
        return checked

    def cleanup(self, state: dict) -> None:
        shutil.rmtree(state["out"], ignore_errors=True)


def check_sweep_csvs(out: Path, ref_dir: Path, ref: dict, checked: Checked) -> None:
    """Check every cell of the frozen CSVs against the pass's CSVs."""
    tolerance = ref["tolerance"]
    for frozen in sorted(ref_dir.glob("*.csv")):
        path = out / frozen.name
        run_rows = {}
        if path.is_file():
            run_rows = {cell_key(frozen.name, r): r for r in read_csv(path)}
        for row in read_csv(frozen):
            key = cell_key(frozen.name, row)
            got = run_rows.get(key)
            if row["flag"]:
                checked.op(got is not None and got["flag"] == row["flag"], f"{key} flag")
                continue
            if row["analytic"]:
                label = cell_row_label(row)
                value = _finite(got["analytic"]) if got else None
                target = ref["analytic"][key]
                err = math.inf if value is None else rel_err(value, target)
                if value is not None:
                    checked.err(label, err)
                checked.op(err <= tolerance[key], f"{key} analytic rel err {err:.3g}")
            if row["mc_mean"]:
                mean = _finite(got["mc_mean"]) if got else None
                ci = _finite(got["mc_ci95"]) if got else None
                trials = _finite(got["trials"]) if got else None
                ok = None not in (mean, ci, trials) and mc_cells_agree(
                    (mean, int(trials)), (float(row["mc_mean"]), int(row["trials"])))
                if ci is not None:
                    checked.mc_ci95[key] = ci
                checked.op(ok, f"{key} mc {got and got['mc_mean']} vs {row['mc_mean']}")


# validate writes some observed values as numpy reprs, "np.float64(2.0)"
_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def check_gates(out: Path, ref_dir: Path, checked: Checked) -> None:
    """Every frozen gate must be present and pass; so must any new gate."""
    path = out / "gates.csv"
    run_gates = {g["gate"]: g for g in read_csv(path)} if path.is_file() else {}
    frozen = [g["gate"] for g in read_csv(ref_dir / "gates.csv")]
    for name in frozen + sorted(set(run_gates) - set(frozen)):
        gate = run_gates.get(name)
        ok = (gate is not None and gate["verdict"] == "pass"
              and _finite(_NUMPY_REPR.sub(r"\1", gate["observed"])) is not None)
        checked.op(ok, f"gate {name}: {gate and gate['verdict']}")


# ---------------------------------------------------------------------------
# The closed-form grid, driven by the benchmark
# ---------------------------------------------------------------------------

# transmit powers, dBm: the 21-point grid of the budget figures
POWER_GRID_DBM = tuple(2.5 * i for i in range(21))
# the high-SNR window in which the asymptotes are exact power laws
DIVERSITY_WINDOW_DBM = tuple(115.0 + 2.0 * i for i in range(6))


def _dbm(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


@dataclass(frozen=True)
class Call:
    """One evaluator call of the closed-form grid."""

    cfg_name: str
    module: object
    fn: str
    args: tuple

    @property
    def label(self) -> str:
        return f"{self.module.__name__.rsplit('.', 1)[-1]}.{self.fn}"

    @property
    def key(self) -> str:
        return call_key(self.label, self.args)

    @property
    def row(self) -> str:
        mode = getattr(self.args[1], "value", None) if len(self.args) > 2 else None
        return row_label(self.label, mode.lower() if isinstance(mode, str) else None)


@dataclass
class ClosedForms:
    name: str
    trials: int = 0
    workers: int = 1

    def configs(self, pkg, rule_scale: int = 1) -> dict:
        base = pkg.model.NetworkConfig()
        if rule_scale != 1:
            base = replace(base, **{f: getattr(base, f) * rule_scale for f in RULE_FIELDS})
        return {"default": base,
                "a_r0.2": replace(base, a_r=0.2, a_t=0.8),
                "a_r0.2_alpha3": replace(base, a_r=0.2, a_t=0.8, path_alpha=3.0),
                "L4": replace(base, num_elements=4)}

    def setup(self, pkg, seed: int, tag: str, rule_scale: int = 1) -> dict:
        """The call list: each evaluator at each grid power for each config,
        then each config's floor, ceiling and high-SNR asymptote points.
        Nothing here is random, so every seed gives the same calls."""
        an, asy = pkg.analytic, pkg.asymptotic
        psic, ipsic = an.SicMode.PSIC, an.SicMode.IPSIC
        calls = []
        for name, cfg in self.configs(pkg, rule_scale).items():
            for dbm in POWER_GRID_DBM:
                ps = _dbm(dbm)
                calls += [
                    Call(name, an, "outage_r", (cfg, psic, ps)),
                    Call(name, an, "outage_r", (cfg, ipsic, ps)),
                    Call(name, an, "outage_t", (cfg, ps)),
                    Call(name, an, "ergodic_rate_r", (cfg, psic, ps)),
                    Call(name, an, "ergodic_rate_r", (cfg, ipsic, ps)),
                    Call(name, an, "ergodic_rate_t", (cfg, ps)),
                    Call(name, asy, "ergodic_bound_r_psic", (cfg, ps)),
                ]
            calls += [Call(name, asy, "outage_floor_r_ipsic", (cfg,)),
                      Call(name, asy, "ergodic_asym_r_ipsic", (cfg,))]
            for fn in ("outage_asym_r_psic", "outage_asym_t"):
                calls += [Call(name, asy, fn, (cfg, _dbm(dbm))) for dbm in DIVERSITY_WINDOW_DBM]
        return {"calls": calls}

    def run(self, pkg, state: dict) -> None:
        """Time each evaluator call; then fit the diversity slope of each
        config's asymptotes."""
        results = []
        for call in state["calls"]:
            t0 = time.perf_counter()
            try:
                value = getattr(call.module, call.fn)(*call.args)
            except Exception as exc:  # a raising evaluator is a failed operation
                value = f"{type(exc).__name__}: {exc}"
            results.append((value, time.perf_counter() - t0))
        points: dict[str, list] = {}
        for call, (value, _) in zip(state["calls"], results):
            if call.fn.startswith("outage_asym"):
                points.setdefault(f"fit|{call.cfg_name}|{call.fn}", []).append(
                    (call.args[1], value))
        fits = {}
        for key, pts in points.items():
            try:
                fits[key] = pkg.asymptotic.fit_order(pts, "loglog").slope
            except Exception as exc:
                fits[key] = f"{type(exc).__name__}: {exc}"
        state["results"] = results
        state["fits"] = fits

    def latencies(self, state: dict) -> list[float]:
        return [dt for _, dt in state["results"]]

    def check(self, state: dict, ref: dict) -> Checked:
        checked = Checked()
        tolerance, values = ref["tolerance"], ref["calls"]
        outcomes = [(c.key, c.row, value) for c, (value, _) in zip(state["calls"], state["results"])]
        outcomes += [(key, None, slope) for key, slope in state["fits"].items()]
        for key, row, value in outcomes:
            ok_value = isinstance(value, float) and math.isfinite(value)
            err = rel_err(value, values[key]) if ok_value else math.inf
            if ok_value and row:
                checked.err(row, err)
            checked.op(err <= tolerance[key], f"{key}: {value!r} vs {values[key]!r}")
        return checked

    def csv_bytes(self, state: dict) -> int:
        return 0

    def cleanup(self, state: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (
    CliWorkload("fig2a_budget", ("figure", "fig2a"), trials=TRIALS, workers=1),
    CliWorkload("fig3a_elements", ("figure", "fig3a"), trials=TRIALS, workers=1),
    ClosedForms("closed_forms"),
    CliWorkload("validate", ("validate",), trials=TRIALS, workers=2),
)}
