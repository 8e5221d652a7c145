"""Command-line front end: config ingestion, sweep orchestration,
analytic-vs-simulation validation, and figure-data emission.

Config files are flat UTF-8 ``key = value`` text with ``#`` comments; dB and
dBm keys are converted to linear units once, on load.  Sweeps write one CSV
per metric with the fixed header

    axis_name,axis_value,metric,mode,scheme,analytic,mc_mean,mc_ci95,trials,flag

(floats as shortest round-trip decimals), plus an optional SVG per CSV.
Exit codes: 0 success, 1 config error, 2 validation-gate failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analytic as an
from . import asymptotic as asy
from . import montecarlo as mc
from .analytic import SicMode
from .model import (ConfigError, NetworkConfig, cascade_cdf, db_to_linear,
                    dbm_to_watts, gamma_fit)
from .numerics import bessel_k, gauss_laguerre_rule, reg_lower_gamma
from .svgplot import write_line_plot, write_whole

__all__ = [
    "CSV_HEADER",
    "SweepSpec",
    "figure_ids",
    "main",
    "parse_config",
    "run_sweep",
    "validate",
]

CSV_HEADER = ["axis_name", "axis_value", "metric", "mode", "scheme",
              "analytic", "mc_mean", "mc_ci95", "trials", "flag"]

# config key -> (dataclass field, parser)
_CONFIG_KEYS = {
    "kappa_db": ("rician_kappa", lambda s: db_to_linear(float(s))),
    "lambda": ("amp_lambda", float),
    "num_elements": ("num_elements", int),
    "radius_d": ("radius_d", float),
    "dist_bs": ("dist_bs", float),
    "beta_r": ("beta_r", float),
    "beta_t": ("beta_t", float),
    "a_r": ("a_r", float),
    "a_t": ("a_t", float),
    "sigma_s2_dbm": ("noise_sigma_s2", lambda s: dbm_to_watts(float(s))),
    "sigma_02_dbm": ("noise_sigma_02", lambda s: dbm_to_watts(float(s))),
    "sigma_re2_dbm": ("noise_sigma_re2", lambda s: dbm_to_watts(float(s))),
    "alpha": ("path_alpha", float),
    "eta0_db": ("path_eta0", lambda s: db_to_linear(float(s))),
    "rate_r": ("target_rate_r", float),
    "rate_t": ("target_rate_t", float),
    "quad_k": ("quad_k", int),
    "quad_u": ("quad_u", int),
    "quad_q": ("quad_q", int),
    "mc_trials": ("mc_trials", int),
    "seed": ("seed", int),
    "pc_dbm": ("pc_watts", lambda s: dbm_to_watts(float(s))),
    "pd_dbm": ("pd_watts", lambda s: dbm_to_watts(float(s))),
    "hyp2f1_z_cap": ("hyp2f1_z_cap", float),
    "mean_noise_mode": ("mean_noise_mode", lambda s: _parse_bool(s)),
}


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"boolean key expects true/false, got {s!r}")


def parse_config(path: str | Path) -> NetworkConfig:
    """Load a flat key = value config; absent keys keep their defaults, and
    a key set twice is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    overrides = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key: {key}")
        if key in first_line:
            raise ConfigError(f"{path}: key {key} set on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        field, parser = _CONFIG_KEYS[key]
        try:
            overrides[field] = parser(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})")
    return NetworkConfig(**overrides)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis with explicit values, metrics, SIC modes, schemes.

    axis is one of q_tot_dbm (total power budget, mapped to transmit power
    through the scheme's budget model), ps_dbm (direct transmit power),
    num_elements, amp_lambda, or beta_a_grid (values are (beta_r, a_r)
    pairs with beta_t = 1 - beta_r and a_t = 1 - a_r).  Non-power axes fix
    the operating power via exactly one of fixed_q_tot_dbm and
    fixed_ps_dbm; the power axes take neither.
    """

    axis: str
    values: tuple
    metrics: tuple[str, ...]
    modes: tuple[SicMode, ...] = (SicMode.PSIC,)
    schemes: tuple[str, ...] = ("astars_noma",)
    fixed_q_tot_dbm: float | None = None
    fixed_ps_dbm: float | None = None

    def __post_init__(self):
        if self.axis not in ("q_tot_dbm", "ps_dbm", "num_elements",
                             "amp_lambda", "beta_a_grid"):
            raise ConfigError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep needs a nonempty value grid")
        for name, entries in (("metric", self.metrics), ("SIC mode", self.modes),
                              ("scheme", self.schemes)):
            if not entries:
                raise ConfigError(f"sweep needs at least one {name}")
            repeated = sorted({getattr(e, "value", e) for e in entries
                               if entries.count(e) > 1})
            if repeated:
                raise ConfigError(f"sweep lists {name} {', '.join(repeated)} more than once")
        for m in self.metrics:
            if m not in mc.METRICS:
                raise ConfigError(f"unknown metric {m!r}")
        for s in self.schemes:
            if s not in mc.SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.axis == "num_elements":
            fractional = [v for v in self.values if not float(v).is_integer()]
            if fractional:
                raise ConfigError(f"num_elements takes whole numbers, got "
                                  f"{', '.join(map(repr, fractional))}")
        fixed = [name for name in ("fixed_q_tot_dbm", "fixed_ps_dbm")
                 if getattr(self, name) is not None]
        if self.axis in ("q_tot_dbm", "ps_dbm") and fixed:
            raise ConfigError(f"axis {self.axis} sets the power; {fixed[0]} would be ignored")
        if len(fixed) > 1:
            raise ConfigError("set one of fixed_q_tot_dbm and fixed_ps_dbm, not both")
        if self.axis in ("num_elements", "amp_lambda", "beta_a_grid") and not fixed:
            raise ConfigError(f"axis {self.axis} needs fixed_q_tot_dbm or fixed_ps_dbm")


def _point_config(cfg: NetworkConfig, spec: SweepSpec, value) -> NetworkConfig:
    if spec.axis == "num_elements":
        return replace(cfg, num_elements=int(value))
    if spec.axis == "amp_lambda":
        return replace(cfg, amp_lambda=float(value))
    if spec.axis == "beta_a_grid":
        beta_r, a_r = value
        return replace(cfg, beta_r=float(beta_r), beta_t=1.0 - float(beta_r),
                       a_r=float(a_r), a_t=1.0 - float(a_r))
    return cfg


def _point_power(cfg_pt: NetworkConfig, spec: SweepSpec, value, scheme: str) -> float:
    active = scheme != "pstars_noma"
    if spec.axis == "q_tot_dbm":
        return mc.budget_to_ps(dbm_to_watts(float(value)), cfg_pt, active=active)
    if spec.axis == "ps_dbm":
        return dbm_to_watts(float(value))
    if spec.fixed_ps_dbm is not None:
        return dbm_to_watts(spec.fixed_ps_dbm)
    return mc.budget_to_ps(dbm_to_watts(spec.fixed_q_tot_dbm), cfg_pt, active=active)


_ANALYTIC_FNS = {
    "outage_r": lambda cfg, m, ps: an.outage_r(cfg, m, ps),
    "outage_t": lambda cfg, m, ps: an.outage_t(cfg, ps),
    "outage_system": lambda cfg, m, ps: an.system_outage(cfg, m, ps),
    "rate_r": lambda cfg, m, ps: an.ergodic_rate_r(cfg, m, ps),
    "rate_t": lambda cfg, m, ps: an.ergodic_rate_t(cfg, ps),
    "throughput_limited": lambda cfg, m, ps: an.throughput_delay_limited(cfg, m, ps),
    "throughput_tolerant": lambda cfg, m, ps: an.throughput_delay_tolerant(cfg, m, ps),
}


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _check_cell(metric: str, value: float | None):
    if value is None:
        return
    if not math.isfinite(value):
        raise an.NumericIntegrityError(f"{metric} cell not finite: {value}")
    if metric.startswith("outage") and not -1e-9 <= value <= 1.0 + 1e-9:
        raise an.NumericIntegrityError(f"{metric} cell escaped [0,1]: {value}")
    if not metric.startswith("outage") and value < -1e-9:
        raise an.NumericIntegrityError(f"{metric} cell negative: {value}")


def _estimate_key(metric: str, mode: SicMode) -> str:
    """simulate's estimate key of a metric at a SIC mode (outage_r_psic);
    the mode-free metrics' keys are their names."""
    return metric if metric in mc.MODE_FREE_METRICS else f"{metric}_{mode.value.lower()}"


def run_sweep(cfg: NetworkConfig, spec: SweepSpec, out_dir: str | Path,
              trials: int | None = None, seed: int | None = None,
              plots: bool = True, workers: int = 1,
              stem: str = "sweep") -> list[Path]:
    """Evaluate the sweep and write one CSV (and optional SVG) per metric.

    Every row carries the analytic value (main scheme only; the baselines
    have no closed forms in scope) and the Monte Carlo estimate with its
    confidence half-width.  Infeasible budget points are kept as flagged
    rows with empty value cells.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = cfg.mc_trials if trials is None else int(trials)
    seed = cfg.seed if seed is None else int(seed)

    # one simulate call for the whole sweep: each (point config, scheme) is
    # one point of it, with its powers, and every point reads the same draw
    cells = []
    powers_by_group: dict[tuple[NetworkConfig, str], list[float]] = {}
    for value in spec.values:
        cfg_pt = _point_config(cfg, spec, value)
        for scheme in spec.schemes:
            try:
                ps = _point_power(cfg_pt, spec, value, scheme)
            except ConfigError:
                ps = None
            else:
                powers_by_group.setdefault((cfg_pt, scheme), []).append(ps)
            cells.append((value, cfg_pt, scheme, ps))
    points = [(*group, powers) for group, powers in powers_by_group.items()]
    # the estimate keys the rows read: each metric at each of the sweep's
    # SIC modes (astars_oma reads a key as its bare family)
    keys = tuple(dict.fromkeys(_estimate_key(metric, mode) for metric in spec.metrics
                               for mode in spec.modes))
    sims = (mc.simulate(points, trials=trials, seed=seed, workers=workers, metrics=keys)
            if points else [])
    # each group's estimates come back in the order its cells were listed
    sims_by_group = {group: iter(group_sims)
                     for group, group_sims in zip(powers_by_group, sims)}

    rows_by_metric: dict[str, list[list[str]]] = {m: [] for m in spec.metrics}
    for value, cfg_pt, scheme, ps in cells:
        axis_label = (f"{value[0]:g};{value[1]:g}" if spec.axis == "beta_a_grid"
                      else repr(float(value)))
        sims = None if ps is None else next(sims_by_group[cfg_pt, scheme])
        for metric in spec.metrics:
            # the transmission user's metrics and OMA's have no SIC mode
            mode_free = metric in mc.MODE_FREE_METRICS or scheme == "astars_oma"
            for mode in (SicMode.PSIC,) if mode_free else spec.modes:
                mode_label = "-" if mode_free else mode.value
                analytic_val = None
                mc_mean = mc_ci = None
                if sims is not None:
                    if scheme == "astars_noma":
                        analytic_val = _ANALYTIC_FNS[metric](cfg_pt, mode, ps)
                    est = sims[metric if mode_free else _estimate_key(metric, mode)]
                    mc_mean, mc_ci = est.mean, est.ci95_halfwidth
                    _check_cell(metric, analytic_val)
                    _check_cell(metric, mc_mean)
                rows_by_metric[metric].append([
                    spec.axis, axis_label, metric, mode_label, scheme,
                    _fmt(analytic_val), _fmt(mc_mean), _fmt(mc_ci),
                    str(trials) if sims is not None else "",
                    "" if sims is not None else "infeasible_budget",
                ])

    written: list[Path] = []
    for metric, rows in rows_by_metric.items():
        path = out_dir / f"{stem}_{metric}.csv"
        _write_csv(path, CSV_HEADER, rows)
        written.append(path)
        if plots and spec.axis != "beta_a_grid":
            written.append(_plot_metric(path, metric, spec, rows))
    return written


def _write_csv(path: Path, header, rows) -> None:
    """Write a CSV whole or not at all (``write_whole``)."""
    write_whole(path, lambda fh: csv.writer(fh, lineterminator="\n").writerows([header, *rows]))


def _plot_metric(csv_path: Path, metric: str, spec: SweepSpec, rows: list[list[str]]) -> Path:
    """The SVG beside a metric's CSV, from the CSV's rows: one series per
    (scheme, mode) and value column, over the rows that carry a value."""
    series: dict[str, tuple[list[float], list[float]]] = {}
    for _, axis_value, _, mode, scheme, analytic, mc_mean, _, _, flag in rows:
        if flag:
            continue
        for value, tag in ((analytic, "analytic"), (mc_mean, "mc")):
            if value:
                xs, ys = series.setdefault(f"{scheme}/{mode}/{tag}", ([], []))
                xs.append(float(axis_value))
                ys.append(float(value))
    logy = metric.startswith("outage")
    return write_line_plot(
        csv_path.with_suffix(".svg"), title=f"{metric} vs {spec.axis}",
        xlabel=spec.axis, ylabel=metric,
        series=[(label, xs, ys) for label, (xs, ys) in sorted(series.items())],
        logy=logy)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _grid(start=0.0, stop=50.0, step=2.5) -> tuple[float, ...]:
    """start, start + step, ... to the point nearest stop; empty when stop
    lies below start by more than half a step."""
    n = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(n))


def _figure_presets(cfg: NetworkConfig) -> dict[str, list[tuple[str, NetworkConfig, SweepSpec]]]:
    """Preset sweeps keyed by figure id.  Source axis ranges are not
    machine-readable, so the grids below are labeled approximations."""
    both = (SicMode.PSIC, SicMode.IPSIC)
    budget = _grid()
    rates_cfg = replace(cfg, a_r=0.2, a_t=0.8)
    presets: dict[str, list[tuple[str, NetworkConfig, SweepSpec]]] = {
        "fig2a": [("", cfg, SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("outage_r", "outage_t"),
            modes=both, schemes=("astars_noma", "astars_oma")))],
        "fig2b": [(f"L{L}", replace(cfg, num_elements=L), SweepSpec(
            axis="ps_dbm", values=_grid(0, 40, 2.5),
            metrics=("outage_r", "outage_t"), modes=(SicMode.PSIC,)))
            for L in (3, 6, 9)],
        "fig3a": [("", replace(cfg, amp_lambda=10.0,
                               noise_sigma_s2=dbm_to_watts(-30.0)), SweepSpec(
            axis="num_elements", values=tuple(range(2, 41, 2)),
            metrics=("outage_r", "outage_t"), modes=(SicMode.PSIC,),
            fixed_q_tot_dbm=20.0))],
        "fig3b": [("", cfg, SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("outage_system",),
            modes=both, schemes=("astars_noma", "pstars_noma")))],
        "fig4a": [("", cfg, SweepSpec(
            axis="beta_a_grid",
            values=tuple((round(b, 2), round(a, 2))
                         for b in np.arange(0.1, 0.95, 0.1)
                         for a in np.arange(0.1, 0.55, 0.1)),
            metrics=("outage_system",), modes=(SicMode.PSIC,),
            fixed_ps_dbm=20.0))],
        "fig4b": [(f"D{int(D)}", replace(cfg, radius_d=D,
                                         noise_sigma_s2=dbm_to_watts(-50.0)), SweepSpec(
            axis="amp_lambda", values=tuple(float(x) for x in np.arange(1.5, 20.5, 1.0)),
            metrics=("outage_system",), modes=(SicMode.PSIC,),
            fixed_ps_dbm=25.0))
            for D in (35.0, 20.0)],
        "fig5a": [("", rates_cfg, SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("rate_r", "rate_t"),
            modes=both, schemes=("astars_noma", "pstars_noma")))],
        "fig5b": [("", rates_cfg, SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("rate_r", "rate_t"),
            modes=both, schemes=("astars_noma", "astars_oma")))],
        "fig6a": [(f"alpha{str(a).replace('.', 'p')}",
                   replace(rates_cfg, path_alpha=a), SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("rate_r", "rate_t"),
            modes=both))
            for a in (2.0, 2.5, 3.0)],
        "fig8a": [("", cfg, SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("throughput_limited",),
            modes=both, schemes=("astars_noma", "astars_oma")))],
        "fig8b": [("", replace(rates_cfg, path_alpha=2.3), SweepSpec(
            axis="q_tot_dbm", values=budget, metrics=("throughput_tolerant",),
            modes=both, schemes=("astars_noma", "astars_oma")))],
    }
    return presets


def figure_ids() -> tuple[str, ...]:
    return tuple(sorted(_figure_presets(NetworkConfig())))


# ---------------------------------------------------------------------------
# Validation gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateResult:
    name: str
    observed: float
    tolerance: str
    passed: bool


def validate(cfg: NetworkConfig, out_dir: str | Path | None = None,
             trials: int | None = None, seed: int | None = None,
             workers: int = 1) -> tuple[int, list[GateResult]]:
    """Run the full analytic-vs-simulation agreement suite and slope fits.

    Returns (exit_code, gate rows); exit code 0 iff every gate passed.
    A gates.csv report is written when out_dir is given.
    """
    trials = cfg.mc_trials if trials is None else int(trials)
    seed = cfg.seed if seed is None else int(seed)
    gates: list[GateResult] = []

    def gate(name: str, observed: float, tolerance: str, passed: bool):
        gates.append(GateResult(name, observed, tolerance, bool(passed)))

    rates_cfg = replace(cfg, a_r=0.2, a_t=0.8)
    outage_dbms = (10.0, 20.0, 30.0, 40.0)
    rate_dbms = (20.0, 30.0, 40.0)
    order_dbms = (20.0, 30.0, 40.0, 50.0)
    # BS powers by budget in dBm, solved once per (config, surface kind) and
    # read by the gates too; one simulate call, one point per (config, scheme)
    ps_active = {q: mc.budget_to_ps(dbm_to_watts(q), cfg) for q in (*outage_dbms, *order_dbms)}
    ps_rates = {q: mc.budget_to_ps(dbm_to_watts(q), rates_cfg) for q in rate_dbms}
    ps_passive = {q: mc.budget_to_ps(dbm_to_watts(q), cfg, active=False) for q in order_dbms}
    # each with the estimate keys its gates read
    groups = ((cfg, "astars_noma", ps_active,
               ("outage_r", "outage_t", "outage_system_psic", "throughput_limited_psic")),
              (rates_cfg, "astars_noma", ps_rates, ("rate_r", "rate_t")),
              (cfg, "astars_oma", {q: ps_active[q] for q in order_dbms},
               ("throughput_limited",)),
              (cfg, "pstars_noma", ps_passive, ("outage_system_psic",)))
    sims = mc.simulate([(cfg_s, scheme, list(by_dbm.values()), families)
                        for cfg_s, scheme, by_dbm, families in groups],
                       trials=trials, seed=seed, workers=workers)
    noma, noma_rates, oma, pst = (dict(zip(by_dbm, group_sims))
                                  for (_, _, by_dbm, _), group_sims in zip(groups, sims))

    # 1. outage agreement
    for q_dbm in outage_dbms:
        ps = ps_active[q_dbm]
        sims = noma[q_dbm]
        for metric, value in (
                ("outage_r_psic", an.outage_r(cfg, SicMode.PSIC, ps)),
                ("outage_r_ipsic", an.outage_r(cfg, SicMode.IPSIC, ps)),
                ("outage_t", an.outage_t(cfg, ps))):
            est = sims[metric]
            tol = max(0.02, 3.0 * est.ci95_halfwidth)
            diff = abs(value - est.mean)
            gate(f"agree/{metric}@{q_dbm:g}dBm", diff,
                 f"<= max(0.02, 3ci)={tol:.3g}", diff <= tol)

    # 2. diversity orders, in the deep asymptotic regime: the hypergeometric
    # regularization cap binds for every distance node, so the asymptote is
    # an exact power law
    diversity_dbs = np.linspace(115.0, 125.0, 6)
    for L in (2, 4):
        cfg_l = replace(cfg, num_elements=L)
        for label, fn in (("outage_r_psic", lambda p: asy.outage_asym_r_psic(cfg_l, p)),
                          ("outage_t", lambda p: asy.outage_asym_t(cfg_l, p))):
            pts = [(dbm_to_watts(d), fn(dbm_to_watts(d))) for d in diversity_dbs]
            slope = asy.fit_order(pts, "loglog").slope
            gate(f"diversity/{label}/L{L}", slope, f"== {L} +- 5%",
                 abs(slope - L) <= 0.05 * L)
    ipsic_pts = [(dbm_to_watts(d), an.outage_r(cfg, SicMode.IPSIC, dbm_to_watts(d)))
                 for d in np.linspace(50.0, 60.0, 6)]
    slope = asy.fit_order(ipsic_pts, "loglog").slope
    gate("diversity/outage_r_ipsic", slope, "== 0 +- 0.05", abs(slope) <= 0.05)
    floor = asy.outage_floor_r_ipsic(cfg)
    limit = an.outage_r(cfg, SicMode.IPSIC, mc.budget_to_ps(dbm_to_watts(60.0), cfg))
    rel = abs(floor - limit) / limit
    gate("floor/outage_r_ipsic", rel, "<= 5% of ipSIC@60dBm", rel <= 0.05)

    # 3. ergodic-rate agreement
    for q_dbm in rate_dbms:
        ps = ps_rates[q_dbm]
        sims = noma_rates[q_dbm]
        for metric, value in (
                ("rate_r_psic", an.ergodic_rate_r(rates_cfg, SicMode.PSIC, ps)),
                ("rate_r_ipsic", an.ergodic_rate_r(rates_cfg, SicMode.IPSIC, ps)),
                ("rate_t", an.ergodic_rate_t(rates_cfg, ps))):
            est = sims[metric]
            rel = abs(value - est.mean) / est.mean
            gate(f"agree/{metric}@{q_dbm:g}dBm", rel, "<= 3% rel", rel <= 0.03)
    ceiling = an.rate_ceiling_t(rates_cfg)
    high = an.ergodic_rate_t(rates_cfg, dbm_to_watts(70.0))
    gate("ceiling/rate_t", abs(high - ceiling), "<= 1e-3",
         abs(high - ceiling) <= 1.0e-3)

    # 4. multiplexing gains + Jensen dominance
    mux_dbs = np.linspace(50.0, 60.0, 6)
    for label, fn, target, tol in (
            ("rate_r_psic", lambda p: an.ergodic_rate_r(rates_cfg, SicMode.PSIC, p), 1.0, 0.05),
            ("rate_r_ipsic", lambda p: an.ergodic_rate_r(rates_cfg, SicMode.IPSIC, p), 0.0, 0.05),
            ("rate_t", lambda p: an.ergodic_rate_t(rates_cfg, p), 0.0, 0.05)):
        pts = [(dbm_to_watts(d), fn(dbm_to_watts(d))) for d in mux_dbs]
        slope = asy.fit_order(pts, "semilogx").slope
        gate(f"multiplexing/{label}", slope, f"== {target} +- {tol}",
             abs(slope - target) <= tol)
    worst_margin = math.inf
    for q_dbm in np.linspace(5.0, 50.0, 10):
        ps = dbm_to_watts(q_dbm)
        margin = (asy.ergodic_bound_r_psic(rates_cfg, ps)
                  - an.ergodic_rate_r(rates_cfg, SicMode.PSIC, ps))
        worst_margin = min(worst_margin, margin)
    gate("jensen/dominates", worst_margin, ">= -1e-9", worst_margin >= -1.0e-9)

    # 5. scheme orderings (CI-aware)
    for q_dbm in order_dbms:
        t_n = noma[q_dbm]["throughput_limited_psic"]
        t_o = oma[q_dbm]["throughput_limited"]
        slack = 3.0 * (t_n.ci95_halfwidth + t_o.ci95_halfwidth)
        gate(f"order/throughput_noma_vs_oma@{q_dbm:g}dBm", t_n.mean - t_o.mean,
             f">= -3ci={-slack:.3g}", t_n.mean - t_o.mean >= -slack)
        s_n = noma[q_dbm]["outage_system_psic"]
        s_p = pst[q_dbm]["outage_system_psic"]
        slack = 3.0 * (s_n.ci95_halfwidth + s_p.ci95_halfwidth)
        gate(f"order/sysout_astars_vs_pstars@{q_dbm:g}dBm", s_p.mean - s_n.mean,
             f">= -3ci={-slack:.3g}", s_p.mean - s_n.mean >= -slack)

    # 6. numerics spot checks
    rule = gauss_laguerre_rule(20)
    worst = max(abs(float(np.sum(rule.weights * rule.nodes ** m)) - math.factorial(m))
                / math.factorial(m) for m in range(0, 40))
    gate("numerics/laguerre_moments_K20", worst, "<= 1e-9 rel", worst <= 1.0e-9)
    err = abs(math.gamma(2.5) * reg_lower_gamma(2.5, 3.0) - 0.9222712123078349)
    gate("numerics/incomplete_gamma", err, "<= 1e-10", err <= 1.0e-10)
    half = abs(bessel_k(0.5, 2.0) - math.sqrt(math.pi / 4.0) * math.exp(-2.0))
    gate("numerics/bessel_k_half", half, "<= 1e-10", half <= 1.0e-10)

    # 7. cascade-CDF approximation budget
    kappas, lengths = (0.0, cfg.rician_kappa), (1, 4, 10)
    supnorms = _cascade_supnorms(kappas, lengths, samples=1_000_000, seed=seed,
                                 workers=workers)
    for kappa in kappas:
        for L in lengths:
            dist = supnorms[kappa, L]
            gate(f"cascade_cdf/kappa{kappa:.3f}/L{L}", dist, "<= 0.02 sup-norm",
                 dist <= 0.02)

    all_pass = all(g.passed for g in gates)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "gates.csv", ["gate", "observed", "tolerance", "verdict"],
                   [[g.name, _fmt(g.observed), g.tolerance, "pass" if g.passed else "FAIL"]
                    for g in gates])
    return (0 if all_pass else 2), gates


def _cascade_supnorms(kappas, lengths, samples: int, seed: int, workers: int = 1) -> dict:
    """Sup-norm distance between the fitted CDF of the squared cascade gain
    and its empirical distribution, on a 50-point quantile grid, for each
    (kappa, L).  The gains are the simulator's own: its h_s and h_r rows at
    the seed, each block read in one pass to the largest L, every smaller L
    a prefix of it.  The blocks fill their own slices of the gain arrays on
    the worker pool; each array is then sorted in place, on the same pool,
    and its order statistics read off the grid, so the result is the same
    whatever the worker count."""
    gains = {(kappa, L): np.empty(samples) for kappa in kappas for L in lengths}
    starts = range(0, samples, mc.BLOCK_TRIALS)

    def fill(block: int) -> None:
        start = starts[block]
        size = min(mc.BLOCK_TRIALS, samples - start)
        sums = mc._element_sums(seed, block, size, kappas, ("h_r",), noise=False)
        for L, at_l in zip(range(1, max(lengths) + 1), sums):
            if L in lengths:
                for kappa in kappas:
                    np.square(at_l[kappa][0]["h_r"], out=gains[kappa, L][start:start + size])

    grid_idx = np.linspace(0, samples - 1, 50).astype(int)
    emp = (grid_idx + 1) / samples

    def supnorm(key: tuple[float, int]) -> float:
        g = gains[key]
        g.sort()
        return float(np.max(np.abs(cascade_cdf(gamma_fit(*key), g[grid_idx]) - emp)))

    mc._map_blocks(fill, range(len(starts)), workers)
    return dict(zip(gains, mc._map_blocks(supnorm, list(gains), workers)))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(args) -> NetworkConfig:
    cfg = parse_config(args.config) if args.config else NetworkConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _resolve_trials(args, cfg: NetworkConfig) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    trials = args.trials if args.trials is not None else cfg.mc_trials
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    if args.paper_scale:
        trials = max(trials, 1_000_000)
    return trials


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astars-noma",
        description="Performance analysis of an active transmit/reflect "
                    "surface NOMA downlink: closed forms vs Monte Carlo.")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte Carlo trials per point (default: config)")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--paper-scale", action="store_true",
                        help="raise trials to at least 10^6")
    parser.add_argument("--no-plots", action="store_true", help="skip SVG plots")
    parser.add_argument("--workers", type=int, default=1,
                        help="threads for Monte Carlo blocks and validate's cascade check")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run one sweep and emit CSVs")
    sweep.add_argument("--axis", default="q_tot_dbm",
                       choices=["q_tot_dbm", "ps_dbm", "num_elements", "amp_lambda"])
    sweep.add_argument("--start", type=float, default=0.0)
    sweep.add_argument("--stop", type=float, default=50.0)
    sweep.add_argument("--step", type=float, default=2.5)
    sweep.add_argument("--metrics", default="outage_r,outage_t",
                       help="comma-separated metric list")
    sweep.add_argument("--modes", default="pSIC,ipSIC")
    sweep.add_argument("--schemes", default="astars_noma")
    sweep.add_argument("--fixed-q-tot-dbm", type=float, default=None)
    sweep.add_argument("--fixed-ps-dbm", type=float, default=None)

    sub.add_parser("validate", help="run all agreement/slope gates")

    fig = sub.add_parser("figure", help="emit data for a preset figure")
    fig.add_argument("id", help=f"one of {', '.join(figure_ids())}")

    sub.add_parser("show-config", help="print the effective configuration")
    return parser


def _cmd_sweep(args, cfg: NetworkConfig, trials: int, plots: bool) -> int:
    for option in ("start", "stop", "step", "fixed_q_tot_dbm", "fixed_ps_dbm"):
        value = getattr(args, option)
        if value is not None and not math.isfinite(value):
            raise ConfigError(
                f"sweep --{option.replace('_', '-')} must be finite, got {value}")
    if args.step <= 0.0:
        raise ConfigError("sweep step must be positive")
    values = _grid(args.start, args.stop, args.step)
    if not values:
        raise ConfigError("empty sweep grid")
    try:
        modes = tuple(SicMode(m.strip()) for m in args.modes.split(",") if m.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep --modes takes pSIC and ipSIC ({exc})") from None
    spec = SweepSpec(
        axis=args.axis, values=values,
        metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
        modes=modes,
        schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
        fixed_q_tot_dbm=args.fixed_q_tot_dbm, fixed_ps_dbm=args.fixed_ps_dbm)
    paths = run_sweep(cfg, spec, args.out, trials=trials, seed=cfg.seed,
                      plots=plots, workers=args.workers)
    for p in paths:
        print(p)
    return 0


def _cmd_validate(args, cfg: NetworkConfig, trials: int) -> int:
    code, gates = validate(cfg, out_dir=args.out, trials=trials,
                           seed=cfg.seed, workers=args.workers)
    width = max(len(g.name) for g in gates)
    for g in gates:
        print(f"{g.name:<{width}}  observed={g.observed:<12.5g} "
              f"{g.tolerance:<28} {'pass' if g.passed else 'FAIL'}")
    n_fail = sum(not g.passed for g in gates)
    print(f"{len(gates) - n_fail}/{len(gates)} gates passed")
    return code


def _cmd_figure(args, cfg: NetworkConfig, trials: int, plots: bool) -> int:
    presets = _figure_presets(cfg)
    if args.id not in presets:
        raise ConfigError(f"unknown figure id {args.id!r}; "
                          f"available: {', '.join(sorted(presets))}")
    out = Path(args.out) / args.id
    for suffix, cfg_run, spec in presets[args.id]:
        stem = args.id if not suffix else f"{args.id}_{suffix}"
        for p in run_sweep(cfg_run, spec, out, trials=trials, seed=cfg.seed,
                           plots=plots, workers=args.workers, stem=stem):
            print(p)
    return 0


def _cmd_show_config(cfg: NetworkConfig) -> int:
    for field in cfg.__dataclass_fields__:
        print(f"{field} = {getattr(cfg, field)!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        trials = _resolve_trials(args, cfg)
        plots = not args.no_plots
        if args.command == "sweep":
            return _cmd_sweep(args, cfg, trials, plots)
        if args.command == "validate":
            return _cmd_validate(args, cfg, trials)
        if args.command == "figure":
            return _cmd_figure(args, cfg, trials, plots)
        if args.command == "show-config":
            return _cmd_show_config(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except an.NumericIntegrityError as exc:
        print(f"numeric integrity failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
