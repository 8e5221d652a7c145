"""Acceptance suite: the eight exit criteria, each printed as one
PASS/FAIL line and asserted at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` (or `astars-noma validate`
for the CLI flavour of the same gates).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from astars_noma.analytic import SicMode, ergodic_rate_r, ergodic_rate_t, outage_r, outage_t, rate_ceiling_t
from astars_noma.asymptotic import (ergodic_bound_r_psic, fit_order,
                                    outage_asym_r_psic, outage_asym_t,
                                    outage_floor_r_ipsic)
from astars_noma.cli import SweepSpec, _cascade_supnorm, run_sweep, validate
from astars_noma.model import NetworkConfig, dbm_to_watts
from astars_noma.montecarlo import budget_to_ps, simulate
from astars_noma.numerics import bessel_k, gauss_laguerre_rule, reg_lower_gamma

CFG = NetworkConfig()
RATES_CFG = NetworkConfig(a_r=0.2, a_t=0.8)
TRIALS = 100_000


def report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_outage_agreement_within_tolerance():
    t0 = time.time()
    worst = ("", 0.0, 0.0)
    ok = True
    for q_dbm in (10.0, 20.0, 30.0, 40.0):
        ps = budget_to_ps(dbm_to_watts(q_dbm), CFG, active=True)
        sims = simulate(CFG, "astars_noma", ps, trials=TRIALS)
        for metric, value in (
                ("outage_r_psic", outage_r(CFG, SicMode.PSIC, ps)),
                ("outage_r_ipsic", outage_r(CFG, SicMode.IPSIC, ps)),
                ("outage_t", outage_t(CFG, ps))):
            est = sims[metric]
            tol = max(0.02, 3.0 * est.ci95_halfwidth)
            diff = abs(value - est.mean)
            if diff / tol > worst[1] / max(worst[2], 1e-300):
                worst = (f"{metric}@{q_dbm:g}dBm", diff, tol)
            ok &= diff <= tol
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report("1 (outage agreement)", ok,
           f"worst |analytic-mc| {worst[1]:.3g} vs tol {worst[2]:.3g} "
           f"at {worst[0]}; runtime {elapsed:.1f}s < 120s")


def test_criterion_2_diversity_orders():
    t0 = time.time()
    window = np.linspace(115.0, 125.0, 6)  # regularization cap binds here
    lines = []
    ok = True
    for L in (2, 4):
        cfg_l = replace(CFG, num_elements=L)
        for label, fn in (("pSIC U_r", lambda p: outage_asym_r_psic(cfg_l, p)),
                          ("U_t", lambda p: outage_asym_t(cfg_l, p))):
            pts = [(dbm_to_watts(d), fn(dbm_to_watts(d))) for d in window]
            slope = fit_order(pts, "loglog").slope
            ok &= abs(slope - L) <= 0.05 * L
            lines.append(f"{label} L={L}: {slope:.4f}")
    ipsic_pts = [(dbm_to_watts(d), outage_r(CFG, SicMode.IPSIC, dbm_to_watts(d)))
                 for d in np.linspace(50.0, 60.0, 6)]
    ipsic_slope = fit_order(ipsic_pts, "loglog").slope
    ok &= abs(ipsic_slope) <= 0.05
    floor = outage_floor_r_ipsic(CFG)
    limit = outage_r(CFG, SicMode.IPSIC, budget_to_ps(dbm_to_watts(60.0), CFG))
    floor_rel = abs(floor - limit) / limit
    ok &= floor_rel <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report("2 (diversity orders)", ok,
           "; ".join(lines) + f"; ipSIC slope {ipsic_slope:.4f} (|.|<=0.05); "
           f"floor vs limit {floor_rel:.2%} (<=5%); runtime {elapsed:.1f}s < 60s")


def test_criterion_3_ergodic_rate_agreement_and_ceiling():
    worst = 0.0
    ok = True
    for q_dbm in (20.0, 30.0, 40.0):
        ps = budget_to_ps(dbm_to_watts(q_dbm), RATES_CFG, active=True)
        sims = simulate(RATES_CFG, "astars_noma", ps, trials=TRIALS)
        for metric, value in (
                ("rate_r_psic", ergodic_rate_r(RATES_CFG, SicMode.PSIC, ps)),
                ("rate_r_ipsic", ergodic_rate_r(RATES_CFG, SicMode.IPSIC, ps)),
                ("rate_t", ergodic_rate_t(RATES_CFG, ps))):
            rel = abs(value - sims[metric].mean) / sims[metric].mean
            worst = max(worst, rel)
            ok &= rel <= 0.03
    ceiling = rate_ceiling_t(RATES_CFG)
    gap = abs(ergodic_rate_t(RATES_CFG, dbm_to_watts(70.0)) - ceiling)
    ok &= gap <= 1.0e-3
    report("3 (ergodic rates)", ok,
           f"worst analytic-vs-mc {worst:.2%} (<=3%); "
           f"U_t ceiling gap {gap:.2e} vs log2(1+a_t/a_r)={ceiling:.4f} (<=1e-3)")


def test_criterion_4_multiplexing_gains_and_jensen():
    window = np.linspace(50.0, 60.0, 6)
    slopes = {}
    for label, fn, target, tol in (
            ("psic", lambda p: ergodic_rate_r(RATES_CFG, SicMode.PSIC, p), 1.0, 0.05),
            ("ipsic", lambda p: ergodic_rate_r(RATES_CFG, SicMode.IPSIC, p), 0.0, 0.05),
            ("t", lambda p: ergodic_rate_t(RATES_CFG, p), 0.0, 0.05)):
        pts = [(dbm_to_watts(d), fn(dbm_to_watts(d))) for d in window]
        slopes[label] = fit_order(pts, "semilogx").slope
    ok = (abs(slopes["psic"] - 1.0) <= 0.05 and abs(slopes["ipsic"]) <= 0.05
          and abs(slopes["t"]) <= 0.05)
    worst_margin = min(
        ergodic_bound_r_psic(RATES_CFG, dbm_to_watts(d))
        - ergodic_rate_r(RATES_CFG, SicMode.PSIC, dbm_to_watts(d))
        for d in np.linspace(5.0, 50.0, 10))
    ok &= worst_margin >= -1.0e-9
    report("4 (multiplexing + Jensen)", ok,
           f"gains psic={slopes['psic']:.4f} ipsic={slopes['ipsic']:.4f} "
           f"t={slopes['t']:.4f}; Jensen min margin {worst_margin:.3g} >= -1e-9")


def test_criterion_5_scheme_orderings():
    ok = True
    details = []
    for q_dbm in (20.0, 30.0, 40.0, 50.0):
        q = dbm_to_watts(q_dbm)
        ps_act = budget_to_ps(q, CFG, active=True)
        ps_pas = budget_to_ps(q, CFG, active=False)
        noma = simulate(CFG, "astars_noma", ps_act, trials=TRIALS)
        oma = simulate(CFG, "astars_oma", ps_act, trials=TRIALS)
        pst = simulate(CFG, "pstars_noma", ps_pas, trials=TRIALS)
        t_n, t_o = noma["throughput_limited_psic"], oma["throughput_limited"]
        thr_ok = t_n.mean >= t_o.mean - 3.0 * (t_n.ci95_halfwidth + t_o.ci95_halfwidth)
        s_n, s_p = noma["outage_system_psic"], pst["outage_system_psic"]
        out_ok = s_n.mean <= s_p.mean + 3.0 * (s_n.ci95_halfwidth + s_p.ci95_halfwidth)
        ok &= thr_ok and out_ok
        details.append(f"{q_dbm:g}dBm[thr {t_n.mean:.3f}>={t_o.mean:.3f}:"
                       f"{'y' if thr_ok else 'N'}, sysout {s_n.mean:.2e}<="
                       f"{s_p.mean:.2e}:{'y' if out_ok else 'N'}]")
    report("5 (scheme orderings)", ok, " ".join(details))


def test_criterion_6_numerics_kernel():
    worst_moment = 0.0
    for size in (5, 13, 40):
        rule = gauss_laguerre_rule(size)
        for m in range(2 * size):
            est = float(np.sum(rule.weights * rule.nodes ** m))
            worst_moment = max(worst_moment, abs(est - math.factorial(m)) / math.factorial(m))
    worst_gamma = 0.0
    for a in (0.3, 0.7, 1.0, 2.5, 5.0):
        for x in (0.1, 1.0, 2.9, 7.5):
            oracle, _ = integrate.quad(lambda t: t ** (a - 1.0) * math.exp(-t),
                                       0.0, x, epsabs=1e-15, epsrel=1e-13, limit=200)
            worst_gamma = max(worst_gamma,
                              abs(math.gamma(a) * reg_lower_gamma(a, x) - oracle) / oracle)
    worst_bessel = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        for nu, ref in ((0.5, base), (-0.5, base),
                        (1.5, base * (1.0 + 1.0 / x)), (-1.5, base * (1.0 + 1.0 / x))):
            worst_bessel = max(worst_bessel, abs(bessel_k(nu, x) - ref) / ref)
    ok = worst_moment <= 1e-9 and worst_gamma <= 1e-10 and worst_bessel <= 1e-10
    report("6 (numerics kernel)", ok,
           f"Laguerre moments {worst_moment:.2e} (<=1e-9); incomplete gamma vs "
           f"quadrature {worst_gamma:.2e} (<=1e-10); Bessel K half-integer "
           f"{worst_bessel:.2e} (<=1e-10)")


def test_criterion_7_cascade_cdf_approximation_budget():
    worst = ("", 0.0)
    ok = True
    for kappa in (0.0, 10.0 ** -0.5):
        for L in (1, 4, 10):
            dist = _cascade_supnorm(kappa, L, samples=1_000_000, seed=CFG.seed)
            if dist > worst[1]:
                worst = (f"kappa={kappa:.3f},L={L}", dist)
            ok &= dist <= 0.02
    report("7 (moment-matching budget)", ok,
           f"worst sup-norm {worst[1]:.4f} at {worst[0]} (<=0.02, 10^6 samples)")


def test_criterion_8_determinism(tmp_path):
    code_a, _ = validate(CFG, out_dir=tmp_path / "a", trials=20_000)
    code_b, _ = validate(CFG, out_dir=tmp_path / "b", trials=20_000)
    same_csv = ((tmp_path / "a" / "gates.csv").read_bytes()
                == (tmp_path / "b" / "gates.csv").read_bytes())
    spec = SweepSpec(axis="q_tot_dbm", values=(15.0, 25.0), metrics=("outage_r", "rate_t"))
    w1 = run_sweep(CFG, spec, tmp_path / "w1", trials=3 * 8192 + 11, plots=False, workers=1)
    w4 = run_sweep(CFG, spec, tmp_path / "w4", trials=3 * 8192 + 11, plots=False, workers=4)
    same_workers = all(a.read_bytes() == b.read_bytes() for a, b in zip(w1, w4))
    ok = code_a == 0 and code_b == 0 and same_csv and same_workers
    report("8 (determinism)", ok,
           f"repeat-run gates.csv byte-identical: {same_csv}; "
           f"worker-count invariance: {same_workers}; validate exit codes "
           f"({code_a}, {code_b})")
