"""Closed-form evaluator tests.

The heavy guards here are the independent adaptive integrations of each
defining probability/rate integral (scipy.integrate against the quadrature
sums, 1e-6 relative at three powers), which isolate transcription errors
from quadrature-size effects.  Quadrature convergence is gated separately
by the size-doubling test.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from astars_noma import analytic
from astars_noma.analytic import (NumericIntegrityError, SicMode, _amplitude_rule,
                                  _distance_rule, _noise_bracket, _user_outage, ergodic_rate_r,
                                  ergodic_rate_t, outage_r,
                                  outage_t, rate_ceiling_t, system_outage,
                                  target_sinr, throughput_delay_limited,
                                  throughput_delay_tolerant)
from astars_noma.asymptotic import (ergodic_asym_r_ipsic, ergodic_bound_r_psic,
                                    outage_asym_r_psic, outage_asym_t)
from astars_noma.model import (NetworkConfig, db_to_linear, dbm_to_watts, decode_stages,
                               gamma_fit, noise_power_factor)
from astars_noma.montecarlo import budget_to_ps, simulate
from astars_noma.numerics import (QuadratureRule, exp_e1, gauss_laguerre_rule,
                                  reg_lower_gamma)

CFG = NetworkConfig()
RATES_CFG = NetworkConfig(a_r=0.2, a_t=0.8)
# large rules for the transcription cross-checks (quadrature error well
# below the 1e-6 agreement bar)
HI = dict(quad_u=2000, quad_k=500, quad_q=500)
# strong line of sight: Gamma shape p ~ 1005 at L = 10
KAPPA_20DB = db_to_linear(20.0)
SWEEP_DBM = np.linspace(2.0, 40.0, 20)


def _gl_distance(cfg, n=256):
    x, w = leggauss(n)
    return 0.5 * cfg.radius_d * (x + 1.0), 0.5 * cfg.radius_d * w


def test_target_sinr():
    assert target_sinr(1.0) == 1.0
    assert target_sinr(2.0) == 3.0
    assert target_sinr(0.0) == 0.0


# ---------------------------------------------------------------------------
# degenerate allocation branch
# ---------------------------------------------------------------------------

def test_sure_outage_when_allocation_cannot_meet_target():
    # a_t = 0.7 < gamma_t_hat * a_r = 3 * 0.3
    cfg = replace(CFG, target_rate_t=2.0)
    assert outage_r(cfg, SicMode.PSIC, 1.0) == 1.0
    assert outage_r(cfg, SicMode.IPSIC, 1.0) == 1.0
    assert outage_t(cfg, 1.0) == 1.0
    assert system_outage(cfg, SicMode.PSIC, 1.0) == 1.0


def test_zero_targets_never_outage():
    # the closed-form mirror of the simulator's zero-target test: a zero
    # target makes every stage's gain infinite and its threshold 0
    cfg = replace(CFG, target_rate_r=0.0, target_rate_t=0.0)
    for dbm in (0.0, 30.0, 120.0):
        ps = dbm_to_watts(dbm)
        assert outage_r(cfg, SicMode.PSIC, ps) == 0.0
        assert outage_r(cfg, SicMode.IPSIC, ps) == 0.0
        assert outage_t(cfg, ps) == 0.0
        assert outage_asym_r_psic(cfg, ps) == 0.0
        assert outage_asym_t(cfg, ps) == 0.0


def test_outage_r_first_sic_stage_threshold_dominates():
    # at target_rate_t = 1.5 decoding U_t's signal needs an SNR of 12.1 and
    # U_r's own signal 3.33, so the first SIC stage sets the outage (the
    # own-signal threshold alone gives 0.018); mean-noise Monte Carlo
    # differs from the closed form only by the Gamma fit of the cascade
    cfg = replace(CFG, target_rate_t=1.5, mean_noise_mode=True)
    ps = dbm_to_watts(20.0)
    sims = simulate(cfg, "astars_noma", ps, trials=20_000)
    for mode, key in ((SicMode.PSIC, "outage_r_psic"), (SicMode.IPSIC, "outage_r_ipsic")):
        est = sims[key]
        assert outage_r(cfg, mode, ps) == pytest.approx(
            est.mean, abs=max(0.02, 3.0 * est.ci95_halfwidth)), mode


def test_outage_approaches_one_at_vanishing_power():
    for fn in (lambda p: outage_r(CFG, SicMode.PSIC, p),
               lambda p: outage_r(CFG, SicMode.IPSIC, p),
               lambda p: outage_t(CFG, p)):
        val = fn(1e-9)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert val <= 1.0


def test_positive_power_required():
    for ps in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for fn in (lambda: outage_r(CFG, SicMode.PSIC, ps),
                   lambda: outage_r(CFG, SicMode.IPSIC, ps),
                   lambda: outage_t(CFG, ps),
                   lambda: ergodic_rate_r(CFG, SicMode.PSIC, ps),
                   lambda: ergodic_rate_r(CFG, SicMode.IPSIC, ps),
                   lambda: ergodic_rate_t(CFG, ps),
                   lambda: outage_asym_r_psic(CFG, ps),
                   lambda: outage_asym_t(CFG, ps),
                   lambda: ergodic_bound_r_psic(CFG, ps)):
            with pytest.raises(ValueError):
                fn()


# ---------------------------------------------------------------------------
# range, ordering, monotonicity over the power sweep
# ---------------------------------------------------------------------------

def test_probabilities_within_unit_interval_on_sweep():
    for dbm in SWEEP_DBM:
        ps = dbm_to_watts(dbm)
        for val in (outage_r(CFG, SicMode.PSIC, ps),
                    outage_r(CFG, SicMode.IPSIC, ps),
                    outage_t(CFG, ps),
                    system_outage(CFG, SicMode.IPSIC, ps)):
            assert -1e-9 <= val <= 1.0 + 1e-9


def test_ipsic_never_beats_psic():
    for dbm in SWEEP_DBM:
        ps = dbm_to_watts(dbm)
        assert outage_r(CFG, SicMode.IPSIC, ps) >= outage_r(CFG, SicMode.PSIC, ps)


def test_outage_nonincreasing_and_rates_nondecreasing_in_power():
    powers = [dbm_to_watts(d) for d in SWEEP_DBM]
    for fn in (lambda p: outage_r(CFG, SicMode.PSIC, p),
               lambda p: outage_r(CFG, SicMode.IPSIC, p),
               lambda p: outage_t(CFG, p)):
        vals = [fn(p) for p in powers]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    for fn in (lambda p: ergodic_rate_r(RATES_CFG, SicMode.PSIC, p),
               lambda p: ergodic_rate_r(RATES_CFG, SicMode.IPSIC, p),
               lambda p: ergodic_rate_t(RATES_CFG, p)):
        vals = [fn(p) for p in powers]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_rate_r_increases_with_reflected_amplification():
    boosted = replace(RATES_CFG, amp_lambda=20.0)  # lambda beta_r scaled x4
    ps = dbm_to_watts(20.0)
    assert (ergodic_rate_r(boosted, SicMode.PSIC, ps)
            > ergodic_rate_r(RATES_CFG, SicMode.PSIC, ps))


def test_rates_vanish_at_zero_power():
    assert ergodic_rate_r(RATES_CFG, SicMode.PSIC, 1e-12) < 1e-6
    assert ergodic_rate_t(RATES_CFG, 1e-12) < 1e-6


def test_rate_t_bounded_by_allocation_ceiling():
    ceiling = rate_ceiling_t(RATES_CFG)
    assert ceiling == pytest.approx(math.log2(5.0), rel=1e-14)
    for dbm in (10.0, 30.0, 60.0, 90.0):
        assert ergodic_rate_t(RATES_CFG, dbm_to_watts(dbm)) <= ceiling + 1e-9
    assert ergodic_rate_t(RATES_CFG, dbm_to_watts(80.0)) == pytest.approx(
        ceiling, abs=1e-3)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def test_system_outage_composition_algebra():
    ps = dbm_to_watts(18.0)
    p_r = outage_r(CFG, SicMode.IPSIC, ps)
    p_t = outage_t(CFG, ps)
    assert system_outage(CFG, SicMode.IPSIC, ps) == pytest.approx(
        1.0 - (1.0 - p_r) * (1.0 - p_t), abs=1e-15)
    assert 1.0 - 0.9 * 0.8 == pytest.approx(0.28)  # the composition rule itself


def test_throughput_compositions():
    ps = dbm_to_watts(18.0)
    lim = throughput_delay_limited(CFG, SicMode.PSIC, ps)
    assert lim == pytest.approx(
        (1.0 - outage_r(CFG, SicMode.PSIC, ps)) * CFG.target_rate_r
        + (1.0 - outage_t(CFG, ps)) * CFG.target_rate_t, abs=1e-15)
    assert 0.0 <= lim <= CFG.target_rate_r + CFG.target_rate_t
    tol = throughput_delay_tolerant(RATES_CFG, SicMode.PSIC, ps)
    assert tol == ergodic_rate_r(RATES_CFG, SicMode.PSIC, ps) + ergodic_rate_t(RATES_CFG, ps)


def test_throughput_limits():
    # sure outage on both links -> zero delay-limited throughput
    cfg = replace(CFG, target_rate_t=2.0)
    assert throughput_delay_limited(cfg, SicMode.PSIC, 1.0) == 0.0
    # vanishing outage -> full target sum
    assert throughput_delay_limited(CFG, SicMode.PSIC, dbm_to_watts(45.0)) == pytest.approx(
        2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# quadrature convergence gate
# ---------------------------------------------------------------------------

def test_doubling_quadrature_sizes_moves_outputs_below_1e4_relative():
    doubled = replace(RATES_CFG, **{f: 2 * getattr(RATES_CFG, f)
                                    for f in ("quad_k", "quad_u", "quad_q")})
    assert (RATES_CFG.quad_u, doubled.quad_u) == (64, 128)
    ps = dbm_to_watts(20.0)
    pairs = [
        (outage_r(RATES_CFG, SicMode.PSIC, ps), outage_r(doubled, SicMode.PSIC, ps)),
        (outage_r(RATES_CFG, SicMode.IPSIC, ps), outage_r(doubled, SicMode.IPSIC, ps)),
        (outage_t(RATES_CFG, ps), outage_t(doubled, ps)),
        (ergodic_rate_r(RATES_CFG, SicMode.PSIC, ps), ergodic_rate_r(doubled, SicMode.PSIC, ps)),
        (ergodic_rate_r(RATES_CFG, SicMode.IPSIC, ps), ergodic_rate_r(doubled, SicMode.IPSIC, ps)),
        (ergodic_rate_t(RATES_CFG, ps), ergodic_rate_t(doubled, ps)),
    ]
    for base, refined in pairs:
        assert abs(base - refined) / abs(refined) < 1e-4


# ---------------------------------------------------------------------------
# independent adaptive-integration cross-checks (transcription guards)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q_dbm", [10.0, 15.0, 20.0])
def test_psic_outage_vs_adaptive_integration(q_dbm):
    cfg = replace(CFG, **HI)
    ps = dbm_to_watts(q_dbm)
    closed = outage_r(cfg, SicMode.PSIC, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    scale = target_sinr(cfg.target_rate_r) * cfg.dist_bs ** 2 / (cfg.a_r * ps)

    def integrand(z):
        bracket = (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
                   + z ** 2 * cfg.noise_sigma_02
                   / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))
        return (2.0 * z / cfg.radius_d ** 2
                * float(reg_lower_gamma(fit.p, math.sqrt(scale * bracket) / fit.q)))

    oracle, _ = integrate.quad(integrand, 0.0, cfg.radius_d,
                               epsabs=1e-14, epsrel=1e-12, limit=200)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q_dbm", [10.0, 15.0, 20.0])
def test_ipsic_outage_vs_adaptive_integration(q_dbm):
    cfg = replace(CFG, **HI)
    ps = dbm_to_watts(q_dbm)
    closed = outage_r(cfg, SicMode.IPSIC, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    scale = target_sinr(cfg.target_rate_r) * cfg.dist_bs ** 2 / (cfg.a_r * ps)
    zs, zw = _gl_distance(cfg)
    static = (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
              + zs ** 2 * cfg.noise_sigma_02
              / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))

    def disk_average(w):
        bracket = static + (zs ** 2 * w * cfg.noise_sigma_re2 * ps
                            / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))
        vals = reg_lower_gamma(fit.p, np.sqrt(scale * bracket) / fit.q)
        return float(zw @ (2.0 * zs / cfg.radius_d ** 2 * vals))

    oracle, _ = integrate.quad(lambda w: math.exp(-w) * disk_average(w), 0.0, 50.0,
                               epsabs=1e-13, epsrel=1e-11, limit=200)
    assert closed == pytest.approx(oracle, rel=1e-6)


def test_ipsic_outage_vs_fully_adaptive_double_integration():
    # one fully adaptive (no fixed rule anywhere) spot check
    cfg = replace(CFG, **HI)
    ps = dbm_to_watts(15.0)
    closed = outage_r(cfg, SicMode.IPSIC, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    scale = target_sinr(cfg.target_rate_r) * cfg.dist_bs ** 2 / (cfg.a_r * ps)

    def integrand(z, w):
        bracket = (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
                   + z ** 2 * (w * cfg.noise_sigma_re2 * ps + cfg.noise_sigma_02)
                   / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))
        return (math.exp(-w) * 2.0 * z / cfg.radius_d ** 2
                * float(reg_lower_gamma(fit.p, math.sqrt(scale * bracket) / fit.q)))

    oracle, _ = integrate.dblquad(integrand, 0.0, 50.0, 0.0, cfg.radius_d,
                                  epsabs=1e-11, epsrel=1e-9)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q_dbm", [10.0, 15.0, 20.0])
def test_outage_t_vs_adaptive_integration(q_dbm):
    cfg = replace(CFG, **HI)
    ps = dbm_to_watts(q_dbm)
    closed = outage_t(cfg, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    partial = target_sinr(cfg.target_rate_t) / (
        cfg.a_t - target_sinr(cfg.target_rate_t) * cfg.a_r)

    def integrand(z):
        bracket = (z ** 2 * cfg.noise_sigma_02
                   / (cfg.path_eta0 ** 2 * cfg.beta_t * cfg.amp_lambda)
                   + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)
        arg = math.sqrt(partial * cfg.dist_bs ** 2 / ps * bracket) / fit.q
        return 2.0 * z / cfg.radius_d ** 2 * float(reg_lower_gamma(fit.p, arg))

    oracle, _ = integrate.quad(integrand, 0.0, cfg.radius_d,
                               epsabs=1e-14, epsrel=1e-12, limit=200)
    assert closed == pytest.approx(oracle, rel=1e-6)


def _gamma_span(p, top):
    """An interval holding all but a negligible share of the Gamma(p)
    density: 0 to top for the shapes near the reference point, and 15
    standard deviations either side of the mean for strong line of sight."""
    if p < 100.0:
        return 0.0, top
    return p - 15.0 * math.sqrt(p), p + 15.0 * math.sqrt(p)


@pytest.mark.parametrize("q_dbm, kappa", [(10.0, CFG.rician_kappa),
                                          (25.0, CFG.rician_kappa),
                                          (40.0, CFG.rician_kappa),
                                          (20.0, KAPPA_20DB)],
                         ids=["10.0", "25.0", "40.0", "kappa20dB-20.0"])
def test_psic_rate_vs_adaptive_integration(q_dbm, kappa):
    cfg = replace(RATES_CFG, rician_kappa=kappa, **HI)
    ps = dbm_to_watts(q_dbm)
    closed = ergodic_rate_r(cfg, SicMode.PSIC, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)

    def rate_at(z):
        bracket = (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
                   + z ** 2 * cfg.noise_sigma_02
                   / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))
        c = cfg.a_r * ps * fit.q ** 2 / (cfg.dist_bs ** 2 * bracket)
        val, _ = integrate.quad(
            lambda t: math.exp(-t + (fit.p - 1.0) * math.log(t)
                               - math.lgamma(fit.p)) * math.log1p(c * t * t),
            *_gamma_span(fit.p, 250.0), epsabs=1e-13, epsrel=1e-10, limit=200)
        return val / math.log(2.0)

    oracle, _ = integrate.quad(lambda z: 2.0 * z / cfg.radius_d ** 2 * rate_at(z),
                               0.0, cfg.radius_d, epsabs=1e-12, epsrel=1e-9, limit=100)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q_dbm, kappa", [(15.0, CFG.rician_kappa),
                                          (25.0, CFG.rician_kappa),
                                          (35.0, CFG.rician_kappa),
                                          (25.0, KAPPA_20DB)],
                         ids=["15.0", "25.0", "35.0", "kappa20dB-25.0"])
def test_ipsic_rate_vs_adaptive_integration(q_dbm, kappa):
    cfg = replace(RATES_CFG, rician_kappa=kappa, quad_u=2000, quad_k=400, quad_q=400)
    ps = dbm_to_watts(q_dbm)
    closed = ergodic_rate_r(cfg, SicMode.IPSIC, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)

    def rate_at(z, w):
        bracket = (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
                   + z ** 2 * (w * cfg.noise_sigma_re2 * ps + cfg.noise_sigma_02)
                   / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))
        c = cfg.a_r * ps * fit.q ** 2 / (cfg.dist_bs ** 2 * bracket)
        val, _ = integrate.quad(
            lambda t: math.exp(-t + (fit.p - 1.0) * math.log(t)
                               - math.lgamma(fit.p)) * math.log1p(c * t * t),
            *_gamma_span(fit.p, 200.0), epsabs=1e-12, epsrel=1e-10, limit=100)
        return val / math.log(2.0)

    def over_residual(z):
        val, _ = integrate.quad(lambda w: math.exp(-w) * rate_at(z, w), 0.0, 45.0,
                                epsabs=1e-12, epsrel=5e-9, limit=80)
        return val

    oracle, _ = integrate.quad(lambda z: 2.0 * z / cfg.radius_d ** 2 * over_residual(z),
                               0.0, cfg.radius_d, epsabs=1e-11, epsrel=5e-8, limit=60)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q_dbm, overrides, rel", [
    (10.0, HI, 1e-6), (25.0, HI, 1e-6), (40.0, HI, 1e-6),
    # default rules at a steep path loss and low power
    (0.0, dict(path_alpha=3.0), 1e-4),
    (20.0, dict(rician_kappa=KAPPA_20DB, **HI), 1e-6),
], ids=["10.0", "25.0", "40.0", "alpha3-0.0", "kappa20dB-20.0"])
def test_rate_t_vs_adaptive_integration(q_dbm, overrides, rel):
    cfg = replace(RATES_CFG, **overrides)
    ps = dbm_to_watts(q_dbm)
    closed = ergodic_rate_t(cfg, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    zs, zw = _gl_distance(cfg)
    bracket = (zs ** cfg.path_alpha * cfg.noise_sigma_02
               / (cfg.path_eta0 ** 2 * cfg.beta_t * cfg.amp_lambda)
               + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)

    def cdf(x):
        args = np.sqrt(x * cfg.dist_bs ** cfg.path_alpha / (ps * (cfg.a_t - x * cfg.a_r))
                       * bracket) / fit.q
        return float(zw @ (2.0 * zs / cfg.radius_d ** 2 * reg_lower_gamma(fit.p, args)))

    oracle, _ = integrate.quad(lambda x: (1.0 - cdf(x)) / ((1.0 + x) * math.log(2.0)),
                               0.0, cfg.a_t / cfg.a_r,
                               epsabs=1e-13, epsrel=1e-10, limit=200)
    assert closed == pytest.approx(oracle, rel=rel)


@pytest.mark.parametrize("kappa, alpha, rel", [(CFG.rician_kappa, 2.0, 6e-8),
                                               (KAPPA_20DB, 2.0, 6e-8),
                                               (CFG.rician_kappa, 3.0, 1.5e-6)],
                         ids=["kappa-5dB", "kappa20dB", "alpha3"])
def test_ipsic_rate_ceiling_vs_adaptive_integration(kappa, alpha, rel):
    # the residual power Y ~ Exp(1) is integrated out in closed form,
    # E[ln(1 + c/Y)] = ln c + e^c E1(c) + euler_gamma, leaving an adaptive
    # double integral over the cascade amplitude and the distance
    cfg = replace(RATES_CFG, rician_kappa=kappa, path_alpha=alpha)
    closed = ergodic_asym_r_ipsic(cfg)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    snr = (cfg.a_r * fit.q ** 2 * cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda
           / (cfg.dist_bs ** cfg.path_alpha * cfg.noise_sigma_re2))

    def over_residual(c):
        if c > 600.0:   # e^c E1(c) by its asymptotic series
            tail = sum((-1) ** k * math.factorial(k) / c ** (k + 1) for k in range(6))
        else:
            tail = math.exp(c) * special.exp1(c)
        return math.log(c) + tail + np.euler_gamma

    def integrand(z, t):
        return (math.exp(-t + (fit.p - 1.0) * math.log(t) - math.lgamma(fit.p))
                * 2.0 * z / cfg.radius_d ** 2
                * over_residual(snr * t * t / z ** cfg.path_alpha))

    oracle, _ = integrate.dblquad(integrand, *_gamma_span(fit.p, 250.0), 0.0, cfg.radius_d,
                                  epsabs=1e-12, epsrel=1e-10)
    # what is left is the default distance rule against the log(1/d)
    # singularity of ln c: 3.1e-8 (kappa -5 dB) and 2.8e-8 (20 dB) at
    # alpha = 2, 7.5e-7 at alpha = 3
    assert closed == pytest.approx(oracle / math.log(2.0), rel=rel)


# ---------------------------------------------------------------------------
# the pruned residual rule against the full one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [{}, dict(path_alpha=3.0), dict(num_elements=4)],
                         ids=["default", "alpha3", "L4"])
def test_pruned_residual_rule_matches_full_rule(monkeypatch, overrides):
    # at 200 nodes the prune keeps 74; the dropped 126 hold under 1e-30 of
    # the rule's mass each, so no ipSIC outage moves by more than rounding
    cfg = replace(RATES_CFG, **overrides)
    assert analytic._pruned(gauss_laguerre_rule(cfg.quad_k))[0].size == 74
    powers = [dbm_to_watts(dbm) for dbm in np.linspace(0.0, 60.0, 13)]
    pruned = [outage_r(cfg, SicMode.IPSIC, ps) for ps in powers]
    monkeypatch.setattr(analytic, "_PRUNE_REL", 0.0)
    assert analytic._pruned(gauss_laguerre_rule(cfg.quad_k))[0].size == cfg.quad_k
    for ps, value in zip(powers, pruned):
        assert value == pytest.approx(outage_r(cfg, SicMode.IPSIC, ps), rel=0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# the pruned ergodic-rate kernel against the exhaustive sum
# ---------------------------------------------------------------------------

def _unpruned_rate_r(cfg, ps=None, mode=SicMode.IPSIC):
    """The reflection rate over the full amplitude and distance rules in one
    einsum, the residual power Y ~ Exp(1) integrated out exactly with
    g(x) = e^x E1(x): E ln(1 + A/(B + C Y)) = ln(1 + A/B) + g(x0 (1 + A/B))
    - g(x0), x0 = B/C, and E ln(1 + c/Y) = ln c + g(c) + euler_gamma for
    the power-free ipSIC ceiling (ps=None)."""
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    lag_q = gauss_laguerre_rule(cfg.quad_q, fit.p - 1.0)
    chi, w = _distance_rule(cfg)
    dsa = cfg.dist_bs ** cfg.path_alpha
    t2 = lag_q.nodes[:, None] ** 2
    residual = (chi ** cfg.path_alpha / cfg.path_eta0 ** 2 * cfg.noise_sigma_re2
                / (cfg.beta_r * cfg.amp_lambda))
    if ps is None:
        c = cfg.a_r * fit.q ** 2 / (dsa * residual) * t2
        vals = np.log(c) + exp_e1(c) + np.euler_gamma
    else:
        bracket = _noise_bracket(cfg, chi, cfg.beta_r)
        snr = cfg.a_r * ps * fit.q ** 2 / (dsa * bracket) * t2
        vals = np.log1p(snr)
        if mode is SicMode.IPSIC:
            x0 = bracket / (residual * ps)
            vals += exp_e1(x0 * (1.0 + snr)) - exp_e1(x0)
    return np.einsum("q,u,qu->", lag_q.weights, w, vals) / math.log(2.0)


@pytest.mark.parametrize("kappa_db", [None, -5.0, 10.0, 20.0])
@pytest.mark.parametrize("L", [1, 4, 10, 40])
def test_pruned_rate_kernel_matches_exhaustive_sum(L, kappa_db):
    kappa = 0.0 if kappa_db is None else db_to_linear(kappa_db)
    cfg = replace(RATES_CFG, num_elements=L, rician_kappa=kappa, path_alpha=3.0)
    worst = 0.0
    for q_dbm in range(-40, 121, 40):
        ps = dbm_to_watts(q_dbm)
        for mode in SicMode:
            ref = _unpruned_rate_r(cfg, ps, mode)
            worst = max(worst, abs(ergodic_rate_r(cfg, mode, ps) - ref) / ref)
    ref = _unpruned_rate_r(cfg)
    worst = max(worst, abs(ergodic_asym_r_ipsic(cfg) - ref) / ref)
    assert worst <= 1e-13


def test_rate_kernel_memory_stays_chunked():
    # the ipSIC rate at the largest rules holds a few (292 x 1000)
    # amplitude-distance grids, about 2.3 MB each, and no residual axis
    cfg = replace(CFG, quad_q=2000, quad_k=2000, quad_u=1000)
    # build the rules outside the trace
    gauss_laguerre_rule(2000, gamma_fit(cfg.rician_kappa, cfg.num_elements).p - 1.0)
    tracemalloc.start()
    try:
        value = ergodic_rate_r(cfg, SicMode.IPSIC, dbm_to_watts(20.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(ergodic_rate_r(CFG, SicMode.IPSIC, dbm_to_watts(20.0)),
                                  rel=1e-4)
    assert peak < 32 * 2 ** 20


def test_amplitude_rule_skips_underflowed_weights():
    # at p ~ 422 an 800-node rule's far-tail weights sit at the subnormal
    # floor; the prune leaves them out and the rates stay finite
    cfg = replace(CFG, rician_kappa=db_to_linear(10.0), num_elements=40, quad_q=800)
    rule = gauss_laguerre_rule(800, gamma_fit(cfg.rician_kappa, cfg.num_elements).p - 1.0)
    floored = rule.weights == np.finfo(float).smallest_subnormal
    assert np.any(floored)
    _, t, gamma_w = _amplitude_rule(cfg)
    assert t.size <= np.count_nonzero(~floored)
    assert np.all(gamma_w > 1e-30 * rule.weights.sum())
    for mode in SicMode:
        assert math.isfinite(ergodic_rate_r(cfg, mode, dbm_to_watts(20.0)))


def test_amplitude_rule_with_non_finite_weights_raises(monkeypatch):
    real = analytic.gauss_laguerre_rule

    def corrupted(size, alpha=0.0):
        rule = real(size, alpha)
        if alpha == 0.0:
            return rule
        weights = rule.weights.copy()
        weights[-1] = math.inf
        return QuadratureRule("laguerre", rule.nodes.copy(), weights)

    monkeypatch.setattr(analytic, "gauss_laguerre_rule", corrupted)
    for evaluate in (lambda: ergodic_rate_r(RATES_CFG, SicMode.IPSIC, 1.0),
                     lambda: ergodic_rate_t(RATES_CFG, 1.0),
                     lambda: ergodic_asym_r_ipsic(RATES_CFG)):
        with pytest.raises(NumericIntegrityError, match="non-finite weights"):
            evaluate()


def test_distance_rule_disk_moments():
    # the disk law 2x/D^2 has E[d^a] = 2 D^a / (a + 2)
    chi, w = _distance_rule(CFG)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    for a in (2.0, 4.0):
        exact = 2.0 * CFG.radius_d ** a / (a + 2.0)
        assert float(w @ chi ** a) == pytest.approx(exact, rel=1e-14)


# ---------------------------------------------------------------------------
# the shared stage table beyond NOMA
# ---------------------------------------------------------------------------

def test_oma_closed_forms_from_the_stage_table_agree_with_the_simulator():
    # the per-user outage evaluator applied to astars_oma's stages (one
    # stage per user at full power and the doubled target) against the
    # simulator in mean-noise mode, where the closed form's noise
    # substitution is exact: what is left is the Gamma fit's error
    cfg = replace(CFG, mean_noise_mode=True)
    stages_t, stages_r = decode_stages(cfg, "astars_oma")
    budgets = (10.0, 15.0, 20.0, 25.0)
    powers = [budget_to_ps(dbm_to_watts(q), cfg) for q in budgets]
    sims = simulate(cfg, "astars_oma", powers, trials=200_000, seed=11,
                    metrics=("outage_r", "outage_t"))
    for q, ps, est in zip(budgets, powers, sims):
        for key, stages, beta in (("outage_r", stages_r[""], cfg.beta_r),
                                  ("outage_t", stages_t, cfg.beta_t)):
            value = _user_outage(cfg, stages, beta, ps)
            sigma = est[key].ci95_halfwidth / 1.96
            assert abs(value - est[key].mean) <= 4.0 * sigma, (q, key, value, est[key])
