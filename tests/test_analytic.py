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
from scipy import integrate

from astars_noma.analytic import (MetricPoint, NumericIntegrityError, SicMode,
                                  _distance_rule, _reflection_brackets,
                                  ergodic_rate_r, ergodic_rate_t, outage_r,
                                  outage_t, rate_ceiling_t, system_outage,
                                  target_sinr, throughput_delay_limited,
                                  throughput_delay_tolerant)
from astars_noma.asymptotic import ergodic_asym_r_ipsic
from astars_noma.model import (NetworkConfig, db_to_linear, dbm_to_watts,
                               gamma_fit, noise_power_factor)
from astars_noma.numerics import gauss_laguerre_rule, reg_lower_gamma

CFG = NetworkConfig()
RATES_CFG = NetworkConfig(a_r=0.2, a_t=0.8)
# large rules for the transcription cross-checks (quadrature error well
# below the 1e-6 agreement bar)
HI = dict(quad_u=6000, quad_k=500, quad_q=500, cheb_n=4000)
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


def test_outage_approaches_one_at_vanishing_power():
    for fn in (lambda p: outage_r(CFG, SicMode.PSIC, p),
               lambda p: outage_r(CFG, SicMode.IPSIC, p),
               lambda p: outage_t(CFG, p)):
        val = fn(1e-9)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert val <= 1.0


def test_positive_power_required():
    for fn in (lambda: outage_r(CFG, SicMode.PSIC, 0.0),
               lambda: outage_t(CFG, -1.0),
               lambda: ergodic_rate_r(CFG, SicMode.PSIC, 0.0),
               lambda: ergodic_rate_t(CFG, 0.0)):
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


def test_metric_point_integrity():
    MetricPoint(1.0, 0.5, "outage_r")
    with pytest.raises(NumericIntegrityError):
        MetricPoint(1.0, 1.5, "outage_r")
    with pytest.raises(ValueError):
        MetricPoint(1.0, 0.5, "bogus_kind")


# ---------------------------------------------------------------------------
# quadrature convergence gate
# ---------------------------------------------------------------------------

def test_doubling_quadrature_sizes_moves_outputs_below_1e4_relative():
    doubled = replace(RATES_CFG, quad_k=400, quad_u=400, quad_q=400, cheb_n=400)
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


@pytest.mark.parametrize("q_dbm", [10.0, 25.0, 40.0])
def test_psic_rate_vs_adaptive_integration(q_dbm):
    cfg = replace(RATES_CFG, **HI)
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
            0.0, 250.0, epsabs=1e-13, epsrel=1e-10, limit=200)
        return val / math.log(2.0)

    oracle, _ = integrate.quad(lambda z: 2.0 * z / cfg.radius_d ** 2 * rate_at(z),
                               0.0, cfg.radius_d, epsabs=1e-12, epsrel=1e-9, limit=100)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q_dbm", [15.0, 25.0, 35.0])
def test_ipsic_rate_vs_adaptive_integration(q_dbm):
    cfg = replace(RATES_CFG, quad_u=2000, quad_k=400, quad_q=400, cheb_n=2000)
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
            0.0, 200.0, epsabs=1e-12, epsrel=1e-10, limit=100)
        return val / math.log(2.0)

    def over_residual(z):
        val, _ = integrate.quad(lambda w: math.exp(-w) * rate_at(z, w), 0.0, 45.0,
                                epsabs=1e-12, epsrel=5e-9, limit=80)
        return val

    oracle, _ = integrate.quad(lambda z: 2.0 * z / cfg.radius_d ** 2 * over_residual(z),
                               0.0, cfg.radius_d, epsabs=1e-11, epsrel=5e-8, limit=60)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q_dbm", [10.0, 25.0, 40.0])
def test_rate_t_vs_adaptive_integration(q_dbm):
    cfg = replace(RATES_CFG, **HI)
    ps = dbm_to_watts(q_dbm)
    closed = ergodic_rate_t(cfg, ps)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    zs, zw = _gl_distance(cfg)
    bracket = (zs ** 2 * cfg.noise_sigma_02
               / (cfg.path_eta0 ** 2 * cfg.beta_t * cfg.amp_lambda)
               + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)

    def cdf(x):
        args = np.sqrt(x * cfg.dist_bs ** 2 / (ps * (cfg.a_t - x * cfg.a_r)) * bracket) / fit.q
        return float(zw @ (2.0 * zs / cfg.radius_d ** 2 * reg_lower_gamma(fit.p, args)))

    oracle, _ = integrate.quad(lambda x: (1.0 - cdf(x)) / ((1.0 + x) * math.log(2.0)),
                               0.0, cfg.a_t / cfg.a_r,
                               epsabs=1e-13, epsrel=1e-10, limit=200)
    assert closed == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# the pruned ergodic-rate kernel against the exhaustive sum
# ---------------------------------------------------------------------------

def _unpruned_rate_r(cfg, ps=None, mode=SicMode.IPSIC):
    """The reflection rate over the full amplitude, residual and distance
    rules in one einsum, with the Gamma weights formed directly; ps=None
    gives the power-free ipSIC ceiling."""
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    lag_q, lag_k = gauss_laguerre_rule(cfg.quad_q), gauss_laguerre_rule(cfg.quad_k)
    gamma_w = lag_q.weights * np.exp(
        (fit.p - 1.0) * np.log(lag_q.nodes) - math.lgamma(fit.p))
    chi, w = _distance_rule(cfg)
    dsa = cfg.dist_bs ** cfg.path_alpha
    if ps is None:
        scale = (cfg.path_eta0 ** 2 * fit.q ** 2 * cfg.a_r * cfg.beta_r * cfg.amp_lambda
                 / (dsa * chi[None, :] ** cfg.path_alpha * lag_k.nodes[:, None]
                    * cfg.noise_sigma_re2))
    else:
        base, static = _reflection_brackets(cfg, chi)
        if mode is SicMode.PSIC:
            vals = np.log1p(cfg.a_r * ps * fit.q ** 2 / (dsa * (base + static))
                            * lag_q.nodes[:, None] ** 2)
            return np.einsum("q,u,qu->", gamma_w, w, vals) / math.log(2.0)
        residual = (chi[None, :] ** cfg.path_alpha / cfg.path_eta0 ** 2
                    * lag_k.nodes[:, None] * ps * cfg.noise_sigma_re2
                    / (cfg.beta_r * cfg.amp_lambda))
        scale = cfg.a_r * ps * fit.q ** 2 / (dsa * (base + static[None, :] + residual))
    vals = np.log1p(scale[None, :, :] * lag_q.nodes[:, None, None] ** 2)
    return np.einsum("q,k,u,qku->", gamma_w, lag_k.weights, w, vals) / math.log(2.0)


@pytest.mark.parametrize("kappa_db", [None, -5.0, 10.0])
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
    # unchunked, this call would hold all 293 kept amplitude rows of the
    # (235 x 1000) residual-distance grid at once: about 550 MB
    cfg = replace(CFG, quad_q=2000, quad_k=2000, quad_u=1000)
    gauss_laguerre_rule(2000)           # build the rule outside the trace
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
    # at p ~ 422 an 800-node rule's floored tail weights (t > 745) would
    # multiply t^(p-1) into an overflow; the resolved nodes carry the mass
    cfg = replace(CFG, rician_kappa=db_to_linear(10.0), num_elements=40)
    big = replace(cfg, quad_q=800)
    ps = dbm_to_watts(20.0)
    for mode in SicMode:
        assert ergodic_rate_r(big, mode, ps) == pytest.approx(
            ergodic_rate_r(cfg, mode, ps), rel=1e-12)


def test_unresolvable_gamma_density_raises():
    # kappa = 20 dB: p ~ 1005 sits past every representable Laguerre weight
    cfg = replace(CFG, rician_kappa=db_to_linear(20.0))
    for mode in SicMode:
        with pytest.raises(NumericIntegrityError, match="density mass"):
            ergodic_rate_r(cfg, mode, dbm_to_watts(20.0))
    with pytest.raises(NumericIntegrityError, match="density mass"):
        ergodic_asym_r_ipsic(cfg)
