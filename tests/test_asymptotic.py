"""High-SNR machinery tests: floors, power-law asymptotes, rate ceilings,
the Jensen bound, and slope fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc, hyp2f1

from astars_noma.analytic import (SicMode, _distance_rule, ergodic_rate_r, ergodic_rate_t,
                                  outage_r, rate_ceiling_t)
from astars_noma.asymptotic import (OutOfRegimeError, ergodic_asym_r_ipsic,
                                    ergodic_bound_r_psic,
                                    fit_order, high_snr_cascade_cdf,
                                    outage_asym_r_psic, outage_asym_t,
                                    outage_floor_r_ipsic)
from astars_noma.model import (NetworkConfig, dbm_to_watts, element_moments,
                               gamma_fit, noise_power_factor)

CFG = NetworkConfig()
RATES_CFG = NetworkConfig(a_r=0.2, a_t=0.8)
# deep-asymptote window: the hypergeometric cap binds at every distance node
DEEP_DBM = np.linspace(115.0, 125.0, 6)


# ---------------------------------------------------------------------------
# small-x cascade CDF
# ---------------------------------------------------------------------------

def test_high_snr_cdf_at_zero():
    assert high_snr_cascade_cdf(0.3, 4, 0.0) == 0.0


def test_high_snr_cdf_single_element_constant():
    # L = 1, kappa = 0: F = (16/3) C x / 2 with C the capped factor
    x = 1e-10
    lam = 3.0 / 16.0
    c = hyp2f1(2.0, 0.5, 2.5, 1.0 - 1e-3)  # cap binds at this x
    assert high_snr_cascade_cdf(0.0, 1, x) == pytest.approx(c * x / (2.0 * lam), rel=1e-12)


def test_high_snr_cdf_array_matches_scalar_calls():
    # both sides of the 0.5 split of the factor, the cap, and x = 0
    xs = np.array([0.0, 1e-14, 1e-9, 1e-6, 1e-4, 3e-3, 1e-2])
    for kappa, L in ((0.0, 1), (0.3, 4), (10.0 ** -0.5, 10)):
        vec = high_snr_cascade_cdf(kappa, L, xs, z_cap=0.99)
        assert isinstance(vec, np.ndarray) and vec.shape == xs.shape
        scal = [high_snr_cascade_cdf(kappa, L, float(x), z_cap=0.99) for x in xs]
        assert all(isinstance(v, float) for v in scal)
        np.testing.assert_array_equal(vec, scal)
        assert vec[0] == 0.0


def test_high_snr_cdf_array_out_of_regime_names_the_node():
    with pytest.raises(OutOfRegimeError, match="x=50.0"):
        high_snr_cascade_cdf(0.0, 1, np.array([1e-9, 50.0, 1e-6]))


def test_high_snr_cdf_reproduces_true_product_tail():
    # exact leading behaviour of the single product channel is x ln(1/x);
    # with the 1/sqrt(x) argument scale the regularized factor reproduces
    # it: F(x)/(x ln(1/x)) -> 1 with an O(1/ln(1/x)) correction
    ratios = []
    for x in (1e-8, 1e-10, 1e-12):
        approx = high_snr_cascade_cdf(0.0, 1, x, z_cap=1.0 - 1e-12)
        ratios.append(approx / (x * math.log(1.0 / x)))
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[2] == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("L", [1, 2, 4])
def test_high_snr_cdf_polynomial_slope(L):
    # with the cap pinned the CDF is a pure degree-L power law
    xs = np.array([1e-6, 1e-5, 1e-4])
    vals = [high_snr_cascade_cdf(0.0, L, float(x), z_cap=0.95) for x in xs]
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope == pytest.approx(L, rel=1e-9)


def test_high_snr_cdf_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        high_snr_cascade_cdf(0.0, 1, 50.0)


# ---------------------------------------------------------------------------
# ipSIC outage floor
# ---------------------------------------------------------------------------

def test_floor_is_power_free_limit_of_the_exact_evaluator():
    floor = outage_floor_r_ipsic(CFG)
    for dbm in (60.0, 70.0, 80.0):
        exact = outage_r(CFG, SicMode.IPSIC, dbm_to_watts(dbm))
        assert floor == pytest.approx(exact, rel=5e-2)
    # and the agreement tightens with power
    gap60 = abs(floor - outage_r(CFG, SicMode.IPSIC, dbm_to_watts(60.0)))
    gap80 = abs(floor - outage_r(CFG, SicMode.IPSIC, dbm_to_watts(80.0)))
    assert gap80 < gap60


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_floor_vs_nested_adaptive_integration(alpha):
    # the floor P(S^2 < c(d) Y) by adaptive integration over the residual
    # power Y ~ Exp(1) inside adaptive integration over the disk, with
    # c(d) = gamma_r_hat d_s^alpha d^alpha sigma_re^2/(a_r eta0^2 beta_r lambda)
    cfg = replace(RATES_CFG, path_alpha=alpha)
    fit = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    per_d_alpha = ((2.0 ** cfg.target_rate_r - 1.0) * cfg.dist_bs ** alpha * cfg.noise_sigma_re2
                   / (cfg.a_r * cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda))

    def over_residual(z):
        c = per_d_alpha * z ** alpha
        inner, _ = integrate.quad(
            lambda y: math.exp(-y) * gammainc(fit.p, math.sqrt(c * y) / fit.q),
            0.0, math.inf, epsabs=1e-15, epsrel=1e-13, limit=200)
        return 2.0 * z / cfg.radius_d ** 2 * inner

    oracle, _ = integrate.quad(over_residual, 0.0, cfg.radius_d,
                               epsabs=1e-15, epsrel=1e-13, limit=200)
    assert outage_floor_r_ipsic(cfg) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("targets", [(0.0, 1.0), (0.0, 0.0)])
def test_floor_is_zero_at_a_zero_own_target(targets):
    # the own stage's gain is infinite, so it never fails: exactly 0, with
    # no division by a zero threshold on the way
    cfg = replace(CFG, target_rate_r=targets[0], target_rate_t=targets[1])
    assert outage_floor_r_ipsic(cfg) == 0.0


def test_floor_is_one_where_the_first_sic_stage_always_fails():
    # a_t = 0.7 < gamma_t_hat a_r = 0.9: decoding the transmission user's
    # signal fails at every power, so the ipSIC outage is 1 and so is its
    # infinite-power limit
    cfg = replace(CFG, target_rate_t=2.0)
    for ps in (1e3, 1e6):
        assert outage_r(cfg, SicMode.IPSIC, ps) == 1.0
    assert outage_floor_r_ipsic(cfg) == 1.0


def test_floor_vanishes_with_residual_interference():
    faint = replace(CFG, noise_sigma_re2=1e-22)
    assert outage_floor_r_ipsic(faint) < 1e-12
    assert outage_floor_r_ipsic(faint) < outage_floor_r_ipsic(CFG)


# ---------------------------------------------------------------------------
# power-law asymptotes
# ---------------------------------------------------------------------------

def test_asym_psic_scaling_is_exactly_power_law_when_cap_binds():
    ps = dbm_to_watts(DEEP_DBM[0])
    for L in (1, 2, 4):
        cfg = replace(CFG, num_elements=L)
        ratio = outage_asym_r_psic(cfg, 10.0 * ps) / outage_asym_r_psic(cfg, ps)
        assert ratio == pytest.approx(10.0 ** -L, rel=1e-12)
        ratio_t = outage_asym_t(cfg, 10.0 * ps) / outage_asym_t(cfg, ps)
        assert ratio_t == pytest.approx(10.0 ** -L, rel=1e-12)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_fitted_diversity_equals_element_count(L):
    cfg = replace(CFG, num_elements=L)
    for fn in (outage_asym_r_psic, outage_asym_t):
        pts = [(dbm_to_watts(d), fn(cfg, dbm_to_watts(d))) for d in DEEP_DBM]
        fit = fit_order(pts, "loglog")
        assert fit.slope == pytest.approx(L, rel=0.05)
        assert fit.r_squared > 0.999


def _asym_per_node(cfg, ps, side):
    """Disk average of the scalar high-SNR CDF, one distance node of the
    package's own rule at a time: a vectorisation check, not an accuracy one."""
    gamma_r = 2.0 ** cfg.target_rate_r - 1.0
    gamma_t = 2.0 ** cfg.target_rate_t - 1.0
    path = cfg.dist_bs ** cfg.path_alpha / ps
    scale = gamma_t / (cfg.a_t - gamma_t * cfg.a_r) * path
    beta = cfg.beta_t
    if side == "r":
        scale = max(scale, gamma_r * path / cfg.a_r)
        beta = cfg.beta_r
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    total = 0.0
    for d, w in zip(*_distance_rule(cfg)):
        bracket = (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
                   + d ** cfg.path_alpha * cfg.noise_sigma_02
                   / (cfg.path_eta0 ** 2 * beta * cfg.amp_lambda))
        total += w * high_snr_cascade_cdf(cfg.rician_kappa, cfg.num_elements,
                                          scale * bracket, cfg.hyp2f1_z_cap)
    return total


@pytest.mark.parametrize("L", [1, 2, 4, 10])
def test_asym_outages_match_per_node_loop(L):
    cfg = replace(CFG, num_elements=L)
    for dbm in np.linspace(100.0, 125.0, 11):
        ps = dbm_to_watts(dbm)
        assert outage_asym_r_psic(cfg, ps) == pytest.approx(
            _asym_per_node(cfg, ps, "r"), rel=1e-12)
        assert outage_asym_t(cfg, ps) == pytest.approx(
            _asym_per_node(cfg, ps, "t"), rel=1e-12)


def test_asym_matches_evaluator_near_the_visible_crossover():
    # where the closed form passes ~1e-3 the asymptote agrees within x2
    # (the two use different tail models, so the ratio then drifts); at
    # target_rate_t = 1.5 the first SIC stage sets the threshold
    for target_rate_t, q_dbm in ((1.0, 35.0), (1.5, 40.0)):
        cfg = replace(CFG, num_elements=4, target_rate_t=target_rate_t)
        ps = dbm_to_watts(q_dbm)
        exact = outage_r(cfg, SicMode.PSIC, ps)
        asym = outage_asym_r_psic(cfg, ps)
        assert 0.5 <= asym / exact <= 2.0, target_rate_t


def test_asym_out_of_regime_at_low_power():
    with pytest.raises(OutOfRegimeError):
        outage_asym_r_psic(CFG, dbm_to_watts(0.0))


def test_asym_t_degenerate_allocation():
    cfg = replace(CFG, target_rate_t=2.0)
    with pytest.raises(OutOfRegimeError):
        outage_asym_t(cfg, dbm_to_watts(120.0))
    with pytest.raises(OutOfRegimeError):
        outage_asym_r_psic(cfg, dbm_to_watts(120.0))


# ---------------------------------------------------------------------------
# rate ceilings and the Jensen bound
# ---------------------------------------------------------------------------

def test_ipsic_rate_ceiling_matches_high_power_evaluator():
    ceiling = ergodic_asym_r_ipsic(RATES_CFG)
    exact = ergodic_rate_r(RATES_CFG, SicMode.IPSIC, dbm_to_watts(60.0))
    assert ceiling == pytest.approx(exact, rel=5e-2)


def test_ipsic_rate_ceiling_grows_as_residual_fades():
    quieter = replace(RATES_CFG, noise_sigma_re2=1e-13)
    assert ergodic_asym_r_ipsic(quieter) > ergodic_asym_r_ipsic(RATES_CFG)


def test_jensen_bound_dominates_exact_rate_pointwise():
    for dbm in np.linspace(5.0, 50.0, 10):
        ps = dbm_to_watts(dbm)
        bound = ergodic_bound_r_psic(RATES_CFG, ps)
        exact = ergodic_rate_r(RATES_CFG, SicMode.PSIC, ps)
        assert bound - exact >= -1e-9


def test_jensen_bound_slope_reaches_one():
    pts = [(dbm_to_watts(d), ergodic_bound_r_psic(RATES_CFG, dbm_to_watts(d)))
           for d in np.linspace(45.0, 55.0, 5)]
    assert fit_order(pts, "semilogx").slope == pytest.approx(1.0, abs=5e-3)


def test_jensen_bound_vs_independent_mean_snr():
    # dual implementation: recompute E[SINR] by adaptive integration of the
    # exact-mean formula E[X] * E[1/(noise(d))]
    cfg = replace(RATES_CFG, quad_u=2000)
    ps = dbm_to_watts(40.0)
    mean, var = element_moments(cfg.rician_kappa)
    L = cfg.num_elements
    zeta = noise_power_factor(cfg.rician_kappa, L)
    mean_gain = L * (var + L * mean * mean)
    noise_amp = cfg.amp_lambda * cfg.beta_r * cfg.path_eta0 * zeta * cfg.noise_sigma_s2

    inv_noise, _ = integrate.quad(
        lambda z: (2.0 * z / cfg.radius_d ** 2)
        / (noise_amp + cfg.noise_sigma_02 * z ** cfg.path_alpha),
        0.0, cfg.radius_d, epsabs=1e-13, epsrel=1e-11)
    mean_snr = (cfg.a_r * cfg.amp_lambda * cfg.beta_r * ps * cfg.path_eta0 ** 2
                / cfg.dist_bs ** 2 * mean_gain * inv_noise)
    assert ergodic_bound_r_psic(cfg, ps) == pytest.approx(
        math.log2(1.0 + mean_snr), rel=1e-6)


def test_rate_t_evaluator_approaches_the_asymptote():
    asym = rate_ceiling_t(RATES_CFG)
    exact = ergodic_rate_t(RATES_CFG, dbm_to_watts(80.0))
    assert exact == pytest.approx(asym, abs=1e-3)
    assert exact <= asym + 1e-12


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_fit_order_exact_power_law():
    pts = [(p, p ** -3.0) for p in (1.0, 3.0, 10.0, 40.0, 100.0)]
    fit = fit_order(pts, "loglog")
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 5


def test_fit_order_constant_curve():
    pts = [(p, 0.37) for p in (1.0, 2.0, 5.0, 11.0)]
    for scale in ("loglog", "semilogx"):
        fit = fit_order(pts, scale)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0


def test_fit_order_semilogx_rate_slope():
    # value = 2.5 log2(ps) + 1 has multiplexing gain 2.5
    pts = [(p, 2.5 * math.log2(p) + 1.0) for p in (1.0, 4.0, 9.0, 64.0)]
    fit = fit_order(pts, "semilogx")
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)


def test_fit_order_validation():
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0), (1.0, 0.7), (2.0, 0.5)])
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0), (2.0, 0.0), (3.0, 0.5)], "loglog")
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0), (2.0, 0.9), (3.0, 0.5)], "bogus")


def test_fit_order_r_squared_in_unit_interval():
    rng = np.random.default_rng(5)
    ps = np.linspace(1.0, 50.0, 12)
    vals = np.exp(rng.normal(0.0, 1.0, ps.size))
    fit = fit_order(list(zip(ps, vals)), "loglog")
    assert 0.0 <= fit.r_squared <= 1.0


# ---------------------------------------------------------------------------
# fitted orders of the finite-SNR evaluators
# ---------------------------------------------------------------------------

def test_ipsic_outage_slope_is_flat_at_high_power():
    pts = [(dbm_to_watts(d), outage_r(CFG, SicMode.IPSIC, dbm_to_watts(d)))
           for d in np.linspace(50.0, 60.0, 6)]
    assert abs(fit_order(pts, "loglog").slope) <= 0.05


def test_multiplexing_gains_of_the_evaluators():
    window = np.linspace(50.0, 60.0, 6)
    for fn, target in (
            (lambda p: ergodic_rate_r(RATES_CFG, SicMode.PSIC, p), 1.0),
            (lambda p: ergodic_rate_r(RATES_CFG, SicMode.IPSIC, p), 0.0),
            (lambda p: ergodic_rate_t(RATES_CFG, p), 0.0)):
        pts = [(dbm_to_watts(d), fn(dbm_to_watts(d))) for d in window]
        assert fit_order(pts, "semilogx").slope == pytest.approx(target, abs=0.05)


def test_gamma_matched_evaluator_slope_saturates_below_element_count():
    # the moment-matched CDF has small-x exponent p/2 = L E^2/(2 var) < L at
    # the reference Rician factor, so the finite-SNR evaluator's log-log
    # slope tops out below L; the full diversity order lives in the
    # Laplace-based asymptote (gated above).  This documents the gap.
    cfg = replace(CFG, num_elements=4)
    mean, var = element_moments(cfg.rician_kappa)
    cap = 4 * mean * mean / (2.0 * var)
    pts = [(dbm_to_watts(d), outage_r(cfg, SicMode.PSIC, dbm_to_watts(d)))
           for d in np.linspace(60.0, 70.0, 6)]
    slope = fit_order(pts, "loglog").slope
    assert slope == pytest.approx(cap, rel=0.02)
    assert slope < 4.0
