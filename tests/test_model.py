"""Channel-statistics and geometry tests.

Monte Carlo oracles draw the actual double-Rician products and check the
closed-form moments and the fitted CDF against them.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from astars_noma.model import (ConfigError, GammaApprox, NetworkConfig,
                               cascade_cdf, db_to_linear, dbm_to_watts,
                               distance_pdf, element_moments, gamma_fit,
                               noise_power_factor, sample_distance,
                               watts_to_dbm)

KAPPA_REF = 10.0 ** -0.5  # -5 dB


def _product_samples(rng, kappa, n):
    los = math.sqrt(kappa / (kappa + 1.0))
    sc = math.sqrt(1.0 / (2.0 * (kappa + 1.0)))

    def env(size):
        return np.abs(los + sc * (rng.standard_normal(size)
                                  + 1j * rng.standard_normal(size)))

    return env(n) * env(n)


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_unit_conversions():
    assert db_to_linear(-5.0) == pytest.approx(KAPPA_REF, rel=1e-15)
    assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)


# ---------------------------------------------------------------------------
# NetworkConfig invariants
# ---------------------------------------------------------------------------

def test_default_config_is_reference_point():
    cfg = NetworkConfig()
    assert cfg.rician_kappa == pytest.approx(KAPPA_REF)
    assert cfg.amp_lambda == 5.0
    assert cfg.num_elements == 10
    assert cfg.radius_d == 35.0
    assert cfg.dist_bs == 50.0
    assert (cfg.beta_r, cfg.beta_t) == (0.7, 0.3)
    assert (cfg.a_r, cfg.a_t) == (0.3, 0.7)
    assert cfg.noise_sigma_s2 == pytest.approx(1e-10)
    assert cfg.noise_sigma_02 == pytest.approx(1e-12)
    assert cfg.noise_sigma_re2 == pytest.approx(1e-12)
    assert cfg.path_alpha == 2.0
    assert cfg.path_eta0 == pytest.approx(1e-3)
    assert cfg.target_rate_r == cfg.target_rate_t == 1.0


@pytest.mark.parametrize("bad", [
    dict(beta_r=0.8, beta_t=0.3),
    dict(a_r=0.6, a_t=0.4),
    dict(a_r=0.4, a_t=0.7),
    dict(amp_lambda=1.0),
    dict(num_elements=0),
    dict(radius_d=0.0),
    dict(path_alpha=1.5),
    dict(noise_sigma_02=0.0),
    dict(quad_k=0),
    dict(quad_u=20_000),
    dict(hyp2f1_z_cap=1.0),
    dict(rician_kappa=-0.1),
])
def test_config_invariant_violations(bad):
    with pytest.raises(ConfigError):
        NetworkConfig(**bad)


FLOAT_FIELDS = [f.name for f in fields(NetworkConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ConfigError, match=f"{name} finite"):
        NetworkConfig(**{name: value})


def test_gamma_approx_requires_positive_parameters():
    with pytest.raises(ConfigError):
        GammaApprox(p=0.0, q=1.0)
    with pytest.raises(ConfigError):
        GammaApprox(p=1.0, q=-1.0)


# ---------------------------------------------------------------------------
# element moments and the Gamma fit
# ---------------------------------------------------------------------------

def test_element_moments_at_kappa_zero():
    mean, var = element_moments(0.0)
    assert mean == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert var == pytest.approx(1.0 - math.pi ** 2 / 16.0, rel=1e-14)


def test_element_moments_vs_monte_carlo_oracle():
    rng = np.random.default_rng(2024)
    x = _product_samples(rng, KAPPA_REF, 10_000_000)
    mean, var = element_moments(KAPPA_REF)
    se_mean = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - mean) < 3.0 * se_mean
    # variance of the sample variance ~ (m4 - var^2)/n
    m4 = np.mean((x - x.mean()) ** 4)
    se_var = math.sqrt((m4 - var ** 2) / x.size)
    assert abs(x.var(ddof=1) - var) < 3.0 * se_var


def test_element_moment_identities():
    # unit second moment of the product forces var = 1 - mean^2
    for kappa in (0.0, 0.2, KAPPA_REF, 1.0, 5.0, 50.0):
        mean, var = element_moments(kappa)
        assert 0.0 < var <= 1.0
        assert var == pytest.approx(1.0 - mean * mean, rel=1e-12)
    with pytest.raises(ConfigError):
        element_moments(-0.5)


def test_element_moments_pure_los_limit():
    mean, var = element_moments(1e9)
    assert mean == pytest.approx(1.0, rel=1e-8)
    assert var == pytest.approx(0.0, abs=1e-8)


def test_gamma_fit_at_kappa_zero():
    mean = math.pi / 4.0
    var = 1.0 - math.pi ** 2 / 16.0
    fit = gamma_fit(0.0, 1)
    assert fit.p == pytest.approx(mean * mean / var, rel=1e-14)
    assert fit.q == pytest.approx(var / mean, rel=1e-14)


def test_gamma_fit_shape_linear_in_elements():
    base = gamma_fit(0.0, 1)
    ten = gamma_fit(0.0, 10)
    assert ten.p == pytest.approx(10.0 * base.p, rel=1e-14)
    assert ten.q == base.q


def test_gamma_fit_matches_sum_moments():
    # Gamma(p, q) must reproduce the mean/variance of the L-term sum
    rng = np.random.default_rng(7)
    L = 10
    s = sum(_product_samples(rng, KAPPA_REF, 2_000_000) for _ in range(L))
    fit = gamma_fit(KAPPA_REF, L)
    assert fit.p * fit.q == pytest.approx(s.mean(), rel=2e-3)
    assert fit.p * fit.q ** 2 == pytest.approx(s.var(ddof=1), rel=2e-2)


# ---------------------------------------------------------------------------
# cascade CDF
# ---------------------------------------------------------------------------

def test_cascade_cdf_zero_and_limits():
    fit = gamma_fit(KAPPA_REF, 10)
    assert cascade_cdf(fit, 0.0) == 0.0
    assert cascade_cdf(fit, 1e9) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.0, 200.0, 100)
    vals = cascade_cdf(fit, xs)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) >= 0.0)


def test_cascade_cdf_exponential_special_case():
    # p = 1, q = 1: F(x) = P(1, sqrt(x)) = 1 - exp(-sqrt(x))
    fit = GammaApprox(p=1.0, q=1.0)
    assert cascade_cdf(fit, 4.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_cascade_cdf_median_vs_monte_carlo():
    rng = np.random.default_rng(11)
    L = 10
    gains = sum(_product_samples(rng, KAPPA_REF, 1_000_000) for _ in range(L)) ** 2
    median = float(np.median(gains))
    fit = gamma_fit(KAPPA_REF, L)
    assert cascade_cdf(fit, median) == pytest.approx(0.5, abs=0.02)


def test_cascade_cdf_rejects_negative():
    with pytest.raises(ValueError):
        cascade_cdf(gamma_fit(0.0, 2), -1.0)


# ---------------------------------------------------------------------------
# noise power factor
# ---------------------------------------------------------------------------

def test_noise_power_factor_single_element():
    for kappa in (0.0, 0.5, 3.0):
        assert noise_power_factor(kappa, 1) == pytest.approx(1.0, rel=1e-14)


def test_noise_power_factor_los_limit():
    assert noise_power_factor(1e12, 10) == pytest.approx(100.0, rel=1e-9)


def test_noise_power_factor_reference_value():
    val = noise_power_factor(KAPPA_REF, 10)
    assert val == pytest.approx(10.0 * (10.0 * KAPPA_REF + 1.0) / (KAPPA_REF + 1.0),
                                rel=1e-14)
    assert val == pytest.approx(31.6228, rel=1e-4)


def test_noise_power_factor_monotone_and_bounded():
    kappas = [0.0, 0.1, 0.5, 1.0, 10.0]
    for L in (1, 4, 10):
        vals = [noise_power_factor(k, L) for k in kappas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(L <= v <= L * L for v in vals)
    for k in (0.0, 1.0):
        vals = [noise_power_factor(k, L) for L in (1, 2, 5, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# user distances
# ---------------------------------------------------------------------------

def test_distance_pdf_endpoint_and_support():
    assert distance_pdf(35.0, 35.0) == pytest.approx(2.0 / 35.0, rel=1e-14)
    assert distance_pdf(-1.0, 35.0) == 0.0
    assert distance_pdf(36.0, 35.0) == 0.0


def test_distance_pdf_normalization_and_mean():
    from scipy import integrate
    total, _ = integrate.quad(lambda x: distance_pdf(x, 35.0), 0.0, 35.0)
    assert total == pytest.approx(1.0, rel=1e-12)
    mean, _ = integrate.quad(lambda x: x * distance_pdf(x, 35.0), 0.0, 35.0)
    assert mean == pytest.approx(2.0 * 35.0 / 3.0, rel=1e-12)
    assert mean == pytest.approx(23.3333, rel=1e-4)


def test_sample_distance_distribution():
    rng = np.random.default_rng(3)
    d = sample_distance(rng, 35.0, size=1_000_000)
    assert np.all((d >= 0.0) & (d <= 35.0))
    se = d.std(ddof=1) / math.sqrt(d.size)
    assert abs(d.mean() - 2.0 * 35.0 / 3.0) < 3.0 * se


def test_sample_distance_inverse_cdf_endpoints():
    class FixedRng:
        def __init__(self, u):
            self._u = u

        def random(self, size=None):
            return self._u if size is None else np.full(size, self._u)

    assert sample_distance(FixedRng(0.0), 35.0) == 0.0
    assert sample_distance(FixedRng(1.0 - 1e-12), 35.0) == pytest.approx(35.0, rel=1e-9)
