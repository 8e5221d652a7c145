"""High-SNR machinery: outage floors and power-law asymptotes, rate
ceilings and bounds, and empirical slope extraction (diversity order /
multiplexing gain).

The small-argument cascade CDF comes from the Laplace-transform route:
the per-element product-gain transform behaves like C / (Lambda s^2) with
Lambda = 3 e^{2 kappa} / (16 (1+kappa)^2) and C a Gauss hypergeometric
factor that is logarithmically divergent at its natural argument 1 (the
product channel's CDF genuinely carries a log(1/x) factor).  C is
therefore evaluated at the regularized argument implied by the operating
point, z = (s - 2(kappa+1))/(s + 2(kappa+1)) with s = 1/sqrt(x), capped
at the configurable hyp2f1_z_cap.  Consequence: asymptotic slopes are
exact once the cap binds, while asymptotic constants are approximate;
slope-based claims are the ones gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import NetworkConfig, element_moments, gamma_fit, noise_power_factor
from .numerics import gauss_chebyshev_nodes, gauss_laguerre_rule, hyp2f1_series, reg_lower_gamma
from .analytic import (SicMode, _amplitude_rule, _distance_rule, _residual_rule,
                       _triple_log_sum, rate_ceiling_t, target_sinr)

__all__ = [
    "OutOfRegimeError",
    "SlopeFit",
    "ergodic_asym_r_ipsic",
    "ergodic_asym_t",
    "ergodic_bound_r_psic",
    "fit_order",
    "high_snr_cascade_cdf",
    "outage_asym_r_psic",
    "outage_asym_t",
    "outage_floor_r_ipsic",
]


class OutOfRegimeError(ArithmeticError):
    """An asymptotic expression was evaluated outside its validity region."""


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of a metric sweep on the stated scale."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def _hyp_factor(kappa: float, x: float, z_cap: float) -> float:
    """Regularized hypergeometric factor C(x) of the small-x cascade CDF."""
    s = 1.0 / math.sqrt(x)
    z = (s - 2.0 * (kappa + 1.0)) / (s + 2.0 * (kappa + 1.0))
    z = min(max(z, 0.0), z_cap)
    return hyp2f1_series(2.0, 0.5, 2.5, z)


def high_snr_cascade_cdf(kappa: float, num_elements: int, x: float,
                         z_cap: float = 1.0 - 1.0e-3) -> float:
    """Leading small-x behaviour of the squared-cascade-gain CDF,

        F(x) = C(x)^L x^L / ((2L)! Lambda^L),
        Lambda = 3 e^{2 kappa} / (16 (1 + kappa)^2),

    the degree-L term obtained by convolving the per-element Laplace
    transforms and inverting.  Valid only where the result stays at or
    below 1; larger x raises OutOfRegimeError.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if num_elements < 1:
        raise ValueError("num_elements must be >= 1")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    L = num_elements
    lam = 3.0 * math.exp(2.0 * kappa) / (16.0 * (1.0 + kappa) ** 2)
    c = _hyp_factor(kappa, x, z_cap)
    log_f = L * (math.log(x) + math.log(c) - math.log(lam)) - math.lgamma(2 * L + 1)
    value = math.exp(log_f)
    if value > 1.0:
        raise OutOfRegimeError(
            f"high-SNR cascade CDF {value} > 1 at x={x}; argument too large")
    return value


def _asym_outage(cfg: NetworkConfig, ps: float, thresholds: np.ndarray,
                 weights: np.ndarray, label: str) -> float:
    total = 0.0
    for thr, w in zip(thresholds, weights):
        total += w * high_snr_cascade_cdf(
            cfg.rician_kappa, cfg.num_elements, thr, cfg.hyp2f1_z_cap)
    if total > 1.0:
        raise OutOfRegimeError(f"{label} = {total} > 1 at ps={ps}")
    return total


def outage_asym_r_psic(cfg: NetworkConfig, ps: float) -> float:
    """High-SNR outage asymptote of the reflection user with pSIC: the
    disk average of the degree-L cascade CDF at the decode threshold.
    Decays as ps^{-L}, which is the full diversity order."""
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    gamma_r_hat = target_sinr(cfg.target_rate_r)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    bracket = (chi ** cfg.path_alpha * cfg.noise_sigma_02
               / (cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda)
               + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)
    thresholds = gamma_r_hat * cfg.dist_bs ** cfg.path_alpha / (cfg.a_r * ps) * bracket
    return _asym_outage(cfg, ps, thresholds, w, "asymptotic pSIC outage")


def outage_asym_t(cfg: NetworkConfig, ps: float) -> float:
    """High-SNR outage asymptote of the transmission user; degenerate
    power allocations have no asymptote (the outage is surely 1)."""
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    gamma_t_hat = target_sinr(cfg.target_rate_t)
    if cfg.a_t <= gamma_t_hat * cfg.a_r:
        raise OutOfRegimeError(
            "degenerate allocation a_t <= gamma_t_hat a_r: outage is surely 1")
    partial = gamma_t_hat / (cfg.a_t - gamma_t_hat * cfg.a_r)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    bracket = (chi ** cfg.path_alpha * cfg.noise_sigma_02
               / (cfg.path_eta0 ** 2 * cfg.beta_t * cfg.amp_lambda)
               + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)
    thresholds = partial * cfg.dist_bs ** cfg.path_alpha / ps * bracket
    return _asym_outage(cfg, ps, thresholds, w, "asymptotic outage_t")


def outage_floor_r_ipsic(cfg: NetworkConfig) -> float:
    """Residual-interference error floor of the ipSIC reflection user.

    Exact infinite-power limit of the finite-SNR ipSIC evaluator: the
    thermal terms vanish as 1/ps while the residual term, proportional to
    ps, survives with ps cancelling.  The result is power-independent and
    equals the large-ps limit of outage_r(ipSIC).
    """
    gamma_r_hat = target_sinr(cfg.target_rate_r)
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    lag = gauss_laguerre_rule(cfg.quad_k)
    thr = (gamma_r_hat * cfg.dist_bs ** cfg.path_alpha / cfg.a_r
           * chi[None, :] ** cfg.path_alpha / cfg.path_eta0 ** 2
           * lag.nodes[:, None] * cfg.noise_sigma_re2
           / (cfg.beta_r * cfg.amp_lambda))
    args = np.sqrt(thr) / approx.q
    return float(lag.weights @ reg_lower_gamma(approx.p, args) @ w)


def ergodic_asym_r_ipsic(cfg: NetworkConfig) -> float:
    """Power-independent ergodic-rate ceiling of the ipSIC reflection
    user: at infinite power the SINR reduces to the residual-interference-
    limited ratio, averaged over the cascade amplitude, the residual power,
    and the user distance."""
    q, t, gamma_w = _amplitude_rule(cfg)
    y, k_w = _residual_rule(cfg, SicMode.IPSIC)
    chi, w = _distance_rule(cfg)
    snr_scale = (cfg.path_eta0 ** 2 * q ** 2 * cfg.a_r * cfg.beta_r
                 * cfg.amp_lambda
                 / (cfg.dist_bs ** cfg.path_alpha * chi[None, :] ** cfg.path_alpha
                    * y[:, None] * cfg.noise_sigma_re2))
    return _triple_log_sum(gamma_w, t, k_w, w, snr_scale)


def ergodic_bound_r_psic(cfg: NetworkConfig, ps: float) -> float:
    """Jensen upper bound log2(1 + E[SINR]) on the pSIC reflection rate.

    The mean SINR factorizes over the independent cascade gain and user
    distance: E[X] = L(var + L mean^2) for the Gamma-matched gain and the
    disk average of 1/(noise(d)) taken exactly (distance quadrature), so
    the bound provably dominates the exact rate of the same model.
    """
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    mean, var = element_moments(cfg.rician_kappa)
    L = cfg.num_elements
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    mean_gain = L * (var + L * mean * mean)
    chi, w = _distance_rule(cfg)
    noise_amp = cfg.amp_lambda * cfg.beta_r * cfg.path_eta0 * zeta * cfg.noise_sigma_s2
    inv_noise = float(w @ (1.0 / (noise_amp + cfg.noise_sigma_02 * chi ** cfg.path_alpha)))
    mean_snr = (cfg.a_r * cfg.amp_lambda * cfg.beta_r * ps * cfg.path_eta0 ** 2
                / cfg.dist_bs ** cfg.path_alpha * mean_gain * inv_noise)
    return math.log2(1.0 + mean_snr)


def ergodic_asym_t(cfg: NetworkConfig) -> float:
    """High-SNR ergodic-rate asymptote of the transmission user: the
    Chebyshev approximation of int_0^{a_t/a_r} dx/((1+x) ln 2), which
    converges to the rate ceiling log2(1 + a_t/a_r) as the rule grows."""
    rule = gauss_chebyshev_nodes(cfg.cheb_n)
    y = (rule.nodes + 1.0) * cfg.a_t / (2.0 * cfg.a_r)
    return float(cfg.a_t / (2.0 * cfg.a_r * math.log(2.0))
                 * np.sum(rule.weights * np.sqrt(1.0 - rule.nodes ** 2) / (1.0 + y)))


def fit_order(points: Sequence[tuple[float, float]], scale: str = "loglog") -> SlopeFit:
    """Least-squares slope of a metric-versus-power sweep.

    scale="loglog": slope of log(value) against log(ps), sign-flipped so a
    ps^{-L} outage decay reports the positive diversity order L; a floor
    reports 0.  Requires strictly positive values.

    scale="semilogx": slope of the raw value against log2(ps), i.e. the
    multiplexing gain in BPCU per doubling of transmit power; a saturating
    rate reports 0.
    """
    if scale not in ("loglog", "semilogx"):
        raise ValueError(f"unknown scale {scale!r}")
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 points")
    ps = np.array([p for p, _ in pts], dtype=float)
    vals = np.array([v for _, v in pts], dtype=float)
    if np.any(np.diff(ps) <= 0.0):
        raise ValueError("powers must be strictly increasing")
    if np.any(ps <= 0.0):
        raise ValueError("powers must be positive")
    if scale == "loglog":
        if np.any(vals <= 0.0):
            raise ValueError("loglog fit requires strictly positive values")
        x = np.log(ps)
        y = np.log(vals)
        flip = -1.0
    else:
        x = np.log2(ps)
        y = vals
        flip = 1.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(slope=flip * slope, intercept=float(intercept),
                    r_squared=min(1.0, r_squared), points_used=len(pts))
