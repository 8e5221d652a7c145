"""High-SNR machinery: outage floors and power-law asymptotes, rate
ceilings and bounds, and empirical slope extraction (diversity order /
multiplexing gain).

The small-argument cascade CDF comes from the Laplace-transform route:
the per-element product-gain transform behaves like C / (Lambda s^2) with
Lambda = 3 e^{2 kappa} / (16 (1+kappa)^2) and C = 2F1(2, 1/2; 5/2; z), a
Gauss hypergeometric factor with an elementary closed form that is
logarithmically divergent at its natural argument 1 (the product
channel's CDF genuinely carries a log(1/x) factor).  C is
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

from .model import NetworkConfig, element_moments
from .numerics import exp_e1
from .analytic import (SicMode, _amplitude_rule, _check_power, _decode_scales, _distance_rule,
                       _noise_bracket, _rate_sum, _residual_term, _user_stages)

__all__ = [
    "OutOfRegimeError",
    "SlopeFit",
    "ergodic_asym_r_ipsic",
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


# Taylor coefficients 3(n+1)/((2n+1)(2n+3)) of 2F1(2, 1/2; 5/2; z); on
# z <= 1/2 the terms past n = 55 fall below 1e-17 of the sum
_HYP_SERIES = np.array([3.0 * (n + 1) / ((2 * n + 1) * (2 * n + 3)) for n in range(56)])


def _hyp_factor(z: np.ndarray) -> np.ndarray:
    """Hypergeometric factor C = 2F1(2, 1/2; 5/2; z) of the small-x cascade
    CDF, elementwise on 0 <= z < 1.

    Euler's integral with t = s^2 gives the closed form
    3/(4z) [(1 + z) artanh(sqrt z)/sqrt z - 1], taken above z = 1/2 with
    artanh(sqrt z) = log1p(sqrt z) - log1p(-z)/2 (1 - z is exact there).
    At and below 1/2 the closed form cancels toward 0/0, so the Taylor
    series is summed instead, by in-place Horner.
    """
    out = np.empty_like(z)
    lo = z <= 0.5
    zs = z[lo]
    poly = np.full_like(zs, _HYP_SERIES[-1])
    for coef in _HYP_SERIES[-2::-1]:
        poly *= zs
        poly += coef
    out[lo] = poly
    hi = z[~lo]
    root = np.sqrt(hi)
    artanh = np.log1p(root) - 0.5 * np.log1p(-hi)
    out[~lo] = 0.75 / hi * ((1.0 + hi) * artanh / root - 1.0)
    return out


def high_snr_cascade_cdf(kappa: float, num_elements: int, x,
                         z_cap: float = NetworkConfig.hyp2f1_z_cap):
    """Leading small-x behaviour of the squared-cascade-gain CDF,

        F(x) = C(x)^L x^L / ((2L)! Lambda^L),
        Lambda = 3 e^{2 kappa} / (16 (1 + kappa)^2),

    the degree-L term obtained by convolving the per-element Laplace
    transforms and inverting.  ``x`` may be a scalar or an ndarray.  Valid
    only where the result stays at or below 1; an x beyond that raises
    OutOfRegimeError.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if num_elements < 1:
        raise ValueError("num_elements must be >= 1")
    if not 0.0 < z_cap < 1.0:
        raise ValueError("z_cap must lie in (0, 1)")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("x must be nonnegative")
    L = num_elements
    lam = 3.0 * math.exp(2.0 * kappa) / (16.0 * (1.0 + kappa) ** 2)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    xs = arr[pos]
    # the factor's argument regularized by the operating point, capped
    s = 1.0 / np.sqrt(xs)
    z = np.clip((s - 2.0 * (kappa + 1.0)) / (s + 2.0 * (kappa + 1.0)), 0.0, z_cap)
    log_f = (L * (np.log(xs) + np.log(_hyp_factor(z)) - math.log(lam))
             - math.lgamma(2 * L + 1))
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        out[pos] = np.exp(log_f)
    if np.any(out > 1.0):
        worst = np.argmax(out)
        raise OutOfRegimeError(f"high-SNR cascade CDF {out[worst]} > 1 at "
                               f"x={arr[worst]}; argument too large")
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def _asym_outage(cfg: NetworkConfig, stages: list[tuple], beta: float, ps: float,
                 label: str) -> float:
    """Disk average of the degree-L cascade CDF at the merged stage's decode
    scale times the noise bracket of the user with amplitude share beta."""
    scale = _decode_scales(cfg, stages, ps)[0]
    if math.isinf(scale):
        raise OutOfRegimeError(
            "degenerate allocation a_t <= gamma_t_hat a_r: outage is surely 1")
    chi, w = _distance_rule(cfg)
    total = float(w @ high_snr_cascade_cdf(
        cfg.rician_kappa, cfg.num_elements, scale * _noise_bracket(cfg, chi, beta),
        cfg.hyp2f1_z_cap))
    if total > 1.0:
        raise OutOfRegimeError(f"{label} = {total} > 1 at ps={ps}")
    return total


def outage_asym_r_psic(cfg: NetworkConfig, ps: float) -> float:
    """High-SNR outage asymptote of the reflection user with pSIC, at the
    larger of the two SIC stage thresholds.  Decays as ps^{-L}, which is
    the full diversity order; degenerate power allocations have no
    asymptote (the outage is surely 1)."""
    return _asym_outage(cfg, _user_stages(cfg, SicMode.PSIC), cfg.beta_r, ps,
                        "asymptotic pSIC outage")


def outage_asym_t(cfg: NetworkConfig, ps: float) -> float:
    """High-SNR outage asymptote of the transmission user; degenerate
    power allocations have no asymptote (the outage is surely 1)."""
    return _asym_outage(cfg, _user_stages(cfg, None), cfg.beta_t, ps, "asymptotic outage_t")


def outage_floor_r_ipsic(cfg: NetworkConfig) -> float:
    """Residual-interference error floor of the ipSIC reflection user.

    Exact infinite-power limit of the finite-SNR ipSIC evaluator: the
    thermal terms and the first SIC stage vanish as 1/ps, leaving the
    power-free outage event S^2 < c_d Y at distance d, c_d the own stage's
    unit-power threshold.  For the residual power Y ~ Exp(1) its
    probability is E_S[exp(-S^2/c_d)], a sum over the amplitude and distance
    rules; 0 for a zero target, whose own stage never fails, and 1 where
    the first SIC stage always fails (a_t <= gamma_t_hat a_r), at every power.
    """
    first, *_, scale = _decode_scales(cfg, _user_stages(cfg, SicMode.IPSIC), 1.0)
    if math.isinf(first):
        return 1.0
    if scale == 0.0:
        return 0.0
    q, t, gamma_w = _amplitude_rule(cfg)
    chi, w = _distance_rule(cfg)
    c = scale * _residual_term(cfg, chi, cfg.beta_r)
    return float(gamma_w @ np.exp(-np.outer((q * t) ** 2, 1.0 / c)) @ w)


def ergodic_asym_r_ipsic(cfg: NetworkConfig) -> float:
    """Power-independent ergodic-rate ceiling of the ipSIC reflection
    user: at infinite power the SINR reduces to the residual-interference-
    limited ratio c/Y, averaged over the cascade amplitude and the user
    distance.  The residual power Y ~ Exp(1) integrates out exactly:
    E ln(1 + c/Y) = ln c + e^c E1(c) + euler, the zero-bracket limit of
    ergodic_rate_r's ipSIC form."""
    q, t, gamma_w = _amplitude_rule(cfg)
    chi, w = _distance_rule(cfg)
    c = np.outer(t ** 2, cfg.a_r * q ** 2 / (cfg.dist_bs ** cfg.path_alpha
                                             * _residual_term(cfg, chi, cfg.beta_r)))
    return _rate_sum(gamma_w, np.log(c) + exp_e1(c) + np.euler_gamma, w)


def ergodic_bound_r_psic(cfg: NetworkConfig, ps: float) -> float:
    """Jensen upper bound log2(1 + E[SINR]) on the pSIC reflection rate.

    The mean SINR factorizes over the independent cascade gain and user
    distance: E[X] = L(var + L mean^2) for the Gamma-matched gain and the
    disk average of 1/(noise(d)) taken exactly (distance quadrature), so
    the bound provably dominates the exact rate of the same model.
    """
    _check_power(ps)
    mean, var = element_moments(cfg.rician_kappa)
    L = cfg.num_elements
    mean_gain = L * (var + L * mean * mean)
    chi, w = _distance_rule(cfg)
    inv_bracket = float(w @ (1.0 / _noise_bracket(cfg, chi, cfg.beta_r)))
    mean_snr = cfg.a_r * ps / cfg.dist_bs ** cfg.path_alpha * mean_gain * inv_bracket
    return math.log2(1.0 + mean_snr)


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
